#include "core/service.h"

#include <algorithm>
#include <array>

#include "common/trace.h"
#include "idl/interp.h"
#include "pe/layout.h"

namespace tempo::core {

using pe::ExecStatus;

SpecializedService::SpecializedService(const SpecializedInterface& iface,
                                       WordHandler handler)
    : iface_(iface), handler_(std::move(handler)) {
  metrics_source_ =
      common::metrics().add_source([this](common::MetricsSnapshot& snap) {
        snap.add_counter("service.fast_path", stats_.fast_path);
        snap.add_counter("service.generic_path", stats_.generic_path);
        snap.add_counter("service.tier_plan", stats_.fast_path);
        snap.add_counter("service.tier_generic", stats_.generic_path);
      });
}

void SpecializedService::install(rpc::SvcRegistry& registry) {
  registry.register_proc(
      iface_.corpus().prog_num, iface_.corpus().vers_num,
      iface_.corpus().proc_num,
      [this](xdr::XdrStream& in, xdr::XdrStream& out) {
        return handle(in, out);
      });
}

bool SpecializedService::handle(xdr::XdrStream& in, xdr::XdrStream& out) {
  const pe::Plan& dplan = iface_.decode_args_plan();
  const pe::Plan& eplan = iface_.encode_results_plan();

  // Fast path needs direct buffer access on both streams.
  std::uint8_t* in_bytes =
      dplan.expected_in ? in.inline_bytes(dplan.expected_in) : nullptr;
  if (dplan.expected_in != 0 && in_bytes != nullptr) {
    std::vector<std::uint32_t> args(
        static_cast<std::size_t>(iface_.arg_slots()));
    if (iface_.exec_decode_args(ByteSpan(in_bytes, dplan.expected_in),
                                args) == ExecStatus::kOk) {
      std::vector<std::uint32_t> results(
          static_cast<std::size_t>(iface_.res_slots()));
      if (!handler_(args, results)) return false;
      std::uint8_t* out_bytes = out.inline_bytes(eplan.out_size);
      if (out_bytes != nullptr) {
        ++stats_.fast_path;
        return iface_.exec_encode_results(
                   results, MutableByteSpan(out_bytes, eplan.out_size)) ==
               ExecStatus::kOk;
      }
      // Buffer not inlinable for the reply: encode generically.
      ++stats_.generic_path;
      auto value = pe::unflatten_value(iface_.res_type(),
                                       iface_.config().res_counts, results);
      if (!value.is_ok()) return false;
      return idl::encode_value(out, iface_.res_type(), *value);
    }
    // Guard miss: rewind is impossible on a stream, but the plan only
    // *read* via the inline span — the stream cursor already advanced,
    // so decode generically from the claimed bytes.
    xdr::XdrMem redo(MutableByteSpan(in_bytes, dplan.expected_in),
                     xdr::XdrOp::kDecode);
    ++stats_.generic_path;
    return handle_generic(redo, out);
  }
  ++stats_.generic_path;
  return handle_generic(in, out);
}

CachedSpecService::CachedSpecService(SpecCache& cache, idl::ProcDef proc,
                                     std::uint32_t prog, std::uint32_t vers,
                                     DynamicWordHandler handler,
                                     CountMapper res_counts_for,
                                     SpecConfig base)
    : cache_(cache),
      proc_(std::move(proc)),
      prog_(prog),
      vers_(vers),
      handler_(std::move(handler)),
      res_counts_for_(std::move(res_counts_for)),
      base_(std::move(base)) {
  if (auto probe = pe::ShapeProbe::build(*proc_.arg_type); probe.is_ok()) {
    probe_ = std::move(*probe);
  }
  // Tier attribution: every request lands in exactly one of jit / plan
  // / generic, so the three tier counters partition service.requests —
  // the acceptance test asserts the sum.  fast_path counts plans AND
  // jit (jit_fast_path is its subset), hence the subtraction.
  metrics_source_ =
      common::metrics().add_source([this](common::MetricsSnapshot& snap) {
        const auto c = [](const std::atomic<std::int64_t>& v) {
          return v.load(std::memory_order_relaxed);
        };
        const std::int64_t fast = c(stats_.fast_path);
        const std::int64_t jit = c(stats_.jit_fast_path);
        snap.add_counter("service.fast_path", fast);
        snap.add_counter("service.generic_path", c(stats_.generic_path));
        snap.add_counter("service.plan_fallbacks", c(stats_.plan_fallbacks));
        snap.add_counter("service.spec_unavailable",
                         c(stats_.spec_unavailable));
        snap.add_counter("service.shape_switches", c(stats_.shape_switches));
        snap.add_counter("service.jit_fast_path", jit);
        snap.add_counter("service.tier_jit", jit);
        snap.add_counter("service.tier_plan", fast - jit);
        snap.add_counter("service.tier_generic", c(stats_.generic_path));
      });
}

void CachedSpecService::install(rpc::SvcRegistry& registry) {
  registry.register_proc(prog_, vers_, proc_.number,
                         [this](xdr::XdrStream& in, xdr::XdrStream& out) {
                           return handle(in, out);
                         });
}

namespace {
enum class PathResult {
  kServed,        // request fully handled through the plans
  kGuardMiss,     // a plan guard rejected it; stream cursor advanced
  kStreamOpaque,  // stream cannot inline the args; cursor untouched
  kHandlerFault,  // application handler failed: GARBAGE_ARGS
};

// Counts of up to this many var arrays are probed into a stack buffer.
constexpr std::size_t kInlineCounts = 16;

// Per-thread slot buffers for the plan path, reused so a served request
// allocates nothing once its thread has seen the shape's size.  A
// handler that re-enters a service on the same thread finds them in use
// and gets its own.
struct SlotScratch {
  std::vector<std::uint32_t> args, results;
  bool in_use = false;
};
thread_local SlotScratch tls_scratch;
}  // namespace

bool CachedSpecService::encode_results(const SpecializedInterface& iface,
                                       std::span<const std::uint32_t> results,
                                       xdr::XdrStream& out) {
  const pe::Plan& eplan = iface.encode_results_plan();
  std::uint8_t* out_bytes = out.inline_bytes(eplan.out_size);
  if (out_bytes != nullptr) {
    return iface.exec_encode_results(
               results, MutableByteSpan(out_bytes, eplan.out_size)) ==
           ExecStatus::kOk;
  }
  auto value = pe::unflatten_value(iface.res_type(),
                                   iface.config().res_counts, results);
  if (!value.is_ok()) return false;
  return idl::encode_value(out, iface.res_type(), *value);
}

SpecConfig CachedSpecService::config_for(
    std::span<const std::uint32_t> arg_counts) const {
  SpecConfig cfg = base_;
  cfg.arg_counts.assign(arg_counts.begin(), arg_counts.end());
  cfg.res_counts =
      res_counts_for_ ? res_counts_for_(arg_counts) : cfg.arg_counts;
  return cfg;
}

// The one cache lookup of a probed call.  The hot handle's own config
// keys the lookup when the shape matches (no allocation); any other
// shape builds its config, resolves it and takes over the hot handle.
SpecHandle CachedSpecService::resolve(
    std::span<const std::uint32_t> arg_counts) {
  SpecHandle h = hot_.load(std::memory_order_acquire);
  if (h && std::ranges::equal(h->config().arg_counts, arg_counts)) {
    // Re-resolving the hot shape counts the hit, keeps the LRU ordering
    // honest for actively served shapes, and picks up a rebuilt
    // instance if the entry was evicted meanwhile.
    auto refreshed = cache_.get_or_build(proc_, prog_, vers_, h->config());
    return refreshed.is_ok() ? *refreshed : h;
  }
  auto built = cache_.get_or_build(proc_, prog_, vers_, config_for(arg_counts));
  if (!built.is_ok()) {
    stats_.spec_unavailable.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  SpecHandle prev = hot_.exchange(*built, std::memory_order_acq_rel);
  if (prev && prev->config().arg_counts != (*built)->config().arg_counts) {
    stats_.shape_switches.fetch_add(1, std::memory_order_relaxed);
  }
  return *built;
}

bool CachedSpecService::handle(xdr::XdrStream& in, xdr::XdrStream& out) {
  const std::size_t pos = in.getpos();

  // Shape probe: the request's counts, read off the wire.  Fails (with
  // the cursor untouched) for streams that cannot rewind and for
  // malformed requests; both go to the generic decoder.
  SpecHandle h;
  bool resolved = false;
  if (probe_) {
    std::array<std::uint32_t, kInlineCounts> inline_counts{};
    std::vector<std::uint32_t> heap_counts;
    std::span<std::uint32_t> counts(inline_counts.data(),
                                    probe_->count_params());
    if (counts.size() > kInlineCounts) {
      heap_counts.resize(counts.size());
      counts = heap_counts;
    }
    if (probe_->read_counts(in, counts)) {
      h = resolve(counts);
      resolved = true;
      // Stage marks are no-ops unless the runtime sampled this request
      // (one thread_local null check), so the unsampled path pays
      // nothing.
      common::trace_mark(common::TraceStage::kCacheLookup);
    }
  }
  if (!h) return handle_generic(in, out, nullptr, resolved);

  PathResult r = PathResult::kStreamOpaque;
  const pe::Plan& dplan = h->decode_args_plan();
  std::uint8_t* in_bytes =
      dplan.expected_in ? in.inline_bytes(dplan.expected_in) : nullptr;
  if (in_bytes != nullptr) {
    SlotScratch local;
    SlotScratch& slots = tls_scratch.in_use ? local : tls_scratch;
    slots.in_use = true;
    slots.args.assign(static_cast<std::size_t>(h->arg_slots()), 0);
    if (h->exec_decode_args(ByteSpan(in_bytes, dplan.expected_in),
                            slots.args) == ExecStatus::kOk) {
      common::trace_mark(common::TraceStage::kDecode);
      slots.results.assign(static_cast<std::size_t>(h->res_slots()), 0);
      if (!handler_(h->config().arg_counts, slots.args, slots.results)) {
        r = PathResult::kHandlerFault;
      } else {
        common::trace_mark(common::TraceStage::kExecute);
        if (encode_results(*h, slots.results, out)) {
          common::trace_mark(common::TraceStage::kEncode);
          r = PathResult::kServed;
        } else {
          r = PathResult::kHandlerFault;
        }
      }
    } else {
      r = PathResult::kGuardMiss;
    }
    slots.in_use = false;
  }
  switch (r) {
    case PathResult::kServed:
      stats_.fast_path.fetch_add(1, std::memory_order_relaxed);
      common::trace_set_tier(h->jit_active() ? common::TraceTier::kJit
                                             : common::TraceTier::kPlan);
      if (h->jit_active()) {
        stats_.jit_fast_path.fetch_add(1, std::memory_order_relaxed);
      }
      return true;
    case PathResult::kHandlerFault:
      return false;
    case PathResult::kGuardMiss:
      stats_.plan_fallbacks.fetch_add(1, std::memory_order_relaxed);
      if (!in.setpos(pos)) return false;  // the probe showed it rewinds
      break;
    case PathResult::kStreamOpaque:
      break;
  }
  return handle_generic(in, out, std::move(h), resolved);
}

// Interprets the value and learns its shape.  `resolved` says the call
// already made its cache lookup (`h` is its result, null when the build
// failed); otherwise the lookup happens here, so the reply still runs
// residual code when the shape has a plan.
bool CachedSpecService::handle_generic(xdr::XdrStream& in, xdr::XdrStream& out,
                                       SpecHandle h, bool resolved) {
  stats_.generic_path.fetch_add(1, std::memory_order_relaxed);
  common::trace_set_tier(common::TraceTier::kGeneric);
  idl::Value value;
  if (!idl::decode_value(in, *proc_.arg_type, value)) return false;
  std::vector<std::uint32_t> counts;
  if (!pe::collect_counts(*proc_.arg_type, value, counts).is_ok()) {
    return false;
  }
  common::trace_mark(common::TraceStage::kDecode);

  const SpecConfig cfg = config_for(counts);
  if (!resolved) {
    auto iface = cache_.get_or_build(proc_, prog_, vers_, cfg);
    if (iface.is_ok()) {
      h = *iface;
    } else {
      stats_.spec_unavailable.fetch_add(1, std::memory_order_relaxed);
    }
    common::trace_mark(common::TraceStage::kCacheLookup);
  }
  // The probe read the same count words the decoder did, so a resolved
  // handle has this shape; the check keeps a mismatched plan off the
  // reply regardless.
  if (h && h->config().arg_counts != counts) h = nullptr;

  pe::Slots args;
  if (!pe::flatten_value(*proc_.arg_type, value, counts, args).is_ok()) {
    return false;
  }
  // Flattening is decode-side work even though it runs after the cache
  // lookup; accumulate it into the decode stage.
  common::trace_mark(common::TraceStage::kDecode);
  auto res_slots = pe::type_slots(*proc_.res_type, cfg.res_counts);
  if (!res_slots.is_ok() || *res_slots < 0) return false;
  std::vector<std::uint32_t> results(static_cast<std::size_t>(*res_slots));
  if (!handler_(counts, args, results)) return false;
  common::trace_mark(common::TraceStage::kExecute);

  if (h) {
    const bool ok = encode_results(*h, results, out);
    common::trace_mark(common::TraceStage::kEncode);
    return ok;
  }
  auto rvalue = pe::unflatten_value(*proc_.res_type, cfg.res_counts, results);
  if (!rvalue.is_ok()) return false;
  const bool ok = idl::encode_value(out, *proc_.res_type, *rvalue);
  common::trace_mark(common::TraceStage::kEncode);
  return ok;
}

bool SpecializedService::handle_generic(xdr::XdrStream& in,
                                        xdr::XdrStream& out) {
  idl::Value value;
  if (!idl::decode_value(in, iface_.arg_type(), value)) return false;
  pe::Slots args;
  std::vector<std::uint32_t> counts;
  if (!pe::collect_counts(iface_.arg_type(), value, counts).is_ok()) {
    return false;
  }
  if (!pe::flatten_value(iface_.arg_type(), value, counts, args).is_ok()) {
    return false;
  }
  // Shape differs from the specialization: the word handler contract is
  // fixed-shape, so only matching requests can be served.
  if (counts != iface_.config().arg_counts &&
      !iface_.config().arg_counts.empty()) {
    return false;
  }
  if (args.size() != static_cast<std::size_t>(iface_.arg_slots())) {
    return false;
  }
  std::vector<std::uint32_t> results(
      static_cast<std::size_t>(iface_.res_slots()));
  if (!handler_(args, results)) return false;
  auto rvalue = pe::unflatten_value(iface_.res_type(),
                                    iface_.config().res_counts, results);
  if (!rvalue.is_ok()) return false;
  return idl::encode_value(out, iface_.res_type(), *rvalue);
}

}  // namespace tempo::core

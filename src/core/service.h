// Server-side specialization: a SvcRegistry handler that decodes
// arguments and encodes results through residual plans, with the generic
// type-interpreter path as the guarded fallback.
//
// The plan fast path engages when the transport exposes its buffer
// (XDR_INLINE succeeds — true for the UDP XdrMem path, not for TCP
// record streams) and the request length matches the specialization;
// otherwise the request is served by the generic path.  Either way the
// application logic sees flattened words.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>

#include "common/metrics.h"
#include "common/status.h"
#include "core/spec_cache.h"
#include "core/stubspec.h"
#include "pe/layout.h"
#include "rpc/svc.h"

namespace tempo::core {

// Application logic on flattened slots: read `args`, fill `results`
// (pre-sized to iface.res_slots()).  Return false for a server fault.
using WordHandler = std::function<bool(std::span<const std::uint32_t> args,
                                       std::span<std::uint32_t> results)>;

struct SpecServiceStats {
  std::int64_t fast_path = 0;
  std::int64_t generic_path = 0;
};

// Registers `handler` for the interface; requests are served through the
// residual plans when possible.  The returned stats object is owned by
// the registry entry (lives as long as the registry).
class SpecializedService {
 public:
  SpecializedService(const SpecializedInterface& iface, WordHandler handler);

  void install(rpc::SvcRegistry& registry);

  const SpecServiceStats& stats() const { return stats_; }

 private:
  bool handle(xdr::XdrStream& in, xdr::XdrStream& out);
  bool handle_generic(xdr::XdrStream& in, xdr::XdrStream& out);

  const SpecializedInterface& iface_;
  WordHandler handler_;
  // Plain (non-atomic) counters: this pinned-shape service is used by
  // single-threaded adapters and benchmarks; the snapshot source reads
  // whatever values are visible, which is exact once traffic quiesces.
  SpecServiceStats stats_;
  common::MetricsRegistry::SourceHandle metrics_source_;  // last member
};

// Dynamic sibling of SpecializedService for servers whose clients send
// *varying* array shapes.  Instead of one pinned specialization it
// resolves each request's residual plans through a SpecCache, choosing
// the plan from the request's actual shape:
//
//  * shape probe — before any plan runs, a pe::ShapeProbe reads the
//    request's var-array counts off the wire (count words only, element
//    bytes skipped) and rewinds the stream.
//  * dispatch — counts equal to the hot handle's (the shape this
//    service last served) are served from it; any other shape is
//    resolved through the cache and republished as the hot handle.
//    Either way each call makes exactly one cache lookup, and the plan
//    guards still run: a guard miss rewinds to the generic path.
//  * generic path — the layered interpreter serves what the probe
//    cannot: streams that cannot rewind (TCP xdrrec on
//    rpc::ServerRuntime), shapes whose specialization failed to build,
//    and malformed requests.  A decoded value still has its reply
//    encoded through the matching residual plan when one exists.
//
// Thread-safe: handle() may run on many worker threads concurrently;
// stats are atomic and the hot handle is an atomic<shared_ptr> read
// without any lock, matching the hot-spec slot inside SpecCache itself.
class CachedSpecService {
 public:
  // Application logic on flattened slots, shape passed explicitly:
  // `arg_counts` are the request's variable-array counts (preorder).
  using DynamicWordHandler = std::function<bool(
      std::span<const std::uint32_t> arg_counts,
      std::span<const std::uint32_t> args, std::span<std::uint32_t> results)>;
  // Maps request arg counts to reply res counts (echo-style identity by
  // default).
  using CountMapper = std::function<std::vector<std::uint32_t>(
      std::span<const std::uint32_t> arg_counts)>;

  struct Stats {
    std::atomic<std::int64_t> fast_path{0};     // served fully by plans
    std::atomic<std::int64_t> generic_path{0};  // interpreter decode
    // Probed requests whose plan guards rejected them (then generic).
    std::atomic<std::int64_t> plan_fallbacks{0};
    std::atomic<std::int64_t> spec_unavailable{0};  // cache build failed
    // Hot-handle republishes that replaced a different shape.
    std::atomic<std::int64_t> shape_switches{0};
    // Subset of fast_path served by an interface with compiled stubs
    // (the third tier; equals fast_path when the JIT is on and the
    // shape compiled, 0 when TEMPO_PLAN_JIT is off).
    std::atomic<std::int64_t> jit_fast_path{0};
  };

  CachedSpecService(SpecCache& cache, idl::ProcDef proc, std::uint32_t prog,
                    std::uint32_t vers, DynamicWordHandler handler,
                    CountMapper res_counts_for = {}, SpecConfig base = {});

  void install(rpc::SvcRegistry& registry);

  const Stats& stats() const { return stats_; }

 private:
  bool handle(xdr::XdrStream& in, xdr::XdrStream& out);
  bool handle_generic(xdr::XdrStream& in, xdr::XdrStream& out, SpecHandle h,
                      bool resolved);
  bool encode_results(const SpecializedInterface& iface,
                      std::span<const std::uint32_t> results,
                      xdr::XdrStream& out);
  SpecConfig config_for(std::span<const std::uint32_t> arg_counts) const;
  SpecHandle resolve(std::span<const std::uint32_t> arg_counts);

  SpecCache& cache_;
  idl::ProcDef proc_;
  std::optional<pe::ShapeProbe> probe_;  // empty: type not plan-eligible
  std::uint32_t prog_, vers_;
  DynamicWordHandler handler_;
  CountMapper res_counts_for_;
  SpecConfig base_;  // unroll_factor / buffer_bytes template for cache keys
  Stats stats_;
  std::atomic<SpecHandle> hot_{nullptr};
  // Folds service.* (with the jit/plan/generic tier split) into the
  // global registry.  Last member so it unregisters before stats_ dies.
  common::MetricsRegistry::SourceHandle metrics_source_;
};

}  // namespace tempo::core

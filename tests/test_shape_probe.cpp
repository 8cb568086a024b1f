// Shape-directed dispatch: pe::ShapeProbe reads a request's var-array
// counts off the wire, and core::CachedSpecService picks the residual
// plan from them instead of guessing the last shape it served.
//
//  * The probe agrees with the generic decoder (collect_counts over
//    decode_value) on the randomized plan-eligible shapes the
//    differential suite uses, and refuses malformed or non-rewindable
//    input with the cursor where it started.
//  * Malformed requests still get the generic decoder's reply bytes.
//  * Interleaved shapes over the event runtime (UDP and TCP) are all
//    served by plans: no generic decode, no guard fallback, one cache
//    lookup per call — including with 4 workers republishing the hot
//    handle concurrently.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/service.h"
#include "core/spec_cache.h"
#include "core/spec_client.h"
#include "idl/interp.h"
#include "net/udp.h"
#include "pe/compile.h"
#include "pe/layout.h"
#include "rpc/client.h"
#include "rpc/event_runtime.h"
#include "rpc/rpc_msg.h"
#include "rpc/svc.h"
#include "test_shapes.h"
#include "xdr/primitives.h"
#include "xdr/xdrmem.h"
#include "xdr/xdrrec.h"

namespace tempo {
namespace {

constexpr std::uint32_t kProg = 0x20000E12;
constexpr std::uint32_t kVers = 1;
constexpr std::uint32_t kProc = 7;

Bytes encode(const idl::Type& t, const idl::Value& v, std::size_t prefix = 0) {
  Bytes buf(prefix + idl::wire_size(t, v));
  xdr::XdrMem x(MutableByteSpan(buf.data(), buf.size()), xdr::XdrOp::kEncode);
  for (std::size_t i = 0; i < prefix; i += 4) {
    EXPECT_TRUE(x.putlong(0x5A5A5A5A));
  }
  EXPECT_TRUE(idl::encode_value(x, t, v));
  EXPECT_EQ(x.getpos(), buf.size());
  return buf;
}

// Probes `bytes` from `start`; returns the probe's verdict and checks
// the cursor came back to `start` either way.
bool probe(const pe::ShapeProbe& p, Bytes& bytes, std::size_t start,
           std::vector<std::uint32_t>& counts) {
  xdr::XdrMem x(MutableByteSpan(bytes.data(), bytes.size()),
                xdr::XdrOp::kDecode);
  EXPECT_TRUE(x.setpos(start));
  counts.assign(p.count_params(), 0xFFFFFFFFu);
  const bool ok = p.read_counts(x, counts);
  EXPECT_EQ(x.getpos(), start);
  return ok;
}

TEST(ShapeProbe, CountsMatchDecodedValueOnRandomShapes) {
  Rng rng(0x5A9E'1998u);
  int with_counts = 0;
  for (int iter = 0; iter < 300; ++iter) {
    const idl::TypePtr type =
        test::random_eligible_type(rng, 0, /*allow_var=*/true);
    auto p = pe::ShapeProbe::build(*type);
    ASSERT_TRUE(p.is_ok()) << idl::type_to_string(*type);
    auto params = pe::count_params(*type);
    ASSERT_TRUE(params.is_ok());
    ASSERT_EQ(p->count_params(), *params);

    const idl::Value value = idl::random_value(*type, rng, 12);
    std::vector<std::uint32_t> want;
    ASSERT_TRUE(pe::collect_counts(*type, value, want).is_ok());
    if (!want.empty()) ++with_counts;

    const std::size_t prefix = 4 * rng.next_below(3);
    Bytes bytes = encode(*type, value, prefix);
    std::vector<std::uint32_t> got;
    ASSERT_TRUE(probe(*p, bytes, prefix, got)) << idl::type_to_string(*type);
    EXPECT_EQ(got, want) << idl::type_to_string(*type);

    // The generic decoder, started where the probe left the cursor,
    // reads the same shape.
    xdr::XdrMem x(MutableByteSpan(bytes.data(), bytes.size()),
                  xdr::XdrOp::kDecode);
    ASSERT_TRUE(x.setpos(prefix));
    idl::Value decoded;
    ASSERT_TRUE(idl::decode_value(x, *type, decoded));
    std::vector<std::uint32_t> decoded_counts;
    ASSERT_TRUE(pe::collect_counts(*type, decoded, decoded_counts).is_ok());
    EXPECT_EQ(got, decoded_counts);

    // Any strict prefix of the value is refused.
    if (bytes.size() > prefix) {
      Bytes cut(bytes.begin(),
                bytes.end() - static_cast<std::ptrdiff_t>(
                                  1 + rng.next_below(bytes.size() - prefix)));
      EXPECT_FALSE(probe(*p, cut, prefix, got)) << idl::type_to_string(*type);
    }
  }
  EXPECT_GT(with_counts, 30);  // the sweep must exercise var arrays
}

// A var array inside a fixed array's struct element: one count per
// occurrence, read in preorder (the random sweep never nests these).
TEST(ShapeProbe, VarArraysUnderFixedArrayReadInPreorder) {
  using namespace idl;
  const TypePtr elem =
      t_struct("e", {{"tag", t_hyper()}, {"v", t_array_var(t_uint(), 9)}});
  const TypePtr type =
      t_struct("top", {{"xs", t_array_fixed(elem, 3)}, {"z", t_double()}});
  auto p = pe::ShapeProbe::build(*type);
  ASSERT_TRUE(p.is_ok());
  ASSERT_EQ(p->count_params(), 3u);
  Rng rng(11);
  for (int i = 0; i < 20; ++i) {
    const Value v = random_value(*type, rng, 9);
    std::vector<std::uint32_t> want, got;
    ASSERT_TRUE(pe::collect_counts(*type, v, want).is_ok());
    Bytes bytes = encode(*type, v);
    ASSERT_TRUE(probe(*p, bytes, 0, got));
    EXPECT_EQ(got, want);
  }
}

TEST(ShapeProbe, IneligibleTypesHaveNoProbe) {
  using namespace idl;
  EXPECT_FALSE(pe::ShapeProbe::build(*t_string(10)).is_ok());
  EXPECT_FALSE(
      pe::ShapeProbe::build(*t_array_var(t_array_var(t_int(), 4), 4)).is_ok());
  EXPECT_FALSE(pe::ShapeProbe::build(*t_optional(t_int())).is_ok());
}

// struct { unsigned hdr; int body<8>; opaque tail[5]; }
idl::TypePtr framed_type() {
  using namespace idl;
  return t_struct("m", {{"hdr", t_uint()},
                        {"body", t_array_var(t_int(), 8)},
                        {"tail", t_opaque_fixed(5)}});
}

// Big-endian words, as they sit on the wire.
Bytes words(std::initializer_list<std::uint32_t> ws) {
  Bytes b;
  for (std::uint32_t w : ws) {
    for (int s = 24; s >= 0; s -= 8) {
      b.push_back(static_cast<std::uint8_t>(w >> s));
    }
  }
  return b;
}

struct Malformed {
  const char* what;
  Bytes body;
};

std::vector<Malformed> malformed_bodies() {
  return {
      {"count above bound", words({1, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 0})},
      {"truncated count word", Bytes{0, 0, 0, 1, 0, 0}},
      {"elements overrun the buffer", words({1, 8, 1, 2, 3})},
      {"tail overruns the buffer", words({1, 1, 42, 0})},
      {"empty body", Bytes{}},
  };
}

TEST(ShapeProbe, MalformedInputFailsWithCursorRestored) {
  auto p = pe::ShapeProbe::build(*framed_type());
  ASSERT_TRUE(p.is_ok());
  ASSERT_EQ(p->count_params(), 1u);

  Bytes good = words({1, 2, 10, 20, 0, 0});
  std::vector<std::uint32_t> counts;
  ASSERT_TRUE(probe(*p, good, 0, counts));
  EXPECT_EQ(counts, std::vector<std::uint32_t>{2});

  for (auto& m : malformed_bodies()) {
    EXPECT_FALSE(probe(*p, m.body, 0, counts)) << m.what;
  }
}

// xdrrec cannot rewind, so the probe must not consume a single byte:
// the generic decoder then reads the whole value from the same stream.
TEST(ShapeProbe, RefusesStreamThatCannotRewind) {
  const idl::TypePtr type = framed_type();
  auto p = pe::ShapeProbe::build(*type);
  ASSERT_TRUE(p.is_ok());

  Bytes wire;
  xdr::XdrRec enc(
      xdr::XdrOp::kEncode,
      [&](ByteSpan b) {
        wire.insert(wire.end(), b.begin(), b.end());
        return true;
      },
      nullptr);
  Bytes body = words({7, 2, 10, 20, 0, 0});
  ASSERT_TRUE(enc.putbytes(ByteSpan(body.data(), body.size())));
  ASSERT_TRUE(enc.end_of_record());

  std::size_t off = 0;
  xdr::XdrRec dec(xdr::XdrOp::kDecode, nullptr, [&](MutableByteSpan out) {
    const std::size_t n = std::min(out.size(), wire.size() - off);
    std::copy_n(wire.begin() + static_cast<std::ptrdiff_t>(off), n,
                out.begin());
    off += n;
    return n;
  });
  std::vector<std::uint32_t> counts(1);
  EXPECT_FALSE(p->read_counts(dec, counts));
  EXPECT_EQ(dec.getpos(), 0u);
  idl::Value v;
  ASSERT_TRUE(idl::decode_value(dec, *type, v));
  std::vector<std::uint32_t> decoded;
  ASSERT_TRUE(pe::collect_counts(*type, v, decoded).is_ok());
  EXPECT_EQ(decoded, std::vector<std::uint32_t>{2});
}

// ---- CachedSpecService dispatch ----------------------------------------

idl::ProcDef framed_proc() {
  idl::ProcDef proc;
  proc.name = "FRAMED";
  proc.number = kProc;
  proc.arg_type = framed_type();
  proc.res_type = framed_type();
  return proc;
}

Bytes call_datagram(std::uint32_t xid, const Bytes& body) {
  Bytes buf(512 + body.size());
  xdr::XdrMem x(MutableByteSpan(buf.data(), buf.size()), xdr::XdrOp::kEncode);
  rpc::CallHeader hdr;
  hdr.xid = xid;
  hdr.prog = kProg;
  hdr.vers = kVers;
  hdr.proc = kProc;
  EXPECT_TRUE(rpc::xdr_call_header(x, hdr));
  if (!body.empty()) {
    EXPECT_TRUE(x.putbytes(ByteSpan(body.data(), body.size())));
  }
  buf.resize(x.getpos());
  return buf;
}

bool copy_words(std::span<const std::uint32_t>,
                std::span<const std::uint32_t> args,
                std::span<std::uint32_t> results) {
  std::copy(args.begin(), args.end(), results.begin());
  return true;
}

// Malformed requests reach the generic decoder and get exactly the
// reply a purely generic echo handler gives them; well-formed requests
// of every shape get byte-identical replies from the plans.
TEST(ShapeDispatch, RepliesMatchGenericHandlerByteForByte) {
  const idl::ProcDef proc = framed_proc();
  core::SpecCache cache(16);
  rpc::SvcRegistry planned;
  core::CachedSpecService service(cache, proc, kProg, kVers, copy_words);
  service.install(planned);

  rpc::SvcRegistry generic;
  generic.register_proc(kProg, kVers, kProc,
                        [&](xdr::XdrStream& in, xdr::XdrStream& out) {
                          idl::Value v;
                          return idl::decode_value(in, *proc.arg_type, v) &&
                                 idl::encode_value(out, *proc.res_type, v);
                        });

  // Warm a long hot shape, so every malformed body is shorter than it.
  const Bytes hot = words({1, 8, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0});
  std::uint32_t xid = 100;
  for (int i = 0; i < 3; ++i) {
    const Bytes req = call_datagram(++xid, hot);
    EXPECT_EQ(planned.handle_datagram(ByteSpan(req.data(), req.size())),
              generic.handle_datagram(ByteSpan(req.data(), req.size())));
  }
  ASSERT_EQ(service.stats().fast_path.load(), 3);

  const std::int64_t lookups_before = cache.stats().hits + cache.stats().misses;
  for (auto& m : malformed_bodies()) {
    const Bytes req = call_datagram(++xid, m.body);
    const Bytes want = generic.handle_datagram(ByteSpan(req.data(), req.size()));
    const Bytes got = planned.handle_datagram(ByteSpan(req.data(), req.size()));
    ASSERT_FALSE(want.empty()) << m.what;
    EXPECT_EQ(got, want) << m.what;
  }
  const auto malformed = static_cast<std::int64_t>(malformed_bodies().size());
  EXPECT_EQ(service.stats().generic_path.load(), malformed);
  EXPECT_EQ(service.stats().plan_fallbacks.load(), 0);
  // Undecodable requests never reach the cache.
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, lookups_before);

  // Shorter, well-formed shapes are probed and served by their own plans.
  for (std::uint32_t n : {0u, 3u, 8u, 1u}) {
    Bytes body = words({9, n});
    for (std::uint32_t i = 0; i < n; ++i) {
      const Bytes w = words({i * 7});
      body.insert(body.end(), w.begin(), w.end());
    }
    const Bytes tail = words({0x01020304, 0x05000000});
    body.insert(body.end(), tail.begin(), tail.end());
    const Bytes req = call_datagram(++xid, body);
    EXPECT_EQ(planned.handle_datagram(ByteSpan(req.data(), req.size())),
              generic.handle_datagram(ByteSpan(req.data(), req.size())))
        << "n=" << n;
  }
  EXPECT_EQ(service.stats().fast_path.load(), 7);
  EXPECT_EQ(service.stats().generic_path.load(), malformed);
  EXPECT_EQ(service.stats().shape_switches.load(), 4);  // 8→0→3→8→1
}

// A shape whose specialization cannot be built is served generically,
// still with exactly one cache lookup per call.
TEST(ShapeDispatch, UnbuildableShapeTakesOneLookupAndTheGenericPath) {
  const idl::ProcDef proc = framed_proc();
  core::SpecCache cache(16);
  rpc::SvcRegistry reg;
  // The reply carries one element more than the request; n=5 maps to a
  // reply count above the bound of 8, so that shape cannot be built.
  core::CachedSpecService service(
      cache, proc, kProg, kVers,
      [](std::span<const std::uint32_t> counts,
         std::span<const std::uint32_t> args,
         std::span<std::uint32_t> results) {
        return counts.size() == 1 && args.size() + 1 == results.size();
      },
      [](std::span<const std::uint32_t> counts) {
        return std::vector<std::uint32_t>{counts[0] == 5 ? 99 : counts[0] + 1};
      });
  service.install(reg);

  std::uint32_t xid = 1;
  for (std::uint32_t n : {2u, 5u, 2u, 5u}) {
    Bytes body = words({1, n});
    for (std::uint32_t i = 0; i < n + 2; ++i) body.insert(body.end(), 4, 0);
    const Bytes req = call_datagram(++xid, body);
    (void)reg.handle_datagram(ByteSpan(req.data(), req.size()));
  }
  const auto cs = cache.stats();
  EXPECT_EQ(cs.hits + cs.misses, 4);
  EXPECT_EQ(cs.build_failures, 1);
  EXPECT_EQ(service.stats().spec_unavailable.load(), 2);
  EXPECT_EQ(service.stats().fast_path.load(), 2);
  EXPECT_EQ(service.stats().generic_path.load(), 2);
  EXPECT_EQ(service.stats().plan_fallbacks.load(), 0);
}

// ---- the regression: interleaved shapes over EventServerRuntime --------

idl::ProcDef echo_array_proc() {
  idl::ProcDef proc;
  proc.name = "ECHO";
  proc.number = kProc;
  proc.arg_type = idl::t_array_var(idl::t_int(), 2000);
  proc.res_type = idl::t_array_var(idl::t_int(), 2000);
  return proc;
}

core::SpecConfig cfg_for(std::uint32_t n) {
  core::SpecConfig cfg;
  cfg.arg_counts = {n};
  cfg.res_counts = {n};
  return cfg;
}

const std::vector<std::uint32_t> kShapes = {2000, 20, 500};

// An echo service on an EventServerRuntime with every shape already
// built into the cache, as a warmed-up server has them.
class InterleavedShapes : public ::testing::Test {
 protected:
  void start(int workers) {
    service_ = std::make_unique<core::CachedSpecService>(
        cache_, echo_array_proc(), kProg, kVers, copy_words);
    service_->install(reg_);
    for (std::uint32_t n : kShapes) {
      ASSERT_TRUE(
          cache_.get_or_build(echo_array_proc(), kProg, kVers, cfg_for(n))
              .is_ok());
    }
    rpc::EventServerRuntimeConfig cfg;
    cfg.workers = workers;
    runtime_ = std::make_unique<rpc::EventServerRuntime>(reg_, cfg);
    ASSERT_TRUE(runtime_->start().is_ok());
  }

  void TearDown() override {
    if (runtime_) runtime_->stop();
  }

  // Every call was served by a plan, on the JIT tier when it is live,
  // each with exactly one cache lookup.
  void expect_all_planned(std::int64_t calls) {
    const auto& s = service_->stats();
    EXPECT_EQ(s.generic_path.load(), 0);
    EXPECT_EQ(s.plan_fallbacks.load(), 0);
    EXPECT_EQ(s.spec_unavailable.load(), 0);
    EXPECT_EQ(s.fast_path.load(), calls);
    if (pe::jit_supported_host() && pe::jit_enabled_by_env()) {
      EXPECT_EQ(s.jit_fast_path.load(), s.fast_path.load());
    }
    EXPECT_GT(s.shape_switches.load(), 0);
    const auto cs = cache_.stats();
    EXPECT_EQ(cs.misses, static_cast<std::int64_t>(kShapes.size()));
    EXPECT_EQ(cs.hits, calls);
  }

  core::SpecCache cache_{32, /*shards=*/4};
  rpc::SvcRegistry reg_;
  std::unique_ptr<core::CachedSpecService> service_;
  std::unique_ptr<rpc::EventServerRuntime> runtime_;
};

// Shape sequence with every transition: 2000,20,500,2000,2000,20,...
std::uint32_t shape_at(int i) {
  static constexpr int kPattern[] = {0, 1, 2, 0, 0, 1, 1, 2, 2, 0};
  return kShapes[static_cast<std::size_t>(kPattern[i % 10])];
}

std::vector<std::uint32_t> payload(std::uint32_t n, int round) {
  std::vector<std::uint32_t> w(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    w[i] = static_cast<std::uint32_t>(round) * 7919u + i;
  }
  return w;
}

TEST_F(InterleavedShapes, UdpCallsAllServedByPlans) {
  start(/*workers=*/2);
  std::vector<core::SpecializedInterface> ifaces;
  for (std::uint32_t n : kShapes) {
    auto iface = core::SpecializedInterface::build(echo_array_proc(), kProg,
                                                   kVers, cfg_for(n));
    ASSERT_TRUE(iface.is_ok());
    ifaces.push_back(std::move(*iface));
  }
  net::UdpSocket sock;
  ASSERT_TRUE(sock.ok());
  constexpr int kCalls = 60;
  for (int i = 0; i < kCalls; ++i) {
    const std::uint32_t n = shape_at(i);
    const auto k = static_cast<std::size_t>(
        std::find(kShapes.begin(), kShapes.end(), n) - kShapes.begin());
    core::SpecializedClient client(sock, runtime_->udp_addr(), ifaces[k]);
    const std::vector<std::uint32_t> args = payload(n, i);
    std::vector<std::uint32_t> results(n, 0);
    ASSERT_TRUE(client.call(args, results).is_ok()) << "call " << i;
    ASSERT_EQ(results, args) << "call " << i;
  }
  expect_all_planned(kCalls);
}

TEST_F(InterleavedShapes, TcpCallsAllServedByPlans) {
  start(/*workers=*/2);
  rpc::TcpClient client(runtime_->tcp_addr(), kProg, kVers);
  ASSERT_TRUE(client.ok());
  constexpr int kCalls = 60;
  for (int i = 0; i < kCalls; ++i) {
    const std::uint32_t n = shape_at(i);
    const std::vector<std::uint32_t> sent = payload(n, i);
    std::vector<std::uint32_t> got;
    Status st = client.call(
        kProc,
        [&](xdr::XdrStream& x) {
          std::uint32_t count = n;
          if (!xdr::xdr_u_int(x, count)) return false;
          for (std::uint32_t v : sent) {
            if (!xdr::xdr_u_int(x, v)) return false;
          }
          return true;
        },
        [&](xdr::XdrStream& x) {
          std::uint32_t count = 0;
          if (!xdr::xdr_u_int(x, count) || count != n) return false;
          got.resize(count);
          for (auto& v : got) {
            if (!xdr::xdr_u_int(x, v)) return false;
          }
          return true;
        });
    ASSERT_TRUE(st.is_ok()) << "call " << i << ": " << st.to_string();
    ASSERT_EQ(got, sent) << "call " << i;
  }
  expect_all_planned(kCalls);
}

// Four workers republish the hot handle concurrently while three
// clients interleave three shapes; the TSan job runs this one.
TEST_F(InterleavedShapes, FourWorkersThreeShapesConcurrently) {
  start(/*workers=*/4);
  constexpr int kClients = 3;
  constexpr int kCalls = 40;
  std::atomic<int> bad{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<core::SpecializedInterface> ifaces;
      for (std::uint32_t n : kShapes) {
        auto iface = core::SpecializedInterface::build(echo_array_proc(),
                                                       kProg, kVers, cfg_for(n));
        if (!iface.is_ok()) {
          ++bad;
          return;
        }
        ifaces.push_back(std::move(*iface));
      }
      net::UdpSocket sock;
      if (!sock.ok()) {
        ++bad;
        return;
      }
      for (int i = 0; i < kCalls; ++i) {
        const std::size_t k = static_cast<std::size_t>(c + i) % kShapes.size();
        core::SpecializedClient client(sock, runtime_->udp_addr(), ifaces[k]);
        const std::vector<std::uint32_t> args = payload(kShapes[k], i);
        std::vector<std::uint32_t> results(kShapes[k], 0);
        if (!client.call(args, results).is_ok() || results != args) {
          ++bad;
          return;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  ASSERT_EQ(bad.load(), 0);
  // UDP retransmits may serve a call twice, so count served requests.
  const std::int64_t served = service_->stats().fast_path.load();
  EXPECT_GE(served, kClients * kCalls);
  expect_all_planned(served);
}

}  // namespace
}  // namespace tempo

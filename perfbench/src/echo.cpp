// The paper's echo-int-array call, served by core::CachedSpecService on
// the reactor runtime, in two client shapes:
//
//  * echo_bulk_udp  — core::SpecializedClient over UDP, mostly n=2000
//    with a seeded tenth of smaller shapes, so every change of shape
//    takes the service's hot-slot guard miss into the generic decoder;
//  * echo_small_tcp — one fixed n=20 shape, pipelined 8 deep on each of
//    two TCP connections, encoded and checked with the interface's own
//    exec_encode_call / exec_decode_reply.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <string>

#include "common/endian.h"
#include "core/service.h"
#include "core/spec_cache.h"
#include "core/spec_client.h"
#include "harness.h"
#include "idl/types.h"
#include "net/tcp.h"
#include "net/udp.h"
#include "xdr/xdrrec.h"

namespace perfbench {
namespace {

using tempo::Bytes;
using tempo::ByteSpan;
using tempo::MutableByteSpan;
using tempo::Status;
namespace core = tempo::core;
namespace net = tempo::net;
namespace pe = tempo::pe;
namespace rpc = tempo::rpc;

constexpr std::uint32_t kProg = 0x20000555;
constexpr std::uint32_t kVers = 1;
constexpr std::uint32_t kMaxArray = 2048;
constexpr int kClients = 2;

tempo::idl::ProcDef echo_proc() {
  tempo::idl::ProcDef proc;
  proc.name = "ECHO";
  proc.number = 7;
  proc.arg_type = tempo::idl::t_array_var(tempo::idl::t_int(), kMaxArray);
  proc.res_type = tempo::idl::t_array_var(tempo::idl::t_int(), kMaxArray);
  return proc;
}

core::SpecConfig shape_config(std::uint32_t n) {
  core::SpecConfig cfg;
  cfg.arg_counts = {n};
  cfg.res_counts = {n};
  return cfg;
}

using Words = std::vector<std::uint32_t>;

Words random_words(SeedRng& rng, std::uint32_t n, InputHash& hash) {
  Words w(n);
  for (auto& x : w) {
    x = static_cast<std::uint32_t>(rng.next());
    hash.add(x);
  }
  return w;
}

// The echo server both workloads share: a CachedSpecService whose
// handler copies arguments to results, with every shape the workload
// sends built into the cache before the runtime starts.  A planted
// fault corrupts the next reply or refuses the next call (the handler
// fails it, so the client gets GARBAGE_ARGS instead of its result).
class EchoServer {
 public:
  EchoServer(const std::vector<std::uint32_t>& shapes, bool udp,
             int workers, bool traced)
      : service_(cache_, echo_proc(), kProg, kVers,
                 [this](std::span<const std::uint32_t>,
                        std::span<const std::uint32_t> args,
                        std::span<std::uint32_t> results) {
                   std::copy(args.begin(), args.end(), results.begin());
                   if (fault_.load(std::memory_order_relaxed) == Inject::kNone) {
                     return true;
                   }
                   const Inject f = fault_.exchange(Inject::kNone);
                   if (f == Inject::kReply) results[0] ^= 1;
                   return f != Inject::kRefuse;
                 }) {
    service_.install(registry_);
    for (std::uint32_t n : shapes) {
      const auto t0 = std::chrono::steady_clock::now();
      auto built = cache_.get_or_build(echo_proc(), kProg, kVers,
                                       shape_config(n));
      build_ms_.push_back(std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
      if (!built.is_ok()) {
        throw std::runtime_error("server specialization n=" +
                                 std::to_string(n) + ": " +
                                 built.status().to_string());
      }
    }
    runtime_ = std::make_unique<rpc::EventServerRuntime>(
        registry_, server_config(udp, !udp, workers, traced));
    const Status st = runtime_->start();
    if (!st.is_ok()) {
      throw std::runtime_error("runtime start: " + st.to_string());
    }
  }

  const rpc::EventServerRuntime& runtime() const { return *runtime_; }
  const std::vector<double>& build_ms() const { return build_ms_; }
  std::int64_t jit_stubs() const { return cache_.stats().jit_stubs; }
  // Plants `f` (kReply or kRefuse) in the next call served.
  void plant(Inject f) { fault_.store(f); }

  void read(LayerReading& out) const {
    read_runtime_layers(*runtime_, out);
    auto& c = out.counters;
    const auto& s = service_.stats();
    c["core.fast_path"] = static_cast<double>(s.fast_path.load());
    c["core.generic_path"] = static_cast<double>(s.generic_path.load());
    c["core.plan_fallbacks"] = static_cast<double>(s.plan_fallbacks.load());
    c["core.jit_fast_path"] = static_cast<double>(s.jit_fast_path.load());
    const auto cs = cache_.stats();
    c["core.cache_hits"] = static_cast<double>(cs.hits);
    c["core.cache_hot_hits"] = static_cast<double>(cs.hot_hits);
    c["core.cache_misses"] = static_cast<double>(cs.misses);
  }

  // Every completed call must have been served by the service.
  void check(std::int64_t client_completed,
             std::vector<std::string>& errors) const {
    const auto& s = service_.stats();
    const std::int64_t served = s.fast_path.load() + s.generic_path.load();
    if (served < client_completed) {
      errors.push_back("service served " + std::to_string(served) +
                       " calls but clients completed " +
                       std::to_string(client_completed));
    }
  }

 private:
  core::SpecCache cache_;
  rpc::SvcRegistry registry_;
  std::atomic<Inject> fault_{Inject::kNone};
  core::CachedSpecService service_;
  std::vector<double> build_ms_;
  // Last: its threads call into service_, so it stops first.
  std::unique_ptr<rpc::EventServerRuntime> runtime_;
};

// ---- echo_bulk_udp ---------------------------------------------------------

const std::vector<std::uint32_t> kBulkShapes = {20, 100, 250, 500, 1000, 2000};
constexpr std::size_t kBulkSeqLen = 1 << 14;  // shape draws per client
constexpr std::size_t kBulkPool = 8;          // arrays per shape per client
// Two workers, so the two clients' calls never queue behind each other
// and the per-byte work is what the round trip waits on.
constexpr int kBulkWorkers = 2;

struct BulkInputs {
  // [client][i] -> index into kBulkShapes
  std::vector<std::vector<std::uint8_t>> shape_seq;
  // [client][shape][k] -> argument words
  std::vector<std::vector<std::vector<Words>>> pool;
  std::uint64_t hash = 0;
};

BulkInputs make_bulk_inputs(std::uint64_t seed) {
  BulkInputs in;
  InputHash hash;
  for (int c = 0; c < kClients; ++c) {
    SeedRng rng(seed * 0x100000001B3ull + static_cast<std::uint64_t>(c) + 1);
    std::vector<std::uint8_t> seq(kBulkSeqLen);
    for (auto& s : seq) {
      // 90% n=2000; 10% spread evenly over the five smaller shapes.
      const std::uint32_t r = rng.below(100);
      s = static_cast<std::uint8_t>(r < 90 ? kBulkShapes.size() - 1
                                           : (r - 90) / 2);
      hash.add(s);
    }
    in.shape_seq.push_back(std::move(seq));
    std::vector<std::vector<Words>> per_shape;
    for (std::uint32_t n : kBulkShapes) {
      std::vector<Words> arrays;
      for (std::size_t k = 0; k < kBulkPool; ++k) {
        arrays.push_back(random_words(rng, n, hash));
      }
      per_shape.push_back(std::move(arrays));
    }
    in.pool.push_back(std::move(per_shape));
  }
  in.hash = hash.h;
  return in;
}

class EchoBulkUdp final : public Workload {
 public:
  explicit EchoBulkUdp(const WorkloadOptions& opt)
      : in_(make_bulk_inputs(opt.seed)),
        inject_(opt.inject),
        server_(kBulkShapes, /*udp=*/true, kBulkWorkers, opt.traced) {
    for (std::uint32_t n : kBulkShapes) {
      auto iface = core::SpecializedInterface::build(echo_proc(), kProg,
                                                     kVers, shape_config(n));
      if (!iface.is_ok()) {
        throw std::runtime_error("client specialization: " +
                                 iface.status().to_string());
      }
      ifaces_.push_back(
          std::make_unique<core::SpecializedInterface>(std::move(*iface)));
    }
    for (int c = 0; c < kClients; ++c) {
      auto cl = std::make_unique<Client>();
      if (!cl->sock.ok()) throw std::runtime_error("client socket");
      for (std::size_t s = 0; s < kBulkShapes.size(); ++s) {
        cl->calls.push_back(std::make_unique<core::SpecializedClient>(
            cl->sock, server_.runtime().udp_addr(), *ifaces_[s]));
        cl->results.emplace_back(kBulkShapes[s]);
      }
      clients_.push_back(std::move(cl));
    }
  }

  int clients() const override { return kClients; }

  void run_client(int c, ClientBooks& b, const std::atomic<bool>& stop,
                  std::int64_t limit) override {
    Client& cl = *clients_[static_cast<std::size_t>(c)];
    const auto& seq = in_.shape_seq[static_cast<std::size_t>(c)];
    const auto& pool = in_.pool[static_cast<std::size_t>(c)];
    for (std::int64_t i = 0;
         (limit == 0 || i < limit) && !stop.load(std::memory_order_relaxed);
         ++i) {
      const std::size_t pos = cl.cursor++ % seq.size();
      const std::size_t s = seq[pos];
      const Words& args = pool[s][pos % kBulkPool];
      Words& res = cl.results[s];
      std::fill(res.begin(), res.end(), 0xA5A5A5A5u);
      ++b.attempted;
      const std::int64_t t0 = tempo::common::monotonic_ns();
      const Status st = cl.calls[s]->call(args, res);
      const std::int64_t t1 = tempo::common::monotonic_ns();
      if (!st.is_ok()) {
        b.fail("echo_bulk_udp call: " + st.to_string());
        continue;
      }
      if (res != args) {
        b.mismatch("echo_bulk_udp: reply differs from its arguments (n=" +
                   std::to_string(args.size()) + ")");
        continue;
      }
      b.rtt_ns.push_back(clamp_ns(t1 - t0));
      ++b.completed;
      ++cl.completed;
    }
  }

  LayerReading read_layers() const override {
    LayerReading r;
    server_.read(r);
    double retransmits = 0, stale = 0;
    for (const auto& cl : clients_) {
      for (const auto& call : cl->calls) {
        retransmits += static_cast<double>(call->stats().retransmissions);
        stale += static_cast<double>(call->stats().stale_replies);
      }
    }
    r.counters["client.retransmits"] = retransmits;
    r.counters["client.stale_replies"] = stale;
    return r;
  }

  void arm_fault() override {
    if (inject_ == Inject::kReply || inject_ == Inject::kRefuse) {
      server_.plant(inject_);
    }
  }

  std::vector<std::string> check_books() override {
    std::vector<std::string> errors;
    std::int64_t completed = 0;
    for (const auto& cl : clients_) completed += cl->completed;
    server_.check(completed, errors);
    return errors;
  }

  std::vector<double> spec_build_ms() const override {
    return server_.build_ms();
  }
  const rpc::EventServerRuntime& runtime() const override {
    return server_.runtime();
  }
  std::int64_t jit_stubs() const override { return server_.jit_stubs(); }

 private:
  struct Client {
    net::UdpSocket sock;
    std::vector<std::unique_ptr<core::SpecializedClient>> calls;  // per shape
    std::vector<Words> results;                                   // per shape
    std::size_t cursor = 0;
    std::int64_t completed = 0;
  };

  BulkInputs in_;
  Inject inject_;
  EchoServer server_;
  std::vector<std::unique_ptr<core::SpecializedInterface>> ifaces_;
  std::vector<std::unique_ptr<Client>> clients_;
};

// ---- echo_small_tcp --------------------------------------------------------

constexpr std::uint32_t kSmallN = 20;
constexpr std::size_t kSmallPool = 256;  // argument arrays per connection
constexpr std::size_t kDepth = 8;        // calls in flight per connection
constexpr int kReadTimeoutMs = 100;
constexpr int kMaxSilentReads = 30;      // 3 s without a byte: give up
// With 16 calls always in flight every server thread stays busy: one
// worker keeps the busy threads (2 clients, reactor, worker) at 4.
constexpr int kSmallWorkers = 1;

struct SmallInputs {
  std::vector<std::vector<Words>> pool;  // [conn][k]
  std::uint64_t hash = 0;
};

SmallInputs make_small_inputs(std::uint64_t seed) {
  SmallInputs in;
  InputHash hash;
  for (int c = 0; c < kClients; ++c) {
    SeedRng rng(seed * 0x100000001B3ull + 0x7C9ull + static_cast<std::uint64_t>(c));
    std::vector<Words> arrays;
    for (std::size_t k = 0; k < kSmallPool; ++k) {
      arrays.push_back(random_words(rng, kSmallN, hash));
    }
    in.pool.push_back(std::move(arrays));
  }
  in.hash = hash.h;
  return in;
}

class EchoSmallTcp final : public Workload {
 public:
  explicit EchoSmallTcp(const WorkloadOptions& opt)
      : in_(make_small_inputs(opt.seed)),
        inject_(opt.inject),
        server_({kSmallN}, /*udp=*/false, kSmallWorkers, opt.traced) {
    auto iface = core::SpecializedInterface::build(echo_proc(), kProg, kVers,
                                                   shape_config(kSmallN));
    if (!iface.is_ok()) {
      throw std::runtime_error("client specialization: " +
                               iface.status().to_string());
    }
    iface_ = std::make_unique<core::SpecializedInterface>(std::move(*iface));
    const std::size_t call_bytes = iface_->encode_call_plan().out_size;
    for (int c = 0; c < kClients; ++c) {
      auto cn = std::make_unique<Conn>();
      cn->sock = net::TcpConn::connect(server_.runtime().tcp_addr());
      if (!cn->sock) throw std::runtime_error("tcp connect");
      cn->send_buf.resize(4 + call_bytes);
      cn->in_buf.resize(64 * 1024);
      cn->results.resize(kSmallN);
      // Distinct xid ranges per connection make a crossed reply visible.
      cn->next_xid = static_cast<std::uint32_t>(c + 1) << 28;
      conns_.push_back(std::move(cn));
    }
  }

  int clients() const override { return kClients; }

  void run_client(int c, ClientBooks& b, const std::atomic<bool>& stop,
                  std::int64_t limit) override {
    Conn& cn = *conns_[static_cast<std::size_t>(c)];
    const auto& pool = in_.pool[static_cast<std::size_t>(c)];
    std::int64_t sent = 0;
    auto may_send = [&] {
      return !cn.broken && (limit == 0 || sent < limit) &&
             !stop.load(std::memory_order_relaxed);
    };
    while (cn.inflight.size() < kDepth && may_send()) {
      send_one(cn, pool, b);
      ++sent;
    }
    while (!cn.inflight.empty()) {
      if (!read_reply(cn, pool, b)) break;
      if (may_send()) {
        send_one(cn, pool, b);
        ++sent;
      }
    }
  }

  LayerReading read_layers() const override {
    LayerReading r;
    server_.read(r);
    return r;
  }

  void arm_fault() override {
    if (inject_ == Inject::kReply || inject_ == Inject::kRefuse) {
      server_.plant(inject_);
    }
  }

  std::vector<std::string> check_books() override {
    std::vector<std::string> errors;
    std::int64_t completed = 0;
    for (const auto& cn : conns_) completed += cn->completed;
    server_.check(completed, errors);
    return errors;
  }

  std::vector<double> spec_build_ms() const override {
    return server_.build_ms();
  }
  const rpc::EventServerRuntime& runtime() const override {
    return server_.runtime();
  }
  std::int64_t jit_stubs() const override { return server_.jit_stubs(); }

 private:
  struct InFlight {
    std::uint32_t xid = 0;
    std::int64_t sent_ns = 0;
    std::size_t arg = 0;  // index into the connection's pool
  };
  struct Conn {
    std::unique_ptr<net::TcpConn> sock;
    Bytes send_buf;
    Bytes in_buf;
    std::size_t in_len = 0;
    Words results;
    std::deque<InFlight> inflight;
    std::uint32_t next_xid = 0;
    std::size_t cursor = 0;
    std::int64_t completed = 0;
    bool broken = false;
  };

  void send_one(Conn& cn, const std::vector<Words>& pool, ClientBooks& b) {
    InFlight f;
    f.arg = cn.cursor++ % pool.size();
    f.xid = ++cn.next_xid;
    ++b.attempted;
    f.sent_ns = tempo::common::monotonic_ns();
    const std::uint32_t len = iface_->encode_call_plan().out_size;
    if (iface_->exec_encode_call(pool[f.arg], f.xid,
                                 MutableByteSpan(cn.send_buf.data() + 4, len)) !=
        pe::ExecStatus::kOk) {
      b.mismatch("echo_small_tcp: encode plan rejected its arguments");
      return;
    }
    tempo::store_be32(cn.send_buf.data(),
                      tempo::xdr::XdrRec::kLastFragFlag | len);
    const Status st = cn.sock->write_all(ByteSpan(cn.send_buf.data(), 4 + len));
    if (!st.is_ok()) {
      b.fail("echo_small_tcp write: " + st.to_string());
      cn.broken = true;
      return;
    }
    cn.inflight.push_back(f);
  }

  // Reads one reply record and checks it against the oldest call in
  // flight (the runtime keeps each connection's replies in call order).
  // False when the connection is unusable; its calls count as failed.
  bool read_reply(Conn& cn, const std::vector<Words>& pool, ClientBooks& b) {
    int silent = 0;
    std::size_t need = 4;
    for (;;) {
      if (cn.in_len >= 4) {
        const std::uint32_t hdr = tempo::load_be32(cn.in_buf.data());
        need = 4 + (hdr & ~tempo::xdr::XdrRec::kLastFragFlag);
        if ((hdr & tempo::xdr::XdrRec::kLastFragFlag) == 0 ||
            need > cn.in_buf.size()) {
          b.mismatch("echo_small_tcp: malformed reply record");
          cn.inflight.pop_front();
          return abandon(cn, b, "echo_small_tcp: call lost with its stream");
        }
      }
      if (cn.in_len >= need) break;
      auto r = cn.sock->read_some(
          MutableByteSpan(cn.in_buf.data() + cn.in_len,
                          cn.in_buf.size() - cn.in_len),
          kReadTimeoutMs);
      if (r.is_ok()) {
        cn.in_len += *r;
        silent = 0;
      } else if (r.status().code() != tempo::StatusCode::kTimeout ||
                 ++silent >= kMaxSilentReads) {
        return abandon(cn, b,
                       "echo_small_tcp read: " + r.status().to_string());
      }
    }
    const InFlight f = cn.inflight.front();
    cn.inflight.pop_front();
    std::fill(cn.results.begin(), cn.results.end(), 0xA5A5A5A5u);
    const auto st = iface_->exec_decode_reply(
        ByteSpan(cn.in_buf.data() + 4, need - 4), f.xid, cn.results);
    const std::int64_t now = tempo::common::monotonic_ns();
    std::memmove(cn.in_buf.data(), cn.in_buf.data() + need, cn.in_len - need);
    cn.in_len -= need;
    if (st != pe::ExecStatus::kOk) {
      b.mismatch("echo_small_tcp: reply failed the decode plan's guards");
    } else if (cn.results != pool[f.arg]) {
      b.mismatch("echo_small_tcp: reply differs from its arguments");
    } else {
      b.rtt_ns.push_back(clamp_ns(now - f.sent_ns));
      ++b.completed;
      ++cn.completed;
    }
    return true;
  }

  // Gives up on the connection: every call still in flight fails.
  bool abandon(Conn& cn, ClientBooks& b, const std::string& why) {
    for (std::size_t i = 0; i < cn.inflight.size(); ++i) b.fail(why);
    cn.inflight.clear();
    cn.broken = true;
    return false;
  }

  SmallInputs in_;
  Inject inject_;
  EchoServer server_;
  std::unique_ptr<core::SpecializedInterface> iface_;
  std::vector<std::unique_ptr<Conn>> conns_;
};

}  // namespace

std::uint64_t echo_bulk_udp_input_hash(std::uint64_t seed) {
  return make_bulk_inputs(seed).hash;
}
std::uint64_t echo_small_tcp_input_hash(std::uint64_t seed) {
  return make_small_inputs(seed).hash;
}

std::unique_ptr<Workload> make_echo_bulk_udp(const WorkloadOptions& opt) {
  return std::make_unique<EchoBulkUdp>(opt);
}
std::unique_ptr<Workload> make_echo_small_tcp(const WorkloadOptions& opt) {
  return std::make_unique<EchoSmallTcp>(opt);
}

}  // namespace perfbench

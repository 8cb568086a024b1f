// Reactor subsystem tests: fd readiness + cross-thread post on both
// backends, the event-driven server runtime end-to-end over loopback
// UDP and TCP (same workloads as the threaded ServerRuntime e2e in
// test_spec_cache.cpp), datagram batch draining, slow-peer isolation
// (a trickling TCP peer must not delay anyone else), and the
// ServerRuntime::stop() drain regression.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "common/endian.h"
#include "core/service.h"
#include "core/spec_cache.h"
#include "core/spec_client.h"
#include "core/stubspec.h"
#include "net/reactor.h"
#include "net/tcp.h"
#include "net/udp.h"
#include "rpc/client.h"
#include "rpc/event_runtime.h"
#include "rpc/rpc_msg.h"
#include "rpc/svc.h"
#include "xdr/primitives.h"
#include "xdr/xdrmem.h"
#include "xdr/xdrrec.h"

namespace tempo {
namespace {

constexpr std::uint32_t kProg = 0x20000888;
constexpr std::uint32_t kVers = 1;
constexpr std::uint32_t kProc = 7;

idl::ProcDef echo_array_proc(std::uint32_t bound = 2000) {
  idl::ProcDef proc;
  proc.name = "ECHO";
  proc.number = kProc;
  proc.arg_type = idl::t_array_var(idl::t_int(), bound);
  proc.res_type = idl::t_array_var(idl::t_int(), bound);
  return proc;
}

core::SpecConfig cfg_for(std::uint32_t n) {
  core::SpecConfig cfg;
  cfg.arg_counts = {n};
  cfg.res_counts = {n};
  return cfg;
}

// A call of kProc carrying one int, record-marked for TCP (the 4-byte
// fragment header first) or bare for UDP.
Bytes int_call(std::uint32_t xid, std::int32_t v, bool framed) {
  Bytes frame(256);
  const std::size_t hdr_len = framed ? 4 : 0;
  xdr::XdrMem x(MutableByteSpan(frame.data() + hdr_len, frame.size() - hdr_len),
                xdr::XdrOp::kEncode);
  rpc::CallHeader hdr;
  hdr.xid = xid;
  hdr.prog = kProg;
  hdr.vers = kVers;
  hdr.proc = kProc;
  EXPECT_TRUE(rpc::xdr_call_header(x, hdr));
  EXPECT_TRUE(xdr::xdr_int(x, v));
  if (framed) {
    store_be32(frame.data(), xdr::XdrRec::kLastFragFlag |
                                 static_cast<std::uint32_t>(x.getpos()));
  }
  frame.resize(hdr_len + x.getpos());
  return frame;
}

// Reads one record-marked reply off `conn`; returns its XID (0 on
// timeout or EOF).
std::uint32_t read_framed_reply_xid(net::TcpConn& conn) {
  auto read_exact = [&](std::uint8_t* dst, std::size_t n) {
    std::size_t off = 0;
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (off < n && std::chrono::steady_clock::now() < give_up) {
      auto r = conn.read_some(MutableByteSpan(dst + off, n - off), 50);
      if (!r.is_ok()) {
        if (r.status().code() != StatusCode::kTimeout) return false;
        continue;
      }
      if (*r == 0) return false;
      off += *r;
    }
    return off == n;
  };
  std::uint8_t rhdr[4];
  if (!read_exact(rhdr, 4)) return 0;
  const std::uint32_t rlen = load_be32(rhdr) & ~xdr::XdrRec::kLastFragFlag;
  Bytes reply(rlen);
  if (rlen < 4 || !read_exact(reply.data(), rlen)) return 0;
  return load_be32(reply.data());
}

// ---------------------------------------------------- Reactor basics ---

class ReactorBackends
    : public ::testing::TestWithParam<net::ReactorBackend> {};

TEST_P(ReactorBackends, PipeReadinessAndCrossThreadPost) {
  if (GetParam() == net::ReactorBackend::kUring &&
      !net::Reactor::uring_supported()) {
    GTEST_SKIP() << "io_uring unavailable on this kernel";
  }
  net::Reactor r(GetParam());
  ASSERT_TRUE(r.ok());
  switch (GetParam()) {
    case net::ReactorBackend::kAuto:
      // On Linux the default backend must be epoll.
#if defined(__linux__)
      EXPECT_STREQ(r.backend(), "epoll");
#endif
      break;
    case net::ReactorBackend::kPoll:
      EXPECT_STREQ(r.backend(), "poll");
      break;
    case net::ReactorBackend::kUring:
      EXPECT_STREQ(r.backend(), "uring");
      break;
    default:
      break;
  }

  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  int reads_seen = 0;
  ASSERT_TRUE(r.add(fds[0], net::kEventRead, [&](unsigned events) {
    EXPECT_TRUE(events & net::kEventRead);
    char buf[8];
    (void)!::read(fds[0], buf, sizeof(buf));
    ++reads_seen;
  }));

  EXPECT_EQ(r.poll_once(0), 0);  // nothing ready yet
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  EXPECT_EQ(r.poll_once(1000), 1);
  EXPECT_EQ(reads_seen, 1);

  // post() runs on the reactor thread and pops a blocked poll.
  std::atomic<bool> ran{false};
  std::thread poster([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    r.post([&] { ran.store(true); });
  });
  const auto t0 = std::chrono::steady_clock::now();
  while (!ran.load() &&
         std::chrono::steady_clock::now() - t0 < std::chrono::seconds(2)) {
    r.poll_once(500);
  }
  poster.join();
  EXPECT_TRUE(ran.load());

  EXPECT_TRUE(r.remove(fds[0]));
  EXPECT_FALSE(r.remove(fds[0]));  // already gone
  ::close(fds[0]);
  ::close(fds[1]);
}

INSTANTIATE_TEST_SUITE_P(Backends, ReactorBackends,
                         ::testing::Values(net::ReactorBackend::kAuto,
                                           net::ReactorBackend::kPoll,
                                           net::ReactorBackend::kUring),
                         [](const auto& info) {
                           switch (info.param) {
                             case net::ReactorBackend::kPoll: return "poll";
                             case net::ReactorBackend::kUring: return "uring";
                             default: return "auto";
                           }
                         });

// Regression: a burst of connects must fit in the listener's accept
// queue before anyone accepts.  With a short backlog the kernel drops
// the surplus SYNs, and each such connect stalls for TCP's 1-s SYN
// retransmit timeout (a reactor shard lagging in accept() saw exactly
// that).
TEST(TcpListener, ConnectBurstCompletesBeforeAnyAccept) {
  net::TcpListener listener(0);
  ASSERT_TRUE(listener.ok());
  const net::Addr addr = listener.local_addr();
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(addr.host);
  sa.sin_port = htons(addr.port);

  constexpr int kConns = 40;
  std::vector<pollfd> pfds;
  for (int i = 0; i < kConns; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    ASSERT_GE(fd, 0);
    const int rc =
        ::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa));
    ASSERT_TRUE(rc == 0 || errno == EINPROGRESS) << std::strerror(errno);
    pfds.push_back(pollfd{fd, POLLOUT, 0});
  }
  // Nobody accepts.  Every handshake must still finish, well inside the
  // 1-s stall a dropped SYN costs.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
  int connected = 0;
  for (pollfd& p : pfds) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (::poll(&p, 1, std::max<int>(0, static_cast<int>(left.count()))) ==
        1) {
      int err = -1;
      socklen_t len = sizeof(err);
      ::getsockopt(p.fd, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err == 0) ++connected;
    }
  }
  EXPECT_EQ(connected, kConns);
  for (const pollfd& p : pfds) ::close(p.fd);
}

// ------------------------------------------- event runtime e2e (UDP) ---

class EventRuntimeBackends
    : public ::testing::TestWithParam<rpc::EventBackend> {};

TEST_P(EventRuntimeBackends, CachedServiceOverLoopbackUdp) {
  if (GetParam() == rpc::EventBackend::kUring &&
      !rpc::EventServerRuntime::uring_supported()) {
    GTEST_SKIP() << "io_uring unavailable on this kernel";
  }
  core::SpecCache cache(32, /*shards=*/4);

  rpc::SvcRegistry reg;
  core::CachedSpecService service(
      cache, echo_array_proc(), kProg, kVers,
      [](std::span<const std::uint32_t>, std::span<const std::uint32_t> args,
         std::span<std::uint32_t> results) {
        std::copy(args.begin(), args.end(), results.begin());
        return true;
      });
  service.install(reg);

  rpc::EventServerRuntimeConfig cfg;
  cfg.workers = 4;
  cfg.backend = GetParam();
  rpc::EventServerRuntime runtime(reg, cfg);
  ASSERT_TRUE(runtime.start().is_ok());
  if (GetParam() == rpc::EventBackend::kPoll) {
    EXPECT_STREQ(runtime.backend(), "poll");
  } else if (GetParam() == rpc::EventBackend::kUring) {
    EXPECT_STREQ(runtime.backend(), "uring");
  }

  const std::vector<std::uint32_t> sizes = {25, 50, 100};
  constexpr int kCallsPerClient = 30;
  std::atomic<int> bad{0};
  std::vector<std::thread> clients;
  for (auto n : sizes) {
    clients.emplace_back([&, n] {
      auto iface = core::SpecializedInterface::build(echo_array_proc(), kProg,
                                                     kVers, cfg_for(n));
      if (!iface.is_ok()) {
        ++bad;
        return;
      }
      net::UdpSocket sock;
      if (!sock.ok()) {
        ++bad;
        return;
      }
      core::SpecializedClient client(sock, runtime.udp_addr(), *iface);
      std::vector<std::uint32_t> args(n), results(n, 0);
      for (std::uint32_t i = 0; i < n; ++i) args[i] = n * 1000 + i;
      for (int round = 0; round < kCallsPerClient; ++round) {
        std::fill(results.begin(), results.end(), 0);
        Status st = client.call(args, results);
        if (!st.is_ok() || results != args) {
          ++bad;
          return;
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(cache.stats().misses, static_cast<std::int64_t>(sizes.size()));
  EXPECT_GE(runtime.stats().udp_datagrams.load(),
            static_cast<std::int64_t>(sizes.size()) * kCallsPerClient);
  EXPECT_GE(runtime.stats().udp_batches.load(), 1);
  runtime.stop();
}

INSTANTIATE_TEST_SUITE_P(Backends, EventRuntimeBackends,
                         ::testing::Values(rpc::EventBackend::kAuto,
                                           rpc::EventBackend::kPoll,
                                           rpc::EventBackend::kUring),
                         [](const auto& info) {
                           switch (info.param) {
                             case rpc::EventBackend::kPoll: return "poll";
                             case rpc::EventBackend::kUring: return "uring";
                             default: return "auto";
                           }
                         });

// Work stealing must be wakeup-driven: with the periodic re-sweep tick
// stretched far past the test's lifetime, a sharded runtime still
// completes an imbalanced workload promptly (idle shards are rung
// explicitly when a sibling's queue grows a backlog), and zero steals
// are attributed to the tick.  The imbalance is TCP: two connections
// land on two of the four shards and burst pipelined records, so their
// queues back up while the other two shards' workers sit parked.
TEST(EventServerRuntime, StealingIsWakeupDrivenNotTickDriven) {
  rpc::SvcRegistry reg;
  reg.register_proc(kProg, kVers, kProc,
                    [](xdr::XdrStream& in, xdr::XdrStream& out) {
                      std::int32_t v = 0;
                      if (!xdr::xdr_int(in, v)) return false;
                      // Long enough that a backlog outlives the push
                      // that built it, so parked siblings get to steal.
                      std::this_thread::sleep_for(
                          std::chrono::milliseconds(1));
                      return xdr::xdr_int(out, v);
                    });

  rpc::EventServerRuntimeConfig cfg;
  cfg.reactors = 4;
  cfg.workers_per_shard = 1;
  cfg.enable_udp = false;
  cfg.steal_tick_ms = 5000;  // far beyond the test: the tick cannot help
  rpc::EventServerRuntime runtime(reg, cfg);
  ASSERT_TRUE(runtime.start().is_ok());

  constexpr int kConns = 2;
  constexpr int kRounds = 10;
  constexpr int kBurst = 8;  // the default tcp_pipeline_depth
  std::atomic<int> bad{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kConns; ++c) {
    clients.emplace_back([&, c] {
      auto conn = net::TcpConn::connect(runtime.tcp_addr());
      if (conn == nullptr) {
        ++bad;
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        Bytes wire;
        const std::uint32_t base = 0x51000000u +
                                   static_cast<std::uint32_t>(c << 16) +
                                   static_cast<std::uint32_t>(round * kBurst);
        for (int i = 0; i < kBurst; ++i) {
          const Bytes f = int_call(base + static_cast<std::uint32_t>(i), i,
                                   /*framed=*/true);
          wire.insert(wire.end(), f.begin(), f.end());
        }
        if (!conn->write_all(ByteSpan(wire.data(), wire.size())).is_ok()) {
          ++bad;
          return;
        }
        for (int i = 0; i < kBurst; ++i) {
          if (read_framed_reply_xid(*conn) !=
              base + static_cast<std::uint32_t>(i)) {
            ++bad;
            return;
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(runtime.stats().tcp_calls.load(), kConns * kRounds * kBurst);
  EXPECT_GT(runtime.stats().work_steals.load(), 0);
  EXPECT_EQ(runtime.stats().tick_steals.load(), 0);
  runtime.stop();
}

// ------------------------------------------- event runtime e2e (TCP) ---

TEST(EventServerRuntime, CachedServiceOverTcpStream) {
  core::SpecCache cache(32, /*shards=*/4);

  rpc::SvcRegistry reg;
  core::CachedSpecService service(
      cache, echo_array_proc(), kProg, kVers,
      [](std::span<const std::uint32_t>, std::span<const std::uint32_t> args,
         std::span<std::uint32_t> results) {
        std::copy(args.begin(), args.end(), results.begin());
        return true;
      });
  service.install(reg);

  rpc::EventServerRuntimeConfig cfg;
  cfg.workers = 2;
  rpc::EventServerRuntime runtime(reg, cfg);
  ASSERT_TRUE(runtime.start().is_ok());

  const std::uint32_t n = 40;
  rpc::TcpClient client(runtime.tcp_addr(), kProg, kVers);
  ASSERT_TRUE(client.ok());
  for (int round = 0; round < 5; ++round) {
    std::vector<std::int32_t> sent(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      sent[i] = static_cast<std::int32_t>(round * 100 + i);
    }
    std::vector<std::int32_t> got;
    Status st = client.call(
        kProc,
        [&](xdr::XdrStream& x) {
          std::uint32_t count = n;
          if (!xdr::xdr_u_int(x, count)) return false;
          for (auto& v : sent) {
            if (!xdr::xdr_int(x, v)) return false;
          }
          return true;
        },
        [&](xdr::XdrStream& x) {
          std::uint32_t count = 0;
          if (!xdr::xdr_u_int(x, count) || count != n) return false;
          got.resize(count);
          for (auto& v : got) {
            if (!xdr::xdr_int(x, v)) return false;
          }
          return true;
        });
    ASSERT_TRUE(st.is_ok()) << st.to_string();
    ASSERT_EQ(got, sent);
  }

  EXPECT_EQ(runtime.stats().tcp_connections.load(), 1);
  EXPECT_EQ(runtime.stats().tcp_calls.load(), 5);
  EXPECT_EQ(cache.stats().misses, 1);
  // A reactor-assembled record is one contiguous buffer, so unlike the
  // threaded runtime's xdrrec stream the residual decode plan can
  // XDR_INLINE the arguments: TCP requests hit the fast path too.
  EXPECT_GT(service.stats().fast_path.load(), 0);
  runtime.stop();
}

// ------------------------------------------------- UDP burst batching ---

TEST(EventServerRuntime, DrainsDatagramBurstsInBatches) {
  rpc::SvcRegistry reg;
  reg.register_proc(kProg, kVers, kProc,
                    [](xdr::XdrStream& in, xdr::XdrStream& out) {
                      std::int32_t v = 0;
                      if (!xdr::xdr_int(in, v)) return false;
                      return xdr::xdr_int(out, v);
                    });

  rpc::EventServerRuntimeConfig cfg;
  cfg.workers = 2;
  cfg.enable_tcp = false;
  rpc::EventServerRuntime runtime(reg, cfg);
  ASSERT_TRUE(runtime.start().is_ok());

  // Blast a burst without waiting for replies, then collect them all.
  constexpr int kBurst = 24;
  net::UdpSocket sock;
  ASSERT_TRUE(sock.ok());
  Bytes msg(256);
  for (int i = 0; i < kBurst; ++i) {
    xdr::XdrMem x(MutableByteSpan(msg.data(), msg.size()),
                  xdr::XdrOp::kEncode);
    rpc::CallHeader hdr;
    hdr.xid = 0x1000u + static_cast<std::uint32_t>(i);
    hdr.prog = kProg;
    hdr.vers = kVers;
    hdr.proc = kProc;
    std::int32_t v = i;
    ASSERT_TRUE(rpc::xdr_call_header(x, hdr));
    ASSERT_TRUE(xdr::xdr_int(x, v));
    ASSERT_TRUE(
        sock.send_to(runtime.udp_addr(), ByteSpan(msg.data(), x.getpos()))
            .is_ok());
  }
  int replies = 0;
  Bytes reply(256);
  while (replies < kBurst) {
    auto got = sock.recv_from(
        nullptr, MutableByteSpan(reply.data(), reply.size()), 2000);
    if (!got.is_ok()) break;
    ++replies;
  }
  EXPECT_EQ(replies, kBurst);
  EXPECT_GE(runtime.stats().udp_datagrams.load(), kBurst);
  // The whole point of recv_many: far fewer wakeups than datagrams.
  EXPECT_LE(runtime.stats().udp_batches.load(),
            runtime.stats().udp_datagrams.load());
  // Replies flush through per-worker sendmmsg accumulators: at least
  // one batch happened, never more batches than replies, and on
  // loopback nothing may be dropped — every send either succeeded
  // first try or survived the reactor retry.
  EXPECT_GE(runtime.stats().udp_reply_batches.load(), 1);
  EXPECT_LE(runtime.stats().udp_reply_batches.load(),
            static_cast<std::int64_t>(kBurst));
  EXPECT_EQ(runtime.stats().reply_send_failures.load(), 0);
  runtime.stop();
}

// ------------------------------- UDP served where it is received ------

// Collects replies on `sock` until it stays quiet for quiet_ms; returns
// how many arrived.
int drain_replies(net::UdpSocket& sock, int quiet_ms) {
  Bytes reply(512);
  int got = 0;
  while (sock.recv_from(nullptr, MutableByteSpan(reply.data(), reply.size()),
                        quiet_ms)
             .is_ok()) {
    ++got;
  }
  return got;
}

// Each worker receives, serves and answers its own datagrams, so a
// handler stuck on one worker holds up only the datagrams that worker
// already took: calls arriving meanwhile wake the other worker.
TEST(EventServerRuntime, SlowUdpCallDoesNotDelayAnotherWorker) {
  rpc::SvcRegistry reg;
  reg.register_proc(kProg, kVers, kProc,
                    [](xdr::XdrStream& in, xdr::XdrStream& out) {
                      std::int32_t v = 0;
                      if (!xdr::xdr_int(in, v)) return false;
                      if (v < 0) {
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(600));
                      }
                      return xdr::xdr_int(out, v);
                    });

  rpc::EventServerRuntimeConfig cfg;
  cfg.workers = 2;
  cfg.enable_tcp = false;
  rpc::EventServerRuntime runtime(reg, cfg);
  ASSERT_TRUE(runtime.start().is_ok());

  net::UdpSocket slow, fast;
  ASSERT_TRUE(slow.ok() && fast.ok());
  const Bytes slow_call = int_call(0x5100, -1, /*framed=*/false);
  ASSERT_TRUE(slow.send_to(runtime.udp_addr(),
                           ByteSpan(slow_call.data(), slow_call.size()))
                  .is_ok());
  // Let a worker take the slow call into its handler.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  constexpr int kFastCalls = 20;
  Bytes reply(256);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kFastCalls; ++i) {
    const std::uint32_t xid = 0x5200u + static_cast<std::uint32_t>(i);
    const Bytes call = int_call(xid, i, /*framed=*/false);
    ASSERT_TRUE(
        fast.send_to(runtime.udp_addr(), ByteSpan(call.data(), call.size()))
            .is_ok());
    auto got = fast.recv_from(
        nullptr, MutableByteSpan(reply.data(), reply.size()), 2000);
    ASSERT_TRUE(got.is_ok()) << "fast call " << i;
    ASSERT_GE(*got, 4u);
    EXPECT_EQ(load_be32(reply.data()), xid);
  }
  const auto fast_took = std::chrono::steady_clock::now() - t0;
  // Behind the slow handler the first fast reply alone would wait
  // ~550 ms.
  EXPECT_LT(fast_took, std::chrono::milliseconds(400));

  auto got = slow.recv_from(nullptr,
                            MutableByteSpan(reply.data(), reply.size()), 3000);
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(load_be32(reply.data()), 0x5100u);
  runtime.stop();
}

// Workers read the UDP sockets, so a shard without workers must bind
// none: with 4 shards and 2 workers, a REUSEPORT member on a worker-less
// shard would swallow its flow-hash share of the clients unanswered.
TEST(EventServerRuntime, WorkerlessShardsBindNoUdpSocket) {
  rpc::SvcRegistry reg;
  reg.register_proc(kProg, kVers, kProc,
                    [](xdr::XdrStream& in, xdr::XdrStream& out) {
                      std::int32_t v = 0;
                      if (!xdr::xdr_int(in, v)) return false;
                      return xdr::xdr_int(out, v);
                    });

  rpc::EventServerRuntimeConfig cfg;
  cfg.reactors = 4;
  cfg.workers = 2;
  rpc::EventServerRuntime runtime(reg, cfg);
  ASSERT_TRUE(runtime.start().is_ok());
  EXPECT_EQ(runtime.reactor_count(), 4);
  EXPECT_EQ(runtime.worker_count(), 2);
#if defined(__linux__)
  EXPECT_TRUE(runtime.udp_sharded());
#endif

  // Many source ports, so the flow hash spreads them over the group.
  constexpr int kSockets = 16;
  constexpr int kCalls = 5;
  int answered = 0;
  Bytes reply(256);
  for (int c = 0; c < kSockets; ++c) {
    net::UdpSocket sock;
    ASSERT_TRUE(sock.ok());
    for (int i = 0; i < kCalls; ++i) {
      const std::uint32_t xid = 0x5300u + static_cast<std::uint32_t>(
                                              c * kCalls + i);
      const Bytes call = int_call(xid, i, /*framed=*/false);
      ASSERT_TRUE(
          sock.send_to(runtime.udp_addr(), ByteSpan(call.data(), call.size()))
              .is_ok());
      // No retransmission: a datagram on an unread socket stays lost.
      auto got = sock.recv_from(
          nullptr, MutableByteSpan(reply.data(), reply.size()), 2000);
      if (got.is_ok() && *got >= 4 && load_be32(reply.data()) == xid) {
        ++answered;
      }
    }
  }
  EXPECT_EQ(answered, kSockets * kCalls);
  runtime.stop();
}

// stop() with datagrams still in the socket: each one is either served
// (its reply reaches the client) or counted in overload_drops — the
// drain deadline is short on purpose so both paths run.
TEST(EventServerRuntime, StopServesOrCountsEveryReceivedDatagram) {
  rpc::SvcRegistry reg;
  reg.register_proc(kProg, kVers, kProc,
                    [](xdr::XdrStream& in, xdr::XdrStream& out) {
                      std::int32_t v = 0;
                      if (!xdr::xdr_int(in, v)) return false;
                      std::this_thread::sleep_for(
                          std::chrono::milliseconds(2));
                      return xdr::xdr_int(out, v);
                    });

  rpc::EventServerRuntimeConfig cfg;
  cfg.workers = 1;
  cfg.enable_tcp = false;
  cfg.drain_timeout_ms = 30;
  rpc::EventServerRuntime runtime(reg, cfg);
  ASSERT_TRUE(runtime.start().is_ok());

  // 200 small datagrams fit the default receive buffers on both sides,
  // so the kernel drops none of the requests or the replies.
  std::vector<net::UdpSocket> socks(4);
  std::int64_t sent = 0;
  std::uint32_t xid = 0x5400;
  for (int burst = 0; burst < 50; ++burst) {
    for (auto& sock : socks) {
      const Bytes call = int_call(++xid, burst, /*framed=*/false);
      ASSERT_TRUE(
          sock.send_to(runtime.udp_addr(), ByteSpan(call.data(), call.size()))
              .is_ok());
      ++sent;
    }
  }
  runtime.stop();

  std::int64_t replied = 0;
  for (auto& sock : socks) replied += drain_replies(sock, 200);
  const std::int64_t drops = runtime.stats().overload_drops.load();
  EXPECT_GT(replied, 0);
  EXPECT_GT(drops, 0) << "the short drain deadline should leave some unread";
  EXPECT_EQ(sent, replied + drops +
                      runtime.stats().reply_send_failures.load());
}

// The socket buffer is the UDP backlog: a burst larger than it makes
// the kernel drop datagrams, and those drops must show up in
// overload_drops so every request is accounted for.
TEST(EventServerRuntime, KernelReceiveBufferDropsCountAsOverload) {
  constexpr std::uint32_t kSinkProc = 8;
  rpc::SvcRegistry reg;
  // Takes a bulky int array, answers with its length only: requests
  // overflow the server's receive buffer while the replies stay small
  // enough for the client's.
  reg.register_proc(kProg, kVers, kSinkProc,
                    [](xdr::XdrStream& in, xdr::XdrStream& out) {
                      std::uint32_t n = 0;
                      if (!xdr::xdr_u_int(in, n) || n > 1024) return false;
                      for (std::uint32_t i = 0; i < n; ++i) {
                        std::int32_t v = 0;
                        if (!xdr::xdr_int(in, v)) return false;
                      }
                      std::this_thread::sleep_for(
                          std::chrono::milliseconds(1));
                      return xdr::xdr_u_int(out, n);
                    });

  rpc::EventServerRuntimeConfig cfg;
  cfg.workers = 1;
  cfg.enable_tcp = false;
  rpc::EventServerRuntime runtime(reg, cfg);
  ASSERT_TRUE(runtime.start().is_ok());

  net::UdpSocket sock;
  ASSERT_TRUE(sock.ok());
  constexpr int kBurst = 600;  // ~600 KB: about 3x a default rcvbuf
  constexpr std::uint32_t kInts = 250;
  Bytes msg(2048);
  std::int64_t sent = 0;
  for (int i = 0; i < kBurst; ++i) {
    xdr::XdrMem x(MutableByteSpan(msg.data(), msg.size()),
                  xdr::XdrOp::kEncode);
    rpc::CallHeader hdr;
    hdr.xid = 0x5500u + static_cast<std::uint32_t>(i);
    hdr.prog = kProg;
    hdr.vers = kVers;
    hdr.proc = kSinkProc;
    std::uint32_t n = kInts;
    ASSERT_TRUE(rpc::xdr_call_header(x, hdr));
    ASSERT_TRUE(xdr::xdr_u_int(x, n));
    for (std::uint32_t k = 0; k < kInts; ++k) {
      std::int32_t v = static_cast<std::int32_t>(k);
      ASSERT_TRUE(xdr::xdr_int(x, v));
    }
    if (sock.send_to(runtime.udp_addr(), ByteSpan(msg.data(), x.getpos()))
            .is_ok()) {
      ++sent;
    }
  }
  const std::int64_t replied = drain_replies(sock, 1500);
  const std::int64_t drops = runtime.stats().overload_drops.load();
  EXPECT_GT(drops, 0) << "the burst should overflow the receive buffer";
  EXPECT_EQ(runtime.stats().reply_send_failures.load(), 0);
  EXPECT_EQ(sent, replied + drops);
  runtime.stop();
}

// -------------------------------------- large-record replies (bugfix) ---

// Reply buffers used to be hard-capped at 65000 bytes while the
// runtimes accept records up to max_record_bytes (1 MB): a handler
// echoing a ~600 KB array back failed to encode its reply and the
// client saw GARBAGE_ARGS.  Both runtimes must now serve it.
template <typename RuntimeT, typename ConfigT>
void expect_large_tcp_echo_works() {
  rpc::SvcRegistry reg;
  reg.register_proc(kProg, kVers, kProc,
                    [](xdr::XdrStream& in, xdr::XdrStream& out) {
                      std::uint32_t count = 0;
                      if (!xdr::xdr_u_int(in, count) || count > (1u << 18)) {
                        return false;
                      }
                      if (!xdr::xdr_u_int(out, count)) return false;
                      for (std::uint32_t i = 0; i < count; ++i) {
                        std::int32_t v = 0;
                        if (!xdr::xdr_int(in, v) || !xdr::xdr_int(out, v)) {
                          return false;
                        }
                      }
                      return true;
                    });

  ConfigT cfg;
  cfg.workers = 2;
  cfg.enable_udp = false;
  RuntimeT runtime(reg, cfg);
  ASSERT_TRUE(runtime.start().is_ok());

  const std::uint32_t n = 150000;  // ~600 KB of payload each way
  rpc::TcpClient client(runtime.tcp_addr(), kProg, kVers);
  ASSERT_TRUE(client.ok());
  std::vector<std::int32_t> sent(n), got;
  for (std::uint32_t i = 0; i < n; ++i) {
    sent[i] = static_cast<std::int32_t>(i * 2654435761u);
  }
  Status st = client.call(
      kProc,
      [&](xdr::XdrStream& x) {
        std::uint32_t count = n;
        if (!xdr::xdr_u_int(x, count)) return false;
        for (auto& v : sent) {
          if (!xdr::xdr_int(x, v)) return false;
        }
        return true;
      },
      [&](xdr::XdrStream& x) {
        std::uint32_t count = 0;
        if (!xdr::xdr_u_int(x, count) || count != n) return false;
        got.resize(count);
        for (auto& v : got) {
          if (!xdr::xdr_int(x, v)) return false;
        }
        return true;
      });
  ASSERT_TRUE(st.is_ok()) << st.to_string();
  EXPECT_EQ(got, sent);
  EXPECT_EQ(reg.stats().protocol_errors.load(), 0);
  runtime.stop();
}

TEST(EventServerRuntime, LargeTcpEchoReply) {
  expect_large_tcp_echo_works<rpc::EventServerRuntime,
                              rpc::EventServerRuntimeConfig>();
}

TEST(ServerRuntime, LargeTcpEchoReply) {
  expect_large_tcp_echo_works<rpc::ServerRuntime, rpc::ServerRuntimeConfig>();
}

// TCP replies are not bounded by their request: a read-style procedure
// turns a tiny call into a large result.  Every TCP adapter provisions
// kMaxStreamReplyBytes, so this must work on both runtimes too.
template <typename RuntimeT, typename ConfigT>
void expect_large_reply_from_small_request_works() {
  rpc::SvcRegistry reg;
  reg.register_proc(kProg, kVers, kProc,
                    [](xdr::XdrStream& in, xdr::XdrStream& out) {
                      std::uint32_t count = 0;  // "read N ints" request
                      if (!xdr::xdr_u_int(in, count) || count > (1u << 18)) {
                        return false;
                      }
                      if (!xdr::xdr_u_int(out, count)) return false;
                      for (std::uint32_t i = 0; i < count; ++i) {
                        std::int32_t v = static_cast<std::int32_t>(i ^ count);
                        if (!xdr::xdr_int(out, v)) return false;
                      }
                      return true;
                    });

  ConfigT cfg;
  cfg.workers = 2;
  cfg.enable_udp = false;
  RuntimeT runtime(reg, cfg);
  ASSERT_TRUE(runtime.start().is_ok());

  const std::uint32_t n = 150000;  // ~40-byte call, ~600 KB reply
  rpc::TcpClient client(runtime.tcp_addr(), kProg, kVers);
  ASSERT_TRUE(client.ok());
  std::vector<std::int32_t> got;
  Status st = client.call(
      kProc,
      [&](xdr::XdrStream& x) {
        std::uint32_t count = n;
        return xdr::xdr_u_int(x, count);
      },
      [&](xdr::XdrStream& x) {
        std::uint32_t count = 0;
        if (!xdr::xdr_u_int(x, count) || count != n) return false;
        got.resize(count);
        for (auto& v : got) {
          if (!xdr::xdr_int(x, v)) return false;
        }
        return true;
      });
  ASSERT_TRUE(st.is_ok()) << st.to_string();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(n));
  for (std::uint32_t i = 0; i < n; ++i) {
    ASSERT_EQ(got[i], static_cast<std::int32_t>(i ^ n));
  }
  EXPECT_EQ(reg.stats().protocol_errors.load(), 0);
  runtime.stop();
}

TEST(EventServerRuntime, LargeReplyFromSmallRequest) {
  expect_large_reply_from_small_request_works<rpc::EventServerRuntime,
                                              rpc::EventServerRuntimeConfig>();
}

TEST(ServerRuntime, LargeReplyFromSmallRequest) {
  expect_large_reply_from_small_request_works<rpc::ServerRuntime,
                                              rpc::ServerRuntimeConfig>();
}

// A TCP record that goes ready while the worker queue is full must be
// re-dispatched once the queue drains, even though no further fd event
// or completion fires for that connection (the reactor ticks while any
// conn is parked).
TEST(EventServerRuntime, QueueFullTcpRecordIsRetriedNotParkedForever) {
  std::atomic<int> served{0};
  rpc::SvcRegistry reg;
  reg.register_proc(kProg, kVers, kProc,
                    [&](xdr::XdrStream& in, xdr::XdrStream& out) {
                      std::int32_t v = 0;
                      if (!xdr::xdr_int(in, v)) return false;
                      // Slow handler so the 1-slot queue stays full
                      // while the third record arrives.
                      std::this_thread::sleep_for(
                          std::chrono::milliseconds(150));
                      ++served;
                      return xdr::xdr_int(out, v);
                    });

  rpc::EventServerRuntimeConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 1;
  cfg.enable_udp = false;
  rpc::EventServerRuntime runtime(reg, cfg);
  ASSERT_TRUE(runtime.start().is_ok());

  // Three connections, 30 ms apart: the first call occupies the only
  // worker, the second fills the only queue slot, and the third finds
  // the queue full.
  constexpr int kConns = 3;
  std::vector<Status> statuses(kConns, unavailable("not run"));
  std::vector<std::thread> threads;
  for (int i = 0; i < kConns; ++i) {
    threads.emplace_back([&, i] {
      rpc::TcpClient client(runtime.tcp_addr(), kProg, kVers);
      if (!client.ok()) {
        statuses[static_cast<std::size_t>(i)] = unavailable("connect failed");
        return;
      }
      statuses[static_cast<std::size_t>(i)] = client.call(
          kProc,
          [&](xdr::XdrStream& x) {
            std::int32_t v = 7 + i;
            return xdr::xdr_int(x, v);
          },
          [&](xdr::XdrStream& x) {
            std::int32_t v = 0;
            return xdr::xdr_int(x, v) && v == 7 + i;
          });
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  for (auto& t : threads) t.join();

  for (int i = 0; i < kConns; ++i) {
    EXPECT_TRUE(statuses[static_cast<std::size_t>(i)].is_ok())
        << "conn " << i << ": "
        << statuses[static_cast<std::size_t>(i)].to_string();
  }
  EXPECT_EQ(served.load(), kConns);
  // The third record really did hit the full queue and was retried.
  EXPECT_GE(runtime.stats().dispatch_stalls.load(), 1);
  runtime.stop();
}

// A record bigger than any UDP datagram (the reactor allows records up
// to max_record_bytes) must flow through dispatch without corrupting
// the per-thread scratch buffers, and the server must stay healthy.
TEST(EventServerRuntime, OversizedRecordDoesNotCorruptServer) {
  rpc::SvcRegistry reg;
  reg.register_proc(kProg, kVers, kProc,
                    [](xdr::XdrStream& in, xdr::XdrStream& out) {
                      std::int32_t v = 0;
                      if (!xdr::xdr_int(in, v)) return false;
                      return xdr::xdr_int(out, v);
                    });

  rpc::EventServerRuntimeConfig cfg;
  cfg.workers = 2;
  rpc::EventServerRuntime runtime(reg, cfg);
  ASSERT_TRUE(runtime.start().is_ok());

  // 100 KB of garbage in one record: larger than the 65000-byte UDP
  // scratch, smaller than max_record_bytes.  The dispatch fails (no
  // valid header) and the request is dropped — but nothing may crash.
  {
    auto conn = net::TcpConn::connect(runtime.tcp_addr());
    ASSERT_NE(conn, nullptr);
    constexpr std::uint32_t kBig = 100000;
    Bytes frame(4 + kBig, 0xAB);
    store_be32(frame.data(), xdr::XdrRec::kLastFragFlag | kBig);
    ASSERT_TRUE(conn->write_all(ByteSpan(frame.data(), frame.size())).is_ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    conn->close();
  }

  // The server still answers correctly afterwards.
  rpc::TcpClient client(runtime.tcp_addr(), kProg, kVers);
  ASSERT_TRUE(client.ok());
  Status st = client.call(
      kProc,
      [](xdr::XdrStream& x) {
        std::int32_t v = 99;
        return xdr::xdr_int(x, v);
      },
      [](xdr::XdrStream& x) {
        std::int32_t v = 0;
        return xdr::xdr_int(x, v) && v == 99;
      });
  EXPECT_TRUE(st.is_ok()) << st.to_string();
  runtime.stop();
}

// ------------------------------------------------ slow-peer isolation ---

// A peer that trickles one byte every 10 ms holds its connection open
// for the whole test without ever completing a record.  On the
// threaded runtime this pins a worker; on the reactor runtime only the
// reassembly buffer grows.  Concurrent UDP and TCP callers must keep
// their p99 latency far below the trickle cadence.
TEST(EventServerRuntime, SlowPeerDoesNotStallOtherClients) {
  core::SpecCache cache(32, /*shards=*/4);
  rpc::SvcRegistry reg;
  core::CachedSpecService service(
      cache, echo_array_proc(), kProg, kVers,
      [](std::span<const std::uint32_t>, std::span<const std::uint32_t> args,
         std::span<std::uint32_t> results) {
        std::copy(args.begin(), args.end(), results.begin());
        return true;
      });
  service.install(reg);

  rpc::EventServerRuntimeConfig cfg;
  cfg.workers = 2;
  rpc::EventServerRuntime runtime(reg, cfg);
  ASSERT_TRUE(runtime.start().is_ok());

  std::atomic<bool> stop_trickle{false};
  std::thread trickler([&] {
    auto conn = net::TcpConn::connect(runtime.tcp_addr());
    if (!conn) return;
    // A valid record header promising 4000 payload bytes, delivered one
    // byte at a time.
    std::uint8_t header[4];
    store_be32(header, xdr::XdrRec::kLastFragFlag | 4000u);
    std::size_t sent = 0;
    while (!stop_trickle.load()) {
      const std::uint8_t byte = sent < 4 ? header[sent] : 0;
      if (!conn->write_all(ByteSpan(&byte, 1)).is_ok()) break;
      ++sent;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    conn->close();
  });

  // Give the trickler a head start so its connection is live first.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  constexpr int kCalls = 150;
  std::vector<double> udp_lat_ms, tcp_lat_ms;
  std::atomic<int> bad{0};

  std::thread udp_caller([&] {
    const std::uint32_t n = 50;
    auto iface = core::SpecializedInterface::build(echo_array_proc(), kProg,
                                                   kVers, cfg_for(n));
    net::UdpSocket sock;
    if (!iface.is_ok() || !sock.ok()) {
      ++bad;
      return;
    }
    core::SpecializedClient client(sock, runtime.udp_addr(), *iface);
    std::vector<std::uint32_t> args(n), results(n);
    for (std::uint32_t i = 0; i < n; ++i) args[i] = i;
    udp_lat_ms.reserve(kCalls);
    for (int i = 0; i < kCalls; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      if (!client.call(args, results).is_ok() || results != args) {
        ++bad;
        return;
      }
      udp_lat_ms.push_back(std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count());
    }
  });

  std::thread tcp_caller([&] {
    const std::uint32_t n = 50;
    rpc::TcpClient client(runtime.tcp_addr(), kProg, kVers);
    if (!client.ok()) {
      ++bad;
      return;
    }
    tcp_lat_ms.reserve(kCalls);
    for (int i = 0; i < kCalls; ++i) {
      std::vector<std::int32_t> sent(n, i), got;
      const auto t0 = std::chrono::steady_clock::now();
      Status st = client.call(
          kProc,
          [&](xdr::XdrStream& x) {
            std::uint32_t count = n;
            if (!xdr::xdr_u_int(x, count)) return false;
            for (auto& v : sent) {
              if (!xdr::xdr_int(x, v)) return false;
            }
            return true;
          },
          [&](xdr::XdrStream& x) {
            std::uint32_t count = 0;
            if (!xdr::xdr_u_int(x, count) || count != n) return false;
            got.resize(count);
            for (auto& v : got) {
              if (!xdr::xdr_int(x, v)) return false;
            }
            return true;
          });
      if (!st.is_ok() || got != sent) {
        ++bad;
        return;
      }
      tcp_lat_ms.push_back(std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count());
    }
  });

  udp_caller.join();
  tcp_caller.join();
  stop_trickle.store(true);
  trickler.join();

  ASSERT_EQ(bad.load(), 0);
  ASSERT_EQ(udp_lat_ms.size(), static_cast<std::size_t>(kCalls));
  ASSERT_EQ(tcp_lat_ms.size(), static_cast<std::size_t>(kCalls));

  auto p99 = [](std::vector<double> v) {
    const auto idx = static_cast<std::ptrdiff_t>(
        (v.size() * 99) / 100 == v.size() ? v.size() - 1 : (v.size() * 99) /
                                                               100);
    std::nth_element(v.begin(), v.begin() + idx, v.end());
    return v[static_cast<std::size_t>(idx)];
  };
  // The trickling peer advances one byte per 10 ms for the whole run;
  // an un-isolated runtime would show multi-second stalls.  200 ms is
  // orders of magnitude above a healthy loopback round trip but far
  // below any cross-connection stall, and tolerates CI scheduling
  // noise.
  EXPECT_LT(p99(udp_lat_ms), 200.0);
  EXPECT_LT(p99(tcp_lat_ms), 200.0);
  runtime.stop();
}

// ----------------------------------------- multi-reactor sharding ------

// Raw-conn helpers for the adversarial TCP tests: build a framed
// echo-int call record and read one framed reply off the wire.
Bytes framed_int_call(std::uint32_t xid, std::int32_t v) {
  Bytes msg(128);
  xdr::XdrMem x(MutableByteSpan(msg.data() + 4, msg.size() - 4),
                xdr::XdrOp::kEncode);
  rpc::CallHeader hdr;
  hdr.xid = xid;
  hdr.prog = kProg;
  hdr.vers = kVers;
  hdr.proc = kProc;
  EXPECT_TRUE(rpc::xdr_call_header(x, hdr));
  EXPECT_TRUE(xdr::xdr_int(x, v));
  store_be32(msg.data(),
             xdr::XdrRec::kLastFragFlag |
                 static_cast<std::uint32_t>(x.getpos()));
  msg.resize(4 + x.getpos());
  return msg;
}

// Reads one record-marked reply; empty on timeout/disconnect.
Bytes read_framed_reply(net::TcpConn& conn, int timeout_ms = 3000) {
  auto read_exact = [&](std::uint8_t* dst, std::size_t n) {
    std::size_t off = 0;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (off < n && std::chrono::steady_clock::now() < deadline) {
      auto r = conn.read_some(MutableByteSpan(dst + off, n - off), 50);
      if (!r.is_ok()) {
        if (r.status().code() != StatusCode::kTimeout) return false;
        continue;
      }
      if (*r == 0) return false;
      off += *r;
    }
    return off == n;
  };
  std::uint8_t hdr[4];
  if (!read_exact(hdr, 4)) return {};
  const std::uint32_t word = load_be32(hdr);
  const std::uint32_t len = word & ~xdr::XdrRec::kLastFragFlag;
  Bytes body(len);
  if (len > 0 && !read_exact(body.data(), len)) return {};
  return body;
}

// N reactor shards, each with its own event loop and (with REUSEPORT)
// its own UDP socket; TCP connections partition across shards by fd.
// The whole client mix of the single-loop e2e must still be served, and
// the per-shard stats must aggregate into one coherent view.
TEST(EventServerRuntime, MultiReactorServesUdpAndTcpAcrossShards) {
  core::SpecCache cache(32, /*shards=*/4);
  rpc::SvcRegistry reg;
  core::CachedSpecService service(
      cache, echo_array_proc(), kProg, kVers,
      [](std::span<const std::uint32_t>, std::span<const std::uint32_t> args,
         std::span<std::uint32_t> results) {
        std::copy(args.begin(), args.end(), results.begin());
        return true;
      });
  service.install(reg);

  rpc::EventServerRuntimeConfig cfg;
  cfg.workers = 4;
  cfg.reactors = 4;
  rpc::EventServerRuntime runtime(reg, cfg);
  ASSERT_TRUE(runtime.start().is_ok());
  EXPECT_EQ(runtime.reactor_count(), 4);
#if defined(__linux__)
  // Every Linux this project supports has SO_REUSEPORT (3.9+): the UDP
  // plane must actually shard, not silently fall back.
  EXPECT_TRUE(runtime.udp_sharded());
#endif

  const std::vector<std::uint32_t> sizes = {25, 50, 75, 100};
  constexpr int kCallsPerClient = 25;
  constexpr int kTcpClients = 3;
  constexpr int kTcpCallsPerClient = 10;
  std::atomic<int> bad{0};

  std::vector<std::thread> clients;
  for (auto n : sizes) {
    clients.emplace_back([&, n] {
      auto iface = core::SpecializedInterface::build(echo_array_proc(), kProg,
                                                     kVers, cfg_for(n));
      net::UdpSocket sock;
      if (!iface.is_ok() || !sock.ok()) {
        ++bad;
        return;
      }
      core::SpecializedClient client(sock, runtime.udp_addr(), *iface);
      std::vector<std::uint32_t> args(n), results(n, 0);
      for (std::uint32_t i = 0; i < n; ++i) args[i] = n * 1000 + i;
      for (int round = 0; round < kCallsPerClient; ++round) {
        std::fill(results.begin(), results.end(), 0);
        if (!client.call(args, results).is_ok() || results != args) {
          ++bad;
          return;
        }
      }
    });
  }
  for (int t = 0; t < kTcpClients; ++t) {
    clients.emplace_back([&, t] {
      rpc::TcpClient client(runtime.tcp_addr(), kProg, kVers);
      if (!client.ok()) {
        ++bad;
        return;
      }
      const std::uint32_t n = 30;
      for (int round = 0; round < kTcpCallsPerClient; ++round) {
        std::vector<std::int32_t> sent(n, t * 100 + round), got;
        Status st = client.call(
            kProc,
            [&](xdr::XdrStream& x) {
              std::uint32_t count = n;
              if (!xdr::xdr_u_int(x, count)) return false;
              for (auto& v : sent) {
                if (!xdr::xdr_int(x, v)) return false;
              }
              return true;
            },
            [&](xdr::XdrStream& x) {
              std::uint32_t count = 0;
              if (!xdr::xdr_u_int(x, count) || count != n) return false;
              got.resize(count);
              for (auto& v : got) {
                if (!xdr::xdr_int(x, v)) return false;
              }
              return true;
            });
        if (!st.is_ok() || got != sent) {
          ++bad;
          return;
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(bad.load(), 0);
  // Stats aggregate across shards into one coherent set of counters.
  EXPECT_GE(runtime.stats().udp_datagrams.load(),
            static_cast<std::int64_t>(sizes.size()) * kCallsPerClient);
  EXPECT_EQ(runtime.stats().tcp_connections.load(), kTcpClients);
  EXPECT_EQ(runtime.stats().tcp_calls.load(),
            kTcpClients * kTcpCallsPerClient);
  EXPECT_EQ(runtime.stats().reply_send_failures.load(), 0);
  runtime.stop();
}

// Regression: EventServerRuntime::stop() with N>1 shards must drain
// in-flight requests on EVERY shard.  Eight connections partition over
// four shards (round-robin assignment puts exactly two on each); each
// has one request queued behind two slow workers when stop() lands.  A
// drain that only joined or flushed shard 0 would orphan the replies
// owned by shards 1..3 and fail 6 of the 8 calls.
TEST(EventServerRuntime, MultiShardStopDrainsEveryShard) {
  rpc::SvcRegistry reg;
  reg.register_proc(kProg, kVers, kProc,
                    [](xdr::XdrStream& in, xdr::XdrStream& out) {
                      std::int32_t v = 0;
                      if (!xdr::xdr_int(in, v)) return false;
                      std::this_thread::sleep_for(
                          std::chrono::milliseconds(100));
                      return xdr::xdr_int(out, v);
                    });

  rpc::EventServerRuntimeConfig cfg;
  cfg.workers = 2;
  cfg.reactors = 4;
  cfg.enable_udp = false;
  rpc::EventServerRuntime runtime(reg, cfg);
  ASSERT_TRUE(runtime.start().is_ok());

  constexpr int kConns = 8;
  std::vector<Status> statuses(kConns, unavailable("not run"));
  std::vector<std::thread> threads;
  for (int i = 0; i < kConns; ++i) {
    threads.emplace_back([&, i] {
      rpc::TcpClient client(runtime.tcp_addr(), kProg, kVers);
      if (!client.ok()) {
        statuses[static_cast<std::size_t>(i)] = unavailable("connect failed");
        return;
      }
      statuses[static_cast<std::size_t>(i)] = client.call(
          kProc,
          [&](xdr::XdrStream& x) {
            std::int32_t v = 1000 + i;
            return xdr::xdr_int(x, v);
          },
          [&](xdr::XdrStream& x) {
            std::int32_t v = 0;
            return xdr::xdr_int(x, v) && v == 1000 + i;
          });
    });
  }
  // Let every request reach the worker queue (records parse and push
  // immediately; only two can be in a handler at once).
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  runtime.stop();  // must drain all shards, not just shard 0
  for (auto& t : threads) t.join();

  for (int i = 0; i < kConns; ++i) {
    EXPECT_TRUE(statuses[static_cast<std::size_t>(i)].is_ok())
        << "conn " << i << ": "
        << statuses[static_cast<std::size_t>(i)].to_string();
  }
}

// ------------------------------------- pipelined TCP (reply ring) ------

// With tcp_pipeline_depth > 1, several requests of ONE connection
// execute concurrently across the shard's workers — but the wire must
// behave exactly as if they ran one at a time.  Make the first
// requests deliberately slow so later ones FINISH first, then require
// every reply to come back in send order with its own XID and its own
// payload.  (Depth 1 is the serial regression: same assertions hold.)
TEST(EventServerRuntime, PipelinedTcpRepliesStayInWireOrder) {
  rpc::SvcRegistry reg;
  reg.register_proc(kProg, kVers, kProc,
                    [](xdr::XdrStream& in, xdr::XdrStream& out) {
                      std::int32_t v = 0;
                      if (!xdr::xdr_int(in, v)) return false;
                      // Earlier requests dwell longer: without the
                      // ordered reply ring, reply v would overtake
                      // reply v-1 on the wire.
                      if (v < 6) {
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(30 - 5 * v));
                      }
                      return xdr::xdr_int(out, v);
                    });

  for (const int depth : {8, 1}) {
    rpc::EventServerRuntimeConfig cfg;
    cfg.workers = 4;
    cfg.tcp_pipeline_depth = depth;
    cfg.enable_udp = false;
    rpc::EventServerRuntime runtime(reg, cfg);
    ASSERT_TRUE(runtime.start().is_ok());

    auto conn = net::TcpConn::connect(runtime.tcp_addr());
    ASSERT_NE(conn, nullptr);

    constexpr int kCalls = 32;
    Bytes wire;
    for (int i = 0; i < kCalls; ++i) {
      Bytes frame(256);
      xdr::XdrMem x(MutableByteSpan(frame.data() + 4, frame.size() - 4),
                    xdr::XdrOp::kEncode);
      rpc::CallHeader hdr;
      hdr.xid = 0x7A000000u + static_cast<std::uint32_t>(i);
      hdr.prog = kProg;
      hdr.vers = kVers;
      hdr.proc = kProc;
      std::int32_t v = i;
      ASSERT_TRUE(rpc::xdr_call_header(x, hdr));
      ASSERT_TRUE(xdr::xdr_int(x, v));
      store_be32(frame.data(), xdr::XdrRec::kLastFragFlag |
                                   static_cast<std::uint32_t>(x.getpos()));
      wire.insert(wire.end(), frame.begin(),
                  frame.begin() + static_cast<std::ptrdiff_t>(4 + x.getpos()));
    }
    // One burst: every call is on the socket before the first slow
    // handler finishes.
    ASSERT_TRUE(conn->write_all(ByteSpan(wire.data(), wire.size())).is_ok());

    auto read_exact = [&](std::uint8_t* dst, std::size_t n) {
      std::size_t off = 0;
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (off < n && std::chrono::steady_clock::now() < give_up) {
        auto r = conn->read_some(MutableByteSpan(dst + off, n - off), 50);
        if (!r.is_ok()) {
          if (r.status().code() != StatusCode::kTimeout) return false;
          continue;
        }
        if (*r == 0) return false;
        off += *r;
      }
      return off == n;
    };

    for (int i = 0; i < kCalls; ++i) {
      std::uint8_t rhdr[4];
      ASSERT_TRUE(read_exact(rhdr, 4)) << "depth=" << depth << " call " << i;
      const std::uint32_t rlen = load_be32(rhdr) & ~xdr::XdrRec::kLastFragFlag;
      Bytes reply(rlen);
      ASSERT_TRUE(read_exact(reply.data(), rlen));
      // Strict wire order: reply i IS call i.
      EXPECT_EQ(load_be32(reply.data()),
                0x7A000000u + static_cast<std::uint32_t>(i))
          << "depth=" << depth;
      // The last word is the echoed int.
      EXPECT_EQ(load_be32(reply.data() + rlen - 4),
                static_cast<std::uint32_t>(i));
    }
    EXPECT_EQ(runtime.stats().tcp_calls.load(), kCalls);
    // Steady state runs on recycled arena slices: after 32 calls the
    // pool must be serving takes, not the allocator.
    EXPECT_GT(runtime.arena_stats().hits, 0);
    runtime.stop();
  }
}

// Replies that complete together leave in one write.  Request 0 is held
// until requests 1-7 have been served, so its completion releases a
// full ring behind the gap: all 8 replies go out in wire order through
// one flush, not one write per reply.
TEST(EventServerRuntime, RepliesReleasedTogetherLeaveInOneWrite) {
  constexpr int kCalls = 8;
  std::atomic<int> served{0};
  rpc::SvcRegistry reg;
  reg.register_proc(kProg, kVers, kProc,
                    [&served](xdr::XdrStream& in, xdr::XdrStream& out) {
                      std::int32_t v = 0;
                      if (!xdr::xdr_int(in, v)) return false;
                      if (v == 0) {
                        const auto give_up = std::chrono::steady_clock::now() +
                                             std::chrono::seconds(5);
                        while (served.load() < kCalls - 1 &&
                               std::chrono::steady_clock::now() < give_up) {
                          std::this_thread::sleep_for(
                              std::chrono::milliseconds(1));
                        }
                        // Lets replies 1-7 reach the ring first.
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(30));
                      }
                      const bool ok = xdr::xdr_int(out, v);
                      if (v != 0) served.fetch_add(1);
                      return ok;
                    });

  rpc::EventServerRuntimeConfig cfg;
  cfg.workers = kCalls;
  cfg.tcp_pipeline_depth = kCalls;
  cfg.enable_udp = false;
  rpc::EventServerRuntime runtime(reg, cfg);
  ASSERT_TRUE(runtime.start().is_ok());
  auto conn = net::TcpConn::connect(runtime.tcp_addr());
  ASSERT_NE(conn, nullptr);

  Bytes wire;
  for (int i = 0; i < kCalls; ++i) {
    const Bytes call =
        framed_int_call(0x7B000000u + static_cast<std::uint32_t>(i), i);
    wire.insert(wire.end(), call.begin(), call.end());
  }
  const std::int64_t flushes_before = runtime.stats().tcp_flushes.load();
  ASSERT_TRUE(conn->write_all(ByteSpan(wire.data(), wire.size())).is_ok());
  for (int i = 0; i < kCalls; ++i) {
    const Bytes reply = read_framed_reply(*conn, 10000);
    ASSERT_GE(reply.size(), 4u) << "call " << i;
    EXPECT_EQ(load_be32(reply.data()),
              0x7B000000u + static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(served.load(), kCalls - 1);
  EXPECT_LE(runtime.stats().tcp_flushes.load() - flushes_before, 2);
  runtime.stop();
}

// ------------------------------------------ adversarial TCP peers ------

// A peer that dies mid-record — either inside the 4-byte fragment
// header or inside the promised payload — must be reaped without
// disturbing anyone, and the server must keep serving.
TEST(EventServerRuntime, MidRecordDisconnectLeavesServerHealthy) {
  rpc::SvcRegistry reg;
  reg.register_proc(kProg, kVers, kProc,
                    [](xdr::XdrStream& in, xdr::XdrStream& out) {
                      std::int32_t v = 0;
                      if (!xdr::xdr_int(in, v)) return false;
                      return xdr::xdr_int(out, v);
                    });

  rpc::EventServerRuntimeConfig cfg;
  cfg.workers = 2;
  cfg.reactors = 2;
  rpc::EventServerRuntime runtime(reg, cfg);
  ASSERT_TRUE(runtime.start().is_ok());

  {
    // Dies two bytes into the fragment header.
    auto conn = net::TcpConn::connect(runtime.tcp_addr());
    ASSERT_NE(conn, nullptr);
    const std::uint8_t half_header[2] = {0x80, 0x00};
    ASSERT_TRUE(conn->write_all(ByteSpan(half_header, 2)).is_ok());
    conn->close();
  }
  {
    // Promises 4000 payload bytes, delivers 100, dies.
    auto conn = net::TcpConn::connect(runtime.tcp_addr());
    ASSERT_NE(conn, nullptr);
    Bytes partial(4 + 100, 0x42);
    store_be32(partial.data(), xdr::XdrRec::kLastFragFlag | 4000u);
    ASSERT_TRUE(conn->write_all(ByteSpan(partial.data(), partial.size()))
                    .is_ok());
    conn->close();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // The server still answers a well-behaved client.
  rpc::TcpClient client(runtime.tcp_addr(), kProg, kVers);
  ASSERT_TRUE(client.ok());
  Status st = client.call(
      kProc,
      [](xdr::XdrStream& x) {
        std::int32_t v = 123;
        return xdr::xdr_int(x, v);
      },
      [](xdr::XdrStream& x) {
        std::int32_t v = 0;
        return xdr::xdr_int(x, v) && v == 123;
      });
  EXPECT_TRUE(st.is_ok()) << st.to_string();
  EXPECT_EQ(runtime.stats().tcp_connections.load(), 3);
  runtime.stop();
}

// A record trickled one byte per write must still assemble into exactly
// one served call with a correct reply — the reassembly path crosses
// ~50 reads instead of one.
TEST(EventServerRuntime, OneByteTrickleStillCompletesTheCall) {
  rpc::SvcRegistry reg;
  reg.register_proc(kProg, kVers, kProc,
                    [](xdr::XdrStream& in, xdr::XdrStream& out) {
                      std::int32_t v = 0;
                      if (!xdr::xdr_int(in, v)) return false;
                      return xdr::xdr_int(out, v);
                    });

  rpc::EventServerRuntimeConfig cfg;
  cfg.workers = 2;
  rpc::EventServerRuntime runtime(reg, cfg);
  ASSERT_TRUE(runtime.start().is_ok());

  auto conn = net::TcpConn::connect(runtime.tcp_addr());
  ASSERT_NE(conn, nullptr);
  const Bytes call = framed_int_call(0xAA55, 777);
  for (std::size_t i = 0; i < call.size(); ++i) {
    ASSERT_TRUE(conn->write_all(ByteSpan(call.data() + i, 1)).is_ok());
  }
  const Bytes reply = read_framed_reply(*conn);
  ASSERT_GE(reply.size(), 12u);
  EXPECT_EQ(load_be32(reply.data()), 0xAA55u);  // xid
  // Echoed int is the last word of a SUCCESS reply.
  EXPECT_EQ(load_be32(reply.data() + reply.size() - 4), 777u);
  EXPECT_EQ(runtime.stats().tcp_calls.load(), 1);
  EXPECT_EQ(runtime.stats().conn_resets.load(), 0);
  runtime.stop();
}

// A peer that fires pipelined read-style requests and never reads a
// byte of its replies: the write buffer absorbs what the socket won't
// take (counted in write_stalls), and at max_write_buffer the peer is
// reset (counted in conn_resets) — it can never OOM the server or
// wedge a reactor shard.
TEST(EventServerRuntime, PeerThatNeverReadsIsStalledThenCapped) {
  // Read-style proc: a tiny call asking for `count` ints back.
  rpc::SvcRegistry reg;
  reg.register_proc(kProg, kVers, kProc,
                    [](xdr::XdrStream& in, xdr::XdrStream& out) {
                      std::uint32_t count = 0;
                      if (!xdr::xdr_u_int(in, count) || count > (1u << 18)) {
                        return false;
                      }
                      if (!xdr::xdr_u_int(out, count)) return false;
                      for (std::uint32_t i = 0; i < count; ++i) {
                        std::int32_t v = static_cast<std::int32_t>(i);
                        if (!xdr::xdr_int(out, v)) return false;
                      }
                      return true;
                    });

  rpc::EventServerRuntimeConfig cfg;
  cfg.workers = 2;
  cfg.max_write_buffer = 256 * 1024;  // small cap so the test converges
  rpc::EventServerRuntime runtime(reg, cfg);
  ASSERT_TRUE(runtime.start().is_ok());

  auto conn = net::TcpConn::connect(runtime.tcp_addr());
  ASSERT_NE(conn, nullptr);
  // 40 requests, each producing a ~128 KB reply (~5 MB total): far more
  // than kernel socket buffers + max_write_buffer can hold.
  constexpr std::uint32_t kReplyInts = 32768;
  for (int i = 0; i < 40; ++i) {
    Bytes msg(128);
    xdr::XdrMem x(MutableByteSpan(msg.data() + 4, msg.size() - 4),
                  xdr::XdrOp::kEncode);
    rpc::CallHeader hdr;
    hdr.xid = 0x5000u + static_cast<std::uint32_t>(i);
    hdr.prog = kProg;
    hdr.vers = kVers;
    hdr.proc = kProc;
    std::uint32_t count = kReplyInts;
    ASSERT_TRUE(rpc::xdr_call_header(x, hdr));
    ASSERT_TRUE(xdr::xdr_u_int(x, count));
    store_be32(msg.data(), xdr::XdrRec::kLastFragFlag |
                               static_cast<std::uint32_t>(x.getpos()));
    if (!conn->write_all(ByteSpan(msg.data(), 4 + x.getpos())).is_ok()) {
      break;  // already reset: fine, that is the expected endgame
    }
  }

  // Never read.  The server must stall-account, then cut us off.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (runtime.stats().conn_resets.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(runtime.stats().conn_resets.load(), 1);
  EXPECT_GE(runtime.stats().write_stalls.load(), 1);

  // Nobody else was harmed: a fresh, well-behaved client is served.
  rpc::TcpClient client(runtime.tcp_addr(), kProg, kVers);
  ASSERT_TRUE(client.ok());
  std::uint32_t got = 0;
  Status st = client.call(
      kProc,
      [](xdr::XdrStream& x) {
        std::uint32_t count = 3;
        return xdr::xdr_u_int(x, count);
      },
      [&](xdr::XdrStream& x) {
        if (!xdr::xdr_u_int(x, got) || got != 3) return false;
        for (std::uint32_t i = 0; i < got; ++i) {
          std::int32_t v = 0;
          if (!xdr::xdr_int(x, v)) return false;
        }
        return true;
      });
  EXPECT_TRUE(st.is_ok()) << st.to_string();
  runtime.stop();
}

// -------------------------------- ServerRuntime shutdown drain (fix) ---

// Regression: stop() must serve already-queued jobs, not drop them.  A
// single worker is busy with a slow call while a second connection's
// request is queued; stop() arrives before the worker ever picks the
// second connection up.  The queued request's bytes are already in the
// socket buffer, so the drain contract says it still gets a reply.
TEST(ServerRuntime, StopDrainsQueuedRequests) {
  rpc::SvcRegistry reg;
  reg.register_proc(kProg, kVers, kProc,
                    [](xdr::XdrStream& in, xdr::XdrStream& out) {
                      std::int32_t v = 0;
                      if (!xdr::xdr_int(in, v)) return false;
                      std::this_thread::sleep_for(
                          std::chrono::milliseconds(200));
                      return xdr::xdr_int(out, v);
                    });

  rpc::ServerRuntimeConfig cfg;
  cfg.workers = 1;
  cfg.enable_udp = false;
  rpc::ServerRuntime runtime(reg, cfg);
  ASSERT_TRUE(runtime.start().is_ok());

  auto one_call = [&](Status* out) {
    rpc::TcpClient client(runtime.tcp_addr(), kProg, kVers);
    if (!client.ok()) {
      *out = unavailable("connect failed");
      return;
    }
    *out = client.call(
        kProc,
        [](xdr::XdrStream& x) {
          std::int32_t v = 42;
          return xdr::xdr_int(x, v);
        },
        [](xdr::XdrStream& x) {
          std::int32_t v = 0;
          return xdr::xdr_int(x, v) && v == 42;
        });
  };

  Status st_a, st_b;
  std::thread a([&] { one_call(&st_a); });
  // Let A's connection occupy the only worker (it sleeps 200 ms inside
  // the handler), then park B's fully-sent request in the queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  std::thread b([&] { one_call(&st_b); });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));

  runtime.stop();  // must drain B, not drop it
  a.join();
  b.join();

  EXPECT_TRUE(st_a.is_ok()) << st_a.to_string();
  EXPECT_TRUE(st_b.is_ok()) << st_b.to_string();
}

}  // namespace
}  // namespace tempo

#include "rpc/event_runtime.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <unordered_set>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "common/endian.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "xdr/xdrrec.h"

namespace tempo::rpc {

namespace {

constexpr std::size_t kReadChunk = 64 * 1024;
constexpr int kMaxReadsPerEvent = 4;

// Best-effort CPU pinning for the pin_shards knob: shard i's reactor
// thread and its home workers all land on core (i % ncpu), keeping a
// request's cache lines on one core end to end.  Failure is ignored —
// pinning is an optimization, never a correctness requirement.
void pin_thread_to_cpu(std::size_t index) {
#if defined(__linux__)
  const unsigned n = std::thread::hardware_concurrency();
  if (n == 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>(index % n), &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)index;
#endif
}

#if TEMPO_HAVE_URING
// user_data tags of the runtime's own SQEs (tags below kUringTagUser
// belong to the Reactor: poll, wake, ignore).  Both carry the conn id.
constexpr std::uint64_t kTagTcpRecv = net::kUringTagUser + 0;
constexpr std::uint64_t kTagTcpCancel = net::kUringTagUser + 1;
#endif  // TEMPO_HAVE_URING

// How long a worker waits for send-buffer space before its one retry of
// a refused reply tail.
constexpr int kReplyRetryWaitMs = 10;

}  // namespace

// uring-backend state of one shard, owned by that shard's reactor
// thread.  Behind a unique_ptr so the header only forward-declares it.
//
// Buffer-ownership contract (see src/net/README.md): bufs[bid] is the
// arena slice currently lent to the kernel's provided-buffer ring slot
// `bid` and is pin()-accounted for exactly that duration.  A TCP
// receive completion's bytes are copied by parse_records and the same
// slice goes straight back on the ring before the next buf_ring_commit
// — a slice the kernel may still write is never recycled, resized, or
// freed.
struct EventServerRuntime::ShardUring {
#if TEMPO_HAVE_URING
  std::vector<Bytes> bufs;  // bid -> slice on the ring
  // user_data of every armed multishot receive (one per reading conn).
  // Maintained at arm and at terminal CQE — independent of the conn
  // map, so a late completion after destroy_conn still balances — and
  // consumed by uring_teardown, which cancels exactly these and waits
  // for their terminal CQEs.
  std::unordered_set<std::uint64_t> armed_recvs;
#endif
};

EventServerRuntime::Shard::Shard(std::size_t idx, net::ReactorBackend be,
                                 bool sqpoll)
    : index(idx), reactor(be, sqpoll) {}

EventServerRuntime::Shard::~Shard() = default;

EventServerRuntime::EventServerRuntime(SvcRegistry& registry,
                                       EventServerRuntimeConfig cfg)
    : registry_(registry), cfg_(cfg) {}

EventServerRuntime::~EventServerRuntime() { stop(); }

Status EventServerRuntime::start() {
  if (running_.load(std::memory_order_acquire)) return Status::ok();
  reactor_stop_.store(false, std::memory_order_release);
  workers_stop_.store(false, std::memory_order_release);
  pending_jobs_.store(0, std::memory_order_release);
  udp_sharded_ = false;
  next_conn_shard_ = 0;
  pipeline_depth_ =
      cfg_.tcp_pipeline_depth < 1
          ? 1
          : static_cast<std::size_t>(cfg_.tcp_pipeline_depth);

  const std::size_t nshards =
      cfg_.reactors < 1 ? 1 : static_cast<std::size_t>(cfg_.reactors);

  // Observability setup happens before any thread exists, so the hot
  // paths read plain fields, never synchronize.  cfg.trace_sample wins;
  // TEMPO_TRACE_SAMPLE is the no-recompile fallback.
  metrics_on_ = common::metrics_enabled();
  worker_seq_.store(0, std::memory_order_relaxed);
  std::uint32_t sample = cfg_.trace_sample;
  if (sample == 0) {
    if (const char* env = std::getenv("TEMPO_TRACE_SAMPLE")) {
      sample = static_cast<std::uint32_t>(std::atoi(env));
    }
  }
  tracer_ = sample > 0 ? std::make_unique<common::Tracer>(
                             nshards, cfg_.trace_ring, sample)
                       : nullptr;

  // Resolve the backend once for the whole shard group: kAuto probes
  // io_uring support and falls back to epoll; an explicit kUring is
  // still a request (a shard whose ring setup fails individually runs
  // epoll and reports so through backend()).
  net::ReactorBackend rb = net::ReactorBackend::kAuto;
  switch (cfg_.backend) {
    case EventBackend::kAuto:
      rb = net::Reactor::uring_supported() ? net::ReactorBackend::kUring
                                           : net::ReactorBackend::kAuto;
      break;
    case EventBackend::kEpoll:
      rb = net::ReactorBackend::kEpoll;
      break;
    case EventBackend::kPoll:
      rb = net::ReactorBackend::kPoll;
      break;
    case EventBackend::kUring:
      rb = net::ReactorBackend::kUring;
      break;
  }

  shards_.reserve(nshards);
  for (std::size_t i = 0; i < nshards; ++i) {
    shards_.push_back(std::make_unique<Shard>(i, rb, cfg_.sqpoll));
    if (!shards_.back()->reactor.ok()) {
      shards_.clear();
      return unavailable("EventServerRuntime: reactor init");
    }
  }

  // Shard-local worker pools.  workers_per_shard pins each shard's
  // pool exactly; otherwise the `workers` total is split as evenly as
  // possible (remainder to the low shards, shards beyond the total get
  // zero — their TCP queues drain through stealing siblings), so the
  // spawned thread count equals what the config asked for.  Shard 0
  // always gets at least one.
  worker_count_ = 0;
  for (std::size_t i = 0; i < nshards; ++i) {
    int count = cfg_.workers_per_shard;
    if (count < 1) {
      const std::size_t total =
          static_cast<std::size_t>(cfg_.workers < 1 ? 1 : cfg_.workers);
      count = static_cast<int>(total / nshards + (i < total % nshards));
    }
    shards_[i]->home_workers = count;
    worker_count_ += count;
  }

  if (cfg_.enable_udp) {
    // Only shards with workers receive UDP (workers read the sockets;
    // a socket nobody reads would swallow its flow-hash share).
    std::vector<Shard*> receivers;
    for (auto& sp : shards_) {
      if (sp->home_workers > 0) receivers.push_back(sp.get());
    }
    if (receivers.size() > 1) {
      // One SO_REUSEPORT socket per receiving shard, all on the same
      // port: the kernel disperses datagrams across the group by flow
      // hash, so each client flow sticks to one shard.
      std::uint16_t port = cfg_.udp_port;
      bool all_ok = true;
      for (Shard* r : receivers) {
        r->udp = std::make_unique<net::UdpSocket>(port, /*reuseport=*/true);
        if (!r->udp->ok()) {
          all_ok = false;
          break;
        }
        port = r->udp->local_addr().port;
      }
      udp_sharded_ = all_ok;
      // Partial group: tear the members down and fall back to one
      // receiving socket below.
      if (!all_ok) {
        for (auto& sp : shards_) sp->udp.reset();
      }
    }
    if (!udp_sharded_) {
      // One receiving socket on shard 0, watched by every worker of
      // every shard.
      shards_[0]->udp = std::make_unique<net::UdpSocket>(cfg_.udp_port);
    }
    if (!shards_[0]->udp->ok()) {
      shards_.clear();
      return unavailable("EventServerRuntime: UDP bind failed");
    }
    for (auto& sp : shards_) {
      if (!sp->udp) continue;
      Status st = sp->udp->set_nonblocking(true);
      if (!st.is_ok()) {
        shards_.clear();
        return st;
      }
    }
  }
  if (cfg_.enable_tcp) {
    tcp_ = std::make_unique<net::TcpListener>(cfg_.tcp_port);
    if (!tcp_->ok()) {
      shards_.clear();
      tcp_.reset();
      return unavailable("EventServerRuntime: TCP bind failed");
    }
    // Non-blocking listener: a connection aborted between readiness and
    // ::accept must surface as "nothing to accept", not block the loop.
    Status st = tcp_->set_nonblocking(true);
    if (!st.is_ok()) {
      shards_.clear();
      tcp_.reset();
      return st;
    }
    shards_[0]->reactor.add(tcp_->fd(), net::kEventRead,
                            [this](unsigned) { on_accept_ready(); });
  }

  // Every worker's WaitSet watches the socket it serves: its home
  // shard's, or shard 0's when UDP is not sharded.
  for (auto& sp : shards_) {
    const net::UdpSocket* sock =
        sp->udp ? sp->udp.get() : shards_[0]->udp.get();
    for (int w = 0; w < sp->home_workers; ++w) {
      auto worker = std::make_unique<Worker>();
      if (!worker->wait.ok() || (sock && !worker->wait.watch(sock->fd()))) {
        shards_.clear();
        tcp_.reset();
        return unavailable("EventServerRuntime: worker wait set");
      }
      sp->workers.push_back(std::move(worker));
    }
  }
  {
    // Kernel drops count from here on (a fresh socket starts at 0).
    std::lock_guard<std::mutex> lock(drops_mu_);
    drop_books_.clear();
    for (auto& sp : shards_) {
      if (sp->udp) {
        drop_books_.emplace_back(sp->udp.get(), sp->udp->kernel_drops());
      }
    }
  }
  for (auto& sp : shards_) {
    const std::size_t home = sp->index;
    for (auto& w : sp->workers) {
      Worker* wp = w.get();
      wp->thread = std::thread([this, home, wp] { worker_loop(home, *wp); });
    }
  }
  for (auto& sp : shards_) {
    Shard* s = sp.get();
    setup_shard_uring(*s);  // no-op unless this shard's reactor is uring
    s->thread = std::thread([this, s] { shard_loop(*s); });
  }

  // Fold this runtime into the process-wide registry: counters from
  // stats_, the per-shard latency histograms, and the shard arenas.
  // The callback runs under the registry mutex and reads shards_, so
  // stop() resets the handle before tearing the shards down.
  metrics_source_ =
      common::metrics().add_source([this](common::MetricsSnapshot& snap) {
        const auto c = [](const std::atomic<std::int64_t>& v) {
          return v.load(std::memory_order_relaxed);
        };
        fold_kernel_drops();
        snap.add_counter("rpc.udp_datagrams", c(stats_.udp_datagrams));
        snap.add_counter("rpc.udp_batches", c(stats_.udp_batches));
        snap.add_counter("rpc.udp_reply_batches", c(stats_.udp_reply_batches));
        snap.add_counter("rpc.reply_send_retries",
                         c(stats_.reply_send_retries));
        snap.add_counter("rpc.reply_send_failures",
                         c(stats_.reply_send_failures));
        snap.add_counter("rpc.tcp_connections", c(stats_.tcp_connections));
        snap.add_counter("rpc.tcp_calls", c(stats_.tcp_calls));
        snap.add_counter("rpc.overload_drops", c(stats_.overload_drops));
        snap.add_counter("rpc.conn_resets", c(stats_.conn_resets));
        snap.add_counter("rpc.write_stalls", c(stats_.write_stalls));
        snap.add_counter("rpc.tcp_flushes", c(stats_.tcp_flushes));
        snap.add_counter("rpc.dispatch_stalls", c(stats_.dispatch_stalls));
        snap.add_counter("rpc.work_steals", c(stats_.work_steals));
        snap.add_counter("rpc.tick_steals", c(stats_.tick_steals));
        for (const auto& sp : shards_) {
          snap.merge_histogram("rpc.queue_ns", sp->queue_hist.snapshot());
          snap.merge_histogram("rpc.handle_ns", sp->handle_hist.snapshot());
          snap.merge_histogram("rpc.udp_e2e_ns", sp->udp_e2e_hist.snapshot());
          snap.merge_histogram("rpc.tcp_e2e_ns", sp->tcp_e2e_hist.snapshot());
        }
        const common::BufferArenaStats a = arena_stats();
        snap.add_counter("arena.hits", a.hits);
        snap.add_counter("arena.misses", a.misses);
        snap.add_counter("arena.recycles", a.recycles);
        snap.add_counter("arena.discards", a.discards);
        snap.add_gauge("arena.bytes_pooled", a.bytes_pooled);
        snap.add_gauge("arena.bytes_pinned", a.bytes_pinned);
        snap.add_gauge("rpc.reactors",
                       static_cast<std::int64_t>(shards_.size()));
        snap.add_gauge("rpc.workers", worker_count_);
        // Backend as a gauge so dashboards segment runs without string
        // labels: 0 = poll, 1 = epoll, 2 = uring.
        const char* be = backend();
        snap.add_gauge("rpc.backend", std::strcmp(be, "uring") == 0   ? 2
                                      : std::strcmp(be, "epoll") == 0 ? 1
                                                                      : 0);
        snap.add_counter("rpc.uring_enters", uring_enter_calls());
      });

  running_.store(true, std::memory_order_release);
  return Status::ok();
}

void EventServerRuntime::stop() {
  if (!running_.load(std::memory_order_acquire)) return;

  // Phase 1: stop reading new TCP requests on EVERY shard (each closure
  // runs on its own shard's thread).  Shard 0 also drops the listener.
  for (auto& sp : shards_) {
    Shard* s = sp.get();
    s->reactor.post([this, s] { close_intake(*s); });
  }

  // Phase 2: bounded drain — queued TCP requests finish and their
  // replies are handed back to the still-running shard reactors.
  // Workers keep serving UDP meanwhile.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(cfg_.drain_timeout_ms);
  while (pending_jobs_.load(std::memory_order_acquire) > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Past the deadline the bound wins over the drain: drop whatever is
  // still queued so stop() cannot be held hostage by a slow handler.
  for (auto& sp : shards_) {
    std::lock_guard<std::mutex> lock(sp->q_mu);
    if (!sp->queue.empty()) {
      stats_.overload_drops += static_cast<std::int64_t>(sp->queue.size());
      pending_jobs_.fetch_sub(static_cast<std::int64_t>(sp->queue.size()),
                              std::memory_order_acq_rel);
      sp->queue.clear();
    }
  }

  // Phase 3: workers down.  Each one first serves the datagrams already
  // in its socket, until the same deadline.
  drain_deadline_ = deadline;
  workers_stop_.store(true, std::memory_order_release);
  for (auto& sp : shards_) {
    for (auto& w : sp->workers) w->wait.ring();
  }
  for (auto& sp : shards_) {
    for (auto& w : sp->workers) {
      if (w->thread.joinable()) w->thread.join();
    }
  }
  // What the workers left unread is counted, never lost silently.  The
  // sweep is bounded (well past what a default receive buffer holds) so
  // a peer still flooding cannot hold stop() here.
  for (auto& sp : shards_) {
    if (sp->udp) stats_.overload_drops += sp->udp->discard_pending(4096);
  }
  fold_kernel_drops();
  {
    // The sockets close with the shards below; stats() stops folding.
    std::lock_guard<std::mutex> lock(drops_mu_);
    drop_books_.clear();
  }

  // Phase 4: every shard down; each loop flushes and closes its own
  // connections on the way out.  A drain that only covered shard 0
  // would orphan the replies buffered on shards 1..N-1.
  reactor_stop_.store(true, std::memory_order_release);
  for (auto& sp : shards_) sp->reactor.wakeup();
  for (auto& sp : shards_) {
    if (sp->thread.joinable()) sp->thread.join();
  }

  // Unregister BEFORE the shards (and their histograms) die; a
  // concurrent metrics().snapshot() blocks in reset() until any
  // in-flight callback finishes.  The tracer survives stop() so
  // post-run trace_snapshot() works.
  metrics_source_.reset();

  shards_.clear();
  tcp_.reset();
  running_.store(false, std::memory_order_release);
}

net::Addr EventServerRuntime::udp_addr() const {
  // All members of the reuseport group share one address; shard 0 is
  // also the socket of the fallback mode.
  if (shards_.empty() || !shards_[0]->udp) return net::Addr{};
  return shards_[0]->udp->local_addr();
}

net::Addr EventServerRuntime::tcp_addr() const {
  return tcp_ ? tcp_->local_addr() : net::Addr{};
}

common::BufferArenaStats EventServerRuntime::arena_stats() const {
  common::BufferArenaStats total;
  for (const auto& sp : shards_) {
    const common::BufferArenaStats s = sp->arena.stats();
    total.hits += s.hits;
    total.misses += s.misses;
    total.recycles += s.recycles;
    total.discards += s.discards;
    total.bytes_pooled += s.bytes_pooled;
    total.bytes_pinned += s.bytes_pinned;
  }
  return total;
}

std::int64_t EventServerRuntime::uring_enter_calls() const {
  std::int64_t total = 0;
  for (const auto& sp : shards_) total += sp->reactor.uring_enter_calls();
  return total;
}

void EventServerRuntime::fold_kernel_drops() const {
  std::lock_guard<std::mutex> lock(drops_mu_);
  for (auto& [sock, folded] : drop_books_) {
    const std::uint32_t now = sock->kernel_drops();
    // A wrapping 32-bit counter: the unsigned difference is the delta.
    stats_.overload_drops += static_cast<std::uint32_t>(now - folded);
    folded = now;
  }
}

RuntimeLatencySnapshot EventServerRuntime::latency_snapshot() const {
  RuntimeLatencySnapshot out;
  for (const auto& sp : shards_) {
    out.queue.merge(sp->queue_hist.snapshot());
    out.handle.merge(sp->handle_hist.snapshot());
    out.udp_e2e.merge(sp->udp_e2e_hist.snapshot());
    out.tcp_e2e.merge(sp->tcp_e2e_hist.snapshot());
  }
  return out;
}

const char* EventServerRuntime::backend() const {
  // Only a live shard knows which backend its reactor actually got
  // (epoll_create1 can fail and fall back); don't guess.
  return shards_.empty() ? "none" : shards_[0]->reactor.backend();
}

// ------------------------------------------------------ shard threads ---

void EventServerRuntime::shard_loop(Shard& s) {
  if (cfg_.pin_shards) pin_thread_to_cpu(s.index);
  while (!reactor_stop_.load(std::memory_order_acquire)) {
    // With conns parked on a full worker queue, tick instead of
    // blocking so their records are re-dispatched as the queue drains
    // (no fd event or completion may ever fire for them otherwise).
    s.reactor.poll_once(s.stalled_conns.empty() ? -1 : 5);
    retry_stalled(s);
  }
  // Run straggler completions, give each connection one last
  // non-blocking flush, then close everything.  flush_conn can erase
  // entries, so iterate over a snapshot of ids.
  s.reactor.poll_once(0);
  std::vector<std::uint64_t> ids;
  ids.reserve(s.conns.size());
  for (auto& [id, conn] : s.conns) ids.push_back(id);
  for (auto id : ids) {
    auto it = s.conns.find(id);
    if (it != s.conns.end()) flush_conn(s, it->second);
  }
  for (auto& [id, conn] : s.conns) s.reactor.remove(conn.sock->fd());
  s.conns.clear();
  // uring shards: cancel the surviving multishot ops (they hold file
  // refs past the closes above), wait for every in-flight SQE, then
  // hand the ring's arena slices back.  Late CQEs for the destroyed
  // conns are tolerated — the conn-map lookup simply misses.
  uring_teardown(s);
}

void EventServerRuntime::close_intake(Shard& s) {
  if (s.intake_closed) return;
  s.intake_closed = true;
  if (s.index == 0 && tcp_) s.reactor.remove(tcp_->fd());
  // Records parsed but not yet handed to the pool are dropped here so
  // the stop() drain has a fixed amount of work: exactly the jobs the
  // pool already holds.
  s.stalled_conns.clear();
  std::vector<std::uint64_t> ids;
  ids.reserve(s.conns.size());
  for (auto& [id, conn] : s.conns) ids.push_back(id);
  for (auto id : ids) {
    auto it = s.conns.find(id);
    if (it == s.conns.end()) continue;
    for (auto& rec : it->second.ready_records) {
      s.arena.recycle(std::move(rec.buf));
    }
    it->second.ready_records.clear();
    it->second.stalled = false;
    finish_conn_if_idle(s, it->second);
  }
}

void EventServerRuntime::on_accept_ready() {
  // Runs on shard 0, which owns the listener.  Accept everything
  // pending; the listener is level-triggered so a partial drain would
  // re-fire anyway, but batching saves wakeups.
  Shard& s0 = *shards_[0];
  const std::size_t nshards = shards_.size();
  for (;;) {
    auto conn = tcp_->accept(/*timeout_ms=*/0);
    if (!conn.is_ok()) return;
    ++stats_.tcp_connections;
    // Round-robin assignment (not fd % N: the kernel reuses the lowest
    // free fd, so under connection churn fd-hashing pins new conns to
    // whichever residues happen to be free — round-robin from the
    // single-threaded accept path is exactly even, no sync needed).
    const std::size_t target = next_conn_shard_++ % nshards;
    if (target == 0) {
      adopt_conn(s0, (*conn)->release());
    } else {
      // Hand the connection to its owning shard; from the post on,
      // only that shard's thread ever touches it.  The closure keeps
      // OWNERSHIP of the socket (shared_ptr, since std::function must
      // be copyable) until adopt: if the shard's loop exits before
      // running it — a stop() racing this accept — destruction of the
      // un-run closure still closes the fd instead of leaking it.
      Shard* t = shards_[target].get();
      std::shared_ptr<net::TcpConn> handoff(std::move(*conn));
      t->reactor.post(
          [this, t, handoff] { adopt_conn(*t, handoff->release()); });
    }
  }
}

void EventServerRuntime::adopt_conn(Shard& s, int fd) {
  auto sock = std::make_unique<net::TcpConn>(fd);
  // A handoff can race shutdown: if this shard already closed intake,
  // the connection is dropped here (the unique_ptr closes the fd).
  if (s.intake_closed) return;
  // Must be non-blocking: POLLOUT only promises SOME send-buffer
  // space, and a blocking send() of a large reply would park the
  // reactor thread on a slow reader.
  if (!sock->set_nonblocking(true).is_ok()) return;
  const std::uint64_t id = s.next_conn_id++;
  Conn c;
  c.id = id;
  c.shard = s.index;
  c.sock = std::move(sock);
  c.ring.resize(pipeline_depth_);
  const int cfd = c.sock->fd();
  Shard* sp = &s;
  auto [it, inserted] = s.conns.emplace(id, std::move(c));
  // uring shards read through a per-conn multishot recv, so the poll
  // registration starts with no interest (it carries only the write
  // bit, toggled by set_conn_interest).
  const unsigned initial = s.uring ? 0u : net::kEventRead;
  if (!inserted ||
      !s.reactor.add(cfd, initial, [this, sp, id](unsigned events) {
        on_conn_event(*sp, id, events);
      })) {
    s.conns.erase(id);
    return;
  }
  if (s.uring) uring_sync_conn_recv(s, it->second);
}

void EventServerRuntime::on_conn_event(Shard& s, std::uint64_t id,
                                       unsigned events) {
  // read_conn and flush_conn can both destroy the connection (protocol
  // violation, write error); re-resolve the map entry after each.
  auto it = s.conns.find(id);
  if (it == s.conns.end()) return;
  if (events & net::kEventRead) {
    if (s.uring) {
      // uring conns read via multishot recv — never read_some here (it
      // would race the kernel for the byte stream).  A read bit can
      // only arrive through an error-flagged poll completion.
      if (events & net::kEventError) it->second.peer_eof = true;
    } else {
      read_conn(s, it->second);
    }
  }
  it = s.conns.find(id);
  if (it == s.conns.end()) return;
  if (events & net::kEventWrite) flush_conn(s, it->second);
  it = s.conns.find(id);
  if (it == s.conns.end()) return;
  dispatch_ready(s, it->second);
  finish_conn_if_idle(s, it->second);
}

void EventServerRuntime::read_conn(Shard& s, Conn& c) {
  if (c.peer_eof) return;
  std::uint8_t chunk[kReadChunk];
  for (int i = 0; i < kMaxReadsPerEvent; ++i) {
    auto r = c.sock->read_some(MutableByteSpan(chunk, sizeof(chunk)),
                               /*timeout_ms=*/0);
    if (!r.is_ok()) {
      if (r.status().code() != StatusCode::kTimeout) c.peer_eof = true;
      return;
    }
    if (!parse_records(s, c, ByteSpan(chunk, *r))) {
      ++stats_.conn_resets;
      destroy_conn(s, c.id);
      return;
    }
  }
}

bool EventServerRuntime::parse_records(Shard& s, Conn& c, ByteSpan chunk) {
  while (!chunk.empty()) {
    if (c.frag_header_pending) {
      const std::size_t need = 4 - c.header_partial.size();
      const std::size_t take = std::min(need, chunk.size());
      c.header_partial.insert(c.header_partial.end(), chunk.begin(),
                              chunk.begin() + static_cast<std::ptrdiff_t>(
                                                  take));
      chunk = chunk.subspan(take);
      if (c.header_partial.size() < 4) return true;
      const std::uint32_t word = load_be32(c.header_partial.data());
      c.header_partial.clear();
      c.last_frag = (word & xdr::XdrRec::kLastFragFlag) != 0;
      c.frag_remaining = word & ~xdr::XdrRec::kLastFragFlag;
      c.frag_header_pending = false;
      const std::size_t full = c.record.len + c.frag_remaining;
      if (full > cfg_.max_record_bytes) {
        return false;  // oversized record: cut the peer off
      }
      // Reserve the whole fragment up front: the record buffer is an
      // arena slice whose size never shrinks, so growth is a take +
      // copy of the bytes assembled so far, not a realloc per chunk.
      if (c.record.buf.size() < full) {
        Bytes bigger = s.arena.take(full);
        if (c.record.len > 0) {
          std::memcpy(bigger.data(), c.record.buf.data(), c.record.len);
        }
        s.arena.recycle(std::move(c.record.buf));
        c.record.buf = std::move(bigger);
      }
    }
    const std::size_t take =
        std::min<std::size_t>(c.frag_remaining, chunk.size());
    if (take > 0) {
      std::memcpy(c.record.buf.data() + c.record.len, chunk.data(), take);
      c.record.len += take;
      chunk = chunk.subspan(take);
      c.frag_remaining -= static_cast<std::uint32_t>(take);
    }
    if (c.frag_remaining == 0) {
      c.frag_header_pending = true;
      if (c.last_frag) {
        c.last_frag = false;
        if (c.record.len > 0) {
          // Stamped when the record finishes assembling (one clock
          // read per complete request, not per chunk): what the TCP
          // queue-wait and e2e histograms measure from.
          c.record.recv_ns = metrics_on_ ? common::monotonic_ns() : 0;
          c.ready_records.push_back(std::move(c.record));
        } else if (!c.record.buf.empty()) {
          s.arena.recycle(std::move(c.record.buf));
        }
        c.record = Chunk{};
      }
    }
  }
  return true;
}

void EventServerRuntime::dispatch_ready(Shard& s, Conn& c) {
  // Pipelined execution: up to tcp_pipeline_depth requests of this
  // connection run concurrently across the workers.  Each dispatch
  // reserves the next ring slot (seq); the ring emits replies strictly
  // in seq order, so wire order matches arrival order exactly as if
  // the calls had run one at a time.
  while (c.inflight < pipeline_depth_ && !c.ready_records.empty()) {
    const std::uint64_t seq = c.next_seq;
    TcpRequestJob job{s.index, c.id, seq, std::move(c.ready_records.front())};
    if (!push_job(s.index, job)) {
      // Queue full: put the record back and park the conn on the
      // stalled list; shard_loop ticks until it re-dispatches (never
      // block the reactor thread).
      c.ready_records.front() = std::move(job.record);
      if (!c.stalled) {
        ++stats_.dispatch_stalls;
        c.stalled = true;
        s.stalled_conns.push_back(c.id);
      }
      return;
    }
    c.ready_records.pop_front();
    c.next_seq = seq + 1;
    ++c.inflight;
  }
}

void EventServerRuntime::retry_stalled(Shard& s) {
  if (s.stalled_conns.empty()) return;
  std::vector<std::uint64_t> retry;
  retry.swap(s.stalled_conns);
  for (auto id : retry) {
    auto it = s.conns.find(id);
    if (it == s.conns.end()) continue;  // conn died while parked
    it->second.stalled = false;
    dispatch_ready(s, it->second);  // re-parks itself if still full
    auto again = s.conns.find(id);
    if (again != s.conns.end()) finish_conn_if_idle(s, again->second);
  }
}

void EventServerRuntime::flush_conn(Shard& s, Conn& c) {
  while (c.out_off < c.out_len) {
    ++stats_.tcp_flushes;
    auto r = c.sock->write_some(
        ByteSpan(c.out_buf.data() + c.out_off, c.out_len - c.out_off),
        /*timeout_ms=*/0);
    if (!r.is_ok()) {
      if (r.status().code() != StatusCode::kTimeout) {
        ++stats_.conn_resets;
        destroy_conn(s, c.id);
      } else {
        // Socket full: the peer is not keeping up.  The leftover waits
        // in out_buf for writability; count the stall.
        ++stats_.write_stalls;
      }
      return;
    }
    c.out_off += *r;
  }
  c.out_off = 0;
  c.out_len = 0;
  // Fully drained: hand the buffer back so idle connections do not
  // park arena slices (the next reply adopts its own frame anyway).
  if (!c.out_buf.empty()) {
    s.arena.recycle(std::move(c.out_buf));
    c.out_buf = Bytes();
  }
}

void EventServerRuntime::finish_conn_if_idle(Shard& s, Conn& c) {
  const bool out_pending = c.out_off < c.out_len;
  if (c.peer_eof && c.inflight == 0 && c.ready_records.empty() &&
      !out_pending) {
    destroy_conn(s, c.id);
    return;
  }
  unsigned want = 0;
  // Backpressure: stop reading a conn whose record backlog is full; TCP
  // flow control stalls the peer until dispatch catches up.
  if (!c.peer_eof && !s.intake_closed &&
      c.ready_records.size() < cfg_.max_pipelined_records) {
    want |= net::kEventRead;
  }
  if (out_pending) want |= net::kEventWrite;
  if (want == 0 && c.inflight == 0 && c.ready_records.empty()) {
    // Intake is closed and nothing is queued: the connection can never
    // make progress again.
    destroy_conn(s, c.id);
    return;
  }
  set_conn_interest(s, c, want);
}

void EventServerRuntime::destroy_conn(Shard& s, std::uint64_t id) {
  auto it = s.conns.find(id);
  if (it == s.conns.end()) return;
  Conn& c = it->second;
  // Give every arena slice the connection holds back to its shard:
  // the half-assembled record, undispatched records, out-of-order
  // replies parked in the ring, and the write buffer.
  s.arena.recycle(std::move(c.record.buf));
  for (auto& rec : c.ready_records) s.arena.recycle(std::move(rec.buf));
  for (auto& slot : c.ring) {
    if (slot.ready) s.arena.recycle(std::move(slot.frame.buf));
  }
  s.arena.recycle(std::move(c.out_buf));
#if TEMPO_HAVE_URING
  if (s.uring && c.urecv_armed && !c.urecv_cancel) {
    // Cancel the multishot recv so its file ref does not outlive the
    // close below.  armed_recvs balances at its terminal CQE (which
    // finds no conn — fine).
    if (net::Uring* ring = s.reactor.uring()) {
      ring->prep_cancel(net::uring_user_data(kTagTcpRecv, id),
                        net::uring_user_data(net::kUringTagIgnore, 0));
    }
  }
#endif
  s.reactor.remove(c.sock->fd());
  s.conns.erase(it);  // unique_ptr closes the socket
}

void EventServerRuntime::set_conn_interest(Shard& s, Conn& c,
                                           unsigned interest) {
  if (s.uring) {
    // uring: the fd poll carries ONLY the write bit (reads are a
    // multishot recv, reconciled below), so a backpressure pause is a
    // cancel SQE riding the next batch, not an epoll_ctl syscall.
    const unsigned mask = interest & net::kEventWrite;
    if ((c.interest & net::kEventWrite) != mask) {
      s.reactor.set_interest(c.sock->fd(), mask);
    }
    c.interest = interest;
    uring_sync_conn_recv(s, c);
    return;
  }
  if (c.interest == interest) return;
  if (s.reactor.set_interest(c.sock->fd(), interest)) {
    c.interest = interest;
  }
}

bool EventServerRuntime::append_out(Shard& s, Conn& c, Chunk frame) {
  if (c.out_len - c.out_off + frame.len > cfg_.max_write_buffer) {
    // The cap bounds bytes the socket refused, not bytes one drain
    // batched: write out what is buffered before judging the peer.
    const std::uint64_t id = c.id;
    flush_conn(s, c);
    if (s.conns.find(id) == s.conns.end()) {  // the write failed
      s.arena.recycle(std::move(frame.buf));
      return false;
    }
    if (c.out_len - c.out_off + frame.len > cfg_.max_write_buffer) {
      s.arena.recycle(std::move(frame.buf));
      ++stats_.conn_resets;
      destroy_conn(s, id);
      return false;
    }
  }
  const std::size_t pending = c.out_len - c.out_off;
  if (pending == 0) {
    // Common case (peer keeping up): adopt the worker's frame outright
    // instead of copying it into the write buffer.
    s.arena.recycle(std::move(c.out_buf));
    c.out_buf = std::move(frame.buf);
    c.out_off = 0;
    c.out_len = frame.len;
    return true;
  }
  if (c.out_len + frame.len > c.out_buf.size()) {
    // Compact the unwritten tail into a bigger arena slice.
    Bytes bigger = s.arena.take(pending + frame.len);
    std::memcpy(bigger.data(), c.out_buf.data() + c.out_off, pending);
    s.arena.recycle(std::move(c.out_buf));
    c.out_buf = std::move(bigger);
    c.out_off = 0;
    c.out_len = pending;
  }
  std::memcpy(c.out_buf.data() + c.out_len, frame.buf.data(), frame.len);
  c.out_len += frame.len;
  s.arena.recycle(std::move(frame.buf));
  return true;
}

void EventServerRuntime::drain_replies(Shard& s) {
  {
    std::lock_guard<std::mutex> lock(s.done_mu);
    s.draining.swap(s.done);
  }
  const auto served = static_cast<std::int64_t>(s.draining.size());
  for (ReplyCompletion& r : s.draining) {
    on_reply(s, r.conn_id, r.seq, std::move(r.frame));
  }
  s.draining.clear();
  // One write per connection for everything this drain emitted.  The
  // next records dispatch before the write so a worker can start on
  // them while the reactor is in the syscall.
  for (const std::uint64_t id : s.flush_list) {
    auto it = s.conns.find(id);
    if (it == s.conns.end()) continue;
    it->second.flush_queued = false;
    dispatch_ready(s, it->second);
    flush_conn(s, it->second);  // can destroy the connection
    it = s.conns.find(id);
    if (it != s.conns.end()) finish_conn_if_idle(s, it->second);
  }
  s.flush_list.clear();
  // Only now, after the records these replies freed room for were
  // dispatched (and counted), so stop() never sees a false zero.
  pending_jobs_.fetch_sub(served, std::memory_order_acq_rel);
}

void EventServerRuntime::on_reply(Shard& s, std::uint64_t conn_id,
                                  std::uint64_t seq, Chunk frame) {
  auto it = s.conns.find(conn_id);
  if (it == s.conns.end()) {
    // The connection died while this request was in a worker; the
    // reply has nowhere to go, but its buffer still goes home.
    s.arena.recycle(std::move(frame.buf));
    return;
  }
  Conn& c = it->second;
  c.ring[seq % pipeline_depth_].ready = true;
  c.ring[seq % pipeline_depth_].frame = std::move(frame);
  if (!c.flush_queued) {
    c.flush_queued = true;
    s.flush_list.push_back(conn_id);
  }
  // Emit every consecutively-complete reply, in seq order, into
  // out_buf; drain_replies writes it once the whole batch is in.  A gap
  // — an earlier request still executing — stops the sweep; its
  // completion will resume it.
  std::int64_t now = 0;  // lazily read once per emit sweep
  for (;;) {
    ReplySlot& head = c.ring[c.emit_seq % pipeline_depth_];
    if (!head.ready) break;
    Chunk f = std::move(head.frame);
    head.ready = false;
    head.frame = Chunk{};
    ++c.emit_seq;
    --c.inflight;
    if (f.len > 0) {
      if (f.recv_ns > 0) {
        // Recorded at ordered-ring emit: the frame is committed to the
        // wire order here, so emitted >= what any client has read —
        // the stress books assert exactly that inequality.
        if (now == 0) now = common::monotonic_ns();
        s.tcp_e2e_hist.record(now - f.recv_ns);
      }
      if (!append_out(s, c, std::move(f))) return;  // conn destroyed
    } else {
      // No reply for this request (undecodable header): the slot still
      // held its place so later replies could not jump the order.
      s.arena.recycle(std::move(f.buf));
    }
  }
}

// ------------------------------------------------------ uring backend ---

#if TEMPO_HAVE_URING

void EventServerRuntime::setup_shard_uring(Shard& s) {
  net::Uring* ring = s.reactor.uring();
  // The ring only feeds TCP receives: without TCP there is nothing for
  // it to hold, and no arena slices are pinned for it.
  if (ring == nullptr || !cfg_.enable_tcp) return;
  const unsigned entries = std::bit_ceil(
      static_cast<unsigned>(cfg_.uring_buffers < 8 ? 8 : cfg_.uring_buffers));
  // No provided buffers: conns read through the uring reactor's fd
  // polls instead (s.uring stays null, so adopt_conn asks for reads).
  if (!ring->setup_buf_ring(entries)) return;
  auto u = std::make_unique<ShardUring>();
  u->bufs.resize(entries);
  for (unsigned b = 0; b < entries; ++b) {
    // One arena slice per ring slot, pinned while the kernel may write
    // into it.
    Bytes buf = s.arena.take(net::kMaxDatagramBytes);
    ring->buf_ring_add(static_cast<unsigned short>(b), buf.data(),
                       static_cast<unsigned>(buf.size()));
    s.arena.pin(buf.size());
    u->bufs[b] = std::move(buf);
  }
  ring->buf_ring_commit();
  s.uring = std::move(u);
  Shard* sp = &s;
  s.reactor.set_cqe_handler(
      [this, sp](std::uint64_t ud, std::int32_t res, std::uint32_t fl) {
        on_uring_cqe(*sp, ud, res, fl);
      });
  // The per-poll batch point: publish every buf_ring_add staged while
  // the CQEs were handled in one release-store; the SQEs ride
  // poll_once's single submit.
  s.reactor.set_cqe_drain_hook([ring] { ring->buf_ring_commit(); });
}

void EventServerRuntime::on_uring_cqe(Shard& s, std::uint64_t ud,
                                      std::int32_t res, std::uint32_t flags) {
  if (!s.uring) return;
  switch (net::uring_tag(ud)) {
    case kTagTcpRecv:
      on_tcp_recv_cqe(s, net::uring_payload(ud), res, flags);
      break;
    case kTagTcpCancel: {
      // A backpressure cancel finished: reconcile the conn's read state
      // (re-arms immediately if dispatch already caught up).
      auto it = s.conns.find(net::uring_payload(ud));
      if (it != s.conns.end()) {
        it->second.urecv_cancel = false;
        uring_sync_conn_recv(s, it->second);
      }
      break;
    }
    default:
      break;
  }
}

void EventServerRuntime::on_tcp_recv_cqe(Shard& s, std::uint64_t conn_id,
                                         std::int32_t res,
                                         std::uint32_t flags) {
  ShardUring& u = *s.uring;
  net::Uring* ring = s.reactor.uring();
  const std::uint64_t ud = net::uring_user_data(kTagTcpRecv, conn_id);
  if ((flags & IORING_CQE_F_MORE) == 0) u.armed_recvs.erase(ud);
  auto it = s.conns.find(conn_id);
  Conn* c = it == s.conns.end() ? nullptr : &it->second;
  if (c && (flags & IORING_CQE_F_MORE) == 0) c->urecv_armed = false;
  if (res == 0 && c) c->peer_eof = true;
  if ((flags & IORING_CQE_F_BUFFER) != 0) {
    const unsigned bid = flags >> IORING_CQE_BUFFER_SHIFT;
    if (bid < u.bufs.size()) {
      Bytes& slice = u.bufs[bid];
      bool ok = true;
      if (c && res > 0) {
        // parse_records copies into the conn's record buffer, so the
        // slice goes straight back on the ring — a TCP completion never
        // takes a buffer off the ring for good.
        ok = parse_records(
            s, *c, ByteSpan(slice.data(), static_cast<std::size_t>(res)));
      }
      ring->buf_ring_add(static_cast<unsigned short>(bid), slice.data(),
                         static_cast<unsigned>(slice.size()));
      if (c && !ok) {
        ++stats_.conn_resets;
        destroy_conn(s, conn_id);
        return;
      }
    }
  } else if (c && res < 0 && res != -ENOBUFS && res != -ECANCELED) {
    c->peer_eof = true;  // hard socket error
  }
  // -ENOBUFS (ring momentarily dry) falls through: the terminal
  // accounting above disarmed the op and the reconcile below re-arms
  // it; buffers return as dispatch drains.
  auto again = s.conns.find(conn_id);
  if (again == s.conns.end()) return;
  dispatch_ready(s, again->second);
  auto fin = s.conns.find(conn_id);
  if (fin != s.conns.end()) finish_conn_if_idle(s, fin->second);
}

void EventServerRuntime::uring_sync_conn_recv(Shard& s, Conn& c) {
  if (!s.uring) return;
  if (c.urecv_cancel) return;  // reconcile again when the cancel lands
  net::Uring* ring = s.reactor.uring();
  const bool want =
      (c.interest & net::kEventRead) != 0 && !c.peer_eof && !s.intake_closed;
  const std::uint64_t ud = net::uring_user_data(kTagTcpRecv, c.id);
  if (want && !c.urecv_armed) {
    if (ring->prep_recv_multishot(c.sock->fd(), ud)) {
      c.urecv_armed = true;
      s.uring->armed_recvs.insert(ud);
    }
  } else if (!want && c.urecv_armed) {
    if (ring->prep_cancel(ud, net::uring_user_data(kTagTcpCancel, c.id))) {
      c.urecv_cancel = true;
    }
  }
}

void EventServerRuntime::uring_teardown(Shard& s) {
  if (!s.uring) return;
  ShardUring& u = *s.uring;
  net::Uring* ring = s.reactor.uring();
  // Cancel every armed multishot receive (the conns are already gone;
  // an op holds a file ref past its fd's close).
  for (const std::uint64_t ud : u.armed_recvs) {
    ring->prep_cancel(ud, net::uring_user_data(net::kUringTagIgnore, 0));
  }
  // Bounded drain: a CQE is the kernel's promise it no longer
  // references the op's memory, so every in-flight SQE must complete
  // before its buffers are touched.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
  while (!u.armed_recvs.empty() &&
         std::chrono::steady_clock::now() < deadline) {
    s.reactor.poll_once(10);
  }
  if (u.armed_recvs.empty()) {
    for (auto& b : u.bufs) {
      if (b.empty()) continue;
      s.arena.unpin(b.size());
      s.arena.recycle(std::move(b));
    }
  } else {
    // Deadline hit with ops still in flight: the kernel may yet write
    // into these buffers.  NEVER recycle memory under kernel ownership —
    // park it for the life of the process instead (reachable, so leak
    // checkers stay quiet; the ring fd's close will quiesce the ops).
    static std::mutex sink_mu;
    static std::vector<Bytes>* sink = new std::vector<Bytes>();
    std::lock_guard<std::mutex> lock(sink_mu);
    for (auto& b : u.bufs) {
      if (b.empty()) continue;
      s.arena.unpin(b.size());
      sink->push_back(std::move(b));
    }
  }
  u.bufs.clear();
  s.uring.reset();
}

#else  // !TEMPO_HAVE_URING

void EventServerRuntime::setup_shard_uring(Shard&) {}
void EventServerRuntime::on_uring_cqe(Shard&, std::uint64_t, std::int32_t,
                                      std::uint32_t) {}
void EventServerRuntime::on_tcp_recv_cqe(Shard&, std::uint64_t, std::int32_t,
                                         std::uint32_t) {}
void EventServerRuntime::uring_sync_conn_recv(Shard&, Conn&) {}
void EventServerRuntime::uring_teardown(Shard&) {}

#endif  // TEMPO_HAVE_URING

// ------------------------------------------------------- worker side ---

void EventServerRuntime::wake_stealer(std::size_t except) {
  const std::size_t nshards = shards_.size();
  if (nshards < 2) return;
  // Ring a parked worker of some other shard; busy siblings will find
  // the backlog on their own next sweep, so they are never rung.
  std::size_t v = steal_wake_rr_.fetch_add(1, std::memory_order_relaxed) %
                  nshards;
  for (std::size_t k = 0; k < nshards; ++k, v = (v + 1) % nshards) {
    if (v == except) continue;
    Shard& t = *shards_[v];
    Worker* w = nullptr;
    {
      std::lock_guard<std::mutex> lock(t.q_mu);
      if (t.parked.empty()) continue;
      w = t.parked.back();
      t.parked.pop_back();
    }
    w->wait.ring();
    return;
  }
}

bool EventServerRuntime::push_job(std::size_t origin, TcpRequestJob& job) {
  Shard& t = *shards_[origin];
  std::size_t depth;
  Worker* idle = nullptr;
  {
    std::lock_guard<std::mutex> lock(t.q_mu);
    if (t.queue.size() >= cfg_.queue_capacity) return false;
    t.queue.push_back(std::move(job));
    depth = t.queue.size();
    if (!t.parked.empty()) {
      idle = t.parked.back();
      t.parked.pop_back();
    }
  }
  pending_jobs_.fetch_add(1, std::memory_order_acq_rel);
  if (idle != nullptr) idle->wait.ring();
  // A backlog behind this shard's own workers (or a queue on a shard
  // that has none) is exactly what stealing exists for — wake a
  // sibling now instead of letting it find the work on its idle tick.
  if (depth > 1 || t.home_workers == 0) wake_stealer(t.index);
  return true;
}

bool EventServerRuntime::try_pop(std::size_t shard_idx, TcpRequestJob& out) {
  Shard& s = *shards_[shard_idx];
  std::lock_guard<std::mutex> lock(s.q_mu);
  if (s.queue.empty()) return false;
  out = std::move(s.queue.front());
  s.queue.pop_front();
  return true;
}

bool EventServerRuntime::pop_job(std::size_t home, TcpRequestJob& out,
                                 bool tick_wakeup) {
  if (try_pop(home, out)) return true;
  // Home queue dry: sweep the siblings so capacity stranded by one hot
  // connection (or a shard without workers) still gets used.
  const std::size_t nshards = shards_.size();
  for (std::size_t k = 1; k < nshards; ++k) {
    if (try_pop((home + k) % nshards, out)) {
      ++stats_.work_steals;
      if (tick_wakeup) ++stats_.tick_steals;
      return true;
    }
  }
  return false;
}

bool EventServerRuntime::park(Shard& h, Worker& w, bool* stopping) {
  std::lock_guard<std::mutex> lock(h.q_mu);
  if (!h.queue.empty()) return false;
  // Checked under the queue lock: stop() rings every worker after
  // setting the flag, so a worker that parks here sees the ring.
  if (workers_stop_.load(std::memory_order_acquire)) {
    *stopping = true;
    return false;
  }
  h.parked.push_back(&w);
  return true;
}

void EventServerRuntime::unpark(Shard& h, Worker& w) {
  // Still listed unless a push (or wake_stealer) popped it to ring it.
  std::lock_guard<std::mutex> lock(h.q_mu);
  auto it = std::find(h.parked.begin(), h.parked.end(), &w);
  if (it != h.parked.end()) {
    *it = h.parked.back();
    h.parked.pop_back();
  }
}

void EventServerRuntime::worker_loop(std::size_t home, Worker& w) {
  if (cfg_.pin_shards) pin_thread_to_cpu(home);
  Shard& h = *shards_[home];
  // The shard whose socket (and arena, and histograms) this worker's
  // datagrams belong to: its home, or shard 0 when UDP is not sharded.
  Shard* us = h.udp ? &h : (shards_[0]->udp ? shards_[0].get() : nullptr);
  // Small stable id for trace attribution (which thread served the
  // sampled request), distinct from `home` under stealing.
  const std::uint16_t worker_id = static_cast<std::uint16_t>(
      worker_seq_.fetch_add(1, std::memory_order_relaxed));
  // The worker's own receive batch: arena slices that recvmmsg fills
  // and the handlers decode in place, reused for the worker's lifetime
  // — nothing on the datagram path allocates.  It starts small and
  // doubles (up to udp_batch) each time a recvmmsg fills it, so a
  // worker only holds the 64 KiB slices its traffic actually needs.
  const std::size_t max_batch =
      static_cast<std::size_t>(cfg_.udp_batch < 1 ? 1 : cfg_.udp_batch);
  std::vector<net::Datagram> batch;
  std::vector<UdpReply> replies;
  const auto grow_batch = [&](std::size_t want) {
    while (batch.size() < std::min(want, max_batch)) {
      batch.push_back(net::Datagram{});
      batch.back().payload = us->arena.take(net::kMaxDatagramBytes);
    }
    replies.reserve(batch.size());
  };
  if (us != nullptr) grow_batch(4);
  // Stream-reply encode scratch, taken lazily on the first TCP job and
  // held for the worker's lifetime (see serve_tcp_request).
  Bytes stream_scratch;
  // Stealing needs siblings; the tick is its safety net.
  const int tick = shards_.size() < 2        ? -1
                   : cfg_.steal_tick_ms < 1 ? 50
                                            : cfg_.steal_tick_ms;
  // Set when the last wait expired with nothing fired: a steal found
  // right after it means the periodic tick, not a wakeup, rescued the
  // job (stats().tick_steals — meant to stay at zero).
  bool tick_wakeup = false;
  // Try the socket on the first pass; afterwards only when the wait set
  // reported it readable or the last batch came back full.
  bool udp_ready = us != nullptr;
  for (;;) {
    TcpRequestJob job;
    if (pop_job(home, job, tick_wakeup)) {
      tick_wakeup = false;
      serve_tcp_request(job, stream_scratch, h.arena, worker_id);
      continue;
    }
    tick_wakeup = false;
    // The exit path below drains the socket under stop()'s deadline.
    if (workers_stop_.load(std::memory_order_acquire)) break;
    if (udp_ready) {
      // While a sibling watching the same socket is parked, take one
      // datagram: the kernel wakes that sibling for the next one, so
      // datagrams that arrive together are served in parallel rather
      // than one after another in this worker's batch.  Batches form
      // only when every worker is busy — that is, behind a backlog.
      const bool siblings_idle =
          us->udp_waiters.load(std::memory_order_relaxed) > 0;
      const int max = siblings_idle ? 1 : static_cast<int>(batch.size());
      const int n = serve_udp_batch(*us, batch, max, replies, worker_id);
      // A full batch: more is likely waiting, and a bigger batch would
      // have taken it in the same syscall.
      udp_ready = !siblings_idle && n == max;
      if (udp_ready) grow_batch(2 * batch.size());
      if (n > 0) continue;
    }
    bool stopping = false;
    if (!park(h, w, &stopping)) {
      if (stopping) break;
      continue;
    }
    if (us != nullptr) us->udp_waiters.fetch_add(1, std::memory_order_relaxed);
    const unsigned fired = w.wait.wait(tick);
    if (us != nullptr) us->udp_waiters.fetch_sub(1, std::memory_order_relaxed);
    unpark(h, w);
    udp_ready = (fired & net::WaitSet::kReadable) != 0;
    tick_wakeup = fired == 0;
  }
  // stop(): serve what the socket already holds, until the deadline.
  if (us != nullptr) {
    while (std::chrono::steady_clock::now() < drain_deadline_ &&
           serve_udp_batch(*us, batch, static_cast<int>(batch.size()),
                           replies, worker_id) > 0) {
    }
    for (auto& d : batch) us->arena.recycle(std::move(d.payload));
  }
  h.arena.recycle(std::move(stream_scratch));
}

int EventServerRuntime::serve_udp_batch(Shard& us,
                                        std::vector<net::Datagram>& batch,
                                        int max, std::vector<UdpReply>& replies,
                                        std::uint16_t worker_id) {
  const int n = us.udp->recv_many(batch, max);
  if (n <= 0) return 0;
  ++stats_.udp_batches;
  stats_.udp_datagrams += n;
  // One clock read per recvmmsg, shared by every datagram of the batch.
  const std::int64_t recv_ns = metrics_on_ ? common::monotonic_ns() : 0;
  for (int i = 0; i < n; ++i) {
    const net::Datagram& d = batch[static_cast<std::size_t>(i)];
    // Zero-copy dispatch: arguments decode in place from the worker's
    // own receive slice and the reply encodes straight into an arena
    // slice — no scratch memset/memcpy on either side of the hot path.
    // For UDP the "queue" wait is the time this datagram spent behind
    // the earlier ones of its own batch.
    const std::int64_t pop_ns = metrics_on_ ? common::monotonic_ns() : 0;
    const std::int64_t queue_wait = metrics_on_ ? pop_ns - recv_ns : 0;
    if (metrics_on_) us.queue_hist.record(queue_wait);
    bool traced = false;
    if (tracer_ && tracer_->should_sample()) {
      const std::uint32_t xid = d.len >= 4 ? load_be32(d.payload.data()) : 0;
      tracer_->begin(xid, static_cast<std::uint16_t>(us.index), worker_id,
                     queue_wait);
      traced = true;
    }
    // Clamp at the UDP payload ceiling: letting a reply encode past what
    // a datagram can physically carry would trade an immediate
    // GARBAGE_ARGS error reply for a silent EMSGSIZE drop and a client
    // timeout.
    const std::size_t cap =
        std::min(reply_capacity(d.len), net::kMaxUdpPayloadBytes);
    Bytes out = us.arena.take(cap);
    const std::size_t len =
        registry_.handle_request(ByteSpan(d.payload.data(), d.len),
                                 MutableByteSpan(out.data(), cap));
    if (metrics_on_) us.handle_hist.record(common::monotonic_ns() - pop_ns);
    if (len == 0) {
      us.arena.recycle(std::move(out));
    } else {
      replies.push_back(UdpReply{d.src, std::move(out), len, recv_ns});
    }
    if (traced) {
      // The sendmmsg below is batched; this flush stage covers handing
      // the reply to the accumulator.
      common::trace_mark(common::TraceStage::kFlush);
      common::trace_end();
    }
  }
  flush_udp_replies(us, replies);
  return n;
}

void EventServerRuntime::flush_udp_replies(Shard& us,
                                           std::vector<UdpReply>& replies) {
  if (replies.empty()) return;
  // Reused per worker thread: the flush path, like the receive path,
  // must not allocate in steady state.
  thread_local std::vector<net::OutDatagram> msgs;
  const int total = static_cast<int>(replies.size());
  msgs.resize(replies.size());
  for (std::size_t i = 0; i < replies.size(); ++i) {
    msgs[i].dst = replies[i].dst;
    msgs[i].payload = ByteSpan(replies[i].buf.data(), replies[i].len);
  }
  ++stats_.udp_reply_batches;
  const int sent = us.udp->send_many(msgs.data(), total);
  if (sent > 0 && metrics_on_) {
    // One clock read per flush covers the whole sent prefix; e2e is
    // recorded only for replies that actually left (the stress books
    // equate histogram totals with successful sends).
    const std::int64_t now = common::monotonic_ns();
    for (int i = 0; i < sent; ++i) {
      const auto& r = replies[static_cast<std::size_t>(i)];
      if (r.recv_ns > 0) us.udp_e2e_hist.record(now - r.recv_ns);
    }
  }
  if (sent < total) {
    // The kernel refused the tail (EWOULDBLOCK on the non-blocking
    // socket, ENOBUFS, ...).  Wait briefly for send-buffer space, then
    // retry each reply once instead of dropping silently; what is still
    // refused is counted.
    stats_.reply_send_retries += total - sent;
    (void)us.udp->wait_writable(kReplyRetryWaitMs);
    for (int i = sent; i < total; ++i) {
      const auto& r = replies[static_cast<std::size_t>(i)];
      if (!us.udp->send_to(r.dst, ByteSpan(r.buf.data(), r.len)).is_ok()) {
        ++stats_.reply_send_failures;
      } else if (r.recv_ns > 0) {
        // recv_ns > 0 implies metrics were on when it was stamped.
        us.udp_e2e_hist.record(common::monotonic_ns() - r.recv_ns);
      }
    }
  }
  for (auto& r : replies) us.arena.recycle(std::move(r.buf));
  replies.clear();
}

void EventServerRuntime::serve_tcp_request(TcpRequestJob& job, Bytes& scratch,
                                           common::BufferArena& scratch_arena,
                                           std::uint16_t worker_id) {
  // The record is a complete call message in one contiguous arena
  // slice, so the same zero-copy span path as UDP serves it — arguments
  // decode in place (residual plans can XDR_INLINE them, unlike an
  // xdrrec stream) and the reply encodes directly after the 4-byte
  // record mark in the worker's persistent scratch.  TCP replies are
  // not bounded by the request (a read-style proc turns a 100-byte call
  // into a big blob), so the SCRATCH provisions kMaxStreamReplyBytes
  // like every other stream-path adapter — once per worker, not per
  // request — and additionally scales with the record so a non-default
  // max_record_bytes config keeps its echo-style replies too.  Only the
  // framed bytes travel onward, in a frame sized to the reply: a deep
  // pipeline keeps many replies in flight, and they must circulate as
  // small arena slices, not per-request 1 MB provisions.
  Shard& origin = *shards_[job.shard];
  const std::int64_t pop_ns = metrics_on_ ? common::monotonic_ns() : 0;
  const std::int64_t queue_wait =
      (metrics_on_ && job.record.recv_ns > 0) ? pop_ns - job.record.recv_ns
                                              : 0;
  if (metrics_on_ && job.record.recv_ns > 0) {
    origin.queue_hist.record(queue_wait);
  }
  bool traced = false;
  if (tracer_ && tracer_->should_sample()) {
    const std::uint32_t xid =
        job.record.len >= 4 ? load_be32(job.record.buf.data()) : 0;
    tracer_->begin(xid, static_cast<std::uint16_t>(job.shard), worker_id,
                   queue_wait);
    traced = true;
  }
  const std::size_t cap =
      std::max(kMaxStreamReplyBytes, reply_capacity(job.record.len));
  if (scratch.size() < 4 + cap) {
    scratch_arena.recycle(std::move(scratch));
    scratch = scratch_arena.take(4 + cap);
  }
  const std::size_t len = registry_.handle_request(
      ByteSpan(job.record.buf.data(), job.record.len),
      MutableByteSpan(scratch.data() + 4, cap));
  origin.arena.recycle(std::move(job.record.buf));
  if (metrics_on_) origin.handle_hist.record(common::monotonic_ns() - pop_ns);
  Chunk frame;
  if (len > 0) {
    ++stats_.tcp_calls;
    store_be32(scratch.data(),
               xdr::XdrRec::kLastFragFlag | static_cast<std::uint32_t>(len));
    frame.len = 4 + len;
    frame.buf = origin.arena.take(frame.len);
    std::memcpy(frame.buf.data(), scratch.data(), frame.len);
    // Carry the request's receive stamp to the emit point: tcp_e2e is
    // recorded by on_reply when the frame enters the ordered ring.
    frame.recv_ns = job.record.recv_ns;
  }
  // Hand the reply (or the bare slot completion) back to the
  // connection's owning shard, whose reactor thread owns all its state.
  // Only the completion that finds the list empty posts a drain: the
  // ones that land before the reactor gets to it ride the same drain.
  // pending_jobs_ is decremented by drain_replies so stop()'s drain covers
  // the write handoff too.
  bool first = false;
  {
    std::lock_guard<std::mutex> lock(origin.done_mu);
    first = origin.done.empty();
    origin.done.push_back(
        ReplyCompletion{job.conn_id, job.seq, std::move(frame)});
  }
  if (first) {
    Shard* shard = &origin;
    shard->reactor.post([this, shard] { drain_replies(*shard); });
  }
  if (traced) {
    // Flush covers the frame copy + handoff to the owning reactor; the
    // ordered-ring emit itself belongs to the reactor thread.
    common::trace_mark(common::TraceStage::kFlush);
    common::trace_end();
  }
}

}  // namespace tempo::rpc

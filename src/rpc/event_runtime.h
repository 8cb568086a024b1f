// EventServerRuntime — the reactor-based successor of ServerRuntime.
//
// ServerRuntime (svc.h) burns one blocking thread per listener and
// parks a whole worker on each TCP connection, so a peer that trickles
// bytes pins a worker for its connection's lifetime.  This runtime
// splits the two transports by what they need:
//
//   * UDP never touches a reactor.  Each worker parks in its own
//     net::WaitSet (an epoll set holding its shard's UDP socket,
//     registered EPOLLEXCLUSIVE so one datagram wakes one worker, plus
//     a doorbell for the shard's TCP job queue).  The worker that wakes
//     receives with one recvmmsg (a single datagram while a sibling on
//     the same socket is parked, so datagrams arriving together spread
//     over the idle workers; everything pending, up to udp_batch, once
//     all are busy), serves each datagram in place from its own receive
//     batch, and sends the replies with one sendmmsg — receive, serve
//     and answer on one thread, the shape of the classic svc_run loop,
//     with no cross-thread handoff.  The kernel socket buffer is the
//     UDP backlog; what the kernel drops there is counted in
//     stats().overload_drops;
//   * TCP lives on N reactor shards (cfg.reactors), each with its OWN
//     event loop thread, its own partition of the accepted connections,
//     its own common::BufferArena feeding every request/reply buffer,
//     AND its own worker pool (cfg.workers_per_shard) with its own
//     bounded job queue — the per-request path crosses no global lock.
//     Idle workers steal TCP jobs from sibling shards' queues so a hot
//     connection cannot strand capacity (stats().work_steals counts);
//   * every shard that has workers binds its own SO_REUSEPORT UDP
//     socket (the kernel disperses inbound datagrams across the group
//     by flow hash); a shard without workers binds none, so no datagram
//     can land where nobody reads;
//   * the TCP listener lives on shard 0; an accepted connection is
//     handed round-robin to its owning shard by posting the socket to
//     that shard's reactor, which wraps and owns it from then on.  Each
//     connection carries its own record-reassembly buffer and
//     pending-write buffer on its owning shard — a slow peer therefore
//     delays nobody but itself;
//   * TCP connections are PIPELINED: up to cfg.tcp_pipeline_depth
//     requests of one connection execute concurrently across the
//     shard's workers, while a per-connection ordered reply ring
//     (slot reserved at dispatch, flushed strictly in sequence)
//     preserves wire order exactly as if the calls had run one at a
//     time;
//   * workers dispatch through SvcRegistry::handle_request — decoding
//     each request IN PLACE from the receive buffer and encoding the
//     reply into an arena buffer, no scratch memset/memcpy — and append
//     framed TCP replies to the owning shard's completion list (the
//     worker that finds it empty posts one drain to the shard's
//     reactor).  The drain emits every reply it can into the write
//     buffers, then writes each connection it touched ONCE, without
//     ever blocking (leftover bytes wait for writability): replies that
//     complete together leave in one send.
//
// Because a TCP request reaches the worker as one contiguous record,
// argument decode goes through XdrMem — XDR_INLINE succeeds and the
// residual-plan fast path engages on TCP too, which the xdrrec stream
// of the threaded runtime could never offer.
//
// Ownership (see src/net/README.md for the full model): each shard's
// reactor thread exclusively owns that shard's connection state;
// workers only ever own a request's buffer plus the (shard, conn_id,
// seq) triple naming its origin; handoff back is through that shard's
// completion list, drained on its reactor thread.  A worker owns its
// UDP receive batch and reply accumulator outright.  Buffers recycle
// into the origin shard's arena from whichever thread finishes with
// them (the arena is the one cross-thread-safe piece, one mutex per
// size class).  Stats are process-wide atomics every shard adds into,
// so stats() aggregates across shards by construction.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/trace.h"
#include "net/reactor.h"
#include "net/tcp.h"
#include "net/udp.h"
#include "net/waitset.h"
#include "rpc/svc.h"

namespace tempo::rpc {

// Reactor backend every shard uses.  kAuto prefers io_uring when the
// running kernel supports everything the backend needs (multishot
// recv + provided buffer rings, probed once at startup) and otherwise
// falls back to epoll — kernels without io_uring, seccomp-filtered
// containers, and the TEMPO_URING=0 kill switch all land on the epoll
// path with no configuration change.
enum class EventBackend { kAuto, kEpoll, kPoll, kUring };

struct EventServerRuntimeConfig {
  // Total workers across all shards, split as evenly as possible
  // (remainder to the low shards; with workers < reactors the high
  // shards get none, bind no UDP socket, and their TCP queues drain
  // through stealing siblings).  Ignored when workers_per_shard is set.
  int workers = 4;
  // Exact worker count PER SHARD; 0 derives it from `workers`.
  int workers_per_shard = 0;
  // Reactor shards.  Each shard runs its own event loop thread with its
  // own slice of the TCP connections, its own worker pool + TCP job
  // queue, its own buffer arena and (when it has workers) its own
  // SO_REUSEPORT UDP socket; 1 keeps a single loop.
  int reactors = 1;
  // Requests of ONE TCP connection allowed in flight concurrently; the
  // per-connection reply ring keeps wire order.  1 restores strictly
  // serial per-connection execution.
  int tcp_pipeline_depth = 8;
  std::uint16_t udp_port = 0;  // 0 = ephemeral
  std::uint16_t tcp_port = 0;
  bool enable_udp = true;
  bool enable_tcp = true;
  // Capacity of EACH shard's TCP job queue (UDP is served where it is
  // received; its backlog is the socket's receive buffer).
  std::size_t queue_capacity = 1024;
  // Datagrams a worker pulls per recvmmsg syscall (and so at most one
  // sendmmsg's worth of replies).
  int udp_batch = 32;
  // Per-connection caps; a peer exceeding either is reset.
  // max_write_buffer bounds the reply bytes the socket REFUSED: a frame
  // that would cross it first flushes what is buffered, and only what
  // is still unwritten after that counts against the cap.
  std::size_t max_record_bytes = 1u << 20;
  std::size_t max_write_buffer = 4u << 20;
  // Backpressure: once this many complete records queue on one
  // connection, the reactor stops reading it (TCP flow control pushes
  // back on the peer) until dispatch catches up.
  std::size_t max_pipelined_records = 64;
  // Reactor backend (see EventBackend).  kUring is a hard request: if
  // the kernel probe fails the shard reactors fall back to epoll and
  // backend() reports what actually runs.
  EventBackend backend = EventBackend::kAuto;
  // uring only: IORING_SETUP_SQPOLL — a kernel thread consumes the SQ,
  // so a steady-state burst submits with ZERO syscalls (the enter only
  // waits for completions).  Costs one spinning kernel thread per
  // shard; off by default.
  bool sqpoll = false;
  // uring only: provided-buffer ring slots per shard (rounded to a
  // power of two) feeding the TCP multishot receives.  Each slot holds
  // one 64 KiB arena slice; no ring is registered with TCP disabled.
  int uring_buffers = 64;
  // Pin each shard's reactor thread and its home workers to CPU
  // (shard_index % hardware_concurrency).  Keeps a request's cache
  // lines on one core end to end; off by default because it backfires
  // on oversubscribed hosts.
  bool pin_shards = false;
  // Idle workers re-sweep sibling queues after this many ms even
  // without a wakeup.  Stealing is wakeup-driven (push paths ring a
  // parked sibling); the tick is only the safety net, and
  // stats().tick_steals counts how often it actually rescued a job.
  int steal_tick_ms = 50;
  // stop() waits this long for queued TCP work, and then for the
  // datagrams already in the UDP sockets, before tearing down the pool.
  int drain_timeout_ms = 2000;
  // Request-stage tracing: trace 1 in trace_sample requests (0 = off;
  // falls back to the TEMPO_TRACE_SAMPLE env var when 0) into
  // per-shard rings of trace_ring records each.  See "Observability"
  // in src/rpc/README.md for the stage taxonomy.
  std::uint32_t trace_sample = 0;
  std::size_t trace_ring = 256;
};

struct EventServerRuntimeStats {
  std::atomic<std::int64_t> udp_datagrams{0};
  std::atomic<std::int64_t> udp_batches{0};  // recv_many calls that got >0
  std::atomic<std::int64_t> udp_reply_batches{0};  // send_many flushes
  // Replies the kernel refused on first send (EWOULDBLOCK on the
  // non-blocking socket, ENOBUFS, ...), which the serving worker retries
  // once after waiting briefly for socket space — and the ones still
  // refused then, which are dropped.
  std::atomic<std::int64_t> reply_send_retries{0};
  std::atomic<std::int64_t> reply_send_failures{0};
  std::atomic<std::int64_t> tcp_connections{0};
  std::atomic<std::int64_t> tcp_calls{0};
  // Requests dropped unserved: datagrams the kernel dropped because a
  // UDP socket's receive buffer (the UDP backlog) was full, datagrams
  // stop() found unread past its drain deadline, and TCP jobs still
  // queued at that deadline.
  std::atomic<std::int64_t> overload_drops{0};
  std::atomic<std::int64_t> conn_resets{0};  // peers cut off at a cap
  // Times a connection flush left bytes buffered because the socket
  // stopped accepting (the peer is not reading fast enough).  Grows
  // while a reply sits in out_buf waiting for writability; a reset at
  // max_write_buffer is the cap this stall accounting leads up to.
  std::atomic<std::int64_t> write_stalls{0};
  // Write syscalls on TCP connections.  A reactor drain writes each
  // connection it touched once, so with pipelined clients this grows
  // slower than tcp_calls.
  std::atomic<std::int64_t> tcp_flushes{0};
  // Times a complete TCP record found its shard's job queue full: the
  // connection is parked on the reactor's stalled list and its records
  // are re-dispatched as the queue drains.
  std::atomic<std::int64_t> dispatch_stalls{0};
  // TCP jobs an idle worker popped from a SIBLING shard's queue.  Zero
  // when inbound load spreads evenly; growth means a hot connection (or
  // a shard without workers) is skewing work onto fewer shards.
  std::atomic<std::int64_t> work_steals{0};
  // Of those, steals found only by the periodic steal_tick_ms re-sweep
  // (the worker's wait timed out; nobody rang it).  Nonzero means a
  // push path failed to wake a stealer — the tick is meant to be a
  // safety net, not the delivery mechanism.
  std::atomic<std::int64_t> tick_steals{0};
};

class EventServerRuntime {
 public:
  explicit EventServerRuntime(SvcRegistry& registry,
                              EventServerRuntimeConfig cfg = {});
  ~EventServerRuntime();

  EventServerRuntime(const EventServerRuntime&) = delete;
  EventServerRuntime& operator=(const EventServerRuntime&) = delete;

  // Binds sockets, registers them with the per-shard reactors and
  // spawns the reactor threads + per-shard worker pools.  Call after
  // all register_proc calls.
  Status start();
  // Stops TCP intake on every shard, drains queued requests and the
  // datagrams already in the UDP sockets (bounded by drain_timeout_ms;
  // what is left is counted in overload_drops), then joins everything.
  // Idempotent.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  net::Addr udp_addr() const;
  net::Addr tcp_addr() const;
  // Folds the kernel's UDP receive-buffer drops into overload_drops
  // first, so the counters are current as of the call.
  const EventServerRuntimeStats& stats() const {
    fold_kernel_drops();
    return stats_;
  }
  // Aggregate of every shard arena (valid between start() and stop()).
  // `misses` is the runtimes' `arena_misses`: takes the pool could not
  // serve and had to send to the allocator.
  common::BufferArenaStats arena_stats() const;
  const char* backend() const;
  // True when cfg.backend = kUring (or kAuto) can actually select the
  // io_uring backend on this kernel.
  static bool uring_supported() { return net::Reactor::uring_supported(); }
  // Total io_uring_enter syscalls across shards (0 on other backends;
  // valid between start() and stop()) — the bench divides by calls to
  // report syscalls per request.
  std::int64_t uring_enter_calls() const;
  // Shards actually running (valid between start() and stop()).
  int reactor_count() const { return static_cast<int>(shards_.size()); }
  // Worker threads actually running across all shards.
  int worker_count() const { return worker_count_; }
  // True when UDP is received on an SO_REUSEPORT group — one socket per
  // shard that has workers; false with a single receiving socket (one
  // shard with workers, or the fallback where the group cannot bind).
  bool udp_sharded() const { return udp_sharded_; }

  // Per-shard latency distributions merged across shards (valid
  // between start() and stop(), like arena_stats()): queue wait,
  // dispatch duration, and end-to-end per transport.  Recording is a
  // wait-free bucket increment per sample and is disabled wholesale
  // by TEMPO_METRICS=0.
  RuntimeLatencySnapshot latency_snapshot() const;
  // The whole process in one call: this runtime's counters and shard
  // histograms plus every other registered component (registry
  // dispatch stats, spec cache, services, arenas) via the global
  // metrics registry.
  common::MetricsSnapshot metrics_snapshot() const {
    return common::metrics().snapshot();
  }
  // Sampled stage traces (empty when trace_sample was 0).  The
  // tracer survives stop(), so post-run inspection works.
  std::vector<common::TraceRecord> trace_snapshot() const {
    return tracer_ ? tracer_->snapshot() : std::vector<common::TraceRecord>{};
  }
  const common::Tracer* tracer() const { return tracer_.get(); }

 private:
  // One complete record (or a reply frame): an arena buffer plus how
  // many of its bytes are valid.  Arena buffers keep their class size
  // for life — valid lengths ride alongside instead of resizing, so
  // recycling never zero-fills.
  struct Chunk {
    Bytes buf;
    std::size_t len = 0;
    // monotonic_ns when the record finished assembling (requests) or,
    // copied through to the reply frame, when its request arrived —
    // what the tcp_e2e histogram measures at emit.  0 = unstamped.
    std::int64_t recv_ns = 0;
  };

  // One slot of a connection's ordered reply ring: reserved when the
  // request dispatches (seq), filled by whichever worker finishes it,
  // emitted strictly in seq order.  len == 0 marks "no reply" (an
  // undecodable request) — the slot still occupies its place so later
  // replies cannot jump the order.
  struct ReplySlot {
    bool ready = false;
    Chunk frame;
  };

  // ---- connection state (owning shard's reactor thread only) ----------
  struct Conn {
    std::uint64_t id = 0;
    std::size_t shard = 0;  // owning shard index, fixed for life
    std::unique_ptr<net::TcpConn> sock;
    unsigned interest = net::kEventRead;
    // Record-marking reassembly (RFC 1057 §10): 4-byte fragment header,
    // then payload; top bit marks the record's last fragment.
    std::uint32_t frag_remaining = 0;
    bool frag_header_pending = true;
    bool last_frag = false;
    Bytes header_partial;       // < 4 buffered header bytes
    Chunk record;               // record being assembled (arena buffer)
    std::deque<Chunk> ready_records;  // complete, awaiting dispatch
    // Pipelined execution: seqs [emit_seq, next_seq) are in flight (at
    // most tcp_pipeline_depth), ring[seq % depth] is seq's reply slot.
    std::uint64_t next_seq = 0;   // assigned at dispatch
    std::uint64_t emit_seq = 0;   // next seq to append to out_buf
    std::size_t inflight = 0;
    std::vector<ReplySlot> ring;
    bool stalled = false;       // a ready record hit a full worker queue
    bool flush_queued = false;  // on the shard's flush_list this drain
    Bytes out_buf;              // framed replies not yet written
    std::size_t out_off = 0;    // [out_off, out_len) awaits the socket
    std::size_t out_len = 0;
    bool peer_eof = false;      // stop reading; flush, then close
    // uring backend only: read interest is a multishot IORING_OP_RECV
    // instead of a poll.  urecv_armed tracks the in-flight op,
    // urecv_cancel a pending ASYNC_CANCEL (backpressure pause); both
    // reconcile against `interest` in uring_sync_conn_recv.
    bool urecv_armed = false;
    bool urecv_cancel = false;
  };

  struct TcpRequestJob {
    std::size_t shard = 0;
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;  // this request's slot in the conn's ring
    Chunk record;
  };

  // A served TCP request on its way back to the owning shard: the reply
  // frame (len 0 = no reply) for ring slot `seq` of `conn_id`.
  struct ReplyCompletion {
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    Chunk frame;
  };

  // uring-backend state of one shard (defined in the .cpp; present only
  // on shards whose reactor actually runs the uring backend with TCP
  // enabled): the provided-buffer ring's arena slices and the armed
  // multishot receives.
  struct ShardUring;

  // One worker thread and the place it parks: its WaitSet watches the
  // UDP socket it serves and carries the doorbell a TCP push rings.
  struct Worker {
    net::WaitSet wait;
    std::thread thread;
  };

  // One reactor shard: an event loop thread plus everything it
  // exclusively owns, and its slice of the execution pipeline (worker
  // pool + bounded job queue + buffer arena).  Shards live in
  // unique_ptrs so Shard* captures in reactor callbacks stay stable.
  struct Shard {
    // Both out of line: ShardUring is incomplete here, and the inline
    // bodies would instantiate its destructor (unwind cleanup).
    Shard(std::size_t idx, net::ReactorBackend be, bool sqpoll);
    ~Shard();
    std::size_t index;
    net::Reactor reactor;
    std::unique_ptr<ShardUring> uring;  // null unless backend() == uring
    // Read by this shard's workers only (never by the reactor); null on
    // shards without workers, and on every shard but 0 when UDP is not
    // sharded.
    std::unique_ptr<net::UdpSocket> udp;
    // Workers blocked in a WaitSet that watches `udp` (counted from
    // before the wait until the woken worker runs again).
    std::atomic<int> udp_waiters{0};
    std::unordered_map<std::uint64_t, Conn> conns;
    // Workers append finished TCP requests here; the one that finds the
    // list empty posts a drain_replies to `reactor`, so a burst of
    // completions costs one post and one wakeup.
    std::mutex done_mu;
    std::vector<ReplyCompletion> done TEMPO_GUARDED_BY(done_mu);
    // Reactor thread only: the batch being drained (swapped with `done`,
    // so both vectors keep their capacity) and the connections it
    // touched, each flushed once at the end of the drain.
    std::vector<ReplyCompletion> draining;
    std::vector<std::uint64_t> flush_list;
    std::uint64_t next_conn_id = 1;  // ids are per-shard; (shard, id) is
                                     // the global connection name
    bool intake_closed = false;
    std::vector<std::uint64_t> stalled_conns;
    // Every request/reply buffer this shard hands out; recycled from
    // whichever thread finishes with a buffer (thread-safe).
    common::BufferArena arena;
    // Latency distributions for requests that ORIGINATED on this shard
    // (a stealing worker records into the origin shard's histograms,
    // so the per-shard attribution follows the traffic, not the
    // thread).  Wait-free to record from any worker.
    common::LatencyHistogram queue_hist;
    common::LatencyHistogram handle_hist;
    common::LatencyHistogram udp_e2e_hist;
    common::LatencyHistogram tcp_e2e_hist;
    // ---- shard-local execution pipeline (TCP jobs) ----
    std::mutex q_mu;
    std::deque<TcpRequestJob> queue TEMPO_GUARDED_BY(q_mu);
    // Home workers blocked in their WaitSet.  A push pops one and rings
    // its doorbell; nobody rings a worker that is not parked, so a busy
    // worker takes jobs with no syscall.
    std::vector<Worker*> parked TEMPO_GUARDED_BY(q_mu);
    // Workers homed on this shard's queue.  home_workers mirrors the
    // count and is written once in start() BEFORE any thread runs.
    std::vector<std::unique_ptr<Worker>> workers;
    int home_workers = 0;
    std::thread thread;
  };

  // One encoded-but-unsent UDP reply in a worker's accumulator: `buf`
  // is an arena buffer with `len` valid bytes.  A served recvmmsg batch
  // flushes through one UdpSocket::send_many.
  struct UdpReply {
    net::Addr dst;
    Bytes buf;
    std::size_t len = 0;
    std::int64_t recv_ns = 0;  // request's receive stamp, for udp_e2e
  };

  // ---- reactor-shard handlers (run on that shard's thread) ------------
  void shard_loop(Shard& s);
  void on_accept_ready();  // shard 0 only (owns the listener)
  // Wraps a handed-off fd into a Conn owned by shard `s`.
  void adopt_conn(Shard& s, int fd);
  void on_conn_event(Shard& s, std::uint64_t id, unsigned events);
  void read_conn(Shard& s, Conn& conn);
  bool parse_records(Shard& s, Conn& conn,
                     ByteSpan chunk);  // false = protocol violation
  void dispatch_ready(Shard& s, Conn& conn);
  void retry_stalled(Shard& s);    // re-dispatch conns parked on a full queue
  void flush_conn(Shard& s, Conn& conn);  // non-blocking write of out_buf
  void finish_conn_if_idle(Shard& s, Conn& conn);
  void destroy_conn(Shard& s, std::uint64_t id);
  void set_conn_interest(Shard& s, Conn& conn, unsigned interest);
  // Runs every completion on s.done through on_reply, then gives each
  // touched connection one dispatch_ready + flush_conn +
  // finish_conn_if_idle.
  void drain_replies(Shard& s);
  // A worker finished seq for conn_id: fill its ring slot, emit every
  // consecutively-complete reply into out_buf in order, and queue the
  // connection on s.flush_list (once per drain).  Writes nothing itself
  // unless the write-buffer cap forces a flush.
  void on_reply(Shard& s, std::uint64_t conn_id, std::uint64_t seq,
                Chunk frame);
  // Appends frame's valid bytes to c.out_buf (arena-backed, grown via
  // the shard arena).  A frame that would push the unwritten bytes past
  // max_write_buffer flushes first; false when the connection was
  // destroyed (still over the cap after that flush, or the flush failed).
  bool append_out(Shard& s, Conn& c, Chunk frame);
  void close_intake(Shard& s);     // stop reading new requests on `s`

  // ---- uring backend (owning shard's reactor thread only) -------------
  // Builds ShardUring: registers the provided-buffer ring, fills it
  // with pinned arena slices, installs the CQE handler + drain hook.
  // No-op unless the shard's reactor runs the uring backend and TCP is
  // enabled.
  void setup_shard_uring(Shard& s);
  void on_uring_cqe(Shard& s, std::uint64_t ud, std::int32_t res,
                    std::uint32_t flags);
  void on_tcp_recv_cqe(Shard& s, std::uint64_t conn_id, std::int32_t res,
                       std::uint32_t flags);
  // Reconciles a connection's desired read interest with the armed
  // multishot recv (arm / cancel / re-arm after cancel completes).
  void uring_sync_conn_recv(Shard& s, Conn& c);
  // End-of-shard-loop drain: cancel armed receives, wait for every
  // in-flight SQE's CQE (bounded), then unpin + recycle the ring's
  // arena slices.  A kernel-referenced buffer is never recycled.
  void uring_teardown(Shard& s);

  // ---- worker side ----------------------------------------------------
  // Rings one PARKED worker of a sibling shard so a backlog (or a queue
  // on a worker-less shard) gets stolen promptly instead of waiting for
  // the idle tick.
  void wake_stealer(std::size_t except);
  // Moves from `job` only on success so a failed push can be retried.
  bool push_job(std::size_t origin, TcpRequestJob& job);
  bool try_pop(std::size_t shard_idx, TcpRequestJob& out);
  // Home queue first, then (when stealing is possible) the siblings.
  // `tick_wakeup` attributes a steal to the idle tick.
  bool pop_job(std::size_t home, TcpRequestJob& out, bool tick_wakeup);
  // Parks `w` on its home queue unless a job is already waiting (false)
  // or stop() has begun (false, and *stopping set).
  bool park(Shard& h, Worker& w, bool* stopping);
  void unpark(Shard& h, Worker& w);
  void worker_loop(std::size_t home, Worker& w);
  // One recvmmsg of up to `max` datagrams on us.udp into `batch`, every
  // datagram served in place, the replies sent with one sendmmsg.
  // Returns the datagrams received.
  int serve_udp_batch(Shard& us, std::vector<net::Datagram>& batch, int max,
                      std::vector<UdpReply>& replies,
                      std::uint16_t worker_id);
  // One send_many; a refused tail is retried once after the socket
  // drains (what it still refuses counts as reply_send_failures).
  void flush_udp_replies(Shard& us, std::vector<UdpReply>& replies);
  // `scratch` is the worker's persistent stream-reply encode buffer
  // (grown through `scratch_arena`, the worker's home arena): the
  // encode needs kMaxStreamReplyBytes of headroom, but only the framed
  // bytes travel — in a right-sized arena frame — so deep pipelines
  // circulate small buffers, not 1 MB provisions.
  void serve_tcp_request(TcpRequestJob& job, Bytes& scratch,
                         common::BufferArena& scratch_arena,
                         std::uint16_t worker_id);
  // Adds each UDP socket's kernel drop count since the last fold to
  // stats_.overload_drops.
  void fold_kernel_drops() const;

  SvcRegistry& registry_;
  EventServerRuntimeConfig cfg_;
  // Mutable so the const stats() can fold kernel drops in.
  mutable EventServerRuntimeStats stats_;
  // Every UDP socket, with the kernel drop count already folded into
  // stats_.overload_drops.  stop() does the last fold and empties it
  // before the sockets close.
  mutable std::mutex drops_mu_;
  mutable std::vector<std::pair<const net::UdpSocket*, std::uint32_t>>
      drop_books_ TEMPO_GUARDED_BY(drops_mu_);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<net::TcpListener> tcp_;
  bool udp_sharded_ = false;
  int worker_count_ = 0;
  std::size_t pipeline_depth_ = 1;  // sanitized cfg.tcp_pipeline_depth
  // Round-robin accept counter (shard 0's thread only).
  std::size_t next_conn_shard_ = 0;

  std::atomic<bool> running_{false};
  std::atomic<bool> reactor_stop_{false};
  std::atomic<bool> workers_stop_{false};
  // Written by stop() before workers_stop_ is released: how long the
  // exiting workers keep serving datagrams already in their sockets.
  std::chrono::steady_clock::time_point drain_deadline_;
  // TCP jobs pushed and not yet answered (drain_replies decrements).
  std::atomic<std::int64_t> pending_jobs_{0};
  // Round-robin cursor for wake_stealer (any pushing thread).
  std::atomic<std::size_t> steal_wake_rr_{0};

  // Observability (tentpole).  metrics_on_ caches metrics_enabled() at
  // start() so the hot path never reads the environment; worker_seq_
  // hands each worker thread a small id for trace attribution.
  bool metrics_on_ = false;
  std::unique_ptr<common::Tracer> tracer_;
  std::atomic<int> worker_seq_{0};
  // Last member on purpose: the source callback reads shards_ and
  // stats_, so it must unregister before anything it touches dies.
  common::MetricsRegistry::SourceHandle metrics_source_;
};

}  // namespace tempo::rpc

// WaitSet — one thread's private place to block: a doorbell any thread
// may ring, plus (optionally) one watched fd.
//
// The event runtime's workers park here instead of on a condition
// variable, so a worker can sleep on "my job queue got work" and "my
// shard's UDP socket got a datagram" at once.  On Linux it is an epoll
// set holding an eventfd doorbell and the watched socket; the socket is
// registered EPOLLEXCLUSIVE, so when several workers' sets watch the
// same socket one datagram wakes one parked worker, not all of them.
// Elsewhere it is poll(2) over a pipe and the socket (every parked
// watcher wakes — correct, just noisier).
//
// Threading contract: watch() and wait() belong to the owning thread;
// ring() is the one thread-safe entry point.
#pragma once

namespace tempo::net {

class WaitSet {
 public:
  // Bits of wait()'s result; 0 means the timeout expired.
  static constexpr unsigned kRang = 1u;      // ring() was called
  static constexpr unsigned kReadable = 2u;  // the watched fd is readable

  WaitSet();
  ~WaitSet();

  WaitSet(const WaitSet&) = delete;
  WaitSet& operator=(const WaitSet&) = delete;

  bool ok() const { return bell_read_fd_ >= 0; }

  // Watches `fd` for readability from now on (one fd per set).  The
  // set does not own it; the caller keeps it open while watched.
  bool watch(int fd);

  // Thread-safe: makes the current wait() — or the next one, if the
  // owner is not blocked — return with kRang set.
  void ring();

  // Blocks up to timeout_ms (-1 = until rung or readable) and consumes
  // a pending ring.  Returns the kRang / kReadable bits that fired.
  unsigned wait(int timeout_ms);

 private:
  int epoll_fd_ = -1;  // Linux only
  // The eventfd on Linux (read == write fd), a pipe pair elsewhere.
  int bell_read_fd_ = -1;
  int bell_write_fd_ = -1;
  int watched_fd_ = -1;
};

}  // namespace tempo::net

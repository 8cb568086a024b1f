#include "net/waitset.h"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>

#include "net/transport.h"

#if defined(__linux__)
#include <sys/epoll.h>
#include <sys/eventfd.h>
#endif

namespace tempo::net {

namespace {
// epoll_event.data tags.
constexpr std::uint64_t kBellTag = 0;
constexpr std::uint64_t kWatchTag = 1;
}  // namespace

WaitSet::WaitSet() {
#if defined(__linux__)
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  const int efd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (epoll_fd_ < 0 || efd < 0) {
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (efd >= 0) ::close(efd);
    epoll_fd_ = -1;
    return;
  }
  // Edge-triggered: every ring() is a fresh edge, so the counter never
  // needs reading back — a wake costs the waiter no extra syscall.
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;
  ev.data.u64 = kBellTag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, efd, &ev) != 0) {
    ::close(epoll_fd_);
    ::close(efd);
    epoll_fd_ = -1;
    return;
  }
  bell_read_fd_ = bell_write_fd_ = efd;
#else
  int fds[2];
  if (::pipe(fds) != 0) return;
  if (!set_fd_nonblocking(fds[0], true) || !set_fd_nonblocking(fds[1], true)) {
    ::close(fds[0]);
    ::close(fds[1]);
    return;
  }
  bell_read_fd_ = fds[0];
  bell_write_fd_ = fds[1];
#endif
}

WaitSet::~WaitSet() {
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (bell_read_fd_ >= 0) ::close(bell_read_fd_);
  if (bell_write_fd_ >= 0 && bell_write_fd_ != bell_read_fd_) {
    ::close(bell_write_fd_);
  }
}

bool WaitSet::watch(int fd) {
  if (!ok() || fd < 0 || watched_fd_ >= 0) return false;
#if defined(__linux__)
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLEXCLUSIVE;
  ev.data.u64 = kWatchTag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) return false;
#endif
  watched_fd_ = fd;
  return true;
}

void WaitSet::ring() {
  ssize_t n;
  if (bell_write_fd_ == bell_read_fd_) {
    const std::uint64_t one = 1;  // eventfd counter increment
    do {
      n = ::write(bell_write_fd_, &one, sizeof(one));
    } while (n < 0 && errno == EINTR);
  } else {
    const char b = 1;
    do {
      n = ::write(bell_write_fd_, &b, 1);
    } while (n < 0 && errno == EINTR);
  }
}

unsigned WaitSet::wait(int timeout_ms) {
  unsigned fired = 0;
#if defined(__linux__)
  epoll_event evs[2];
  int n;
  do {
    n = ::epoll_wait(epoll_fd_, evs, 2, timeout_ms);
  } while (n < 0 && errno == EINTR);
  for (int i = 0; i < n; ++i) {
    fired |= evs[i].data.u64 == kBellTag ? kRang : kReadable;
  }
#else
  pollfd pfds[2] = {{bell_read_fd_, POLLIN, 0}, {watched_fd_, POLLIN, 0}};
  int n;
  do {
    n = ::poll(pfds, watched_fd_ >= 0 ? 2 : 1, timeout_ms);
  } while (n < 0 && errno == EINTR);
  if (n > 0) {
    if (pfds[0].revents != 0) {
      fired |= kRang;
      char buf[64];  // level-triggered: empty the pipe
      while (::read(bell_read_fd_, buf, sizeof(buf)) > 0) {
      }
    }
    if (watched_fd_ >= 0 && pfds[1].revents != 0) fired |= kReadable;
  }
#endif
  return fired;
}

}  // namespace tempo::net

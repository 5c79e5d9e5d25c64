// Shared blocking-socket plumbing for the serve layer's two wire surfaces:
// the query front-end (tcp_server.cpp) and the replication link
// (repl_link.cpp). Both speak the same outer framing — the 4-byte
// little-endian length prefix of support/wire.hpp, then the payload — over
// loopback TCP with SO_RCVTIMEO/SO_SNDTIMEO bounding every operation — and
// both servers run on the one ConnectionCore at the bottom of this file.
//
// This is an implementation header (included from .cpp files only): it
// pulls in <sys/socket.h> and friends, which the public headers keep out
// of the include graph.
#pragma once

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "support/common.hpp"
#include "support/wire.hpp"

namespace rpt::serve::net {

enum class IoStatus { kOk, kClosed, kTimeout };

// Full-buffer read/write with EINTR retry. With SO_RCVTIMEO/SO_SNDTIMEO set,
// an expired wait surfaces as EAGAIN/EWOULDBLOCK — reported as kTimeout so
// callers can count it or throw TimeoutError; EOF and hard errors are
// kClosed ("connection over" either way).
inline IoStatus ReadFull(int fd, std::uint8_t* buf, std::size_t len) {
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n = ::read(fd, buf + done, len - done);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return IoStatus::kTimeout;
    } else {
      return IoStatus::kClosed;
    }
  }
  return IoStatus::kOk;
}

inline IoStatus WriteFull(int fd, const std::uint8_t* buf, std::size_t len) {
  std::size_t done = 0;
  while (done < len) {
    // MSG_NOSIGNAL: a peer that disconnected mid-exchange must surface as
    // EPIPE (-> kClosed), not deliver a process-killing SIGPIPE.
    const ssize_t n = ::send(fd, buf + done, len - done, MSG_NOSIGNAL);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
    } else if (n == 0) {
      // send() made no progress and set no errno; classifying by leftover
      // errno could spin forever (stale EINTR) or misreport a timeout.
      return IoStatus::kClosed;
    } else if (errno == EINTR) {
      continue;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return IoStatus::kTimeout;
    } else {
      return IoStatus::kClosed;
    }
  }
  return IoStatus::kOk;
}

inline void CloseQuiet(int fd) {
  if (fd >= 0) ::close(fd);
}

inline void SetNoDelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

inline void SetIoTimeouts(int fd, int timeout_ms) {
  if (timeout_ms <= 0) return;
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

/// Bounded loopback connect: non-blocking connect + poll for writability,
/// then back to blocking with per-op timeouts. Returns the connected fd.
/// `on_fail(what, is_timeout)` is called (and must throw) on any failure —
/// the caller picks its exception types; the socket is closed first.
template <typename FailFn>
int ConnectLoopback(std::uint16_t port, int connect_timeout_ms,
                    int io_timeout_ms, FailFn&& on_fail) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  RPT_CHECK(fd >= 0);
  SetNoDelay(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);

  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  const auto fail = [&](const std::string& what, bool timeout) {
    CloseQuiet(fd);
    on_fail(what, timeout);  // must throw
    RPT_CHECK(false);
  };
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) {
      fail(std::string("connect failed: ") + std::strerror(errno), false);
    }
    pollfd pfd{fd, POLLOUT, 0};
    const int timeout = connect_timeout_ms > 0 ? connect_timeout_ms : -1;
    const int ready = ::poll(&pfd, 1, timeout);
    if (ready == 0) fail("connect timed out", true);
    if (ready < 0) {
      fail(std::string("connect poll failed: ") + std::strerror(errno), false);
    }
    int err = 0;
    socklen_t err_len = sizeof(err);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len);
    if (err != 0) fail(std::string("connect failed: ") + std::strerror(err), false);
  }
  ::fcntl(fd, F_SETFL, flags);
  SetIoTimeouts(fd, io_timeout_ms);
  return fd;
}

/// Sends one length-prefixed frame. kOk only when prefix and payload both
/// land fully. Prefix and payload go out in a single write: two small
/// writes per frame would hand Nagle + delayed-ACK a ~40 ms stall on every
/// synchronous request/ack round trip.
inline IoStatus SendFrame(int fd, const std::string& payload) {
  std::string frame;
  frame.reserve(support::wire::kPrefixBytes + payload.size());
  support::wire::AppendPrefixed(frame, payload);
  return WriteFull(fd, reinterpret_cast<const std::uint8_t*>(frame.data()),
                   frame.size());
}

/// ReadFull that rides through SO_RCVTIMEO expiries once a read has begun:
/// used for the tail of a frame, where bailing out on an idle tick would
/// leave the stream misaligned. Bounded — `max_stall_ticks` consecutive
/// empty waits (peer froze mid-frame) report kClosed, never a silent hang.
inline IoStatus ReadFullPatient(int fd, std::uint8_t* buf, std::size_t len,
                                int max_stall_ticks) {
  std::size_t done = 0;
  int stalls = 0;
  while (done < len) {
    const ssize_t n = ::read(fd, buf + done, len - done);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
      stalls = 0;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (++stalls >= max_stall_ticks) return IoStatus::kClosed;
    } else {
      return IoStatus::kClosed;
    }
  }
  return IoStatus::kOk;
}

/// Receives one length-prefixed frame into `payload`. kClosed on EOF or a
/// frame longer than `max_bytes` (desync — nothing sane to read after it).
///
/// Timeout contract: kTimeout is only ever returned with ZERO bytes
/// consumed (an idle tick between frames — the caller may loop and call
/// again). Once the first prefix byte has arrived, the rest of the frame
/// is read patiently: a short SO_RCVTIMEO used as a poll interval (the
/// replication link's silence tick) can never split a frame and desync
/// the stream. A peer that stalls mid-frame for `max_stall_ticks`
/// consecutive timeouts is reported kClosed.
inline IoStatus RecvFrame(int fd, std::string& payload, std::uint32_t max_bytes,
                          int max_stall_ticks = 64) {
  std::uint8_t prefix[support::wire::kPrefixBytes];
  const IoStatus first = ReadFull(fd, prefix, 1);
  if (first != IoStatus::kOk) return first;  // clean boundary: frame not begun
  const IoStatus rest = ReadFullPatient(fd, prefix + 1, 3, max_stall_ticks);
  if (rest != IoStatus::kOk) return IoStatus::kClosed;
  const std::uint32_t len = support::wire::PrefixLength(prefix);
  if (len > max_bytes) return IoStatus::kClosed;
  payload.resize(len);
  if (len == 0) return IoStatus::kOk;
  const IoStatus ps = ReadFullPatient(
      fd, reinterpret_cast<std::uint8_t*>(payload.data()), len, max_stall_ticks);
  return ps == IoStatus::kOk ? IoStatus::kOk : IoStatus::kClosed;
}

/// The listen/accept/handler/stop core of every socket server. It owns the
/// loopback listen socket, the accept thread and the live connections (fd
/// plus handler thread). Each accepted fd gets TCP_NODELAY (replies must
/// not wait out Nagle behind a delayed ACK) and the io timeouts, then
/// `admit(fd)` on the accept thread (false refuses it), then its own thread
/// running `serve(fd)`. The core owns the fd: when `serve` returns, the
/// connection leaves the live set under the mutex BEFORE its fd closes, so
/// Stop() only shuts down fds that are still this server's (a closed fd's
/// number may already belong to another socket in the process). A finished
/// handler thread is joined by the next one to finish, or by Stop(), so at
/// most one finished thread is held however many connections come and go.
class ConnectionCore {
 public:
  ConnectionCore() = default;
  ConnectionCore(const ConnectionCore&) = delete;
  ConnectionCore& operator=(const ConnectionCore&) = delete;
  ~ConnectionCore() { Stop(); }

  [[nodiscard]] bool Running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint16_t Port() const noexcept { return port_; }

  /// Binds 127.0.0.1:`port` (0 = a free port) and starts accepting. Throws
  /// InternalError, with nothing started, if the socket layer refuses.
  void Start(std::uint16_t port, int io_timeout_ms, std::function<void(int)> serve,
             std::function<bool(int)> admit = {}) {
    RPT_CHECK(!Running());
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    RPT_CHECK(listen_fd_ >= 0);
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    socklen_t addr_len = sizeof(addr);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 64) != 0 ||
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len) != 0) {
      const int err = errno;
      CloseQuiet(listen_fd_);
      throw InternalError(std::string("serve: bind/listen failed: ") + std::strerror(err));
    }
    port_ = ntohs(addr.sin_port);
    io_timeout_ms_ = io_timeout_ms;
    serve_ = std::move(serve);
    admit_ = std::move(admit);
    running_.store(true, std::memory_order_release);
    accept_thread_ = std::thread([this] { AcceptLoop(); });
  }

  /// Shuts down the listener and every live connection, then joins every
  /// thread. Idempotent.
  void Stop() {
    if (!running_.exchange(false, std::memory_order_acq_rel)) return;
    ::shutdown(listen_fd_, SHUT_RDWR);
    accept_thread_.join();  // from here on no connection joins the live set
    std::thread last;
    {
      std::unique_lock<std::mutex> lock(mu_);
      for (const Conn& conn : live_) ::shutdown(conn.fd, SHUT_RDWR);
      done_.wait(lock, [this] { return live_.empty(); });
      last = std::move(finished_);
    }
    if (last.joinable()) last.join();  // it joined its predecessor
    CloseQuiet(listen_fd_);
  }

  /// Handler threads held: the live connections plus at most one finished
  /// thread not yet joined.
  [[nodiscard]] std::size_t Handlers() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return live_.size() + (finished_.joinable() ? 1 : 0);
  }

 private:
  struct Conn {
    int fd;
    std::thread thread;
  };

  void AcceptLoop() {
    for (;;) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // listener shut down (Stop) or fatal — either way, done
      }
      SetNoDelay(fd);
      SetIoTimeouts(fd, io_timeout_ms_);
      if (admit_ && !admit_(fd)) {
        CloseQuiet(fd);
        continue;
      }
      // Spawned under the mutex, so the entry exists before Run() looks.
      const std::lock_guard<std::mutex> lock(mu_);
      live_.push_back(Conn{fd, std::thread([this, fd] { Run(fd); })});
    }
  }

  void Run(int fd) {
    serve_(fd);
    std::thread prev;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      const auto it = std::find_if(live_.begin(), live_.end(),
                                   [fd](const Conn& conn) { return conn.fd == fd; });
      prev = std::exchange(finished_, std::move(it->thread));
      live_.erase(it);
      done_.notify_all();
    }
    CloseQuiet(fd);
    if (prev.joinable()) prev.join();
  }

  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  int io_timeout_ms_ = 0;
  std::function<void(int)> serve_;
  std::function<bool(int)> admit_;
  std::atomic<bool> running_{false};
  mutable std::mutex mu_;  // guards live_ / finished_
  std::condition_variable done_;  // signalled when a connection leaves live_
  std::vector<Conn> live_;
  std::thread finished_;
  std::thread accept_thread_;  // last: it uses every member above
};

}  // namespace rpt::serve::net

// TCP transport backend (loopback first): each rank owns one connected
// TCP socket pair.  Every frame is written length-prefixed into the
// client end, crosses the kernel network stack, and is read back off the
// accepted end by the same rank thread.  A multi-machine peer would
// replace "read back off my own connection's far end" with "the
// destination host reads it"; framing and the runtime seam stay.
//
// The spill rule.  A frame larger than the socket buffers cannot sit in
// both directions at once: while the rank is still pushing its tail, the
// echo of its head fills the return path, and unless someone drains it
// both ends wedge.  So a sender that cannot push parks whatever has come
// back in its channel's spill, and every read serves the spill before the
// socket: those bytes left the socket earlier, and socket order is frame
// order.  Each rank strictly alternates send/recv on its own channel, so
// a spill is plain state touched only by its rank's thread.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "minimpi/backend.hpp"
#include "minimpi/error.hpp"
#include "support/error.hpp"

namespace dipdc::minimpi::detail_backend {

namespace {

/// Bytes moved off the accepted end per read while a blocked send parks.
constexpr std::size_t kParkChunk = 64 * 1024;

[[noreturn]] void throw_errno(const char* what) {
  throw MpiError(std::string("tcp backend: ") + what + ": " +
                 std::strerror(errno));
}

/// Owns one socket descriptor; `what` names the call that returned it.
class Fd {
 public:
  Fd(int fd, const char* what) : fd_(fd) {
    if (fd_ < 0) throw_errno(what);
  }
  Fd(Fd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }

  [[nodiscard]] int get() const { return fd_; }

 private:
  int fd_;
};

/// Nonblocking with TCP_NODELAY: small frames leave at once, and a full
/// buffer returns EAGAIN instead of blocking the rank.
void configure(int fd) {
  const int one = 1;
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl(O_NONBLOCK)");
  }
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) < 0) {
    throw_errno("setsockopt(TCP_NODELAY)");
  }
}

sockaddr_in local_address(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    throw_errno("getsockname");
  }
  return addr;
}

/// Accepts connections until the far end of `client` turns up, closing
/// any other: pairing is by address, never by accept order, so a stray
/// connection to a fixed tcp_port cannot cross two ranks' channels.
Fd accept_peer_of(int listener, int client) {
  const sockaddr_in want = local_address(client);
  for (;;) {
    sockaddr_in peer{};
    socklen_t len = sizeof(peer);
    Fd fd(::accept(listener, reinterpret_cast<sockaddr*>(&peer), &len),
          "accept");
    if (peer.sin_port == want.sin_port &&
        peer.sin_addr.s_addr == want.sin_addr.s_addr) {
      return fd;
    }
  }
}

/// Reads up to n bytes without blocking; 0 means none are ready.  EOF
/// means the socket pair was torn down under a live rank.
std::size_t read_some(int fd, std::byte* dst, std::size_t n) {
  for (;;) {
    const ssize_t got = ::read(fd, dst, n);
    if (got > 0) return static_cast<std::size_t>(got);
    if (got == 0) throw MpiError("tcp backend: connection closed");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    throw_errno("read");
  }
}

/// Blocks until one of `fds` is ready for the events it asks for.
void wait_ready(pollfd* fds, nfds_t count) {
  while (::poll(fds, count, -1) < 0) {
    if (errno != EINTR) throw_errno("poll");
  }
}

/// Drops the first n bytes of msg's iovec array after a partial write.
void skip_sent(msghdr& msg, std::size_t n) {
  while (n > 0 && n >= msg.msg_iov->iov_len) {
    n -= msg.msg_iov->iov_len;
    ++msg.msg_iov;
    --msg.msg_iovlen;
  }
  if (n > 0) {
    msg.msg_iov->iov_base = static_cast<char*>(msg.msg_iov->iov_base) + n;
    msg.msg_iov->iov_len -= n;
  }
}

class TcpBackend final : public Backend {
 public:
  explicit TcpBackend(const BackendOptions& opt)
      : host_(opt.tcp_host), port_(opt.tcp_port) {}

  [[nodiscard]] const char* name() const override { return "tcp"; }
  [[nodiscard]] bool shares_address_space() const override { return false; }

  void connect(int nranks) override {
    DIPDC_REQUIRE(channels_.empty(), "tcp backend connected twice");

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
      throw MpiError("tcp backend: bad host address '" + host_ + "'");
    }

    const Fd listener(::socket(AF_INET, SOCK_STREAM, 0), "socket");
    const int one = 1;
    ::setsockopt(listener.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(listener.get(), reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) < 0) {
      throw_errno("bind");
    }
    if (::listen(listener.get(), nranks + 8) < 0) throw_errno("listen");
    // With port 0 the kernel picked an ephemeral port; learn it so the
    // client ends know where to connect.
    addr = local_address(listener.get());

    channels_.reserve(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) {
      Fd tx(::socket(AF_INET, SOCK_STREAM, 0), "socket");
      if (::connect(tx.get(), reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) < 0) {
        throw_errno("connect");
      }
      Fd rx = accept_peer_of(listener.get(), tx.get());
      configure(tx.get());
      configure(rx.get());
      channels_.push_back(Channel{std::move(tx), std::move(rx), {}, 0});
    }
  }

  /// Writes the length prefix and the frame with one sendmsg.  When the
  /// client end would block, parks the echo waiting on the accepted end,
  /// then waits for either end to become ready.
  void send(int rank, std::span<const std::byte> frame) override {
    Channel& ch = channels_[static_cast<std::size_t>(rank)];
    std::uint64_t len = frame.size();
    iovec iov[2] = {{&len, sizeof(len)},
                    {const_cast<std::byte*>(frame.data()), frame.size()}};
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = 2;
    std::size_t left = sizeof(len) + frame.size();
    while (left > 0) {
      // MSG_NOSIGNAL: a torn-down pair must surface as an error, not
      // SIGPIPE.
      const ssize_t wrote = ::sendmsg(ch.tx.get(), &msg, MSG_NOSIGNAL);
      if (wrote >= 0) {
        left -= static_cast<std::size_t>(wrote);
        skip_sent(msg, static_cast<std::size_t>(wrote));
        continue;
      }
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) throw_errno("sendmsg");
      ch.park();
      pollfd fds[2] = {{ch.tx.get(), POLLOUT, 0}, {ch.rx.get(), POLLIN, 0}};
      wait_ready(fds, 2);
    }
  }

  void recv(int rank, std::vector<std::byte>& frame) override {
    Channel& ch = channels_[static_cast<std::size_t>(rank)];
    std::uint64_t len = 0;
    ch.read(reinterpret_cast<std::byte*>(&len), sizeof(len));
    frame.resize(static_cast<std::size_t>(len));
    ch.read(frame.data(), frame.size());
  }

  void finalize() override { channels_.clear(); }

 private:
  /// One rank's socket pair: it writes into `tx` and reads the same bytes
  /// back off `rx`, the accepted far end of the same connection.
  struct Channel {
    Fd tx;
    Fd rx;
    std::vector<std::byte> spill;  // echoed bytes parked by a blocked send
    std::size_t spill_read = 0;    // how many of them recv has consumed

    /// Parks everything `rx` has ready, without blocking.
    void park() {
      for (;;) {
        const std::size_t old = spill.size();
        spill.resize(old + kParkChunk);
        const std::size_t got = read_some(rx.get(), spill.data() + old,
                                          kParkChunk);
        spill.resize(old + got);
        if (got == 0) return;
      }
    }

    /// Fills `dst` with the next n bytes: parked ones first, then `rx`,
    /// blocking until they arrive.
    void read(std::byte* dst, std::size_t n) {
      std::size_t got = std::min(n, spill.size() - spill_read);
      if (got > 0) std::memcpy(dst, spill.data() + spill_read, got);
      spill_read += got;
      if (spill_read == spill.size()) {
        spill.clear();
        spill_read = 0;
      }
      while (got < n) {
        const std::size_t more = read_some(rx.get(), dst + got, n - got);
        if (more == 0) {
          pollfd fd{rx.get(), POLLIN, 0};
          wait_ready(&fd, 1);
        }
        got += more;
      }
    }
  };

  std::string host_;
  std::uint16_t port_;
  std::vector<Channel> channels_;  // channel r is touched only by rank r
};

}  // namespace

std::unique_ptr<Backend> make_tcp_backend(const BackendOptions& opt) {
  return std::make_unique<TcpBackend>(opt);
}

}  // namespace dipdc::minimpi::detail_backend

#include "serve/tcp.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>

#include "serve/protocol.h"

namespace qta::serve {

namespace {

void set_errno_error(std::string* error, const char* what) {
  if (error != nullptr) {
    *error = std::string(what) + ": " + std::strerror(errno);
  }
}

bool recv_exact(int fd, char* out, std::size_t n, std::string* error) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, out + got, n - got, 0);
    if (r == 0) {
      if (error != nullptr) *error = "connection closed by peer";
      return false;
    }
    if (r < 0) {
      if (errno == EINTR) continue;
      set_errno_error(error, "recv");
      return false;
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

}  // namespace

int tcp_listen(std::uint16_t port, std::uint16_t* bound_port,
               std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    set_errno_error(error, "socket");
    return kInvalidSocket;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    set_errno_error(error, "bind");
    ::close(fd);
    return kInvalidSocket;
  }
  if (::listen(fd, 64) < 0) {
    set_errno_error(error, "listen");
    ::close(fd);
    return kInvalidSocket;
  }
  if (bound_port != nullptr) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
      set_errno_error(error, "getsockname");
      ::close(fd);
      return kInvalidSocket;
    }
    *bound_port = ntohs(bound.sin_port);
  }
  return fd;
}

int tcp_accept(int listen_fd) {
  const int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd < 0) return kInvalidSocket;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

int tcp_connect(const std::string& host, std::uint16_t port,
                std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    set_errno_error(error, "socket");
    return kInvalidSocket;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    if (error != nullptr) *error = "inet_pton: bad IPv4 address " + host;
    ::close(fd);
    return kInvalidSocket;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    set_errno_error(error, "connect");
    ::close(fd);
    return kInvalidSocket;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool send_all(int fd, std::string_view data, std::string* error) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t r =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      set_errno_error(error, "send");
      return false;
    }
    sent += static_cast<std::size_t>(r);
  }
  return true;
}

bool send_frame(int fd, std::string_view payload, std::string* error) {
  return send_all(fd, frame(payload), error);
}

bool recv_frame(int fd, std::string* payload, std::string* error) {
  char header[4];
  if (!recv_exact(fd, header, 4, error)) return false;
  std::uint32_t len = 0;
  std::memcpy(&len, header, 4);
  if constexpr (std::endian::native == std::endian::big) {
    len = ((len & 0xffu) << 24) | ((len & 0xff00u) << 8) |
          ((len >> 8) & 0xff00u) | (len >> 24);
  }
  if (len > kMaxFrameBytes) {
    if (error != nullptr) *error = "oversized frame from peer";
    return false;
  }
  payload->resize(len);
  return len == 0 || recv_exact(fd, payload->data(), len, error);
}

void tcp_close(int fd) {
  if (fd >= 0) ::close(fd);
}

}  // namespace qta::serve

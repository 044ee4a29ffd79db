#include "net/http.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <optional>

#if defined(__unix__) || defined(__APPLE__)
#define CSMT_NET_POSIX 1
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace csmt::net {

std::string http_response(const char* status, const char* content_type,
                          const std::string& body) {
  std::string out = "HTTP/1.1 ";
  out += status;
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nAccess-Control-Allow-Origin: *\r\nConnection: close\r\n"
         "Content-Length: " +
         std::to_string(body.size()) + "\r\n\r\n";
  out += body;
  return out;
}

#if CSMT_NET_POSIX

namespace {

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0  // macOS: rely on SO_NOSIGPIPE set at accept time
#endif

/// Blocking full write; false once the peer is gone.
bool send_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
    if (w <= 0) return false;
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

/// Case-insensitive header lookup in a request head; the value with
/// surrounding whitespace trimmed, or empty.
std::string header_value(const std::string& head, const char* name) {
  const std::size_t name_len = std::strlen(name);
  std::size_t pos = 0;
  while ((pos = head.find('\n', pos)) != std::string::npos) {
    ++pos;
    if (head.size() - pos < name_len + 1) break;
    if (strncasecmp(head.c_str() + pos, name, name_len) != 0 ||
        head[pos + name_len] != ':')
      continue;
    std::size_t b = pos + name_len + 1;
    std::size_t e = head.find('\r', b);
    if (e == std::string::npos) e = head.find('\n', b);
    if (e == std::string::npos) e = head.size();
    while (b < e && (head[b] == ' ' || head[b] == '\t')) ++b;
    while (e > b && (head[e - 1] == ' ' || head[e - 1] == '\t')) --e;
    return head.substr(b, e - b);
  }
  return {};
}

/// Reads one full request (head + Content-Length body) off `fd`. nullopt on
/// a dropped connection, a malformed request line, or an oversized request.
std::optional<HttpRequest> read_request(int fd) {
  std::string data;
  std::size_t head_end = std::string::npos;
  char buf[4096];
  while (data.size() < kMaxRequestBytes) {
    head_end = data.find("\r\n\r\n");
    if (head_end != std::string::npos) break;
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) return std::nullopt;
    data.append(buf, static_cast<std::size_t>(n));
  }
  if (head_end == std::string::npos) return std::nullopt;
  const std::string head = data.substr(0, head_end + 4);
  const std::size_t sp1 = head.find(' ');
  const std::size_t sp2 = head.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos)
    return std::nullopt;

  HttpRequest req;
  req.method = head.substr(0, sp1);
  std::string target = head.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::size_t q = target.find('?');
  if (q != std::string::npos) {
    req.query = target.substr(q + 1);
    target.resize(q);
  }
  req.path = std::move(target);

  std::size_t body_len = 0;
  const std::string cl = header_value(head, "Content-Length");
  if (!cl.empty()) {
    for (const char c : cl) {
      if (c < '0' || c > '9') return std::nullopt;
      body_len = body_len * 10 + static_cast<std::size_t>(c - '0');
      if (body_len > kMaxRequestBytes) return std::nullopt;
    }
  }
  req.body = data.substr(head_end + 4);
  while (req.body.size() < body_len) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) return std::nullopt;
    req.body.append(buf, static_cast<std::size_t>(n));
  }
  req.body.resize(body_len);
  return req;
}

}  // namespace

bool ClientConn::respond(const char* status, const char* content_type,
                         const std::string& body) {
  const std::string out = http_response(status, content_type, body);
  return send_all(fd_, out.data(), out.size());
}

bool ClientConn::send_raw(const std::string& bytes) {
  return send_all(fd_, bytes.data(), bytes.size());
}

bool ClientConn::send_raw(const char* data, std::size_t n) {
  return send_all(fd_, data, n);
}

bool HttpServer::start(std::uint16_t port, Handler handler) {
  if (running()) return true;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("csmt: http socket");
    return false;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(fd, 64) < 0) {
    std::fprintf(stderr, "csmt: cannot serve http on port %u: %s\n",
                 static_cast<unsigned>(port), std::strerror(errno));
    ::close(fd);
    return false;
  }
  socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  listen_fd_ = fd;
  handler_ = std::move(handler);
  stopping_.store(false);
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void HttpServer::stop() {
  if (!running()) return;
  stopping_.store(true);
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<Conn> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Unblock streaming handlers mid-send; fds are closed after the join so
    // a concurrent handler can never see its number reused.
    for (const Conn& c : conns_) ::shutdown(c.fd, SHUT_RDWR);
    conns.swap(conns_);
  }
  for (Conn& c : conns) {
    c.thread.join();
    ::close(c.fd);
  }
  listen_fd_ = -1;
  port_ = 0;
  handler_ = nullptr;
}

void HttpServer::reap_finished() {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < conns_.size();) {
    if (conns_[i].done->load()) {
      conns_[i].thread.join();
      ::close(conns_[i].fd);
      conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
}

void HttpServer::accept_loop() {
  while (!stopping_.load()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int r = ::poll(&pfd, 1, 200);
    if (stopping_.load()) return;
    reap_finished();
    if (r <= 0) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
#ifdef SO_NOSIGPIPE
    const int one = 1;
    ::setsockopt(client, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof one);
#endif
    Conn conn;
    conn.fd = client;
    conn.done = std::make_shared<std::atomic<bool>>(false);
    auto done = conn.done;
    conn.thread = std::thread([this, client, done] {
      handle_client(client);
      done->store(true);
    });
    std::lock_guard<std::mutex> lock(mu_);
    conns_.push_back(std::move(conn));
  }
}

void HttpServer::handle_client(int fd) {
  ClientConn conn(fd, stopping_);
  if (const auto req = read_request(fd)) {
    handler_(*req, conn);
  } else {
    conn.respond("400 Bad Request", "text/plain", "malformed request\n");
  }
  ::shutdown(fd, SHUT_RDWR);
  // The fd itself is closed by the reaper (or stop()); closing it here
  // would race a concurrent stop() handing the number to a new socket.
}

#else  // !CSMT_NET_POSIX

bool ClientConn::respond(const char*, const char*, const std::string&) {
  return false;
}
bool ClientConn::send_raw(const std::string&) { return false; }
bool ClientConn::send_raw(const char*, std::size_t) { return false; }

bool HttpServer::start(std::uint16_t, Handler) {
  std::fprintf(stderr, "csmt: http serving is unavailable on this platform\n");
  return false;
}
void HttpServer::stop() {}
void HttpServer::reap_finished() {}
void HttpServer::accept_loop() {}
void HttpServer::handle_client(int) {}

#endif

}  // namespace csmt::net

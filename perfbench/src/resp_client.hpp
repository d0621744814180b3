// A minimal blocking RESP client: encode argv as a multibulk frame,
// decode one reply.  Written against the wire protocol only, so the
// load driver measures the server as any Redis client sees it.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace pb {

struct Resp {
  enum class Kind { kSimple, kError, kInteger, kBulk, kNull, kArray };
  Kind kind = Kind::kNull;
  std::string text;
  long long integer = 0;
  std::vector<Resp> elems;

  bool is_error() const { return kind == Kind::kError; }
};

inline std::string encode_command(const std::vector<std::string>& argv) {
  std::string out = "*" + std::to_string(argv.size()) + "\r\n";
  for (const auto& a : argv) {
    out += "$" + std::to_string(a.size()) + "\r\n";
    out += a;
    out += "\r\n";
  }
  return out;
}

class Connection {
 public:
  /// Connect to 127.0.0.1:port; a reply that takes longer than
  /// `timeout_s` is an error rather than a hang.
  Connection(std::uint16_t port, int timeout_s = 60) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect to port " + std::to_string(port) +
                               " failed: " + std::strerror(errno));
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    timeval tv{timeout_s, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void send_raw(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("send failed");
      off += static_cast<std::size_t>(n);
    }
  }
  void send(const std::vector<std::string>& argv) {
    send_raw(encode_command(argv));
  }

  /// Block until one complete reply is buffered and decode it.
  Resp read_reply() {
    for (;;) {
      std::size_t pos = pos_;
      Resp r;
      if (parse(pos, r)) {
        pos_ = pos;
        if (pos_ == buf_.size()) {
          buf_.clear();
          pos_ = 0;
        }
        return r;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("connection closed or timed out");
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  Resp call(const std::vector<std::string>& argv) {
    send(argv);
    return read_reply();
  }

 private:
  /// Parse one value at `pos`; false when the buffer holds only a prefix.
  bool parse(std::size_t& pos, Resp& out) const {
    const std::size_t eol = buf_.find("\r\n", pos);
    if (eol == std::string::npos || pos >= buf_.size()) return false;
    const char tag = buf_[pos];
    const std::string line = buf_.substr(pos + 1, eol - pos - 1);
    pos = eol + 2;
    switch (tag) {
      case '+': out.kind = Resp::Kind::kSimple; out.text = line; return true;
      case '-': out.kind = Resp::Kind::kError; out.text = line; return true;
      case ':':
        out.kind = Resp::Kind::kInteger;
        out.integer = std::stoll(line);
        return true;
      case '$': {
        const long long len = std::stoll(line);
        if (len < 0) { out.kind = Resp::Kind::kNull; return true; }
        if (buf_.size() < pos + static_cast<std::size_t>(len) + 2) return false;
        out.kind = Resp::Kind::kBulk;
        out.text = buf_.substr(pos, static_cast<std::size_t>(len));
        pos += static_cast<std::size_t>(len) + 2;
        return true;
      }
      case '*': {
        const long long len = std::stoll(line);
        if (len < 0) { out.kind = Resp::Kind::kNull; return true; }
        out.kind = Resp::Kind::kArray;
        out.elems.resize(static_cast<std::size_t>(len));
        for (auto& e : out.elems)
          if (!parse(pos, e)) return false;
        return true;
      }
      default:
        throw std::runtime_error("malformed reply byte '" +
                                 std::string(1, tag) + "'");
    }
  }

  int fd_ = -1;
  std::string buf_;
  std::size_t pos_ = 0;
};

/// The single integer cell of a GRAPH.QUERY reply ([header, rows, stats]
/// with one row of one column), or -1 when the reply has another shape.
inline long long scalar_of(const Resp& r) {
  if (r.kind != Resp::Kind::kArray || r.elems.size() != 3) return -1;
  const Resp& rows = r.elems[1];
  if (rows.elems.size() != 1 || rows.elems[0].elems.size() != 1) return -1;
  const Resp& cell = rows.elems[0].elems[0];
  return cell.kind == Resp::Kind::kInteger ? cell.integer : -1;
}

/// The value column of a one-row name/value reply (GRAPH.CONFIG GET).
inline long long scalar_of_row(const Resp& r) {
  if (r.kind != Resp::Kind::kArray || r.elems.size() != 3) return -1;
  const Resp& rows = r.elems[1];
  if (rows.elems.size() != 1 || rows.elems[0].elems.size() != 2) return -1;
  const Resp& cell = rows.elems[0].elems[1];
  return cell.kind == Resp::Kind::kInteger ? cell.integer : -1;
}

/// True when a write reply reports exactly one node and one edge created.
inline bool wrote_one_x(const Resp& r) {
  if (r.kind != Resp::Kind::kArray || r.elems.empty()) return false;
  bool node = false, edge = false;
  for (const auto& s : r.elems.back().elems) {
    node = node || s.text == "Nodes created: 1";
    edge = edge || s.text == "Relationships created: 1";
  }
  return node && edge;
}

}  // namespace pb

#include "server/net_server.hpp"

#include <string>
#include <utility>

namespace rg::server {

struct NetServer::Connection {
  util::TcpStream stream;
  std::thread thread;
  std::atomic<bool> done{false};
};

NetServer::NetServer(Server& core, std::uint16_t port, bool loopback_only)
    : core_(core), listener_(util::TcpListener::bind(port, loopback_only)) {
  acceptor_ = std::thread([this] { accept_loop(); });
}

NetServer::~NetServer() { stop(); }

void NetServer::stop() {
  if (stopping_.exchange(true)) {
    // Second call: the first one already tore everything down, but the
    // acceptor may still be joining — wait for it.
    if (acceptor_.joinable()) acceptor_.join();
    return;
  }
  listener_.close();  // unblocks accept()
  if (acceptor_.joinable()) acceptor_.join();

  std::vector<std::shared_ptr<Connection>> conns;
  {
    util::MutexLock lk(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& c : conns) {
    c->stream.shutdown_both();  // unblocks a blocked read_some()
    if (c->thread.joinable()) c->thread.join();
  }
}

void NetServer::reap_finished_locked() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void NetServer::accept_loop() {
  for (;;) {
    util::TcpStream stream = listener_.accept();
    if (!stream.valid()) return;  // listener closed: shutdown
    if (stopping_.load()) return;
    accepted_.fetch_add(1, std::memory_order_relaxed);

    auto conn = std::make_shared<Connection>();
    conn->stream = std::move(stream);
    {
      util::MutexLock lk(conns_mu_);
      reap_finished_locked();
      conns_.push_back(conn);
    }
    conn->thread = std::thread([this, conn] { serve_connection(conn); });
  }
}

void NetServer::serve_connection(std::shared_ptr<Connection> conn) {
  RespRequestParser parser;
  char buf[16384];
  try {
    for (;;) {
      const std::size_t got = conn->stream.read_some(buf, sizeof(buf));
      if (got == 0) break;  // EOF: client closed its write side
      parser.feed(std::string_view(buf, got));

      // Execute every command buffered so far strictly in request order,
      // as Redis does: a pipelined write is applied before the next
      // command of the same connection runs.  Replies go out in one write.
      std::string out;
      for (;;) {
        auto req = parser.next();
        if (req.status == RespRequestParser::Status::kNeedMore) break;
        out += req.status == RespRequestParser::Status::kError
                   ? resp_error(req.error)
                   : core_.execute(std::move(req.argv)).to_resp();
      }
      if (!out.empty()) conn->stream.write_all(out);
    }
  } catch (const std::exception&) {
    // Socket error (reset, broken pipe): drop the connection.
  }
  // shutdown (not close): stop() may be probing this stream concurrently,
  // and shutdown never mutates the fd.  The Connection destructor closes.
  conn->stream.shutdown_both();
  conn->done.store(true, std::memory_order_release);
}

}  // namespace rg::server

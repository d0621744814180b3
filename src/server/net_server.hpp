// NetServer — the TCP RESP front-end that turns the in-process Server
// into a network service plain Redis clients can talk to.
//
// Threading model (mirroring the module architecture the paper assumes):
//  * one **acceptor** thread blocks in accept() on the listening socket,
//  * each connection gets a lightweight **reader** thread that decodes
//    RESP frames (server/resp.hpp RespRequestParser) and forwards every
//    complete command to Server::execute() — i.e. into the fixed worker
//    pool, where each query executes on exactly one worker,
//  * pipelining: one connection's commands execute strictly in request
//    order, each finishing before the next starts (as in Redis); the
//    replies to everything already buffered go back in one write.
//    Concurrency comes from many connections, not from one pipeline.
//
// Protocol errors produce an -ERR reply and the parser resynchronizes;
// the connection is only closed on EOF or socket failure.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "server/server.hpp"
#include "util/socket.hpp"
#include "util/sync.hpp"

namespace rg::server {

class NetServer {
 public:
  /// Serve `core` on `port` (0 = pick an ephemeral port, read back with
  /// port()).  `loopback_only` binds 127.0.0.1 (the safe default).
  /// The listener is live when the constructor returns.
  explicit NetServer(Server& core, std::uint16_t port = 0,
                     bool loopback_only = true);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// The bound TCP port.
  std::uint16_t port() const noexcept { return listener_.port(); }

  /// Lifetime connection counter (accepted, including closed ones).
  std::uint64_t connections_accepted() const noexcept {
    return accepted_.load(std::memory_order_relaxed);
  }

  /// Stop accepting, close every connection, join all threads.  Called
  /// by the destructor; safe to call twice.
  void stop();

 private:
  struct Connection;

  void accept_loop();
  void serve_connection(std::shared_ptr<Connection> conn);
  void reap_finished_locked() RG_REQUIRES(conns_mu_);

  Server& core_;
  util::TcpListener listener_;
  std::thread acceptor_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> accepted_{0};

  util::Mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_ RG_GUARDED_BY(conns_mu_);
};

}  // namespace rg::server

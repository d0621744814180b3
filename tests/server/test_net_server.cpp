// Socket-level coverage of the TCP RESP front-end: a plain TCP client
// opens a connection, sends (pipelined) commands in RESP framing and
// reads correct replies — no external redis-cli needed.
#include "server/net_server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "server/resp.hpp"
#include "util/socket.hpp"

namespace rg::server {
namespace {

/// Test client: buffers received bytes and decodes replies one by one.
class Client {
 public:
  explicit Client(std::uint16_t port)
      : conn_(util::TcpStream::connect("127.0.0.1", port)) {}

  void send_raw(std::string_view bytes) { conn_.write_all(bytes); }

  void send(const std::vector<std::string>& argv) {
    conn_.write_all(encode_command(argv));
  }

  /// Block until one complete reply decodes.
  RespValue read_reply() {
    for (;;) {
      RespValue v;
      const std::size_t used = decode_reply(rx_, v);
      if (used > 0) {
        rx_.erase(0, used);
        return v;
      }
      char buf[4096];
      const std::size_t got = conn_.read_some(buf, sizeof(buf));
      if (got == 0) throw std::runtime_error("server closed connection");
      rx_.append(buf, got);
    }
  }

  util::TcpStream& stream() { return conn_; }

 private:
  util::TcpStream conn_;
  std::string rx_;
};

class NetServerFixture : public ::testing::Test {
 protected:
  NetServerFixture() : core_(2), net_(core_, /*port=*/0) {}

  Server core_;
  NetServer net_;
};

TEST_F(NetServerFixture, PingOverSocket) {
  Client c(net_.port());
  c.send({"PING"});
  const auto r = c.read_reply();
  EXPECT_EQ(r.kind, RespValue::Kind::kSimple);
  EXPECT_EQ(r.text, "PONG");
}

TEST_F(NetServerFixture, GraphQueryRoundTrip) {
  Client c(net_.port());
  c.send({"GRAPH.QUERY", "g", "CREATE (:P {name:'x'})-[:R]->(:P {name:'y'})"});
  auto r = c.read_reply();
  ASSERT_EQ(r.kind, RespValue::Kind::kArray) << r.text;
  c.send({"GRAPH.QUERY", "g", "MATCH (a:P)-[:R]->(b) RETURN a.name, b.name"});
  r = c.read_reply();
  ASSERT_EQ(r.kind, RespValue::Kind::kArray);
  ASSERT_EQ(r.elems.size(), 3u);  // header, rows, stats
  ASSERT_EQ(r.elems[1].elems.size(), 1u);
  EXPECT_EQ(r.elems[1].elems[0].elems[0].text, "x");
  EXPECT_EQ(r.elems[1].elems[0].elems[1].text, "y");
}

TEST_F(NetServerFixture, PipelinedBatchRepliesInOrder) {
  Client c(net_.port());
  // One write burst carrying five commands; replies must come back in
  // request order.
  std::string burst;
  burst += encode_command({"PING"});
  burst += encode_command({"GRAPH.QUERY", "g", "CREATE (:N {i: 1})"});
  burst += encode_command({"GRAPH.QUERY", "g", "CREATE (:N {i: 2})"});
  burst += encode_command({"GRAPH.QUERY", "g",
                           "MATCH (n:N) RETURN count(n)"});
  burst += encode_command({"PING"});
  c.send_raw(burst);

  EXPECT_EQ(c.read_reply().text, "PONG");
  EXPECT_EQ(c.read_reply().kind, RespValue::Kind::kArray);
  EXPECT_EQ(c.read_reply().kind, RespValue::Kind::kArray);
  const auto count = c.read_reply();
  ASSERT_EQ(count.kind, RespValue::Kind::kArray);
  EXPECT_EQ(count.elems[1].elems[0].elems[0].integer, 2);
  EXPECT_EQ(c.read_reply().text, "PONG");
}

// A connection's pipelined commands execute in request order, each
// finishing before the next starts (Redis semantics): a count sent right
// behind N creates in the same burst sees all N of them.  The leading
// read publishes an epoch, so every count reads a pinned snapshot
// without waiting on the lock a still-running create would hold; one
// count behind each create, over several bursts, makes any reordering
// visible.
TEST_F(NetServerFixture, PipelinedCreatesThenCountSeesEveryWrite) {
  constexpr int kCreates = 40;
  constexpr int kBursts = 5;
  const std::vector<std::string> count = {"GRAPH.RO_QUERY", "pipe",
                                          "MATCH (n:N) RETURN count(n)"};
  Client c(net_.port());
  auto read_count = [&] {
    const auto r = c.read_reply();
    EXPECT_EQ(r.kind, RespValue::Kind::kArray) << r.text;
    return r.kind == RespValue::Kind::kArray
               ? r.elems[1].elems[0].elems[0].integer
               : -1;
  };
  for (int b = 0; b < kBursts; ++b) {
    std::string burst = encode_command(count);
    for (int i = 0; i < kCreates; ++i) {
      burst += encode_command({"GRAPH.QUERY", "pipe", "CREATE (:N)"});
      burst += encode_command(count);
    }
    c.send_raw(burst);

    EXPECT_EQ(read_count(), b * kCreates);
    for (int i = 1; i <= kCreates; ++i) {
      ASSERT_EQ(c.read_reply().kind, RespValue::Kind::kArray);
      EXPECT_EQ(read_count(), b * kCreates + i);
    }
  }
}

TEST_F(NetServerFixture, FragmentedFrameAcrossWrites) {
  Client c(net_.port());
  const std::string wire =
      encode_command({"GRAPH.QUERY", "frag", "RETURN 1 + 2"});
  // Dribble the frame a few bytes per write; the server must buffer
  // until the frame completes, then answer once.
  for (std::size_t off = 0; off < wire.size(); off += 3) {
    c.send_raw(wire.substr(off, 3));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto r = c.read_reply();
  ASSERT_EQ(r.kind, RespValue::Kind::kArray);
  EXPECT_EQ(r.elems[1].elems[0].elems[0].integer, 3);
}

TEST_F(NetServerFixture, MalformedFrameDoesNotKillConnection) {
  Client c(net_.port());
  c.send_raw("*abc\r\n");
  const auto err = c.read_reply();
  ASSERT_TRUE(err.is_error());
  EXPECT_NE(err.text.find("Protocol error"), std::string::npos);
  // Same connection keeps working.
  c.send({"PING"});
  EXPECT_EQ(c.read_reply().text, "PONG");
}

TEST_F(NetServerFixture, InlineCommandFraming) {
  Client c(net_.port());
  c.send_raw("PING\r\n");
  EXPECT_EQ(c.read_reply().text, "PONG");
  c.send_raw("GRAPH.QUERY g \"RETURN 40 + 2\"\r\n");
  const auto r = c.read_reply();
  ASSERT_EQ(r.kind, RespValue::Kind::kArray);
  EXPECT_EQ(r.elems[1].elems[0].elems[0].integer, 42);
}

TEST_F(NetServerFixture, UnknownCommandGetsErrorReply) {
  Client c(net_.port());
  c.send({"NOPE"});
  EXPECT_TRUE(c.read_reply().is_error());
}

TEST_F(NetServerFixture, CrlfInEchoedArgCannotSplitTheErrorReply) {
  // A bulk argument is length-prefixed, so it may legally contain CRLF;
  // echoing it raw into the -ERR line would terminate the error early
  // and desynchronize the reply stream ('+OK' parsed as a fresh reply).
  Client c(net_.port());
  c.send({"NOCMD66", "x\r\n+OK"});
  const auto err = c.read_reply();
  ASSERT_TRUE(err.is_error());
  EXPECT_EQ(err.text.find('\n'), std::string::npos);
  EXPECT_NE(err.text.find("x  +OK"), std::string::npos) << err.text;
  // The very next reply is the PONG, not a smuggled '+OK'.
  c.send({"PING"});
  EXPECT_EQ(c.read_reply().text, "PONG");
}

TEST_F(NetServerFixture, UnknownCommandErrorEchoesArgsOverTheWire) {
  // Same bytes as the c13_unknown_command.resp fuzz seed; the Redis
  // format names the command and the leading arguments.
  Client c(net_.port());
  c.send({"NOCMD66", "foo", "bar"});
  const auto err = c.read_reply();
  ASSERT_TRUE(err.is_error());
  EXPECT_EQ(err.text,
            "ERR unknown command 'NOCMD66', with args beginning with: "
            "'foo', 'bar', ");
  // Same connection keeps working.
  c.send({"PING"});
  EXPECT_EQ(c.read_reply().text, "PONG");
}

TEST_F(NetServerFixture, ManyConcurrentConnections) {
  // Seed, then hammer from several client threads concurrently.
  Client seed(net_.port());
  seed.send({"GRAPH.QUERY", "g", "CREATE (:N)-[:E]->(:N)"});
  seed.read_reply();

  constexpr int kClients = 8;
  constexpr int kQueries = 20;
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      Client c(net_.port());
      for (int q = 0; q < kQueries; ++q) {
        c.send({"GRAPH.RO_QUERY", "g", "MATCH (a)-[:E]->(b) RETURN count(b)"});
        const auto r = c.read_reply();
        if (r.kind == RespValue::Kind::kArray &&
            r.elems[1].elems[0].elems[0].integer == 1)
          ok.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kClients * kQueries);
  EXPECT_GE(net_.connections_accepted(), 9u);
}

TEST_F(NetServerFixture, ServerStopUnblocksClients) {
  Client c(net_.port());
  c.send({"PING"});
  c.read_reply();
  net_.stop();  // must not hang with a connection open
  SUCCEED();
}

}  // namespace
}  // namespace rg::server

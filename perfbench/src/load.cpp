// perfbench_load — the untraced end-to-end run.
//
// Starts examples/resp_server the way a user does (its default worker
// and kernel thread counts, a data dir with WAL fsync everysec), loads
// the workload's graph through GRAPH.BULK over the socket, drives the
// workload from this one process over at most four connections, checks
// every reply against the oracle, then stops the server cleanly and
// restarts it on its data dir.  Prints the record line and the result
// line (see common.hpp).
//
//   perfbench_load --workload khop --seed 1 --seconds 10
//       --server .bench_build/perfbench/engine/examples/resp_server
//       --workdir .bench_build/run-1
#include <poll.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>

#include <csignal>
#include <exception>
#include <mutex>
#include <thread>

#include "common.hpp"
#include "resp_client.hpp"
#include "workload.hpp"

namespace pb {
namespace {

const std::string kKey = "g";

/// One resp_server child process.  stop() closes its stdin, which the
/// server treats as a clean shutdown, and reaps it.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, const std::string& data_dir) {
    int in[2], out[2];
    if (::pipe(in) != 0 || ::pipe(out) != 0)
      throw std::runtime_error("pipe() failed");
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork() failed");
    if (pid_ == 0) {
      ::dup2(in[0], STDIN_FILENO);
      ::dup2(out[1], STDOUT_FILENO);
      ::close(in[0]);
      ::close(in[1]);
      ::close(out[0]);
      ::close(out[1]);
      ::execl(binary.c_str(), binary.c_str(), "--port", "0", "--data-dir",
              data_dir.c_str(), "--fsync", "everysec",
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(in[0]);
    ::close(out[1]);
    stdin_ = in[1];
    stdout_ = out[0];
    // "listening on 127.0.0.1:<port> (...)" is printed once recovery is
    // done and the listener is live.
    std::string text;
    const auto deadline = Clock::now() + std::chrono::seconds(60);
    while (port_ == 0) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      pollfd p{stdout_, POLLIN, 0};
      if (left.count() <= 0 ||
          ::poll(&p, 1, static_cast<int>(left.count())) <= 0) {
        kill();
        throw std::runtime_error("server did not start listening");
      }
      char buf[512];
      const ssize_t n = ::read(stdout_, buf, sizeof buf);
      if (n <= 0) {
        kill();
        throw std::runtime_error("server exited during start-up");
      }
      text.append(buf, static_cast<std::size_t>(n));
      const auto at = text.find("127.0.0.1:");
      if (at != std::string::npos && text.find(' ', at) != std::string::npos)
        port_ = static_cast<std::uint16_t>(std::stoul(text.substr(at + 10)));
    }
  }
  ~ServerProcess() { kill(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  std::uint16_t port() const { return port_; }

  /// Clean shutdown; returns the process's peak resident set in MiB.
  double stop() {
    ::close(stdin_);
    stdin_ = -1;
    int status = 0;
    rusage ru{};
    ::wait4(pid_, &status, 0, &ru);
    pid_ = -1;
    ::close(stdout_);
    stdout_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
      throw std::runtime_error("server did not exit cleanly");
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
  }

 private:
  void kill() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
    if (stdin_ >= 0) ::close(stdin_);
    if (stdout_ >= 0) ::close(stdout_);
    stdin_ = stdout_ = -1;
  }

  pid_t pid_ = -1;
  int stdin_ = -1, stdout_ = -1;
  std::uint16_t port_ = 0;
};

std::vector<std::string> read_cmd(const std::string& text) {
  return {kReadCommand, kKey, text};
}
std::vector<std::string> write_cmd(const std::string& text) {
  return {kWriteCommand, kKey, text};
}

/// Everything a run accumulates; threads merge into it under `mu`.
struct Tally {
  std::mutex mu;
  std::vector<double> read_us, write_us, lateness_us;
  std::uint64_t reads = 0, writes_acked = 0, attempted = 0, failed = 0;
  bool correct = true;
  std::vector<std::string> problems;

  void problem(const std::string& what) {
    std::lock_guard lk(mu);
    correct = false;
    if (problems.size() < 8) problems.push_back(what);
  }
};

/// The read query of a workload and its oracle answer.
struct ReadOp {
  std::string text;
  long long expect;
};

class Run {
 public:
  Run(const Args& args, const Workload& w)
      : args_(args),
        w_(w),
        graph_(make_graph(w, args.seed)),
        oracle_(graph_),
        rng_(args.seed * 0x9e3779b97f4a7c15ULL + 7) {
    // Read operations, answers precomputed so the timed loop only
    // compares integers.
    if (w_.khop) {
      for (std::uint32_t s : pick_seeds(oracle_, kKhopSeedPool, rng_)) {
        const auto counts = oracle_.khop(s, kMaxK);
        for (unsigned k = 1; k <= kMaxK; ++k)
          reads_.push_back({khop_query(s, k), static_cast<long long>(counts[k])});
      }
    } else {
      for (std::uint32_t s : pick_seeds(oracle_, 4096, rng_))
        reads_.push_back(
            {point_query(s), static_cast<long long>(oracle_.out_edges(s))});
    }
  }

  void execute() {
    setup();
    measure();
    if (!w_.writer_beside_readers)
      open_loop_writer(Clock::now(), kWritesAfterReads);
    check_written(*server_, "after the run");
    rss_mb_ = server_->stop();
    server_.reset();
    restart();
  }

  void report() const {
    Metrics m;
    m.set("setup_s", median(setup_s_), "s");
    m.set("read_qps", static_cast<double>(tally_.reads) / read_seconds_,
          "ops/s");
    m.set("read_p50_us", quantile(tally_.read_us, 0.50), "us");
    m.set("read_p99_us", quantile(tally_.read_us, 0.99), "us");
    m.set("write_p50_us", quantile(tally_.write_us, 0.50), "us");
    m.set("write_p99_us", quantile(tally_.write_us, 0.99), "us");
    m.set("recovery_s", median(recovery_runs_s_), "s");
    m.set("server_rss_mb", rss_mb_, "MiB");

    auto list = [](const std::vector<double>& v) {
      std::string out;
      for (double x : v) out += (out.empty() ? "" : ", ") + num(x);
      return "[" + out + "]";
    };
    std::string problems;
    for (const auto& p : tally_.problems)
      problems += (problems.empty() ? "" : ", ") + quoted(p);
    std::string fields =
        "\"workload\": " + quoted(w_.name) +
        ", \"seed\": " + std::to_string(args_.seed) +
        ", \"seconds\": " + num(args_.seconds) +
        ", \"graph\": {\"kind\": " +
        quoted(w_.twitter ? "twitter_like" : "graph500") +
        ", \"scale\": " + std::to_string(w_.scale) +
        ", \"edgefactor\": " + std::to_string(w_.edgefactor) +
        ", \"vertices\": " + std::to_string(graph_.n) +
        ", \"edges\": " + std::to_string(graph_.edges.size()) + "}" +
        ", \"reader_connections\": " + std::to_string(w_.readers) +
        ", \"write_rate_per_s\": " + num(kWriteRate) +
        ", \"writer_beside_readers\": " +
        (w_.writer_beside_readers ? "true" : "false") +
        ", \"reads\": " + std::to_string(tally_.reads) +
        ", \"writes_acked\": " + std::to_string(tally_.writes_acked) +
        ", \"setup_runs_s\": " + list(setup_s_) +
        ", \"recovery_runs_s\": " + list(recovery_runs_s_) +
        ", \"write_max_us\": " + num(quantile(tally_.write_us, 1.0));
    fields += ", \"generator_lateness_us\": {\"p50\": " +
                num(quantile(tally_.lateness_us, 0.5)) +
                ", \"p99\": " + num(quantile(tally_.lateness_us, 0.99)) +
                ", \"max\": " + num(quantile(tally_.lateness_us, 1.0)) + "}";
    fields += ", \"problems\": [" + problems + "]";
    print_result(fields, tally_.correct, tally_.attempted, tally_.failed, m);
  }

 private:
  std::string data_dir(int i) const {
    return args_.workdir + "/data-" + std::to_string(i);
  }

  /// kSetups fresh servers, each loaded from empty; the last one stays
  /// up for the measured phase.  setup_s: first GRAPH.BULK byte sent
  /// until the first read query is answered.
  void setup() {
    std::vector<std::string> frames;
    for (const auto& argv : bulk_commands(graph_, kKey))
      frames.push_back(encode_command(argv));
    const ReadOp& first = reads_.front();
    for (int i = 0; i < kSetups; ++i) {
      ::mkdir(data_dir(i).c_str(), 0755);
      server_ = std::make_unique<ServerProcess>(args_.server, data_dir(i));
      Connection c(server_->port());
      const auto t0 = Clock::now();
      for (const auto& f : frames) {
        c.send_raw(f);
        const Resp r = c.read_reply();
        if (r.is_error()) throw std::runtime_error("GRAPH.BULK: " + r.text);
      }
      const Resp r = c.call(read_cmd(first.text));
      setup_s_.push_back(seconds_since(t0));
      if (scalar_of(r) != first.expect)
        tally_.problem("first query after load: got " +
                       std::to_string(scalar_of(r)) + ", oracle " +
                       std::to_string(first.expect));
      if (i + 1 < kSetups) server_->stop();
    }
    server_selfcheck();
    quiesce();
  }

  /// The load outgrows WAL_MAX_BYTES, so the server rewrites its log
  /// (snapshot + truncate) in the background.  Wait for that to finish
  /// so it never overlaps the measured phase.
  void quiesce() {
    Connection c(server_->port());
    auto config = [&](const std::string& name) {
      const Resp r = c.call({"GRAPH.CONFIG", "GET", name});
      return scalar_of_row(r);
    };
    const auto deadline = Clock::now() + std::chrono::seconds(60);
    while (config("WAL_SIZE_BYTES") >= config("WAL_MAX_BYTES")) {
      if (Clock::now() > deadline)
        throw std::runtime_error("WAL rewrite did not finish");
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  /// The hand-built cycle + multi-edge graph, answered by the server.
  void server_selfcheck() {
    Connection c(server_->port());
    for (const auto& argv : bulk_commands(selfcheck_graph(), "selfcheck"))
      c.call(argv);
    auto ask = [&](const std::string& text) {
      return scalar_of(c.call({kReadCommand, "selfcheck", text}));
    };
    bool ok = ask(point_query(0)) ==
              static_cast<long long>(kSelfcheckOutEdges0);
    for (unsigned k = 1; k <= kMaxK; ++k)
      ok = ok && ask(khop_query(0, k)) ==
                     static_cast<long long>(kSelfcheckKhop0[k]);
    if (!ok) tally_.problem("server disagrees on the hand-built graph");
  }

  /// One reader connection, closed loop until `deadline`.  k-hop
  /// readers ask each drawn seed at k = 1, 2, 3 (a whole round).
  void reader(Clock::time_point deadline, std::uint64_t stream) {
    Rng rng(args_.seed ^ (stream * 0x2545f4914f6cdd1dULL));
    Connection c(server_->port());
    std::vector<double> lat;
    std::uint64_t failed = 0;
    const std::size_t round = w_.khop ? kMaxK : 1;
    while (Clock::now() < deadline) {
      const std::size_t base = rng.below(reads_.size() / round) * round;
      for (std::size_t j = 0; j < round; ++j) {
        const ReadOp& op = reads_[base + j];
        const auto sent = Clock::now();
        const Resp r = c.call(read_cmd(op.text));
        lat.push_back(us_between(sent, Clock::now()));
        if (r.is_error()) {
          ++failed;
        } else if (scalar_of(r) != op.expect) {
          tally_.problem(op.text + ": got " + std::to_string(scalar_of(r)) +
                         ", oracle " + std::to_string(op.expect));
        }
      }
    }
    std::lock_guard lk(tally_.mu);
    tally_.reads += lat.size() - failed;
    tally_.attempted += lat.size();
    tally_.failed += failed;
    tally_.read_us.insert(tally_.read_us.end(), lat.begin(), lat.end());
  }

  /// One writer connection, open loop: write i is sent at t0 + i/rate
  /// by one thread while another collects the replies, and its latency
  /// runs from the scheduled send time (so a stalled server cannot hide
  /// its queue).  Lateness is how far the sender missed its schedule.
  void open_loop_writer(Clock::time_point t0, std::size_t n) {
    std::vector<std::string> texts;
    Rng rng(args_.seed ^ 0x5eedf00dULL);
    for (std::size_t i = 0; i < n; ++i) texts.push_back(next_write(oracle_, rng).text);
    std::vector<Clock::time_point> sched(n);
    for (std::size_t i = 0; i < n; ++i)
      sched[i] = t0 + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(i / kWriteRate));
    Connection c(server_->port());
    std::vector<double> lateness(n);
    std::exception_ptr send_error;
    std::thread sender([&] {
      try {
        for (std::size_t i = 0; i < n; ++i) {
          std::this_thread::sleep_until(sched[i]);
          lateness[i] = us_between(sched[i], Clock::now());
          c.send(write_cmd(texts[i]));
        }
      } catch (...) {
        send_error = std::current_exception();
      }
    });
    struct Joiner {
      std::thread& t;
      ~Joiner() { t.join(); }
    } joiner{sender};
    std::vector<double> lat;
    std::uint64_t failed = 0, acked = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Resp r = c.read_reply();
      lat.push_back(us_between(sched[i], Clock::now()));
      if (r.is_error()) ++failed;
      else if (wrote_one_x(r)) ++acked;
      else tally_.problem("write reply without one node + one edge created");
    }
    if (send_error) std::rethrow_exception(send_error);
    std::lock_guard lk(tally_.mu);
    tally_.attempted += n;
    tally_.failed += failed;
    tally_.writes_acked += acked;
    tally_.write_us.insert(tally_.write_us.end(), lat.begin(), lat.end());
    tally_.lateness_us = lateness;
  }

  void measure() {
    const auto t0 = Clock::now();
    const auto deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(args_.seconds));
    // A connection failure on any thread ends the run once all joined.
    std::mutex error_mu;
    std::exception_ptr error;
    auto guarded = [&](auto fn) {
      return [&error_mu, &error, fn] {
        try {
          fn();
        } catch (...) {
          std::lock_guard lk(error_mu);
          if (!error) error = std::current_exception();
        }
      };
    };
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < w_.readers; ++i)
      threads.emplace_back(guarded(
          [this, deadline, i] { reader(deadline, i + 1); }));
    if (w_.writer_beside_readers) {
      const auto n = static_cast<std::size_t>(args_.seconds * kWriteRate);
      threads.emplace_back(
          guarded([this, t0, n] { open_loop_writer(t0, n); }));
    }
    for (auto& t : threads) t.join();
    if (error) std::rethrow_exception(error);
    read_seconds_ = seconds_since(t0);
  }

  /// Every acknowledged write left exactly one :X node and one edge.
  void check_written(const ServerProcess& s, const std::string& when) {
    Connection c(s.port());
    const long long nodes = scalar_of(c.call(read_cmd(kCountXNodes)));
    const long long edges = scalar_of(c.call(read_cmd(kCountXEdges)));
    const auto want = static_cast<long long>(tally_.writes_acked);
    if (nodes != want || edges != want)
      tally_.problem(when + ": " + std::to_string(nodes) + " :X nodes and " +
                     std::to_string(edges) + " :X edges for " +
                     std::to_string(want) + " acknowledged writes");
  }

  /// Restart on the last data dir kRestarts times (a clean stop writes
  /// nothing, so each restart recovers the same state); recovery_s is
  /// the median time from process start until a query is answered.  The
  /// written counts and a read must survive every restart.
  void restart() {
    for (int i = 0; i < kRestarts; ++i) {
      const auto t0 = Clock::now();
      ServerProcess s(args_.server, data_dir(kSetups - 1));
      Connection c(s.port());
      const Resp r = c.call(read_cmd(reads_.front().text));
      recovery_runs_s_.push_back(seconds_since(t0));
      if (scalar_of(r) != reads_.front().expect)
        tally_.problem("read after restart disagrees with the oracle");
      check_written(s, "after restart");
      s.stop();
    }
  }

  const Args& args_;
  const Workload w_;
  const EdgeList graph_;
  Oracle oracle_;
  Rng rng_;
  std::vector<ReadOp> reads_;
  std::unique_ptr<ServerProcess> server_;
  Tally tally_;
  std::vector<double> setup_s_;
  std::vector<double> recovery_runs_s_;
  double read_seconds_ = 0, rss_mb_ = 0;
};

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  try {
    const pb::Args args = pb::parse_args(argc, argv);
    if (args.server.empty()) throw std::invalid_argument("--server is required");
    if (!pb::oracle_selfcheck()) {
      std::fprintf(stderr, "oracle self-check failed\n");
      return 1;
    }
    pb::Run run(args, pb::workload_by_name(args.workload));
    run.execute();
    run.report();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_load: %s\n", e.what());
    return 1;
  }
}

// perfbench_trace — the traced per-layer run.
//
// Replays a workload's requests in-process, layer by layer, without
// tracing inside the engine: every layer is timed by calling that
// module's public functions on the same request (the socket round trip
// through an in-process NetServer, Server::execute, encode_result_set,
// split_param_header, PlanCache::acquire, ExecutionPlan::run, the
// KHopCounter kernel, and for writes cypher::parse, ExecutionPlan
// construction, Graph::add_node/add_edge/flush, EpochManager::pin_or_fork
// and DurabilityManager::append on a shadow copy).  Counters come from
// what the server exposes: GRAPH.INFO, GRAPH.CONFIG GET and GRAPH.MEMORY.
//
// Spans share a request id, form a logical tree (a layer's children are
// the layers below it on the same request), are kept in memory and are
// written to --trace-out when the run ends; a span's self time is its
// duration minus its children's.  Prints the record line and the result
// line with every per-layer metric (see common.hpp).
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>

#include "algo/khop.hpp"
#include "common.hpp"
#include "cypher/param_header.hpp"
#include "cypher/parser.hpp"
#include "exec/execution_plan.hpp"
#include "exec/plan_cache.hpp"
#include "graph/graph.hpp"
#include "graph/snapshot.hpp"
#include "persist/durability.hpp"
#include "resp_client.hpp"
#include "server/net_server.hpp"
#include "server/resp.hpp"
#include "server/server.hpp"
#include "workload.hpp"

namespace pb {
namespace {

namespace fs = std::filesystem;
using rg::server::Reply;

const std::string kKey = "g";
/// resp_server's default worker count.
constexpr std::size_t kServerThreads = 4;
/// Closed-loop writes after the reads (workloads without a writer).
constexpr unsigned kTraceWrites = 50;
/// mixed_rw: one write after every this many reads.
constexpr unsigned kReadsPerWrite = 100;

class Tracer {
 public:
  struct Span {
    const char* name;
    std::uint64_t req;
    int parent;
    double start_us, dur_us;
  };

  /// Record a span measured as [t0, t1]; returns its id for children.
  int add(const char* name, std::uint64_t req, int parent,
          Clock::time_point t0, Clock::time_point t1) {
    return add_us(name, req, parent, us_between(origin_, t0),
                  us_between(t0, t1));
  }
  /// Record a span whose duration comes from a server counter.
  int add_us(const char* name, std::uint64_t req, int parent, double start_us,
             double dur_us) {
    spans_.push_back({name, req, parent, start_us, dur_us});
    return static_cast<int>(spans_.size() - 1);
  }

  /// Duration minus the children's durations, per span.
  std::vector<double> self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].dur_us;
    for (const auto& s : spans_)
      if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.dur_us;
    return self;
  }
  std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const auto& s : spans_)
      if (name == s.name) out.push_back(s.dur_us);
    return out;
  }
  std::vector<double> selves(const std::string& name) const {
    const auto self = self_times();
    std::vector<double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (name == spans_[i].name) out.push_back(self[i]);
    return out;
  }

  void write(const std::string& path) const {
    if (path.empty()) return;
    const auto self = self_times();
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"req\": " << s.req << ", \"id\": " << i
          << ", \"parent\": " << s.parent << ", \"name\": " << quoted(s.name)
          << ", \"start_us\": " << num(s.start_us)
          << ", \"dur_us\": " << num(s.dur_us)
          << ", \"self_us\": " << num(self[i]) << "}\n";
    }
  }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Name -> integer rows of a name/value reply (GRAPH.INFO, GRAPH.CONFIG
/// GET, GRAPH.MEMORY USAGE).
std::map<std::string, long long> rows_of(const Reply& r) {
  std::map<std::string, long long> out;
  for (const auto& row : r.result.rows)
    if (row.size() == 2 && row[0].is_string() && row[1].is_int())
      out[row[0].as_string()] = row[1].as_int();
  return out;
}

/// The only cell of a one-row, one-column result, or -1.
long long cell_of(const rg::exec::ResultSet& rs) {
  if (rs.rows.size() != 1 || rs.rows[0].size() != 1 || !rs.rows[0][0].is_int())
    return -1;
  return rs.rows[0][0].as_int();
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir))
    if (e.is_regular_file()) total += e.file_size();
  return total;
}

struct ReadReq {
  std::string text;
  std::uint32_t seed;
  unsigned k;
  long long expect;         // the query's answer (oracle)
  long long expect_kernel;  // distinct vertices within k hops (oracle)
};

class Replay {
 public:
  Replay(const Args& args, const Workload& w)
      : args_(args),
        w_(w),
        graph_(make_graph(w, args.seed)),
        oracle_(graph_),
        rng_(args.seed * 0x9e3779b97f4a7c15ULL + 7),
        wrng_(args.seed ^ 0x5eedf00dULL) {
    data_dir_ = args.workdir + "/data";
    fs::create_directories(data_dir_);
    fs::create_directories(args.workdir + "/shadow-wal");
    durability_.data_dir = data_dir_;
    durability_.options.fsync = rg::persist::FsyncPolicy::kEverySec;
  }

  void execute() {
    load();
    auto before = counters();
    const auto t0 = Clock::now();
    replay();
    untraced_pass();
    const double replay_s = seconds_since(t0);
    auto after = counters();
    derive_counters(before, after, replay_s);
    memory_and_disk();
    check_written("after the replay");
    restart();
    tracer_.write(args_.trace_out);
  }

  void report() {
    auto med = [&](const char* name) { return median(tracer_.durations(name)); };
    m_.set("net.self_us", median(tracer_.selves("net")), "us");
    m_.set("resp.encode_us", med("resp.encode"), "us");
    m_.set("server.execute_us", med("server.execute"), "us");
    m_.set("server.handoff_us", median(tracer_.selves("server.execute")), "us");
    m_.set("server.bulk_edges_per_s", bulk_edges_per_s_, "edges/s");
    m_.set("cypher.split_us", med("cypher.split"), "us");
    m_.set("cypher.parse_us", med("cypher.parse"), "us");
    m_.set("exec.acquire_hit_us", med("exec.acquire_hit"), "us");
    m_.set("exec.plan_us", med("exec.plan"), "us");
    m_.set("exec.run_us", med("exec.run"), "us");
    m_.set("exec.kernel_gap_x", med("exec.run") / med("algo.khop"), "x");
    m_.set("algo.khop_us", med("algo.khop"), "us");
    m_.set("algo.frontier_edges", median(frontier_edges_), "count");
    m_.set("graph.write_apply_us", med("graph.write_apply"), "us");
    m_.set("graph.flush_us", med("graph.flush"), "us");
    m_.set("graph.epoch_fork_us", med("graph.epoch_fork"), "us");
    m_.set("persist.append_us", med("persist.append"), "us");
    m_.set("trace.overhead_pct",
           (median(tracer_.durations("net")) / median(untraced_us_) - 1) * 100,
           "%");
    const std::string fields =
        "\"workload\": " + quoted(w_.name) +
        ", \"seed\": " + std::to_string(args_.seed) +
        ", \"seconds\": " + num(args_.seconds) + ", \"traced\": true" +
        ", \"graph\": {\"kind\": " +
        quoted(w_.twitter ? "twitter_like" : "graph500") +
        ", \"scale\": " + std::to_string(w_.scale) +
        ", \"edgefactor\": " + std::to_string(w_.edgefactor) +
        ", \"vertices\": " + std::to_string(graph_.n) +
        ", \"edges\": " + std::to_string(graph_.edges.size()) + "}" +
        ", \"reads\": " + std::to_string(reads_done_) +
        ", \"writes\": " + std::to_string(writes_done_) +
        ", \"problems\": " + std::to_string(problems_) +
        ", \"trace_file\": " + quoted(args_.trace_out);
    print_result(fields, problems_ == 0, attempted_, failed_, m_);
  }

 private:
  void problem(const std::string& what) {
    if (problems_++ < 8) std::fprintf(stderr, "perfbench_trace: %s\n", what.c_str());
  }

  Reply call(std::vector<std::string> argv) {
    return core_->execute(std::move(argv));
  }

  /// A command's cumulative handler microseconds (GRAPH.INFO
  /// commandstats "cmdstat_<command>" "usec=").
  double handler_usec(const char* command) {
    std::string row_name = std::string("cmdstat_") + command;
    for (char& c : row_name) c = static_cast<char>(std::tolower(c));
    for (const auto& row : call({"GRAPH.INFO", "commandstats"}).result.rows) {
      if (row.size() != 2 || row[0].as_string() != row_name) continue;
      const std::string& v = row[1].as_string();
      const auto at = v.find("usec=");
      return std::stod(v.substr(at + 5));
    }
    return 0;
  }

  std::map<std::string, long long> counters() {
    auto all = rows_of(call({"GRAPH.INFO", "mvcc"}));
    all.merge(rows_of(call({"GRAPH.INFO", "wal"})));
    all.merge(rows_of(call({"GRAPH.CONFIG", "GET", "*"})));
    return all;
  }

  void start_server() {
    core_ = std::make_unique<rg::server::Server>(kServerThreads, durability_);
    net_ = std::make_unique<rg::server::NetServer>(*core_, 0);
    conn_ = std::make_unique<Connection>(net_->port());
  }

  /// GRAPH.BULK through Server::execute (server.bulk_edges_per_s), the
  /// same graph built directly as the shadow for write-layer timing,
  /// then wait out the WAL rewrite the load triggers.
  void load() {
    start_server();
    double bulk_s = 0;
    for (auto& argv : bulk_commands(graph_, kKey)) {
      const auto t0 = Clock::now();
      const Reply r = call(std::move(argv));
      bulk_s += seconds_since(t0);
      if (!r.ok()) throw std::runtime_error("GRAPH.BULK: " + r.text);
    }
    bulk_edges_per_s_ = static_cast<double>(graph_.edges.size()) / bulk_s;

    for (std::uint32_t v = 0; v < graph_.n; ++v) shadow_.add_node({});
    shadow_e_ = shadow_.schema().add_reltype("E");
    for (const auto& [s, d] : graph_.edges) shadow_.add_edge(shadow_e_, s, d);
    shadow_x_ = shadow_.schema().add_label("X");
    shadow_tag_ = shadow_.schema().add_attr("tag");
    shadow_.flush();
    wal_ = std::make_unique<rg::persist::DurabilityManager>(
        args_.workdir + "/shadow-wal", durability_.options);
    wal_->open_and_replay([](std::uint64_t, const std::vector<std::string>&) {
      return true;
    });

    const auto deadline = Clock::now() + std::chrono::seconds(60);
    for (;;) {
      auto c = rows_of(call({"GRAPH.CONFIG", "GET", "*"}));
      if (c["WAL_SIZE_BYTES"] < c["WAL_MAX_BYTES"]) break;
      if (Clock::now() > deadline)
        throw std::runtime_error("WAL rewrite did not finish");
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    live_ = &core_->graph_for_testing(kKey);
    live_e_ = *live_->schema().find_reltype("E");
  }

  std::vector<ReadReq> read_requests() {
    std::vector<ReadReq> out;
    if (w_.khop) {
      for (std::uint32_t s : pick_seeds(oracle_, kKhopSeedPool, rng_)) {
        const auto c = oracle_.khop(s, kMaxK);
        for (unsigned k = 1; k <= kMaxK; ++k)
          out.push_back({khop_query(s, k), s, k, static_cast<long long>(c[k]),
                         static_cast<long long>(c[k])});
      }
    } else {
      for (std::uint32_t s : pick_seeds(oracle_, 4096, rng_))
        out.push_back({point_query(s), s, 1,
                       static_cast<long long>(oracle_.out_edges(s)),
                       static_cast<long long>(oracle_.khop(s, 1)[1])});
    }
    return out;
  }

  void traced_read(const ReadReq& rq) {
    const std::uint64_t req = next_req_++;
    ++attempted_;
    const std::vector<std::string> argv = {kReadCommand, kKey, rq.text};

    auto t0 = Clock::now();
    const Resp sock = conn_->call(argv);
    auto t1 = Clock::now();
    const int net = tracer_.add("net", req, -1, t0, t1);
    if (sock.is_error()) {
      ++failed_;
      return;
    }
    if (scalar_of(sock) != rq.expect) problem("socket reply: " + rq.text);
    untraced_texts_.push_back(&rq);

    const double usec0 = handler_usec(kReadCommand);
    t0 = Clock::now();
    const Reply reply = call(argv);
    t1 = Clock::now();
    const int exe = tracer_.add("server.execute", req, net, t0, t1);
    const int handler = tracer_.add_us("server.handler", req, exe, 0,
                                       handler_usec(kReadCommand) - usec0);
    if (cell_of(reply.result) != rq.expect) problem("execute reply: " + rq.text);

    t0 = Clock::now();
    const std::string wire = rg::server::encode_result_set(reply.result);
    t1 = Clock::now();
    tracer_.add("resp.encode", req, net, t0, t1);

    t0 = Clock::now();
    auto split = rg::cypher::split_param_header(rq.text);
    t1 = Clock::now();
    tracer_.add("cypher.split", req, handler, t0, t1);

    t0 = Clock::now();
    auto lease = cache_.acquire(*live_, split.body, std::move(split.params));
    t1 = Clock::now();
    tracer_.add(lease.hit() ? "exec.acquire_hit" : "exec.acquire_miss", req,
                handler, t0, t1);

    rg::exec::ResultSet rs;
    t0 = Clock::now();
    lease->run(rs);
    t1 = Clock::now();
    const int run = tracer_.add("exec.run", req, handler, t0, t1);
    lease.reset();
    if (cell_of(rs) != rq.expect) problem("plan run: " + rq.text);

    rg::algo::KHopCounter kernel(live_->relation(live_e_),
                                 live_->relation_t(live_e_));
    t0 = Clock::now();
    const auto st = kernel.run(rq.seed, rq.k);
    t1 = Clock::now();
    tracer_.add("algo.khop", req, run, t0, t1);
    frontier_edges_.push_back(static_cast<double>(st.frontier_edges));
    if (static_cast<long long>(st.count) != rq.expect_kernel)
      problem("kernel: " + rq.text);
    ++reads_done_;
  }

  void traced_write() {
    const std::uint64_t req = next_req_++;
    ++attempted_;
    const WriteOp op = next_write(oracle_, wrng_);

    const double usec0 = handler_usec(kWriteCommand);
    auto t0 = Clock::now();
    const Reply reply = call({kWriteCommand, kKey, op.text});
    auto t1 = Clock::now();
    if (!reply.ok()) {
      ++failed_;
      return;
    }
    if (reply.result.stats.nodes_created != 1 ||
        reply.result.stats.edges_created != 1)
      problem("write reply: " + op.text);
    ++writes_done_;
    const int exe = tracer_.add("write.execute", req, -1, t0, t1);
    const int handler = tracer_.add_us("write.handler", req, exe, 0,
                                       handler_usec(kWriteCommand) - usec0);

    t0 = Clock::now();
    const rg::cypher::Query ast = rg::cypher::parse(op.text);
    t1 = Clock::now();
    tracer_.add("cypher.parse", req, handler, t0, t1);

    t0 = Clock::now();
    { rg::exec::ExecutionPlan plan(shadow_, ast); }
    t1 = Clock::now();
    tracer_.add("exec.plan", req, handler, t0, t1);

    rg::graph::AttributeSet attrs;
    attrs.set(shadow_tag_, rg::graph::Value(op.tag));
    t0 = Clock::now();
    const auto x = shadow_.add_node({shadow_x_}, std::move(attrs));
    shadow_.add_edge(shadow_e_, x, op.target);
    t1 = Clock::now();
    tracer_.add("graph.write_apply", req, handler, t0, t1);

    t0 = Clock::now();
    shadow_.flush();
    t1 = Clock::now();
    tracer_.add("graph.flush", req, handler, t0, t1);

    auto retired = epochs_.invalidate();
    t0 = Clock::now();
    auto pinned = epochs_.pin_or_fork(shadow_, writes_done_);
    t1 = Clock::now();
    tracer_.add("graph.epoch_fork", req, handler, t0, t1);
    retired.reset();

    t0 = Clock::now();
    wal_->append({kWriteCommand, kKey, op.text});
    t1 = Clock::now();
    tracer_.add("persist.append", req, handler, t0, t1);
  }

  /// Reads in whole rounds until half the run length has passed (k-hop:
  /// one seed at k = 1, 2, 3; mixed_rw: kReadsPerWrite reads and a
  /// write), then the closed-loop writes of the other workloads.
  void replay() {
    reads_ = read_requests();
    const std::size_t round = w_.khop ? kMaxK : 1;
    // Warm the in-process plan cache so acquire is timed on hits.
    for (std::size_t i = 0; i < round; ++i) {
      auto split = rg::cypher::split_param_header(reads_[i].text);
      cache_.acquire(*live_, split.body, std::move(split.params));
    }
    const auto t0 = Clock::now();
    std::uint64_t rounds = 0;
    while (seconds_since(t0) < args_.seconds / 2) {
      const std::size_t base = rng_.below(reads_.size() / round) * round;
      for (std::size_t j = 0; j < round; ++j) traced_read(reads_[base + j]);
      if (w_.writer_beside_readers && ++rounds % kReadsPerWrite == 0)
        traced_write();
    }
    if (!w_.writer_beside_readers)
      for (unsigned i = 0; i < kTraceWrites; ++i) traced_write();
  }

  /// The same reads over the socket with only a clock around each: the
  /// baseline for trace.overhead_pct.
  void untraced_pass() {
    for (const ReadReq* rq : untraced_texts_) {
      const auto t0 = Clock::now();
      const Resp r = conn_->call({kReadCommand, kKey, rq->text});
      untraced_us_.push_back(us_between(t0, Clock::now()));
      if (scalar_of(r) != rq->expect) problem("untraced reply: " + rq->text);
    }
  }

  void derive_counters(std::map<std::string, long long>& before,
                       std::map<std::string, long long>& after,
                       double replay_s) {
    auto delta = [&](const char* name) {
      return static_cast<double>(after[name] - before[name]);
    };
    const double writes = static_cast<double>(writes_done_);
    const double hits = delta("PLAN_CACHE_HITS");
    m_.set("exec.plan_cache_hit_ratio",
           hits / (hits + delta("PLAN_CACHE_MISSES")), "ratio");
    m_.set("graph.epochs_published_per_write",
           delta("MVCC_EPOCHS_PUBLISHED") / writes, "count");
    m_.set("graph.pins_slow", delta("MVCC_PINS_SLOW"), "count");
    m_.set("persist.wal_bytes_per_write", delta("WAL_BYTES") / writes, "bytes");
    m_.set("persist.fsyncs_per_s", delta("WAL_FSYNCS") / replay_s, "1/s");
  }

  void memory_and_disk() {
    auto mem = rows_of(call({"GRAPH.MEMORY", "USAGE", kKey}));
    m_.set("mem.bytes_per_edge", static_cast<double>(mem["BYTES_PER_EDGE"]),
           "bytes");
    m_.set("mem.matrices_bytes", static_cast<double>(mem["MATRICES_BYTES"]),
           "bytes");
    m_.set("mem.delta_overlays_bytes",
           static_cast<double>(mem["DELTA_OVERLAYS_BYTES"]), "bytes");
    m_.set("mem.properties_bytes", static_cast<double>(mem["PROPERTIES_BYTES"]),
           "bytes");
    m_.set("mem.dictionary_bytes", static_cast<double>(mem["DICTIONARY_BYTES"]),
           "bytes");
    m_.set("persist.disk_bytes_per_edge",
           static_cast<double>(dir_bytes(data_dir_)) /
               static_cast<double>(graph_.edges.size() + writes_done_),
           "bytes");
  }

  void check_written(const std::string& when) {
    const long long nodes =
        cell_of(call({kReadCommand, kKey, kCountXNodes}).result);
    const long long edges =
        cell_of(call({kReadCommand, kKey, kCountXEdges}).result);
    const auto want = static_cast<long long>(writes_done_);
    if (nodes != want || edges != want)
      problem(when + ": :X nodes/edges do not match the writes");
  }

  /// Tear the server down and reopen its data dir: frames replayed per
  /// second of recovery.
  void restart() {
    conn_.reset();
    net_.reset();
    live_ = nullptr;
    core_.reset();
    const auto t0 = Clock::now();
    core_ = std::make_unique<rg::server::Server>(kServerThreads, durability_);
    const double recovery_s = seconds_since(t0);
    auto c = rows_of(call({"GRAPH.CONFIG", "GET", "WAL_REPLAYED_FRAMES"}));
    m_.set("persist.replay_frames_per_s",
           static_cast<double>(c["WAL_REPLAYED_FRAMES"]) / recovery_s, "1/s");
    check_written("after restart");
    core_.reset();
  }

  const Args& args_;
  const Workload w_;
  const EdgeList graph_;
  Oracle oracle_;
  Rng rng_, wrng_;
  std::string data_dir_;
  rg::server::DurabilityConfig durability_;
  std::unique_ptr<rg::server::Server> core_;
  std::unique_ptr<rg::server::NetServer> net_;
  std::unique_ptr<Connection> conn_;
  rg::graph::Graph* live_ = nullptr;
  rg::graph::RelTypeId live_e_{};
  rg::exec::PlanCache cache_;

  rg::graph::Graph shadow_;
  rg::graph::RelTypeId shadow_e_{};
  rg::graph::LabelId shadow_x_{};
  rg::graph::AttrId shadow_tag_{};
  rg::graph::EpochManager epochs_;
  std::unique_ptr<rg::persist::DurabilityManager> wal_;

  Tracer tracer_;
  Metrics m_;
  std::vector<ReadReq> reads_;
  std::vector<const ReadReq*> untraced_texts_;
  std::vector<double> untraced_us_, frontier_edges_;
  double bulk_edges_per_s_ = 0;
  std::uint64_t next_req_ = 1, reads_done_ = 0, writes_done_ = 0;
  std::uint64_t attempted_ = 0, failed_ = 0, problems_ = 0;
};

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  try {
    const pb::Args args = pb::parse_args(argc, argv);
    if (!pb::oracle_selfcheck()) {
      std::fprintf(stderr, "oracle self-check failed\n");
      return 1;
    }
    pb::Replay replay(args, pb::workload_by_name(args.workload));
    replay.execute();
    replay.report();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_trace: %s\n", e.what());
    return 1;
  }
}

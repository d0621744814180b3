// MVCC epoch lifecycle edge cases: pin -> delta-apply -> commit ->
// retire (see docs/CONCURRENCY.md).  Covers the snapshot-pin protocol
// at the graph layer (EpochManager + Graph::fork) and the server wiring
// (lock-free read path, the commit step's retire-before-append and
// republish, GRAPH.BULK through the delta path, replication apply vs
// replica-local pins).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/graph.hpp"
#include "graph/snapshot.hpp"
#include "server/command.hpp"
#include "server/net_server.hpp"
#include "server/server.hpp"
#include "util/temp_dir.hpp"

namespace rg {
namespace {

using namespace std::chrono_literals;

bool wait_until(const std::function<bool()>& pred,
                std::chrono::milliseconds timeout = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return pred();
}

/// n nodes in a chain: 0 -E-> 1 -E-> ... -E-> n-1.
std::unique_ptr<graph::Graph> chain_graph(int n) {
  auto g = std::make_unique<graph::Graph>();
  const auto label = g->schema().add_label("N");
  const auto type = g->schema().add_reltype("E");
  std::vector<graph::NodeId> ids;
  for (int i = 0; i < n; ++i) ids.push_back(g->add_node({label}));
  for (int i = 0; i + 1 < n; ++i) g->add_edge(type, ids[i], ids[i + 1]);
  return g;
}

// --- epoch lifecycle at the graph layer ------------------------------------

// A pinned epoch must outlive both the live graph and the manager that
// published it — the server-level contract that a reader's snapshot
// survives GRAPH.DELETE unlinking the key.
TEST(EpochLifecycle, SnapshotOutlivesLiveGraphAndManager) {
  auto live = chain_graph(100);
  auto em = std::make_unique<graph::EpochManager>();

  auto snap = em->pin_or_fork(*live, /*last_lsn=*/7);
  ASSERT_TRUE(snap);
  EXPECT_EQ(snap->last_lsn(), 7u);

  // Writer mutates and commits (invalidate), then the key "dies".
  live->delete_node(0);
  em->invalidate();
  em.reset();
  live.reset();

  // The snapshot still serves the pre-delete state.
  EXPECT_EQ(snap->graph().node_count(), 100u);
  EXPECT_EQ(snap->graph().edge_count(), 99u);
  EXPECT_EQ(snap->graph().adjacency().nvals(), 99u);
}

// A published epoch always reflects every acknowledged write: writers
// invalidate at commit, so the next pin re-forks the fresh state.
TEST(EpochLifecycle, PinAfterInvalidateSeesTheWrite) {
  auto live = chain_graph(10);
  graph::EpochManager em;

  auto s1 = em.pin_or_fork(*live, 1);
  EXPECT_EQ(s1->graph().node_count(), 10u);
  // Fast path returns the same epoch while no writer commits.
  EXPECT_EQ(em.try_pin().get(), s1.get());

  live->add_node({});
  em.invalidate();
  EXPECT_EQ(em.try_pin(), nullptr);  // reader must take the slow path

  auto s2 = em.pin_or_fork(*live, 2);
  EXPECT_NE(s2->epoch(), s1->epoch());
  EXPECT_EQ(s2->graph().node_count(), 11u);
  EXPECT_EQ(s1->graph().node_count(), 10u);  // old epoch is immutable

  const auto& st = em.stats();
  EXPECT_EQ(st.epochs_published.load(), 2u);
  EXPECT_EQ(st.invalidations.load(), 1u);
}

// Post-fork mutations on the live side never leak into the snapshot:
// matrices, datablock pages, the multi-edge side table and indexes all
// copy-on-write.
TEST(EpochLifecycle, LiveMutationsNeverReachTheSnapshot) {
  auto live = chain_graph(50);
  const auto label = live->schema().add_label("N");
  const auto attr = live->schema().add_attr("score");
  live->create_index(label, attr);
  graph::EpochManager em;
  auto snap = em.pin_or_fork(*live, 1);

  const auto type = live->schema().add_reltype("E");
  live->add_edge(type, 3, 3);               // matrix delta
  live->add_edge(type, 0, 1);               // parallel edge (side table)
  live->set_node_attr(5, attr, graph::Value(std::int64_t{42}));  // index
  live->delete_node(10);                    // datablock + tombstones
  live->flush();

  EXPECT_EQ(live->node_count(), 49u);
  EXPECT_EQ(snap->graph().node_count(), 50u);
  EXPECT_EQ(snap->graph().edge_count(), 49u);
  EXPECT_EQ(snap->graph().edges_between(0, 1).size(), 1u);
  EXPECT_EQ(live->edges_between(0, 1).size(), 2u);
  const auto* idx = snap->graph().find_index(label, attr);
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->entry_count(), 0u);  // the attr write hit the live clone
}

// A fork of an unflushed graph folds its buffered deltas while
// long-running readers keep reading it: fold-at-most-once on a fork,
// and every accessor waits first (invariants [M1]-[M3], matrix.hpp).
TEST(EpochLifecycle, CoalesceRacesLongRunningReaders) {
  auto live = chain_graph(400);  // leave deltas buffered: no flush()
  graph::EpochManager em;
  auto snap = em.pin_or_fork(*live, 1);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        if (snap->graph().adjacency().nvals() != 399u) failures.fetch_add(1);
        std::size_t seen = 0;
        snap->graph().for_each_node(
            [&](graph::NodeId, const graph::NodeEntity&) { ++seen; });
        if (seen != 400u) failures.fetch_add(1);
      }
    });
  }
  for (int i = 0; i < 50; ++i) snap->graph().flush();
  std::this_thread::sleep_for(20ms);
  stop.store(true);
  for (auto& th : readers) th.join();
  EXPECT_EQ(failures.load(), 0);
}

// --- server wiring ---------------------------------------------------------

class MvccServerFixture : public ::testing::Test {
 protected:
  server::Server srv_{4};

  std::int64_t count(const std::string& key,
                     const std::string& q = "MATCH (n) RETURN count(*)") {
    const auto r = srv_.execute({"GRAPH.RO_QUERY", key, q});
    EXPECT_TRUE(r.ok()) << r.text;
    if (!r.ok() || r.result.rows.empty()) return -1;
    return r.result.rows[0][0].as_int();
  }

  std::int64_t info_mvcc(const std::string& name) {
    const auto r = srv_.execute({"GRAPH.INFO", "mvcc"});
    EXPECT_TRUE(r.ok()) << r.text;
    for (const auto& row : r.result.rows)
      if (row[0].as_string() == name) return row[1].as_int();
    return -1;
  }
};

// Read-your-writes through the epoch path: every commit invalidates, so
// the next RO_QUERY pin must fork a snapshot containing the write.
TEST_F(MvccServerFixture, ReadYourWrites) {
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(srv_.execute({"GRAPH.QUERY", "g", "CREATE (:P)"}).ok());
    EXPECT_EQ(count("g"), i);
  }
  EXPECT_GE(info_mvcc("MVCC_INVALIDATIONS"), 1);
  EXPECT_GE(info_mvcc("MVCC_EPOCHS_PUBLISHED"), 1);
}

// GRAPH.BULK batches flow through the delta overlays and land in the
// next pinned epoch exactly once.
TEST_F(MvccServerFixture, BulkBatchesReachTheNextEpoch) {
  std::vector<std::string> argv = {"GRAPH.BULK", "g", "NODES", "100", "P",
                                   "EDGES", "E", "99"};
  for (int i = 0; i + 1 < 100; ++i) {
    argv.push_back("@" + std::to_string(i));
    argv.push_back("@" + std::to_string(i + 1));
  }
  ASSERT_TRUE(srv_.execute(argv).ok());
  EXPECT_EQ(count("g"), 100);
  EXPECT_EQ(count("g", "MATCH ()-[]->() RETURN count(*)"), 99);
  // Repeating the batch mutates the SAME graph's deltas again.
  ASSERT_TRUE(srv_.execute(argv).ok());
  EXPECT_EQ(count("g"), 200);
}

// A read-only GRAPH.QUERY runs on the published epoch and leaves it
// published: reads neither retire it nor fork a successor.
TEST_F(MvccServerFixture, QueryReadsKeepThePublishedEpoch) {
  ASSERT_TRUE(srv_.execute({"GRAPH.QUERY", "g", "CREATE (:P)"}).ok());
  EXPECT_EQ(count("g"), 1);  // RO_QUERY publishes the first epoch
  const std::int64_t invalidations = info_mvcc("MVCC_INVALIDATIONS");
  const std::int64_t published = info_mvcc("MVCC_EPOCHS_PUBLISHED");
  const std::int64_t slow = info_mvcc("MVCC_PINS_SLOW");
  for (int i = 0; i < 100; ++i) {
    const auto r =
        srv_.execute({"GRAPH.QUERY", "g", "MATCH (n) RETURN count(*)"});
    ASSERT_TRUE(r.ok()) << r.text;
    EXPECT_EQ(r.result.rows[0][0].as_int(), 1);
  }
  EXPECT_EQ(info_mvcc("MVCC_INVALIDATIONS"), invalidations);
  EXPECT_EQ(info_mvcc("MVCC_EPOCHS_PUBLISHED"), published);
  EXPECT_EQ(info_mvcc("MVCC_PINS_SLOW"), slow);
}

// Readers never block on an active writer and always observe a
// consistent epoch (monotonic count, never a torn batch).
TEST_F(MvccServerFixture, ReadersSeeConsistentEpochsUnderWriteLoad) {
  constexpr int kWrites = 60;
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      std::int64_t last = 0;
      while (!stop.load()) {
        const auto r =
            srv_.execute({"GRAPH.RO_QUERY", "g", "MATCH (n) RETURN count(*)"});
        if (!r.ok() || r.result.rows.empty()) {
          violations.fetch_add(1);
          continue;
        }
        const std::int64_t n = r.result.rows[0][0].as_int();
        if (n < last || n > kWrites) violations.fetch_add(1);
        last = n;
      }
    });
  }
  for (int i = 0; i < kWrites; ++i)
    ASSERT_TRUE(srv_.execute({"GRAPH.QUERY", "g", "CREATE (:W)"}).ok());
  stop.store(true);
  for (auto& th : readers) th.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(count("g"), kWrites);
  EXPECT_GE(info_mvcc("MVCC_PINS_FAST") + info_mvcc("MVCC_PINS_SLOW"), 1);
}

// Concurrent RO_QUERY vs GRAPH.DELETE: in-flight pins keep their epoch
// (and its entry) alive while the key is unlinked and re-created.
TEST_F(MvccServerFixture, DeleteWhileReadersPin) {
  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        const auto r =
            srv_.execute({"GRAPH.RO_QUERY", "g", "MATCH (n) RETURN count(*)"});
        // A read racing the delete may see the fresh empty graph; it
        // must never error or crash.
        if (!r.ok()) errors.fetch_add(1);
      }
    });
  }
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(srv_.execute({"GRAPH.QUERY", "g", "CREATE (:P)"}).ok());
    srv_.execute({"GRAPH.DELETE", "g"});  // may race a re-creating reader
  }
  stop.store(true);
  for (auto& th : readers) th.join();
  EXPECT_EQ(errors.load(), 0);
}

// --- commit step vs snapshot rewrite --------------------------------------

/// TEST.ADD_THEN_REWRITE <key>: a registry-added write that adds one
/// node, commits through journal(), drops its lock and forces a
/// snapshot rewrite before returning.
server::Reply add_then_rewrite(server::CommandCtx& ctx) {
  {
    const auto& ge = ctx.entry();
    auto lk = ctx.exclusive_lock();
    graph::Graph& g = ge->graph;
    g.add_node({g.schema().add_label("N")});
    ctx.journal(ctx.argv());
  }
  ctx.server().force_snapshot();
  return {server::Reply::Kind::kStatus, "OK", {}};
}

// The commit step retires the published epoch before the WAL append, so
// a rewrite that runs between a write's append and the end of its
// command snapshots that write instead of dropping the log that holds
// it: both acknowledged nodes survive a restart.
TEST(MvccDurability, RewriteRightAfterCommitKeepsTheWrite) {
  auto& reg = server::CommandRegistry::instance();
  if (!reg.find("TEST.ADD_THEN_REWRITE"))
    reg.register_command({"TEST.ADD_THEN_REWRITE", 2, 2,
                          server::kWrite | server::kGraphKeyed,
                          "add one node, then force a rewrite (test)",
                          &add_then_rewrite});
  test::TempDir dir;
  server::DurabilityConfig dc;
  dc.data_dir = dir.path();
  dc.options.fsync = persist::FsyncPolicy::kNo;
  const std::vector<std::string> count = {"GRAPH.RO_QUERY", "g",
                                          "MATCH (n:N) RETURN count(n)"};
  {
    server::Server srv(2, dc);
    ASSERT_TRUE(srv.execute({"GRAPH.QUERY", "g", "CREATE (:N)"}).ok());
    const auto r = srv.execute(count);  // publishes an epoch
    ASSERT_TRUE(r.ok()) << r.text;
    ASSERT_EQ(r.result.rows[0][0].as_int(), 1);
    const auto w = srv.execute({"TEST.ADD_THEN_REWRITE", "g"});
    ASSERT_TRUE(w.ok()) << w.text;
  }
  server::Server srv(2, dc);
  const auto r = srv.execute(count);
  ASSERT_TRUE(r.ok()) << r.text;
  EXPECT_EQ(r.result.rows[0][0].as_int(), 2);
}

// Replication apply (CommandSource::kReplication) mutates the replica's
// graphs while replica-local RO_QUERY readers hold pins: the replica
// serves consistent snapshots throughout and converges to the primary.
TEST(MvccReplication, ApplyStreamVsReplicaLocalPins) {
  test::TempDir dir;
  server::DurabilityConfig dc;
  dc.data_dir = dir.path();
  dc.options.fsync = persist::FsyncPolicy::kNo;
  server::Server primary(2, dc);
  server::NetServer net(primary, /*port=*/0);
  server::Server replica(2);

  constexpr int kNodes = 40;
  ASSERT_TRUE(
      replica.execute({"REPLICAOF", "127.0.0.1", std::to_string(net.port())})
          .ok());

  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::thread reader([&] {
    std::int64_t last = 0;
    while (!stop.load()) {
      const auto r =
          replica.execute({"GRAPH.RO_QUERY", "g", "MATCH (n) RETURN count(*)"});
      if (!r.ok() || r.result.rows.empty()) continue;  // not synced yet
      const std::int64_t n = r.result.rows[0][0].as_int();
      if (n < last || n > kNodes) violations.fetch_add(1);
      last = n;
    }
  });
  for (int i = 0; i < kNodes; ++i)
    ASSERT_TRUE(primary.execute({"GRAPH.QUERY", "g", "CREATE (:N)"}).ok());

  EXPECT_TRUE(wait_until([&] {
    const auto r =
        replica.execute({"GRAPH.RO_QUERY", "g", "MATCH (n) RETURN count(*)"});
    return r.ok() && !r.result.rows.empty() &&
           r.result.rows[0][0].as_int() == kNodes;
  }));
  stop.store(true);
  reader.join();
  EXPECT_EQ(violations.load(), 0);
}

}  // namespace
}  // namespace rg

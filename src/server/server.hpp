// Redis-like server substrate hosting the graph module.
//
// Mirrors the architecture the paper describes (Section II):
//  * a single **dispatcher** thread owns command intake (Redis's main
//    thread): commands arrive via submit() and are forwarded to
//  * a fixed **worker pool** whose size is set at construction (the
//    module's load-time THREAD_COUNT): each query executes entirely on
//    one worker thread — queries never parallelize across workers,
//  * per-graph reader/writer locks let read queries run concurrently
//    while writes serialize (RedisGraph's lock around the graph object),
//  * per-graph **plan caches** (exec::PlanCache) give repeated queries
//    RedisGraph's cached-plan fast path: parameterized variants of one
//    query text skip lexer -> parser -> planner.
//
// Every client-facing operation is a row in the declarative command
// table (server/command.hpp), exactly as RedisGraph registers its
// commands with the Redis host: dispatch() is registry lookup + arity
// and flag enforcement + per-command metrics, never per-command code.
// The table drives locking (kWrite -> exclusive), WAL journaling
// (kWrite commands journal through CommandCtx; nothing else can) and
// the introspection surface (COMMAND, GRAPH.INFO commandstats,
// GRAPH.SLOWLOG).
//
// This class is the in-process core: embedders (tests, benchmarks) call
// submit()/execute() directly.  The TCP RESP front-end that real socket
// clients (redis-cli, examples/resp_client) talk to lives in
// server/net_server.hpp and feeds this same dispatcher/worker model.
//
// Durability (optional, src/persist): with a configured data dir every
// mutating command is journaled to a CRC-framed write-ahead log after
// it commits and before its reply is released (the role Redis AOF plays
// for RedisGraph), background rewrites snapshot the keyspace in RGR1
// format and truncate the log, and construction replays snapshot + WAL
// so a crashed server comes back with every acknowledged write (modulo
// the chosen fsync policy).
//
// Commands (see `COMMAND` or the README reference): GRAPH.QUERY,
// GRAPH.RO_QUERY, GRAPH.EXPLAIN, GRAPH.PROFILE, GRAPH.BULK,
// GRAPH.DELETE, GRAPH.LIST, GRAPH.SAVE, GRAPH.RESTORE, GRAPH.CONFIG,
// GRAPH.INFO, GRAPH.SLOWLOG, COMMAND, PING.
//
// Query texts may carry a RedisGraph-style parameter header:
//   "CYPHER name=1 handle='bob' MATCH (n {handle: $handle}) RETURN n"

#pragma once

#include <atomic>
#include <chrono>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/plan_cache.hpp"
#include "exec/result_set.hpp"
#include "graph/graph.hpp"
#include "graph/snapshot.hpp"
#include "persist/durability.hpp"
#include "server/command.hpp"
#include "server/replication.hpp"
#include "server/resp.hpp"
#include "util/sync.hpp"
#include "util/thread_pool.hpp"

namespace rg::server {

/// Durability settings passed at construction (the module's load-time
/// configuration).  An empty data_dir disables the subsystem: the server
/// is then purely in-memory, exactly as before.
struct DurabilityConfig {
  std::string data_dir;
  persist::Options options;
};

/// One graph key's server-side state.  Commands hold it by shared_ptr
/// (see CommandCtx::entry()), so GRAPH.DELETE/RESTORE can unlink an
/// entry from the keyspace while stragglers finish safely — the entry
/// dies with its last user.
struct GraphEntry {
  explicit GraphEntry(std::size_t cache_capacity)
      : plan_cache(cache_capacity) {}
  util::SharedMutex lock;
  graph::Graph graph RG_GUARDED_BY(lock);
  exec::PlanCache plan_cache;
  /// LSN of the last journaled write applied to this graph (the
  /// snapshot watermark); written under the exclusive lock, read for
  /// snapshots under the shared lock.
  std::uint64_t last_lsn RG_GUARDED_BY(lock) = 0;
  /// MVCC epoch chain for this graph (see graph/snapshot.hpp).  Readers
  /// pin snapshots through Server::pin(); the commit step
  /// (CommandCtx::journal) retires and republishes it under the
  /// exclusive `lock`.
  graph::EpochManager epochs;
  /// Set (before the unlink frame is journaled) when GRAPH.DELETE or
  /// GRAPH.RESTORE removes this entry from the keyspace: a write
  /// still holding the entry only touched a zombie graph and must
  /// not journal (it would resurrect the key on replay).  Checked
  /// atomically with the append via DurabilityManager::append_if.
  std::atomic<bool> unlinked{false};
};

/// Dispatch-level metrics for one command (GRAPH.INFO commandstats).
/// `calls` counts every dispatch, including arity/flag rejections;
/// `errors` counts error replies of any kind.
struct CommandStats {
  std::uint64_t calls = 0;
  std::uint64_t errors = 0;
  std::uint64_t usec_total = 0;  // cumulative handler latency
  std::uint64_t usec_max = 0;    // worst single call
};

/// One slow-command record (GRAPH.SLOWLOG GET).
struct SlowlogEntry {
  std::uint64_t id = 0;       // monotonic, survives RESET like Redis
  std::int64_t unix_time = 0; // seconds since epoch at completion
  std::uint64_t usec = 0;     // handler latency
  std::string command;        // argv joined, long args/tails truncated
};

class Server {
 public:
  /// `worker_threads` = module THREAD_COUNT (fixed at load time).
  /// A non-empty `durability.data_dir` opens (or creates) the data
  /// directory, recovers snapshot + WAL state before the constructor
  /// returns, and journals every subsequent mutating command.
  explicit Server(std::size_t worker_threads = 4,
                  const DurabilityConfig& durability = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Asynchronous command submission (the client API): the dispatcher
  /// assigns the command to one worker; the future resolves when that
  /// worker finishes.  argv[0] is the command name.
  std::future<Reply> submit(std::vector<std::string> argv);

  /// Synchronous convenience: submit and wait.
  Reply execute(std::vector<std::string> argv);

  /// Parse a space-separated command line (quotes respected) and execute.
  Reply execute_line(const std::string& line);

  /// Direct access to a graph (benchmarks seed data through this without
  /// paying the Cypher write path).  Creates the graph if absent.
  graph::Graph& graph_for_testing(const std::string& key);

  std::size_t worker_count() const;

  /// Aggregate plan-cache counters across every graph in the keyspace
  /// (what GRAPH.CONFIG GET PLAN_CACHE_* reports).
  exec::PlanCache::Counters plan_cache_counters() const;

  /// True when a data dir was configured and recovery succeeded.
  bool durable() const { return durability_ != nullptr; }

  /// Durability counters (zeros when durability is off).
  persist::Counters durability_counters() const;

  /// Force a snapshot + WAL-truncating rewrite now; no-op when
  /// durability is off.  Blocks until the rewrite is committed.
  void force_snapshot();

  // -- replication (see server/replication.hpp) --------------------------

  enum class Role { kPrimary, kReplica };
  Role role() const { return role_.load(std::memory_order_acquire); }

  /// REPLICAOF <host> <port>: become a read-only replica of that
  /// primary.  Starts (or re-points) the background link; returns
  /// immediately — sync progress is visible in GRAPH.INFO replication.
  /// Re-pointing at the SAME primary carries the applied LSN forward, so
  /// the new link attempts a partial resync from the retained WAL.
  void replicaof(const std::string& host, std::uint16_t port);

  /// REPLICAOF NO ONE: stop the link and promote to primary.  A durable
  /// server stamps its next LSN above everything applied and snapshots,
  /// so the promoted state is the durable baseline.
  void replicaof_no_one();

  /// Role + link/ack snapshot (GRAPH.INFO replication and tests).
  ReplicationInfo replication_info() const;

  /// Record a replica's fetch heartbeat: fetching from_lsn acknowledges
  /// everything below it (REPL.FETCH handler; wakes WAIT).  Acks whose
  /// heartbeat is older than the staleness window are pruned here and
  /// ignored by WAIT / GRAPH.INFO: a replica that restarted (fresh
  /// random id) or went silent must not keep satisfying WAIT with the
  /// ack its dead incarnation left behind.
  void note_replica_ack(const std::string& replica_id,
                        std::uint64_t acked_lsn);

  /// Staleness window for replica acks, in ms (heartbeats arrive every
  /// few ms on an idle link, so the default is generous; tests shrink
  /// it for determinism).
  std::uint64_t replica_ack_stale_ms() const {
    return replica_ack_stale_ms_.load(std::memory_order_relaxed);
  }
  void set_replica_ack_stale_ms(std::uint64_t ms) {
    replica_ack_stale_ms_.store(ms, std::memory_order_relaxed);
  }
  static constexpr std::uint64_t kDefaultReplicaAckStaleMs = 10'000;

  /// WAIT: block until `numreplicas` replicas acked the WAL offset
  /// current at the call (timeout_ms 0 = no deadline, like Redis);
  /// returns how many had acked when it returned.
  std::size_t wait_for_replicas(std::size_t numreplicas,
                                std::uint64_t timeout_ms);

  /// Test/debug knob: freeze the replica link's fetch loop (lag becomes
  /// deterministic); no-op when not replicating.
  void set_replication_paused(bool paused);

  // -- MVCC observability (GRAPH.INFO mvcc) ------------------------------

  /// Keyspace-wide MVCC gauges: per-entry EpochManager counters summed
  /// with the live graphs' buffered delta totals.
  struct MvccInfo {
    std::uint64_t epochs_published = 0;  // snapshots ever forked
    std::uint64_t epochs_live = 0;       // snapshots still pinned/queued
    std::uint64_t pins_fast = 0;         // lock-free pin hits
    std::uint64_t pins_slow = 0;         // forks that published an epoch
    std::uint64_t invalidations = 0;     // writer commits observed
    std::uint64_t delta_plus = 0;        // buffered matrix insertions
    std::uint64_t delta_minus = 0;       // buffered matrix deletions
  };
  MvccInfo mvcc_info() const;

  // -- command observability (GRAPH.INFO / GRAPH.SLOWLOG back ends) ------

  /// Snapshot of every registered command's dispatch metrics,
  /// name-sorted.  Commands never dispatched report zeros.
  std::vector<std::pair<const CommandSpec*, CommandStats>> command_stats()
      const;

  /// Newest-first slice of the slowlog (at most `count` entries;
  /// SIZE_MAX = all retained entries).
  std::vector<SlowlogEntry> slowlog_get(std::size_t count) const;
  std::size_t slowlog_len() const;
  void slowlog_reset();

  /// Commands whose handler latency reaches the threshold are logged;
  /// 0 logs everything, negative disables.  Runtime knob:
  /// GRAPH.CONFIG GET/SET SLOWLOG_THRESHOLD_US.
  std::int64_t slowlog_threshold_us() const {
    return slowlog_threshold_us_.load(std::memory_order_relaxed);
  }
  void set_slowlog_threshold_us(std::int64_t us) {
    slowlog_threshold_us_.store(us, std::memory_order_relaxed);
  }

  static constexpr std::size_t kSlowlogMaxLen = 128;
  static constexpr std::int64_t kDefaultSlowlogThresholdUs = 10000;

 private:
  friend class CommandCtx;
  friend struct CommandHandlers;
  friend class ReplicationClient;

  /// Registry lookup + arity/flag enforcement + metrics + slowlog.
  /// Every command — built-in or registered later — takes this path;
  /// there is deliberately no per-command branching here.  `source`
  /// selects the gate set: client dispatches face kInternal rejection,
  /// the replica read-only gate, journaling and the slowlog; WAL replay
  /// and replication apply are trusted re-application of already
  /// journaled frames and skip all four (re-journaling an applied frame
  /// would double it — see ci/lint_invariants.py rule replica-apply).
  Reply dispatch(const std::vector<std::string>& argv,
                 CommandSource source = CommandSource::kClient);

  /// Shared ownership: a command holds the returned pointer for its whole
  /// execution, so GRAPH.DELETE/RESTORE can unlink an entry from the
  /// keyspace while stragglers (including threads still blocked on
  /// entry->lock) finish safely — the entry dies with its last user.
  std::shared_ptr<GraphEntry> entry_for(const std::string& key);

  /// Fold a dying entry's cache counters into retired_counters_ so the
  /// CONFIG GET aggregate stays monotonic across GRAPH.DELETE/RESTORE.
  void retire_counters_locked(const GraphEntry& entry)
      RG_REQUIRES(keyspace_mu_);

  /// Unlink every graph from the keyspace (replica full sync starts
  /// clean; in-flight readers keep their entries alive via shared_ptr).
  void drop_all_graphs();

  // -- MVCC snapshot pinning (the kReadOnly path) ------------------------
  /// Pin the entry's current epoch snapshot.  Lock-free when an epoch
  /// is published (EpochManager::try_pin) — always, once a reader has
  /// pinned, because every commit republishes.  On a fresh or restored
  /// key it takes the entry lock SHARED just long enough to fork
  /// O(delta) and publish.  The returned snapshot stays valid after
  /// GRAPH.DELETE unlinks the key — the epoch retires when its last pin
  /// drops.
  std::shared_ptr<const graph::GraphSnapshot> pin(GraphEntry& ge);
  /// Defer a retired epoch's destruction to the reaper thread.  The
  /// commit step calls this with EpochManager::invalidate()'s return
  /// value while still holding its exclusive entry lock; tearing down
  /// the forked graph inline there (often the last reference once
  /// readers moved on) would stall the writer and every reader behind
  /// it.
  void retire_epoch(std::shared_ptr<const graph::GraphSnapshot> snap);
  void reap_loop();

  // -- metrics / slowlog -------------------------------------------------
  struct StatSlot {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> errors{0};
    std::atomic<std::uint64_t> usec_total{0};
    std::atomic<std::uint64_t> usec_max{0};
  };
  /// Slot for a registry index; commands registered after this server
  /// was constructed overflow into a lazily-grown side map.
  StatSlot& stat_slot(std::size_t index);
  const StatSlot* find_stat_slot(std::size_t index) const;
  void record_dispatch(StatSlot& slot, const std::vector<std::string>& argv,
                       bool error, std::uint64_t usec, CommandSource source);

  // -- durability --------------------------------------------------------
  /// Load snapshots + replay the WAL (constructor path, single-threaded).
  void recover();
  /// Snapshot every graph and truncate the WAL (compaction thread and
  /// force_snapshot; serialized by rewrite_mu_).
  void do_rewrite();
  /// Wake the compaction thread if the WAL has outgrown its threshold.
  void maybe_request_rewrite();
  void compaction_loop();

  mutable util::Mutex keyspace_mu_;
  std::map<std::string, std::shared_ptr<GraphEntry>> keyspace_
      RG_GUARDED_BY(keyspace_mu_);
  std::size_t plan_cache_capacity_ RG_GUARDED_BY(keyspace_mu_) =
      exec::PlanCache::kDefaultCapacity;
  exec::PlanCache::Counters retired_counters_ RG_GUARDED_BY(keyspace_mu_);

  // Fixed slots for every command registered at construction time;
  // later registrations (tests, embedders) go through extra_stats_.
  std::unique_ptr<StatSlot[]> stats_;
  std::size_t stats_size_ = 0;
  mutable util::Mutex extra_stats_mu_;
  std::map<std::size_t, std::unique_ptr<StatSlot>> extra_stats_
      RG_GUARDED_BY(extra_stats_mu_);

  mutable util::Mutex slowlog_mu_;
  std::deque<SlowlogEntry> slowlog_
      RG_GUARDED_BY(slowlog_mu_);  // front = newest
  std::uint64_t slowlog_next_id_ RG_GUARDED_BY(slowlog_mu_) = 0;
  std::atomic<std::int64_t> slowlog_threshold_us_{kDefaultSlowlogThresholdUs};

  // Declared before workers_ so the pool (whose queued commands may
  // still journal) is destroyed first on shutdown.
  std::unique_ptr<persist::DurabilityManager> durability_;
  util::Mutex rewrite_mu_;   // serializes rewrites (bg thread vs forced)
  util::Mutex compact_mu_;
  util::CondVar compact_cv_;
  bool compact_requested_ RG_GUARDED_BY(compact_mu_) = false;
  bool compact_stop_ RG_GUARDED_BY(compact_mu_) = false;
  std::thread compaction_thread_;

  // -- MVCC epoch reaper --------------------------------------------------
  // Retired epochs awaiting teardown: the strong references here make
  // the reaper thread the last holder, so forked graphs are never
  // destroyed on a query thread (let alone under an entry lock).  Runs
  // regardless of durability: epochs exist whenever readers pin.
  util::Mutex reap_mu_;
  util::CondVar reap_cv_;
  std::deque<std::shared_ptr<const graph::GraphSnapshot>> retire_q_
      RG_GUARDED_BY(reap_mu_);
  bool reap_stop_ RG_GUARDED_BY(reap_mu_) = false;
  std::thread reap_thread_;

  // -- replication hub ---------------------------------------------------
  std::atomic<Role> role_{Role::kPrimary};
  mutable util::Mutex repl_mu_;
  util::CondVar repl_cv_;  // an ack advanced; WAIT waits here
  /// The replica-side link (null on a primary).  Stopped/joined OUTSIDE
  /// repl_mu_ — the link thread dispatches into the keyspace and must
  /// never be joined while a lock it could need is held.
  std::unique_ptr<ReplicationClient> repl_client_ RG_GUARDED_BY(repl_mu_);
  /// Primary-side ack bookkeeping, keyed by the replica's self-chosen
  /// id (stable across reconnects of one link).
  struct ReplicaAck {
    std::uint64_t acked_lsn = 0;
    std::chrono::steady_clock::time_point last_seen{};
  };
  std::map<std::string, ReplicaAck> replica_acks_ RG_GUARDED_BY(repl_mu_);
  std::atomic<std::uint64_t> replica_ack_stale_ms_{kDefaultReplicaAckStaleMs};
  bool ack_fresh_locked(const ReplicaAck& ack,
                        std::chrono::steady_clock::time_point now) const
      RG_REQUIRES(repl_mu_);

  std::unique_ptr<util::ThreadPool> workers_;
};

}  // namespace rg::server

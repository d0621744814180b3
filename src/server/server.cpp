#include "server/server.hpp"

#include <chrono>

#include "graph/serialize.hpp"

namespace rg::server {

Server::Server(std::size_t worker_threads, const DurabilityConfig& durability)
    : workers_(std::make_unique<util::ThreadPool>(
          std::max<std::size_t>(1, worker_threads))) {
  // Fixed metric slots for every command known now; commands registered
  // later (tests, embedders) overflow into extra_stats_.
  stats_size_ = CommandRegistry::instance().size();
  stats_ = std::make_unique<StatSlot[]>(stats_size_);
  // The epoch reaper runs regardless of durability: epoch snapshots
  // exist whenever readers pin, not only on durable servers.
  reap_thread_ = std::thread([this] { reap_loop(); });
  if (durability.data_dir.empty()) return;
  durability_ = std::make_unique<persist::DurabilityManager>(
      durability.data_dir, durability.options);
  recover();
  compaction_thread_ = std::thread([this] { compaction_loop(); });
}

Server::~Server() {
  // Stop the replication link first: its thread dispatches into the
  // keyspace and must be gone before any of that machinery tears down.
  {
    std::unique_ptr<ReplicationClient> link;
    {
      util::MutexLock lk(repl_mu_);
      link = std::move(repl_client_);
    }
    link.reset();  // joins outside repl_mu_
  }
  if (compaction_thread_.joinable()) {
    {
      util::MutexLock lk(compact_mu_);
      compact_stop_ = true;
    }
    compact_cv_.notify_all();
    compaction_thread_.join();
  }
  if (reap_thread_.joinable()) {
    {
      util::MutexLock lk(reap_mu_);
      reap_stop_ = true;
    }
    reap_cv_.notify_all();
    reap_thread_.join();
  }
}

void Server::recover() {
  // Constructor path: single-threaded, so dispatch() can be called
  // directly.  The locks below are all uncontended; they exist to
  // satisfy the guarded-by contracts (and to keep this path honest if
  // recovery ever goes concurrent).
  std::map<std::string, std::uint64_t> watermarks;
  std::size_t cache_capacity;
  {
    util::MutexLock lk(keyspace_mu_);
    cache_capacity = plan_cache_capacity_;
  }
  for (const auto& snap : durability_->snapshots()) {
    auto entry = std::make_shared<GraphEntry>(cache_capacity);
    graph::SnapshotMeta meta;
    {
      GraphEntry& e = *entry;
      // lint:allow(io-under-lock): fresh entry, not yet published
      util::WriteLock elk(e.lock);
      graph::load_graph_file(e.graph, durability_->path_of(snap.file),
                             &meta);
      e.graph.flush();
      e.last_lsn = snap.lsn;
    }
    watermarks[snap.key] = snap.lsn;
    util::MutexLock lk(keyspace_mu_);
    keyspace_[snap.key] = std::move(entry);
  }
  durability_->open_and_replay(
      [&](std::uint64_t lsn, const std::vector<std::string>& argv) {
        // Frames already folded into a snapshot (journaled between the
        // rewrite's log rotation and that graph's snapshot) are skipped
        // via the per-graph watermark.
        if (argv.size() >= 2) {
          const auto it = watermarks.find(argv[1]);
          if (it != watermarks.end() && lsn <= it->second) return false;
        }
        // Replay is best-effort per frame: a frame that fails (e.g.
        // GRAPH.DELETE of a key deleted twice) must not abort recovery.
        dispatch(argv, CommandSource::kReplay);
        return true;
      });
}

void Server::compaction_loop() {
  for (;;) {
    {
      util::MutexLock lk(compact_mu_);
      while (!compact_stop_ && !compact_requested_)
        compact_cv_.wait(compact_mu_);
      if (compact_stop_) return;
      compact_requested_ = false;
    }
    try {
      do_rewrite();
    } catch (const std::exception&) {
      // A failed rewrite (e.g. disk full) leaves the previous manifest
      // authoritative; appends continue and the next trigger retries.
    }
  }
}

// ---------------------------------------------------------------------------
// MVCC: snapshot pinning and the epoch reaper
// ---------------------------------------------------------------------------

std::shared_ptr<const graph::GraphSnapshot> Server::pin(GraphEntry& ge) {
  // A published epoch reflects every acknowledged write (the commit step
  // retires it before the WAL append and republishes before unlocking),
  // so the pin is lock-free against both writers and other readers.
  if (auto snap = ge.epochs.try_pin()) return snap;
  // Fresh or restored key: fork the live graph under the shared lock,
  // held only for the O(delta) fork, never for the query that follows.
  util::SharedLock lk(ge.lock);
  return ge.epochs.pin_or_fork(ge.graph, ge.last_lsn);
}

void Server::retire_epoch(std::shared_ptr<const graph::GraphSnapshot> snap) {
  if (!snap) return;
  {
    util::MutexLock lk(reap_mu_);
    retire_q_.push_back(std::move(snap));
  }
  reap_cv_.notify_one();
}

void Server::reap_loop() {
  for (;;) {
    std::shared_ptr<const graph::GraphSnapshot> dead;
    {
      util::MutexLock lk(reap_mu_);
      while (!reap_stop_ && retire_q_.empty()) reap_cv_.wait(reap_mu_);
      if (reap_stop_) return;
      dead = std::move(retire_q_.front());
      retire_q_.pop_front();
    }
    dead.reset();  // the forked graph's teardown, off the hot path
  }
}

Server::MvccInfo Server::mvcc_info() const {
  std::vector<std::shared_ptr<GraphEntry>> entries;
  {
    util::MutexLock lk(keyspace_mu_);
    entries.reserve(keyspace_.size());
    for (const auto& [key, entry] : keyspace_) entries.push_back(entry);
  }
  MvccInfo info;
  for (const auto& e : entries) {
    const graph::MvccStats& s = e->epochs.stats();
    info.epochs_published += s.epochs_published.load();
    info.epochs_live += s.epochs_live.load();
    info.pins_fast += s.pins_fast.load();
    info.pins_slow += s.pins_slow.load();
    info.invalidations += s.invalidations.load();
    util::SharedLock lk(e->lock);
    const auto [plus, minus] = e->graph.delta_counts();
    info.delta_plus += plus;
    info.delta_minus += minus;
  }
  return info;
}

void Server::maybe_request_rewrite() {
  if (!durability_->compaction_due()) return;
  {
    util::MutexLock lk(compact_mu_);
    compact_requested_ = true;
  }
  compact_cv_.notify_one();
}

void Server::do_rewrite() {
  util::MutexLock rewrite_lk(rewrite_mu_);
  // 1. Rotate the journal; the transitional manifest keeps both logs.
  const std::uint64_t epoch = durability_->begin_rewrite();

  // 2. Snapshot every graph from a pinned MVCC epoch — no lock is held
  //    during the file write, so writers never queue behind snapshot
  //    I/O.  Writes continue: any write landing after the rotation is
  //    in the new log, and if it is also inside a snapshot its LSN is
  //    at or below that snapshot's watermark, so replay skips it (the
  //    pinned epoch's state and watermark advance in lock-step because
  //    the commit step retires the epoch before its WAL append).
  std::vector<std::pair<std::string, std::shared_ptr<GraphEntry>>> items;
  {
    util::MutexLock lk(keyspace_mu_);
    items.assign(keyspace_.begin(), keyspace_.end());
  }
  std::vector<persist::DurabilityManager::SnapshotInfo> entries;
  entries.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    const std::string file = durability_->snapshot_file(epoch, i);
    const auto snap = pin(*items[i].second);
    graph::save_graph_file(snap->graph(), durability_->path_of(file),
                           {epoch, snap->last_lsn()},
                           /*durable=*/true);
    entries.push_back({items[i].first, file, snap->last_lsn()});
  }

  // 3. Publish the new snapshot set and drop the old log.
  durability_->commit_rewrite(epoch, std::move(entries));
}

void Server::force_snapshot() {
  if (durability_) do_rewrite();
}

persist::Counters Server::durability_counters() const {
  return durability_ ? durability_->counters() : persist::Counters{};
}

std::size_t Server::worker_count() const { return workers_->size(); }

std::shared_ptr<GraphEntry> Server::entry_for(const std::string& key) {
  util::MutexLock lk(keyspace_mu_);
  auto& slot = keyspace_[key];
  if (!slot) slot = std::make_shared<GraphEntry>(plan_cache_capacity_);
  return slot;
}

exec::PlanCache::Counters Server::plan_cache_counters() const {
  util::MutexLock lk(keyspace_mu_);
  exec::PlanCache::Counters total = retired_counters_;
  for (const auto& [key, entry] : keyspace_) {
    const auto c = entry->plan_cache.counters();
    total.hits += c.hits;
    total.misses += c.misses;
    total.invalidations += c.invalidations;
  }
  return total;
}

void Server::retire_counters_locked(const GraphEntry& entry) {
  const auto c = entry.plan_cache.counters();
  retired_counters_.hits += c.hits;
  retired_counters_.misses += c.misses;
  // Every cached plan dies with the graph: count them as invalidations.
  retired_counters_.invalidations +=
      c.invalidations + entry.plan_cache.size();
}

std::future<Reply> Server::submit(std::vector<std::string> argv) {
  // The dispatcher (caller thread, standing in for Redis's main thread)
  // enqueues; exactly one worker runs the command to completion.
  return workers_->submit(
      [this, argv = std::move(argv)]() { return dispatch(argv); });
}

Reply Server::execute(std::vector<std::string> argv) {
  return submit(std::move(argv)).get();
}

Reply Server::execute_line(const std::string& line) {
  return execute(split_command_line(line));
}

// Test/bench backdoor: hands out an unlocked reference, so the analysis
// is off — callers own the single-threaded discipline.  The published
// epoch is invalidated up front: whatever the caller mutates through
// the bare reference must not be served from a stale snapshot later.
graph::Graph& Server::graph_for_testing(const std::string& key)
    RG_NO_THREAD_SAFETY_ANALYSIS {
  const auto entry = entry_for(key);
  retire_epoch(entry->epochs.invalidate());  // lint:allow(mvcc-api): backdoor
  return entry->graph;
}

// ---------------------------------------------------------------------------
// Dispatch: the only path any command takes
// ---------------------------------------------------------------------------

Server::StatSlot& Server::stat_slot(std::size_t index) {
  if (index < stats_size_) return stats_[index];
  util::MutexLock lk(extra_stats_mu_);
  auto& slot = extra_stats_[index];
  if (!slot) slot = std::make_unique<StatSlot>();
  return *slot;
}

const Server::StatSlot* Server::find_stat_slot(std::size_t index) const {
  if (index < stats_size_) return &stats_[index];
  util::MutexLock lk(extra_stats_mu_);
  const auto it = extra_stats_.find(index);
  return it == extra_stats_.end() ? nullptr : it->second.get();
}

namespace {

/// Slowlog rendering of an argv: long arguments and long tails are
/// truncated so a multi-megabyte GRAPH.BULK never bloats the log.
std::string slowlog_command_text(const std::vector<std::string>& argv) {
  constexpr std::size_t kMaxArgs = 8;
  constexpr std::size_t kMaxArgLen = 64;
  std::string out;
  for (std::size_t i = 0; i < argv.size() && i < kMaxArgs; ++i) {
    if (i) out += ' ';
    if (argv[i].size() > kMaxArgLen)
      out += argv[i].substr(0, kMaxArgLen) + "...";
    else
      out += argv[i];
  }
  if (argv.size() > kMaxArgs)
    out += " ... (" + std::to_string(argv.size()) + " args)";
  return out;
}

}  // namespace

void Server::record_dispatch(StatSlot& slot,
                             const std::vector<std::string>& argv, bool error,
                             std::uint64_t usec, CommandSource source) {
  slot.calls.fetch_add(1, std::memory_order_relaxed);
  if (error) slot.errors.fetch_add(1, std::memory_order_relaxed);
  slot.usec_total.fetch_add(usec, std::memory_order_relaxed);
  std::uint64_t prev = slot.usec_max.load(std::memory_order_relaxed);
  while (prev < usec && !slot.usec_max.compare_exchange_weak(
                            prev, usec, std::memory_order_relaxed)) {
  }

  // Slowlog is client-facing observability: WAL replay and replication
  // apply are not client traffic.
  const std::int64_t threshold =
      slowlog_threshold_us_.load(std::memory_order_relaxed);
  if (source != CommandSource::kClient || threshold < 0 ||
      usec < static_cast<std::uint64_t>(threshold))
    return;
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  util::MutexLock lk(slowlog_mu_);
  slowlog_.push_front(
      {slowlog_next_id_++, now, usec, slowlog_command_text(argv)});
  while (slowlog_.size() > kSlowlogMaxLen) slowlog_.pop_back();
}

Reply Server::dispatch(const std::vector<std::string>& argv,
                       CommandSource source) {
  if (argv.empty()) return {Reply::Kind::kError, "empty command", {}};
  const CommandSpec* spec = CommandRegistry::instance().find(argv[0]);
  if (!spec)
    return {Reply::Kind::kError, unknown_command_error(argv), {}};
  StatSlot& slot = stat_slot(spec->index);

  // Arity and flag enforcement from the table, not the handler: too few
  // arguments, trailing extras on fixed-arity commands, internal frame
  // types from clients, and client writes against a replica are all
  // rejected here.
  const auto argc = static_cast<int>(argv.size());
  if (argc < spec->min_arity ||
      (spec->max_arity >= 0 && argc > spec->max_arity)) {
    record_dispatch(slot, argv, /*error=*/true, 0, source);
    return {Reply::Kind::kError, wrong_arity_error(spec->name), {}};
  }
  if ((spec->flags & kInternal) && source == CommandSource::kClient) {
    record_dispatch(slot, argv, /*error=*/true, 0, source);
    return {Reply::Kind::kError,
            "'" + std::string(spec->name) +
                "' is an internal command, only valid during WAL replay",
            {}};
  }
  // The replica read-only gate (Redis semantics: only data mutations are
  // refused; admin and read commands still work).  Replication apply and
  // replay bypass it — applying the primary's stream IS the replica's
  // job.
  if ((spec->flags & kWrite) && source == CommandSource::kClient &&
      role() == Role::kReplica) {
    record_dispatch(slot, argv, /*error=*/true, 0, source);
    return {Reply::Kind::kError,
            "READONLY You can't write against a read only replica.",
            {}};
  }

  const auto start = std::chrono::steady_clock::now();
  Reply reply;
  try {
    CommandCtx ctx(*this, *spec, argv, source);
    reply = spec->handler(ctx);
  } catch (const std::exception& e) {
    reply = {Reply::Kind::kError, e.what(), {}};
  }
  const auto usec = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  record_dispatch(slot, argv, !reply.ok(), usec, source);

  // Journaled writes may have pushed the WAL over its rewrite
  // threshold; the check is driven by the table's kWrite flag, exactly
  // like the journaling itself.
  if ((spec->flags & kWrite) && durability_ &&
      source == CommandSource::kClient)
    maybe_request_rewrite();
  return reply;
}

std::vector<std::pair<const CommandSpec*, CommandStats>>
Server::command_stats() const {
  std::vector<std::pair<const CommandSpec*, CommandStats>> out;
  for (const CommandSpec* spec : CommandRegistry::instance().all()) {
    CommandStats stats;
    if (const StatSlot* slot = find_stat_slot(spec->index)) {
      stats.calls = slot->calls.load(std::memory_order_relaxed);
      stats.errors = slot->errors.load(std::memory_order_relaxed);
      stats.usec_total = slot->usec_total.load(std::memory_order_relaxed);
      stats.usec_max = slot->usec_max.load(std::memory_order_relaxed);
    }
    out.emplace_back(spec, stats);
  }
  return out;
}

std::vector<SlowlogEntry> Server::slowlog_get(std::size_t count) const {
  util::MutexLock lk(slowlog_mu_);
  std::vector<SlowlogEntry> out;
  out.reserve(std::min(count, slowlog_.size()));
  for (const auto& e : slowlog_) {
    if (out.size() >= count) break;
    out.push_back(e);
  }
  return out;
}

std::size_t Server::slowlog_len() const {
  util::MutexLock lk(slowlog_mu_);
  return slowlog_.size();
}

void Server::slowlog_reset() {
  util::MutexLock lk(slowlog_mu_);
  slowlog_.clear();
}

// ---------------------------------------------------------------------------
// Replication hub (see server/replication.hpp for the link itself)
// ---------------------------------------------------------------------------

void Server::drop_all_graphs() {
  util::MutexLock lk(keyspace_mu_);
  for (auto& [key, entry] : keyspace_) {
    // Stragglers still holding the entry only touch a zombie graph and
    // (on a primary) would refuse to journal — same contract as DELETE.
    entry->unlinked.store(true, std::memory_order_release);
    retire_counters_locked(*entry);
  }
  keyspace_.clear();
}

void Server::replicaof(const std::string& host, std::uint16_t port) {
  std::unique_ptr<ReplicationClient> old;
  {
    util::MutexLock lk(repl_mu_);
    old = std::move(repl_client_);
  }
  // Stop (join) outside repl_mu_: the link thread dispatches commands
  // and must never be joined under a lock it could block on.
  std::uint64_t resume = 0;
  std::map<std::string, std::uint64_t> marks;
  std::string runid;
  if (old) {
    old->stop();
    if (old->host() == host && old->port() == port) {
      // Same primary: carry the position (and the run id it is valid
      // against) forward so the fresh link attempts a partial resync
      // instead of a full transfer.
      resume = old->applied_lsn();
      marks = old->watermarks();
      runid = old->primary_runid();
    }
    old.reset();
  }
  role_.store(Role::kReplica, std::memory_order_release);
  auto link = std::make_unique<ReplicationClient>(
      *this, host, port, resume, std::move(marks), std::move(runid));
  util::MutexLock lk(repl_mu_);
  repl_client_ = std::move(link);
}

void Server::replicaof_no_one() {
  std::unique_ptr<ReplicationClient> old;
  {
    util::MutexLock lk(repl_mu_);
    old = std::move(repl_client_);
  }
  std::uint64_t applied = 0;
  if (old) {
    old->stop();
    applied = old->applied_lsn();
    old.reset();
  }
  const Role prev = role_.exchange(Role::kPrimary, std::memory_order_acq_rel);
  if (prev == Role::kReplica && durability_) {
    // The replica never journaled what it applied (replica-apply
    // invariant), so promotion makes the applied state durable by
    // snapshot and stamps the next local write above everything from
    // the old primary.
    durability_->advance_next_lsn(applied + 1);
    force_snapshot();
  }
}

bool Server::ack_fresh_locked(
    const ReplicaAck& ack, std::chrono::steady_clock::time_point now) const {
  return now - ack.last_seen <=
         std::chrono::milliseconds(replica_ack_stale_ms());
}

ReplicationInfo Server::replication_info() const {
  ReplicationInfo info;
  info.is_replica = role() == Role::kReplica;
  if (durability_) {
    info.master_lsn = durability_->last_lsn();
    info.run_id = durability_->run_id();
  }
  const auto now = std::chrono::steady_clock::now();
  util::MutexLock lk(repl_mu_);
  if (repl_client_) repl_client_->fill_info(info);
  for (const auto& [id, ack] : replica_acks_) {
    if (!ack_fresh_locked(ack, now)) continue;  // silent link: not counted
    const auto age = std::chrono::duration_cast<std::chrono::milliseconds>(
                         now - ack.last_seen)
                         .count();
    info.replicas.push_back(
        {id, ack.acked_lsn, age > 0 ? static_cast<std::uint64_t>(age) : 0});
  }
  return info;
}

void Server::note_replica_ack(const std::string& replica_id,
                              std::uint64_t acked_lsn) {
  {
    const auto now = std::chrono::steady_clock::now();
    util::MutexLock lk(repl_mu_);
    auto& ack = replica_acks_[replica_id];
    if (ack.acked_lsn < acked_lsn) ack.acked_lsn = acked_lsn;
    ack.last_seen = now;
    // Prune abandoned ids (a reconnecting/restarting replica mints a
    // fresh one each time) so the map stays bounded and a dead link's
    // last ack cannot satisfy WAIT forever.
    for (auto it = replica_acks_.begin(); it != replica_acks_.end();) {
      if (ack_fresh_locked(it->second, now))
        ++it;
      else
        it = replica_acks_.erase(it);
    }
  }
  repl_cv_.notify_all();
}

std::size_t Server::wait_for_replicas(std::size_t numreplicas,
                                      std::uint64_t timeout_ms) {
  // The offset to confirm is the WAL position at the moment WAIT was
  // issued — everything this client has written is at or below it.
  const std::uint64_t target = durability_ ? durability_->last_lsn() : 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  util::MutexLock lk(repl_mu_);
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    std::size_t acked = 0;
    for (const auto& [id, ack] : replica_acks_)
      if (ack_fresh_locked(ack, now) && ack.acked_lsn >= target) ++acked;
    if (acked >= numreplicas) return acked;
    if (timeout_ms != 0 && std::chrono::steady_clock::now() >= deadline)
      return acked;
    // Bounded waits double as the deadline poll: a heartbeat wakes us
    // early, and a silent link cannot park WAIT forever past timeout.
    repl_cv_.wait_for(repl_mu_, std::chrono::milliseconds(50));
  }
}

void Server::set_replication_paused(bool paused) {
  util::MutexLock lk(repl_mu_);
  if (repl_client_) repl_client_->set_paused(paused);
}

}  // namespace rg::server

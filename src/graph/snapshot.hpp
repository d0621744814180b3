// MVCC epoch snapshots — the snapshot-pin API over Graph::fork().
//
// Each graph key publishes at most one *current epoch*: an immutable
// fork of the graph taken at a known WAL watermark.  Readers pin it
// (shared_ptr copy) and run entirely lock-free against the fork while
// writers keep mutating the live graph under the entry's exclusive
// lock.  The protocol has one commit step and one pin:
//
//   commit       Every write ends in CommandCtx's commit step, under the
//                exclusive entry lock: invalidate() the published epoch
//                BEFORE the WAL append, flush the live graph, append and
//                advance the watermark, then — only if an epoch was
//                retired, i.e. readers are active — publish the
//                successor with pin_or_fork() at the new watermark.  A
//                write-only key never forks.
//   pin          try_pin() returns the published epoch.  Because every
//                commit retires before its append and republishes before
//                it unlocks, a published epoch ALWAYS reflects every
//                acknowledged write — the pin needs no graph lock.  It
//                misses only on a fresh or restored key: the caller then
//                takes the entry's SHARED lock, forks the live graph
//                (O(delta): matrices share immutable CSR bodies,
//                datablock pages are copy-on-write) and publishes it via
//                pin_or_fork().
//   retire       Epochs die by refcount: the manager's pointer plus
//                every pinned reader.  A snapshot therefore outlives
//                GRAPH.DELETE on its key; the retired epoch's teardown
//                is deferred to a background thread.
//
// The full lifecycle and its invariants are documented in
// docs/CONCURRENCY.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>

#include "graph/graph.hpp"
#include "util/sync.hpp"

namespace rg::graph {

/// Monotonic MVCC counters for one graph key (GRAPH.INFO mvcc).
/// Shared between the EpochManager and every snapshot it published, so
/// `epochs_live` stays accurate after the manager moves on or dies.
struct MvccStats {
  std::atomic<std::uint64_t> epochs_published{0};
  std::atomic<std::uint64_t> epochs_live{0};
  std::atomic<std::uint64_t> pins_fast{0};
  std::atomic<std::uint64_t> pins_slow{0};
  std::atomic<std::uint64_t> invalidations{0};
};

/// One pinned epoch: an immutable fork of a graph at a WAL watermark.
class GraphSnapshot {
 public:
  GraphSnapshot(std::unique_ptr<Graph> g, std::uint64_t epoch,
                std::uint64_t last_lsn, std::shared_ptr<MvccStats> stats)
      : g_(std::move(g)),
        epoch_(epoch),
        last_lsn_(last_lsn),
        stats_(std::move(stats)) {
    if (stats_) stats_->epochs_live.fetch_add(1, std::memory_order_relaxed);
  }
  ~GraphSnapshot() {
    if (stats_) stats_->epochs_live.fetch_sub(1, std::memory_order_relaxed);
  }
  GraphSnapshot(const GraphSnapshot&) = delete;
  GraphSnapshot& operator=(const GraphSnapshot&) = delete;

  /// The forked graph.  Logically immutable; the reference is non-const
  /// because the executor API takes Graph& and flush() folds any delta
  /// overlays a fork of an unflushed graph carries (a physical-
  /// representation change, internally synchronized — concurrent
  /// readers of one snapshot are safe).
  Graph& graph() const { return *g_; }

  /// Epoch id, unique and increasing per graph key.
  std::uint64_t epoch() const { return epoch_; }

  /// LSN of the last journaled write folded into this epoch, captured
  /// under the entry lock at fork time.  Because writers invalidate at
  /// commit, this equals the key's live watermark for as long as the
  /// epoch stays published — REPL.SNAPSHOT serializes pinned epochs
  /// against it without holding any lock.
  std::uint64_t last_lsn() const { return last_lsn_; }

 private:
  std::unique_ptr<Graph> g_;
  std::uint64_t epoch_ = 0;
  std::uint64_t last_lsn_ = 0;
  std::shared_ptr<MvccStats> stats_;
};

/// Publishes/retires epochs for one graph key.  All methods are
/// thread-safe; mu_ is a leaf mutex held only for pointer swaps.
class EpochManager {
 public:
  /// The published epoch, or nullptr on a fresh or restored key (the
  /// caller must then fork under the entry's shared lock and call
  /// pin_or_fork).  Never blocks on graph state.
  std::shared_ptr<const GraphSnapshot> try_pin() const {
    util::MutexLock lk(mu_);
    if (current_) stats_->pins_fast.fetch_add(1, std::memory_order_relaxed);
    return current_;
  }

  /// Fork and publish.  Caller MUST hold the entry lock (shared for a
  /// reader's pin, exclusive in the commit step) so no writer can
  /// commit mid-fork, and pass the live graph plus its current WAL
  /// watermark.  If a concurrent pinner published first, that epoch
  /// wins and the extra fork is dropped.
  std::shared_ptr<const GraphSnapshot> pin_or_fork(const Graph& g,
                                                   std::uint64_t last_lsn) {
    if (auto snap = try_pin()) return snap;
    auto fork = g.fork();  // outside mu_: O(delta), but not trivial
    util::MutexLock lk(mu_);
    if (current_) {
      stats_->pins_fast.fetch_add(1, std::memory_order_relaxed);
      return current_;
    }
    current_ = std::make_shared<GraphSnapshot>(std::move(fork), next_epoch_++,
                                               last_lsn, stats_);
    stats_->epochs_published.fetch_add(1, std::memory_order_relaxed);
    stats_->pins_slow.fetch_add(1, std::memory_order_relaxed);
    return current_;
  }

  /// The commit step's first move: retire the published epoch (pinned
  /// readers keep theirs alive).  MUST run under the exclusive entry
  /// lock and before the write's WAL append — that ordering is what
  /// makes a published epoch always current, also for a snapshot
  /// rewrite that pins between the append and the unlock.
  ///
  /// Returns the retired epoch instead of dropping it: when no reader
  /// holds a pin, the manager's reference is the LAST one, and dropping
  /// it here would destroy the whole forked graph under the writer's
  /// exclusive entry lock.  Callers with a reaper thread
  /// (Server::retire_epoch) defer the destruction; ignoring the return
  /// value just tears down inline, which is correct but slow.
  std::shared_ptr<const GraphSnapshot> invalidate() {
    util::MutexLock lk(mu_);
    if (!current_) return nullptr;
    stats_->invalidations.fetch_add(1, std::memory_order_relaxed);
    return std::move(current_);
  }

  /// Monotonic counters for GRAPH.INFO mvcc.
  const MvccStats& stats() const { return *stats_; }

 private:
  mutable util::Mutex mu_;
  std::shared_ptr<const GraphSnapshot> current_ RG_GUARDED_BY(mu_);
  std::uint64_t next_epoch_ RG_GUARDED_BY(mu_) = 0;
  std::shared_ptr<MvccStats> stats_ = std::make_shared<MvccStats>();
};

}  // namespace rg::graph

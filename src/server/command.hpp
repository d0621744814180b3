// Declarative command layer — the module's client-facing API surface.
//
// RedisGraph is a Redis *module*: every operation it exposes is a
// command registered in a declarative table (name, arity, read/write
// flags), which is what lets the host route, validate, replicate and
// introspect commands uniformly.  This header reproduces that design
// for the embedded server:
//
//  * CommandSpec   — one table row: name, arity bounds, flags, doc
//    string and handler.  Both the embedded Server and the TCP RESP
//    front-end dispatch exclusively through this table; adding a
//    command is adding a row, never editing dispatch.
//  * CommandRegistry — the case-insensitive name -> spec table.  The
//    built-in rows are registered at static-init time in command.cpp;
//    embedders (and tests) may register additional commands at runtime
//    and they inherit arity checking, locking, journaling, metrics and
//    introspection for free.
//  * CommandCtx    — per-invocation context handed to handlers.  It
//    centralizes what every handler used to re-implement: typed argv
//    extractors, graph-entry resolution for kGraphKeyed commands,
//    shared-vs-exclusive lock selection from the read/write flag, and
//    post-commit WAL journaling gated on kWrite (a non-write command
//    cannot journal, so durability decisions live in the table, not in
//    handler code).
//
// The table also powers the Redis-style introspection surface:
// COMMAND / COMMAND COUNT / COMMAND DOCS are generated from it, and
// Server::dispatch records per-command metrics (calls, errors,
// cumulative/max latency) plus a slowlog that GRAPH.INFO and
// GRAPH.SLOWLOG expose.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <shared_mutex>  // lint:allow(raw-mutex): std lock adapters for the escape-hatch API below
#include <string>
#include <string_view>
#include <vector>

#include "exec/result_set.hpp"
#include "server/resp.hpp"
#include "util/sync.hpp"

namespace rg::graph {
class GraphSnapshot;
}

namespace rg::server {

class Server;
struct GraphEntry;
class CommandCtx;

/// Where a dispatch originated.  Only client traffic faces the full
/// gate set (kInternal rejection, the replica read-only gate, WAL
/// journaling, the slowlog).  kReplay (constructor-time WAL recovery)
/// and kReplication (frames applied from a primary's stream) are
/// trusted re-application of already-journaled writes: they bypass
/// those gates and MUST NEVER journal — re-journaling an applied frame
/// would duplicate it (enforced by ci/lint_invariants.py replica-apply).
enum class CommandSource { kClient, kReplay, kReplication };

/// A command reply: either an error, a status string, a payload string
/// (EXPLAIN/PROFILE) or a full result set.
struct Reply {
  enum class Kind { kStatus, kError, kText, kResult };
  Kind kind = Kind::kStatus;
  std::string text;       // status / error / explain text
  exec::ResultSet result;

  bool ok() const { return kind != Kind::kError; }

  /// RESP wire encoding.
  std::string to_resp() const {
    switch (kind) {
      case Kind::kStatus: return resp_simple(text);
      case Kind::kError: return resp_error(text);
      case Kind::kText: return resp_bulk(text);
      case Kind::kResult: return encode_result_set(result);
    }
    return resp_error("internal");
  }
};

/// Command behavior flags (a spec carries an OR of these).
enum CommandFlags : std::uint32_t {
  /// May mutate graph state: the handler takes the exclusive per-graph
  /// lock for its write section and is the only kind of command allowed
  /// to journal to the WAL.
  kWrite = 1u << 0,
  /// Never mutates graph state; reads run against a pinned MVCC epoch
  /// snapshot (CommandCtx::pin) and are never blocked by an in-flight
  /// writer.  Keyspace-level reads take no graph state at all.
  kReadOnly = 1u << 1,
  /// Server-level command (CONFIG, LIST, INFO, SLOWLOG, COMMAND): no
  /// single target graph.
  kAdmin = 1u << 2,
  /// Dispatchable only during WAL replay (frame types the journal
  /// emits, e.g. GRAPH.RESTORE.PAYLOAD); rejected from clients.
  kInternal = 1u << 3,
  /// argv[1] names a graph key; CommandCtx::entry() resolves (creating
  /// if absent) the keyspace entry for the handler.
  kGraphKeyed = 1u << 4,
};

/// One row of the command table.
struct CommandSpec {
  std::string_view name;     // canonical (upper-case) command name
  int min_arity = 1;         // counting the command name itself
  int max_arity = 1;         // -1 = unbounded (variadic tail)
  std::uint32_t flags = 0;
  std::string_view summary;  // one-line doc string (COMMAND DOCS, README)
  Reply (*handler)(CommandCtx&) = nullptr;
  /// Assigned by the registry at registration; indexes the per-server
  /// metrics slot for this command.
  std::size_t index = 0;
};

/// "write graph-keyed" — canonical order, space-separated.
std::string flags_to_string(std::uint32_t flags);

/// Human arity: "3" (fixed), "3..4" (bounded), "4+" (variadic).
std::string arity_to_string(const CommandSpec& spec);

/// Redis-style error texts (dispatch and tests share the exact bytes).
std::string wrong_arity_error(std::string_view name);
std::string unknown_command_error(const std::vector<std::string>& argv);

/// The process-wide command table.  Lookup is case-insensitive
/// (GRAPH.QUERY == graph.query).  Thread-safe: registration takes the
/// write lock, lookup the read lock.
class CommandRegistry {
 public:
  /// The singleton table, with every built-in command registered.
  static CommandRegistry& instance();

  /// nullptr when unknown.  The returned spec lives forever.
  const CommandSpec* find(std::string_view name) const;

  /// Validates and adds a row (index is assigned here; name and
  /// summary are copied into registry-owned storage, so the caller's
  /// strings need not outlive the call).  Throws std::invalid_argument
  /// on a duplicate name or malformed spec (empty name, no handler,
  /// min_arity < 1, max < min, write+readonly, graph-keyed with
  /// arity < 2).  Returns the stored spec.
  const CommandSpec& register_command(CommandSpec spec);

  /// Every registered spec, name-sorted (case-insensitive).
  std::vector<const CommandSpec*> all() const;

  std::size_t size() const;

 private:
  CommandRegistry();

  struct CaseLess {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const;
  };

  mutable util::SharedMutex mu_;
  // Deques: stable addresses across registration (specs are referred to
  // by pointer from the name map and from dispatch call sites, and a
  // stored spec's name/summary views point into strings_).
  std::deque<CommandSpec> specs_ RG_GUARDED_BY(mu_);
  std::deque<std::string> strings_
      RG_GUARDED_BY(mu_);  // owned name/summary backing
  std::map<std::string, const CommandSpec*, CaseLess> by_name_
      RG_GUARDED_BY(mu_);
};

/// The generated command reference: a markdown table (name, arity,
/// flags, summary) over every registered command.  `resp_server
/// --dump-commands` prints it and ci/check_command_docs.py gates the
/// README copy against it.
std::string command_table_markdown();

/// Per-invocation context handed to a handler: argv access, the
/// resolved graph entry, flag-driven locking and flag-gated journaling.
class CommandCtx {
 public:
  CommandCtx(Server& server, const CommandSpec& spec,
             const std::vector<std::string>& argv,
             CommandSource source = CommandSource::kClient);
  ~CommandCtx();

  CommandCtx(const CommandCtx&) = delete;
  CommandCtx& operator=(const CommandCtx&) = delete;

  Server& server() { return srv_; }
  const CommandSpec& spec() const { return spec_; }
  const std::vector<std::string>& argv() const { return argv_; }
  std::size_t argc() const { return argv_.size(); }
  const std::string& arg(std::size_t i) const { return argv_[i]; }

  /// Case-insensitive keyword test (subcommand parsing).
  bool arg_is(std::size_t i, std::string_view keyword) const;

  /// Strict decimal parses; throw std::runtime_error naming `what` on
  /// malformed input (the error becomes the command's reply).
  std::uint64_t arg_u64(std::size_t i, const char* what) const;
  std::int64_t arg_i64(std::size_t i, const char* what) const;

  /// argv[1]; only meaningful for kGraphKeyed specs.
  const std::string& key() const { return argv_[1]; }

  /// Resolve (creating if absent) the keyspace entry for key().  The
  /// shared_ptr keeps the entry alive across a concurrent
  /// GRAPH.DELETE/RESTORE for the whole command.  Requires kGraphKeyed.
  const std::shared_ptr<GraphEntry>& entry();

  /// Pin the entry's current MVCC epoch snapshot (Server::pin): the
  /// read data path.  Lock-free when an epoch is published; forks one
  /// under a briefly-held shared lock on a fresh or restored key.  The
  /// snapshot (and the entry backing it) outlives a concurrent
  /// GRAPH.DELETE.
  std::shared_ptr<const graph::GraphSnapshot> pin();

  /// Per-graph lock acquisition, tied to the spec's flags: any command
  /// may read-lock its graph, but the exclusive lock is reserved for
  /// kWrite commands (a read-only spec asking for it is a table bug and
  /// throws std::logic_error).
  ///
  /// These return std adapters over the annotated util::SharedMutex and
  /// are therefore an UNANNOTATED escape hatch: the thread-safety
  /// analysis cannot track a capability through a movable lock object.
  /// They exist for registry-added commands (tests, embedders) outside
  /// the analyzed tree; built-in handlers take util::SharedLock /
  /// util::WriteLock on entry()->lock directly so the analysis sees
  /// their guarded-data accesses.  A kWrite command that mutates under
  /// exclusive_lock() must end its write section with journal() before
  /// the lock drops: that call is the commit step, and without it
  /// readers keep the epoch published before the write.
  std::shared_lock<util::SharedMutex> shared_lock();
  std::unique_lock<util::SharedMutex> exclusive_lock();

  CommandSource source() const { return source_; }
  /// True when this dispatch re-applies an already-journaled frame
  /// (WAL replay or the replication stream) rather than client traffic.
  bool replaying() const { return source_ != CommandSource::kClient; }
  bool durable() const;

  /// The commit step: every write ends here, under its exclusive entry
  /// lock, after mutating and before the reply is released.  In order it
  /// (1) retires the entry's published MVCC epoch, BEFORE the append,
  /// (2) flushes the live graph, (3) appends `frame` to the WAL and
  /// advances the entry's snapshot watermark (last_lsn), (4) republishes
  /// a successor epoch at the new watermark if one was retired (readers
  /// are active), and (5) hands the retired epoch to the reaper thread.
  /// Steps 1, 2, 4 and 5 need a resolved entry(); commands that manage
  /// the keyspace itself (GRAPH.DELETE/RESTORE) only append.
  ///
  /// Gated on the table, not the handler: a spec without kWrite cannot
  /// journal (std::logic_error).  The append (step 3) is skipped, and 0
  /// returned, when durability is off or when the dispatch is not client
  /// traffic (replay/replication re-applies frames that are already in
  /// a journal — theirs or the primary's).  With a resolved entry the
  /// append is guarded against a concurrent unlink (GRAPH.DELETE/
  /// RESTORE).  Returns the frame's LSN.
  std::uint64_t journal(const std::vector<std::string>& frame);

  /// journal() for batched ingestion: the whole batch is one WAL frame
  /// and the WAL's batch counters record how many entities it carries.
  std::uint64_t journal_batch(const std::vector<std::string>& frame,
                              std::uint64_t entities);

 private:
  Server& srv_;
  const CommandSpec& spec_;
  const std::vector<std::string>& argv_;
  CommandSource source_;
  std::shared_ptr<GraphEntry> entry_;

  /// journal()/journal_batch(): the commit step; `batch_entities` is
  /// null for a plain frame.
  std::uint64_t commit(const std::vector<std::string>& frame,
                       const std::uint64_t* batch_entities);
};

/// Built-in handlers (friend of Server); each is one registry row,
/// installed by CommandRegistry's constructor in command.cpp.
struct CommandHandlers {
  static Reply ping(CommandCtx&);
  static Reply command_table(CommandCtx&);  // COMMAND [COUNT|DOCS|INFO]
  static Reply query(CommandCtx&);
  static Reply ro_query(CommandCtx&);
  static Reply profile(CommandCtx&);
  static Reply explain(CommandCtx&);
  static Reply bulk(CommandCtx&);
  static Reply del(CommandCtx&);
  static Reply list(CommandCtx&);
  static Reply save(CommandCtx&);
  static Reply restore(CommandCtx&);
  static Reply restore_payload(CommandCtx&);
  static Reply config(CommandCtx&);
  static Reply info(CommandCtx&);
  static Reply memory(CommandCtx&);  // GRAPH.MEMORY USAGE <key> [component]
  static Reply slowlog(CommandCtx&);
  static Reply replicaof(CommandCtx&);
  static Reply wait(CommandCtx&);
  static Reply repl_snapshot(CommandCtx&);
  static Reply repl_fetch(CommandCtx&);

 private:
  static Reply run_query(CommandCtx& ctx, bool read_only_cmd, bool profile);
  /// Shared name/value row rendering for GRAPH.CONFIG GET and
  /// GRAPH.INFO: the WAL and plan-cache rows come from one place so
  /// the two introspection surfaces cannot drift.  `want` filters by
  /// row name (CONFIG GET's name match; INFO passes always-true).
  static void wal_rows(Server& srv, exec::ResultSet& rs,
                       const std::function<bool(std::string_view)>& want);
  static void plan_cache_rows(
      Server& srv, exec::ResultSet& rs,
      const std::function<bool(std::string_view)>& want);
  /// Server-wide memory gauges (mem::accountant per-component bytes plus
  /// keyspace-wide bytes-per-entity) for the GRAPH.INFO memory section.
  static void memory_rows(Server& srv, exec::ResultSet& rs,
                          const std::function<bool(std::string_view)>& want);
};

}  // namespace rg::server

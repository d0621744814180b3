#include "server/command.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "cypher/lexer.hpp"
#include "cypher/param_header.hpp"
#include "cypher/parser.hpp"
#include "exec/execution_plan.hpp"
#include "graph/serialize.hpp"
#include "graph/snapshot.hpp"
#include "graphblas/context.hpp"
#include "mem/accounting.hpp"
#include "mem/dict.hpp"
#include "server/server.hpp"

namespace rg::server {


namespace {

char ascii_lower(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

std::string to_lower(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) out += ascii_lower(c);
  return out;
}

Reply error(std::string text) {
  return {Reply::Kind::kError, std::move(text), {}};
}

Reply status_ok() { return {Reply::Kind::kStatus, "OK", {}}; }

/// Strict decimal u64 parse (GRAPH.BULK operands, counts).  The first
/// character must be a digit: strtoull on its own skips leading
/// whitespace and wraps negatives (" -1" would become 2^64-1).
bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || !std::isdigit(static_cast<unsigned char>(s[0])))
    return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  out = v;
  return true;
}

/// Strict i64: an optional leading '-', then digits; no whitespace, no
/// '+' (same rationale as parse_u64).
bool parse_i64(const std::string& s, std::int64_t& out) {
  const std::size_t start = (!s.empty() && s[0] == '-') ? 1 : 0;
  if (start >= s.size() ||
      !std::isdigit(static_cast<unsigned char>(s[start])))
    return false;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  out = v;
  return true;
}

/// Bounded echo of a client argument inside an error text (the argument
/// itself can be arbitrarily large).
std::string arg_preview(const std::string& s) {
  constexpr std::size_t kMax = 32;
  return s.size() > kMax ? s.substr(0, kMax) + "..." : s;
}

/// GRAPH.CONFIG SET numeric-knob validation: strict parse plus an
/// explicit inclusive [lo, hi] range.  Every settable numeric knob goes
/// through here so a rejected SET can never half-apply, and the error
/// text always names the documented range.
bool parse_ranged_i64(const std::string& s, std::int64_t lo, std::int64_t hi,
                      std::int64_t& out) {
  return parse_i64(s, out) && out >= lo && out <= hi;
}

/// "<NAME> must be an integer in [lo, hi]<suffix>" — the Redis-style
/// range rejection every numeric knob shares.
Reply range_error(const char* name, std::int64_t lo, std::int64_t hi,
                  const char* suffix = "") {
  return error(std::string(name) + " must be an integer in [" +
               std::to_string(lo) + ", " + std::to_string(hi) + "]" + suffix);
}

}  // namespace

// ---------------------------------------------------------------------------
// Spec rendering + error texts
// ---------------------------------------------------------------------------

std::string flags_to_string(std::uint32_t flags) {
  std::string out;
  auto add = [&](std::uint32_t bit, const char* name) {
    if (!(flags & bit)) return;
    if (!out.empty()) out += ' ';
    out += name;
  };
  add(kWrite, "write");
  add(kReadOnly, "readonly");
  add(kAdmin, "admin");
  add(kInternal, "internal");
  add(kGraphKeyed, "graph-keyed");
  return out;
}

std::string arity_to_string(const CommandSpec& spec) {
  if (spec.max_arity < 0) return std::to_string(spec.min_arity) + "+";
  if (spec.max_arity == spec.min_arity) return std::to_string(spec.min_arity);
  return std::to_string(spec.min_arity) + ".." +
         std::to_string(spec.max_arity);
}

std::string wrong_arity_error(std::string_view name) {
  return "wrong number of arguments for '" + to_lower(name) + "' command";
}

std::string unknown_command_error(const std::vector<std::string>& argv) {
  // Redis format: every listed argument is quoted and followed by ", ",
  // including the last.
  std::string out = "unknown command '" + arg_preview(argv[0]) +
                    "', with args beginning with: ";
  constexpr std::size_t kMaxArgsShown = 5;
  for (std::size_t i = 1; i < argv.size() && i <= kMaxArgsShown; ++i) {
    out += '\'';
    out += arg_preview(argv[i]);
    out += "', ";
  }
  return out;
}

// ---------------------------------------------------------------------------
// CommandRegistry
// ---------------------------------------------------------------------------

bool CommandRegistry::CaseLess::operator()(std::string_view a,
                                           std::string_view b) const {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const char ca = ascii_lower(a[i]);
    const char cb = ascii_lower(b[i]);
    if (ca != cb) return ca < cb;
  }
  return a.size() < b.size();
}

CommandRegistry& CommandRegistry::instance() {
  static CommandRegistry registry;
  return registry;
}

const CommandSpec* CommandRegistry::find(std::string_view name) const {
  util::SharedLock lk(mu_);
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

const CommandSpec& CommandRegistry::register_command(CommandSpec spec) {
  if (spec.name.empty())
    throw std::invalid_argument("command spec: empty name");
  if (spec.handler == nullptr)
    throw std::invalid_argument("command spec: null handler");
  if (spec.min_arity < 1)
    throw std::invalid_argument("command spec: min_arity must be >= 1");
  if (spec.max_arity >= 0 && spec.max_arity < spec.min_arity)
    throw std::invalid_argument("command spec: max_arity < min_arity");
  if ((spec.flags & kWrite) && (spec.flags & kReadOnly))
    throw std::invalid_argument("command spec: write and readonly exclude "
                                "each other");
  if ((spec.flags & kGraphKeyed) && spec.min_arity < 2)
    throw std::invalid_argument("command spec: graph-keyed commands take a "
                                "key argument");
  util::WriteLock lk(mu_);
  if (by_name_.count(spec.name))
    throw std::invalid_argument("command spec: duplicate name '" +
                                std::string(spec.name) + "'");
  // Re-point the views at registry-owned copies: a caller registering
  // at runtime may pass dynamically built strings whose storage dies
  // right after this call.
  spec.name = strings_.emplace_back(spec.name);
  spec.summary = strings_.emplace_back(spec.summary);
  spec.index = specs_.size();
  specs_.push_back(spec);
  const CommandSpec& stored = specs_.back();
  by_name_.emplace(std::string(stored.name), &stored);
  return stored;
}

std::vector<const CommandSpec*> CommandRegistry::all() const {
  util::SharedLock lk(mu_);
  std::vector<const CommandSpec*> out;
  out.reserve(by_name_.size());
  for (const auto& [name, spec] : by_name_) out.push_back(spec);
  return out;
}

std::size_t CommandRegistry::size() const {
  util::SharedLock lk(mu_);
  return specs_.size();
}

CommandRegistry::CommandRegistry() {
  using H = CommandHandlers;
  const CommandSpec builtins[] = {
      {"PING", 1, 2, kReadOnly,
       "Ping the server; replies PONG, or echoes the optional message.",
       &H::ping},
      {"COMMAND", 1, -1, kReadOnly | kAdmin,
       "Introspect the command table: COMMAND [COUNT / DOCS [name ...] / "
       "INFO [name ...]].",
       &H::command_table},
      {"GRAPH.QUERY", 3, 3, kWrite | kGraphKeyed,
       "Run a Cypher query (read or write) against a graph.", &H::query},
      {"GRAPH.RO_QUERY", 3, 3, kReadOnly | kGraphKeyed,
       "Run a read-only Cypher query; write queries are rejected.",
       &H::ro_query},
      {"GRAPH.EXPLAIN", 3, 3, kReadOnly | kGraphKeyed,
       "Show the execution plan for a query without running it.",
       &H::explain},
      {"GRAPH.PROFILE", 3, 3, kWrite | kGraphKeyed,
       "Run a query and return its per-operator profile.", &H::profile},
      {"GRAPH.BULK", 4, -1, kWrite | kGraphKeyed,
       "Batched ingestion: NODES <n> [label] / EDGES <type> <n> <src> <dst> "
       "... (@k = k-th node of this batch).",
       &H::bulk},
      {"GRAPH.DELETE", 2, 2, kWrite | kGraphKeyed,
       "Delete a graph key from the keyspace.", &H::del},
      {"GRAPH.LIST", 1, 1, kReadOnly | kAdmin,
       "List every graph key in the keyspace.", &H::list},
      {"GRAPH.SAVE", 3, 3, kReadOnly | kGraphKeyed,
       "Serialize a graph to an RGR1 snapshot file.", &H::save},
      {"GRAPH.RESTORE", 3, 3, kWrite | kGraphKeyed,
       "Replace a graph with the contents of an RGR1 snapshot file.",
       &H::restore},
      {"GRAPH.RESTORE.PAYLOAD", 3, 3, kWrite | kInternal | kGraphKeyed,
       "WAL-replay frame carrying the restored graph's serialized bytes.",
       &H::restore_payload},
      {"GRAPH.CONFIG", 3, 4, kAdmin,
       "GET <name> (or *) / SET <name> <value> over the runtime knobs and "
       "counters.",
       &H::config},
      {"GRAPH.INFO", 1, 2, kReadOnly | kAdmin,
       "Observability report: server, commandstats, plan_cache, wal, "
       "slowlog, replication, mvcc, memory sections.",
       &H::info},
      // Not kGraphKeyed: argv[1] is the USAGE subcommand, and a missing
      // key must be an error, never an implicit create.
      {"GRAPH.MEMORY", 3, 4, kReadOnly | kAdmin,
       "USAGE <key> [component]: per-component heap bytes for one graph, "
       "plus totals and bytes per node/edge.",
       &H::memory},
      {"GRAPH.SLOWLOG", 2, 3, kAdmin,
       "GET [n] / RESET / LEN over the slow-command log.", &H::slowlog},
      {"REPLICAOF", 3, 3, kAdmin,
       "REPLICAOF <host> <port> makes this server a read-only replica of "
       "that primary; REPLICAOF NO ONE promotes it back.",
       &H::replicaof},
      {"WAIT", 3, 3, kAdmin,
       "Block until <numreplicas> replicas acked the current WAL offset or "
       "<timeout_ms> elapses; replies with the acked count.",
       &H::wait},
      {"REPL.SNAPSHOT", 1, 1, kReadOnly | kAdmin,
       "Replication full-sync payload: every graph serialized at its LSN "
       "watermark, plus the primary's run id (issued by replicas, not "
       "clients).",
       &H::repl_snapshot},
      {"REPL.FETCH", 5, 5, kReadOnly | kAdmin,
       "Replication stream: REPL.FETCH <replica_id> <run_id> <from_lsn> "
       "<max> ships retained WAL frames and doubles as the replica's ack "
       "heartbeat; a stale run id (primary restarted) gets NOSYNC.",
       &H::repl_fetch},
  };
  for (const auto& spec : builtins) register_command(spec);
}

std::string command_table_markdown() {
  std::string out;
  out += "| Command | Arity | Flags | Summary |\n";
  out += "|---|---|---|---|\n";
  for (const CommandSpec* spec : CommandRegistry::instance().all()) {
    out += "| `" + to_lower(spec->name) + "` | " + arity_to_string(*spec) +
           " | " + flags_to_string(spec->flags) + " | " +
           std::string(spec->summary) + " |\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// CommandCtx
// ---------------------------------------------------------------------------

CommandCtx::CommandCtx(Server& server, const CommandSpec& spec,
                       const std::vector<std::string>& argv,
                       CommandSource source)
    : srv_(server), spec_(spec), argv_(argv), source_(source) {}

CommandCtx::~CommandCtx() = default;

bool CommandCtx::arg_is(std::size_t i, std::string_view keyword) const {
  // Not cypher::keyword_eq: that helper assumes an UPPERCASE keyword
  // operand, while subcommand/section names here are written in either
  // case ("COUNT", "commandstats").  Both sides fold.
  const std::string& a = argv_[i];
  if (a.size() != keyword.size()) return false;
  for (std::size_t k = 0; k < a.size(); ++k)
    if (ascii_lower(a[k]) != ascii_lower(keyword[k])) return false;
  return true;
}

std::uint64_t CommandCtx::arg_u64(std::size_t i, const char* what) const {
  std::uint64_t v = 0;
  if (!parse_u64(argv_[i], v))
    throw std::runtime_error(std::string(what) +
                             " must be a non-negative integer, got '" +
                             arg_preview(argv_[i]) + "'");
  return v;
}

std::int64_t CommandCtx::arg_i64(std::size_t i, const char* what) const {
  std::int64_t v = 0;
  if (!parse_i64(argv_[i], v))
    throw std::runtime_error(std::string(what) + " must be an integer, got '" +
                             arg_preview(argv_[i]) + "'");
  return v;
}

const std::shared_ptr<GraphEntry>& CommandCtx::entry() {
  if (!(spec_.flags & kGraphKeyed))
    throw std::logic_error("entry() on a command without kGraphKeyed");
  if (!entry_) entry_ = srv_.entry_for(key());
  return entry_;
}

std::shared_ptr<const graph::GraphSnapshot> CommandCtx::pin() {
  return srv_.pin(*entry());
}

std::shared_lock<util::SharedMutex> CommandCtx::shared_lock() {
  return std::shared_lock<util::SharedMutex>(entry()->lock);
}

std::unique_lock<util::SharedMutex> CommandCtx::exclusive_lock() {
  if (!(spec_.flags & kWrite))
    throw std::logic_error("exclusive_lock() on a command without kWrite");
  return std::unique_lock<util::SharedMutex>(entry()->lock);
}

bool CommandCtx::durable() const { return srv_.durability_ != nullptr; }

std::uint64_t CommandCtx::journal(const std::vector<std::string>& frame) {
  return commit(frame, nullptr);
}

std::uint64_t CommandCtx::journal_batch(const std::vector<std::string>& frame,
                                        std::uint64_t entities) {
  return commit(frame, &entities);
}

// The entry's graph and last_lsn are guarded by its lock, which the
// CALLER holds exclusive (the commit contract).  The analysis is
// intraprocedural and cannot see the caller's guard through the ctx
// indirection, so the definition opts out; the contract itself is
// enforced where the lock is visible — every built-in write handler
// journals inside its util::WriteLock scope.
std::uint64_t CommandCtx::commit(const std::vector<std::string>& frame,
                                 const std::uint64_t* batch_entities)
    RG_NO_THREAD_SAFETY_ANALYSIS {
  if (!(spec_.flags & kWrite))
    throw std::logic_error("journal() on a command without kWrite");
  GraphEntry* ge = entry_.get();
  // 1. Retire before the append: from here until the republish below no
  //    epoch is published, so a snapshot rewrite or REPL.SNAPSHOT that
  //    pins in between forks under the shared lock after this commit,
  //    never serializes the pre-write epoch against a log that already
  //    holds the write.
  auto retired = ge ? ge->epochs.invalidate() : nullptr;
  // 2. Re-sync matrices so readers' flush() is a no-op and every fork
  //    starts from folded matrices.
  if (ge) ge->graph.flush();
  // 3. Append.  Replay and replication apply frames that are already
  //    journaled (locally or on the primary) — re-journaling would
  //    duplicate them.
  std::uint64_t lsn = 0;
  if (srv_.durability_ && source_ == CommandSource::kClient) {
    const auto linked = [&] {
      return !ge || !ge->unlinked.load(std::memory_order_acquire);
    };
    lsn = batch_entities ? srv_.durability_->append_batch_if(
                               frame, *batch_entities, linked)
                         : srv_.durability_->append_if(frame, linked);
    if (lsn != 0 && ge) ge->last_lsn = lsn;
  }
  // 4. A retired epoch proves readers are active on this key: publish
  //    the successor before the lock drops, so they never see an epoch
  //    gap.  With no readers, writes stay zero-COW.
  if (retired) ge->epochs.pin_or_fork(ge->graph, ge->last_lsn);
  // 5. Teardown on the reaper thread, not under this lock.
  srv_.retire_epoch(std::move(retired));
  return lsn;
}

// ---------------------------------------------------------------------------
// Handlers: connectivity + introspection
// ---------------------------------------------------------------------------

Reply CommandHandlers::ping(CommandCtx& ctx) {
  if (ctx.argc() == 2) return {Reply::Kind::kText, ctx.arg(1), {}};
  return {Reply::Kind::kStatus, "PONG", {}};
}

Reply CommandHandlers::command_table(CommandCtx& ctx) {
  auto& registry = CommandRegistry::instance();
  // One row per spec; `filter` (lowercased names) restricts the listing.
  auto table = [&](const std::vector<std::string>* filter) {
    Reply r;
    r.kind = Reply::Kind::kResult;
    r.result.columns = {"name", "arity", "flags", "summary"};
    for (const CommandSpec* spec : registry.all()) {
      const std::string name = to_lower(spec->name);
      if (filter) {
        bool wanted = false;
        for (const auto& f : *filter) wanted = wanted || to_lower(f) == name;
        if (!wanted) continue;  // unknown names are skipped, as in Redis
      }
      r.result.rows.push_back({graph::Value(name),
                               graph::Value(arity_to_string(*spec)),
                               graph::Value(flags_to_string(spec->flags)),
                               graph::Value(std::string(spec->summary))});
    }
    return r;
  };
  if (ctx.argc() == 1) return table(nullptr);
  if (ctx.arg_is(1, "COUNT")) {
    if (ctx.argc() != 2) return error(wrong_arity_error("COMMAND"));
    Reply r;
    r.kind = Reply::Kind::kResult;
    r.result.columns = {"count"};
    r.result.rows.push_back(
        {graph::Value(static_cast<std::int64_t>(registry.size()))});
    return r;
  }
  if (ctx.arg_is(1, "DOCS") || ctx.arg_is(1, "INFO")) {
    if (ctx.argc() == 2) return table(nullptr);
    const std::vector<std::string> filter(ctx.argv().begin() + 2,
                                          ctx.argv().end());
    return table(&filter);
  }
  return error("unknown COMMAND subcommand '" + ctx.arg(1) +
               "'; expected COUNT, DOCS or INFO");
}

Reply CommandHandlers::info(CommandCtx& ctx) {
  Server& srv = ctx.server();
  // Single source of truth for the section names: validation and the
  // error text both iterate this list.
  static constexpr std::string_view kSections[] = {
      "server", "commandstats", "plan_cache", "wal", "slowlog",
      "replication", "mvcc", "memory"};
  const bool all = ctx.argc() == 1;
  auto want = [&](std::string_view section) {
    return all || ctx.arg_is(1, section);
  };
  if (!all) {
    bool known = false;
    for (const auto section : kSections) known = known || want(section);
    if (!known) {
      std::string expected;
      for (const auto section : kSections) {
        if (!expected.empty()) expected += ", ";
        expected += section;
      }
      return error("unknown GRAPH.INFO section '" + ctx.arg(1) +
                   "'; expected one of: " + expected);
    }
  }

  Reply r;
  r.kind = Reply::Kind::kResult;
  r.result.columns = {"name", "value"};
  auto row = [&](const std::string& name, std::int64_t v) {
    r.result.rows.push_back({graph::Value(name), graph::Value(v)});
  };
  auto srow = [&](const std::string& name, const std::string& v) {
    r.result.rows.push_back({graph::Value(name), graph::Value(v)});
  };

  if (want("server")) {
    row("THREAD_COUNT", static_cast<std::int64_t>(srv.worker_count()));
    row("GB_THREADS", static_cast<std::int64_t>(gb::threads()));
    std::int64_t graphs = 0;
    {
      util::MutexLock lk(srv.keyspace_mu_);
      graphs = static_cast<std::int64_t>(srv.keyspace_.size());
    }
    row("GRAPH_COUNT", graphs);
  }
  if (want("commandstats")) {
    for (const auto& [spec, stats] : srv.command_stats()) {
      if (stats.calls == 0) continue;
      const std::uint64_t per_call = stats.usec_total / stats.calls;
      srow("cmdstat_" + to_lower(spec->name),
           "calls=" + std::to_string(stats.calls) +
               ",errors=" + std::to_string(stats.errors) +
               ",usec=" + std::to_string(stats.usec_total) +
               ",usec_per_call=" + std::to_string(per_call) +
               ",usec_max=" + std::to_string(stats.usec_max));
    }
  }
  if (want("plan_cache"))
    plan_cache_rows(srv, r.result, [](std::string_view) { return true; });
  if (want("wal"))
    wal_rows(srv, r.result, [](std::string_view) { return true; });
  if (want("slowlog")) {
    row("SLOWLOG_LEN", static_cast<std::int64_t>(srv.slowlog_len()));
    row("SLOWLOG_THRESHOLD_US", srv.slowlog_threshold_us());
  }
  if (want("memory"))
    memory_rows(srv, r.result, [](std::string_view) { return true; });
  if (want("mvcc")) {
    const Server::MvccInfo mi = srv.mvcc_info();
    auto urow = [&](const char* name, std::uint64_t v) {
      row(name, static_cast<std::int64_t>(v));
    };
    urow("MVCC_EPOCHS_PUBLISHED", mi.epochs_published);
    urow("MVCC_EPOCHS_LIVE", mi.epochs_live);
    urow("MVCC_PINS_FAST", mi.pins_fast);
    urow("MVCC_PINS_SLOW", mi.pins_slow);
    urow("MVCC_INVALIDATIONS", mi.invalidations);
    urow("MVCC_DELTA_PLUS", mi.delta_plus);
    urow("MVCC_DELTA_MINUS", mi.delta_minus);
  }
  if (want("replication")) {
    const ReplicationInfo ri = srv.replication_info();
    srow("ROLE", ri.is_replica ? "replica" : "primary");
    if (ri.is_replica) {
      srow("PRIMARY_HOST", ri.primary_host);
      row("PRIMARY_PORT", static_cast<std::int64_t>(ri.primary_port));
      srow("LINK", ri.link);
      row("APPLIED_LSN", static_cast<std::int64_t>(ri.applied_lsn));
      row("FULL_SYNCS", static_cast<std::int64_t>(ri.full_syncs));
      row("PARTIAL_SYNCS", static_cast<std::int64_t>(ri.partial_syncs));
      row("FRAMES_APPLIED", static_cast<std::int64_t>(ri.frames_applied));
      row("LINK_RECONNECTS", static_cast<std::int64_t>(ri.reconnects));
      if (!ri.primary_runid.empty()) srow("PRIMARY_RUNID", ri.primary_runid);
      if (!ri.last_error.empty()) srow("LINK_LAST_ERROR", ri.last_error);
    } else {
      if (!ri.run_id.empty()) srow("RUN_ID", ri.run_id);
      row("MASTER_LSN", static_cast<std::int64_t>(ri.master_lsn));
      row("CONNECTED_REPLICAS",
          static_cast<std::int64_t>(ri.replicas.size()));
      for (const auto& rep : ri.replicas) {
        const std::uint64_t lag = ri.master_lsn > rep.acked_lsn
                                      ? ri.master_lsn - rep.acked_lsn
                                      : 0;
        srow("replica_" + rep.id,
             "acked_lsn=" + std::to_string(rep.acked_lsn) +
                 ",lag=" + std::to_string(lag) +
                 ",age_ms=" + std::to_string(rep.age_ms));
      }
    }
  }
  return r;
}

Reply CommandHandlers::memory(CommandCtx& ctx) {
  Server& srv = ctx.server();
  if (!ctx.arg_is(1, "USAGE"))
    return error("unknown GRAPH.MEMORY subcommand '" + ctx.arg(1) +
                 "'; expected USAGE");
  const std::string& key = ctx.arg(2);
  std::shared_ptr<GraphEntry> entry;
  {
    // Non-creating lookup (same as GRAPH.DELETE): asking for a missing
    // key's memory must not materialize an empty graph.
    util::MutexLock lk(srv.keyspace_mu_);
    const auto it = srv.keyspace_.find(key);
    if (it == srv.keyspace_.end()) return error("no such key '" + key + "'");
    entry = it->second;
  }
  // Walk a pinned epoch: a consistent set of structures, no entry lock
  // held while sizes are summed.
  const auto snap = srv.pin(*entry);
  const graph::Graph& g = snap->graph();
  const graph::Graph::MemoryUsage mu = g.memory_usage();

  struct ComponentRow {
    std::string_view filter;  // GRAPH.MEMORY USAGE <key> <filter>
    const char* label;
    std::uint64_t bytes;
  };
  const ComponentRow components[] = {
      {"matrices", "MATRICES_BYTES", mu.matrices},
      {"delta_overlays", "DELTA_OVERLAYS_BYTES", mu.delta_overlays},
      {"properties", "PROPERTIES_BYTES", mu.properties},
      {"indexes", "INDEXES_BYTES", mu.indexes},
      {"dictionary", "DICTIONARY_BYTES", mu.dictionary},
  };
  Reply r;
  r.kind = Reply::Kind::kResult;
  r.result.columns = {"name", "value"};
  auto row = [&](const char* name, std::uint64_t v) {
    r.result.rows.push_back({graph::Value(name),
                             graph::Value(static_cast<std::int64_t>(v))});
  };
  if (ctx.argc() == 4) {
    for (const auto& c : components)
      if (ctx.arg_is(3, c.filter)) {
        row(c.label, c.bytes);
        return r;
      }
    std::string expected;
    for (const auto& c : components) {
      if (!expected.empty()) expected += ", ";
      expected += c.filter;
    }
    return error("unknown memory component '" + ctx.arg(3) +
                 "'; expected one of: " + expected);
  }
  for (const auto& c : components) row(c.label, c.bytes);
  row("TOTAL_BYTES", mu.total());
  const std::uint64_t nodes = g.node_count();
  const std::uint64_t edges = g.edge_count();
  row("BYTES_PER_NODE", nodes != 0 ? mu.total() / nodes : 0);
  row("BYTES_PER_EDGE", edges != 0 ? mu.total() / edges : 0);
  return r;
}

Reply CommandHandlers::slowlog(CommandCtx& ctx) {
  Server& srv = ctx.server();
  if (ctx.arg_is(1, "GET")) {
    std::size_t count = Server::kSlowlogMaxLen;
    if (ctx.argc() == 3)
      count = static_cast<std::size_t>(ctx.arg_u64(2, "GRAPH.SLOWLOG GET "
                                                      "count"));
    Reply r;
    r.kind = Reply::Kind::kResult;
    r.result.columns = {"id", "timestamp", "usec", "command"};
    for (const auto& e : srv.slowlog_get(count)) {
      r.result.rows.push_back({graph::Value(static_cast<std::int64_t>(e.id)),
                               graph::Value(e.unix_time),
                               graph::Value(static_cast<std::int64_t>(e.usec)),
                               graph::Value(e.command)});
    }
    return r;
  }
  if (ctx.arg_is(1, "RESET")) {
    if (ctx.argc() != 2) return error(wrong_arity_error("GRAPH.SLOWLOG"));
    srv.slowlog_reset();
    return status_ok();
  }
  if (ctx.arg_is(1, "LEN")) {
    if (ctx.argc() != 2) return error(wrong_arity_error("GRAPH.SLOWLOG"));
    Reply r;
    r.kind = Reply::Kind::kResult;
    r.result.columns = {"len"};
    r.result.rows.push_back(
        {graph::Value(static_cast<std::int64_t>(srv.slowlog_len()))});
    return r;
  }
  return error("unknown GRAPH.SLOWLOG subcommand '" + ctx.arg(1) +
               "'; expected GET, RESET or LEN");
}

// ---------------------------------------------------------------------------
// Handlers: queries
// ---------------------------------------------------------------------------

namespace {

/// GRAPH.PROFILE output: the per-op tree, prefixed with the compilation
/// cache outcome so the fast path is observable per query.
std::string profile_text(exec::PlanCache::Lease& lease, exec::ResultSet& out) {
  std::string s = lease.hit() ? "Plan cache: hit\n" : "Plan cache: miss\n";
  s += lease->profile(out);
  return s;
}

}  // namespace

Reply CommandHandlers::query(CommandCtx& ctx) {
  return run_query(ctx, /*read_only_cmd=*/false, /*profile=*/false);
}

Reply CommandHandlers::ro_query(CommandCtx& ctx) {
  return run_query(ctx, /*read_only_cmd=*/true, /*profile=*/false);
}

Reply CommandHandlers::profile(CommandCtx& ctx) {
  return run_query(ctx, /*read_only_cmd=*/false, /*profile=*/true);
}

Reply CommandHandlers::run_query(CommandCtx& ctx, bool read_only_cmd,
                                 bool profile) {
  const std::string& raw = ctx.arg(2);
  const auto split = cypher::split_param_header(raw);
  // Alias the entry so the lock expression and the guarded accesses
  // share one root the analysis can match (`ge.lock` guards `ge.graph`).
  GraphEntry& ge = *ctx.entry();
  auto run = [&](exec::PlanCache::Lease& lease) {
    Reply reply;
    if (profile) {
      reply.kind = Reply::Kind::kText;
      reply.text = profile_text(lease, reply.result);
    } else {
      reply.kind = Reply::Kind::kResult;
      lease->run(reply.result);
    }
    return reply;
  };

  // Read path: pin the current MVCC epoch and run against that snapshot
  // with NO entry lock held — an in-flight writer never blocks readers,
  // and the plan-cache lease discipline is unchanged (acquire rebinds
  // every lease, here to the snapshot's graph).  Write-capable commands
  // (GRAPH.QUERY/PROFILE) probe with try_pin only: a write must not
  // fork an epoch its own commit is about to retire.
  bool first_acquire_hit = false;
  bool counted = false;
  {
    const auto snap = read_only_cmd ? ctx.pin() : ge.epochs.try_pin();
    if (snap) {
      auto lease =
          ge.plan_cache.acquire(snap->graph(), split.body, split.params);
      if (lease->read_only()) return run(lease);
      if (read_only_cmd)
        return error(
            "graph.RO_QUERY is to be executed only on read-only queries");
      first_acquire_hit = lease.hit();
      counted = true;
    }
  }

  // Write path: exclusive lock (the spec carries kWrite, or
  // exclusive_lock() would refuse).  Re-acquire the plan — the schema
  // may have moved between the snapshot probe above and getting this
  // lock — without counting again: this is still the same logical query.
  {
    util::WriteLock lk(ge.lock);
    auto lease = ge.plan_cache.acquire(ge.graph, split.body, split.params,
                                       64, /*count_stats=*/!counted);
    if (counted) lease.set_hit_for_reporting(first_acquire_hit);
    if (!lease->read_only()) {
      Reply reply = run(lease);
      // The commit step; a PROFILE of a writing query replays as the
      // plain query.
      ctx.journal({"GRAPH.QUERY", ctx.key(), raw});
      return reply;
    }
    first_acquire_hit = lease.hit();
  }
  // Read-only body on a key with no published epoch (fresh or
  // restored): pin one the way GRAPH.RO_QUERY does and read from it.
  const auto snap = ctx.pin();
  auto lease = ge.plan_cache.acquire(snap->graph(), split.body, split.params,
                                     64, /*count_stats=*/false);
  lease.set_hit_for_reporting(first_acquire_hit);
  return run(lease);
}

Reply CommandHandlers::explain(CommandCtx& ctx) {
  const auto split = cypher::split_param_header(ctx.arg(2));
  const cypher::Query ast = cypher::parse(split.body);
  // Plan against a pinned epoch: planning reads schema + start-point
  // statistics, so it needs a consistent graph but no lock.
  const auto snap = ctx.pin();
  exec::ExecutionPlan plan(snap->graph(), ast);
  return {Reply::Kind::kText, plan.explain(), {}};
}

// ---------------------------------------------------------------------------
// Handlers: batched ingestion
// ---------------------------------------------------------------------------

Reply CommandHandlers::bulk(CommandCtx& ctx) {
  const std::vector<std::string>& argv = ctx.argv();

  // ---- parse (no graph state touched yet) -------------------------------
  struct NodeBatch {
    std::uint64_t count = 0;
    std::string label;  // empty = unlabeled
  };
  // An edge endpoint is either an absolute node id or a batch-relative
  // reference "@k" = the k-th node created by THIS command (counting
  // across its NODES sections).  References make a combined nodes+edges
  // batch self-contained: the client needs no id round-trip and the
  // command stays atomic even when the id allocator reuses freed slots.
  struct Endpoint {
    bool ref = false;
    std::uint64_t v = 0;
  };
  struct EdgeBatch {
    std::string type;
    std::vector<std::pair<Endpoint, Endpoint>> edges;
  };
  std::vector<NodeBatch> node_batches;
  std::vector<EdgeBatch> edge_batches;

  auto is_section = [](const std::string& s) {
    return cypher::keyword_eq(s, "NODES") || cypher::keyword_eq(s, "EDGES");
  };

  std::size_t i = 2;
  while (i < argv.size()) {
    if (cypher::keyword_eq(argv[i], "NODES")) {
      NodeBatch nb;
      if (i + 1 >= argv.size() || !parse_u64(argv[i + 1], nb.count))
        return error("GRAPH.BULK: NODES needs a count");
      i += 2;
      if (i < argv.size() && !is_section(argv[i])) nb.label = argv[i++];
      node_batches.push_back(std::move(nb));
    } else if (cypher::keyword_eq(argv[i], "EDGES")) {
      if (i + 2 >= argv.size())
        return error("GRAPH.BULK: EDGES needs <reltype> <count>");
      EdgeBatch eb;
      eb.type = argv[i + 1];
      std::uint64_t count = 0;
      if (!parse_u64(argv[i + 2], count) || eb.type.empty() ||
          is_section(eb.type))
        return error("GRAPH.BULK: EDGES needs <reltype> <count>");
      i += 3;
      if (argv.size() - i < 2 * count)
        return error("GRAPH.BULK: EDGES declares more endpoints than "
                     "supplied");
      eb.edges.reserve(count);
      auto parse_endpoint = [](const std::string& s, Endpoint& out) {
        out.ref = !s.empty() && s[0] == '@';
        return parse_u64(out.ref ? s.substr(1) : s, out.v);
      };
      for (std::uint64_t e = 0; e < count; ++e) {
        Endpoint src, dst;
        if (!parse_endpoint(argv[i], src) || !parse_endpoint(argv[i + 1], dst))
          return error("GRAPH.BULK: edge endpoints must be node ids or "
                       "@refs");
        eb.edges.emplace_back(src, dst);
        i += 2;
      }
      edge_batches.push_back(std::move(eb));
    } else {
      return error("GRAPH.BULK: expected NODES or EDGES, got '" + argv[i] +
                   "'");
    }
  }
  if (node_batches.empty() && edge_batches.empty())
    return error("GRAPH.BULK: empty batch");

  // ---- apply under the exclusive per-graph lock -------------------------
  GraphEntry& ge = *ctx.entry();
  std::uint64_t nodes_created = 0;
  std::uint64_t edges_created = 0;
  std::int64_t first_node_id = -1;
  {
    util::WriteLock lk(ge.lock);
    graph::Graph& g = ge.graph;

    // Nodes first, so edges may reference ids created in this batch.
    // On any failure everything created here — edges, then nodes — is
    // rolled back: the command is all-or-nothing, which keeps the single
    // replayed WAL frame an exact description of what happened.
    std::vector<graph::NodeId> created;
    std::vector<graph::EdgeId> created_edges;
    auto rollback = [&] {
      for (auto it = created_edges.rbegin(); it != created_edges.rend(); ++it)
        if (g.has_edge(*it)) g.delete_edge(*it);
      for (auto it = created.rbegin(); it != created.rend(); ++it)
        g.delete_node(*it);
    };
    try {
      for (const auto& nb : node_batches) {
        std::vector<graph::LabelId> labels;
        if (!nb.label.empty())
          labels.push_back(g.schema().add_label(nb.label));
        for (std::uint64_t c = 0; c < nb.count; ++c) {
          const graph::NodeId id = g.add_node(labels);
          if (first_node_id < 0) first_node_id = static_cast<std::int64_t>(id);
          created.push_back(id);
        }
      }
      nodes_created = created.size();
    } catch (const std::exception& e) {
      rollback();
      return error(e.what());
    }

    auto resolve = [&](const Endpoint& ep, graph::NodeId& out) {
      if (ep.ref) {
        if (ep.v >= created.size()) return false;
        out = created[ep.v];
        return true;
      }
      out = ep.v;
      return g.has_node(out);
    };
    for (const auto& eb : edge_batches) {
      for (const auto& [src, dst] : eb.edges) {
        graph::NodeId s = 0, d = 0;
        const bool s_ok = resolve(src, s);
        if (!s_ok || !resolve(dst, d)) {
          const Endpoint& bad = s_ok ? dst : src;
          rollback();
          return error("GRAPH.BULK: edge endpoint " +
                       std::string(bad.ref ? "@" : "") + std::to_string(bad.v) +
                       " does not exist");
        }
      }
    }
    // The apply loop can still throw (GraphFullError at the edge-id
    // cap): without the rollback the batch would be half-applied in
    // memory while the WAL never records it — a durable server would
    // silently lose the partial batch on restart.
    try {
      for (const auto& eb : edge_batches) {
        const graph::RelTypeId t = g.schema().add_reltype(eb.type);
        for (const auto& [src, dst] : eb.edges) {
          graph::NodeId s = 0, d = 0;
          resolve(src, s);
          resolve(dst, d);
          created_edges.push_back(g.add_edge(t, s, d));
          ++edges_created;
        }
      }
    } catch (const std::exception& e) {
      rollback();
      return error(e.what());
    }

    // The commit step, with one WAL frame for the whole batch — this is
    // the durability half of the amortization: N entities cost one
    // append + one fsync.
    ctx.journal_batch(argv, nodes_created + edges_created);
  }

  Reply r;
  r.kind = Reply::Kind::kResult;
  r.result.columns = {"nodes_created", "edges_created", "first_node_id"};
  r.result.rows.push_back(
      {graph::Value(static_cast<std::int64_t>(nodes_created)),
       graph::Value(static_cast<std::int64_t>(edges_created)),
       graph::Value(first_node_id)});
  return r;
}

// ---------------------------------------------------------------------------
// Handlers: keyspace management + persistence
// ---------------------------------------------------------------------------

Reply CommandHandlers::del(CommandCtx& ctx) {
  Server& srv = ctx.server();
  const std::string& key = ctx.key();
  util::MutexLock lk(srv.keyspace_mu_);
  const auto it = srv.keyspace_.find(key);
  if (it == srv.keyspace_.end())
    return error("no such key '" + key + "'");
  srv.retire_counters_locked(*it->second);
  // Unlink only: in-flight commands on this graph hold their own
  // shared_ptr, so the entry is destroyed by its last user, never under
  // a thread still using (or blocked on) its lock.
  it->second->unlinked.store(true, std::memory_order_release);
  srv.keyspace_.erase(it);
  // Journal while still holding keyspace_mu_ (deletes are rare): the
  // DELETE frame must precede any frame from a writer that re-creates
  // the key, and entry_for can only hand out a fresh entry after this
  // lock drops.  Stale writers on the old entry are fenced off by the
  // unlinked flag just set.
  ctx.journal({"GRAPH.DELETE", key});
  return status_ok();
}

Reply CommandHandlers::list(CommandCtx& ctx) {
  Server& srv = ctx.server();
  util::MutexLock lk(srv.keyspace_mu_);
  Reply r;
  r.kind = Reply::Kind::kResult;
  r.result.columns = {"graph"};
  for (const auto& [key, entry] : srv.keyspace_)
    r.result.rows.push_back({graph::Value(key)});
  return r;
}

Reply CommandHandlers::save(CommandCtx& ctx) {
  // Serialize from a pinned epoch: no lock is held during the file
  // write, so writers to this graph never queue behind snapshot I/O.
  const auto snap = ctx.pin();
  graph::save_graph_file(snap->graph(), ctx.arg(2));
  return status_ok();
}

Reply CommandHandlers::restore(CommandCtx& ctx) {
  Server& srv = ctx.server();
  const std::string& key = ctx.key();
  // Load into a fresh graph, then swap it in under the keyspace lock so
  // readers never observe a half-loaded graph.  The fresh entry's empty
  // plan cache also drops every plan compiled against the old graph.
  std::size_t capacity;
  {
    util::MutexLock lk(srv.keyspace_mu_);
    capacity = srv.plan_cache_capacity_;
  }
  auto fresh = std::make_shared<GraphEntry>(capacity);
  // Durable restore journals the restored graph ITSELF (the external
  // file may be gone by replay time) — the same trick Redis AOF uses
  // for RESTORE: the frame carries the serialized value.  Serialized
  // outside the keyspace lock; the swap + journal below are atomic.
  std::string payload;
  {
    GraphEntry& f = *fresh;
    // lint:allow(io-under-lock): fresh entry, not yet published — the
    // lock is uncontended and held only so the analysis sees the writes.
    util::WriteLock flk(f.lock);
    graph::load_graph_file(f.graph, ctx.arg(2));
    f.graph.flush();  // readers must never be first to build transposes
    if (ctx.durable() && !ctx.replaying()) {
      std::ostringstream os(std::ios::binary);
      graph::save_graph(f.graph, os);
      payload = std::move(os).str();
    }
  }
  {
    util::MutexLock lk(srv.keyspace_mu_);
    auto& slot = srv.keyspace_[key];
    if (slot) {
      srv.retire_counters_locked(*slot);
      // Fence off stale writers still holding the displaced entry
      // (same protocol as GRAPH.DELETE).
      slot->unlinked.store(true, std::memory_order_release);
    }
    {
      GraphEntry& f = *fresh;
      // keyspace_mu_ -> entry lock is the documented order; the entry is
      // still private, so this cannot contend.
      util::WriteLock flk(f.lock);
      f.last_lsn = ctx.journal({"GRAPH.RESTORE.PAYLOAD", key, payload});
    }
    // Swap in; the displaced entry (if any) dies with its last in-flight
    // user, exactly as in GRAPH.DELETE.
    slot = std::move(fresh);
  }
  return status_ok();
}

Reply CommandHandlers::restore_payload(CommandCtx& ctx) {
  Server& srv = ctx.server();
  // Replay-only twin of restore (the spec carries kInternal, so dispatch
  // rejects it outside recovery): the graph arrives as serialized bytes
  // inside the WAL frame instead of a file path.
  std::size_t capacity;
  {
    util::MutexLock lk(srv.keyspace_mu_);
    capacity = srv.plan_cache_capacity_;
  }
  auto fresh = std::make_shared<GraphEntry>(capacity);
  std::istringstream in(ctx.arg(2), std::ios::binary);
  {
    GraphEntry& f = *fresh;
    // Fresh entry, not yet published: uncontended, held for the analysis.
    util::WriteLock flk(f.lock);
    graph::load_graph(f.graph, in);
    f.graph.flush();
  }
  util::MutexLock lk(srv.keyspace_mu_);
  auto& slot = srv.keyspace_[ctx.key()];
  if (slot) srv.retire_counters_locked(*slot);
  slot = std::move(fresh);
  return status_ok();
}

// ---------------------------------------------------------------------------
// Handlers: replication
// ---------------------------------------------------------------------------

Reply CommandHandlers::replicaof(CommandCtx& ctx) {
  Server& srv = ctx.server();
  if (ctx.arg_is(1, "NO") && ctx.arg_is(2, "ONE")) {
    srv.replicaof_no_one();
    return status_ok();
  }
  // Lowercase leads so these texts keep the generic ERR code on the
  // wire (resp_error treats a leading all-caps token as an error code).
  const std::uint64_t port = ctx.arg_u64(2, "replicaof port");
  if (port == 0 || port > 65535)
    return error("replicaof port must be in [1, 65535]");
  srv.replicaof(ctx.arg(1), static_cast<std::uint16_t>(port));
  return status_ok();
}

Reply CommandHandlers::wait(CommandCtx& ctx) {
  const std::uint64_t numreplicas = ctx.arg_u64(1, "wait numreplicas");
  const std::uint64_t timeout_ms = ctx.arg_u64(2, "wait timeout");
  // NOTE: WAIT parks one worker thread until satisfied or timed out —
  // same trade-off as Redis, where WAIT blocks its client.
  const std::size_t acked = ctx.server().wait_for_replicas(
      static_cast<std::size_t>(numreplicas), timeout_ms);
  Reply r;
  r.kind = Reply::Kind::kResult;
  r.result.columns = {"replicas"};
  r.result.rows.push_back({graph::Value(static_cast<std::int64_t>(acked))});
  return r;
}

Reply CommandHandlers::repl_snapshot(CommandCtx& ctx) {
  Server& srv = ctx.server();
  if (!srv.durability_)
    return error("replication requires durability on the primary "
                 "(configure a data dir)");
  // start_lsn is captured BEFORE any graph serializes: a write journals
  // (advancing both the WAL position and the entry's last_lsn) under
  // the exclusive entry lock, so any frame at or below start_lsn that
  // targets a graph serialized below is also at or below that graph's
  // watermark — the replica can start fetching at start_lsn + 1 without
  // a gap.  Frames <= start_lsn for keys absent here belong to deleted
  // keys, which the fresh replica keyspace reproduces by not having
  // them.
  const std::uint64_t start_lsn = srv.durability_->last_lsn();
  std::vector<std::pair<std::string, std::shared_ptr<GraphEntry>>> items;
  {
    util::MutexLock lk(srv.keyspace_mu_);
    items.assign(srv.keyspace_.begin(), srv.keyspace_.end());
  }
  std::vector<std::string> parts;
  parts.reserve(items.size() + 2);
  parts.push_back(std::to_string(start_lsn));
  // The run id pins the resume cursor to THIS primary incarnation:
  // after a restart LSNs may be reissued to different writes, so a
  // fetch echoing a stale run id must full-resync (NOSYNC), never
  // silently resume by LSN alone.
  parts.push_back(srv.durability_->run_id());
  for (const auto& [key, entry] : items) {
    // Serialize from a pinned epoch: a published snapshot's watermark
    // equals the live one (the commit step retires it before the WAL
    // append), so the gap-free argument above carries over and
    // the serialization itself holds no lock.
    const auto snap = srv.pin(*entry);
    std::ostringstream os(std::ios::binary);
    graph::save_graph(snap->graph(), os);
    parts.push_back(persist::encode_argv(
        {key, std::to_string(snap->last_lsn()), std::move(os).str()}));
  }
  return {Reply::Kind::kText, persist::encode_argv(parts), {}};
}

Reply CommandHandlers::repl_fetch(CommandCtx& ctx) {
  Server& srv = ctx.server();
  if (!srv.durability_)
    return error("replication requires durability on the primary "
                 "(configure a data dir)");
  const std::string& replica_id = ctx.arg(1);
  const std::string& run_id = ctx.arg(2);
  const std::uint64_t from_lsn = ctx.arg_u64(3, "REPL.FETCH from_lsn");
  std::uint64_t max_frames = ctx.arg_u64(4, "REPL.FETCH max_frames");
  if (max_frames == 0) max_frames = 1;
  if (max_frames > 4096) max_frames = 4096;
  // Run-id check BEFORE the ack: a cursor minted against a previous
  // incarnation acknowledges nothing (its LSNs may name different
  // writes here) and must full-resync.
  if (run_id != srv.durability_->run_id())
    return error("NOSYNC replication run id mismatch (primary restarted); "
                 "full resync required");
  // The fetch IS the heartbeat: asking for from_lsn acknowledges every
  // frame below it.
  srv.note_replica_ack(replica_id, from_lsn > 0 ? from_lsn - 1 : 0);
  std::vector<persist::WalFrame> frames;
  if (!srv.durability_->read_frames(
          replica_id, from_lsn, static_cast<std::size_t>(max_frames), frames))
    return error("NOSYNC WAL history before lsn " +
                 std::to_string(from_lsn) +
                 " is no longer retained or is unreadable; full resync "
                 "required");
  std::vector<std::string> blobs;
  blobs.reserve(frames.size());
  for (const persist::WalFrame& f : frames) {
    std::vector<std::string> parts;
    parts.reserve(f.argv.size() + 1);
    parts.push_back(std::to_string(f.lsn));
    parts.insert(parts.end(), f.argv.begin(), f.argv.end());
    blobs.push_back(persist::encode_argv(parts));
  }
  return {Reply::Kind::kText, persist::encode_argv(blobs), {}};
}

// ---------------------------------------------------------------------------
// Handlers: configuration
// ---------------------------------------------------------------------------

void CommandHandlers::wal_rows(
    Server& srv, exec::ResultSet& rs,
    const std::function<bool(std::string_view)>& want) {
  auto row = [&](const char* name, std::uint64_t v) {
    if (want(name))
      rs.rows.push_back({graph::Value(name),
                         graph::Value(static_cast<std::int64_t>(v))});
  };
  if (want("DURABILITY"))
    rs.rows.push_back({graph::Value("DURABILITY"),
                       graph::Value(srv.durability_ ? "on" : "off")});
  if (!srv.durability_) return;
  if (want("WAL_FSYNC"))
    rs.rows.push_back(
        {graph::Value("WAL_FSYNC"),
         graph::Value(std::string(
             persist::fsync_policy_name(srv.durability_->fsync_policy())))});
  row("WAL_MAX_BYTES", srv.durability_->wal_max_bytes());
  row("WAL_SIZE_BYTES", srv.durability_->wal_size_bytes());
  const auto c = srv.durability_->counters();
  row("WAL_APPENDS", c.appends);
  row("WAL_BYTES", c.appended_bytes);
  row("WAL_FSYNCS", c.fsyncs);
  row("WAL_REWRITES", c.rewrites);
  row("WAL_REPLAYED_FRAMES", c.replayed_frames);
  row("WAL_SKIPPED_FRAMES", c.skipped_frames);
  row("WAL_TORN_BYTES", c.torn_bytes);
  row("WAL_BATCH_FRAMES", c.batch_frames);
  row("WAL_BATCH_ENTITIES", c.batch_entities);
}

void CommandHandlers::plan_cache_rows(
    Server& srv, exec::ResultSet& rs,
    const std::function<bool(std::string_view)>& want) {
  auto row = [&](const char* name, std::uint64_t v) {
    if (want(name))
      rs.rows.push_back({graph::Value(name),
                         graph::Value(static_cast<std::int64_t>(v))});
  };
  if (want("PLAN_CACHE_SIZE")) {
    util::MutexLock lk(srv.keyspace_mu_);
    row("PLAN_CACHE_SIZE", srv.plan_cache_capacity_);
  }
  if (want("PLAN_CACHE_HITS") || want("PLAN_CACHE_MISSES") ||
      want("PLAN_CACHE_INVALIDATIONS")) {
    const auto c = srv.plan_cache_counters();
    row("PLAN_CACHE_HITS", c.hits);
    row("PLAN_CACHE_MISSES", c.misses);
    row("PLAN_CACHE_INVALIDATIONS", c.invalidations);
  }
}

void CommandHandlers::memory_rows(
    Server& srv, exec::ResultSet& rs,
    const std::function<bool(std::string_view)>& want) {
  auto row = [&](const char* name, std::uint64_t v) {
    if (want(name))
      rs.rows.push_back({graph::Value(name),
                         graph::Value(static_cast<std::int64_t>(v))});
  };
  // Server-wide gauges: what each subsystem physically holds right now
  // (fork-shared structures counted once — see Graph::memory_usage for
  // the per-graph attribution that GRAPH.MEMORY USAGE reports).
  const mem::MemoryAccountant& a = mem::accountant();
  row("MEM_MATRICES_BYTES", a.bytes(mem::Component::kMatrices));
  row("MEM_DELTA_OVERLAYS_BYTES", a.bytes(mem::Component::kDeltaOverlays));
  row("MEM_PROPERTIES_BYTES", a.bytes(mem::Component::kProperties));
  row("MEM_DICTIONARY_BYTES", a.bytes(mem::Component::kDictionary));
  row("MEM_INDEXES_BYTES", a.bytes(mem::Component::kIndexes));
  row("MEM_PLAN_CACHE_BYTES", a.bytes(mem::Component::kPlanCache));
  row("MEM_WAL_BUFFERS_BYTES", a.bytes(mem::Component::kWalBuffers));
  row("MEM_TOTAL_BYTES", a.total());
  if (want("MEM_BYTES_PER_NODE") || want("MEM_BYTES_PER_EDGE")) {
    std::vector<std::shared_ptr<GraphEntry>> entries;
    {
      util::MutexLock lk(srv.keyspace_mu_);
      entries.reserve(srv.keyspace_.size());
      for (const auto& [key, entry] : srv.keyspace_)
        entries.push_back(entry);
    }
    std::uint64_t nodes = 0, edges = 0;
    for (const auto& entry : entries) {
      const auto snap = srv.pin(*entry);
      nodes += snap->graph().node_count();
      edges += snap->graph().edge_count();
    }
    row("MEM_BYTES_PER_NODE", nodes != 0 ? a.total() / nodes : 0);
    row("MEM_BYTES_PER_EDGE", edges != 0 ? a.total() / edges : 0);
  }
}

Reply CommandHandlers::config(CommandCtx& ctx) {
  Server& srv = ctx.server();
  // GRAPH.CONFIG GET <name>|* | GRAPH.CONFIG SET <name> <value>.
  // THREAD_COUNT is fixed at module load time (paper, Section II): GET
  // reports it, SET is rejected.  PLAN_CACHE_* expose the query
  // compilation cache: capacity (settable) and hit/miss/invalidation
  // counters aggregated across the keyspace.  WAL_* expose the
  // durability subsystem: fsync policy and rewrite threshold are
  // settable at runtime; the counters are monotonic.
  // SLOWLOG_THRESHOLD_US tunes the dispatch-level slow-command log.
  auto row = [](exec::ResultSet& rs, const char* name, std::int64_t v) {
    rs.rows.push_back({graph::Value(name), graph::Value(v)});
  };
  if (ctx.arg_is(1, "GET")) {
    if (ctx.argc() != 3)
      return error("GRAPH.CONFIG GET takes exactly one name (or *)");
    Reply r;
    r.kind = Reply::Kind::kResult;
    r.result.columns = {"name", "value"};
    const bool all = ctx.arg(2) == "*";
    const auto want = [&](std::string_view name) {
      return all || ctx.arg_is(2, name);
    };
    wal_rows(srv, r.result, want);
    if (want("THREAD_COUNT"))
      row(r.result, "THREAD_COUNT",
          static_cast<std::int64_t>(srv.worker_count()));
    if (want("GB_THREADS"))
      row(r.result, "GB_THREADS", static_cast<std::int64_t>(gb::threads()));
    if (want("SLOWLOG_THRESHOLD_US"))
      row(r.result, "SLOWLOG_THRESHOLD_US", srv.slowlog_threshold_us());
    if (want("DICT_MIN_STRING_LEN"))
      row(r.result, "DICT_MIN_STRING_LEN",
          static_cast<std::int64_t>(mem::dict_min_string_len()));
    plan_cache_rows(srv, r.result, want);
    if (r.result.rows.empty())
      return error("unknown config '" + ctx.arg(2) + "'");
    return r;
  }
  if (ctx.arg_is(1, "SET")) {
    if (ctx.argc() != 4)
      return error("GRAPH.CONFIG SET takes a name and a value");
    if (ctx.arg_is(2, "THREAD_COUNT"))
      return error("THREAD_COUNT is fixed at module load time");
    // Every numeric knob validates against an explicit, documented
    // range BEFORE any state is touched: a rejected SET leaves the
    // knob's current value untouched (wire tests assert this).
    if (ctx.arg_is(2, "GB_THREADS")) {
      // Unlike THREAD_COUNT (one query = one worker, fixed at load),
      // GB_THREADS is the intra-operation kernel parallelism and is safe
      // to retune at runtime; 1 = the exact serial kernels.
      constexpr std::int64_t kLo = 1, kHi = 1024;
      std::int64_t v = 0;
      if (!parse_ranged_i64(ctx.arg(3), kLo, kHi, v))
        return range_error("GB_THREADS", kLo, kHi);
      gb::set_threads(static_cast<std::size_t>(v));
      return status_ok();
    }
    if (ctx.arg_is(2, "SLOWLOG_THRESHOLD_US")) {
      // -1 disables (Redis slowlog-log-slower-than convention), 0 logs
      // everything; the ceiling (one day in microseconds) rejects
      // nonsense thresholds that could never fire.
      constexpr std::int64_t kLo = -1, kHi = 86'400'000'000;
      std::int64_t v = 0;
      if (!parse_ranged_i64(ctx.arg(3), kLo, kHi, v))
        return range_error("SLOWLOG_THRESHOLD_US", kLo, kHi,
                           " (microseconds; 0 logs everything, -1 disables)");
      srv.set_slowlog_threshold_us(v);
      return status_ok();
    }
    if (ctx.arg_is(2, "WAL_FSYNC") || ctx.arg_is(2, "WAL_MAX_BYTES")) {
      if (!srv.durability_)
        return error("durability is disabled (no data dir configured)");
      if (ctx.arg_is(2, "WAL_FSYNC")) {
        srv.durability_->set_fsync_policy(
            persist::parse_fsync_policy(ctx.arg(3)));
        return status_ok();
      }
      // Floor: below one frame the rewrite loop would thrash; ceiling:
      // 1 TiB, past which the knob is certainly a typo'd byte count.
      constexpr std::int64_t kLo = 1024, kHi = 1'099'511'627'776;
      std::int64_t v = 0;
      if (!parse_ranged_i64(ctx.arg(3), kLo, kHi, v))
        return range_error("WAL_MAX_BYTES", kLo, kHi);
      srv.durability_->set_wal_max_bytes(static_cast<std::uint64_t>(v));
      return status_ok();
    }
    if (ctx.arg_is(2, "DICT_MIN_STRING_LEN")) {
      // Minimum length for a property string to be interned into the
      // shared dictionary.  0 interns everything; the ceiling (64 KiB)
      // effectively turns interning off.  Applies to writes from here
      // on — existing handles keep their encoding.
      constexpr std::int64_t kLo = 0,
                             kHi = static_cast<std::int64_t>(
                                 mem::kMaxDictMinStringLen);
      std::int64_t v = 0;
      if (!parse_ranged_i64(ctx.arg(3), kLo, kHi, v))
        return range_error("DICT_MIN_STRING_LEN", kLo, kHi);
      mem::set_dict_min_string_len(static_cast<std::size_t>(v));
      return status_ok();
    }
    if (ctx.arg_is(2, "PLAN_CACHE_SIZE")) {
      // Ceiling caps per-graph memory: each slot can pin a compiled
      // plan, so an unbounded capacity is an OOM knob.
      constexpr std::int64_t kLo = 1, kHi = 1'048'576;
      std::int64_t v = 0;
      if (!parse_ranged_i64(ctx.arg(3), kLo, kHi, v))
        return range_error("PLAN_CACHE_SIZE", kLo, kHi);
      util::MutexLock lk(srv.keyspace_mu_);
      srv.plan_cache_capacity_ = static_cast<std::size_t>(v);
      for (auto& [key, entry] : srv.keyspace_)
        entry->plan_cache.set_capacity(srv.plan_cache_capacity_);
      return status_ok();
    }
    return error("unknown config '" + ctx.arg(2) + "'");
  }
  return error("GRAPH.CONFIG GET|SET <name> [value]");
}

}  // namespace rg::server

#!/usr/bin/env python3
"""Project invariant linter: concurrency/durability rules the compiler
cannot see.  Runs over src/ as a CI gate next to the command-docs drift
gate, and as a ctest (`ctest -R lint`).

Rules
-----
raw-mutex       No raw std synchronization primitive (std::mutex,
                std::shared_mutex, std::lock_guard, std::scoped_lock,
                std::condition_variable[_any]) or its header outside
                util/sync.hpp: everything locks through the annotated
                rg::util wrappers so Clang Thread Safety Analysis sees
                it.  The std::shared_lock/std::unique_lock ADAPTERS are
                deliberately not banned — they are the documented
                escape hatch (CommandCtx::shared_lock/exclusive_lock)
                for registry-added commands outside the analyzed tree.

write-journals  Every built-in CommandSpec carrying kWrite journals
                (calls ctx.journal / ctx.journal_batch in its handler
                or a CommandHandlers helper it calls), EXCEPT kInternal
                replay frames, which by definition re-apply an already
                journaled write.  Conversely no kReadOnly handler body
                journals or mutates the DurabilityManager (append*/
                set_*): durability decisions live in the table, not in
                handler code.  The read-only check is direct-body only:
                shared helpers like run_query are flag-gated at runtime
                (journal() throws without kWrite).

io-under-lock   No blocking file I/O (fsync/fdatasync, snapshot
                save/load, atomic_write_file, fstream construction)
                inside a scope holding a GRAPH lock (a util:: guard on
                keyspace_mu_ or a GraphEntry `.lock`/`->lock`): a write
                stall on one graph must never become a keyspace-wide or
                reader-visible stall.  The WAL's own mutex is exempt —
                fsync-under-WAL-lock is that lock's entire job.

wal-frames      The WAL frame-type names and the command registry stay
                in sync: every string literal journaled as a frame name
                must be a registered built-in carrying kWrite (replay
                dispatches frames through the same table), and every
                kInternal spec (replay-only frame type) must be emitted
                by some journal call site — an unreferenced internal
                frame type is dead protocol.

replica-apply   Replication frame application (server/replication.cpp)
                re-applies writes the PRIMARY already journaled: every
                dispatch() call there must pass
                CommandSource::kReplication (so the replica-side gates
                — journaling, slowlog, the read-only check — stay off),
                and the file must never journal or append to the WAL
                itself: re-journaling an applied frame would duplicate
                it on the next recovery.

mvcc-api        Delta-matrix internals stay inside the graph layer:
                code outside src/graphblas and src/graph must not name
                the delta overlay members (delta_plus_/delta_minus_) or
                construct a GraphSnapshot directly.  Everything above
                goes through the snapshot-pin API — EpochManager::
                try_pin/pin_or_fork/invalidate for epochs and
                Graph::delta_counts() for the GRAPH.INFO gauges — so
                the MVCC representation can change without touching
                the server.  Within src/server/ there is one way to
                publish an epoch: invalidate()/pin_or_fork() may be
                called only from the commit step (CommandCtx::commit,
                behind journal()/journal_batch()) and Server::pin.

mem-accounting  Two-sided memory-subsystem hygiene.  (a) The files
                that own tracked allocations (util/data_block.hpp,
                graphblas/matrix.hpp, exec/plan_cache.cpp) must touch
                mem::accountant — dropping the charge calls silently
                stales the GRAPH.INFO memory gauges.  (b) Dictionary
                internals (mem::Dict, mem::Str) stay inside src/mem
                and src/graph: everything above deals in graph::Value
                and the mem::dict_min_string_len() threshold knob, so
                the interning representation can change without
                touching the server.

Suppressions: `// lint:allow(<rule>): <reason>` either inline on the
offending line, or — for io-under-lock — on a comment line immediately
above the guard construction, which then covers that guard's scope.

Usage:
  lint_invariants.py [--root REPO_ROOT]   # lint src/
  lint_invariants.py --self-test          # prove every rule fires
"""

import argparse
import pathlib
import re
import sys

# --------------------------------------------------------------------------
# Shared helpers
# --------------------------------------------------------------------------

ALLOW_RE = re.compile(r"//\s*lint:allow\(([a-z-]+)\)")


def allowed(line, rule):
    """True when `line` carries an inline lint:allow for `rule`."""
    m = ALLOW_RE.search(line)
    return bool(m) and m.group(1) == rule


def strip_comments(text):
    """Blank out // and /* */ comments and string literals, preserving
    line structure, so rules never match inside them."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            out.append("".join(ch if ch == "\n" else " "
                               for ch in text[i:j + 2]))
            i = j + 2
        elif c in "\"'":
            q, j = c, i + 1
            while j < n and text[j] != q:
                j += 2 if text[j] == "\\" else 1
            out.append(q + " " * (j - i - 1) + q)
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def body_span(text, decl_re):
    """(start, end) of the brace-balanced body following the first match
    of decl_re, or None."""
    m = decl_re.search(text)
    if not m:
        return None
    i = text.find("{", m.end())
    if i < 0:
        return None
    depth, j = 1, i + 1
    while j < len(text) and depth:
        depth += {"{": 1, "}": -1}.get(text[j], 0)
        j += 1
    return i + 1, j - 1


def body_of(text, decl_re):
    """The brace-balanced body following the first match of decl_re."""
    span = body_span(text, decl_re)
    return None if span is None else text[span[0]:span[1]]


class Finding:
    def __init__(self, path, line, rule, message):
        self.path, self.line, self.rule, self.message = \
            path, line, rule, message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# --------------------------------------------------------------------------
# Rule: raw-mutex
# --------------------------------------------------------------------------

RAW_MUTEX_RE = re.compile(
    r"\bstd::(mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"recursive_timed_mutex|shared_timed_mutex|lock_guard|scoped_lock|"
    r"condition_variable(?:_any)?)\b"
    r"|#\s*include\s*<(mutex|shared_mutex|condition_variable)>")


def check_raw_mutex(path, text):
    if path.replace("\\", "/").endswith("util/sync.hpp"):
        return []
    findings = []
    stripped = strip_comments(text)
    for lineno, (line, raw) in enumerate(
            zip(stripped.splitlines(), text.splitlines()), 1):
        m = RAW_MUTEX_RE.search(line)
        if not m or allowed(raw, "raw-mutex"):
            continue
        what = m.group(0).strip()
        findings.append(Finding(
            path, lineno, "raw-mutex",
            f"raw std synchronization primitive `{what}` outside "
            f"util/sync.hpp; use the annotated rg::util wrappers"))
    return findings


# --------------------------------------------------------------------------
# Rule: write-journals (+ read-only purity)  and  wal-frames
# Both parse the builtins table in server/command.cpp.
# --------------------------------------------------------------------------

BUILTIN_RE = re.compile(
    r'\{"([A-Z][A-Z0-9._]*)",\s*-?\d+,\s*-?\d+,\s*([\w \t|]+?),'
    r"[^{}]*?&H::(\w+)\}", re.S)
JOURNAL_CALL_RE = re.compile(r"\bjournal(?:_batch)?\s*\(")
JOURNAL_FRAME_RE = re.compile(r'\bjournal(?:_batch)?\s*\(\s*\{\s*"([^"]+)"')
DURABILITY_MUT_RE = re.compile(
    r"durability_\s*->\s*(append\w*|set_\w+)\s*\(")


def parse_builtins(text):
    """[(name, flags:set, handler)] from the CommandSpec builtins table."""
    table = body_of(text, re.compile(r"CommandSpec\s+builtins\s*\[\]\s*="))
    if table is None:
        return []
    return [(m.group(1), {f.strip() for f in m.group(2).split("|")},
             m.group(3)) for m in BUILTIN_RE.finditer(table)]


def handler_body(text, name):
    return body_of(text, re.compile(
        r"Reply\s+CommandHandlers::" + re.escape(name) + r"\s*\("))


def check_write_journals(path, text):
    builtins = parse_builtins(text)
    if not builtins:
        return []  # not the command table translation unit
    findings = []
    helper_names = {h for _, _, h in builtins}
    for name, flags, handler in builtins:
        body = handler_body(text, name if False else handler)
        if body is None:
            findings.append(Finding(path, 1, "write-journals",
                                    f"handler `{handler}` for {name} not "
                                    f"found in this file"))
            continue
        # One level of CommandHandlers helper following (run_query etc.).
        reach = body
        for callee in re.findall(r"\b(\w+)\s*\(", body):
            if callee not in helper_names and callee != handler:
                helper = handler_body(text, callee)
                if helper is not None:
                    reach += helper
        if "kWrite" in flags and "kInternal" not in flags:
            if not JOURNAL_CALL_RE.search(reach):
                findings.append(Finding(
                    path, 1, "write-journals",
                    f"{name} carries kWrite but neither `{handler}` nor "
                    f"its helpers journal: an acknowledged write would "
                    f"be lost on crash"))
        if "kReadOnly" in flags:
            m = JOURNAL_CALL_RE.search(body) or DURABILITY_MUT_RE.search(body)
            if m:
                findings.append(Finding(
                    path, 1, "write-journals",
                    f"{name} carries kReadOnly but `{handler}` journals "
                    f"or mutates the DurabilityManager"))
    return findings


def check_wal_frames(path, text):
    builtins = parse_builtins(text)
    if not builtins:
        return []
    findings = []
    by_name = {name: flags for name, flags, _ in builtins}
    emitted = set(JOURNAL_FRAME_RE.findall(text))
    for frame in sorted(emitted):
        flags = by_name.get(frame)
        if flags is None:
            findings.append(Finding(
                path, 1, "wal-frames",
                f"journaled frame type `{frame}` is not a registered "
                f"built-in: replay would reject it as unknown"))
        elif "kWrite" not in flags:
            findings.append(Finding(
                path, 1, "wal-frames",
                f"journaled frame type `{frame}` is not kWrite: replay "
                f"dispatch would refuse to apply it"))
    for name, flags, _ in builtins:
        if "kInternal" in flags and name not in emitted:
            findings.append(Finding(
                path, 1, "wal-frames",
                f"kInternal frame type `{name}` is never journaled: "
                f"dead replay protocol"))
    return findings


# --------------------------------------------------------------------------
# Rule: replica-apply (path-scoped to server/replication.cpp)
# --------------------------------------------------------------------------

DISPATCH_CALL_RE = re.compile(r"\bdispatch\s*\(")
REPL_JOURNAL_RE = re.compile(
    r"\bjournal(?:_batch)?\s*\(|durability_\s*->\s*append\w*\s*\(")


def check_replica_apply(path, text):
    if not path.replace("\\", "/").endswith("server/replication.cpp"):
        return []
    findings = []
    stripped = strip_comments(text)
    raw_lines = text.splitlines()
    for m in DISPATCH_CALL_RE.finditer(stripped):
        lineno = stripped.count("\n", 0, m.start()) + 1
        if allowed(raw_lines[lineno - 1], "replica-apply"):
            continue
        # Balanced-paren scan for the full argument list (calls wrap).
        depth, j = 1, m.end()
        while j < len(stripped) and depth:
            depth += {"(": 1, ")": -1}.get(stripped[j], 0)
            j += 1
        if "kReplication" not in stripped[m.end():j]:
            findings.append(Finding(
                path, lineno, "replica-apply",
                "dispatch() in the replication link must pass "
                "CommandSource::kReplication: the client path would "
                "re-journal the frame and hit the read-only gate"))
    for lineno, line in enumerate(stripped.splitlines(), 1):
        m = REPL_JOURNAL_RE.search(line)
        if not m or allowed(raw_lines[lineno - 1], "replica-apply"):
            continue
        findings.append(Finding(
            path, lineno, "replica-apply",
            f"`{m.group(0).strip()}` in the replication link: applied "
            f"frames are already journaled by the primary; journaling "
            f"them again would duplicate writes on recovery"))
    return findings


# --------------------------------------------------------------------------
# Rule: io-under-lock
# --------------------------------------------------------------------------

GUARD_RE = re.compile(
    r"util::(?:MutexLock|SharedLock|WriteLock|DualMutexLock)\s+\w+\s*"
    r"\(([^;]*)\)\s*;")
GRAPH_LOCK_ARG_RE = re.compile(r"keyspace_mu_|(?:\.|->)\s*lock\b")
BLOCKING_IO_RE = re.compile(
    r"\b(fsync|fdatasync|save_graph_file|load_graph_file|"
    r"atomic_write_file|read_file|std::[io]?fstream|std::ofstream|"
    r"std::ifstream)\b")


def check_io_under_lock(path, text):
    findings = []
    stripped = strip_comments(text)
    lines = stripped.splitlines()
    raw_lines = text.splitlines()
    for lineno, line in enumerate(lines, 1):
        m = GUARD_RE.search(line)
        if not m or not GRAPH_LOCK_ARG_RE.search(m.group(1)):
            continue
        # lint:allow(io-under-lock) on the comment line(s) immediately
        # above the guard covers the whole guarded scope.
        k = lineno - 2
        covered = False
        while k >= 0 and raw_lines[k].lstrip().startswith("//"):
            if allowed(raw_lines[k], "io-under-lock"):
                covered = True
            k -= 1
        if covered:
            continue
        # Scope: from the guard to the close of its enclosing block.
        depth = 0
        for j in range(lineno - 1, len(lines)):
            seg = lines[j] if j > lineno - 1 else lines[j][m.end():]
            for ch in seg:
                if ch == "{":
                    depth += 1
                elif ch == "}":
                    depth -= 1
            if j > lineno - 1:
                io = BLOCKING_IO_RE.search(lines[j])
                if io and not allowed(raw_lines[j], "io-under-lock"):
                    findings.append(Finding(
                        path, j + 1, "io-under-lock",
                        f"blocking I/O `{io.group(1)}` while holding the "
                        f"graph lock taken at line {lineno}"))
            if depth < 0:
                break
    return findings


# --------------------------------------------------------------------------
# Rule: mvcc-api (delta/epoch internals stay below the graph layer)
# --------------------------------------------------------------------------

MVCC_INTERNALS_RE = re.compile(
    r"\bdelta_(?:plus|minus)_\b"
    r"|\bnew\s+(?:graph::)?GraphSnapshot\b"
    r"|\bmake_(?:shared|unique)\s*<\s*(?:const\s+)?(?:graph::)?"
    r"GraphSnapshot\b"
    r"|\bGraphSnapshot\s*\(")


# The only server-side functions that may retire or publish an epoch.
EPOCH_CALL_RE = re.compile(r"\b(?:invalidate|pin_or_fork)\s*\(")
EPOCH_PUBLISHERS_RE = re.compile(
    r"\b(?:CommandCtx::commit|Server::pin)\s*\(")


def check_mvcc_api(path, text):
    p = path.replace("\\", "/")
    if p.startswith("src/graphblas/") or p.startswith("src/graph/"):
        return []
    findings = []
    stripped = strip_comments(text)
    raw_lines = text.splitlines()
    for lineno, (line, raw) in enumerate(
            zip(stripped.splitlines(), raw_lines), 1):
        m = MVCC_INTERNALS_RE.search(line)
        if not m or allowed(raw, "mvcc-api"):
            continue
        findings.append(Finding(
            path, lineno, "mvcc-api",
            f"`{m.group(0).strip()}` outside src/graphblas//src/graph: "
            f"delta overlays and snapshot construction are graph-layer "
            f"internals; use the snapshot-pin API (EpochManager::"
            f"try_pin/pin_or_fork/invalidate, Graph::delta_counts)"))
    if not p.startswith("src/server/"):
        return findings
    # Every definition of a sanctioned publisher in this file.
    spans, pos = [], 0
    while True:
        span = body_span(stripped[pos:], EPOCH_PUBLISHERS_RE)
        if span is None:
            break
        spans.append((pos + span[0], pos + span[1]))
        pos += span[1]
    for m in EPOCH_CALL_RE.finditer(stripped):
        if any(a <= m.start() < b for a, b in spans):
            continue
        lineno = stripped.count("\n", 0, m.start()) + 1
        if allowed(raw_lines[lineno - 1], "mvcc-api"):
            continue
        findings.append(Finding(
            path, lineno, "mvcc-api",
            f"`{m.group(0).rstrip('( ')}` outside the commit step and "
            f"Server::pin: every write retires and republishes its epoch "
            f"in CommandCtx::commit (via journal()), and reads fork only "
            f"through Server::pin"))
    return findings


# --------------------------------------------------------------------------
# mem-accounting
# --------------------------------------------------------------------------

# Files owning allocations the per-component gauges track: dropping the
# accountant calls from any of these stales GRAPH.INFO memory silently.
MEM_TRACKED_FILES = {
    "src/util/data_block.hpp",
    "src/graphblas/matrix.hpp",
    "src/exec/plan_cache.cpp",
}

MEM_DICT_INTERNALS_RE = re.compile(r"\bmem::(?:Dict|Str)\b")


def check_mem_accounting(path, text):
    p = path.replace("\\", "/")
    findings = []
    stripped = strip_comments(text)
    if p in MEM_TRACKED_FILES and "mem::accountant" not in stripped:
        findings.append(Finding(
            p, 1, "mem-accounting",
            "this file owns tracked allocations (datablock pages / CSR "
            "bodies / plan-cache entries) but never calls "
            "mem::accountant — the per-component memory gauges would "
            "silently go stale"))
    if p.startswith("src/mem/") or p.startswith("src/graph/"):
        return findings
    for lineno, (line, raw) in enumerate(
            zip(stripped.splitlines(), text.splitlines()), 1):
        m = MEM_DICT_INTERNALS_RE.search(line)
        if not m or allowed(raw, "mem-accounting"):
            continue
        findings.append(Finding(
            p, lineno, "mem-accounting",
            f"`{m.group(0)}` outside src/mem//src/graph: dictionary "
            f"handles are a property-storage internal; layers above use "
            f"graph::Value (and mem::dict_min_string_len() for the "
            f"threshold knob)"))
    return findings


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

RULES = [check_raw_mutex, check_write_journals, check_wal_frames,
         check_replica_apply, check_io_under_lock, check_mvcc_api,
         check_mem_accounting]


def lint_tree(root):
    src = pathlib.Path(root) / "src"
    findings = []
    for path in sorted(src.rglob("*.[ch]pp")):
        text = path.read_text()
        rel = path.relative_to(root).as_posix()
        for rule in RULES:
            findings.extend(rule(rel, text))
    return findings


# --------------------------------------------------------------------------
# Self-test: every rule must fire on a seeded violation and stay quiet
# on the equivalent clean code.
# --------------------------------------------------------------------------

SELF_TESTS = [
    # (rule fn, expected rule name or None for clean, source text
    #  [, path]) — path defaults to selftest.cpp; path-scoped rules
    # (replica-apply) get the path they are scoped to.
    (check_raw_mutex, "raw-mutex",
     "#include <mutex>\nstd::mutex mu_;\n"),
    (check_raw_mutex, "raw-mutex",
     "std::lock_guard lk(mu_);\n"),
    (check_raw_mutex, "raw-mutex",
     "std::condition_variable_any cv_;\n"),
    (check_raw_mutex, None,
     "#include <shared_mutex>  // lint:allow(raw-mutex): adapters\n"
     "util::Mutex mu_;\nstd::shared_lock<util::SharedMutex> lk;\n"),
    (check_raw_mutex, None,
     "// std::mutex only in a comment\nconst char* s = \"std::mutex\";\n"),

    (check_write_journals, "write-journals", """
      const CommandSpec builtins[] = {
          {"GRAPH.EVIL", 2, 2, kWrite | kGraphKeyed, "x", &H::evil},
      };
      Reply CommandHandlers::evil(CommandCtx& ctx) { return ok(); }
    """),
    (check_write_journals, "write-journals", """
      const CommandSpec builtins[] = {
          {"GRAPH.PEEK", 2, 2, kReadOnly, "x", &H::peek},
      };
      Reply CommandHandlers::peek(CommandCtx& ctx) {
        ctx.server().durability_->set_wal_max_bytes(1);
        return ok();
      }
    """),
    (check_write_journals, None, """
      const CommandSpec builtins[] = {
          {"GRAPH.GOOD", 2, 2, kWrite | kGraphKeyed, "x", &H::good},
          {"GRAPH.VIEW", 2, 2, kReadOnly, "x", &H::view},
          {"GRAPH.G.P", 2, 2, kWrite | kInternal, "x", &H::gp},
      };
      Reply CommandHandlers::good(CommandCtx& ctx) { return helper(ctx); }
      Reply CommandHandlers::helper(CommandCtx& ctx) {
        ctx.journal({"GRAPH.G.P", ctx.key()});
        return ok();
      }
      Reply CommandHandlers::view(CommandCtx& ctx) { return ok(); }
      Reply CommandHandlers::gp(CommandCtx& ctx) { return ok(); }
    """),

    (check_wal_frames, "wal-frames", """
      const CommandSpec builtins[] = {
          {"GRAPH.SET", 2, 2, kWrite, "x", &H::set},
      };
      Reply CommandHandlers::set(CommandCtx& ctx) {
        ctx.journal({"GRAPH.TYPO", ctx.key()});
        return ok();
      }
    """),
    (check_wal_frames, "wal-frames", """
      const CommandSpec builtins[] = {
          {"GRAPH.SET", 2, 2, kWrite, "x", &H::set},
          {"GRAPH.DEAD.FRAME", 2, 2, kWrite | kInternal, "x", &H::dead},
      };
      Reply CommandHandlers::set(CommandCtx& ctx) {
        ctx.journal({"GRAPH.SET", ctx.key()});
        return ok();
      }
      Reply CommandHandlers::dead(CommandCtx& ctx) { return ok(); }
    """),
    (check_wal_frames, None, """
      const CommandSpec builtins[] = {
          {"GRAPH.SET", 2, 2, kWrite, "x", &H::set},
      };
      Reply CommandHandlers::set(CommandCtx& ctx) {
        ctx.journal({"GRAPH.SET", ctx.key()});
        return ok();
      }
    """),

    (check_replica_apply, "replica-apply", """
      void ReplicationClient::apply_frame(const std::string& blob) {
        srv_.dispatch(argv);
      }
    """, "src/server/replication.cpp"),
    (check_replica_apply, "replica-apply", """
      void ReplicationClient::apply_frame(const std::string& blob) {
        srv_.dispatch(argv, CommandSource::kReplication);
        srv_.durability_->append(argv);
      }
    """, "src/server/replication.cpp"),
    (check_replica_apply, "replica-apply", """
      void ReplicationClient::apply_frame(CommandCtx& ctx) {
        ctx.journal(ctx.argv());
      }
    """, "src/server/replication.cpp"),
    (check_replica_apply, None, """
      void ReplicationClient::apply_frame(const std::string& blob) {
        rdbuf_.append(buf, got);  // a string append, not the WAL's
        srv_.dispatch(argv,
                      CommandSource::kReplication);
      }
    """, "src/server/replication.cpp"),
    (check_replica_apply, None, """
      // The rule is scoped: client-path dispatches elsewhere are fine.
      void Server::submit(std::vector<std::string> argv) {
        dispatch(argv);
      }
    """, "src/server/server.cpp"),

    (check_io_under_lock, "io-under-lock", """
      void f(GraphEntry& e) {
        util::SharedLock lk(e.lock);
        graph::save_graph_file(e.graph, path);
      }
    """),
    (check_io_under_lock, "io-under-lock", """
      void f(Server& srv) {
        util::MutexLock lk(srv.keyspace_mu_);
        ::fdatasync(fd);
      }
    """),
    (check_io_under_lock, None, """
      void f(GraphEntry& e) {
        {
          util::SharedLock lk(e.lock);
          e.graph.flush();
        }
        graph::save_graph_file(e.graph, path);  // lock dropped above
      }
    """),
    (check_io_under_lock, None, """
      void f(GraphEntry& e) {
        // lint:allow(io-under-lock): snapshot protocol
        util::SharedLock lk(e.lock);
        graph::save_graph_file(e.graph, path);
      }
    """),
    (check_io_under_lock, None, """
      void f(WalWriter& w) {
        util::MutexLock lk(mu_);   // the WAL's own mutex: exempt
        ::fdatasync(fd_);
      }
    """),

    (check_mvcc_api, "mvcc-api", """
      void peek(graph::Graph& g) {
        auto n = g.delta_plus_.size();
      }
    """, "src/server/evil.cpp"),
    (check_mvcc_api, "mvcc-api", """
      auto snap = std::make_shared<graph::GraphSnapshot>(
          g.fork(), 0, 0, nullptr);
    """, "src/exec/evil.cpp"),
    (check_mvcc_api, None, """
      void good(GraphEntry& ge) {
        auto snap = ge.epochs.try_pin();           // sanctioned API
        const auto [plus, minus] = g.delta_counts();
      }
    """, "src/server/good.cpp"),
    (check_mvcc_api, "mvcc-api", """
      Reply CommandHandlers::bulk(CommandCtx& ctx) {
        util::WriteLock lk(ge.lock);
        ctx.journal_batch(argv, n);
        if (auto retired = ge.epochs.invalidate())   // a second publisher
          ge.epochs.pin_or_fork(ge.graph, ge.last_lsn);
      }
    """, "src/server/command.cpp"),
    (check_mvcc_api, None, """
      std::uint64_t CommandCtx::commit(const Frame& frame, const N* n) {
        auto retired = ge ? ge->epochs.invalidate() : nullptr;
        if (retired) ge->epochs.pin_or_fork(ge->graph, ge->last_lsn);
      }
      std::shared_ptr<const Snap> Server::pin(GraphEntry& ge) {
        if (auto snap = ge.epochs.try_pin()) return snap;
        return ge.epochs.pin_or_fork(ge.graph, ge.last_lsn);
      }
    """, "src/server/command.cpp"),
    (check_mvcc_api, None, """
      // The rule is scoped: the graph layer owns these members.
      void Matrix::fold() { delta_plus_.clear(); }
    """, "src/graphblas/matrix.hpp"),

    (check_mem_accounting, "mem-accounting", """
      struct Page { Item items[256]; };  // allocates, never accounts
    """, "src/util/data_block.hpp"),
    (check_mem_accounting, None, """
      struct Page {
        Page() { mem::accountant().add(mem::Component::kProperties, 1); }
      };
    """, "src/util/data_block.hpp"),
    (check_mem_accounting, "mem-accounting", """
      void peek() { mem::Str h = mem::Dict::global().intern("x"); }
    """, "src/server/evil.cpp"),
    (check_mem_accounting, None, """
      void knob() { mem::set_dict_min_string_len(32); }
      void gauge() { auto b = mem::accountant().total(); }
    """, "src/server/command.cpp"),
    (check_mem_accounting, None, """
      // The dictionary layer itself obviously names its own types.
      mem::Str Dict::intern(std::string_view s);
    """, "src/mem/dict.cpp"),
]


def self_test():
    failures = 0
    for i, case in enumerate(SELF_TESTS):
        rule, expect, text = case[:3]
        path = case[3] if len(case) > 3 else "selftest.cpp"
        found = rule(path, text)
        if expect is None and found:
            print(f"self-test {i} ({rule.__name__}): expected clean, got:"
                  f" {found[0]}", file=sys.stderr)
            failures += 1
        elif expect is not None and not any(f.rule == expect for f in found):
            print(f"self-test {i} ({rule.__name__}): expected a {expect} "
                  f"finding, got none", file=sys.stderr)
            failures += 1
    if failures:
        return 1
    print(f"lint_invariants self-test: {len(SELF_TESTS)} cases pass "
          f"({len(RULES)} rules each proven to fire and to stay quiet)")
    return 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", default=".",
                    help="repository root (containing src/)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the rule self-tests instead of linting")
    args = ap.parse_args()

    if args.self_test:
        return self_test()

    findings = lint_tree(args.root)
    for f in findings:
        print(f, file=sys.stderr)
    if findings:
        print(f"lint_invariants: {len(findings)} violation(s)",
              file=sys.stderr)
        return 1
    print("lint_invariants: src/ clean (raw-mutex, write-journals, "
          "wal-frames, replica-apply, io-under-lock, mvcc-api, "
          "mem-accounting)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

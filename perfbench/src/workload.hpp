// Inputs and the independent oracle: the graph generators, the three
// workload definitions, the query texts, and a plain BFS / out-degree
// count over the generated edge list that every reply is checked
// against.  Shared by the load and trace drivers; links no engine code.
#pragma once

#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"

namespace pb {

// ---------------------------------------------------------------------------
// Graphs
// ---------------------------------------------------------------------------

/// Directed multigraph over vertices [0, n); edges keep duplicates.
struct EdgeList {
  std::uint32_t n = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
};

/// Recursive-quadrant (R-MAT) sampler with per-level noise, self-loops
/// resampled and vertex ids permuted (the Graph500 generator's shape).
inline EdgeList rmat(unsigned scale, unsigned edgefactor, double a, double b,
                     double c, double noise, Rng& rng) {
  EdgeList el;
  el.n = 1u << scale;
  const std::size_t m = static_cast<std::size_t>(edgefactor) * el.n;
  el.edges.reserve(m + m / 8);
  auto sample = [&] {
    std::uint32_t s = 0, d = 0;
    for (unsigned level = 0; level < scale; ++level) {
      const double na = a * (1 + noise * (rng.uniform() - 0.5));
      const double nb = b * (1 + noise * (rng.uniform() - 0.5));
      const double nc = c * (1 + noise * (rng.uniform() - 0.5));
      const double nd = (1 - a - b - c) * (1 + noise * (rng.uniform() - 0.5));
      const double r = rng.uniform() * (na + nb + nc + nd);
      s <<= 1;
      d <<= 1;
      if (r >= na + nb + nc) {
        s |= 1;
        d |= 1;
      } else if (r >= na + nb) {
        s |= 1;
      } else if (r >= na) {
        d |= 1;
      }
    }
    return std::pair{s, d};
  };
  while (el.edges.size() < m) {
    const auto e = sample();
    if (e.first != e.second) el.edges.push_back(e);
  }
  std::vector<std::uint32_t> perm(el.n);
  std::iota(perm.begin(), perm.end(), 0u);
  for (std::uint32_t i = el.n - 1; i > 0; --i)
    std::swap(perm[i], perm[rng.below(i + 1)]);
  for (auto& [s, d] : el.edges) {
    s = perm[s];
    d = perm[d];
  }
  return el;
}

/// Graph500 Kronecker parameters A=0.57, B=0.19, C=0.19.
inline EdgeList graph500(unsigned scale, unsigned edgefactor,
                         std::uint64_t seed) {
  Rng rng(seed);
  return rmat(scale, edgefactor, 0.57, 0.19, 0.19, 0.1, rng);
}

/// Follower graph: a more skewed R-MAT plus a celebrity overlay that
/// gives n/2048 vertices a Zipf-like share of 10% extra in-edges.
inline EdgeList twitter_like(unsigned scale, unsigned edgefactor,
                             std::uint64_t seed) {
  Rng rng(seed ^ 0x7717e4aaULL);
  EdgeList el = rmat(scale, edgefactor, 0.65, 0.15, 0.15, 0.05, rng);
  const std::size_t ncelebs = std::max<std::size_t>(4, el.n / 2048);
  std::vector<std::uint32_t> celebs(ncelebs);
  for (auto& v : celebs) v = static_cast<std::uint32_t>(rng.below(el.n));
  const std::size_t extra = el.edges.size() / 10;
  for (std::size_t k = 0; k < extra; ++k) {
    const auto rank = static_cast<std::size_t>(
        static_cast<double>(ncelebs) * std::exp2(-8.0 * rng.uniform()));
    const std::uint32_t star = celebs[std::min(rank, ncelebs - 1)];
    const auto follower = static_cast<std::uint32_t>(rng.below(el.n));
    if (follower != star) el.edges.emplace_back(follower, star);
  }
  return el;
}

// ---------------------------------------------------------------------------
// Oracle: plain BFS and out-degree over the edge list
// ---------------------------------------------------------------------------

/// Answers the benchmark's two read queries from the edge list alone,
/// with the Cypher semantics the engine implements:
///  * `count(t)` over `(a)-[:E]->(t)` counts every edge, so a multi-edge
///    counts once per copy;
///  * `count(DISTINCT t)` over `(a)-[:E*1..k]->(t)` counts vertices at
///    distance 1..k, and the seed itself when a cycle returns to it
///    within k hops (the seed is not pre-marked visited).
class Oracle {
 public:
  explicit Oracle(const EdgeList& el) : offsets_(el.n + 1, 0), seen_(el.n, 0) {
    for (const auto& e : el.edges) ++offsets_[e.first + 1];
    std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
    targets_.resize(el.edges.size());
    std::vector<std::uint64_t> fill(offsets_.begin(), offsets_.end() - 1);
    for (const auto& e : el.edges) targets_[fill[e.first]++] = e.second;
  }

  std::uint32_t vertices() const {
    return static_cast<std::uint32_t>(offsets_.size() - 1);
  }

  std::uint64_t out_edges(std::uint32_t v) const {
    return offsets_[v + 1] - offsets_[v];
  }

  /// counts[k] = distinct vertices within 1..k hops, for k = 0..kmax.
  std::vector<std::uint64_t> khop(std::uint32_t seed, unsigned kmax) {
    ++stamp_;
    std::vector<std::uint64_t> counts(kmax + 1, 0);
    std::vector<std::uint32_t> frontier{seed}, next;
    for (unsigned hop = 1; hop <= kmax; ++hop) {
      next.clear();
      for (std::uint32_t u : frontier)
        for (auto i = offsets_[u]; i < offsets_[u + 1]; ++i) {
          const std::uint32_t v = targets_[i];
          if (seen_[v] != stamp_) {
            seen_[v] = stamp_;
            next.push_back(v);
          }
        }
      counts[hop] = counts[hop - 1] + next.size();
      frontier.swap(next);
    }
    return counts;
  }

 private:
  std::vector<std::uint64_t> offsets_;
  std::vector<std::uint32_t> targets_;
  std::vector<std::uint32_t> seen_;
  std::uint32_t stamp_ = 0;
};

/// Hand-built graph with a cycle back to seed 0 (0->1->2->0) and a
/// multi-edge (0->3 twice); expected answers are worked out by hand.
inline EdgeList selfcheck_graph() {
  return {5, {{0, 1}, {1, 2}, {2, 0}, {0, 3}, {0, 3}, {3, 4}}};
}
inline constexpr std::uint64_t kSelfcheckOutEdges0 = 3;  // 1, 3, 3
inline constexpr std::uint64_t kSelfcheckKhop0[4] = {0, 2, 4, 5};

/// The oracle agrees with the hand-worked answers on selfcheck_graph().
inline bool oracle_selfcheck() {
  Oracle o(selfcheck_graph());
  const auto c = o.khop(0, 3);
  return o.out_edges(0) == kSelfcheckOutEdges0 && c[1] == kSelfcheckKhop0[1] &&
         c[2] == kSelfcheckKhop0[2] && c[3] == kSelfcheckKhop0[3];
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  bool twitter = false;    // twitter_like graph, else Graph500
  unsigned scale = 14;
  unsigned edgefactor = 16;
  bool khop = false;       // k-hop reads (k = 1, 2, 3), else 1-hop count(t)
  unsigned readers = 1;    // closed-loop reader connections
  /// The open-loop writer runs beside the readers for the whole measured
  /// phase; otherwise it sends kWritesAfterReads writes after them.
  bool writer_beside_readers = false;
};

inline constexpr unsigned kMaxK = 3;
/// Distinct k-hop seeds per run (each asked at every k).
inline constexpr std::size_t kKhopSeedPool = 1024;
/// Setups per run; setup_s reports their median.
inline constexpr int kSetups = 3;
/// Restarts on the final data dir per run; recovery_s reports the median.
inline constexpr int kRestarts = 3;
/// Open-loop write rate (writes/s), a rate the server keeps up with at
/// these graph sizes beside three readers.
inline constexpr double kWriteRate = 25;
/// Writes of the workloads whose writer runs after the readers.
inline constexpr std::size_t kWritesAfterReads = 100;

inline Workload workload_by_name(const std::string& name) {
  if (name == "khop") return {"khop", false, 14, 16, true, 1, false};
  if (name == "point_reads")
    return {"point_reads", true, 14, 16, false, 4, false};
  if (name == "mixed_rw") return {"mixed_rw", true, 14, 16, false, 3, true};
  throw std::invalid_argument("unknown workload '" + name +
                              "' (khop, point_reads, mixed_rw)");
}

inline EdgeList make_graph(const Workload& w, std::uint64_t seed) {
  return w.twitter ? twitter_like(w.scale, w.edgefactor, seed)
                   : graph500(w.scale, w.edgefactor, seed);
}

/// Read seeds: vertices with at least one out-edge (the TigerGraph
/// protocol's non-isolated seeds), drawn from `rng`.
inline std::vector<std::uint32_t> pick_seeds(const Oracle& o, std::size_t count,
                                             Rng& rng) {
  std::vector<std::uint32_t> out;
  out.reserve(count);
  while (out.size() < count) {
    const auto v = static_cast<std::uint32_t>(rng.below(o.vertices()));
    if (o.out_edges(v) > 0) out.push_back(v);
  }
  return out;
}

/// Tag vocabulary for written :X nodes (every string >= 16 bytes, so
/// it goes through the string dictionary).
inline const std::vector<std::string>& tag_vocabulary() {
  static const std::vector<std::string> v = {
      "perfbench-tag-amber",  "perfbench-tag-basalt", "perfbench-tag-cobalt",
      "perfbench-tag-dune",   "perfbench-tag-ember",  "perfbench-tag-fjord",
      "perfbench-tag-garnet", "perfbench-tag-harbor"};
  return v;
}

/// Reads go through GRAPH.RO_QUERY, the command that always runs on a
/// pinned MVCC epoch.  A GRAPH.QUERY read retires the published epoch
/// when it returns (the dispatch safety net for write-flagged commands),
/// so the next read forks or takes the exclusive lock; with four readers
/// that made point_reads throughput swing between ~12k and ~25k reads/s
/// on identical inputs.
inline const char* kReadCommand = "GRAPH.RO_QUERY";
inline const char* kWriteCommand = "GRAPH.QUERY";

inline std::string khop_query(std::uint32_t seed, unsigned k) {
  return "CYPHER s=" + std::to_string(seed) + " MATCH (a)-[:E*1.." +
         std::to_string(k) + "]->(t) WHERE id(a) = $s RETURN count(DISTINCT t)";
}
inline std::string point_query(std::uint32_t seed) {
  return "CYPHER s=" + std::to_string(seed) +
         " MATCH (a)-[:E]->(t) WHERE id(a) = $s RETURN count(t)";
}
/// Literal (unparameterized) write: a new :X node with an edge INTO the
/// original graph, so every read from an original vertex is unchanged.
inline std::string write_query(std::uint32_t target, const std::string& tag) {
  return "MATCH (a) WHERE id(a) = " + std::to_string(target) +
         " CREATE (:X {tag: '" + tag + "'})-[:E]->(a)";
}
inline const char* kCountXNodes = "MATCH (x:X) RETURN count(x)";
inline const char* kCountXEdges = "MATCH (x:X)-[:E]->(a) RETURN count(a)";

struct WriteOp {
  std::uint32_t target;
  std::string tag;
  std::string text;
};

/// A write target and tag, drawn from `rng`.
inline WriteOp next_write(const Oracle& o, Rng& rng) {
  const auto target = static_cast<std::uint32_t>(rng.below(o.vertices()));
  const auto& vocab = tag_vocabulary();
  const std::string& tag = vocab[rng.below(vocab.size())];
  return {target, tag, write_query(target, tag)};
}

/// GRAPH.BULK commands that load `el` into `key`: one NODES command,
/// then the edges in two halves (node ids are 0..n-1 on an empty key).
/// The load outgrows WAL_MAX_BYTES (4 MiB) but half of it does not, so
/// the background log rewrite starts only after the last command.  With
/// 65 536-edge commands it started mid-load, and how many commands it
/// folded into its snapshot (and so how many recovery replays) changed
/// from run to run; one command for all edges loads ~2x slower.
inline std::vector<std::vector<std::string>> bulk_commands(
    const EdgeList& el, const std::string& key) {
  std::vector<std::vector<std::string>> out;
  out.push_back({"GRAPH.BULK", key, "NODES", std::to_string(el.n)});
  const std::size_t half = (el.edges.size() + 1) / 2;
  for (std::size_t at = 0; at < el.edges.size(); at += half) {
    const std::size_t end = std::min(el.edges.size(), at + half);
    std::vector<std::string> argv = {"GRAPH.BULK", key, "EDGES", "E",
                                     std::to_string(end - at)};
    argv.reserve(5 + 2 * (end - at));
    for (std::size_t i = at; i < end; ++i) {
      argv.push_back(std::to_string(el.edges[i].first));
      argv.push_back(std::to_string(el.edges[i].second));
    }
    out.push_back(std::move(argv));
  }
  return out;
}

}  // namespace pb

// Shared pieces of the two perfbench drivers: argument parsing, a
// seeded PRNG, clocks, order statistics, the JSON result line and the
// host fingerprint.  Nothing here links the engine.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace pb {

// ---------------------------------------------------------------------------
// Command line: --workload W --seed N --seconds S [--server PATH]
//               [--workdir DIR] [--trace-out FILE]
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string server;     // resp_server binary (load driver)
  std::string workdir;    // scratch directory for data dirs
  std::string trace_out;  // span dump (trace driver)
};

inline Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--server") a.server = v;
    else if (k == "--workdir") a.workdir = v;
    else if (k == "--trace-out") a.trace_out = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.workload.empty() || a.workdir.empty() || a.seconds <= 0)
    throw std::invalid_argument(
        "usage: --workload W --seed N --seconds S --workdir DIR ...");
  return a;
}

// ---------------------------------------------------------------------------
// PRNG (splitmix64 seeding a xoshiro256**): the same --seed gives the
// same inputs on every host and compiler.
// ---------------------------------------------------------------------------

class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    for (auto& w : s_) w = splitmix(seed);
  }
  std::uint64_t next() {
    const std::uint64_t out = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return out;
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) {
    return static_cast<std::uint64_t>(uniform() * static_cast<double>(n));
  }

 private:
  static std::uint64_t splitmix(std::uint64_t& x) {
    std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

// ---------------------------------------------------------------------------
// Time and order statistics
// ---------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Linear-interpolated quantile q in [0, 1] (the "inclusive" method);
/// NaN for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0 / 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

/// Shortest round-trip decimal form: every measured digit is kept.
inline std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

inline std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

/// Metric name -> (value, unit), printed in insertion order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit});
  }
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (i) out += ", ";
      out += quoted(items_[i].name) + ": {\"value\": " + num(items_[i].value) +
             ", \"unit\": " + quoted(items_[i].unit) + "}";
    }
    return out + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

/// nproc, CPU model, compiler and build type, as one JSON object.
inline std::string host_fingerprint() {
  return "{\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu\": " + quoted(cpu_model()) +
         ", \"compiler\": " + quoted(PB_COMPILER) +
         ", \"build_type\": " + quoted(PB_BUILD_TYPE) + "}";
}

/// The run's two output lines: the full record (everything a reader
/// needs to interpret the numbers), then the result line the harness
/// parses, which must be the last line on stdout.
inline void print_result(const std::string& record_fields, bool correct,
                         std::uint64_t attempted, std::uint64_t failed,
                         const Metrics& metrics) {
  std::printf("{\"record\": {%s, \"host\": %s, \"metrics\": %s}}\n",
              record_fields.c_str(), host_fingerprint().c_str(),
              metrics.json().c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics.json().c_str());
  std::fflush(stdout);
}

}  // namespace pb

#pragma once

// Shared plumbing for the xgbench workloads: clocks and medians, the
// wall-clock spans the traced run records around each layer call, and the
// result record every workload fills in and writes as JSON.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "api/json.hpp"

namespace xgb {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
double median(std::vector<double> v);

/// What the command line asked for.
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned threads = 0;  ///< nproc: the thread count of the timed phase
  std::string out_dir;   ///< result.json and trace.json land here
};

/// Wall-clock spans kept in memory and written as a Chrome trace when the
/// run ends. A disabled recorder costs one branch per scope.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// RAII span: open on construction, closed (and parented to the span
  /// that was open when it started) on destruction.
  class Scope {
   public:
    Scope(Spans* spans, const char* cat, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;
    std::size_t index_ = 0;
  };

  Scope scope(const char* cat, std::string name) {
    return Scope(enabled_ ? this : nullptr, cat, std::move(name));
  }

  std::size_t size() const { return spans_.size(); }
  void write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    const char* cat = "";
    double start_us = 0.0;
    double dur_us = 0.0;
    std::int64_t parent = -1;  ///< index of the enclosing span, -1 at top
  };
  double now_us() const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// Everything a workload reports. Metrics carry their unit, sample count,
/// the input they were measured on, and the end-to-end metric they should
/// move — the tags the per-layer table in xgbench/README.md defines.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> mismatches;
  xg::api::Json meta = xg::api::Json::object();
  xg::api::Json metrics = xg::api::Json::object();

  void metric(const std::string& name, double value, const std::string& unit,
              std::uint64_t samples, const std::string& moves,
              const std::string& input);

  /// Record a failed output check: it counts as an attempted and failed
  /// operation and makes the run incorrect.
  void mismatch(std::string what);

  /// Record a passed output check (an attempted operation).
  void checked() { ++attempted; }

  void write(const std::string& path) const;
};

/// VmHWM of this process in MiB.
double peak_rss_mb();

/// CPU time of the machine (/proc/stat) and of this process
/// (/proc/self/stat), in clock ticks.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t busy = 0;   ///< total minus idle and iowait
  std::uint64_t steal = 0;  ///< time the hypervisor ran something else
  std::uint64_t self = 0;   ///< user + system time of this process
};
CpuTicks cpu_ticks();

/// How contended the machine was between two readings: the share of CPU
/// time stolen by the hypervisor, and the share other processes used.
/// A timed phase with high shares ran on a noisy host.
xg::api::Json contention(const CpuTicks& before, const CpuTicks& after);

/// FNV-1a over raw bytes: the payload digest the thread-count checks use.
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t h = 0xcbf29ce484222325ull);

}  // namespace xgb

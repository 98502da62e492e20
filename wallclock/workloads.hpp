#pragma once

// The five bench_wallclock workloads (README.md in this directory gives
// the table and the reason for each).  A workload object holds its
// set-up (graph, inputs, expected outputs); call() runs one
// closed-loop call, times only the library calls, and checks every
// output outside the timed region.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"

namespace prodsort::wallclock {

struct CallOutcome {
  double ms = 0;           ///< wall time of the timed library calls
  std::int64_t keys = 0;   ///< keys the call sorted
  bool ok = false;         ///< every correctness check passed
  std::uint64_t hash = 0;  ///< order-sensitive digest of the call's outputs
};

/// A per-layer metric; its unit is declared once, in BENCHMARK.json.
struct Metric {
  std::string name;
  double value = 0;
};

struct WorkloadOptions {
  std::uint64_t seed = 1;
  /// Directory for per-call journal directories and replay files; the
  /// benchmark creates and removes everything it puts there.
  std::string work_dir = ".";
  /// Smaller inputs for the smoke test; the code paths are the same.
  bool smoke = false;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Calls in one round (indices 1..round_calls()); fixed per workload
  /// so every round, and every commit, does identical work.
  [[nodiscard]] virtual std::int64_t round_calls() const = 0;

  /// Runs call number `index`.  Inputs are a pure function of (seed,
  /// index), so the same index replays the same call.  With a tracer,
  /// spans are recorded around every library call and the call's counts
  /// are added to the tracer.
  virtual CallOutcome call(std::int64_t index, Tracer* tracer) = 0;

  /// Per-layer metrics of this workload's layers, from the spans and
  /// counts of one traced round of `calls` calls plus replays and probes
  /// of its own.  Layers the workload does not exercise are left out
  /// (run.py reports them as 0).
  [[nodiscard]] virtual std::vector<Metric> layer_metrics(
      const Tracer& tracer, std::int64_t calls) = 0;
};

/// The workload names, in run order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Builds the named workload (all of its set-up); throws
/// std::invalid_argument on an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(
    const std::string& name, const WorkloadOptions& options);

/// Threads a multi-threaded workload may use: min(4, hardware threads).
[[nodiscard]] int max_threads();

}  // namespace prodsort::wallclock

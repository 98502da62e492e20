// bench_wallclock — wall-clock benchmark of five named workloads
// (README.md in this directory has the workload and metric tables).
//
//   bench_wallclock --workload NAME [--seed S] [--seconds T] [--work-dir D]
//       untraced run: rounds of the workload's fixed calls for T seconds,
//       with the set-up repeated and spread over the run; prints the
//       end-to-end metrics.
//   bench_wallclock --workload NAME --trace FILE [...]
//       traced run: untraced and traced rounds alternate for T seconds
//       (traced outputs must hash-equal untraced ones); per-layer metrics
//       from the fastest traced round plus replays; the Chrome trace of
//       that round is written to FILE.
//   bench_wallclock --smoke
//       every workload on small inputs: one round of 2 checked calls and
//       a traced round whose outputs hash-equal the untraced.
//
// Load model: one closed-loop client; the next call starts when the
// previous one returns.  Every output is checked outside the timed
// region, and every round must reproduce the first round's output
// hashes.  Timings follow the fastest-tenth rule of stats.hpp.  Each
// metric is printed as "name value"; the last line of stdout is one JSON
// object {"correct", "attempted", "failed", "values"}.  Metric names and
// units are declared once, in BENCHMARK.json; run.py attaches the units.
// The exit code is 1 when any call failed its checks.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats.hpp"
#include "workloads.hpp"

namespace {

using namespace prodsort::wallclock;

// Set-ups per untraced run, one before each sixth of the measured time,
// so set-up samples see the same host conditions as the rounds.
constexpr int kSetups = 6;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string trace_file;
  std::string work_dir;
  bool smoke = false;
};

/// Correctness tally over every checked call.  A call fails when any of
/// its checks fails or its output differs from the same call in the
/// first round.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::uint64_t> reference;  ///< first round's hash per call
};

struct Round {
  double ms = 0;    ///< summed timed wall of the round's calls
  double keys = 0;  ///< keys the round sorted
  std::vector<double> call_ms;
};

/// The fastest-tenth rule applied per call: every round repeats the
/// same calls, so each call keeps the fastest tenth of its repetitions.
struct FastCalls {
  double ms = 0;                ///< sum over calls of their fast medians
  std::vector<double> samples;  ///< every call's kept times, pooled
};

FastCalls fast_calls(const std::vector<Round>& rounds) {
  FastCalls fast;
  for (std::size_t i = 0; i < rounds.front().call_ms.size(); ++i) {
    std::vector<double> times;
    for (const Round& r : rounds) times.push_back(r.call_ms[i]);
    std::sort(times.begin(), times.end());
    times.resize(fastest_tenth(times.size()));
    fast.ms += median(times);
    fast.samples.insert(fast.samples.end(), times.begin(), times.end());
  }
  return fast;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Runs calls 1..calls.
Round run_round(Workload& workload, std::int64_t calls, Tracer* tracer,
                Tally& tally) {
  Round round;
  for (std::int64_t i = 1; i <= calls; ++i) {
    if (tracer != nullptr) tracer->set_call(i);
    const CallOutcome out = workload.call(i, tracer);
    const auto slot = static_cast<std::size_t>(i - 1);
    if (tally.reference.size() == slot) tally.reference.push_back(out.hash);
    ++tally.attempted;
    if (!out.ok || tally.reference[slot] != out.hash) ++tally.failed;
    round.ms += out.ms;
    round.keys += static_cast<double>(out.keys);
    round.call_ms.push_back(out.ms);
  }
  return round;
}

/// The warm-up call: index 0, outside the rounds' calls.
void warm_up(Workload& workload, Tally& tally) {
  ++tally.attempted;
  if (!workload.call(0, nullptr).ok) ++tally.failed;
}

/// This process's resident high-water mark (VmHWM).  getrusage's
/// ru_maxrss is not used: Linux carries it across exec, so it would
/// report the launching process's peak when that was larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

/// Prints every value as "name value", then the result line; returns
/// the exit code, 1 when a call failed or a value is not finite.
/// Values are printed with round-trip precision.
int report(const Tally& tally, const std::map<std::string, double>& values) {
  bool finite = true;
  std::string json = "{";
  for (auto [name, v] : values) {
    if (!std::isfinite(v)) {
      v = 0;
      finite = false;
    }
    std::printf("  %-36s %.17g\n", name.c_str(), v);
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": %.17g",
                  json.size() > 1 ? ", " : "", name.c_str(), v);
    json += buf;
  }
  json += "}";
  const double error_frac =
      tally.attempted > 0 ? static_cast<double>(tally.failed) /
                                static_cast<double>(tally.attempted)
                          : 1.0;
  std::printf("  %-36s %.17g\n", "error_frac", error_frac);
  const bool correct = finite && tally.attempted > 0 && tally.failed == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"values\": %s}\n",
      correct ? "true" : "false", static_cast<long long>(tally.attempted),
      static_cast<long long>(tally.failed), json.c_str());
  return correct ? 0 : 1;
}

WorkloadOptions options_for(const Args& args, bool smoke) {
  WorkloadOptions options;
  options.seed = args.seed;
  options.smoke = smoke;
  options.work_dir =
      args.work_dir.empty()
          ? (std::filesystem::temp_directory_path() / "prodsort_wallclock")
                .string()
          : args.work_dir;
  return options;
}

/// Untraced run.  Each of kSetups set-ups builds a new workload (graph,
/// inputs, expected outputs) and makes the warm-up call;
/// rounds follow until that set-up's share of `seconds`
/// is spent.
int run_untraced(const Args& args) {
  const WorkloadOptions options = options_for(args, false);
  Tally tally;
  std::vector<double> setup_s;
  std::vector<Round> rounds;
  std::unique_ptr<Workload> workload;
  double measured = 0;
  for (int s = 0; s < kSetups; ++s) {
    workload.reset();
    const auto start = Clock::now();
    workload = make_workload(args.workload, options);
    warm_up(*workload, tally);
    setup_s.push_back(seconds_since(start));
    do {
      const auto round_start = Clock::now();
      rounds.push_back(
          run_round(*workload, workload->round_calls(), nullptr, tally));
      measured += seconds_since(round_start);
    } while (measured < args.seconds * (s + 1) / kSetups);
  }

  const FastCalls fast = fast_calls(rounds);
  std::printf(
      "workload %s seed %llu: %zu rounds of %lld calls in %.1f s;"
      " call timings over each call's fastest tenth (%zu samples)\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      rounds.size(), static_cast<long long>(workload->round_calls()),
      measured, fast.samples.size());
  return report(tally, {{"keys_per_s", rounds.front().keys / (fast.ms / 1e3)},
                        {"call_ms_p50", percentile(fast.samples, 50)},
                        {"call_ms_p90", percentile(fast.samples, 90)},
                        {"setup_s", fast_median(setup_s)},
                        {"peak_rss_mb", peak_rss_mb()}});
}

std::map<std::string, double> layer_values(Workload& workload,
                                           const Tracer& tracer,
                                           std::int64_t calls,
                                           double overhead_frac) {
  std::map<std::string, double> values;
  for (const Metric& m : workload.layer_metrics(tracer, calls))
    values[m.name] = m.value;
  values["trace.overhead_frac"] = overhead_frac;
  return values;
}

/// Traced run: untraced and traced rounds of the same calls alternate
/// for `seconds`.  trace.overhead_frac compares the two kinds of round
/// under the per-call fastest-tenth rule; the layer metrics come from
/// the fastest traced round, whose spans are written to the trace file.
int run_traced(const Args& args) {
  const WorkloadOptions options = options_for(args, false);
  std::unique_ptr<Workload> workload = make_workload(args.workload, options);
  Tally tally;
  warm_up(*workload, tally);
  const std::int64_t calls = workload->round_calls();

  std::vector<Round> plain, traced;
  std::unique_ptr<Tracer> best;
  const auto start = Clock::now();
  do {
    plain.push_back(run_round(*workload, calls, nullptr, tally));
    auto tracer = std::make_unique<Tracer>();
    traced.push_back(run_round(*workload, calls, tracer.get(), tally));
    const bool fastest = std::all_of(
        traced.begin(), traced.end() - 1,
        [&](const Round& r) { return traced.back().ms < r.ms; });
    if (fastest) best = std::move(tracer);
  } while (plain.size() < 2 || seconds_since(start) < args.seconds);

  const double overhead_frac =
      fast_calls(traced).ms / fast_calls(plain).ms - 1;
  const auto values = layer_values(*workload, *best, calls, overhead_frac);
  const bool written = best->write_chrome(args.trace_file);
  if (!written) ++tally.failed;
  std::printf(
      "workload %s seed %llu: %zu untraced + %zu traced rounds of %lld"
      " calls; %zu spans of the fastest traced round -> %s%s\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      plain.size(), traced.size(), static_cast<long long>(calls),
      best->spans().size(), args.trace_file.c_str(),
      written ? "" : " (write failed)");
  return report(tally, values);
}

/// Smoke test: every workload on small inputs, one round of 2 checked
/// calls, and a traced round that must hash-equal it.
int run_smoke(const Args& args) {
  const WorkloadOptions options = options_for(args, true);
  std::int64_t attempted = 0, failed = 0;
  for (const std::string& name : workload_names()) {
    const auto start = Clock::now();
    std::unique_ptr<Workload> workload = make_workload(name, options);
    Tally tally;
    Tracer tracer;
    (void)run_round(*workload, 2, nullptr, tally);
    (void)run_round(*workload, 2, &tracer, tally);
    (void)layer_values(*workload, tracer, 2, 0);
    attempted += tally.attempted;
    failed += tally.failed;
    std::printf("smoke %-16s %s (%.0f ms)\n", name.c_str(),
                tally.failed == 0 ? "ok" : "FAILED",
                seconds_since(start) * 1e3);
  }
  Tally total;
  total.attempted = attempted;
  total.failed = failed;
  return report(total, {});
}

void usage() {
  std::fprintf(stderr,
               "usage: bench_wallclock --workload NAME [--seed S] [--seconds T]"
               " [--trace FILE] [--work-dir DIR]\n"
               "       bench_wallclock --smoke [--work-dir DIR]\n"
               "workloads:");
  for (const std::string& n : workload_names())
    std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
}

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0) || args.seconds > 3600)
        return false;
    } else if (flag == "--trace") {
      args.trace_file = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return false;
    }
  }
  if (args.smoke) return args.workload.empty();
  const auto& names = workload_names();
  return std::find(names.begin(), names.end(), args.workload) != names.end();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    usage();
    return 2;
  }
  try {
    if (args.smoke) return run_smoke(args);
    return args.trace_file.empty() ? run_untraced(args) : run_traced(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_wallclock: %s\n", e.what());
    return 1;
  }
}

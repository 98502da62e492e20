#include "workloads.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <random>
#include <stdexcept>
#include <thread>

#include "baselines/samplesort.hpp"
#include "core/block_sort.hpp"
#include "core/certifier.hpp"
#include "core/fast_sequence_sort.hpp"
#include "core/hashing.hpp"
#include "core/host_merge.hpp"
#include "core/product_sort.hpp"
#include "core/s2/shearsort_s2.hpp"
#include "core/s2/snake_oet_s2.hpp"
#include "durability/journal.hpp"
#include "graph/labeled_factor.hpp"
#include "network/parallel_executor.hpp"
#include "service/router/pool_router.hpp"
#include "service/sort_service.hpp"
#include "stats.hpp"
#include "stream/streaming_sorter.hpp"

namespace prodsort::wallclock {
namespace {

namespace fs = std::filesystem;

/// Runs `fn` and returns its wall time in milliseconds.
template <typename F>
double timed(F&& fn) {
  const auto start = Clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Order-sensitive digest of a key sequence.
std::uint64_t digest(std::span<const Key> keys) {
  std::uint64_t h = mix64(keys.size());
  for (const Key k : keys) h = mix64(h, static_cast<std::uint64_t>(k));
  return h;
}

/// Order-free digest of a key multiset (count, wrapping sum and xor of
/// mixed keys); kept independent of the library's own fingerprints.
struct MultisetDigest {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t xor_mix = 0;

  void add(std::span<const Key> keys) {
    for (const Key k : keys) {
      const std::uint64_t h = mix64(static_cast<std::uint64_t>(k) ^ 0x5EEDu);
      sum += h;
      xor_mix ^= h;
    }
    count += keys.size();
  }
  friend bool operator==(const MultisetDigest&,
                         const MultisetDigest&) = default;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double per_call(double total, std::int64_t calls) {
  return calls > 0 ? total / static_cast<double>(calls) : 0;
}

std::vector<Key> uniform_keys(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Key> keys(n);
  for (Key& k : keys) k = static_cast<Key>(rng() >> 24);
  return keys;
}

std::vector<Key> sorted_copy(std::vector<Key> keys) {
  std::sort(keys.begin(), keys.end());
  return keys;
}

// --- seq_zoo ---------------------------------------------------------------
//
// The fast sequence engine over ten prebuilt inputs: five shapes
// (uniform, few-distinct, organ-pipe, sorted, reversed) at a power-of-N
// size and at a size multiway_sort_any pads.  No simulated machine,
// service, stream or journal is involved.
//
// The timed calls run on the calling thread, with no executor, so no
// end-to-end metric covers ParallelExecutor's fork-join dispatch.  On a
// host with shared cores a 4-thread call waits for its slowest thread:
// ten seeds of 4-thread calls spread 9-12% (quartiles over median), of
// 1-thread calls 4-5%.  The 4-thread engine is the per-layer
// parallel_executor.seq_speedup probe.

constexpr NodeId kSeqRadix = 8;

class SeqZoo final : public Workload {
 public:
  explicit SeqZoo(const WorkloadOptions& options) {
    const std::size_t power = options.smoke ? 4096 : 32768;  // 8^4, 8^5
    const std::size_t ragged = options.smoke ? 3001 : 25003;
    for (int shape = 0; shape < 5; ++shape)
      for (const std::size_t n : {power, ragged}) {
        Input in;
        in.power = n == power;
        in.keys = make_shape(shape, n, mix64(options.seed, inputs_.size()));
        in.expected = sorted_copy(in.keys);
        in.padded = static_cast<double>(power - n);
        inputs_.push_back(std::move(in));
      }
  }

  std::int64_t round_calls() const override { return 10; }

  CallOutcome call(std::int64_t index, Tracer* tracer) override {
    const Input& in = input(index);
    std::vector<Key> keys = in.keys;
    CallOutcome out;
    out.ms = engine(keys, nullptr, in.power, tracer);
    out.ok = keys == in.expected;
    out.hash = digest(keys);
    out.keys = static_cast<std::int64_t>(keys.size());
    if (tracer != nullptr) {
      tracer->count("fast_sequence_sort.keys", static_cast<double>(out.keys));
      tracer->count("fast_sequence_sort.padded", in.padded);
    }
    return out;
  }

  std::vector<Metric> layer_metrics(const Tracer& tracer,
                                    std::int64_t calls) override {
    const double self =
        tracer.self_ms("fast_sequence_sort.multiway_merge_sort_fast") +
        tracer.self_ms("fast_sequence_sort.multiway_sort_any");
    // Reference and thread-scaling probes on the same ten inputs: eight
    // interleaved repetitions, fast median of each, summed over inputs.
    ParallelExecutor parallel(max_threads());
    double engine_ms = 0, parallel_ms = 0, std_ms = 0, sample_ms = 0;
    for (const Input& in : inputs_) {
      std::vector<double> e, p, st, sa;
      for (int rep = 0; rep < 8; ++rep) {
        std::vector<Key> k = in.keys;
        e.push_back(engine(k, nullptr, in.power, nullptr));
        k = in.keys;
        p.push_back(engine(k, &parallel, in.power, nullptr));
        k = in.keys;
        st.push_back(timed([&] { std::sort(k.begin(), k.end()); }));
        k = in.keys;
        sa.push_back(timed([&] { (void)samplesort(k, 16, 42u); }));
      }
      engine_ms += fast_median(e);
      parallel_ms += fast_median(p);
      std_ms += fast_median(st);
      sample_ms += fast_median(sa);
    }
    return {
        {"fast_sequence_sort.self_ms", per_call(self, calls)},
        {"fast_sequence_sort.pad_frac",
         ratio(tracer.counted("fast_sequence_sort.padded"),
               tracer.counted("fast_sequence_sort.keys"))},
        {"ref.std_sort_gap", ratio(engine_ms, std_ms)},
        {"ref.samplesort_gap", ratio(engine_ms, sample_ms)},
        {"parallel_executor.seq_speedup", ratio(engine_ms, parallel_ms)},
    };
  }

 private:
  struct Input {
    std::vector<Key> keys;
    std::vector<Key> expected;
    bool power = true;
    double padded = 0;  ///< sentinels multiway_sort_any adds
  };

  const Input& input(std::int64_t index) const {
    return inputs_[static_cast<std::size_t>(index) % inputs_.size()];
  }

  static double engine(std::vector<Key>& keys, ParallelExecutor* executor,
                       bool power, Tracer* tracer) {
    return timed([&] {
      if (power) {
        Scope span(tracer, "fast_sequence_sort.multiway_merge_sort_fast");
        multiway_merge_sort_fast(keys, kSeqRadix, executor);
      } else {
        Scope span(tracer, "fast_sequence_sort.multiway_sort_any");
        multiway_sort_any(keys, kSeqRadix, executor);
      }
    });
  }

  /// Shapes 0-4: uniform, few-distinct ((i + 13) % ucnt, the RegionsMT
  /// generator), organ-pipe, sorted, reversed.  The seed moves values,
  /// never the shape, so every seed costs the same work.
  static std::vector<Key> make_shape(int shape, std::size_t n,
                                     std::uint64_t seed) {
    std::vector<Key> keys = uniform_keys(n, seed);
    switch (shape) {
      case 1: {
        constexpr std::size_t kUcnt = 77;
        const Key base = static_cast<Key>(mix64(seed) % 1000);
        for (std::size_t i = 0; i < n; ++i)
          keys[i] = base + static_cast<Key>((i + 13) % kUcnt);
        break;
      }
      case 2: {
        const Key base = static_cast<Key>(mix64(seed) % 1000);
        for (std::size_t i = 0; i < n; ++i)
          keys[i] = base + static_cast<Key>(std::min(i, n - 1 - i));
        break;
      }
      case 3:
        std::sort(keys.begin(), keys.end());
        break;
      case 4:
        std::sort(keys.rbegin(), keys.rend());
        break;
      default:
        break;
    }
    return keys;
  }

  std::vector<Input> inputs_;
};

// --- machine_unit ------------------------------------------------------------
//
// One simulated Machine sort with ShearsortS2 on cycle(4)^7 plus a full
// certificate, on one thread.  Most of a call is schedule generation
// outside the compare-exchange steps.

class MachineUnit final : public Workload {
 public:
  explicit MachineUnit(const WorkloadOptions& options)
      : seed_(options.seed),
        pg_(labeled_cycle(4), options.smoke ? 4 : 7),
        view_(full_view(pg_)) {
    for (std::int64_t i = 0; i <= round_calls(); ++i)
      expected_.push_back(sorted_copy(call_keys(i)));
  }

  std::int64_t round_calls() const override { return 6; }

  CallOutcome call(std::int64_t index, Tracer* tracer) override {
    const std::vector<Key> keys = call_keys(index);
    std::optional<PhaseSpanObserver> observer;
    if (tracer != nullptr) observer.emplace(*tracer);
    std::optional<Machine> machine;
    std::optional<Certifier> certifier;
    EndToEndCertificate cert;
    CallOutcome out;
    out.ms = timed([&] {
      {
        Scope span(tracer, "certifier.fingerprint");
        certifier.emplace(keys);
      }
      machine.emplace(pg_, keys);
      if (observer) machine->set_observer(&*observer);
      sort_machine(*machine, tracer);
      Scope span(tracer, "certifier.certify");
      cert = certifier->certify(*machine, view_);
    });

    const std::vector<Key> sorted = machine->read_snake(view_);
    const CostModel& cost = machine->cost();
    out.ok = cert.pass() &&
             sorted == expected_.at(static_cast<std::size_t>(index));
    out.keys = static_cast<std::int64_t>(sorted.size());
    out.hash = mix64(mix64(digest(sorted), static_cast<std::uint64_t>(
                                               cost.exec_steps)),
                     static_cast<std::uint64_t>(cost.exchanges));
    if (observer) {
      tracer->count("machine.phases", static_cast<double>(observer->phases()));
      tracer->count("machine.pairs", static_cast<double>(observer->pairs()));
      tracer->count("machine.comparisons",
                    static_cast<double>(cost.comparisons));
      tracer->count("machine.exchanges", static_cast<double>(cost.exchanges));
      tracer->count("machine.exec_steps", static_cast<double>(cost.exec_steps));
    }
    return out;
  }

  std::vector<Metric> layer_metrics(const Tracer& tracer,
                                    std::int64_t calls) override {
    const double ce_ms = tracer.total_ms("machine.ce");
    // Thread scaling: the round's sorts on a min(4, hw)-thread executor
    // against no executor, alternating, fast median of each.
    ParallelExecutor executor(max_threads());
    std::vector<double> serial_ms, parallel_ms;
    for (int rep = 0; rep < 2; ++rep)
      for (std::int64_t i = 1; i <= round_calls(); ++i) {
        const std::vector<Key> keys = call_keys(i);
        serial_ms.push_back(timed([&] {
          Machine m(pg_, keys);
          sort_machine(m, nullptr);
        }));
        parallel_ms.push_back(timed([&] {
          Machine m(pg_, keys, &executor);
          sort_machine(m, nullptr);
        }));
      }
    const auto avg = [&](const char* counter) {
      return per_call(tracer.counted(counter), calls);
    };
    return {
        {"product_sort.schedule_ms",
         per_call(tracer.self_ms("product_sort.sort_product_network"), calls)},
        {"product_sort.phases", avg("machine.phases")},
        {"machine.ce_ms", per_call(ce_ms, calls)},
        {"machine.pairs_per_s", ratio(tracer.counted("machine.pairs"),
                                      ce_ms / 1e3)},
        {"machine.comparisons", avg("machine.comparisons")},
        {"machine.exchanges", avg("machine.exchanges")},
        {"machine.exec_steps", avg("machine.exec_steps")},
        {"certifier.fingerprint_ms",
         per_call(tracer.total_ms("certifier.fingerprint"), calls)},
        {"certifier.certify_ms",
         per_call(tracer.total_ms("certifier.certify"), calls)},
        {"parallel_executor.machine_speedup",
         ratio(fast_median(serial_ms), fast_median(parallel_ms))},
    };
  }

 private:
  std::vector<Key> call_keys(std::int64_t index) const {
    return uniform_keys(static_cast<std::size_t>(pg_.num_nodes()),
                        mix64(seed_, static_cast<std::uint64_t>(index)));
  }

  void sort_machine(Machine& machine, Tracer* tracer) const {
    Scope span(tracer, "product_sort.sort_product_network");
    SortOptions options;
    options.s2 = &shearsort_;
    (void)sort_product_network(machine, options);
  }

  std::uint64_t seed_;
  ProductGraph pg_;
  ViewSpec view_;
  ShearsortS2 shearsort_;
  std::vector<std::vector<Key>> expected_;  ///< std::sort, calls 0..K
};

// --- service_mix -------------------------------------------------------------
//
// One SortService run (3 backends, one recoverable faulty backend with
// a silent-comparator window, adaptive certification) and one
// PoolRouter run (4 pools x 3 backends, 8 tenants, one outage window,
// hedging), 64-key machine sorts on cycle(4)^3.  No host merge, no disk.

class ServiceMix final : public Workload {
 public:
  explicit ServiceMix(const WorkloadOptions& options)
      : seed_(options.seed),
        jobs_(options.smoke ? 40 : 800),
        pg_(labeled_cycle(4), 3) {
    RouterConfig probe;
    probe.seed = seed_;
    probe.jobs = 0;
    std::vector<PoolSpec> one(1);
    one[0].backends.resize(1);
    mean_ = PoolRouter(pg_, probe, one, &oet_).mean_service_steps();
  }

  std::int64_t round_calls() const override { return 16; }

  CallOutcome call(std::int64_t index, Tracer* tracer) override {
    const std::uint64_t seed = seed_ + static_cast<std::uint64_t>(index);
    const ServiceConfig service_config = make_service_config(seed);
    const std::vector<BackendConfig> backends = make_backends(seed);
    const RouterConfig router_config = make_router_config(seed);
    const std::vector<PoolSpec> pools = make_pools();

    std::optional<SortService> service;
    std::optional<PoolRouter> router;
    ServiceReport srep;
    RouterReport rrep;
    CallOutcome out;
    out.ms = timed([&] {
      {
        Scope span(tracer, "service.ctor");
        service.emplace(pg_, service_config, backends, &oet_);
      }
      {
        Scope span(tracer, "service.run");
        srep = service->run();
      }
      {
        Scope span(tracer, "router.ctor");
        router.emplace(pg_, router_config, pools, &oet_);
      }
      Scope span(tracer, "router.run");
      rrep = router->run();
    });

    out.ok = srep.conserved() && rrep.conserved() &&
             srep.offered == jobs_ && rrep.offered == jobs_;
    out.keys = pg_.num_nodes() * (srep.verified_jobs + rrep.verified_jobs);
    out.hash = mix64(srep.hash(), rrep.hash());
    if (tracer != nullptr) {
      const auto count = [&](const char* name, std::int64_t v) {
        tracer->count(name, static_cast<double>(v));
      };
      count("service.offered", srep.offered);
      count("service.retries", srep.retries);
      count("service.verified", srep.verified_jobs);
      count("service.sdc_detected", srep.sdc_detected);
      count("router.offered", rrep.offered);
      count("router.verified", rrep.verified_jobs);
      count("router.hedged_jobs", rrep.hedged_jobs);
      count("router.failovers", rrep.failovers);
    }
    return out;
  }

  std::vector<Metric> layer_metrics(const Tracer& tracer,
                                    std::int64_t calls) override {
    const auto frac = [&](const char* num, const char* den) {
      return ratio(tracer.counted(num), tracer.counted(den));
    };
    const auto avg = [&](const char* counter) {
      return per_call(tracer.counted(counter), calls);
    };
    const auto span_ms = [&](const char* name) {
      return per_call(tracer.total_ms(name), calls);
    };
    return {
        {"service.ctor_ms", span_ms("service.ctor")},
        {"service.run_ms", span_ms("service.run")},
        {"service.retries_per_job", frac("service.retries", "service.offered")},
        {"service.verified_frac", frac("service.verified", "service.offered")},
        {"service.sdc_detected", avg("service.sdc_detected")},
        {"router.ctor_ms", span_ms("router.ctor")},
        {"router.run_ms", span_ms("router.run")},
        {"router.hedged_jobs", avg("router.hedged_jobs")},
        {"router.failovers", avg("router.failovers")},
        {"router.verified_frac", frac("router.verified", "router.offered")},
    };
  }

 private:
  ServiceConfig make_service_config(std::uint64_t seed) const {
    ServiceConfig config;
    config.seed = seed;
    config.jobs = jobs_;
    config.load = 1.0;
    config.adaptive.enabled = true;
    return config;
  }

  /// Backend 0 is recoverable-faulty, as prodsort_serve builds it: light
  /// message loss and a restartable crash; its silently inverted
  /// comparator stays on for phases 2-40 of each attempt's 66 (the
  /// tool's 2-6 window closes before any output is wrong), so the
  /// certificate catches real corruptions and the adaptive dial reacts.
  std::vector<BackendConfig> make_backends(std::uint64_t seed) const {
    std::vector<BackendConfig> backends(3);
    const std::uint64_t h = mix64(seed, 0);
    const auto nodes = static_cast<std::uint64_t>(pg_.num_nodes());
    char schedule[160];
    std::snprintf(schedule, sizeof schedule,
                  "seed=%" PRIu64
                  ",ce=0.002,crashes=%llu@%llu,comparators=%llu@2~40I",
                  h, static_cast<unsigned long long>(h % nodes),
                  static_cast<unsigned long long>(3 + mix64(h) % 8),
                  static_cast<unsigned long long>(mix64(h, 2) % nodes));
    backends[0].fault_schedule = schedule;
    return backends;
  }

  RouterConfig make_router_config(std::uint64_t seed) const {
    RouterConfig config;
    config.seed = seed;
    config.jobs = jobs_;
    config.load = 1.0;
    config.policy = ShedPolicy::kEdf;
    config.breaker = {.failure_threshold = 2, .cooldown = 2 * mean_};
    config.hedging = true;
    config.failover = true;
    for (int t = 0; t < 8; ++t)
      config.tenants.push_back(
          {"tenant" + std::to_string(t), 1.0 + t % 4, 4, 16});
    return config;
  }

  /// Four pools of three backends; pool 0's domain goes dark for a
  /// window in the first half of the run.
  std::vector<PoolSpec> make_pools() const {
    std::vector<PoolSpec> pools(4);
    for (PoolSpec& p : pools) p.backends.resize(3);
    pools[0].domain_schedule = "seed=3,outages=" + std::to_string(10 * mean_) +
                               "~" + std::to_string(30 * mean_);
    return pools;
  }

  std::uint64_t seed_;
  std::int64_t jobs_;
  ProductGraph pg_;
  SnakeOETS2 oet_;
  std::int64_t mean_ = 1;
};

// --- stream_mem / stream_durable -------------------------------------------
//
// StreamingSorter on cycle(4)^2 with block 256 (4,096-key runs), 8
// ranges, a 1 MiB budget, 4 backends in 2 domains, one faulty backend,
// crashes, torn merges and an outage.  The durable variant journals to
// a fresh directory per call; that directory is created and removed
// outside the timed call.  Block 256 rather than 64: with 1,024-key
// runs the durable call was ~80% fsync wait and its time swung by up to
// 5x with the shared disk's state; 4,096-key runs cut the records and
// spill files per key by 4x and leave it ~60% journal and spill I/O.

class Stream final : public Workload {
 public:
  Stream(const WorkloadOptions& options, bool durable)
      : seed_(options.seed),
        durable_(durable),
        smoke_(options.smoke),
        work_dir_(fs::path(options.work_dir) / "stream"),
        pg_(labeled_cycle(4), 2) {}

  std::int64_t round_calls() const override { return 32; }

  CallOutcome call(std::int64_t index, Tracer* tracer) override {
    const StreamConfig config = make_config(index);
    if (durable_) {
      fs::remove_all(config.journal_dir);
      fs::create_directories(config.journal_dir);
    }

    std::optional<StreamingSorter> sorter;
    StreamReport report;
    CallOutcome out;
    out.ms = timed([&] {
      {
        Scope span(tracer, "stream.ctor");
        sorter.emplace(pg_, config);
      }
      Scope span(tracer, "stream.run");
      report = sorter->run();
    });
    if (durable_) fs::remove_all(config.journal_dir);

    // Sorted and the input's multiset: equal to std::sort of the input.
    const std::vector<Key>& emitted = sorter->emitted();
    MultisetDigest output;
    output.add(emitted);
    out.ok = report.conserved() &&
             report.high_water_bytes <= report.budget_bytes &&
             report.cert_escapes == 0 &&
             report.spill_reconcile_failures == 0 &&
             std::is_sorted(emitted.begin(), emitted.end()) &&
             output == input_digest(config);
    out.keys = static_cast<std::int64_t>(emitted.size());
    out.hash = mix64(report.hash(), digest(emitted));
    if (tracer != nullptr) {
      const auto count = [&](const char* name, std::int64_t v) {
        tracer->count(name, static_cast<double>(v));
      };
      count("stream.runs", report.runs);
      count("stream.run_attempts", report.run_attempts);
      count("stream.retries", report.retries);
      count("stream.merge_rollbacks", report.merge_rollbacks);
      count("stream.forced_cuts", report.forced_cuts);
      tracer->count("stream.high_water_frac",
                    ratio(static_cast<double>(report.high_water_bytes),
                          static_cast<double>(report.budget_bytes)));
      count("host_merge.ops", report.merge_comparisons + report.merge_moves);
      count("journal.records", report.journal_records);
      count("journal.bytes", report.journal_bytes);
      count("journal.syncs", report.journal_syncs);
      count("journal.compactions", report.journal_compactions);
      count("spill.files", report.spill_files);
    }
    return out;
  }

  std::vector<Metric> layer_metrics(const Tracer& tracer,
                                    std::int64_t calls) override {
    const StreamConfig config = make_config(0);
    const auto avg = [&](const char* counter) {
      return per_call(tracer.counted(counter), calls);
    };
    const double run_ms = per_call(tracer.total_ms("stream.run"), calls);
    const double block_ms = block_sort_replay_ms(config);
    std::vector<Metric> metrics = {
        {"stream.ctor_ms", per_call(tracer.total_ms("stream.ctor"), calls)},
        {"stream.run_ms", run_ms},
        {"stream.run_yield", ratio(tracer.counted("stream.runs"),
                                   tracer.counted("stream.run_attempts"))},
        {"stream.retries", avg("stream.retries")},
        {"stream.merge_rollbacks", avg("stream.merge_rollbacks")},
        {"stream.forced_cuts", avg("stream.forced_cuts")},
        {"stream.high_water_frac", avg("stream.high_water_frac")},
        {"block_sort.replay_ms", block_ms},
        {"block_sort.run_share",
         ratio(avg("stream.run_attempts") * block_ms, run_ms)},
        {"host_merge.ops", avg("host_merge.ops")},
        {"host_merge.replay_ms", host_merge_replay_ms(config)},
    };
    if (durable_) {
      // Every append fsyncs once; compaction rewrites add records and
      // bytes but no appends.
      const double append_ms = journal_append_replay_ms(
          avg("journal.syncs"),
          ratio(tracer.counted("journal.bytes"),
                tracer.counted("journal.records")));
      metrics.insert(
          metrics.end(),
          {
              {"journal.records", avg("journal.records")},
              {"journal.bytes", avg("journal.bytes")},
              {"journal.syncs", avg("journal.syncs")},
              {"journal.compactions", avg("journal.compactions")},
              {"journal.append_ms", append_ms},
              {"journal.share", ratio(append_ms, run_ms)},
              {"spill.files", avg("spill.files")},
          });
    }
    return metrics;
  }

 private:
  StreamConfig make_config(std::int64_t index) const {
    StreamConfig config;
    config.seed = mix64(seed_, static_cast<std::uint64_t>(index));
    config.batches = smoke_ ? 4 : (durable_ ? 12 : 48);
    config.batch_keys = smoke_ ? 1024 : 4096;
    config.ranges = 8;
    config.block = 256;
    config.budget_bytes = 1 << 20;
    config.backends = 4;
    config.domains = 2;
    config.faulty = 1;
    config.crash_rate = 0.05;
    config.tear_rate = 0.2;
    // Every call must complete.  At the default limit of 8, a range
    // whose eight merge attempts all tear (0.2^8 per range) fails its
    // stream: about one seed in a thousand (seed 805's call 32 does).
    // At 16 that is 0.2^16; the limit only acts on such exhaustion, so
    // every other call does the same work.
    config.retry_limit = 16;
    config.outage = "0@400~800";
    if (durable_)
      config.journal_dir =
          (work_dir_ / ("call" + std::to_string(index))).string();
    return config;
  }

  /// Multiset digest of the stream's input, regenerated batch by batch
  /// as the pipeline derives it.
  static MultisetDigest input_digest(const StreamConfig& config) {
    MultisetDigest d;
    for (int b = 0; b < config.batches; ++b) {
      JobSpec spec;
      spec.key_seed = mix64(config.seed, static_cast<std::uint64_t>(b));
      spec.pattern = config.pattern;
      d.add(service_job_keys(config.batch_keys, spec));
    }
    return d;
  }

  /// Fast-median wall time of sort_block_network on one run of the
  /// stream's shape (nodes * block keys, the backends' BlockSnakeOETS2).
  double block_sort_replay_ms(const StreamConfig& config) const {
    const BlockSnakeOETS2 s2;
    std::vector<double> samples;
    for (int rep = 0; rep < 24; ++rep) {
      const std::vector<Key> keys = uniform_keys(
          static_cast<std::size_t>(pg_.num_nodes() * config.block),
          mix64(seed_, 0xB10C + static_cast<std::uint64_t>(rep)));
      samples.push_back(timed([&] {
        BlockMachine machine(pg_, keys, config.block);
        BlockSortOptions options;
        options.s2 = &s2;
        (void)sort_block_network(machine, options);
      }));
    }
    return fast_median(samples);
  }

  /// Fast-median wall time of one call's egress merges: each range
  /// k-way merges its share of the stream's keys, held as sorted runs of
  /// nodes * block keys.
  double host_merge_replay_ms(const StreamConfig& config) const {
    const std::size_t run_keys =
        static_cast<std::size_t>(pg_.num_nodes() * config.block);
    const std::size_t per_range = static_cast<std::size_t>(
        config.batches * config.batch_keys / config.ranges);
    std::vector<std::vector<std::vector<Key>>> ranges;
    for (int r = 0; r < config.ranges; ++r) {
      std::vector<std::vector<Key>> runs;
      for (std::size_t done = 0; done < per_range; done += run_keys)
        runs.push_back(sorted_copy(uniform_keys(
            std::min(run_keys, per_range - done),
            mix64(seed_, 0x3E26 + runs.size() + 1000 * r))));
      ranges.push_back(std::move(runs));
    }
    std::vector<double> samples;
    for (int rep = 0; rep < 8; ++rep)
      samples.push_back(timed([&] {
        for (const auto& runs : ranges) {
          HostMergeStats stats;
          (void)measured_multiway_merge(runs, stats);
        }
      }));
    return fast_median(samples);
  }

  /// Fast-median wall time of `appends` JournalWriter::append calls (each
  /// one write and one fsync) of records of `record_bytes` mean size to
  /// a fresh journal.
  double journal_append_replay_ms(double appends, double record_bytes) const {
    constexpr double kRecordOverhead = 24;  // magic, seq, type, flags, len, crc
    const auto count = static_cast<std::int64_t>(appends + 0.5);
    const auto payload_size = static_cast<std::size_t>(
        std::max(0.0, record_bytes - kRecordOverhead));
    const std::string payload(payload_size, 'p');
    const fs::path dir = work_dir_ / "journal_replay";
    std::vector<double> samples;
    for (int rep = 0; rep < 4; ++rep) {
      fs::remove_all(dir);
      fs::create_directories(dir);
      {
        JournalWriter writer((dir / "wal.log").string(), nullptr);
        samples.push_back(timed([&] {
          for (std::int64_t i = 0; i < count; ++i)
            (void)writer.append(RecordType::kLedgerDelta, payload);
        }));
      }
      fs::remove_all(dir);
    }
    return fast_median(samples);
  }

  std::uint64_t seed_;
  bool durable_;
  bool smoke_;
  fs::path work_dir_;
  ProductGraph pg_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "seq_zoo", "machine_unit", "service_mix", "stream_mem",
      "stream_durable"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& options) {
  if (name == "seq_zoo") return std::make_unique<SeqZoo>(options);
  if (name == "machine_unit") return std::make_unique<MachineUnit>(options);
  if (name == "service_mix") return std::make_unique<ServiceMix>(options);
  if (name == "stream_mem") return std::make_unique<Stream>(options, false);
  if (name == "stream_durable") return std::make_unique<Stream>(options, true);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

int max_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

}  // namespace prodsort::wallclock

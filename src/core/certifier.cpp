#include "core/certifier.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <ranges>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "core/hashing.hpp"
#include "core/key_sort.hpp"
#include "product/snake_order.hpp"

namespace prodsort {

MultisetFingerprint fingerprint_sequence(std::span<const Key> keys,
                                         ParallelExecutor* executor) {
  // Each chunk folds its own accumulator and absorb() merges them: the
  // combine is commutative, so any chunking commits the same result.
  FingerprintAccumulator total;
  if (executor == nullptr) {
    total.absorb(keys);
    return total.finalize();
  }
  std::mutex mutex;
  executor->parallel_for(
      static_cast<std::int64_t>(keys.size()),
      [&](std::int64_t begin, std::int64_t end) {
        FingerprintAccumulator chunk;
        chunk.absorb(keys.subspan(static_cast<std::size_t>(begin),
                                  static_cast<std::size_t>(end - begin)));
        const std::lock_guard<std::mutex> lock(mutex);
        total.absorb(chunk);
      });
  return total.finalize();
}

void FingerprintAccumulator::absorb(Key key) noexcept {
  absorb(std::span<const Key>(&key, 1));
}

void FingerprintAccumulator::absorb(std::span<const Key> keys) noexcept {
  // Accumulate in locals: a store to a uint64_t member may alias the
  // int64_t keys, which would force a store and a reload per key.
  std::uint64_t sum = sum_;
  std::uint64_t xr = xor_;
  for (const Key k : keys) {
    const std::uint64_t h = mix64(static_cast<std::uint64_t>(k));
    sum += h;
    xr ^= h;
  }
  sum_ = sum;
  xor_ = xr;
  count_ += keys.size();
}

void FingerprintAccumulator::absorb(
    const FingerprintAccumulator& other) noexcept {
  sum_ += other.sum_;
  xor_ ^= other.xor_;
  count_ += other.count_;
}

MultisetFingerprint FingerprintAccumulator::finalize() const noexcept {
  MultisetFingerprint fp;
  fp.count = count_;
  fp.checksum = mix64(mix64(sum_, xor_), count_);
  return fp;
}

FingerprintState FingerprintAccumulator::state() const noexcept {
  return FingerprintState{sum_, xor_, count_};
}

FingerprintAccumulator FingerprintAccumulator::from_state(
    const FingerprintState& state) noexcept {
  FingerprintAccumulator acc;
  acc.sum_ = state.sum;
  acc.xor_ = state.xor_mix;
  acc.count_ = state.count;
  return acc;
}

std::string to_string(CertVerdict verdict) {
  switch (verdict) {
    case CertVerdict::kPass: return "pass";
    case CertVerdict::kWrongOrder: return "wrong-order";
    case CertVerdict::kKeysCorrupted: return "keys-corrupted";
  }
  return "?";
}

std::string to_string(CertLevel level) {
  switch (level) {
    case CertLevel::kSpot: return "spot";
    case CertLevel::kSampled: return "sampled";
    case CertLevel::kFull: return "full";
  }
  return "?";
}

CertLevel parse_cert_level(const std::string& name) {
  if (name == "spot") return CertLevel::kSpot;
  if (name == "sampled") return CertLevel::kSampled;
  if (name == "full") return CertLevel::kFull;
  throw std::invalid_argument("unknown certification level '" + name + "'");
}

std::vector<std::int64_t> sampled_pair_indices(std::int64_t pairs,
                                               std::int64_t scanned,
                                               std::uint64_t seed) {
  if (pairs <= 0) return {};
  scanned = std::clamp<std::int64_t>(scanned, 0, pairs);
  std::vector<std::int64_t> order(static_cast<std::size_t>(pairs));
  for (std::int64_t i = 0; i < pairs; ++i)
    order[static_cast<std::size_t>(i)] = i;
  // Partial Fisher-Yates: the first `scanned` entries are exactly the
  // prefix of the full seeded permutation, so samples at different
  // coverages nest — the property the monotone-detection tests pin.
  for (std::int64_t i = 0; i < scanned; ++i) {
    const std::int64_t j =
        i + static_cast<std::int64_t>(
                mix64(seed, static_cast<std::uint64_t>(i)) %
                static_cast<std::uint64_t>(pairs - i));
    std::swap(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(j)]);
  }
  order.resize(static_cast<std::size_t>(scanned));
  return order;
}

std::int64_t scanned_pairs_for(std::int64_t n, double coverage) {
  if (n < 2) return 0;
  const std::int64_t pairs = n - 1;
  const auto want = static_cast<std::int64_t>(
      std::ceil(coverage * static_cast<double>(pairs)));
  return std::clamp<std::int64_t>(want, 1, pairs);
}

std::int64_t certificate_steps(std::int64_t n, std::int64_t scanned,
                               bool fingerprint) {
  std::int64_t steps = (scanned + kCertLanes - 1) / kCertLanes;
  if (fingerprint) {
    // One hashing step plus a combine tree of depth ceil(log2 n).
    std::int64_t depth = 0;
    for (std::int64_t span = 1; span < n; span *= 2) ++depth;
    steps += 1 + depth;
  }
  return steps;
}

std::string to_string(RepairOutcome outcome) {
  switch (outcome) {
    case RepairOutcome::kCertified: return "certified";
    case RepairOutcome::kRepaired: return "repaired";
    case RepairOutcome::kKeysCorrupted: return "keys-corrupted";
    case RepairOutcome::kBudgetExhausted: return "budget-exhausted";
  }
  return "?";
}

Certifier::Certifier(std::span<const Key> input, ParallelExecutor* executor)
    : expected_(fingerprint_sequence(input, executor)), executor_(executor) {}

Certifier::Certifier(MultisetFingerprint expected, ParallelExecutor* executor)
    : expected_(expected), executor_(executor) {}

namespace {

// The Lemma 1 dirty window in one O(n) pass each way, no copy.  A rank
// agrees with the sorted copy iff every key before it is <= it and
// every key after it is >= it; the window spans the first and last
// ranks where that fails ({-1, -1} when seq is sorted).
std::pair<PNode, PNode> dirty_window(std::span<const Key> seq) {
  const auto n = static_cast<PNode>(seq.size());
  PNode lo = -1;
  PNode hi = -1;
  if (n == 0) return {lo, hi};
  Key suffix_min = seq[static_cast<std::size_t>(n - 1)];
  for (PNode i = n - 2; i >= 0; --i) {
    const Key k = seq[static_cast<std::size_t>(i)];
    if (k > suffix_min) lo = i;
    else suffix_min = k;
  }
  Key prefix_max = seq[0];
  for (PNode i = 1; i < n; ++i) {
    const Key k = seq[static_cast<std::size_t>(i)];
    if (k < prefix_max) hi = i;
    else prefix_max = k;
  }
  return {lo, hi};
}

template <class M>
EndToEndCertificate charge_certificate(M& machine, const ViewSpec& view,
                                       const Certifier& certifier,
                                       const CertPlan& plan) {
  const std::vector<Key> keys = machine.read_snake(view);
  EndToEndCertificate cert = certifier.certify_sampled(keys, plan);
  machine.cost().cert_steps +=
      certificate_steps(static_cast<std::int64_t>(keys.size()),
                        cert.scanned_pairs, plan.fingerprint);
  ++machine.cost().certificates;
  return cert;
}

// The odd-even pairs of one parity over the snake ranks [lo, hi] of
// `view`.  Parity is absolute snake-rank parity, not window-relative:
// repair loops recompute [lo, hi] from the drifting dirty window each
// pass, and anchoring the pairing at `lo + parity` would let a shifting
// window land the same absolute alignment twice in a row — turning
// every other alternating pass into a no-op and breaking the
// width-passes-to-clean bound certify_and_repair budgets against.
// `planned` is the attached SortPlan's rank table for the view (empty:
// generate each rank).
std::vector<CEPair> window_pairs(const ProductGraph& pg, const ViewSpec& view,
                                 std::span<const PNode> planned, PNode lo,
                                 PNode hi, int parity) {
  const auto node_at = [&](PNode rank) {
    return planned.empty() ? view_node_at_snake_rank(pg, view, rank)
                           : planned[static_cast<std::size_t>(rank)];
  };
  std::vector<CEPair> pairs;
  pairs.reserve(static_cast<std::size_t>((hi - lo) / 2 + 1));
  const PNode start = lo + (static_cast<int>(lo & 1) == parity ? 0 : 1);
  for (PNode rank = start; rank + 1 <= hi; rank += 2)
    pairs.push_back({node_at(rank), node_at(rank + 1)});
  return pairs;
}

// The one repair loop, at either granularity: certify; while the
// verdict is wrong-order and budget remains, run one alternating-parity
// pass over the dirty window and re-certify; then map the exit verdict
// to an outcome and charge the loop's exec_steps to recovery_steps.
// Faults striking mid-repair move the window (or corrupt keys) and are
// seen by the re-certification.
template <class M, class Pass>
RepairReport repair_loop(M& machine, const ViewSpec& view,
                         const Certifier& certifier,
                         const RepairOptions& options, Pass&& pass) {
  RepairReport report;
  report.before = certifier.certify(machine.read_snake(view));
  report.after = report.before;
  if (report.before.verdict == CertVerdict::kKeysCorrupted) {
    report.outcome = RepairOutcome::kKeysCorrupted;
    return report;
  }
  if (report.before.pass()) {
    report.outcome = RepairOutcome::kCertified;
    return report;
  }

  const std::int64_t steps_before = machine.cost().exec_steps;
  EndToEndCertificate cert = report.before;
  int parity = 0;
  while (cert.verdict == CertVerdict::kWrongOrder &&
         report.passes < options.max_passes) {
    pass(cert, parity);
    parity ^= 1;
    ++report.passes;
    ++machine.cost().repair_passes;
    cert = certifier.certify(machine.read_snake(view));
  }

  report.after = cert;
  report.repair_steps = machine.cost().exec_steps - steps_before;
  machine.cost().recovery_steps += report.repair_steps;
  if (cert.pass())
    report.outcome = RepairOutcome::kRepaired;
  else if (cert.verdict == CertVerdict::kKeysCorrupted)
    report.outcome = RepairOutcome::kKeysCorrupted;
  else
    report.outcome = RepairOutcome::kBudgetExhausted;
  return report;
}

}  // namespace

EndToEndCertificate Certifier::certify(std::span<const Key> seq) const {
  return certify_sampled(seq, CertPlan{});
}

EndToEndCertificate Certifier::certify(const Machine& machine,
                                       const ViewSpec& view) const {
  return certify(machine.read_snake(view));
}

EndToEndCertificate Certifier::certify_sampled(std::span<const Key> seq,
                                               const CertPlan& plan) const {
  const auto n = static_cast<std::int64_t>(seq.size());
  const std::int64_t pairs = std::max<std::int64_t>(0, n - 1);
  const std::int64_t scanned = scanned_pairs_for(n, plan.coverage);

  EndToEndCertificate cert;
  cert.level = plan.level;
  cert.expected = expected_;
  cert.fingerprint_checked = plan.fingerprint;
  // A skipped fingerprint records observed == expected trivially — the
  // certificate then attests order only, which is the point of the
  // cheap levels (fingerprint_checked marks the difference).
  cert.observed =
      plan.fingerprint ? fingerprint_sequence(seq, executor_) : expected_;
  cert.scanned_pairs = scanned;

  // Adjacency scan: sorted iff no adjacent pair inverts.  The full scan
  // runs in parallel chunks; the first-violation rank is an atomic-min
  // so any chunking reports the same witness.
  std::atomic<std::int64_t> violations{0};
  std::atomic<std::int64_t> first{n};
  const auto scan = [&](auto&& indices) {
    std::int64_t local = 0;
    std::int64_t local_first = n;
    for (const std::int64_t i : indices) {
      if (seq[static_cast<std::size_t>(i)] >
          seq[static_cast<std::size_t>(i + 1)]) {
        ++local;
        local_first = std::min(local_first, i);
      }
    }
    violations.fetch_add(local, std::memory_order_relaxed);
    std::int64_t seen = first.load(std::memory_order_relaxed);
    while (local_first < seen &&
           !first.compare_exchange_weak(seen, local_first,
                                        std::memory_order_relaxed))
      ;
  };
  const auto scan_range = [&](std::int64_t begin, std::int64_t end) {
    scan(std::views::iota(begin, end));
  };
  if (scanned < pairs)
    scan(sampled_pair_indices(pairs, scanned, plan.sample_seed));
  else if (executor_ != nullptr)
    executor_->parallel_for(pairs, scan_range);
  else
    scan_range(0, pairs);

  cert.adjacency_violations = violations.load(std::memory_order_relaxed);
  cert.sorted = cert.adjacency_violations == 0;
  if (!cert.sorted) {
    cert.first_violation =
        static_cast<PNode>(first.load(std::memory_order_relaxed));
    // The dirty window is exact over the whole sequence even when the
    // scan that caught the inversion was sampled, so escalation and
    // repair always work from the true window.
    std::tie(cert.dirty_lo, cert.dirty_hi) = dirty_window(seq);
  }

  if (cert.observed != cert.expected)
    cert.verdict = CertVerdict::kKeysCorrupted;
  else if (!cert.sorted)
    cert.verdict = CertVerdict::kWrongOrder;
  else
    cert.verdict = CertVerdict::kPass;
  return cert;
}

EndToEndCertificate certify_charged(Machine& machine, const ViewSpec& view,
                                    const Certifier& certifier,
                                    const CertPlan& plan) {
  return charge_certificate(machine, view, certifier, plan);
}

EndToEndCertificate certify_charged(BlockMachine& machine,
                                    const ViewSpec& view,
                                    const Certifier& certifier,
                                    const CertPlan& plan) {
  return charge_certificate(machine, view, certifier, plan);
}

std::int64_t oet_window_pass(Machine& machine, const ViewSpec& view, PNode lo,
                             PNode hi, int parity) {
  const ProductGraph& pg = machine.graph();
  const std::int64_t before = machine.cost().exchanges;
  machine.compare_exchange_step(
      window_pairs(pg, view, machine.planned_snake(view), lo, hi, parity),
      pg.factor().dilation);
  return machine.cost().exchanges - before;
}

RepairReport certify_and_repair(Machine& machine, const ViewSpec& view,
                                const Certifier& certifier,
                                const RepairOptions& options) {
  const PNode size = view_size(machine.graph(), view);
  return repair_loop(
      machine, view, certifier, options,
      [&](const EndToEndCertificate& cert, int parity) {
        // Alternating-parity OET over the dirty window +-1 rank: the
        // window holds every misplaced key (its complement agrees with
        // the sorted reference), so sorting the window sorts the
        // machine — the Lemma 1 dirty-area argument.
        const PNode lo = std::max<PNode>(0, cert.dirty_lo - 1);
        const PNode hi = std::min<PNode>(size - 1, cert.dirty_hi + 1);
        oet_window_pass(machine, view, lo, hi, parity);
      });
}

RepairReport block_certify_and_repair(BlockMachine& machine,
                                      const ViewSpec& view,
                                      const Certifier& certifier,
                                      const RepairOptions& options) {
  const ProductGraph& pg = machine.graph();
  const PNode size = view_size(pg, view);
  const auto b = static_cast<PNode>(machine.block_size());
  return repair_loop(
      machine, view, certifier, options,
      [&](const EndToEndCertificate& cert, int parity) {
        // Agglomerate the key-granular dirty window to blocks +-1 block
        // — the block Lemma 1: once the fault window closes, every
        // misplaced key sits within one merge-split partner of its
        // sorted block, so sorting the covering block window sorts the
        // machine.
        const PNode blo = std::max<PNode>(0, cert.dirty_lo / b - 1);
        const PNode bhi = std::min<PNode>(size - 1, cert.dirty_hi / b + 1);

        // Merge-split requires internally sorted blocks; an
        // arbitrary-output fault that struck mid-block can leave one
        // unsorted.  Re-sorting a block is local work the node can
        // always do — charge one local phase (b steps, b comparisons
        // per key touched) when needed.
        bool resorted = false;
        for (PNode rank = blo; rank <= bhi; ++rank) {
          // AUDITOR-EXEMPT(local block re-sort: node-internal repair
          // work, no inter-node exchange for the phase auditor to
          // discipline; charged explicitly below)
          auto blk =
              machine.mutable_block(view_node_at_snake_rank(pg, view, rank));
          if (!std::is_sorted(blk.begin(), blk.end())) {
            sort_block_keys(blk);
            machine.cost().comparisons += b;
            resorted = true;
          }
        }
        if (resorted) machine.cost().exec_steps += b;

        // The unit pass lifted to merge-splits over snake-adjacent
        // blocks.
        const std::vector<CEPair> pairs =
            window_pairs(pg, view, {}, blo, bhi, parity);
        if (!pairs.empty())
          machine.merge_split_step(pairs, pg.factor().dilation);
      });
}

}  // namespace prodsort

#include "network/machine.hpp"

#include <algorithm>
#include <mutex>
#include <stdexcept>

#include "core/sort_plan.hpp"
#include "product/snake_order.hpp"

namespace prodsort {

namespace {

/// What one chunk of a compare-exchange step did; chunks merge once.
struct PairTally {
  std::int64_t swaps = 0;
  std::int64_t drops = 0;
  std::int64_t corruptions = 0;
  std::int64_t comparator_faults = 0;
  std::int64_t masked = 0;     ///< TMR replica outcomes the vote overruled
  std::int64_t decisions = 0;  ///< per-pair fault hashes evaluated

  PairTally& operator+=(const PairTally& o) {
    swaps += o.swaps;
    drops += o.drops;
    corruptions += o.corruptions;
    comparator_faults += o.comparator_faults;
    masked += o.masked;
    decisions += o.decisions;
    return *this;
  }
};

/// The one compare-exchange kernel: `policy(i, pair, low, high, tally)`
/// runs pair i.  Pairs are disjoint and every fault decision is a pure
/// hash of (step, pair index), so any thread count commits identical
/// outcomes.
template <class Policy>
PairTally compare_exchange_pairs(std::span<const CEPair> pairs,
                                 std::span<Key> keys,
                                 ParallelExecutor* executor,
                                 const Policy& policy) {
  const auto run = [&](std::int64_t begin, std::int64_t end) {
    PairTally tally;
    for (std::int64_t i = begin; i < end; ++i) {
      const CEPair& p = pairs[static_cast<std::size_t>(i)];
      policy(i, p, keys[static_cast<std::size_t>(p.low)],
             keys[static_cast<std::size_t>(p.high)], tally);
    }
    return tally;
  };
  const auto count = static_cast<std::int64_t>(pairs.size());
  if (executor == nullptr) return run(0, count);
  PairTally total;
  std::mutex merge;
  executor->parallel_for(count, [&](std::int64_t begin, std::int64_t end) {
    const PairTally tally = run(begin, end);
    const std::lock_guard<std::mutex> lock(merge);
    total += tally;
  });
  return total;
}

/// The one compare-exchange: min to `low`, max to `high`; returns
/// whether they swapped (a tie does not).  It selects instead of
/// branching, so the pair loop compiles to conditional moves and costs
/// the same whatever share of pairs exchange.
bool exchange(Key& low, Key& high) {
  const Key a = low;
  const Key b = high;
  const bool swap = a > b;
  low = swap ? b : a;
  high = swap ? a : b;
  return swap;
}

/// The fault-free exchange: min to the low node.
struct PlainPolicy {
  void operator()(std::int64_t, const CEPair&, Key& low, Key& high,
                  PairTally& tally) const {
    tally.swaps += exchange(low, high);
  }
};

/// Tosses `coin` for `event`, counting the hash when one is made.
bool toss(const StepCoin& coin, std::int64_t event, PairTally& tally) {
  if (coin.rate <= 0) return false;
  ++tally.decisions;
  return coin(event);
}

/// The faults that can fire in one step, fixed before the pair loop.
struct StepFaults {
  const FaultModel* fm = nullptr;
  std::int64_t step = 0;
  StepCoins coins;
  StepComparatorFaults comparators;

  [[nodiscard]] bool can_fire() const {
    return coins.drop.rate > 0 || coins.corrupt.rate > 0 ||
           !comparators.empty();
  }

  /// Pair i run by the silently-broken comparator `f`; returns whether
  /// the keys swapped.  Nothing loud happens — only the certificate
  /// layer can tell (core/certifier.hpp).
  bool broken_exchange(const ComparatorFault& f, std::int64_t i,
                       const CEPair& p, Key& low, Key& high) const {
    switch (f.kind) {
      case ComparatorFaultKind::kStuckPassThrough:
        return false;  // the exchange silently never happens
      case ComparatorFaultKind::kInverted:
        return exchange(high, low);  // max and min come out swapped
      case ComparatorFaultKind::kArbitrary: {
        const bool swapped = exchange(low, high);
        (f.node == p.low ? low : high) =
            fm->comparator_garbage(f.node, step, i);
        return swapped;
      }
    }
    return false;
  }
};

/// One comparator per pair, under the step's faults.
struct FaultyPolicy {
  const StepFaults& faults;

  void operator()(std::int64_t i, const CEPair& p, Key& low, Key& high,
                  PairTally& tally) const {
    // A broken comparator at either endpoint hijacks the exchange.
    if (const ComparatorFault* f = faults.comparators.hit(p.low, p.high)) {
      ++tally.comparator_faults;
      tally.swaps += faults.broken_exchange(*f, i, p, low, high);
      return;
    }
    if (toss(faults.coins.drop, i, tally)) {  // message lost: no exchange
      ++tally.drops;
      return;
    }
    tally.swaps += exchange(low, high);
    if (toss(faults.coins.corrupt, i, tally)) {
      low = faults.fm->corrupted_value(faults.step, i, low);
      ++tally.corruptions;
    }
  }
};

/// Three comparator replicas per pair and a majority vote.  Replica r of
/// pair i consumes the per-message decision streams under event id
/// i*3+r, and a broken comparator at a node corrupts only that node's
/// seed-hashed replica.
struct TmrPolicy {
  const StepFaults& faults;

  void operator()(std::int64_t i, const CEPair& p, Key& low, Key& high,
                  PairTally& tally) const {
    // Hash the replica only for an endpoint whose comparator is broken.
    const ComparatorFault* low_fault = faults.comparators.at(p.low);
    const ComparatorFault* high_fault = faults.comparators.at(p.high);
    const int low_replica = replica(low_fault, tally);
    const int high_replica = replica(high_fault, tally);

    Key out_low[3];
    Key out_high[3];
    bool perturbed[3] = {false, false, false};
    for (int r = 0; r < 3; ++r) {
      Key lo = low;
      Key hi = high;
      const std::int64_t ev = i * 3 + r;
      const ComparatorFault* f = r == low_replica    ? low_fault
                                 : r == high_replica ? high_fault
                                                     : nullptr;
      if (f != nullptr) {
        ++tally.comparator_faults;
        perturbed[r] = true;
        (void)faults.broken_exchange(*f, i, p, lo, hi);
      } else if (toss(faults.coins.drop, ev, tally)) {
        ++tally.drops;
        perturbed[r] = true;  // message lost: outputs = inputs
      } else {
        (void)exchange(lo, hi);
        if (toss(faults.coins.corrupt, ev, tally)) {
          lo = faults.fm->corrupted_value(faults.step, ev, lo);
          ++tally.corruptions;
          perturbed[r] = true;
        }
      }
      out_low[r] = lo;
      out_high[r] = hi;
    }

    const auto agree = [&](int a, int b) {
      return out_low[a] == out_low[b] && out_high[a] == out_high[b];
    };
    // Majority vote; a three-way disagreement falls back to replica 0.
    const int win = (agree(0, 1) || agree(0, 2)) ? 0 : (agree(1, 2) ? 1 : 0);
    for (int r = 0; r < 3; ++r)
      if (perturbed[r] && !agree(r, win)) ++tally.masked;
    if (out_low[win] != low || out_high[win] != high) ++tally.swaps;
    low = out_low[win];
    high = out_high[win];
  }

  int replica(const ComparatorFault* f, PairTally& tally) const {
    if (f == nullptr) return -1;
    ++tally.decisions;
    return faults.fm->faulty_replica(f->node);
  }
};

/// A synchronous step runs at its slowest processor's pace.
int straggler_slowdown(const FaultModel* fm, std::span<const CEPair> pairs) {
  if (fm == nullptr || fm->config().stragglers == 0) return 1;
  for (const CEPair& p : pairs)
    if (fm->is_straggler(p.low) || fm->is_straggler(p.high))
      return fm->config().straggler_factor;
  return 1;
}

}  // namespace

Machine::Machine(const ProductGraph& pg, std::vector<Key> keys,
                 ParallelExecutor* executor)
    : pg_(&pg), keys_(std::move(keys)), executor_(executor) {
  if (static_cast<PNode>(keys_.size()) != pg.num_nodes())
    throw std::invalid_argument("one key per processor required");
}

void Machine::compare_exchange_step(std::span<const CEPair> pairs,
                                    int hop_distance) {
  // One phase of the fault clock per synchronous step (counting alone
  // never perturbs results, so an attached all-zero model stays
  // bit-identical to none).
  const std::int64_t step = faults_ != nullptr ? fault_step_++ : 0;
  const bool crash_due = faults_ != nullptr && faults_->crash_due(step);
  const bool faulty =
      faults_ != nullptr && (faults_->perturbs_compute() || crash_due ||
                             faults_->has_dead_nodes());
  if (observer_ != nullptr) {
    if (tmr_) observer_->on_tmr_phase();
    observer_->before_phase(keys_, pairs, hop_distance, /*block_size=*/1,
                            faulty);
  }
  // A validating observer (the StepAuditor) subsumes the plain sweep
  // with per-invariant reporting; a static disjointness proof
  // (set_statically_audited) discharges it offline.  Passive observers
  // leave it in force.
  if (check_disjoint_ && !statically_audited_ &&
      (observer_ == nullptr || !observer_->supersedes_validation())) {
    std::vector<char> touched(keys_.size(), 0);
    for (const CEPair& p : pairs) {
      if (p.low == p.high || touched[static_cast<std::size_t>(p.low)] ||
          touched[static_cast<std::size_t>(p.high)])
        throw std::logic_error("compare-exchange pairs not disjoint");
      touched[static_cast<std::size_t>(p.low)] = 1;
      touched[static_cast<std::size_t>(p.high)] = 1;
    }
  }

  if (faults_ != nullptr && faults_->has_dead_nodes()) {
    for (const CEPair& p : pairs)
      if (faults_->is_dead(p.low) || faults_->is_dead(p.high))
        throw std::logic_error(
            "compare-exchange pair touches a dead processor (degraded "
            "schedules must pair live nodes only)");
  }

  if (crash_due && fire_crashes(pairs, step)) {
    // Partner re-execution: the phase runs twice, once lost to the
    // crash and once from the partner's buffered copy.
    cost_.exec_steps += hop_distance;
    ++cost_.reexec_phases;
    ++cost_.degraded_phases;
  }

  // The step's coins and active comparator faults are fixed before the
  // pair loop.  A step where neither can fire runs the plain loop, in
  // TMR mode too: three fault-free replicas always agree with it.
  StepFaults faults;
  if (faults_ != nullptr)
    faults = {faults_, step, faults_->step_coins(step),
              faults_->comparator_faults(step)};
  const auto run = [&](const auto& policy) {
    return compare_exchange_pairs(pairs, keys_, executor_, policy);
  };
  const PairTally tally = !faults.can_fire() ? run(PlainPolicy{})
                          : tmr_             ? run(TmrPolicy{faults})
                                             : run(FaultyPolicy{faults});

  const int slow = straggler_slowdown(faults_, pairs);
  const auto count = static_cast<std::int64_t>(pairs.size());
  cost_.exec_steps += static_cast<std::int64_t>(hop_distance) * slow;
  cost_.exchanges += tally.swaps;
  if (tmr_) {
    // Honest redundancy charge: three replica evaluations per pair and
    // one extra synchronous step for the vote.  Replica-level drops and
    // corruptions are absorbed by the vote, never redone, so they land
    // in the model's tallies but not in retries.
    cost_.exec_steps += 1;
    cost_.comparisons += 3 * count;
    ++cost_.tmr_phases;
    cost_.tmr_masked += tally.masked;
    if (slow > 1) ++cost_.degraded_phases;
  } else {
    cost_.comparisons += count - tally.drops;
    cost_.retries += tally.drops;
    if (tally.drops > 0 || tally.corruptions > 0 || slow > 1)
      ++cost_.degraded_phases;
  }
  if (faults_ != nullptr) {
    FaultCounters& counters = faults_->counters();
    counters.ce_drops += tally.drops;
    counters.key_corruptions += tally.corruptions;
    // Ground truth for tests and soaks only: a comparator fault is
    // deliberately absent from degraded_phases — silence is the point.
    counters.comparator_faults += tally.comparator_faults;
    counters.decisions += tally.decisions;
    if (slow > 1) ++counters.straggler_phases;
  }

  if (observer_ != nullptr) observer_->after_phase(keys_);
}

bool Machine::fire_crashes(std::span<const CEPair> pairs, std::int64_t step) {
  FaultModel& fm = *faults_;
  bool reexec = false;
  while (const std::optional<CrashEvent> crash = fm.take_crash(step)) {
    const PNode v = crash->node;
    if (v < 0 || static_cast<std::size_t>(v) >= keys_.size())
      throw std::logic_error("crash event names a node outside the machine");
    if (fm.is_dead(v)) continue;  // already dead: fail-stop is idempotent
    ++cost_.crashes;

    const bool paired =
        std::any_of(pairs.begin(), pairs.end(),
                    [v](const CEPair& p) { return p.low == v || p.high == v; });

    if (!crash->permanent && paired) {
      // The node died mid-exchange: its partner holds both values of the
      // pair (the Section-4 two-value memory), so the rebooted node gets
      // its key back and the phase re-executes.  The caller charges the
      // repeated phase.
      reexec = true;
      continue;
    }

    // No live copy exists in the fabric (idle node, or the node is gone
    // for good): the key decays and the caller must escalate.
    keys_[static_cast<std::size_t>(v)] = fm.crash_garbage(v, step);
    fm.kill(v);
    throw CrashInterrupt(v, step, crash->permanent);
  }
  return reexec;
}

void Machine::set_plan(const SortPlan* plan) {
  if (plan != nullptr && &plan->graph() != pg_)
    throw std::invalid_argument("sort plan recorded on another graph");
  plan_ = plan;
}

std::span<const PNode> Machine::planned_snake(
    const ViewSpec& view) const noexcept {
  if (plan_ == nullptr || view != full_view(*pg_)) return {};
  return plan_->snake_order();
}

std::vector<Key> Machine::read_snake(const ViewSpec& view) const {
  if (const std::span<const PNode> order = planned_snake(view);
      !order.empty()) {
    std::vector<Key> out(order.size());
    for (std::size_t rank = 0; rank < order.size(); ++rank)
      out[rank] = keys_[static_cast<std::size_t>(order[rank])];
    return out;
  }
  const PNode size = view_size(*pg_, view);
  std::vector<Key> out(static_cast<std::size_t>(size));
  for (PNode rank = 0; rank < size; ++rank)
    out[static_cast<std::size_t>(rank)] =
        key(view_node_at_snake_rank(*pg_, view, rank));
  return out;
}

bool Machine::snake_sorted(const ViewSpec& view, bool descending) const {
  const auto seq = read_snake(view);
  if (descending)
    return std::is_sorted(seq.rbegin(), seq.rend());
  return std::is_sorted(seq.begin(), seq.end());
}

}  // namespace prodsort

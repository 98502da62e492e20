#pragma once

// One product-network backend of the sort service: a topology, an
// optional fault schedule, and the crash-recovery ladder, serving one
// job attempt at a time (docs/SERVICE.md).
//
// Every attempt gets a *fresh* Machine seeded from the job's pure-hash
// input, and the backend's persistent FaultModel is re-armed
// (FaultModel::reset) before each faulted attempt — the fresh machine
// restarts the fault clock, so a scheduled crash at phase p fires for
// every attempt dispatched while the fault window is active.  Attempt
// costs are therefore attempt-local by construction; the backend
// accumulates them into a lifetime CostModel for the health report.
//
// An attempt *succeeds* only when the escalation ladder hands back a
// verified result: snake (or degraded-snake + orphans) sorted, no data
// loss, and the output multiset checksum equal to the job input's —
// the end-to-end no-silent-corruption check.

#include <cstdint>
#include <memory>
#include <string>

#include "core/product_sort.hpp"
#include "network/fault_model.hpp"
#include "network/machine.hpp"
#include "network/recovery.hpp"
#include "service/circuit_breaker.hpp"
#include "service/service_types.hpp"

namespace prodsort {

struct BackendConfig {
  /// Fault schedule in FaultModel::parse_schedule_string format; empty
  /// means a fault-free backend.
  std::string fault_schedule;
  /// Virtual time at which the fault clears: the model is attached only
  /// to attempts dispatched before this instant.  -1 = faulted forever.
  std::int64_t fault_until = -1;
  /// Escalation-ladder budgets applied to every attempt.
  RecoveryPolicy recovery;
  /// Run every attempt under triple-modular-redundant voting
  /// (Machine::set_tmr): masks single silent comparator faults at 3x
  /// comparison cost, instead of detect-and-repair after the fact.
  bool tmr = false;
};

/// Per-attempt dispatch decisions (the adaptive layer's knobs); the
/// default options reproduce the legacy full-strength behavior.
struct AttemptOptions {
  /// Force TMR for this attempt regardless of the backend config — the
  /// ledger's *selective* hardening of a suspect backend (config.tmr
  /// still applies when false).
  bool tmr = false;
  bool has_plan = false;  ///< run rung 4 at cert_plan instead of full
  CertPlan cert_plan;
  /// Topology quarantine: nodes whose comparator the ledger has named
  /// suspect.  The attempt sorts on the DegradedView that excludes them
  /// — their keys are lifted host-side as orphans before any faulty
  /// phase can touch a suspect comparator, the survivors sort via
  /// BFS-routed odd-even transposition over the degraded snake, and the
  /// orphans merge back at read-out under a full end-to-end
  /// certificate.  The quarantined comparator is never an endpoint of
  /// any compare-exchange, so its fault cannot fire; cost is the routed
  /// degraded sort (~1x comparisons) instead of TMR's 3x.  Ignored when
  /// empty.
  std::vector<PNode> quarantine;
};

struct AttemptResult {
  bool success = false;   ///< verified sorted + multiset checksum intact
  bool degraded = false;  ///< served on the degraded topology (rung 3)
  bool faulted = false;   ///< the fault model was attached this attempt
  /// Served with the ledger-named suspects excluded from the topology
  /// (AttemptOptions::quarantine).
  bool quarantined = false;
  /// The end-to-end certificate failed at first read-out — silent data
  /// corruption detected.  The attempt may still succeed if the repair
  /// rung restored a certified result; an uncertified exit is a failed
  /// attempt (retry/circuit-breaker fodder), never a silent wrong
  /// answer.
  bool sdc_detected = false;
  bool cert_escalated = false;  ///< sampled certificate failed; re-ran full
  CertLevel cert_level = CertLevel::kFull;  ///< level the attempt ran at
  /// Nodes the failing certificate implicated (ledger attribution).
  std::vector<std::int64_t> suspect_nodes;
  std::int64_t steps = 0;   ///< virtual service duration (exec_steps, >= 1)
  std::int64_t comparisons = 0;  ///< pairwise comparisons this attempt (work)
  std::int64_t crashes = 0; ///< crash events fired during the attempt
  std::int64_t repair_passes = 0;  ///< rung-4 OET passes this attempt
  std::int64_t cert_steps = 0;     ///< virtual steps spent certifying
  RecoveryPath path = RecoveryPath::kNone;
  /// Sorted keys in snake order, populated only by verified block-mode
  /// attempts (the streaming egress consumes them); empty otherwise —
  /// unit-mode callers derive outputs from the job's pure-hash input.
  std::vector<Key> output;
};

class SortBackend {
 public:
  /// `pg` and `s2` are borrowed and must outlive the backend; the
  /// executor (optional) is shared across the pool.  `plan` (optional,
  /// borrowed, shared read-only across the pool) is the recorded
  /// fault-free sort of (pg, s2): unit-mode attempts on the full
  /// topology attach it to their Machine and replay it
  /// (core/sort_plan.hpp).  Throws std::invalid_argument on a malformed
  /// fault schedule string.
  SortBackend(const ProductGraph& pg, int id, const BackendConfig& config,
              const S2Sorter* s2, ParallelExecutor* executor,
              const BreakerConfig& breaker, const SortPlan* plan = nullptr);

  /// Runs one sort attempt for `job` dispatched at virtual time `now`.
  /// A payload the caller moves in becomes the machine's keys without a
  /// copy.  Never throws: unmodeled escalation dead-ends count as a
  /// failed attempt at whatever virtual cost the machine consumed.
  AttemptResult run_attempt(JobSpec job, std::int64_t now,
                            const AttemptOptions& opts);
  AttemptResult run_attempt(JobSpec job, std::int64_t now) {
    return run_attempt(std::move(job), now, AttemptOptions{});
  }

  [[nodiscard]] const ProductGraph& graph() const noexcept { return *pg_; }

  [[nodiscard]] int id() const noexcept { return id_; }
  [[nodiscard]] const BackendConfig& config() const noexcept { return config_; }
  [[nodiscard]] bool has_faults() const noexcept { return faults_ != nullptr; }
  [[nodiscard]] CircuitBreaker& breaker() noexcept { return breaker_; }
  [[nodiscard]] const CircuitBreaker& breaker() const noexcept {
    return breaker_;
  }
  /// Lifetime cost across every attempt served here.
  [[nodiscard]] const CostModel& totals() const noexcept { return totals_; }
  [[nodiscard]] std::int64_t attempts() const noexcept { return attempts_; }
  [[nodiscard]] std::int64_t failures() const noexcept { return failures_; }
  /// Attempts whose first read-out certificate failed (SDC caught).
  [[nodiscard]] std::int64_t sdc_detected() const noexcept {
    return sdc_detected_;
  }

 private:
  /// Block-mode attempt (JobSpec::block > 0): BlockMachine + merge-split
  /// schedule + end-to-end certificate + block repair.  TMR, quarantine,
  /// and checkpointed recovery are unit-mode-only and not applied.
  AttemptResult run_block_attempt(JobSpec job, std::int64_t now);

  const ProductGraph* pg_;
  int id_;
  BackendConfig config_;
  const S2Sorter* s2_;
  ParallelExecutor* executor_;
  const SortPlan* plan_;                ///< null = generate every sort
  std::unique_ptr<FaultModel> faults_;  ///< null = fault-free backend
  CircuitBreaker breaker_;
  CostModel totals_;
  std::int64_t attempts_ = 0;
  std::int64_t failures_ = 0;
  std::int64_t sdc_detected_ = 0;
};

}  // namespace prodsort

#pragma once

// RecoveryController: the deterministic escalation ladder for fail-stop
// node crashes (docs/FAULTS.md).
//
// Rung 1 — re-execute the faulted phase.  Handled inside the Machine:
//   a restartable node that dies mid-exchange is re-seeded from its
//   partner's buffered pair (the Section-4 two-value memory) and the
//   phase runs again; no interrupt reaches the controller.
// Rung 2 — rollback to the last checkpoint and resume.  A restartable
//   crash with no live copy (the node was idle that phase) raises
//   CrashInterrupt; the controller reboots the node, restores the
//   CheckpointManager snapshot, and re-runs the sort.  Compare-exchange
//   networks sort from any starting state, so re-running the oblivious
//   schedule on the partially-sorted restored state is exactly "resume":
//   every already-ordered prefix costs only comparisons, not exchanges.
// Rung 3 — remap-and-restart on the degraded topology.  A permanent
//   crash (or an exhausted rollback budget) removes the node for good:
//   the snapshot is restored, dead nodes' entries are recovered from
//   their shadows as host-side orphans, and odd-even transposition over
//   the degraded snake (product/degraded_view.hpp) sorts the survivors;
//   orphans are merged back into the output at read-out.
// Rung 4 — certify and repair the read-out.  Crashes are loud; a
//   silently faulty comparator (or a lost compare-exchange message) is
//   not, so every full-topology run ends with an end-to-end certificate
//   (core/certifier.hpp: multiset fingerprint + adjacency scan).  A
//   wrong-order verdict triggers the bounded dirty-window repair loop;
//   a keys-corrupted verdict is unrepairable data loss and the caller
//   must re-ingest the input (the sort service treats both as a failed
//   attempt for retry/circuit-breaker purposes).
//
// Every rung is budgeted; the run's path, budget spend, and data-loss
// verdict come back in a CrashRecoveryReport, and the machine's
// CostModel carries the machine-readable counters (crashes,
// reexec_phases, checkpoints, rollbacks, remap_sorts).

#include <cstdint>
#include <string>
#include <vector>

#include "core/certifier.hpp"
#include "core/product_sort.hpp"
#include "network/checkpoint.hpp"
#include "network/machine.hpp"
#include "product/degraded_view.hpp"

namespace prodsort {

struct RecoveryPolicy {
  int checkpoint_interval = 8;  ///< phases between snapshots
  int max_rollbacks = 4;        ///< rung-2 budget (restartable crashes)
  int max_remaps = 3;           ///< rung-3 budget (degraded restarts)
  /// Pre-sort multiset checksum for the data-loss verdict; 0 means
  /// "compute it from the machine's keys when run() starts".
  std::uint64_t expected_checksum = 0;
  /// Rung-4 repair budget: odd-even transposition passes
  /// certify_and_repair may spend on a wrong-order certificate; 0 means
  /// auto (machine size + 4, enough to sort any window fault-free).
  int repair_passes = 0;
  /// Rung-4 certification plan (the adaptive risk dial).  The default
  /// full plan keeps the legacy behavior; a sampled plan trades escape
  /// probability for virtual time, and a sampled failure escalates to a
  /// charged full certificate before repair runs.
  CertPlan cert_plan = {};
};

enum class RecoveryPath {
  kNone,          ///< no crash fired
  kReexecOnly,    ///< rung 1 absorbed every crash in-phase
  kRollback,      ///< rung 2: checkpoint rollback(s), full topology kept
  kDegradedRemap, ///< rung 3: sorted on the surviving topology
  kCertifiedRepair, ///< rung 4 alone: silent corruption caught and repaired
  kFailed,        ///< budgets exhausted or live topology disconnected
};

[[nodiscard]] std::string to_string(RecoveryPath path);

struct CrashRecoveryReport {
  RecoveryPath path = RecoveryPath::kNone;
  bool sorted = false;     ///< final sequence (incl. orphans) verified sorted
  bool data_loss = false;  ///< keys unrecoverable or checksum mismatch
  bool certified = false;  ///< exit certificate passed (sorted, no loss)
  bool cert_failed = false; ///< first read-out certificate failed (SDC seen)
  bool cert_escalated = false;  ///< sampled cert failed; re-ran at kFull
  CertLevel cert_level = CertLevel::kFull;  ///< level rung 4 started at
  /// Nodes inside the failing certificate's dirty window (snake order,
  /// capped at 8) — the suspect-comparator ledger's attribution input.
  std::vector<PNode> suspect_nodes;
  int rollbacks = 0;       ///< rung-2 restores performed
  int remaps = 0;          ///< rung-3 degraded restarts performed
  int repair_passes = 0;   ///< rung-4 OET repair passes executed
  std::int64_t crashes = 0;           ///< crash events fired during the run
  // Per-run cost deltas, diffed against the machine's CostModel at
  // entry: back-to-back runs on one machine (the sort service's retry
  // path) never double-count a previous run's work even when the caller
  // skips reset_fault_counters() between them.  The machine's own
  // counters stay cumulative.
  std::int64_t checkpoints = 0;       ///< snapshots taken during this run
  std::int64_t checkpoint_steps = 0;  ///< exec_steps spent on them
  std::int64_t recovery_steps = 0;    ///< exec_steps spent restoring/cleanup
  std::int64_t reexec_phases = 0;     ///< rung-1 partner re-executions
  std::vector<PNode> dead;            ///< nodes dead at exit, ascending
  std::vector<PNode> lost_entries;    ///< checkpoint entries lost for good
  /// The run's result: the full-topology snake when no node died, else
  /// the degraded snake with recovered orphan keys merged in.
  std::vector<Key> output;
};

/// Compare-exchange pairs of one odd-even transposition phase over the
/// degraded snake (ranks 2i+parity, 2i+parity+1); `hop` receives the
/// step's charge, the largest routed distance among the pairs.
[[nodiscard]] std::vector<CEPair> degraded_oet_pairs(const DegradedView& view,
                                                     int parity, int* hop);

/// Sorts the live keys along the degraded snake by odd-even
/// transposition through the machine's own compare-exchange primitive
/// (so the sort is charged to the cost model and subject to attached
/// faults — including further crashes, which propagate as
/// CrashInterrupt).  Early-exits after two quiescent passes.
void sort_degraded_snake(Machine& machine, const DegradedView& view);

/// Keys of the surviving nodes along the degraded snake (the read-out
/// of a remap-and-restart sort; orphan keys are NOT included — the
/// RecoveryController merges those host-side).
[[nodiscard]] std::vector<Key> read_degraded_snake(const Machine& machine,
                                                   const DegradedView& view);

class RecoveryController {
 public:
  /// The machine must have a FaultModel attached if crashes are to be
  /// injected (a model-less machine just sorts).  Both are borrowed.
  explicit RecoveryController(Machine& machine, RecoveryPolicy policy = {});

  /// Runs the sort under the escalation ladder and verifies the result.
  /// CostModel fault counters are NOT reset here — the report's
  /// crash/checkpoint counters are per-run deltas, so they stay correct
  /// across back-to-back runs on one machine; call
  /// machine.cost().reset_fault_counters() only when the cumulative
  /// machine counters themselves must restart (fresh trial), and pair
  /// it with FaultModel::reset() + Machine::reset_fault_clock() so the
  /// crash schedule re-arms on a fresh phase clock.
  CrashRecoveryReport run(const SortOptions& options = {});

  [[nodiscard]] const RecoveryPolicy& policy() const noexcept {
    return policy_;
  }

 private:
  Machine* machine_;
  RecoveryPolicy policy_;
};

}  // namespace prodsort

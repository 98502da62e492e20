#include "network/recovery.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/certifier.hpp"
#include "product/snake_order.hpp"

namespace prodsort {

std::string to_string(RecoveryPath path) {
  switch (path) {
    case RecoveryPath::kNone: return "none";
    case RecoveryPath::kReexecOnly: return "reexec-only";
    case RecoveryPath::kRollback: return "rollback";
    case RecoveryPath::kDegradedRemap: return "degraded-remap";
    case RecoveryPath::kCertifiedRepair: return "certified-repair";
    case RecoveryPath::kFailed: return "failed";
  }
  return "?";
}

std::vector<CEPair> degraded_oet_pairs(const DegradedView& view, int parity,
                                       int* hop) {
  const PNode n = view.live_size();
  std::vector<CEPair> pairs;
  pairs.reserve(static_cast<std::size_t>(n / 2 + 1));
  int max_hop = 1;
  for (PNode rank = parity; rank + 1 < n; rank += 2) {
    pairs.push_back({view.node_at_rank(rank), view.node_at_rank(rank + 1)});
    max_hop = std::max(max_hop, view.hop_to_next(rank));
  }
  if (hop != nullptr) *hop = max_hop;
  return pairs;
}

void sort_degraded_snake(Machine& machine, const DegradedView& view) {
  const PNode n = view.live_size();
  if (n <= 1) return;
  // Full odd-even transposition sorts any input in n passes; the early
  // exit after two quiescent passes is what makes rollback from a
  // partially-sorted checkpoint measurably cheaper than from scratch.
  int quiet = 0;
  for (PNode pass = 0; pass < n + 2 && quiet < 2; ++pass) {
    int hop = 1;
    const std::vector<CEPair> pairs =
        degraded_oet_pairs(view, static_cast<int>(pass % 2), &hop);
    if (pairs.empty()) {
      ++quiet;
      continue;
    }
    const std::int64_t before = machine.cost().exchanges;
    machine.compare_exchange_step(pairs, hop);
    quiet = machine.cost().exchanges == before ? quiet + 1 : 0;
  }
}

std::vector<Key> read_degraded_snake(const Machine& machine,
                                     const DegradedView& view) {
  std::vector<Key> out;
  out.reserve(static_cast<std::size_t>(view.live_size()));
  for (const PNode node : view.live_nodes()) out.push_back(machine.key(node));
  return out;
}

RecoveryController::RecoveryController(Machine& machine, RecoveryPolicy policy)
    : machine_(&machine), policy_(policy) {
  if (policy_.max_rollbacks < 0 || policy_.max_remaps < 0)
    throw std::invalid_argument("recovery budgets must be >= 0");
}

CrashRecoveryReport RecoveryController::run(const SortOptions& options) {
  Machine& m = *machine_;
  FaultModel* fm = m.fault_model();
  CrashRecoveryReport report;

  const std::uint64_t checksum = policy_.expected_checksum != 0
                                     ? policy_.expected_checksum
                                     : fingerprint_sequence(m.keys()).checksum;
  // Baselines for the report's per-run deltas: the machine's counters
  // are cumulative across runs, the report's must not be.
  const CostModel before = m.cost();

  CheckpointManager manager(
      {.interval = policy_.checkpoint_interval, .snapshot_on_attach = true});
  manager.attach(m);

  // Rung 2: rollback-and-resume on restartable crashes the machine
  // could not absorb in-phase.
  bool remap_needed = false;
  while (true) {
    try {
      sort_product_network(m, options);
      break;
    } catch (const CrashInterrupt& crash) {
      manager.note_crash(crash.node());
      if (!crash.permanent() && report.rollbacks < policy_.max_rollbacks) {
        fm->restart(crash.node());
        CheckpointManager::RestoreResult restored = manager.restore();
        report.lost_entries.insert(report.lost_entries.end(),
                                   restored.lost.begin(), restored.lost.end());
        ++report.rollbacks;
        ++m.cost().rollbacks;
        report.path = RecoveryPath::kRollback;
        continue;
      }
      remap_needed = true;  // permanent loss, or rollback budget spent
      break;
    }
  }

  // Rung 3: remap-and-restart on the surviving topology.  Further
  // crashes during the degraded sort loop back here with the victim
  // added to the dead set (restartable or not: once degraded, a flaky
  // node stays excluded for the rest of the run).
  std::vector<std::pair<PNode, Key>> orphans;
  if (remap_needed) {
    report.path = RecoveryPath::kFailed;  // until a degraded sort lands
    while (report.remaps < policy_.max_remaps) {
      ++report.remaps;
      ++m.cost().remap_sorts;
      CheckpointManager::RestoreResult restored = manager.restore();
      ++m.cost().rollbacks;
      orphans = std::move(restored.orphans);
      report.lost_entries.insert(report.lost_entries.end(),
                                 restored.lost.begin(), restored.lost.end());
      try {
        const DegradedView degraded(m.graph(), full_view(m.graph()),
                                    fm->dead_nodes());
        sort_degraded_snake(m, degraded);
        report.path = RecoveryPath::kDegradedRemap;
        break;
      } catch (const CrashInterrupt& crash) {
        manager.note_crash(crash.node());
        continue;
      } catch (const std::runtime_error&) {
        break;  // dead set disconnects the live snake: unrecoverable
      }
    }
  }

  manager.detach();

  if (fm != nullptr) {
    report.dead = fm->dead_nodes();
    report.crashes = m.cost().crashes - before.crashes;
  }
  if (report.crashes > 0 && report.path == RecoveryPath::kNone)
    report.path = RecoveryPath::kReexecOnly;

  std::sort(report.lost_entries.begin(), report.lost_entries.end());
  report.lost_entries.erase(
      std::unique(report.lost_entries.begin(), report.lost_entries.end()),
      report.lost_entries.end());

  // Read-out and certification (rung 4).  Crashes are loud; silent
  // comparator faults and lost compare-exchange messages are not, so
  // the full-topology read-out always gets an end-to-end certificate,
  // run at the policy's plan (the adaptive risk dial) and charged to
  // the virtual clock.  A sampled-level failure escalates to a charged
  // full certificate first — repair must work from the true window.
  // A wrong-order verdict (right keys, wrong permutation) runs the
  // bounded dirty-window repair loop; keys-corrupted is unrepairable
  // and falls through to the data-loss verdict.  A crash firing during
  // repair is out of budget by construction here, so it fails the run.
  bool host_checksum_needed = true;
  if (report.dead.empty()) {
    const Certifier certifier(
        MultisetFingerprint{checksum,
                            static_cast<std::uint64_t>(m.keys().size())},
        m.executor());
    report.cert_level = policy_.cert_plan.level;
    EndToEndCertificate cert =
        certify_charged(m, full_view(m.graph()), certifier, policy_.cert_plan);
    if (!cert.pass() && cert.level != CertLevel::kFull) {
      report.cert_escalated = true;
      cert = certify_charged(m, full_view(m.graph()), certifier, CertPlan{});
    }
    report.cert_failed = !cert.pass();
    if (report.cert_failed && cert.dirty_lo >= 0) {
      // Attribution for the suspect-comparator ledger: the nodes whose
      // snake ranks sit in the dirty window (capped — a wide window
      // implicates the whole fabric, not a nameable comparator).
      const ViewSpec view = full_view(m.graph());
      const PNode cap = std::min<PNode>(cert.dirty_hi, cert.dirty_lo + 7);
      for (PNode rank = cert.dirty_lo; rank <= cap; ++rank)
        report.suspect_nodes.push_back(
            view_node_at_snake_rank(m.graph(), view, rank));
    }
    if (cert.verdict == CertVerdict::kWrongOrder) {
      const int budget =
          policy_.repair_passes > 0
              ? policy_.repair_passes
              : static_cast<int>(m.graph().num_nodes()) + 4;
      try {
        const RepairReport repair = certify_and_repair(
            m, full_view(m.graph()), certifier, {.max_passes = budget});
        report.repair_passes = repair.passes;
        cert = repair.after;
      } catch (const CrashInterrupt&) {
        report.path = RecoveryPath::kFailed;
        cert = certifier.certify(m, full_view(m.graph()));
      }
    }
    report.output = m.read_snake(full_view(m.graph()));
    report.sorted = cert.sorted;
    // A clean run certified by a fingerprint-skipping plan is taken at
    // its word — re-hashing host-side would silently re-impose the full
    // tax the plan traded away.  That is the budgeted escape window;
    // any loud event (crash, rollback, failed cert) restores the full
    // host-side verdict.
    if (cert.pass() && !cert.fingerprint_checked && report.crashes == 0 &&
        report.rollbacks == 0 && report.remaps == 0)
      host_checksum_needed = false;
  } else if (report.path == RecoveryPath::kDegradedRemap) {
    const DegradedView degraded(m.graph(), full_view(m.graph()), report.dead);
    std::vector<Key> live = read_degraded_snake(m, degraded);
    report.sorted = std::is_sorted(live.begin(), live.end());
    if (!report.sorted) {
      report.cert_failed = true;  // survivor read-out failed first check
      try {
        sort_degraded_snake(m, degraded);
        live = read_degraded_snake(m, degraded);
        report.sorted = std::is_sorted(live.begin(), live.end());
      } catch (const CrashInterrupt&) {
        report.path = RecoveryPath::kFailed;
      }
    }
    std::vector<Key> orphan_keys;
    orphan_keys.reserve(orphans.size());
    for (const auto& [node, key] : orphans) orphan_keys.push_back(key);
    std::sort(orphan_keys.begin(), orphan_keys.end());
    report.output.resize(live.size() + orphan_keys.size());
    std::merge(live.begin(), live.end(), orphan_keys.begin(),
               orphan_keys.end(), report.output.begin());
  }

  report.data_loss =
      !report.lost_entries.empty() ||
      (host_checksum_needed &&
       fingerprint_sequence(report.output).checksum != checksum);
  report.certified = report.sorted && !report.data_loss;
  // A run no crash rung touched but the certificate caught: the silent
  // path.  Repaired = rung 4 alone recovered it; unrepairable = failed
  // loudly (never a silent wrong answer).
  if (report.path == RecoveryPath::kNone && report.cert_failed)
    report.path = report.certified ? RecoveryPath::kCertifiedRepair
                                   : RecoveryPath::kFailed;

  // Per-run deltas, taken last so cleanup passes above are included.
  report.checkpoints = m.cost().checkpoints - before.checkpoints;
  report.checkpoint_steps = m.cost().checkpoint_steps - before.checkpoint_steps;
  report.recovery_steps = m.cost().recovery_steps - before.recovery_steps;
  report.reexec_phases = m.cost().reexec_phases - before.reexec_phases;
  return report;
}

}  // namespace prodsort

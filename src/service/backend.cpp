#include "service/backend.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "core/block_sort.hpp"
#include "core/certifier.hpp"
#include "network/block_machine.hpp"
#include "product/subgraph_view.hpp"

namespace prodsort {

SortBackend::SortBackend(const ProductGraph& pg, int id,
                         const BackendConfig& config, const S2Sorter* s2,
                         ParallelExecutor* executor,
                         const BreakerConfig& breaker, const SortPlan* plan)
    : pg_(&pg),
      id_(id),
      config_(config),
      s2_(s2),
      executor_(executor),
      plan_(plan),
      breaker_(breaker) {
  if (!config_.fault_schedule.empty()) {
    faults_ = std::make_unique<FaultModel>(
        FaultModel::parse_schedule_string(config_.fault_schedule));
  }
}

AttemptResult SortBackend::run_attempt(JobSpec job, std::int64_t now,
                                       const AttemptOptions& opts) {
  if (job.block > 0) return run_block_attempt(std::move(job), now);
  AttemptResult result;
  const PNode n = pg_->num_nodes();
  std::vector<Key> keys = service_job_keys(n, std::move(job));
  const std::uint64_t checksum = fingerprint_sequence(keys).checksum;

  Machine machine(*pg_, std::move(keys), executor_);
  machine.set_tmr(config_.tmr || opts.tmr);
  result.faulted =
      faults_ != nullptr &&
      (config_.fault_until < 0 || now < config_.fault_until);
  if (result.faulted) {
    // Re-arm the persistent schedule for this attempt; the machine is
    // fresh, so its fault clock already starts at phase 0.
    faults_->reset();
    if (faults_->config().stragglers > 0) faults_->select_stragglers(n);
    if (faults_->has_bursts()) faults_->expand_bursts(n);
    machine.set_fault_model(faults_.get());
  }

  if (!opts.quarantine.empty()) {
    // Topology quarantine: lift the suspects' keys host-side before any
    // phase runs, sort the survivors over the degraded snake (BFS-routed
    // around the excluded nodes — the suspect comparator is never an
    // endpoint), and merge the orphans back at read-out under a full
    // end-to-end certificate.
    result.quarantined = true;
    result.degraded = true;
    try {
      const ViewSpec view = full_view(*pg_);
      const DegradedView degraded(*pg_, view, opts.quarantine);
      std::vector<Key> orphan_keys;
      orphan_keys.reserve(opts.quarantine.size());
      for (const PNode q : opts.quarantine)
        if (degraded.rank_of(q) < 0)  // actually excluded, not a stray id
          orphan_keys.push_back(machine.key(q));
      sort_degraded_snake(machine, degraded);
      std::vector<Key> live = read_degraded_snake(machine, degraded);
      std::sort(orphan_keys.begin(), orphan_keys.end());
      std::vector<Key> merged(live.size() + orphan_keys.size());
      std::merge(live.begin(), live.end(), orphan_keys.begin(),
                 orphan_keys.end(), merged.begin());
      const Certifier certifier(
          MultisetFingerprint{checksum, static_cast<std::uint64_t>(n)},
          executor_);
      const EndToEndCertificate cert = certifier.certify(merged);
      // Honest charge: the merged read-out is certified at full strength
      // (every adjacent pair + fingerprint) on the machine's clock.
      machine.cost().cert_steps += certificate_steps(
          static_cast<std::int64_t>(merged.size()),
          static_cast<std::int64_t>(merged.size()) - 1, true);
      ++machine.cost().certificates;
      result.success = cert.pass() &&
                       merged.size() == static_cast<std::size_t>(n);
      result.sdc_detected = !cert.pass();
    } catch (const std::exception&) {
      result.success = false;  // disconnected view or mid-sort crash
      result.path = RecoveryPath::kFailed;
    }
    result.steps = std::max<std::int64_t>(1, machine.cost().exec_steps);
    result.comparisons = machine.cost().comparisons;
    result.crashes = machine.cost().crashes;
    result.cert_steps = machine.cost().cert_steps;
    totals_ += machine.cost();
    ++attempts_;
    if (!result.success) ++failures_;
    if (result.sdc_detected) ++sdc_detected_;
    return result;
  }

  // Full topology: replay the recorded sort instead of regenerating it.
  machine.set_plan(plan_);
  RecoveryPolicy policy = config_.recovery;
  policy.expected_checksum = checksum;
  if (opts.has_plan) policy.cert_plan = opts.cert_plan;
  result.cert_level = policy.cert_plan.level;
  SortOptions options;
  options.s2 = s2_;
  try {
    RecoveryController controller(machine, policy);
    const CrashRecoveryReport report = controller.run(options);
    result.path = report.path;
    result.degraded = report.path == RecoveryPath::kDegradedRemap;
    result.sdc_detected = report.cert_failed;
    result.cert_escalated = report.cert_escalated;
    result.cert_level = report.cert_level;
    result.suspect_nodes.assign(report.suspect_nodes.begin(),
                                report.suspect_nodes.end());
    result.repair_passes = report.repair_passes;
    // When the plan skipped the fingerprint, the backend honors the
    // trade: re-hashing the output here would re-impose the full tax
    // the adaptive level deliberately deferred.  Any loud signal (a
    // failed certificate, a crash) restores the audit.
    const bool audit_checksum = !opts.has_plan || policy.cert_plan.fingerprint ||
                                report.cert_failed || report.crashes > 0;
    result.success =
        report.certified &&
        report.output.size() == static_cast<std::size_t>(n) &&
        (!audit_checksum ||
         fingerprint_sequence(report.output).checksum == checksum);
  } catch (const std::exception&) {
    result.success = false;  // unmodeled dead-end: charge and fail
    result.path = RecoveryPath::kFailed;
  }
  result.steps = std::max<std::int64_t>(1, machine.cost().exec_steps);
  result.comparisons = machine.cost().comparisons;
  result.crashes = machine.cost().crashes;
  result.cert_steps = machine.cost().cert_steps;

  totals_ += machine.cost();
  ++attempts_;
  if (!result.success) ++failures_;
  if (result.sdc_detected) ++sdc_detected_;
  return result;
}

AttemptResult SortBackend::run_block_attempt(JobSpec job, std::int64_t now) {
  // Block-mode attempt (streaming runs, docs/STREAMING.md): sort
  // block * N^r keys with the Section 4 merge-split schedule, certify
  // the snake read-out end-to-end, and block_certify_and_repair a
  // wrong-order exit.  Only comparator faults perturb a BlockMachine
  // (crashes and stragglers are unit-mode concepts — the streaming
  // dispatcher models whole-run crashes and outages itself), and the
  // unit-mode knobs that assume one key per node (TMR voting, topology
  // quarantine, checkpoint rollback) are deliberately not offered here.
  AttemptResult result;
  const PNode n = pg_->num_nodes();
  const PNode total = n * static_cast<PNode>(job.block);
  const int block = job.block;
  std::vector<Key> keys = service_job_keys(total, std::move(job));
  const Certifier certifier(keys, executor_);

  BlockMachine machine(*pg_, std::move(keys), block, executor_);
  result.faulted = faults_ != nullptr &&
                   (config_.fault_until < 0 || now < config_.fault_until);
  if (result.faulted) {
    faults_->reset();
    if (faults_->has_bursts()) faults_->expand_bursts(n);
    machine.set_fault_model(faults_.get());
  }

  try {
    BlockSortOptions options;
    const BlockSnakeOETS2 snake_s2;
    options.s2 = &snake_s2;
    sort_block_network(machine, options);

    const ViewSpec view = full_view(*pg_);
    EndToEndCertificate cert =
        certify_charged(machine, view, certifier, CertPlan{});
    if (cert.verdict == CertVerdict::kWrongOrder) {
      result.sdc_detected = true;
      const RepairReport repair =
          block_certify_and_repair(machine, view, certifier);
      result.repair_passes = repair.passes;
      cert = repair.after;
    }
    result.success = cert.pass();
    result.sdc_detected = result.sdc_detected || !cert.pass();
    if (result.success) result.output = machine.read_snake(view);
  } catch (const std::exception&) {
    result.success = false;  // unmodeled dead-end: charge and fail
    result.path = RecoveryPath::kFailed;
  }

  result.steps = std::max<std::int64_t>(1, machine.cost().exec_steps);
  result.comparisons = machine.cost().comparisons;
  result.cert_steps = machine.cost().cert_steps;
  totals_ += machine.cost();
  ++attempts_;
  if (!result.success) ++failures_;
  if (result.sdc_detected) ++sdc_detected_;
  return result;
}

}  // namespace prodsort

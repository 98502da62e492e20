#pragma once

// StepAuditor: per-phase invariant auditing for the synchronous machine.
//
// The paper's cost claims (Section 4.1, Theorem 1) hold only if every
// simulated phase obeys disciplines the simulator otherwise trusts by
// convention.  The auditor attaches to Machine / BlockMachine through
// the PhaseObserver seam and verifies, per synchronous phase:
//
//  (a)-(c) the Section-4 pair disciplines of PhaseDiscipline
//      (analysis/phase_discipline.hpp): pair disjointness (this
//      supersedes Machine::set_check_disjoint), locality / cost honesty,
//      and the two-value memory bound.  A processor resident in two
//      exchanges is reported once, as an overlapping pair; the memory
//      bound shows in AuditorStats::max_resident_values;
//  (d) lockstep race detection — with check_lockstep set, each audited
//      phase is re-run single-threaded from a pre-phase snapshot, both
//      key arrays are hashed, and any divergence (a lost or torn update
//      under ParallelExecutor) is flagged with the phase id and a
//      write-set overlap report.
//
// A violation is recorded (up to kMaxRecorded) and, with
// throw_on_violation set, raised as std::logic_error before the phase
// mutates any key (lockstep divergence, detected after the fact, is
// raised after).  See docs/ANALYSIS.md for usage and report format.

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analysis/phase_discipline.hpp"
#include "network/phase_observer.hpp"

namespace prodsort {

struct AuditorConfig {
  /// Section 4 discipline: partners differ in exactly one dimension.
  /// NetworkS2 legitimately routes comparator partners across both view
  /// dimensions charging their exact product distance; set this to audit
  /// such runs — cross-dimension pairs are then allowed but the charged
  /// hop must cover the full product distance (sum of per-dimension
  /// factor distances), keeping the cost-honesty half of the check.
  bool allow_cross_dimension = false;
  /// Expensive (snapshot + serial replay per phase); off by default.
  bool check_lockstep = false;
  /// Raise std::logic_error on the first violation.  When false the
  /// auditor only records, for sweep tools and negative tests.
  bool throw_on_violation = true;
};

struct AuditorStats {
  std::int64_t phases = 0;            ///< phases audited
  std::int64_t pairs = 0;             ///< pairs audited
  std::int64_t lockstep_replays = 0;  ///< phases replayed serially
  std::int64_t faulty_phases = 0;     ///< phases a FaultModel may perturb
  /// Phases whose lockstep replay was skipped because the phase was
  /// fault-perturbed (replay cannot reproduce fault decisions).  Only
  /// counted while check_lockstep is on — this is lost audit coverage,
  /// and chaos runs must report it rather than silently under-audit
  /// (the AUDIT lines of tools/prodsort_audit carry it).
  std::int64_t replay_skipped = 0;
  /// Phases executed under TMR voting (Machine::set_tmr).  The auditor
  /// never sees the per-replica pair evaluations — only the voted
  /// result — so TMR phases are a counted blind spot: pair-level
  /// invariants (a)-(c) still run on the voted phase, but replica
  /// divergence is invisible here.  Audit tools report this alongside
  /// replay_skipped so coverage loss is never silent.
  std::int64_t tmr_phases = 0;
  /// Max values any processor held in one phase (own + partners; the
  /// Section-4 discipline bounds this by 2).
  int max_resident_values = 1;
};

class StepAuditor final : public PhaseObserver {
 public:
  /// The graph must be the one the audited machine runs on (factor
  /// distances are precomputed from it) and must outlive the auditor.
  explicit StepAuditor(const ProductGraph& pg, AuditorConfig config = {});
  explicit StepAuditor(const ProductGraph&& pg, AuditorConfig config = {}) =
      delete;

  static constexpr std::size_t kMaxRecorded = 64;  ///< violations kept

  /// The auditor owns per-phase pair validation while attached (the
  /// machine skips its plain disjointness sweep).
  [[nodiscard]] bool supersedes_validation() const override { return true; }

  void before_phase(std::span<const Key> keys, std::span<const CEPair> pairs,
                    int hop_distance, int block_size, bool faulty) override;
  void after_phase(std::span<const Key> keys) override;
  void on_tmr_phase() override { ++stats_.tmr_phases; }

  [[nodiscard]] const AuditorConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const AuditorStats& stats() const noexcept { return stats_; }

  /// Recorded violations (the first `kMaxRecorded`); `violation_count`
  /// keeps counting past the recording cap.
  [[nodiscard]] std::span<const Violation> violations() const noexcept {
    return violations_;
  }
  [[nodiscard]] std::int64_t violation_count() const noexcept {
    return violation_count_;
  }
  [[nodiscard]] bool clean() const noexcept { return violation_count_ == 0; }

  /// Forgets recorded violations and statistics (config is kept).
  void reset();

  /// Order-independent hash of a key array (mix64 chain over positions).
  [[nodiscard]] static std::uint64_t hash_keys(std::span<const Key> keys);

  /// The lockstep core, exposed for tests: serially replays `pairs`
  /// (compare-exchange for block_size 1, merge-split otherwise) on a
  /// copy of `before` and compares hashes with `after`.  Returns the
  /// divergence violation — including the write-set overlap report —
  /// or nullopt when the parallel result matches the serial replay.
  [[nodiscard]] std::optional<Violation> lockstep_compare(
      std::span<const Key> before, std::span<const CEPair> pairs,
      int block_size, std::span<const Key> after) const;

 private:
  void report(Violation violation);

  AuditorConfig config_;
  AuditorStats stats_;
  std::vector<Violation> violations_;
  std::int64_t violation_count_ = 0;

  PhaseDiscipline discipline_;

  // Pending lockstep replay for the phase between before/after calls.
  std::vector<Key> snapshot_;
  std::span<const CEPair> pending_pairs_;
  int pending_block_size_ = 1;
  bool replay_pending_ = false;
};

}  // namespace prodsort

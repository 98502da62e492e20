#pragma once

// ScheduleIR: the comparator-schedule intermediate representation of
// the static analyzer (src/staticcheck/, docs/ANALYSIS.md "Static vs
// dynamic auditing").
//
// The paper's generalized algorithm is data-oblivious: for a fixed
// (topology, N, S2 backend) the phase-by-phase compare-exchange
// schedule is a constant, independent of the keys.  The recorder below
// captures that constant through the PhaseObserver seam — run the sort
// once on throwaway keys and the full schedule (pairs, charged hop
// distances, per-phase dimension tags, block size) comes out as data.
// Every property StepAuditor re-checks dynamically on each run, and the
// 0-1 sortedness fact certification re-verifies per output, can then be
// established once, statically, over the IR:
//
//   schedule_ir   (this header)   — record + canonical hash (dedupe)
//   static_prover                 — disjointness / locality / Section-4
//                                   memory bound, proven or refuted with
//                                   minimal counterexample phases
//   zero_one_check                — 0-1 model checking of sortedness
//   dataflow                      — dead comparators, fusion, slack
//
// The canonical hash is a pure content hash (phases, hops, pairs), so
// identical schedules reached through different drivers are analyzed
// once and a proof is addressed by the hash it covers.

#include <cstdint>
#include <limits>
#include <ranges>
#include <span>
#include <string>
#include <vector>

#include "network/machine.hpp"
#include "network/phase_observer.hpp"

namespace prodsort {

class BlockS2Sorter;
class S2Sorter;

/// One synchronous phase of a recorded schedule, as read from (and
/// written to) a ScheduleIR: a view of the phase's pairs plus its step
/// fields.  A view read from an IR is valid until that IR is next
/// written, moved or destroyed.
struct SchedulePhase {
  std::span<const CEPair> pairs;
  int hop_distance = 1;  ///< charged factor-graph hop bound
  /// Dimension tag: the single product dimension (1-based) every pair
  /// of the phase differs in; 0 for an empty phase or when pairs span
  /// multiple dimensions (NetworkS2's routed cross-dimension partners).
  int dim = 0;
  bool faulty = false;  ///< a FaultModel could have perturbed this phase
  bool tmr = false;     ///< executed under TMR voting
};

/// A recorded compare-exchange schedule, stored flat: one pair array
/// and one step table of (offset, count, hop, dimension tag, flags).
/// Labels (`topology`, `sorter`) are diagnostic only; identity is the
/// canonical content hash.  Schiller's agglomeration law (PAPERS.md,
/// arXiv 1701.00635) motivates the one flat pair list per schedule.
class ScheduleIR {
 public:
  std::string topology;  ///< e.g. "path-4^3"
  std::string sorter;    ///< e.g. "shearsort"
  PNode num_nodes = 0;
  NodeId radix = 0;
  int dims = 0;
  int block_size = 1;

  /// Phase `i` as a view.
  [[nodiscard]] SchedulePhase phase(std::size_t i) const {
    const Step& step = steps_[i];
    return {std::span<const CEPair>(pairs_.data() + step.offset, step.count),
            step.hop, step.dim, step.faulty, step.tmr};
  }

  /// Every phase in order, as views (a sized random-access range).
  [[nodiscard]] auto phases() const {
    return std::views::iota(std::size_t{0}, steps_.size()) |
           std::views::transform([this](std::size_t i) { return phase(i); });
  }

  /// Appends a phase, copying its pairs; the only writer.  `phase.pairs`
  /// must not view this IR.  Editing a schedule invalidates any proof
  /// addressed to the original canonical hash, so call sites outside
  /// src/staticcheck must carry an AUDITOR-EXEMPT(<reason>) comment
  /// (enforced by scripts/lint.sh, same discipline as
  /// Machine::mutable_keys).
  void add_phase(const SchedulePhase& phase);

  [[nodiscard]] std::int64_t total_pairs() const noexcept {
    return static_cast<std::int64_t>(pairs_.size());
  }
  [[nodiscard]] bool any_faulty() const;
  [[nodiscard]] bool any_tmr() const;
  /// Bytes held by the pair array and the step table.
  [[nodiscard]] std::size_t bytes() const noexcept {
    return pairs_.size() * sizeof(CEPair) + steps_.size() * sizeof(Step);
  }

  /// Canonical content hash: a mix64 chain over (num_nodes, block_size,
  /// per phase: hop, pair count, every pair's endpoints).  Labels,
  /// dimension tags and flags are derived data and excluded.  Two
  /// schedules with equal hashes are treated as one analysis unit.
  [[nodiscard]] std::uint64_t canonical_hash() const;

 private:
  struct Step {
    std::size_t offset = 0;  ///< first pair in pairs_
    std::size_t count = 0;
    int hop = 1;
    int dim = 0;
    bool faulty = false;
    bool tmr = false;
  };

  std::vector<Step> steps_;
  std::vector<CEPair> pairs_;
};

/// PhaseObserver that records every phase into a ScheduleIR.  Passive:
/// it performs no validation of its own, and it chains — pass an
/// already-attached observer (e.g. a StepAuditor) as `next` and every
/// callback keeps firing, so one run can be audited dynamically and
/// recorded statically at once.
class ScheduleRecorder final : public PhaseObserver {
 public:
  /// `pg` must be the recorded machine's graph (dimension tags are
  /// computed from it) and must outlive the recorder; `next` (optional,
  /// borrowed) receives every callback first.  Once recording a phase
  /// would take the total past `max_pairs`, the recorder stops storing
  /// phases and reports overflowed(); callbacks still chain.
  explicit ScheduleRecorder(
      const ProductGraph& pg, PhaseObserver* next = nullptr,
      std::size_t max_pairs = std::numeric_limits<std::size_t>::max());
  explicit ScheduleRecorder(
      const ProductGraph&& pg, PhaseObserver* next = nullptr,
      std::size_t max_pairs = std::numeric_limits<std::size_t>::max()) =
      delete;

  [[nodiscard]] bool supersedes_validation() const override {
    return next_ != nullptr && next_->supersedes_validation();
  }
  void on_tmr_phase() override;
  void before_phase(std::span<const Key> keys, std::span<const CEPair> pairs,
                    int hop_distance, int block_size, bool faulty) override;
  void after_phase(std::span<const Key> keys) override;

  /// True once a phase was dropped for exceeding `max_pairs`.
  [[nodiscard]] bool overflowed() const noexcept { return overflowed_; }

  /// Finishes recording and moves the IR out (topology/sorter labels
  /// are left for the caller to fill).  The recorder resets to empty.
  [[nodiscard]] ScheduleIR take();

 private:
  const ProductGraph* pg_;
  PhaseObserver* next_;
  ScheduleIR ir_;
  std::size_t max_pairs_;
  bool overflowed_ = false;
  bool tmr_pending_ = false;
};

/// Identity hash of the graph a schedule was recorded on (factor name,
/// size, dims).  A proof's locality verdict consults factor distances,
/// so proof caches must key on (graph fingerprint, canonical hash) —
/// two same-size factors can yield hash-identical schedules whose true
/// hop distances differ.
[[nodiscard]] std::uint64_t graph_fingerprint(const ProductGraph& pg);

/// Records the full unit-key schedule of sort_product_network with the
/// given S2 backend.  No input data is needed: the algorithm is
/// data-oblivious, so the machine runs on iota keys and the schedule is
/// the same for every input (tests verify this by recording twice with
/// different keys and comparing canonical hashes).
[[nodiscard]] ScheduleIR record_product_schedule(const ProductGraph& pg,
                                                 const S2Sorter& s2);

/// Records the merge-split schedule of sort_block_network.  The pair
/// schedule doubles as a unit-key comparator schedule: by the classical
/// block-sorting lemma (Knuth 5.3.4), 0-1 certifying it at unit
/// granularity certifies the block sort.
[[nodiscard]] ScheduleIR record_block_schedule(const ProductGraph& pg,
                                               const BlockS2Sorter& s2,
                                               int block_size);

/// Replays a recorded unit-key schedule on `machine` phase by phase
/// (including empty phases, which still charge their hop — pruning
/// removes them, which is exactly the measured step saving).
void apply_schedule(Machine& machine, const ScheduleIR& ir);

}  // namespace prodsort

#include "staticcheck/dataflow.hpp"

#include <algorithm>
#include <stdexcept>

namespace prodsort {

namespace {

// Ordered-pair relation domain over wires.  Bit v of row u means
// value(u) <= value(v) is guaranteed at the current program point.
class Relation {
 public:
  explicit Relation(int width)
      : width_(width),
        words_(static_cast<std::size_t>((width + 63) / 64)),
        bits_(static_cast<std::size_t>(width) * words_, 0) {
    for (int u = 0; u < width; ++u) set(u, u);  // reflexivity
  }

  [[nodiscard]] bool test(int u, int v) const {
    return (row(u)[static_cast<std::size_t>(v) / 64] >>
            (static_cast<unsigned>(v) % 64)) &
           1u;
  }

  /// Applies comparator (lo, hi): min lands on lo, max on hi.  Returns
  /// true when the relation already implied value(lo) <= value(hi) —
  /// the comparator is the identity map and provably never exchanges.
  bool apply(int lo, int hi) {
    if (test(lo, hi)) return true;
    // Rows (facts "lo/hi <= third wire v"): min <= v iff either input
    // was, max <= v iff both were.
    std::uint64_t* rl = row(lo);
    std::uint64_t* rh = row(hi);
    for (std::size_t w = 0; w < words_; ++w) {
      const std::uint64_t a = rl[w];
      const std::uint64_t b = rh[w];
      rl[w] = a | b;
      rh[w] = a & b;
    }
    // Columns (facts "third wire c <= lo/hi"): c <= min iff c was below
    // both, c <= max iff below either.
    for (int c = 0; c < width_; ++c) {
      if (c == lo || c == hi) continue;
      const bool below_lo = test(c, lo);
      const bool below_hi = test(c, hi);
      assign(c, lo, below_lo && below_hi);
      assign(c, hi, below_lo || below_hi);
    }
    // The four internal entries, from pre-comparator facts: reflexivity,
    // min <= max always, and max <= min only under known equality —
    // which needs lo<=hi known, and we returned early in that case.
    set(lo, lo);
    set(hi, hi);
    set(lo, hi);
    assign(hi, lo, false);
    return false;
  }

 private:
  [[nodiscard]] std::uint64_t* row(int u) {
    return bits_.data() + static_cast<std::size_t>(u) * words_;
  }
  [[nodiscard]] const std::uint64_t* row(int u) const {
    return bits_.data() + static_cast<std::size_t>(u) * words_;
  }
  void set(int u, int v) {
    row(u)[static_cast<std::size_t>(v) / 64] |=
        std::uint64_t{1} << (static_cast<unsigned>(v) % 64);
  }
  void assign(int u, int v, bool value) {
    std::uint64_t& word = row(u)[static_cast<std::size_t>(v) / 64];
    const std::uint64_t mask = std::uint64_t{1}
                               << (static_cast<unsigned>(v) % 64);
    word = value ? word | mask : word & ~mask;
  }

  int width_;
  std::size_t words_;
  std::vector<std::uint64_t> bits_;
};

}  // namespace

DataflowReport analyze_dataflow(const LoweredSchedule& lowered,
                                const ScheduleIR& ir,
                                const DataflowOptions& options) {
  if (static_cast<std::int64_t>(lowered.comparators.size()) !=
      ir.total_pairs())
    throw std::invalid_argument(
        "analyze_dataflow: lowering does not match schedule");

  DataflowReport report;
  report.schedule_hash = ir.canonical_hash();
  report.comparators = static_cast<std::int64_t>(lowered.comparators.size());
  report.dead.assign(lowered.comparators.size(), 0);
  report.phase_count = static_cast<int>(ir.phases().size());

  // Relation-domain deadness (sound for any width, incomplete).
  if (lowered.width <= options.max_relation_width) {
    report.relation_ran = true;
    Relation relation(lowered.width);
    for (std::size_t k = 0; k < lowered.comparators.size(); ++k) {
      const Comparator& cmp = lowered.comparators[k];
      if (relation.apply(cmp.low, cmp.high)) {
        report.dead[k] = 1;
        ++report.dead_by_relation;
      }
    }
  }

  // Exact 0-1 deadness: only an exhaustive certified pass proves
  // anything (a sampled run can miss the one input that fires).
  if (options.run_zero_one &&
      lowered.width <= options.zero_one.max_exhaustive_width) {
    const ComparatorActivity activity = certify_comparators_zero_one(
        lowered.width, lowered.comparators, std::int64_t{1} << lowered.width,
        options.zero_one.seed);
    if (activity.cert.certified() && activity.cert.exhaustive) {
      report.dead_exact = true;
      for (std::size_t k = 0; k < activity.fired.size(); ++k) {
        if (activity.fired[k] == 0) {
          report.dead[k] = 1;
          ++report.dead_by_zero_one;
        }
      }
    }
  }

  // Projected prune saving: hops of phases that end up empty.
  {
    std::size_t k = 0;
    for (const SchedulePhase phase : ir.phases()) {
      std::size_t live = 0;
      for (std::size_t i = 0; i < phase.pairs.size(); ++i, ++k)
        live += report.dead[k] == 0;
      if (live == 0) report.saved_steps_prune += phase.hop_distance;
    }
  }

  // Fusion: adjacent phases over disjoint processor sets could issue in
  // one synchronous step (greedy non-overlapping left-to-right scan).
  {
    std::vector<std::int64_t> stamp(static_cast<std::size_t>(ir.num_nodes),
                                    -1);
    for (std::int64_t p = 0;
         p + 1 < static_cast<std::int64_t>(ir.phases().size()); ++p) {
      const SchedulePhase a = ir.phase(static_cast<std::size_t>(p));
      const SchedulePhase b = ir.phase(static_cast<std::size_t>(p + 1));
      for (const CEPair& pair : a.pairs) {
        stamp[static_cast<std::size_t>(pair.low)] = p;
        stamp[static_cast<std::size_t>(pair.high)] = p;
      }
      bool disjoint = true;
      for (const CEPair& pair : b.pairs) {
        if (stamp[static_cast<std::size_t>(pair.low)] == p ||
            stamp[static_cast<std::size_t>(pair.high)] == p) {
          disjoint = false;
          break;
        }
      }
      if (disjoint) {
        const int saved = std::min(a.hop_distance, b.hop_distance);
        report.fusions.push_back({p, saved});
        report.saved_steps_fusion += saved;
        ++p;  // the fused pair is consumed; keep candidates disjoint
      }
    }
  }

  // Critical path: ASAP comparator levels over wire dependencies.
  {
    std::vector<int> depth(static_cast<std::size_t>(lowered.width), 0);
    for (const Comparator& cmp : lowered.comparators) {
      const int d = std::max(depth[static_cast<std::size_t>(cmp.low)],
                             depth[static_cast<std::size_t>(cmp.high)]) +
                    1;
      depth[static_cast<std::size_t>(cmp.low)] = d;
      depth[static_cast<std::size_t>(cmp.high)] = d;
      report.critical_path = std::max(report.critical_path, d);
    }
    report.slack = report.phase_count - report.critical_path;
  }

  return report;
}

ScheduleIR prune_schedule(const ScheduleIR& ir,
                          const std::vector<std::uint8_t>& dead) {
  if (static_cast<std::int64_t>(dead.size()) != ir.total_pairs())
    throw std::invalid_argument(
        "prune_schedule: dead flags do not match schedule");

  ScheduleIR out;
  out.topology = ir.topology;
  out.sorter = ir.sorter;
  out.num_nodes = ir.num_nodes;
  out.radix = ir.radix;
  out.dims = ir.dims;
  out.block_size = ir.block_size;

  std::size_t k = 0;
  std::vector<CEPair> live;
  for (SchedulePhase phase : ir.phases()) {
    live.clear();
    for (const CEPair& pair : phase.pairs) {
      if (dead[k++] == 0) live.push_back(pair);
    }
    if (live.empty()) continue;
    phase.pairs = live;
    out.add_phase(phase);
  }
  return out;
}

}  // namespace prodsort

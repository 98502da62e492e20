#include "analysis/step_auditor.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/hashing.hpp"

namespace prodsort {

StepAuditor::StepAuditor(const ProductGraph& pg, AuditorConfig config)
    : config_(config),
      discipline_(pg, config.allow_cross_dimension, "StepAuditor") {}

void StepAuditor::reset() {
  stats_ = AuditorStats{};
  violations_.clear();
  violation_count_ = 0;
  replay_pending_ = false;
}

void StepAuditor::report(Violation violation) {
  ++violation_count_;
  if (violations_.size() < kMaxRecorded) violations_.push_back(violation);
  if (config_.throw_on_violation)
    throw std::logic_error("StepAuditor: " + violation.message);
}

void StepAuditor::before_phase(std::span<const Key> keys,
                               std::span<const CEPair> pairs, int hop_distance,
                               int block_size, bool faulty) {
  ++stats_.phases;
  stats_.pairs += static_cast<std::int64_t>(pairs.size());
  if (faulty) ++stats_.faulty_phases;

  // Lockstep replay cannot reproduce fault-model decisions; skip it for
  // perturbed phases and account the lost coverage in replay_skipped.
  if (config_.check_lockstep && faulty) ++stats_.replay_skipped;
  replay_pending_ = config_.check_lockstep && !faulty;
  if (replay_pending_) {
    snapshot_.assign(keys.begin(), keys.end());
    pending_pairs_ = pairs;
    pending_block_size_ = block_size;
  }

  // A memory finding names the processor its overlapping-pair finding
  // already reports, so only the disjointness and locality ones count.
  discipline_.check(stats_.phases - 1, pairs, hop_distance,
                    stats_.max_resident_values,
                    [this](PhaseProperty property, Violation violation) {
                      if (property != PhaseProperty::kMemory)
                        report(std::move(violation));
                    });
}

void StepAuditor::after_phase(std::span<const Key> keys) {
  if (!replay_pending_) return;
  replay_pending_ = false;
  ++stats_.lockstep_replays;
  std::optional<Violation> divergence =
      lockstep_compare(snapshot_, pending_pairs_, pending_block_size_, keys);
  if (divergence.has_value()) {
    divergence->phase = stats_.phases - 1;
    divergence->message = "phase " + std::to_string(divergence->phase) + ": " +
                          divergence->message;
    report(*divergence);
  }
}

std::uint64_t StepAuditor::hash_keys(std::span<const Key> keys) {
  std::uint64_t h = 0x70726f64736f7274ULL;  // "prodsort"
  for (const Key k : keys) h = mix64(h, static_cast<std::uint64_t>(k));
  return h;
}

std::optional<Violation> StepAuditor::lockstep_compare(
    std::span<const Key> before, std::span<const CEPair> pairs, int block_size,
    std::span<const Key> after) const {
  if (before.size() != after.size())
    throw std::invalid_argument("lockstep_compare: size mismatch");
  std::vector<Key> replay(before.begin(), before.end());
  const std::size_t b = static_cast<std::size_t>(block_size);
  std::vector<Key> merged(2 * b);
  for (const CEPair& p : pairs) {
    if (block_size == 1) {
      Key& low = replay[static_cast<std::size_t>(p.low)];
      Key& high = replay[static_cast<std::size_t>(p.high)];
      if (low > high) std::swap(low, high);
    } else {
      const std::span<Key> low{replay.data() + static_cast<std::size_t>(p.low) * b, b};
      const std::span<Key> high{replay.data() + static_cast<std::size_t>(p.high) * b, b};
      if (low.back() <= high.front()) continue;
      std::merge(low.begin(), low.end(), high.begin(), high.end(),
                 merged.begin());
      std::copy(merged.begin(), merged.begin() + static_cast<std::ptrdiff_t>(b),
                low.begin());
      std::copy(merged.begin() + static_cast<std::ptrdiff_t>(b), merged.end(),
                high.begin());
    }
  }

  const std::uint64_t parallel_hash = hash_keys(after);
  const std::uint64_t serial_hash = hash_keys(replay);
  if (parallel_hash == serial_hash) return std::nullopt;

  // Divergence: name the first divergent node and the write-set overlap
  // (nodes written by more than one pair — the usual culprit).
  PNode first_divergent = -1;
  for (std::size_t i = 0; i < replay.size(); ++i) {
    if (replay[i] != after[i]) {
      first_divergent = static_cast<PNode>(i / b);
      break;
    }
  }
  std::vector<int> writes(before.size() / b, 0);
  std::string overlap;
  int overlapping = 0;
  for (const CEPair& p : pairs) {
    for (const PNode node : {p.low, p.high}) {
      if (++writes[static_cast<std::size_t>(node)] == 2) {
        if (overlapping < 8) {
          if (overlapping != 0) overlap += ',';
          overlap += std::to_string(node);
        }
        ++overlapping;
      }
    }
  }
  if (overlapping > 8) overlap += ",...";

  Violation v;
  v.kind = ViolationKind::kLockstepDivergence;
  v.node = first_divergent;
  v.expected = 0;
  v.observed = overlapping;
  v.message =
      "lockstep divergence (parallel hash " + std::to_string(parallel_hash) +
      " != serial-replay hash " + std::to_string(serial_hash) +
      "); first divergent node " + std::to_string(first_divergent) +
      "; write-set overlap: " +
      (overlapping == 0 ? std::string("none") : overlap) + " (" +
      std::to_string(overlapping) + " nodes written twice)";
  return v;
}

}  // namespace prodsort

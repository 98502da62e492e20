#include "network/block_machine.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "core/key_sort.hpp"
#include "product/snake_order.hpp"

namespace prodsort {

BlockMachine::BlockMachine(const ProductGraph& pg, std::vector<Key> keys,
                           int block_size, ParallelExecutor* executor)
    : pg_(&pg),
      block_size_(block_size),
      keys_(std::move(keys)),
      executor_(executor) {
  if (block_size < 1) throw std::invalid_argument("block size must be >= 1");
  if (static_cast<PNode>(keys_.size()) !=
      pg.num_nodes() * static_cast<PNode>(block_size))
    throw std::invalid_argument("need block_size keys per processor");
}

std::span<const Key> BlockMachine::block(PNode node) const {
  return {keys_.data() + static_cast<std::size_t>(node) * block_size_,
          static_cast<std::size_t>(block_size_)};
}

std::span<Key> BlockMachine::mutable_block(PNode node) {
  return {keys_.data() + static_cast<std::size_t>(node) * block_size_,
          static_cast<std::size_t>(block_size_)};
}

void BlockMachine::sort_local_blocks() {
  auto body = [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t v = begin; v < end; ++v) {
      sort_block_keys(mutable_block(v));
    }
  };
  if (executor_ != nullptr)
    executor_->parallel_for(pg_->num_nodes(), body);
  else
    body(0, pg_->num_nodes());
  // One parallel phase of purely local work: b time units of step
  // charge, one comparison unit per key of work charge.
  cost_.exec_steps += block_size_;
  cost_.comparisons += pg_->num_nodes() * static_cast<PNode>(block_size_);
}

void BlockMachine::merge_split_step(std::span<const CEPair> pairs,
                                    int hop_distance) {
  // One fault-clock phase per synchronous merge-split step, mirroring
  // Machine: counting alone never perturbs results.
  const std::int64_t step = faults_ != nullptr ? fault_step_++ : 0;
  const bool perturbed = faults_ != nullptr && faults_->has_comparator_faults();
  if (observer_ != nullptr)
    observer_->before_phase(keys_, pairs, hop_distance, block_size_,
                            perturbed);
  const StepComparatorFaults comparators =
      perturbed ? faults_->comparator_faults(step) : StepComparatorFaults{};

  std::atomic<std::int64_t> moved{0};
  std::atomic<std::int64_t> comp_faults{0};
  auto body = [&](std::int64_t begin, std::int64_t end) {
    std::int64_t local_moved = 0;
    std::int64_t local_comp = 0;
    std::vector<Key> merged(2 * static_cast<std::size_t>(block_size_));
    // Merges two blocks and hands the smaller half to `lower`.
    const auto split = [&](std::span<Key> lower, std::span<Key> upper) {
      std::merge(lower.begin(), lower.end(), upper.begin(), upper.end(),
                 merged.begin());
      const auto half =
          merged.begin() + static_cast<std::ptrdiff_t>(block_size_);
      std::copy(merged.begin(), half, lower.begin());
      std::copy(half, merged.end(), upper.begin());
      ++local_moved;
    };
    for (std::int64_t i = begin; i < end; ++i) {
      const CEPair& p = pairs[static_cast<std::size_t>(i)];
      auto low = mutable_block(p.low);
      auto high = mutable_block(p.high);

      // A silently-broken comparator at either endpoint hijacks the
      // whole merge-split (lower node wins when both are faulty), the
      // block analogue of the single-key fault semantics.
      if (const ComparatorFault* cf = comparators.hit(p.low, p.high)) {
        ++local_comp;
        switch (cf->kind) {
          case ComparatorFaultKind::kStuckPassThrough:
            break;  // the merge-split silently never happens
          case ComparatorFaultKind::kInverted:
            // The split comes out backwards: the low side keeps the
            // *larger* half.  Both blocks stay internally ascending, so
            // downstream merge-splits keep well-formed inputs — only
            // the block-to-block order is wrong (multiset preserved,
            // hence repairable).
            if (low.front() < high.back()) split(high, low);
            break;
          case ComparatorFaultKind::kArbitrary: {
            // Correct merge-split, then a burst of the faulty node's
            // keys decays to deterministic garbage.  The node's local
            // sort logic still works — only its comparator link is
            // broken — so its block is re-sorted in place, keeping the
            // internal-sortedness invariant merge-split needs.
            if (low.back() > high.front()) split(low, high);
            auto victim = cf->node == p.low ? low : high;
            const int burst = std::min(cf->burst, block_size_);
            for (int j = 0; j < burst; ++j)
              victim[static_cast<std::size_t>(j)] =
                  faults_->comparator_garbage(
                      cf->node, step,
                      i * static_cast<std::int64_t>(block_size_) + j);
            sort_block_keys(victim);
            break;
          }
        }
        continue;
      }
      // Otherwise a pair already split correctly stays put.
      if (low.back() > high.front()) split(low, high);
    }
    moved.fetch_add(local_moved, std::memory_order_relaxed);
    comp_faults.fetch_add(local_comp, std::memory_order_relaxed);
  };
  if (executor_ != nullptr)
    executor_->parallel_for(static_cast<std::int64_t>(pairs.size()), body);
  else
    body(0, static_cast<std::int64_t>(pairs.size()));

  cost_.exec_steps += hop_distance + block_size_ - 1;  // pipelined transfer
  cost_.comparisons +=
      static_cast<std::int64_t>(pairs.size()) * 2 * block_size_;
  cost_.exchanges += moved.load(std::memory_order_relaxed);
  if (faults_ != nullptr)
    faults_->counters().comparator_faults +=
        comp_faults.load(std::memory_order_relaxed);

  if (observer_ != nullptr) observer_->after_phase(keys_);
}

std::vector<Key> BlockMachine::read_snake(const ViewSpec& view) const {
  const PNode size = view_size(*pg_, view);
  std::vector<Key> out;
  out.reserve(static_cast<std::size_t>(size) * block_size_);
  for (PNode rank = 0; rank < size; ++rank) {
    const auto blk = block(view_node_at_snake_rank(*pg_, view, rank));
    out.insert(out.end(), blk.begin(), blk.end());
  }
  return out;
}

bool BlockMachine::snake_sorted(const ViewSpec& view, bool descending) const {
  const PNode size = view_size(*pg_, view);
  std::span<const Key> prev;
  for (PNode rank = 0; rank < size; ++rank) {
    const auto blk = block(view_node_at_snake_rank(*pg_, view, rank));
    if (!std::is_sorted(blk.begin(), blk.end())) return false;
    if (rank > 0) {
      // Ascending: previous block's max <= this block's min; descending:
      // previous block's min >= this block's max (blocks themselves stay
      // internally ascending).
      if (descending ? prev.front() < blk.back() : prev.back() > blk.front())
        return false;
    }
    prev = blk;
  }
  return true;
}

}  // namespace prodsort

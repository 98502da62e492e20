#pragma once

// Block-mode driver: the Section 4 algorithm on a BlockMachine, sorting
// b * N^r keys on N^r processors.  The schedule is identical to
// sort_product_network — the block-sorting lemma guarantees correctness
// once compare-exchange becomes merge-split and the S2 primitive becomes
// a block-granular snake sorter (see network/block_machine.hpp).
//
// Time scales by the block factor: every transposition phase moves b
// keys (hop + b - 1 pipelined), and S2 phases cost S2(N) merge-split
// rounds of b keys each; the phase *counts* stay exactly Theorem 1's
// (r-1)^2 and (r-1)(r-2).
//
// The executable block sorters replay the unit sorters' lockstep passes
// (shearsort_passes, snake_pass) with merge-split steps: each pass's two
// pair sets are built once per S2 phase, so unit and block mode execute
// the same pairs.

#include <memory>
#include <string>

#include "core/complexity.hpp"
#include "core/product_sort.hpp"  // PhaseRecord
#include "network/block_machine.hpp"

namespace prodsort {

/// S2 primitive at block granularity: sorts each 2-D view so that blocks
/// read along the view's snake are globally ordered (each block staying
/// internally ascending); `descending[i]` flips the block-to-block order
/// of view i.
class BlockS2Sorter {
 public:
  virtual ~BlockS2Sorter() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  /// Analytic phase cost in the block time unit.
  [[nodiscard]] virtual double phase_cost(const LabeledFactor& factor,
                                          int block_size) const {
    return factor.s2_cost * block_size;
  }
  virtual void sort_views(BlockMachine& machine,
                          std::span<const ViewSpec> views,
                          const std::vector<bool>& descending) const = 0;
};

/// Oracle block sorter: gathers each view's b*N^2 keys along the snake,
/// sorts, scatters back in b-key runs.  Models the best 2-D sorter at
/// block granularity; charges factor.s2_cost * b.
class BlockOracleS2 final : public BlockS2Sorter {
 public:
  [[nodiscard]] std::string name() const override { return "block-oracle"; }
  void sort_views(BlockMachine& machine, std::span<const ViewSpec> views,
                  const std::vector<bool>& descending) const override;
};

/// Executable block sorter: odd-even transposition along the view snake
/// with merge-split steps (N^2 phases).  The block analog of SnakeOETS2.
class BlockSnakeOETS2 final : public BlockS2Sorter {
 public:
  [[nodiscard]] std::string name() const override { return "block-snake-oet"; }
  [[nodiscard]] double phase_cost(const LabeledFactor& factor,
                                  int block_size) const override {
    const double n = factor.size();
    return n * n * (factor.dilation + block_size - 1.0);
  }
  void sort_views(BlockMachine& machine, std::span<const ViewSpec> views,
                  const std::vector<bool>& descending) const override;
};

/// Executable block sorter: shearsort over the N x N block layout with
/// merge-split row/column passes (O(N log N) phases).  The block analog
/// of ShearsortS2.
class BlockShearsortS2 final : public BlockS2Sorter {
 public:
  [[nodiscard]] std::string name() const override { return "block-shearsort"; }
  [[nodiscard]] double phase_cost(const LabeledFactor& factor,
                                  int block_size) const override;
  void sort_views(BlockMachine& machine, std::span<const ViewSpec> views,
                  const std::vector<bool>& descending) const override;
};

struct BlockSortOptions {
  const BlockS2Sorter* s2 = nullptr;  ///< default: BlockOracleS2
  bool validate_levels = false;
  /// If set, every phase is appended here (same schedule as unit mode).
  std::vector<PhaseRecord>* trace = nullptr;
};

struct BlockSortReport {
  CostModel cost;
  ComplexityPrediction predicted;  ///< phase counts as in Theorem 1
};

/// Sorts block_size * N^r keys into snake order (blocks along the snake,
/// each internally ascending).  Requires r >= 2.  Local blocks are
/// sorted first (sort_local_blocks), then the Section 3.3 schedule runs.
BlockSortReport sort_block_network(BlockMachine& machine,
                                   const BlockSortOptions& options = {});

}  // namespace prodsort

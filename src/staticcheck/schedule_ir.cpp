#include "staticcheck/schedule_ir.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "core/block_sort.hpp"
#include "core/hashing.hpp"
#include "core/product_sort.hpp"

namespace prodsort {

void ScheduleIR::add_phase(const SchedulePhase& phase) {
  steps_.push_back({pairs_.size(), phase.pairs.size(), phase.hop_distance,
                    phase.dim, phase.faulty, phase.tmr});
  pairs_.insert(pairs_.end(), phase.pairs.begin(), phase.pairs.end());
}

bool ScheduleIR::any_faulty() const {
  return std::ranges::any_of(steps_, &Step::faulty);
}

bool ScheduleIR::any_tmr() const {
  return std::ranges::any_of(steps_, &Step::tmr);
}

std::uint64_t ScheduleIR::canonical_hash() const {
  std::uint64_t h = mix64(mix64(0x7374617469634952ULL,  // "staticIR"
                                static_cast<std::uint64_t>(num_nodes)),
                          static_cast<std::uint64_t>(block_size));
  for (const SchedulePhase phase : phases()) {
    h = mix64(h, static_cast<std::uint64_t>(phase.hop_distance));
    h = mix64(h, phase.pairs.size());
    for (const CEPair& p : phase.pairs) {
      h = mix64(h, static_cast<std::uint64_t>(p.low));
      h = mix64(h, static_cast<std::uint64_t>(p.high));
    }
  }
  return h;
}

ScheduleRecorder::ScheduleRecorder(const ProductGraph& pg, PhaseObserver* next,
                                   std::size_t max_pairs)
    : pg_(&pg), next_(next), max_pairs_(max_pairs) {
  ir_.num_nodes = pg.num_nodes();
  ir_.radix = pg.radix();
  ir_.dims = pg.dims();
}

void ScheduleRecorder::on_tmr_phase() {
  tmr_pending_ = true;
  if (next_ != nullptr) next_->on_tmr_phase();
}

void ScheduleRecorder::before_phase(std::span<const Key> keys,
                                    std::span<const CEPair> pairs,
                                    int hop_distance, int block_size,
                                    bool faulty) {
  if (next_ != nullptr)
    next_->before_phase(keys, pairs, hop_distance, block_size, faulty);
  if (overflowed_ ||
      pairs.size() > max_pairs_ - static_cast<std::size_t>(ir_.total_pairs())) {
    overflowed_ = true;
    tmr_pending_ = false;
    return;
  }

  // Dimension tag: the one dimension every pair differs in, else 0.
  const int dims = pg_->dims();
  int tag = 0;
  for (const CEPair& p : pairs) {
    int differing = 0;
    int dim = 0;
    for (int d = 1; d <= dims; ++d) {
      if (pg_->digit(p.low, d) != pg_->digit(p.high, d)) {
        ++differing;
        dim = d;
      }
    }
    if (differing != 1 || (tag != 0 && tag != dim)) {
      tag = 0;
      break;
    }
    tag = dim;
  }

  ir_.block_size = block_size;
  ir_.add_phase({pairs, hop_distance, tag, faulty, tmr_pending_});
  tmr_pending_ = false;
}

void ScheduleRecorder::after_phase(std::span<const Key> keys) {
  if (next_ != nullptr) next_->after_phase(keys);
}

ScheduleIR ScheduleRecorder::take() {
  ScheduleIR out = std::move(ir_);
  ir_ = ScheduleIR{};
  overflowed_ = false;
  ir_.num_nodes = pg_->num_nodes();
  ir_.radix = pg_->radix();
  ir_.dims = pg_->dims();
  return out;
}

namespace {

std::string topology_label(const ProductGraph& pg) {
  return pg.factor().name + "^" + std::to_string(pg.dims());
}

}  // namespace

std::uint64_t graph_fingerprint(const ProductGraph& pg) {
  std::uint64_t h = mix64(0x746f706f6c6f6779ULL,  // "topology"
                          static_cast<std::uint64_t>(pg.radix()));
  h = mix64(h, static_cast<std::uint64_t>(pg.dims()));
  for (const char c : pg.factor().name)
    h = mix64(h, static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  return h;
}

ScheduleIR record_product_schedule(const ProductGraph& pg, const S2Sorter& s2) {
  std::vector<Key> keys(static_cast<std::size_t>(pg.num_nodes()));
  std::iota(keys.begin(), keys.end(), Key{0});
  Machine machine(pg, std::move(keys));
  ScheduleRecorder recorder(pg);
  machine.set_observer(&recorder);
  SortOptions options;
  options.s2 = &s2;
  (void)sort_product_network(machine, options);
  ScheduleIR ir = recorder.take();
  ir.topology = topology_label(pg);
  ir.sorter = s2.name();
  return ir;
}

ScheduleIR record_block_schedule(const ProductGraph& pg,
                                 const BlockS2Sorter& s2, int block_size) {
  std::vector<Key> keys(
      static_cast<std::size_t>(pg.num_nodes() * block_size));
  std::iota(keys.begin(), keys.end(), Key{0});
  BlockMachine machine(pg, std::move(keys), block_size);
  ScheduleRecorder recorder(pg);
  machine.set_observer(&recorder);
  BlockSortOptions options;
  options.s2 = &s2;
  (void)sort_block_network(machine, options);
  ScheduleIR ir = recorder.take();
  ir.topology = topology_label(pg);
  ir.sorter = s2.name();
  // The recorder only learns the block size from observed phases; pin
  // it even for empty schedules so the hash reflects the driver.
  ir.block_size = block_size;
  return ir;
}

void apply_schedule(Machine& machine, const ScheduleIR& ir) {
  if (machine.graph().num_nodes() != ir.num_nodes)
    throw std::invalid_argument("apply_schedule: machine/schedule size mismatch");
  for (const SchedulePhase phase : ir.phases())
    machine.compare_exchange_step(phase.pairs, phase.hop_distance);
}

}  // namespace prodsort

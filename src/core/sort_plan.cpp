#include "core/sort_plan.hpp"

#include <algorithm>
#include <stdexcept>

#include "product/snake_order.hpp"

namespace prodsort {

namespace {

// Tags every recorded step with its charge group: the trace already
// holds the group's PhaseRecord when the group's first step runs.
class StepGroups final : public PhaseObserver {
 public:
  StepGroups(const std::vector<PhaseRecord>& trace, PhaseObserver* next)
      : trace_(&trace), next_(next) {}

  [[nodiscard]] bool supersedes_validation() const override {
    return next_ != nullptr && next_->supersedes_validation();
  }
  void on_tmr_phase() override {
    if (next_ != nullptr) next_->on_tmr_phase();
  }
  void before_phase(std::span<const Key> keys, std::span<const CEPair> pairs,
                    int hop_distance, int block_size, bool faulty) override {
    if (next_ != nullptr)
      next_->before_phase(keys, pairs, hop_distance, block_size, faulty);
    group_of_step.push_back(trace_->size() - 1);
  }
  void after_phase(std::span<const Key> keys) override {
    if (next_ != nullptr) next_->after_phase(keys);
  }

  std::vector<std::size_t> group_of_step;

 private:
  const std::vector<PhaseRecord>* trace_;
  PhaseObserver* next_;
};

}  // namespace

std::unique_ptr<const SortPlan> SortPlan::record(Machine& machine,
                                                 const SortOptions& options) {
  if (options.s2 == nullptr || !options.s2->data_oblivious() ||
      machine.fault_model() != nullptr) {
    sort_product_network(machine, options);
    return nullptr;
  }

  const ProductGraph& pg = machine.graph();
  PhaseObserver* const attached = machine.observer();
  std::vector<PhaseRecord> trace;
  StepGroups groups(trace, attached);
  ScheduleRecorder recorder(pg, &groups, kMaxBytes / sizeof(CEPair));
  SortOptions recording = options;
  recording.trace = &trace;
  machine.set_observer(&recorder);
  try {
    sort_product_network(machine, recording);
  } catch (...) {
    machine.set_observer(attached);
    throw;
  }
  machine.set_observer(attached);
  if (options.trace != nullptr)
    options.trace->insert(options.trace->end(), trace.begin(), trace.end());
  if (recorder.overflowed()) return nullptr;

  std::unique_ptr<SortPlan> plan(new SortPlan(pg, *options.s2));
  plan->schedule_ = recorder.take();
  plan->groups_ = std::move(trace);
  plan->group_end_.assign(plan->groups_.size(), 0);
  for (std::size_t s = 0; s < groups.group_of_step.size(); ++s)
    plan->group_end_[groups.group_of_step[s]] = s + 1;
  // A group that issued no step ends where its predecessor did.
  for (std::size_t g = 1; g < plan->group_end_.size(); ++g)
    plan->group_end_[g] =
        std::max(plan->group_end_[g], plan->group_end_[g - 1]);

  const ViewSpec full = full_view(pg);
  plan->snake_.resize(static_cast<std::size_t>(pg.num_nodes()));
  for (PNode rank = 0; rank < pg.num_nodes(); ++rank)
    plan->snake_[static_cast<std::size_t>(rank)] =
        view_node_at_snake_rank(pg, full, rank);

  if (plan->bytes() > kMaxBytes) return nullptr;
  return plan;
}

SortReport SortPlan::replay(Machine& machine,
                            const SortOptions& options) const {
  if (&machine.graph() != pg_)
    throw std::invalid_argument(
        "sort plan replayed on a machine of another graph");
  CostModel& cost = machine.cost();
  std::size_t s = 0;
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    const PhaseRecord& group = groups_[g];
    if (group.kind == PhaseRecord::Kind::kS2Sort)
      cost.charge_s2_phase(group.weight);
    else
      cost.charge_routing_phase(group.weight);
    if (options.trace != nullptr) options.trace->push_back(group);
    for (; s < group_end_[g]; ++s) {
      const SchedulePhase step = schedule_.phase(s);
      machine.compare_exchange_step(step.pairs, step.hop_distance);
    }
  }

  SortReport report;
  report.cost = machine.cost();
  report.predicted = theorem1(pg_->factor(), pg_->dims());
  return report;
}

std::int64_t SortPlan::exec_steps() const {
  std::int64_t steps = 0;
  for (const SchedulePhase step : schedule_.phases())
    steps += step.hop_distance;
  return steps;
}

std::size_t SortPlan::bytes() const noexcept {
  return groups_.size() * sizeof(PhaseRecord) +
         group_end_.size() * sizeof(std::size_t) + schedule_.bytes() +
         snake_.size() * sizeof(PNode);
}

}  // namespace prodsort

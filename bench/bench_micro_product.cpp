// Experiment E12a: hot-path microbenchmarks (google-benchmark) — the
// addressing arithmetic and simulator primitives every phase relies on.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <random>

#include "core/s2/oracle_s2.hpp"
#include "core/s2/snake_oet_s2.hpp"
#include "core/sort_plan.hpp"
#include "network/fault_model.hpp"
#include "network/machine.hpp"
#include "product/snake_order.hpp"

namespace {

using namespace prodsort;

void BM_GrayTuple(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  const int r = static_cast<int>(state.range(1));
  const PNode total = pow_int(n, r);
  std::vector<NodeId> tuple(static_cast<std::size_t>(r));
  PNode rank = 0;
  for (auto _ : state) {
    gray_tuple(n, rank, tuple);
    benchmark::DoNotOptimize(tuple.data());
    rank = (rank + 1) % total;
  }
}
BENCHMARK(BM_GrayTuple)->Args({2, 20})->Args({4, 10})->Args({10, 6});

void BM_GrayRank(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  const int r = static_cast<int>(state.range(1));
  const PNode total = pow_int(n, r);
  std::vector<NodeId> tuple(static_cast<std::size_t>(r));
  PNode rank = 0;
  for (auto _ : state) {
    gray_tuple(n, rank, tuple);
    benchmark::DoNotOptimize(gray_rank(n, tuple));
    rank = (rank + 1) % total;
  }
}
BENCHMARK(BM_GrayRank)->Args({2, 20})->Args({4, 10})->Args({10, 6});

void BM_SnakeRankRoundTrip(benchmark::State& state) {
  const ProductGraph pg(labeled_path(static_cast<NodeId>(state.range(0))),
                        static_cast<int>(state.range(1)));
  PNode rank = 0;
  for (auto _ : state) {
    const PNode node = node_at_snake_rank(pg, rank);
    benchmark::DoNotOptimize(snake_rank(pg, node));
    rank = (rank + 1) % pg.num_nodes();
  }
}
BENCHMARK(BM_SnakeRankRoundTrip)->Args({4, 8})->Args({8, 5});

void BM_CompareExchangePhase(benchmark::State& state) {
  const ProductGraph pg(labeled_path(4), static_cast<int>(state.range(0)));
  Machine m(pg, std::vector<Key>(static_cast<std::size_t>(pg.num_nodes()), 1));
  std::vector<CEPair> pairs;
  for (PNode v = 0; v + 1 < pg.num_nodes(); v += 2) pairs.push_back({v, v + 1});
  for (auto _ : state) {
    m.compare_exchange_step(pairs);
    benchmark::DoNotOptimize(m.keys().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pairs.size()));
}
BENCHMARK(BM_CompareExchangePhase)->Arg(6)->Arg(8);

void BM_OracleS2Phase(benchmark::State& state) {
  const ProductGraph pg(labeled_path(static_cast<NodeId>(state.range(0))), 4);
  std::vector<Key> keys(static_cast<std::size_t>(pg.num_nodes()));
  std::mt19937 rng(1);
  for (Key& k : keys) k = static_cast<Key>(rng());
  Machine m(pg, std::move(keys));
  const OracleS2 oracle;
  const auto views = all_views(pg, 1, 2);
  const std::vector<bool> desc(views.size(), false);
  for (auto _ : state) {
    oracle.sort_views(m, views, desc);
    benchmark::DoNotOptimize(m.keys().data());
  }
  state.SetItemsProcessed(state.iterations() * pg.num_nodes());
}
BENCHMARK(BM_OracleS2Phase)->Arg(4)->Arg(8);

// The service's 64-key sort: the recorded cycle(4)^3 SnakeOETS2 plan
// replayed over 4,096 distinct random inputs, so the exchange outcomes
// are as unpredictable as on live jobs.  Arg 0 attaches no fault model,
// 1 a ce=0.002 drop coin, 2 the same coin under TMR voting.
void BM_PlanReplay64(benchmark::State& state) {
  const ProductGraph pg(labeled_cycle(4), 3);
  const auto n = static_cast<std::size_t>(pg.num_nodes());
  constexpr std::size_t kInputs = 4096;
  std::vector<Key> inputs(kInputs * n);
  std::mt19937_64 rng(1);
  for (Key& k : inputs) k = static_cast<Key>(rng());
  const SnakeOETS2 oet;
  SortOptions options;
  options.s2 = &oet;
  Machine m(pg, std::vector<Key>(n, 0));
  const auto plan = SortPlan::record(m, options);
  m.set_plan(plan.get());
  FaultConfig config;
  config.seed = 1;
  config.ce_drop_rate = 0.002;
  FaultModel fm(config);
  if (state.range(0) > 0) m.set_fault_model(&fm);
  m.set_tmr(state.range(0) == 2);
  std::size_t input = 0;
  for (auto _ : state) {
    std::copy_n(inputs.begin() + static_cast<std::ptrdiff_t>(input * n), n,
                m.mutable_keys().begin());
    m.reset_fault_clock();
    benchmark::DoNotOptimize(sort_product_network(m, options));
    benchmark::DoNotOptimize(m.keys().data());
    benchmark::ClobberMemory();
    input = (input + 1) % kInputs;
  }
  state.SetItemsProcessed(state.iterations() * pg.num_nodes());
  constexpr const char* kLabels[] = {"plain", "ce=0.002", "ce=0.002 tmr"};
  state.SetLabel(kLabels[state.range(0)]);
}
BENCHMARK(BM_PlanReplay64)->Arg(0)->Arg(1)->Arg(2);

}  // namespace

BENCHMARK_MAIN();

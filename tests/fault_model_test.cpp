#include "network/fault_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <type_traits>

#include "core/hashing.hpp"
#include "core/product_sort.hpp"
#include "core/s2/snake_oet_s2.hpp"
#include "graph/graph_algos.hpp"
#include "network/packet_sim.hpp"
#include "network/routing.hpp"
#include "product/snake_order.hpp"

namespace prodsort {
namespace {

std::vector<Key> random_keys(PNode count, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::vector<Key> keys(static_cast<std::size_t>(count));
  for (Key& k : keys) k = static_cast<Key>(rng() % 100000);
  return keys;
}

TEST(FaultModelTest, DecisionStreamsAreDeterministic) {
  FaultConfig config;
  config.seed = 42;
  config.packet_drop_rate = 0.25;
  config.ce_drop_rate = 0.25;
  config.key_corrupt_rate = 0.25;
  const FaultModel a(config);
  const FaultModel b(config);
  int hits = 0;
  for (std::int64_t step = 0; step < 200; ++step) {
    EXPECT_EQ(a.drop_packet(step, step % 7, 0), b.drop_packet(step, step % 7, 0));
    EXPECT_EQ(a.drop_compare_exchange(step, 3), b.drop_compare_exchange(step, 3));
    EXPECT_EQ(a.corrupt_key(step, 3), b.corrupt_key(step, 3));
    hits += a.drop_compare_exchange(step, 3);
  }
  // ~25% rate: statistically certain to hit at least once in 200 draws.
  EXPECT_GT(hits, 0);
  EXPECT_LT(hits, 200);

  config.seed = 43;
  const FaultModel c(config);
  int diffs = 0;
  for (std::int64_t step = 0; step < 200; ++step)
    diffs += a.drop_compare_exchange(step, 3) != c.drop_compare_exchange(step, 3);
  EXPECT_GT(diffs, 0);  // different seeds, different schedule
}

TEST(FaultModelTest, ZeroRatesNeverFire) {
  const FaultModel fm{FaultConfig{}};
  for (std::int64_t i = 0; i < 100; ++i) {
    EXPECT_FALSE(fm.drop_packet(i, 0, 0));
    EXPECT_FALSE(fm.drop_compare_exchange(i, i));
    EXPECT_FALSE(fm.corrupt_key(i, i));
  }
  EXPECT_FALSE(fm.perturbs_compute());
}

TEST(FaultModelTest, FailedLinksAreNonCutAndDeterministic) {
  for (const LabeledFactor& f : {labeled_petersen(), labeled_complete(6)}) {
    FaultConfig config;
    config.seed = 7;
    config.failed_links = 2;
    FaultModel fm(config);
    fm.fail_links(f.graph);
    EXPECT_EQ(fm.failed_edges().size(), 2u) << f.name;

    Graph pruned(f.graph.num_nodes());
    for (const auto& [a, b] : f.graph.edges())
      if (!fm.link_failed(a, b)) pruned.add_edge(a, b);
    EXPECT_TRUE(is_connected(pruned)) << f.name;

    FaultModel fm2(config);
    fm2.fail_links(f.graph);
    EXPECT_EQ(fm.failed_edges(), fm2.failed_edges()) << f.name;
  }
}

TEST(FaultModelTest, FailedLinkBudgetIsCappedByConnectivity) {
  // A cycle survives exactly one link failure: the second removal would
  // cut the ring, so the model must stop at one no matter the request.
  FaultConfig config;
  config.seed = 7;
  config.failed_links = 2;
  FaultModel fm(config);
  fm.fail_links(labeled_cycle(8).graph);
  EXPECT_EQ(fm.failed_edges().size(), 1u);
}

TEST(FaultModelTest, TreeHasNoNonCutLinks) {
  // Every edge of a tree is a cut edge: none can be failed safely.
  FaultConfig config;
  config.failed_links = 3;
  FaultModel fm(config);
  fm.fail_links(labeled_binary_tree(3).graph);
  EXPECT_TRUE(fm.failed_edges().empty());
}

TEST(FaultModelTest, StragglerSelectionIsExactAndDeterministic) {
  FaultConfig config;
  config.seed = 11;
  config.stragglers = 3;
  config.straggler_factor = 4;
  FaultModel fm(config);
  fm.select_stragglers(100);
  EXPECT_EQ(fm.straggler_nodes().size(), 3u);
  int count = 0;
  for (PNode v = 0; v < 100; ++v) count += fm.is_straggler(v);
  EXPECT_EQ(count, 3);

  FaultModel fm2(config);
  fm2.select_stragglers(100);
  EXPECT_EQ(fm.straggler_nodes(), fm2.straggler_nodes());
}

TEST(FaultModelTest, AttachedModelWithZeroRatesIsBitIdentical) {
  const ProductGraph pg(labeled_path(4), 3);
  const auto keys = random_keys(pg.num_nodes(), 5);
  const SnakeOETS2 oet;
  SortOptions options;
  options.s2 = &oet;

  Machine plain(pg, keys);
  (void)sort_product_network(plain, options);

  Machine faulty(pg, keys);
  FaultModel fm{FaultConfig{}};
  faulty.set_fault_model(&fm);
  (void)sort_product_network(faulty, options);

  EXPECT_TRUE(std::equal(plain.keys().begin(), plain.keys().end(),
                         faulty.keys().begin()));
  EXPECT_EQ(plain.cost().exec_steps, faulty.cost().exec_steps);
  EXPECT_EQ(plain.cost().comparisons, faulty.cost().comparisons);
  EXPECT_EQ(plain.cost().exchanges, faulty.cost().exchanges);
  EXPECT_EQ(faulty.cost().retries, 0);
  EXPECT_EQ(faulty.cost().degraded_phases, 0);
}

TEST(FaultModelTest, CeDropsAreCountedAndThreadCountInvariant) {
  const ProductGraph pg(labeled_path(4), 3);
  const auto keys = random_keys(pg.num_nodes(), 9);
  const SnakeOETS2 oet;
  SortOptions options;
  options.s2 = &oet;

  FaultConfig config;
  config.seed = 3;
  config.ce_drop_rate = 0.01;

  std::vector<Key> first_result;
  for (const int threads : {1, 4}) {
    ParallelExecutor exec(threads);
    Machine m(pg, keys, &exec);
    FaultModel fm(config);
    m.set_fault_model(&fm);
    (void)sort_product_network(m, options);
    EXPECT_GT(fm.counters().ce_drops, 0);
    EXPECT_EQ(m.cost().retries, fm.counters().ce_drops);
    EXPECT_GT(m.cost().degraded_phases, 0);
    const auto got = m.read_snake(full_view(pg));
    if (first_result.empty())
      first_result = got;
    else
      EXPECT_EQ(first_result, got);  // same faults for any thread count
  }
}

TEST(FaultModelTest, StragglerSlowdownChargesExecSteps) {
  const ProductGraph pg(labeled_path(4), 2);
  const auto keys = random_keys(pg.num_nodes(), 13);
  const SnakeOETS2 oet;
  SortOptions options;
  options.s2 = &oet;

  Machine plain(pg, keys);
  (void)sort_product_network(plain, options);

  FaultConfig config;
  config.stragglers = 1;
  config.straggler_factor = 4;
  FaultModel fm(config);
  fm.select_stragglers(pg.num_nodes());
  Machine slow(pg, keys);
  slow.set_fault_model(&fm);
  (void)sort_product_network(slow, options);

  // Straggler never perturbs results, only time.
  EXPECT_TRUE(std::equal(plain.keys().begin(), plain.keys().end(),
                         slow.keys().begin()));
  EXPECT_GT(slow.cost().exec_steps, plain.cost().exec_steps);
  EXPECT_LE(slow.cost().exec_steps, 4 * plain.cost().exec_steps);
  EXPECT_GT(fm.counters().straggler_phases, 0);
  EXPECT_EQ(slow.cost().degraded_phases, fm.counters().straggler_phases);
}

TEST(FaultModelTest, PacketSimRetriesDroppedTransmissions) {
  const LabeledFactor f = labeled_cycle(8);
  std::vector<NodeId> dest(8);
  for (NodeId v = 0; v < 8; ++v) dest[static_cast<std::size_t>(v)] = 7 - v;

  const PacketStats clean = simulate_permutation(f.graph, dest);

  FaultConfig config;
  config.seed = 21;
  config.packet_drop_rate = 0.2;
  FaultModel fm(config);
  const PacketStats faulty = simulate_permutation(f.graph, dest, &fm);
  EXPECT_GT(faulty.retries, 0);
  EXPECT_EQ(fm.counters().packet_drops, faulty.retries);
  EXPECT_GE(faulty.steps, clean.steps);  // drops only ever slow delivery
  EXPECT_EQ(faulty.total_hops, clean.total_hops);  // same paths, no reroute
}

TEST(FaultModelTest, PacketSimReroutesAroundFailedLinks) {
  // Rotation on a cycle: every packet's fault-free path is its direct
  // edge, so the packet whose edge failed must detour the long way.
  const LabeledFactor f = labeled_cycle(10);
  std::vector<NodeId> dest(10);
  for (NodeId v = 0; v < 10; ++v)
    dest[static_cast<std::size_t>(v)] = (v + 1) % 10;

  FaultConfig config;
  config.seed = 2;
  config.failed_links = 1;
  FaultModel fm(config);
  const PacketStats stats = simulate_permutation(f.graph, dest, &fm);
  EXPECT_EQ(fm.failed_edges().size(), 1u);
  EXPECT_EQ(stats.reroutes, 1);
  EXPECT_DOUBLE_EQ(stats.dilation, 9.0);  // 1-hop edge becomes the 9-hop arc
  EXPECT_GT(stats.steps, 0);  // still delivers everything
}

TEST(FaultModelTest, ProductPacketSimSurvivesFailedFactorLink) {
  const ProductGraph pg(labeled_cycle(6), 2);
  std::vector<PNode> dest(static_cast<std::size_t>(pg.num_nodes()));
  std::iota(dest.begin(), dest.end(), 0);
  std::mt19937 rng(37);
  std::shuffle(dest.begin(), dest.end(), rng);

  FaultConfig config;
  config.seed = 4;
  config.failed_links = 1;
  config.packet_drop_rate = 0.01;
  FaultModel fm(config);
  const PacketStats stats = simulate_product_permutation(pg, dest, &fm);
  EXPECT_GT(stats.steps, 0);
  EXPECT_GE(stats.dilation, 1.0);
}

TEST(FaultModelTest, RoutePermutationRetriesLostExchanges) {
  const LabeledFactor f = labeled_path(16);
  std::vector<NodeId> dest(16);
  for (NodeId v = 0; v < 16; ++v) dest[static_cast<std::size_t>(v)] = 15 - v;

  FaultConfig config;
  config.seed = 17;
  config.ce_drop_rate = 0.1;
  FaultModel fm(config);
  const RoutingResult result = route_permutation(f, dest, &fm);
  for (NodeId p = 0; p < 16; ++p)
    EXPECT_EQ(result.delivered[static_cast<std::size_t>(
                  dest[static_cast<std::size_t>(p)])],
              p);
  EXPECT_GT(result.retries, 0);
  EXPECT_GT(result.steps, (f.size() + 1) * f.dilation);  // paid extra phases
}

TEST(FaultModelTest, ScheduleStringIsMachineReadable) {
  FaultConfig config;
  config.seed = 5;
  config.packet_drop_rate = 1e-3;
  config.failed_links = 1;
  config.stragglers = 1;
  config.straggler_factor = 4;
  const FaultModel fm(config);
  const std::string s = fm.schedule_string();
  EXPECT_NE(s.find("seed=5"), std::string::npos);
  EXPECT_NE(s.find("drop=0.001"), std::string::npos);
  EXPECT_NE(s.find("links=1"), std::string::npos);
  EXPECT_NE(s.find("stragglers=1x4"), std::string::npos);
}

TEST(FaultModelTest, ScheduleStringRoundTripsThroughParse) {
  FaultConfig config;
  config.seed = 99;
  config.packet_drop_rate = 1e-3;
  config.ce_drop_rate = 2e-3;
  config.failed_links = 2;
  config.stragglers = 1;
  config.straggler_factor = 4;
  config.crash_schedule.push_back({.node = 3, .phase = 17, .permanent = false});
  config.crash_schedule.push_back({.node = 40, .phase = 200, .permanent = true});
  const FaultModel fm(config);
  EXPECT_EQ(FaultModel::parse_schedule_string(fm.schedule_string()), config);

  // No crashes: the field is omitted entirely and still round-trips.
  FaultConfig plain;
  plain.seed = 7;
  const FaultModel fm2(plain);
  EXPECT_EQ(FaultModel::parse_schedule_string(fm2.schedule_string()), plain);
}

TEST(FaultModelTest, ParseRejectsMalformedSchedules) {
  EXPECT_THROW(FaultModel::parse_schedule_string("bogus=1"),
               std::invalid_argument);
  EXPECT_THROW(FaultModel::parse_schedule_string("seed=notanumber"),
               std::invalid_argument);
  EXPECT_THROW(FaultModel::parse_schedule_string("seed=1,crashes=xyz"),
               std::invalid_argument);
}

// A corrupted or hand-truncated FAULT-REPRO line must fail as a named
// std::invalid_argument from the parser — never escape as the bare
// std::stod/std::stoi exception of an unguarded conversion.
TEST(FaultModelTest, ParseRejectsTruncatedAndJunkTokens) {
  const char* malformed[] = {
      "seed=abc",           // non-numeric
      "drop=",              // empty value
      "ce=0.0.1",           // trailing junk after a valid prefix
      "links=3seven",       // trailing junk on an integer
      "links=3x",           // straggler syntax on the wrong field
      "stragglers=1y4",     // bad CxF separator
      "stragglers=x4",      // missing count
      "crashes=3@",         // truncated node@phase
      "crashes=@5",         // missing node
      "crashes=3@17+",      // truncated schedule list
      "ce=1e999",           // out of range must surface the same way
      "seed=-1",            // negative seed cannot parse as uint64
  };
  for (const char* schedule : malformed) {
    try {
      (void)FaultModel::parse_schedule_string(schedule);
      FAIL() << "accepted malformed schedule: " << schedule;
    } catch (const std::invalid_argument& e) {
      // The message names the field and echoes the offending token.
      EXPECT_NE(std::string(e.what()).find("malformed schedule field"),
                std::string::npos)
          << schedule << " -> " << e.what();
    }
  }

  // Guarded parsing must not reject the documented format.
  EXPECT_NO_THROW(FaultModel::parse_schedule_string(
      "seed=5,drop=0.001,ce=0.001,corrupt=0,links=1,stragglers=1x4,"
      "crashes=3@17+40@200P"));
}

TEST(FaultModelTest, CrashEventsFireOnceAndResetRearms) {
  FaultConfig config;
  config.seed = 3;
  config.crash_schedule.push_back({.node = 2, .phase = 5, .permanent = false});
  config.crash_schedule.push_back({.node = 4, .phase = 5, .permanent = true});
  FaultModel fm(config);
  EXPECT_TRUE(fm.has_crashes());
  EXPECT_FALSE(fm.crash_due(4));
  EXPECT_TRUE(fm.crash_due(5));

  const auto first = fm.take_crash(5);
  const auto second = fm.take_crash(5);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_FALSE(fm.take_crash(5).has_value());  // each event fires once
  EXPECT_FALSE(fm.crash_due(5));
  EXPECT_EQ(fm.counters().crashes, 2);

  fm.kill(first->node);
  fm.kill(second->node);
  fm.kill(second->node);  // idempotent
  EXPECT_TRUE(fm.has_dead_nodes());
  EXPECT_TRUE(fm.is_dead(2));
  EXPECT_TRUE(fm.is_dead(4));
  EXPECT_EQ(fm.dead_nodes(), (std::vector<PNode>{2, 4}));

  fm.restart(2);
  EXPECT_FALSE(fm.is_dead(2));
  EXPECT_EQ(fm.dead_nodes(), (std::vector<PNode>{4}));

  // The garbage a crashed memory decays to is deterministic and differs
  // across (node, phase) — recovery provably never reads the lost key.
  EXPECT_EQ(fm.crash_garbage(2, 5), fm.crash_garbage(2, 5));
  EXPECT_NE(fm.crash_garbage(2, 5), fm.crash_garbage(4, 5));

  fm.reset();  // re-arms every event, revives every node
  EXPECT_FALSE(fm.has_dead_nodes());
  EXPECT_TRUE(fm.crash_due(5));
  EXPECT_EQ(fm.counters().crashes, 0);
}

// --- correlated faults: outage windows and crash bursts ------------------

TEST(FaultModelTest, OutageAndBurstScheduleStringRoundTrips) {
  FaultConfig config;
  config.seed = 77;
  config.outage_schedule.push_back({.from = 0, .until = 128});
  config.outage_schedule.push_back({.from = 512, .until = 700});
  config.burst_schedule.push_back({.count = 3, .phase = 9, .permanent = false});
  config.burst_schedule.push_back({.count = 1, .phase = 40, .permanent = true});
  const FaultModel fm(config);
  const std::string s = fm.schedule_string();
  EXPECT_NE(s.find("outages=0~128+512~700"), std::string::npos);
  EXPECT_NE(s.find("bursts=3@9+1@40P"), std::string::npos);
  EXPECT_EQ(FaultModel::parse_schedule_string(s), config);
}

TEST(FaultModelTest, OutageWindowsGateTheServiceClock) {
  FaultConfig config;
  config.outage_schedule.push_back({.from = 10, .until = 20});
  config.outage_schedule.push_back({.from = 15, .until = 40});  // overlaps
  const FaultModel fm(config);
  EXPECT_TRUE(fm.has_outages());
  EXPECT_FALSE(fm.outage_active(9));
  EXPECT_TRUE(fm.outage_active(10));   // from is inclusive
  EXPECT_TRUE(fm.outage_active(19));
  EXPECT_TRUE(fm.outage_active(39));
  EXPECT_FALSE(fm.outage_active(40));  // until is exclusive
  // Overlapping windows covering `now`: the latest until wins.
  EXPECT_EQ(fm.outage_until(16), 40);
  // Only [10,20) covers t=10 — the later window hasn't started yet (the
  // router re-checks at the wake-up tick and sees the second window).
  EXPECT_EQ(fm.outage_until(10), 20);
  EXPECT_EQ(fm.outage_until(99), 0);  // nothing active
}

TEST(FaultModelTest, BurstExpansionIsDeterministicAndCorrelated) {
  FaultConfig config;
  config.seed = 13;
  config.burst_schedule.push_back({.count = 4, .phase = 6, .permanent = true});
  FaultModel a(config);
  FaultModel b(config);
  a.expand_bursts(50);
  b.expand_bursts(50);
  // The whole point of a fault domain: every member sharing the
  // schedule loses the SAME seed-chosen victims.
  EXPECT_EQ(a.burst_crashes(), b.burst_crashes());
  ASSERT_EQ(a.burst_crashes().size(), 4u);
  std::vector<PNode> victims;
  for (const CrashEvent& e : a.burst_crashes()) {
    EXPECT_EQ(e.phase, 6);
    EXPECT_TRUE(e.permanent);
    victims.push_back(e.node);
  }
  std::sort(victims.begin(), victims.end());
  EXPECT_EQ(std::unique(victims.begin(), victims.end()), victims.end());

  // Expanded victims feed the ordinary crash machinery.
  EXPECT_TRUE(a.has_crashes());
  EXPECT_TRUE(a.crash_due(6));
  int fired = 0;
  while (a.take_crash(6).has_value()) ++fired;
  EXPECT_EQ(fired, 4);
  EXPECT_FALSE(a.crash_due(6));

  // reset() re-arms the fired events but keeps the expansion (it is a
  // pure function of the config).
  a.reset();
  EXPECT_EQ(a.burst_crashes().size(), 4u);
  EXPECT_TRUE(a.crash_due(6));
}

TEST(FaultModelTest, BurstVictimCountIsClampedToTheMachine) {
  FaultConfig config;
  config.seed = 5;
  config.burst_schedule.push_back({.count = 100, .phase = 2});
  FaultModel fm(config);
  fm.expand_bursts(8);
  EXPECT_EQ(fm.burst_crashes().size(), 8u);
}

TEST(FaultModelTest, RejectsInvalidOutageAndBurstConfig) {
  FaultConfig negative_start;
  negative_start.outage_schedule.push_back({.from = -1, .until = 5});
  EXPECT_THROW(FaultModel{negative_start}, std::invalid_argument);
  FaultConfig empty_window;
  empty_window.outage_schedule.push_back({.from = 5, .until = 5});
  EXPECT_THROW(FaultModel{empty_window}, std::invalid_argument);
  FaultConfig no_victims;
  no_victims.burst_schedule.push_back({.count = 0, .phase = 3});
  EXPECT_THROW(FaultModel{no_victims}, std::invalid_argument);
  FaultConfig negative_phase;
  negative_phase.burst_schedule.push_back({.count = 2, .phase = -1});
  EXPECT_THROW(FaultModel{negative_phase}, std::invalid_argument);
}

TEST(FaultModelTest, RejectsInvalidConfig) {
  FaultConfig bad;
  bad.straggler_factor = 0;
  EXPECT_THROW(FaultModel{bad}, std::invalid_argument);
  FaultConfig negative;
  negative.failed_links = -1;
  EXPECT_THROW(FaultModel{negative}, std::invalid_argument);
}

// The per-pair decision formula written out: four splitmix64 rounds over
// (seed, stream tag, step, pair, 0), tested against the rate.
bool written_out_coin(std::uint64_t seed, std::uint64_t tag, double rate,
                      std::int64_t step, std::int64_t pair) {
  std::uint64_t h = mix64(seed, tag);
  h = mix64(h, static_cast<std::uint64_t>(step));
  h = mix64(h, static_cast<std::uint64_t>(pair));
  h = mix64(h, 0);
  return rate > 0 && hash_to_unit(h) < rate;
}

// The per-step coins hoist the (seed, stream, step) hash prefix out of
// the pair loop; they and the per-call streams must answer exactly as
// the written-out formula does.
TEST(FaultDecisionEquivalence, StepCoinsMatchPerCallDecisions) {
  constexpr std::uint64_t kCeDropTag = 0x63656472;      // "cedr"
  constexpr std::uint64_t kKeyCorruptTag = 0x6b657963;  // "keyc"
  for (const std::uint64_t seed :
       {std::uint64_t{1}, std::uint64_t{7}, (std::uint64_t{1} << 63) + 5}) {
    for (const double rate : {0.0, 1e-3, 0.5, 1.0}) {
      FaultConfig config;
      config.seed = seed;
      config.ce_drop_rate = rate;
      config.key_corrupt_rate = rate;
      const FaultModel fm(config);
      std::int64_t mismatches = 0;
      std::int64_t drops = 0;
      for (std::int64_t step = 0; step <= 200; ++step) {
        const StepCoins coins = fm.step_coins(step);
        for (std::int64_t pair = 0; pair <= 4096; ++pair) {
          const bool drop =
              written_out_coin(seed, kCeDropTag, rate, step, pair);
          const bool corrupt =
              written_out_coin(seed, kKeyCorruptTag, rate, step, pair);
          mismatches += coins.drop(pair) != drop;
          mismatches += fm.drop_compare_exchange(step, pair) != drop;
          mismatches += coins.corrupt(pair) != corrupt;
          mismatches += fm.corrupt_key(step, pair) != corrupt;
          drops += drop;
        }
      }
      EXPECT_EQ(mismatches, 0) << "seed " << seed << " rate " << rate;
      // The streams really are live: rate 0 never fires, rate 1 always.
      const std::int64_t draws = 201 * 4097;
      if (rate == 0 || rate == 1) {
        EXPECT_EQ(drops, rate == 0 ? 0 : draws);
      } else {
        EXPECT_NEAR(static_cast<double>(drops) / draws, rate, 0.01);
      }
    }
  }
}

// Today's rule, written out: the first schedule entry covering
// (node, phase) is the node's fault.
const ComparatorFault* scheduled_fault(const FaultConfig& config, PNode node,
                                       std::int64_t phase) {
  for (const ComparatorFault& f : config.comparator_schedule)
    if (f.node == node && phase >= f.from_phase &&
        (f.until_phase == -1 || phase < f.until_phase))
      return &f;
  return nullptr;
}

TEST(FaultDecisionEquivalence, StepComparatorViewMatchesScheduleLookup) {
  using Kind = ComparatorFaultKind;
  FaultConfig config;
  config.seed = 3;
  config.comparator_schedule = {
      // Overlapping windows on node 2: the first entry wins on 5..9.
      {.node = 2, .from_phase = 5, .until_phase = 20, .kind = Kind::kInverted},
      {.node = 2, .from_phase = 0, .until_phase = 10,
       .kind = Kind::kStuckPassThrough},
      {.node = 2, .from_phase = 15, .until_phase = -1, .kind = Kind::kArbitrary,
       .burst = 3},
      // Adjacent windows on node 4.
      {.node = 4, .from_phase = 10, .until_phase = 20, .kind = Kind::kInverted},
      {.node = 4, .from_phase = 20, .until_phase = 30,
       .kind = Kind::kStuckPassThrough},
      // Permanent faults on nodes 5 and 6: pair (5, 6) has two faulty
      // endpoints.
      {.node = 5, .from_phase = 0, .until_phase = -1, .kind = Kind::kArbitrary,
       .burst = 2},
      {.node = 6, .from_phase = 25, .until_phase = -1,
       .kind = Kind::kInverted},
  };
  // A long tail of short, overlapping windows on nodes 8..15: the view
  // has no inline capacity to outgrow.
  std::mt19937_64 rng(5);
  for (int e = 0; e < 200; ++e) {
    const auto from = static_cast<std::int64_t>(rng() % 40);
    config.comparator_schedule.push_back(
        {.node = static_cast<PNode>(8 + rng() % 8),
         .from_phase = from,
         .until_phase = from + 1 + static_cast<std::int64_t>(rng() % 6),
         .kind = static_cast<Kind>(rng() % 3)});
  }
  const FaultModel fm(config);
  // The view borrows the schedule; it can own no heap buffer.
  static_assert(std::is_trivially_copyable_v<StepComparatorFaults>);
  // The earliest covering entry wins, and the pair's low endpoint wins.
  const std::vector<ComparatorFault>& schedule =
      fm.config().comparator_schedule;
  EXPECT_EQ(fm.comparator_faults(7).at(2), &schedule[0]);
  EXPECT_EQ(fm.comparator_faults(3).at(2), &schedule[1]);
  EXPECT_EQ(fm.comparator_faults(30).hit(5, 6), &schedule[5]);
  EXPECT_EQ(fm.comparator_faults(30).hit(6, 5), &schedule[6]);
  constexpr PNode kNodes = 16;
  for (std::int64_t phase = 0; phase < 50; ++phase) {
    const StepComparatorFaults view = fm.comparator_faults(phase);
    bool any = false;
    for (PNode node = 0; node < kNodes; ++node) {
      const ComparatorFault* want = scheduled_fault(config, node, phase);
      any = any || want != nullptr;
      if (want != nullptr) {
        ASSERT_NE(view.at(node), nullptr) << node << "@" << phase;
        EXPECT_EQ(*view.at(node), *want) << node << "@" << phase;
      } else {
        EXPECT_EQ(view.at(node), nullptr) << node << "@" << phase;
      }
      for (PNode partner = 0; partner < kNodes; ++partner) {
        if (partner == node) continue;
        const ComparatorFault* hit = view.hit(node, partner);
        const ComparatorFault* expected =
            want != nullptr ? want : scheduled_fault(config, partner, phase);
        ASSERT_EQ(hit == nullptr, expected == nullptr)
            << node << "," << partner << "@" << phase;
        if (hit == nullptr) continue;
        EXPECT_EQ(hit->kind, expected->kind);
        EXPECT_EQ(hit->node, expected->node);
        EXPECT_EQ(hit->burst, expected->burst);
      }
    }
    EXPECT_EQ(view.empty(), !any) << "phase " << phase;
  }
  EXPECT_TRUE(FaultModel{FaultConfig{}}.comparator_faults(0).empty());
}

// FaultCounters::decisions is the exact work count of the per-pair fault
// hashes: zero when no fault can fire, one coin per pair and stream
// otherwise.
std::int64_t sort_decisions(const FaultConfig& config, bool tmr,
                            CostModel* cost = nullptr) {
  const ProductGraph pg(labeled_cycle(4), 3);
  FaultModel fm(config);
  Machine m(pg, random_keys(pg.num_nodes(), 17));
  m.set_fault_model(&fm);
  m.set_tmr(tmr);
  const SnakeOETS2 oet;
  SortOptions options;
  options.s2 = &oet;
  (void)sort_product_network(m, options);
  if (cost != nullptr) *cost = m.cost();
  return fm.counters().decisions;
}

TEST(FaultDecisionWork, ZeroRatesHashNothing) {
  FaultConfig quiet;
  quiet.seed = 9;
  quiet.stragglers = 2;
  quiet.straggler_factor = 3;
  EXPECT_EQ(sort_decisions(FaultConfig{}, false), 0);
  EXPECT_EQ(sort_decisions(FaultConfig{}, true), 0);
  EXPECT_EQ(sort_decisions(quiet, false), 0);
  EXPECT_EQ(sort_decisions(quiet, true), 0);
}

TEST(FaultDecisionWork, CeOnlyHashesOneCoinPerPair) {
  FaultConfig ce;
  ce.seed = 4;
  ce.ce_drop_rate = 0.05;
  CostModel cost;
  // Every pair draws one ce-drop coin: the dropped ones count as
  // retries, the rest as comparisons.
  const std::int64_t plain = sort_decisions(ce, false, &cost);
  EXPECT_GT(cost.retries, 0);
  EXPECT_EQ(plain, cost.comparisons + cost.retries);
  // Under TMR every replica draws its own coin.
  const std::int64_t tmr = sort_decisions(ce, true, &cost);
  EXPECT_EQ(tmr, cost.comparisons);
}

TEST(FaultDecisionWork, TmrHashesReplicasOnlyInsideComparatorWindows) {
  const ProductGraph pg(labeled_path(4), 2);
  FaultConfig config;
  config.seed = 2;
  config.comparator_schedule = {{.node = 1,
                                 .from_phase = 3,
                                 .until_phase = 6,
                                 .kind = ComparatorFaultKind::kInverted}};
  FaultModel fm(config);
  Machine m(pg, random_keys(pg.num_nodes(), 3));
  m.set_fault_model(&fm);
  m.set_tmr(true);
  const std::vector<CEPair> pairs = {{0, 1}, {2, 3}, {4, 5}, {6, 7}};
  for (std::int64_t step = 0; step < 10; ++step) {
    const std::int64_t before = fm.counters().decisions;
    m.compare_exchange_step(pairs);
    // Inside the window one endpoint (node 1) is faulty: one replica
    // pick.  Outside it nothing is hashed.
    EXPECT_EQ(fm.counters().decisions - before, step >= 3 && step < 6 ? 1 : 0)
        << "step " << step;
  }
  EXPECT_EQ(fm.counters().comparator_faults, 3);
}

}  // namespace
}  // namespace prodsort

// Fuzz coverage for the FaultModel schedule-string round trip.
//
// FAULT-REPRO / SDC-REPRO lines embed schedule_string() verbatim and
// --repro replays them through parse_schedule_string(), so the pair
// must be a lossless inverse on every valid config — including the
// comparator-fault entries — and must reject arbitrary junk with a
// typed exception instead of crashing or mis-parsing.  Rates are drawn
// from a grid of short decimal literals because schedule_string prints
// %g (6 significant digits): every grid value survives the
// print-then-parse trip bit-identically, which is exactly the property
// the repro lines rely on (they only ever carry values that were
// printed by schedule_string in the first place).

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/block_sort.hpp"
#include "core/certifier.hpp"
#include "durability/journal.hpp"
#include "graph/labeled_factor.hpp"
#include "network/block_machine.hpp"
#include "network/fault_model.hpp"
#include "stream_repro.hpp"
#include "product/subgraph_view.hpp"

namespace prodsort {
namespace {

FaultConfig random_config(std::mt19937_64& rng) {
  static const double kRates[] = {0, 0, 0.5, 0.25, 0.125, 0.001, 1e-05, 0.75};
  const auto rate = [&rng] {
    return kRates[rng() % (sizeof kRates / sizeof kRates[0])];
  };
  FaultConfig config;
  config.seed = rng();
  config.packet_drop_rate = rate();
  config.ce_drop_rate = rate();
  config.key_corrupt_rate = rate();
  config.failed_links = static_cast<int>(rng() % 4);
  config.stragglers = static_cast<int>(rng() % 4);
  config.straggler_factor = 1 + static_cast<int>(rng() % 8);
  const std::size_t crashes = rng() % 5;
  for (std::size_t i = 0; i < crashes; ++i) {
    CrashEvent event;
    event.node = static_cast<PNode>(rng() % 1000);
    event.phase = static_cast<std::int64_t>(rng() % 10000);
    event.permanent = (rng() & 1) != 0;
    config.crash_schedule.push_back(event);
  }
  const std::size_t outages = rng() % 4;
  std::int64_t cursor = static_cast<std::int64_t>(rng() % 100);
  for (std::size_t i = 0; i < outages; ++i) {
    OutageWindow w;
    w.from = cursor;
    w.until = w.from + 1 + static_cast<std::int64_t>(rng() % 5000);
    cursor = w.until + static_cast<std::int64_t>(rng() % 100);
    config.outage_schedule.push_back(w);
  }
  const std::size_t bursts = rng() % 4;
  for (std::size_t i = 0; i < bursts; ++i) {
    CrashBurst b;
    b.count = 1 + static_cast<int>(rng() % 8);
    b.phase = static_cast<std::int64_t>(rng() % 10000);
    b.permanent = (rng() & 1) != 0;
    config.burst_schedule.push_back(b);
  }
  const std::size_t faults = rng() % 5;
  for (std::size_t i = 0; i < faults; ++i) {
    ComparatorFault fault;
    fault.node = static_cast<PNode>(rng() % 1000);
    fault.from_phase = static_cast<std::int64_t>(rng() % 10000);
    fault.until_phase = (rng() & 3) == 0
                            ? -1
                            : fault.from_phase + 1 +
                                  static_cast<std::int64_t>(rng() % 500);
    switch (rng() % 3) {
      case 0: fault.kind = ComparatorFaultKind::kStuckPassThrough; break;
      case 1: fault.kind = ComparatorFaultKind::kInverted; break;
      default: fault.kind = ComparatorFaultKind::kArbitrary; break;
    }
    // Burst widths (the `xB` suffix) only exist for arbitrary faults.
    if (fault.kind == ComparatorFaultKind::kArbitrary && (rng() & 1) != 0)
      fault.burst = 2 + static_cast<int>(rng() % 7);
    config.comparator_schedule.push_back(fault);
  }
  return config;
}

TEST(ScheduleFuzz, RoundTripsRandomValidSchedules) {
  std::mt19937_64 rng(20260805);
  for (int iter = 0; iter < 500; ++iter) {
    const FaultConfig config = random_config(rng);
    const FaultModel model(config);
    const std::string schedule = model.schedule_string();
    const FaultConfig parsed = FaultModel::parse_schedule_string(schedule);
    ASSERT_EQ(parsed, config) << "schedule: " << schedule;
    // And the string itself is a fixed point of the round trip.
    ASSERT_EQ(FaultModel(parsed).schedule_string(), schedule);
  }
}

TEST(ScheduleFuzz, ComparatorEntriesRoundTripAllKinds) {
  FaultConfig config;
  config.seed = 5;
  config.comparator_schedule = {
      {.node = 5, .from_phase = 2, .until_phase = 9,
       .kind = ComparatorFaultKind::kInverted},
      {.node = 7, .from_phase = 0, .until_phase = -1,
       .kind = ComparatorFaultKind::kArbitrary},
      {.node = 0, .from_phase = 11, .until_phase = 12,
       .kind = ComparatorFaultKind::kStuckPassThrough},
      {.node = 3, .from_phase = 1, .until_phase = 4,
       .kind = ComparatorFaultKind::kArbitrary, .burst = 3},
  };
  const std::string schedule = FaultModel(config).schedule_string();
  EXPECT_NE(schedule.find("comparators=5@2~9I+7@0A+0@11~12S+3@1~4Ax3"),
            std::string::npos)
      << schedule;
  EXPECT_EQ(FaultModel::parse_schedule_string(schedule), config);
}

TEST(ScheduleFuzz, RejectsMalformedComparatorEntries) {
  const char* const malformed[] = {
      "seed=1,comparators=",          // empty list
      "seed=1,comparators=5",         // no @phase
      "seed=1,comparators=5@",        // dangling @
      "seed=1,comparators=5@2",       // missing kind char
      "seed=1,comparators=5@2X",      // unknown kind
      "seed=1,comparators=5@2~1I",    // empty window (until <= from)
      "seed=1,comparators=5@2~2I",    // empty window (until == from)
      "seed=1,comparators=-5@2I",     // negative node
      "seed=1,comparators=5@-2I",     // negative phase
      "seed=1,comparators=5@2I+",     // dangling +
      "seed=1,comparators=5@2~I",     // empty until token
      "seed=1,comparators=5@twoI",    // non-numeric phase
      "seed=1,comparators=5@2Ax",     // dangling burst
      "seed=1,comparators=5@2Ax0",    // burst must be >= 1
      "seed=1,comparators=5@2Ax-3",   // negative burst
      "seed=1,comparators=5@2Axx3",   // doubled burst marker
      "seed=1,comparators=5@2Ix3",    // burst on a non-arbitrary kind
      "seed=1,comparators=5@2Sx2",    // burst on a non-arbitrary kind
  };
  for (const char* schedule : malformed)
    EXPECT_THROW((void)FaultModel::parse_schedule_string(schedule),
                 std::invalid_argument)
        << schedule;
}

// Satellite requirement: the correlated-fault fields added for the
// federated router — outage windows and crash bursts — reject truncated,
// junk-suffixed, and negative-width tokens with the same named error
// the rest of the grammar uses.
TEST(ScheduleFuzz, RejectsMalformedOutageAndBurstEntries) {
  const char* const malformed[] = {
      "seed=1,outages=",          // empty list
      "seed=1,outages=5",         // no ~until
      "seed=1,outages=5~",        // truncated window
      "seed=1,outages=~9",        // missing from
      "seed=1,outages=9~4",       // negative width (until < from)
      "seed=1,outages=4~4",       // empty window (until == from)
      "seed=1,outages=-2~9",      // negative start
      "seed=1,outages=1~2x",      // junk suffix on until
      "seed=1,outages=one~9",     // non-numeric from
      "seed=1,outages=1~2+",      // dangling +
      "seed=1,outages=1~2+~",     // dangling second entry
      "seed=1,bursts=",           // empty list
      "seed=1,bursts=3",          // no @phase
      "seed=1,bursts=3@",         // truncated
      "seed=1,bursts=@5",         // missing count
      "seed=1,bursts=0@5",        // zero victims
      "seed=1,bursts=-1@5",       // negative count
      "seed=1,bursts=2@-3",       // negative phase
      "seed=1,bursts=2@3Q",       // junk suffix (only P is legal)
      "seed=1,bursts=2@3PP",      // doubled flag
      "seed=1,bursts=2@3+",       // dangling +
  };
  for (const char* schedule : malformed) {
    try {
      (void)FaultModel::parse_schedule_string(schedule);
      FAIL() << "accepted malformed schedule: " << schedule;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("malformed schedule field"),
                std::string::npos)
          << schedule << " -> " << e.what();
    }
  }

  // The documented forms parse.
  EXPECT_NO_THROW(FaultModel::parse_schedule_string(
      "seed=1,outages=0~128+512~700,bursts=3@9+1@40P"));
}

// Random junk must produce std::invalid_argument (or parse, if it
// happens to be valid) — never crash, hang, or leak any other
// exception type out of the parser.
TEST(ScheduleFuzz, JunkNeverCrashes) {
  std::mt19937_64 rng(97);
  const std::string charset = "0123456789seedropcruptlinkstagx.,=@~+-SIAPZ ";
  for (int iter = 0; iter < 2000; ++iter) {
    std::string junk(rng() % 64, '\0');
    for (char& c : junk) c = charset[rng() % charset.size()];
    try {
      (void)FaultModel::parse_schedule_string(junk);
    } catch (const std::invalid_argument&) {
      // expected for most inputs
    }
  }
}

// Overlapping comparator windows on a handful of nodes, driven through
// an actual BlockMachine sort after a schedule-string round trip.  The
// earliest matching entry wins at each step; whatever the overlap
// pattern, the sort must terminate, keep every block at size b, and —
// when no arbitrary faults are in play — preserve the key multiset.
TEST(ScheduleFuzz, OverlappingBlockSchedulesNeverCrash) {
  constexpr int kBlock = 2;
  const ProductGraph pg(labeled_path(4), 2);
  const PNode n = pg.num_nodes();
  const BlockSnakeOETS2 oet;
  std::mt19937_64 rng(777);
  for (int iter = 0; iter < 60; ++iter) {
    FaultConfig config;
    config.seed = rng();
    const std::size_t entries = 1 + rng() % 6;
    bool any_arbitrary = false;
    for (std::size_t i = 0; i < entries; ++i) {
      ComparatorFault fault;
      fault.node = static_cast<PNode>(rng() % 4);  // few nodes → overlaps
      fault.from_phase = static_cast<std::int64_t>(rng() % 6);
      fault.until_phase =
          (rng() & 3) == 0
              ? -1
              : fault.from_phase + 1 + static_cast<std::int64_t>(rng() % 8);
      switch (rng() % 3) {
        case 0: fault.kind = ComparatorFaultKind::kStuckPassThrough; break;
        case 1: fault.kind = ComparatorFaultKind::kInverted; break;
        default:
          fault.kind = ComparatorFaultKind::kArbitrary;
          fault.burst = 1 + static_cast<int>(rng() % kBlock);
          any_arbitrary = true;
          break;
      }
      config.comparator_schedule.push_back(fault);
    }
    // Replay through the string form, exactly as --repro does.
    const FaultConfig parsed =
        FaultModel::parse_schedule_string(FaultModel(config).schedule_string());
    ASSERT_EQ(parsed, config);

    FaultModel fm(parsed);
    std::vector<Key> keys(static_cast<std::size_t>(n) * kBlock);
    for (Key& k : keys) k = static_cast<Key>(rng() % 4096);
    BlockMachine machine(pg, keys, kBlock);
    machine.set_fault_model(&fm);
    BlockSortOptions options;
    options.s2 = &oet;
    (void)sort_block_network(machine, options);
    const std::vector<Key> out = machine.read_snake(full_view(pg));
    ASSERT_EQ(out.size(), keys.size());
    if (!any_arbitrary) {
      ASSERT_EQ(fingerprint_sequence(out), fingerprint_sequence(keys))
          << FaultModel(config).schedule_string();
    }
  }
}

// Single-character mutations of a valid schedule — the way a repro
// line actually gets corrupted (truncated paste, flipped char) — are
// either still parseable or rejected with the typed error.
TEST(ScheduleFuzz, MutatedValidSchedulesNeverCrash) {
  std::mt19937_64 rng(31);
  for (int iter = 0; iter < 500; ++iter) {
    const FaultModel model(random_config(rng));
    std::string schedule = model.schedule_string();
    const std::size_t pos = rng() % schedule.size();
    switch (rng() % 3) {
      case 0: schedule[pos] = static_cast<char>('!' + rng() % 90); break;
      case 1: schedule.erase(pos, 1); break;
      default: schedule = schedule.substr(0, pos); break;
    }
    try {
      (void)FaultModel::parse_schedule_string(schedule);
    } catch (const std::invalid_argument&) {
      // expected when the mutation broke a token
    }
  }
}

// --- STREAM-REPRO token fuzz (tools/stream_repro.hpp) -------------------
//
// The streaming replay line embeds the per-domain outage grammar and a
// couple dozen typed tokens; like the fault-schedule grammar above, the
// print-then-parse pair must be a lossless inverse on every valid
// config and reject mutations with a *named* std::invalid_argument.

StreamRepro random_stream_repro(std::mt19937_64& rng) {
  static const double kRates[] = {0, 0, 0.5, 0.25, 0.125, 0.01, 0.001};
  StreamRepro r;
  r.config.seed = rng();
  r.config.batches = 1 + static_cast<int>(rng() % 200);
  r.config.batch_keys = 1 + static_cast<std::int64_t>(rng() % 5000);
  r.config.pattern = static_cast<int>(rng() % 5);
  r.config.batch_interval = 1 + static_cast<std::int64_t>(rng() % 512);
  r.config.ranges = 1 + static_cast<int>(rng() % 16);
  r.config.sample_keys = 1 + static_cast<std::int64_t>(rng() % 512);
  r.config.block = 1 + static_cast<int>(rng() % 64);
  r.config.budget_bytes = r.config.batch_keys * 8 +
                          static_cast<std::int64_t>(rng() % (1 << 20));
  r.config.backends = 1 + static_cast<int>(rng() % 8);
  r.config.domains = 1 + static_cast<int>(rng() % 4);
  r.config.faulty = static_cast<int>(rng() % (r.config.backends + 1));
  r.config.tear_rate = kRates[rng() % 7];
  r.config.crash_rate = kRates[rng() % 7];
  r.config.retry_limit = 1 + static_cast<int>(rng() % 16);
  r.config.backoff_base = 1 + static_cast<std::int64_t>(rng() % 64);
  r.config.backoff_cap = r.config.backoff_base +
                         static_cast<std::int64_t>(rng() % 1024);
  r.config.breaker.failure_threshold = 1 + static_cast<int>(rng() % 8);
  r.config.breaker.cooldown = 1 + static_cast<std::int64_t>(rng() % 4096);
  r.size = 3 + static_cast<int>(rng() % 4);
  r.dims = 2 + static_cast<int>(rng() % 2);
  r.threads = 1 + static_cast<int>(rng() % 8);
  r.chain = rng();
  r.hash = rng();
  // Outage windows over the domains this config actually has (the
  // budget/outage interaction: both ride the same line and must
  // round-trip together).
  const int domains = std::min(r.config.domains, r.config.backends);
  const std::size_t windows = rng() % 4;
  std::string outage;
  for (std::size_t i = 0; i < windows; ++i) {
    const std::int64_t from = static_cast<std::int64_t>(rng() % 10000);
    const std::int64_t until = from + 1 + static_cast<std::int64_t>(rng() % 5000);
    if (!outage.empty()) outage += '+';
    outage += std::to_string(rng() % static_cast<std::uint64_t>(domains)) +
              "@" + std::to_string(from) + "~" + std::to_string(until);
  }
  r.config.outage = outage;
  // Half the lines are durable runs: the journal= token (the io-fault
  // schedule) rides the line and must round-trip with everything else.
  if (rng() & 1) {
    r.journal = true;
    r.config.io_faults.seed = rng();
    r.config.io_faults.short_write_rate = kRates[rng() % 7];
    r.config.io_faults.drop_sync_rate = kRates[rng() % 7];
    r.config.io_faults.read_corrupt_rate = kRates[rng() % 7];
  }
  return r;
}

TEST(ScheduleFuzz, StreamReproRoundTripsRandomValidLines) {
  std::mt19937_64 rng(51);
  for (int iter = 0; iter < 500; ++iter) {
    const StreamRepro r = random_stream_repro(rng);
    const std::string line = format_repro(r);
    const StreamRepro p = parse_repro<StreamRepro>(line);
    EXPECT_EQ(format_repro(p), line)
        << "format(parse(format(x))) must be a fixed point";
    EXPECT_EQ(p.config.budget_bytes, r.config.budget_bytes);
    EXPECT_EQ(p.config.outage, r.config.outage);
    EXPECT_EQ(p.config.tear_rate, r.config.tear_rate);
    EXPECT_EQ(p.chain, r.chain);
    EXPECT_EQ(p.hash, r.hash);
    EXPECT_EQ(p.journal, r.journal);
    EXPECT_EQ(p.config.io_faults, r.config.io_faults);
    // And the outage schedule itself survives its own round trip under
    // the line's domain count.
    const int domains = std::min(p.config.domains, p.config.backends);
    const auto windows = parse_domain_outages(p.config.outage, domains);
    EXPECT_EQ(parse_domain_outages(format_domain_outages(windows), domains),
              windows);
  }
}

/// The token names a struct declares, in order (repro_line.hpp).
struct DeclaredTokens {
  std::vector<std::string> names;
  template <class T>
  void operator()(std::string_view name, const T&, Presence = kRequired) {
    names.emplace_back(name);
  }
  template <class T, class F, class P>
  void text(std::string_view name, const T&, const Codec<F, P>&,
            Presence = kRequired) {
    names.emplace_back(name);
  }
};

TEST(ScheduleFuzz, MutatedStreamReproLinesNeverCrash) {
  DeclaredTokens declared;
  const StreamRepro blank;
  StreamRepro::tokens(declared, blank);
  std::mt19937_64 rng(52);
  int rejected = 0;
  int accepted = 0;
  for (int iter = 0; iter < 1000; ++iter) {
    std::string line = format_repro(random_stream_repro(rng));
    const std::size_t pos = rng() % line.size();
    switch (rng() % 3) {
      case 0: line[pos] = static_cast<char>('!' + rng() % 90); break;
      case 1: line.erase(pos, 1); break;
      default: line = line.substr(0, pos); break;
    }
    try {
      // The generic reader: a mutated line it accepts re-prints to a
      // line that reads back to the same struct.
      const std::string reprinted =
          format_repro(parse_repro<StreamRepro>(line));
      EXPECT_EQ(format_repro(parse_repro<StreamRepro>(reprinted)), reprinted);
      ++accepted;
    } catch (const std::invalid_argument& e) {
      ++rejected;
      const std::string what = e.what();
      EXPECT_TRUE(what.find("STREAM-REPRO") != std::string::npos ||
                  what.find("missing required token") != std::string::npos ||
                  what.find("outage token") != std::string::npos ||
                  what.find("journal token") != std::string::npos)
          << "rejection must carry a named error, got: " << what;
      // ... and names one declared token, as 'name=.
      EXPECT_TRUE(std::any_of(declared.names.begin(), declared.names.end(),
                              [&](const std::string& name) {
                                return what.find("'" + name + "=") !=
                                       std::string::npos;
                              }))
          << "rejection must name a declared token, got: " << what;
    }
  }
  EXPECT_GT(rejected, 0) << "mutations should break at least some lines";
  EXPECT_GT(accepted, 0) << "some mutations (a digit for a digit) still parse";
}

// --- durability: journal= token and record grammar ----------------------
//
// The journal's record stream is the third replayable grammar in the
// repo (after the fault schedule and the repro lines) and gets the
// same treatment: valid inputs round-trip bit-identically, mutated
// ones are rejected with a *named* error, and nothing ever crashes.

TEST(ScheduleFuzz, IoFaultTokenRoundTripsAndRejectsMutations) {
  static const double kRates[] = {0, 0.5, 0.25, 0.125, 0.01, 0.001, 1e-05};
  std::mt19937_64 rng(53);
  int rejected = 0;
  for (int iter = 0; iter < 500; ++iter) {
    IoFaultConfig cfg;
    cfg.seed = rng();
    cfg.short_write_rate = kRates[rng() % 7];
    cfg.drop_sync_rate = kRates[rng() % 7];
    cfg.read_corrupt_rate = kRates[rng() % 7];
    const std::string token = format_io_faults(cfg);
    EXPECT_EQ(parse_io_faults(token), cfg)
        << "parse(format(x)) must be the identity on " << token;

    std::string mutated = token;
    const std::size_t pos = rng() % mutated.size();
    switch (rng() % 3) {
      case 0: mutated[pos] = static_cast<char>('!' + rng() % 90); break;
      case 1: mutated.erase(pos, 1); break;
      default: mutated = mutated.substr(0, pos); break;
    }
    try {
      const IoFaultConfig back = parse_io_faults(mutated);
      // A mutation can land on another valid token (e.g. a digit of a
      // seed); it must then parse to a *different* config or be the
      // rare no-op-shaped edit — never mis-parse into silence.
      (void)back;
    } catch (const std::invalid_argument& e) {
      ++rejected;
      EXPECT_NE(std::string(e.what()).find("journal token"),
                std::string::npos)
          << "rejection must name the token, got: " << e.what();
    }
  }
  EXPECT_GT(rejected, 0) << "mutations should break at least some tokens";
}

TEST(ScheduleFuzz, JournalRecordStreamsRoundTripAndRejectRot) {
  std::mt19937_64 rng(54);
  for (int iter = 0; iter < 200; ++iter) {
    // A random valid record stream replays losslessly.
    const std::size_t count = 1 + rng() % 8;
    std::string buffer;
    std::vector<std::string> payloads;
    for (std::uint64_t seq = 1; seq <= count; ++seq) {
      std::string payload(rng() % 64, '\0');
      for (char& c : payload) c = static_cast<char>(rng() & 0xff);
      payloads.push_back(payload);
      buffer += encode_record(
          seq, static_cast<RecordType>(1 + rng() % 8), payload);
    }
    const JournalReplay replay = replay_journal_buffer(buffer);
    ASSERT_EQ(replay.records.size(), count);
    EXPECT_FALSE(replay.torn_tail);
    for (std::size_t i = 0; i < count; ++i)
      EXPECT_EQ(replay.records[i].payload, payloads[i]);

    // One flipped bit is always classified: rot (a named throw) when
    // committed data follows, a discarded torn tail when it lands in
    // the final record — never silently replayed as valid.
    std::string rotted = buffer;
    const std::size_t byte = rng() % rotted.size();
    rotted[byte] = static_cast<char>(rotted[byte] ^ (1u << (rng() % 8)));
    try {
      const JournalReplay damaged = replay_journal_buffer(rotted);
      EXPECT_TRUE(damaged.torn_tail)
          << "an absorbed flip at byte " << byte << " must be a torn tail";
      EXPECT_LT(damaged.records.size(), count);
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("journal corrupt"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ScheduleFuzz, TypedJournalPayloadsRejectTruncationByName) {
  // Every typed record refuses a truncated or padded payload with an
  // error naming its own record type — corruption the CRC cannot see
  // (the record committed fine; its *shape* is wrong).
  FingerprintAccumulator acc;
  acc.absorb(42);
  const FingerprintState fp = acc.state();
  const std::vector<std::pair<const char*, std::string>> encoded = {
      {"batch-ingested", BatchIngestedRecord{1, 2, 3, 4}.encode()},
      {"run-dispatched", RunDispatchedRecord{1, 2, 3, 4, fp, 5}.encode()},
      {"run-verified", RunVerifiedRecord{1, 2, fp, 3}.encode()},
      {"ingest-done", IngestDoneRecord{1, fp, 2, 3, 4, 5, 6}.encode()},
      {"range-sealed", RangeSealedRecord{1, 2, fp, 1, 3, 4, 5}.encode()},
      {"ledger-delta", LedgerDeltaRecord{1, 2, 3, 4}.encode()},
      {"snapshot", SnapshotRecord{1, fp, 2, 3, 4, 5, 6}.encode()},
  };
  const auto decode = [](const char* name, const std::string& payload) {
    const std::string_view p(payload);
    if (std::string(name) == "batch-ingested")
      (void)BatchIngestedRecord::decode(p);
    else if (std::string(name) == "run-dispatched")
      (void)RunDispatchedRecord::decode(p);
    else if (std::string(name) == "run-verified")
      (void)RunVerifiedRecord::decode(p);
    else if (std::string(name) == "ingest-done")
      (void)IngestDoneRecord::decode(p);
    else if (std::string(name) == "range-sealed")
      (void)RangeSealedRecord::decode(p);
    else if (std::string(name) == "ledger-delta")
      (void)LedgerDeltaRecord::decode(p);
    else
      (void)SnapshotRecord::decode(p);
  };
  for (const auto& [name, payload] : encoded) {
    decode(name, payload);  // the intact payload parses
    for (const std::string& bad :
         {payload.substr(0, payload.size() / 2), payload + "x"}) {
      try {
        decode(name, bad);
        FAIL() << name << " must reject a mis-shaped payload";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
            << "error must name the record type, got: " << e.what();
      }
    }
  }
}

}  // namespace
}  // namespace prodsort

// Unit coverage for the one REPRO grammar (tools/repro_line.hpp) that
// every tool prints and replays through: the tokenizer, the writer and
// reader over a struct's declared tokens, and the typed STREAM-REPRO
// round trip (tools/stream_repro.hpp).

#include "repro_line.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "stream_repro.hpp"

namespace prodsort {
namespace {

TEST(ReproLine, GetReturnsTokenValues) {
  const ReproLine repro(
      "SDC-REPRO mode=sdc seed=7 trial=12 family=path-3 r=2 "
      "schedule=seed=5,ce=0.002 reason=silent-escape");
  EXPECT_EQ(repro.get("mode"), "sdc");
  EXPECT_EQ(repro.get("seed"), "7");
  EXPECT_EQ(repro.get("family"), "path-3");
  // The value may itself contain '=' (embedded schedule strings).
  EXPECT_EQ(repro.get("schedule"), "seed=5,ce=0.002");
  EXPECT_EQ(repro.get("reason"), "silent-escape");
}

TEST(ReproLine, AbsentKeyIsEmptyAndHasDisambiguates) {
  const ReproLine repro("A-REPRO seed=7 empty= x=1");
  EXPECT_EQ(repro.get("missing"), "");
  EXPECT_FALSE(repro.has("missing"));
  EXPECT_EQ(repro.get("empty"), "");
  EXPECT_TRUE(repro.has("empty"));
}

TEST(ReproLine, FirstOccurrenceWins) {
  const ReproLine repro("seed=1 seed=2");
  EXPECT_EQ(repro.get("seed"), "1");
}

TEST(ReproLine, KeyMatchIsExactNotPrefixOrSuffix) {
  // "r=" must not match inside "retry=3" or "tmr=1", and "retry=" must
  // not match the shorter token "r=2".
  const ReproLine repro("retry=3 tmr=1 r=2");
  EXPECT_EQ(repro.get("r"), "2");
  EXPECT_EQ(repro.get("retry"), "3");
  EXPECT_EQ(repro.get("tmr"), "1");
  EXPECT_FALSE(ReproLine("retry=3").has("r"));
}

TEST(ReproLine, RequireThrowsNamingTheMissingKey) {
  const ReproLine repro("seed=7");
  EXPECT_EQ(repro.require("seed"), "7");
  try {
    (void)repro.require("trial");
    FAIL() << "require() accepted a missing key";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'trial='"), std::string::npos)
        << e.what();
  }
}

TEST(ReproLine, RejoinArgsUndoesShellSplitting) {
  char arg0[] = "prodsort_stress";
  char arg1[] = "--repro";
  char arg2[] = "SDC-REPRO";
  char arg3[] = "seed=7";
  char arg4[] = "trial=3";
  char* argv[] = {arg0, arg1, arg2, arg3, arg4};
  EXPECT_EQ(ReproLine::rejoin_args(5, argv, 2), "SDC-REPRO seed=7 trial=3");
  EXPECT_EQ(ReproLine::rejoin_args(5, argv, 5), "");
}

// The adaptive-certification tokens ride the same parser: cert-level /
// cert-seed on SDC-REPRO lines, sdc-budget / ledger on SERVICE-REPRO
// lines.  They are optional — replay code falls back to defaults when
// has() is false — so both presence and absence must be unambiguous.
TEST(ReproLine, CarriesAdaptiveCertTokens) {
  const ReproLine sdc(
      "SDC-REPRO mode=sdc seed=7 trial=12 family=cycle-4 r=2 "
      "schedule=seed=5,comparators=3@0~4I cert-level=sampled "
      "cert-seed=123456789 rung=resort reason=repaired");
  EXPECT_EQ(sdc.get("cert-level"), "sampled");
  EXPECT_EQ(sdc.get("cert-seed"), "123456789");
  EXPECT_EQ(sdc.get("rung"), "resort");

  const ReproLine serve(
      "SERVICE-REPRO mode=serve seed=9 jobs=40 backends=3 "
      "sdc-budget=0.001 ledger=14467021887457771297 hash=42");
  EXPECT_EQ(serve.get("sdc-budget"), "0.001");
  EXPECT_EQ(serve.get("ledger"), "14467021887457771297");

  // A pre-adaptive line simply lacks the tokens; replay sees has()=false
  // and keeps the feature off — old lines stay replayable.
  const ReproLine legacy("SERVICE-REPRO mode=serve seed=9 hash=42");
  EXPECT_FALSE(legacy.has("sdc-budget"));
  EXPECT_FALSE(legacy.has("ledger"));
  EXPECT_FALSE(legacy.has("cert-level"));
}

TEST(ReproLine, ToleratesRepeatedSpacesAndJunkTokens) {
  const ReproLine repro("  seed=7   junk garbage==x  trial=3 ");
  EXPECT_EQ(repro.get("seed"), "7");
  EXPECT_EQ(repro.get("trial"), "3");
  EXPECT_EQ(repro.get("garbage"), "=x");
  EXPECT_FALSE(repro.has("junk"));
}

// --- STREAM-REPRO (tools/stream_repro.hpp) ------------------------------

StreamRepro sample_stream_repro() {
  StreamRepro r;
  r.config.seed = 0xDEADBEEFu;
  r.config.batches = 23;
  r.config.batch_keys = 771;
  r.config.pattern = 3;
  r.config.batch_interval = 96;
  r.config.ranges = 5;
  r.config.sample_keys = 129;
  r.config.block = 16;
  r.config.budget_bytes = 99991;
  r.config.backends = 6;
  r.config.domains = 3;
  r.config.faulty = 2;
  r.config.outage = "0@300~500+2@800~900+0@1000~1100";
  r.config.tear_rate = 0.125;
  r.config.crash_rate = 0.01;
  r.config.retry_limit = 5;
  r.config.backoff_base = 4;
  r.config.backoff_cap = 128;
  r.config.breaker = {.failure_threshold = 2, .cooldown = 333};
  r.size = 5;
  r.dims = 3;
  r.threads = 4;
  r.chain = 12345678901234567890ull;
  r.hash = 9876543210123456789ull;
  return r;
}

TEST(StreamRepro, FormatParseRoundTripsEveryField) {
  const StreamRepro r = sample_stream_repro();
  const StreamRepro p = parse_repro<StreamRepro>(format_repro(r));
  EXPECT_EQ(p.config.seed, r.config.seed);
  EXPECT_EQ(p.config.batches, r.config.batches);
  EXPECT_EQ(p.config.batch_keys, r.config.batch_keys);
  EXPECT_EQ(p.config.pattern, r.config.pattern);
  EXPECT_EQ(p.config.batch_interval, r.config.batch_interval);
  EXPECT_EQ(p.config.ranges, r.config.ranges);
  EXPECT_EQ(p.config.sample_keys, r.config.sample_keys);
  EXPECT_EQ(p.config.block, r.config.block);
  EXPECT_EQ(p.config.budget_bytes, r.config.budget_bytes);
  EXPECT_EQ(p.config.backends, r.config.backends);
  EXPECT_EQ(p.config.domains, r.config.domains);
  EXPECT_EQ(p.config.faulty, r.config.faulty);
  EXPECT_EQ(p.config.outage, r.config.outage);
  EXPECT_EQ(p.config.tear_rate, r.config.tear_rate)
      << "rates print at %.17g so the double round-trips bit-identically";
  EXPECT_EQ(p.config.crash_rate, r.config.crash_rate);
  EXPECT_EQ(p.config.retry_limit, r.config.retry_limit);
  EXPECT_EQ(p.config.backoff_base, r.config.backoff_base);
  EXPECT_EQ(p.config.backoff_cap, r.config.backoff_cap);
  EXPECT_EQ(p.config.breaker.failure_threshold,
            r.config.breaker.failure_threshold);
  EXPECT_EQ(p.config.breaker.cooldown, r.config.breaker.cooldown);
  EXPECT_EQ(p.size, r.size);
  EXPECT_EQ(p.dims, r.dims);
  EXPECT_EQ(p.threads, r.threads);
  EXPECT_EQ(p.chain, r.chain);
  EXPECT_EQ(p.hash, r.hash);
}

TEST(StreamRepro, EmptyOutageIsOmittedAndParsesBack) {
  StreamRepro r = sample_stream_repro();
  r.config.outage.clear();
  const std::string line = format_repro(r);
  EXPECT_EQ(line.find("outage="), std::string::npos);
  EXPECT_TRUE(parse_repro<StreamRepro>(line).config.outage.empty());
}

TEST(StreamRepro, MissingRequiredTokenNamesTheKey) {
  try {
    (void)parse_repro<StreamRepro>("STREAM-REPRO seed=7 batches=3");
    FAIL() << "accepted a line with most tokens missing";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("batch="), std::string::npos)
        << "error must name the first missing token: " << e.what();
  }
}

TEST(StreamRepro, MalformedTokensAreRejectedByName) {
  const std::string good = format_repro(sample_stream_repro());
  const struct {
    const char* from;
    const char* to;
    const char* named;
  } kMutations[] = {
      {"batches=23", "batches=twenty", "batches="},
      {"budget=99991", "budget=99991x", "budget="},
      {"tear=0.125", "tear=0.1x25", "tear="},
      {"chain=12345678901234567890", "chain=0x12", "chain="},
      {"outage=0@300~500+2@800~900+0@1000~1100", "outage=9@1~2",
       "outage token"},
  };
  for (const auto& m : kMutations) {
    std::string line = good;
    const std::size_t pos = line.find(m.from);
    ASSERT_NE(pos, std::string::npos) << m.from;
    line.replace(pos, std::string(m.from).size(), m.to);
    try {
      (void)parse_repro<StreamRepro>(line);
      FAIL() << "accepted malformed token: " << m.to;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(m.named), std::string::npos)
          << "error for '" << m.to << "' must name '" << m.named
          << "', got: " << e.what();
    }
  }
}

TEST(StreamRepro, UnknownTokensAreIgnoredForForwardCompatibility) {
  const std::string line =
      format_repro(sample_stream_repro()) + " future-flag=1 note=x";
  EXPECT_EQ(parse_repro<StreamRepro>(line).config.batches, 23);
}

// --- the one writer and reader ------------------------------------------

/// Every value kind and presence rule the grammar has.
struct AllKinds {
  std::int64_t low = 0;
  std::int64_t high = 0;
  std::uint64_t wide = 0;
  std::uint64_t id = 0;  ///< printed as hex
  int count = 0;
  bool on = false;
  double rate = 0;
  double tiny = 0;
  std::string name = "x";
  std::string note = "default";
  std::vector<int> list;
  int extra = 0;
  bool flagged = false;
  std::string flagged_value = "none";

  bool operator==(const AllKinds&) const = default;

  static std::string_view tag(const AllKinds&) { return "TEST-REPRO"; }
  static void tokens(auto& v, auto& self) {
    v("low", self.low);
    v("high", self.high);
    v("wide", self.wide);
    v.text("id", self.id, kHexCodec);
    v("count", self.count);
    v("on", self.on);
    v("rate", self.rate);
    v("tiny", self.tiny);
    v("name", self.name);
    v("note", self.note, kOptional);
    v.text("list", self.list,
           Codec{[](const std::vector<int>& list) {
                   std::string out;
                   for (const int x : list) {
                     if (!out.empty()) out += '+';
                     out += std::to_string(x);
                   }
                   return out.empty() ? std::string("none") : out;
                 },
                 [](const std::string& text) {
                   std::vector<int> list;
                   if (text == "none") return list;
                   for (std::size_t pos = 0; pos <= text.size();) {
                     const std::size_t end =
                         std::min(text.find('+', pos), text.size());
                     const std::string item = text.substr(pos, end - pos);
                     list.push_back(parse_number<int>("list", item));
                     pos = end + 1;
                   }
                   return list;
                 }});
    v("extra", self.extra, when(self.extra > 0));
    v("flagged", self.flagged_value, flag(self.flagged));
  }
};

AllKinds sample_kinds() {
  AllKinds k;
  k.low = std::numeric_limits<std::int64_t>::min();
  k.high = std::numeric_limits<std::int64_t>::max();
  k.wide = (std::uint64_t{1} << 63) + 12345;
  k.id = 0x00ab'cdef'0123'4567ull;
  k.count = -42;
  k.on = true;
  k.rate = 0.1 + 0.2;  // needs 17 significant digits
  k.tiny = 1e-300;
  k.name = "path-3";
  k.note = "";
  k.list = {3, 1, 4};
  k.extra = 5;
  k.flagged = true;
  k.flagged_value = "ioseed@9";
  return k;
}

TEST(ReproGrammar, ParseOfFormatIsTheIdentity) {
  std::vector<AllKinds> samples(4, sample_kinds());
  samples[1] = AllKinds{};                      // every default
  samples[2].rate = 0.0001;                     // %g is exact here
  samples[2].tiny = 1.0 / 3.0;                  // and not here
  samples[2].list.clear();
  samples[3].extra = 0;                         // when() false: not printed
  samples[3].flagged = false;                   // flag() unset: not printed
  samples[3].flagged_value = "none";
  samples[3].wide = std::numeric_limits<std::uint64_t>::max();
  samples[3].id = std::numeric_limits<std::uint64_t>::max();
  for (const AllKinds& k : samples) {
    const std::string line = format_repro(k);
    EXPECT_EQ(parse_repro<AllKinds>(line), k) << line;
    EXPECT_EQ(format_repro(parse_repro<AllKinds>(line)), line);
  }
  const std::string line = format_repro(samples[0]);
  EXPECT_EQ(line,
            "TEST-REPRO low=-9223372036854775808 high=9223372036854775807"
            " wide=9223372036854788153 id=00abcdef01234567 count=-42 on=1"
            " rate=0.30000000000000004 tiny=1e-300 name=path-3 note="
            " list=3+1+4 extra=5 flagged=ioseed@9");
  EXPECT_EQ(format_repro(samples[3]).find("extra="), std::string::npos);
  EXPECT_EQ(format_repro(samples[3]).find("flagged="), std::string::npos);
}

TEST(ReproGrammar, DoublesPrintTheShortestExactForm) {
  EXPECT_EQ(format_double(0.05), "0.05");
  EXPECT_EQ(format_double(0.0001), "0.0001");
  EXPECT_EQ(format_double(1e-300), "1e-300");
  EXPECT_EQ(format_double(2.0), "2");
  EXPECT_EQ(format_double(1.2345678), "1.2345678");
  EXPECT_EQ(format_double(0.1234569), "0.1234569");
  EXPECT_EQ(format_double(1.0 / 3.0), "0.3333333333333333");
  // Wherever %g is exact, the writer prints %g's bytes.
  for (const double x : {0.0, 1.0, 2.5, 0.01, 0.125, 1e-3, 123456.0, -7.5}) {
    char g[32];
    std::snprintf(g, sizeof g, "%g", x);
    EXPECT_EQ(format_double(x), g);
  }
}

TEST(ReproGrammar, AbsentTokensFollowTheirPresenceRule) {
  // An older line without the optional, conditional and flagged tokens
  // keeps their defaults and clears the flag.
  std::string line = format_repro(sample_kinds());
  for (const char* token : {" note=", " extra=5", " flagged=ioseed@9"})
    line.erase(line.find(token), std::string(token).size());
  const AllKinds k = parse_repro<AllKinds>(line);
  EXPECT_EQ(k.note, "default");
  EXPECT_EQ(k.extra, 0);
  EXPECT_FALSE(k.flagged);
  EXPECT_EQ(k.flagged_value, "none");
  // First occurrence wins; unknown tokens are ignored.
  const AllKinds twice =
      parse_repro<AllKinds>(format_repro(sample_kinds()) + " count=7 why=x");
  EXPECT_EQ(twice.count, -42);
}

TEST(ReproGrammar, EveryMutatedTokenIsRefusedByName) {
  const AllKinds k = sample_kinds();
  const std::string good = format_repro(k);
  const char* const numeric[] = {"low",  "high", "wide", "id",   "count",
                                 "on",   "rate", "tiny", "list", "extra"};
  for (const char* name : numeric) {
    const std::string key = std::string(" ") + name + "=";
    const std::size_t at = good.find(key) + key.size();
    const std::size_t end = std::min(good.find(' ', at), good.size());
    const std::string value = good.substr(at, end - at);
    const std::string mutations[] = {value + "x", value + "zz", "", "0x12",
                                     " " + value};
    for (const std::string& mutated : mutations) {
      std::string line = good;
      line.replace(at, end - at, mutated);
      try {
        (void)parse_repro<AllKinds>(line);
        FAIL() << "accepted " << name << "=" << mutated;
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(std::string("'") + name + "="),
                  std::string::npos)
            << name << "=" << mutated << ": " << e.what();
      }
    }
  }
  // Out of range for the field's type, and a missing required token.
  std::string line = good;
  line.replace(line.find("count=-42"), 9, "count=4294967296");
  EXPECT_THROW((void)parse_repro<AllKinds>(line), std::invalid_argument);
  for (const char* name : {"low", "id", "on", "rate", "name", "list"}) {
    line = good;
    const std::size_t at = line.find(std::string(" ") + name + "=");
    line.erase(at, line.find(' ', at + 1) - at);
    try {
      (void)parse_repro<AllKinds>(line);
      FAIL() << "accepted a line without " << name << "=";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("missing required "
                                                       "token '") +
                                           name + "='"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ReproGrammar, FlagsShareTheNumberParser) {
  EXPECT_EQ(parse_number<int>("--jobs", "30"), 30);
  EXPECT_EQ(parse_number<double>("--load", "1.2345678"), 1.2345678);
  for (const char* bad : {"abc", "3x", "", " 3", "+3", "0x10", "1e3"}) {
    try {
      (void)parse_number<int>("--jobs", bad);
      FAIL() << "accepted --jobs " << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--jobs: malformed number"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW((void)parse_number<unsigned>("--seed", "-1"),
               std::invalid_argument);
}

}  // namespace
}  // namespace prodsort

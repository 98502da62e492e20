#pragma once

// STREAM-REPRO — the streaming pipeline's replay line
// (docs/STREAMING.md, "Replay").
//
// One line carries the *entire* configuration of a StreamingSorter run
// (every batch's keys are a pure hash of the seed, so no data rides
// along) plus two replay identities: the order-sensitive per-batch
// certificate chain (`chain=`) and the full report hash (`hash=`).  A
// replay re-runs the stream and must match both bit-identically —
// chain= proves the same keys arrived in the same batch order, hash=
// proves every counter (retries, crashes, rollbacks, high-water, ...)
// evolved identically.
//
// Shared by prodsort_stream and the repro/fuzz tests; printed and read
// by the one REPRO grammar (repro_line.hpp): format_repro(r) and
// parse_repro<StreamRepro>(line).

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>

#include "repro_line.hpp"
#include "stream/streaming_sorter.hpp"

namespace prodsort {

/// Everything a replay needs: the sorter config plus the topology and
/// executor shape, and the two expected replay identities.
struct StreamRepro {
  StreamConfig config;
  int size = 4;  ///< cycle-factor size (topology = cycle(size)^dims)
  int dims = 2;
  int threads = 1;
  std::uint64_t chain = 0;  ///< expected StreamReport::chain_hash
  std::uint64_t hash = 0;   ///< expected StreamReport::hash()
  /// True when the run was journaled (docs/DURABILITY.md): the line
  /// then carries a `journal=` token holding the io-fault schedule
  /// (`none` for no injected faults).  The journal *directory* is
  /// machine-local and never rides on the line — a replay must supply
  /// its own via --journal.
  bool journal = false;

  static std::string_view tag(const StreamRepro&) { return "STREAM-REPRO"; }
  static void tokens(auto& v, auto& self) {
    auto& c = self.config;
    v("seed", c.seed);
    v("batches", c.batches);
    v("batch", c.batch_keys);
    v("pattern", c.pattern);
    v("interval", c.batch_interval);
    v("ranges", c.ranges);
    v("sample", c.sample_keys);
    v("block", c.block);
    v("budget", c.budget_bytes);
    v("backends", c.backends);
    v("domains", c.domains);
    v("faulty", c.faulty);
    v("tear", c.tear_rate);
    v("crash", c.crash_rate);
    v("retry", c.retry_limit);
    v("backoff", c.backoff_base);
    v("cap", c.backoff_cap);
    v("breaker-k", c.breaker.failure_threshold);
    v("cooldown", c.breaker.cooldown);
    v("size", self.size);
    v("dims", self.dims);
    v("threads", self.threads);
    v("chain", self.chain);
    v("hash", self.hash);
    // Validated against the line's own domain count, read above, so a
    // torn line fails at parse time rather than mid-replay.
    v.text("outage", c.outage,
           Codec{[](const std::string& s) { return s; },
                 [&c](const std::string& s) {
                   (void)parse_domain_outages(
                       s, std::min(c.domains, c.backends));
                   return s;
                 }},
           when(!c.outage.empty()));
    v.text("journal", c.io_faults, Codec{format_io_faults, parse_io_faults},
           flag(self.journal));
  }
};

}  // namespace prodsort

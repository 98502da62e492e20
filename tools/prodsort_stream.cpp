// prodsort_stream — deterministic streaming-ingestion driver
// (docs/STREAMING.md, docs/DURABILITY.md).
//
//   prodsort_stream [--seed S] [--batches B] [--batch-keys K]
//                   [--pattern P] [--interval I] [--ranges R]
//                   [--sample N] [--block B] [--budget BYTES]
//                   [--backends N] [--domains D] [--faulty F]
//                   [--outage D@F~U ...] [--tear RATE] [--crash RATE]
//                   [--retry R] [--size N] [--dims r] [--threads T]
//                   [--json FILE] [--journal DIR] [--io-faults TOKEN]
//                   [--kill-after-records N] [--out FILE]
//   prodsort_stream --soak [same flags]
//   prodsort_stream --recover DIR [--kill-after-records N] [--out FILE]
//   prodsort_stream --repro STREAM-REPRO ...
//
// Runs a StreamingSorter over --batches seed-hashed batches: sample-
// sort splitter partitioning, bounded-size block-mode runs dispatched
// to a breaker-guarded backend pool, and measured multiway host merge
// on egress — all on the virtual clock, under a byte-accounted memory
// budget with backpressure.  `--faulty F` gives the first F backends a
// silently inverted comparator (exercising the end-to-end certificate
// and block repair); `--outage D@F~U` (repeatable) darkens fault
// domain D over virtual time [F, U); `--crash` and `--tear` inject
// whole-run crashes and torn egress merges at the given per-attempt
// rates.
//
// Durability: `--journal DIR` turns on the write-ahead journal and
// real spill files under DIR; `--io-faults TOKEN` injects
// deterministic short writes / dropped fsyncs / read corruption
// (TOKEN = `ioseed@S+shortw@R+dropsync@R+corrupt@R`, or `none`);
// `--kill-after-records N` crashes the process (exit 137, printing
// DURABILITY-KILL) once the commit group holding the N-th journal
// record commits, leaving exactly what a power cut would.  `--recover DIR` replays the
// journal, discards a torn tail, re-verifies surviving runs against
// their journaled fingerprints, re-dispatches what needs it, and
// finishes the stream — the emitted output and the STREAM-FP line are
// bit-identical to an uninterrupted run.  `--out FILE` writes the
// emitted keys as raw binary so a recovered run can be byte-compared
// (cmp) against an uninterrupted one.
//
// Every run prints one machine-readable STREAM-REPRO line; --repro
// accepts that line (quoted or shell-split), replays the stream, and
// exits nonzero unless both the certificate chain and the report hash
// match bit-identically.  A journaled line carries a `journal=` token
// and needs --journal DIR at replay time (the directory itself is
// machine-local and never rides on the line).
//
// --soak is the streaming gate CI runs under sanitizers: default fault
// pressure (crashes, tears, one faulty backend, an outage window) plus
// hard invariant checks — conservation (every ingested key sealed
// exactly once, fingerprints equal), zero certificate escapes, memory
// high-water within the budget, globally sorted emission, and (when
// journaling) a spill ledger that reconciles against measured disk —
// exit 1 with the repro line on any violation.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "durability/journal.hpp"
#include "graph/labeled_factor.hpp"
#include "network/parallel_executor.hpp"
#include "stream/recovery.hpp"
#include "stream_repro.hpp"

using namespace prodsort;

namespace {

struct StreamRun {
  StreamReport report;
  std::vector<Key> emitted;
  bool emitted_sorted = false;
  std::int64_t emitted_keys = 0;
};

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  return std::fclose(f) == 0 && ok;
}

/// Raw little-endian i64 image of the emitted keys — the byte format a
/// recovered run is `cmp`'d against in the durability-soak gate.
std::string pack_emitted(const std::vector<Key>& keys) {
  std::string out;
  out.reserve(keys.size() * sizeof(Key));
  for (const Key key : keys) {
    const auto u = static_cast<std::uint64_t>(key);
    for (int b = 0; b < 8; ++b)
      out.push_back(static_cast<char>((u >> (8 * b)) & 0xff));
  }
  return out;
}

/// The stream's data identity, independent of *how* the keys got out:
/// a recovered run legitimately differs from an uninterrupted one in
/// work counters (so report.hash() differs) but must match this line
/// bit-for-bit.
void print_stream_fp(const StreamReport& report) {
  std::printf("STREAM-FP keys=%lld chain=%" PRIu64 " ingest=%" PRIu64
              " sealed=%" PRIu64 "\n",
              static_cast<long long>(report.keys_emitted), report.chain_hash,
              report.ingest_fp.checksum, report.sealed_fp.checksum);
}

void finish_run(StreamRun& run) {
  run.emitted_keys = static_cast<std::int64_t>(run.emitted.size());
  run.emitted_sorted = true;
  for (std::size_t i = 1; i < run.emitted.size(); ++i)
    if (run.emitted[i - 1] > run.emitted[i]) run.emitted_sorted = false;
}

StreamRun run_stream(const StreamRepro& args) {
  const LabeledFactor factor = labeled_cycle(args.size);
  const ProductGraph pg(factor, args.dims);
  ParallelExecutor executor(args.threads);
  StreamingSorter sorter(pg, args.config, &executor);
  StreamRun run;
  run.report = sorter.run();
  run.emitted = sorter.emitted();
  finish_run(run);
  return run;
}

/// The streaming soak gate: the invariants CI asserts under sanitizers.
int check_invariants(const StreamRepro& args, const StreamRun& run) {
  const StreamReport& report = run.report;
  int violations = 0;
  if (!report.complete) {
    std::printf("VIOLATION: stream did not complete — %lld/%d ranges sealed,"
                " %lld run(s) dead\n",
                static_cast<long long>(report.ranges_sealed),
                args.config.ranges,
                static_cast<long long>(report.runs_failed));
    ++violations;
  }
  if (report.cert_escapes != 0) {
    std::printf("VIOLATION: %lld certificate escape(s) — a fingerprint"
                " mismatch crossed a pipeline stage\n",
                static_cast<long long>(report.cert_escapes));
    ++violations;
  }
  if (!report.conserved()) {
    std::printf("VIOLATION: conservation — ingested=%lld emitted=%lld,"
                " multiset fingerprints %s\n",
                static_cast<long long>(report.keys_ingested),
                static_cast<long long>(report.keys_emitted),
                report.sealed_fp == report.ingest_fp ? "equal" : "DIFFER");
    ++violations;
  }
  if (report.high_water_bytes > report.budget_bytes) {
    std::printf("VIOLATION: memory — high water %lld bytes > budget %lld\n",
                static_cast<long long>(report.high_water_bytes),
                static_cast<long long>(report.budget_bytes));
    ++violations;
  }
  if (!run.emitted_sorted) {
    std::printf("VIOLATION: emission not globally sorted across %lld keys\n",
                static_cast<long long>(run.emitted_keys));
    ++violations;
  }
  if (report.spill_reconcile_failures != 0) {
    std::printf("VIOLATION: spill ledger — %lld reconciliation failure(s),"
                " the byte model disagrees with measured disk\n",
                static_cast<long long>(report.spill_reconcile_failures));
    ++violations;
  }
  return violations;
}

int run_repro(const std::string& line, const std::string& journal_dir) {
  StreamRepro args = parse_repro<StreamRepro>(line);
  if (args.journal && journal_dir.empty()) {
    std::fprintf(stderr,
                 "--repro: this line carries a journal= token (a durable"
                 " run); supply a scratch directory with --journal DIR"
                 " (before --repro, which consumes the rest of the"
                 " command line) to replay it\n");
    return 2;
  }
  if (args.journal) args.config.journal_dir = journal_dir;
  const StreamRun run = run_stream(args);
  if (run.report.chain_hash == args.chain && run.report.hash() == args.hash) {
    std::printf("repro: stream replayed bit-identically (chain=%" PRIu64
                " hash=%" PRIu64 ")\n",
                args.chain, args.hash);
    return 0;
  }
  std::printf("repro: MISMATCH — expected chain=%" PRIu64 " hash=%" PRIu64
              " got chain=%" PRIu64 " hash=%" PRIu64 "\n",
              args.chain, args.hash, run.report.chain_hash,
              run.report.hash());
  return 1;
}

/// The deterministic kill's exit: the marker line and the status a
/// SIGKILL'd process reports.
int report_kill(const DurabilityKill& kill) {
  std::printf("DURABILITY-KILL after %lld journal record(s) and the rest of"
              " their commit group — journal truncated to its synced"
              " prefix\n",
              static_cast<long long>(kill.records));
  return 137;
}

}  // namespace

int main(int argc, char** argv) {
  StreamRepro args;
  StreamConfig& cfg = args.config;
  bool soak = false;
  bool outage_set = false;
  std::string json_path;
  std::string repro_line;
  std::string recover_dir;
  std::string out_path;
  try {
    for (int i = 1; i < argc; ++i) {
      FlagCursor flag{argc, argv, i};
      if (flag.has_value("--seed")) flag.number(cfg.seed);
      else if (flag.has_value("--batches")) flag.number(cfg.batches);
      else if (flag.has_value("--batch-keys")) flag.number(cfg.batch_keys);
      else if (flag.has_value("--pattern")) flag.number(cfg.pattern);
      else if (flag.has_value("--interval")) flag.number(cfg.batch_interval);
      else if (flag.has_value("--ranges")) flag.number(cfg.ranges);
      else if (flag.has_value("--sample")) flag.number(cfg.sample_keys);
      else if (flag.has_value("--block")) flag.number(cfg.block);
      else if (flag.has_value("--budget")) flag.number(cfg.budget_bytes);
      else if (flag.has_value("--backends")) flag.number(cfg.backends);
      else if (flag.has_value("--domains")) flag.number(cfg.domains);
      else if (flag.has_value("--faulty")) flag.number(cfg.faulty);
      else if (flag.has_value("--outage")) {
        if (!cfg.outage.empty()) cfg.outage += '+';
        cfg.outage += argv[++i];
        outage_set = true;
      } else if (flag.has_value("--tear")) flag.number(cfg.tear_rate);
      else if (flag.has_value("--crash")) flag.number(cfg.crash_rate);
      else if (flag.has_value("--retry")) flag.number(cfg.retry_limit);
      else if (flag.has_value("--size")) flag.number(args.size);
      else if (flag.has_value("--dims")) flag.number(args.dims);
      else if (flag.has_value("--threads")) flag.number(args.threads);
      else if (flag.has_value("--json")) json_path = argv[++i];
      else if (flag.has_value("--journal")) {
        cfg.journal_dir = argv[++i];
        args.journal = true;
      } else if (flag.has_value("--io-faults")) {
        cfg.io_faults = parse_io_faults(argv[++i]);
      } else if (flag.has_value("--kill-after-records"))
        flag.number(cfg.kill_after_records);
      else if (flag.has_value("--recover")) recover_dir = argv[++i];
      else if (flag.has_value("--out")) out_path = argv[++i];
      else if (std::strcmp(argv[i], "--soak") == 0) soak = true;
      else if (std::strcmp(argv[i], "--repro") == 0) {
        repro_line = ReproLine::rejoin_args(argc, argv, i + 1);
        i = argc;
        if (repro_line.empty()) {
          std::fprintf(stderr, "--repro needs a STREAM-REPRO line\n");
          return 2;
        }
      } else {
        std::fprintf(stderr,
                     "usage: %s [--seed S] [--batches B] [--batch-keys K]"
                     " [--pattern P] [--interval I] [--ranges R] [--sample N]"
                     " [--block B] [--budget BYTES] [--backends N]"
                     " [--domains D] [--faulty F] [--outage D@F~U]"
                     " [--tear RATE] [--crash RATE] [--retry R] [--size N]"
                     " [--dims r] [--threads T] [--json FILE]"
                     " [--journal DIR] [--io-faults TOKEN]"
                     " [--kill-after-records N] [--out FILE]"
                     " [--recover DIR]"
                     " [--soak] [--repro STREAM-REPRO-line]\n",
                     argv[0]);
        return 2;
      }
    }

    if (cfg.io_faults.any() && cfg.journal_dir.empty() && recover_dir.empty()) {
      std::fprintf(stderr,
                   "--io-faults injects into the durability layer; it needs"
                   " --journal DIR (or --recover DIR)\n");
      return 2;
    }
    if (cfg.kill_after_records != 0 && cfg.journal_dir.empty() &&
        recover_dir.empty()) {
      std::fprintf(stderr,
                   "--kill-after-records counts journal records; it needs"
                   " --journal DIR (or --recover DIR)\n");
      return 2;
    }
    if (!repro_line.empty()) return run_repro(repro_line, cfg.journal_dir);
    if (!recover_dir.empty()) {
      ParallelExecutor executor(args.threads);
      const StreamRecoveryResult result =
          recover_stream(recover_dir, &executor, cfg.kill_after_records);
      StreamRun run;
      run.report = result.report;
      run.emitted = result.emitted;
      finish_run(run);
      std::printf("recovered stream from %s: %lld journal record(s)"
                  " replayed, %lld torn-tail byte(s) discarded, %lld run(s)"
                  " and %lld range(s) restored from disk, %lld batch(es)"
                  " re-ingested\n\n%s\n\n",
                  recover_dir.c_str(),
                  static_cast<long long>(run.report.replayed_records),
                  static_cast<long long>(run.report.torn_tail_bytes),
                  static_cast<long long>(run.report.recovered_runs),
                  static_cast<long long>(run.report.recovered_ranges),
                  static_cast<long long>(run.report.reingested_batches),
                  run.report.summary().c_str());
      print_stream_fp(run.report);
      if (!run.emitted_sorted) {
        std::printf("VIOLATION: recovered emission not globally sorted"
                    " across %lld keys\n",
                    static_cast<long long>(run.emitted_keys));
        return 1;
      }
      if (run.report.spill_reconcile_failures != 0) {
        std::printf("VIOLATION: spill ledger — %lld reconciliation"
                    " failure(s) after recovery\n",
                    static_cast<long long>(
                        run.report.spill_reconcile_failures));
        return 1;
      }
      if (!out_path.empty() &&
          !write_file(out_path, pack_emitted(run.emitted))) {
        std::fprintf(stderr, "error: could not write %s\n", out_path.c_str());
        return 1;
      }
      if (!json_path.empty() && !write_file(json_path, run.report.json()))
        std::fprintf(stderr, "warning: could not write %s\n",
                     json_path.c_str());
      return 0;
    }
    if (soak) {
      // Default fault pressure: whole-run crashes, torn merges, one
      // comparator-faulted backend, and one mid-stream outage window —
      // every rung of the recovery ladder fires.
      if (cfg.crash_rate == 0) cfg.crash_rate = 0.05;
      if (cfg.tear_rate == 0) cfg.tear_rate = 0.25;
      if (cfg.faulty == 0) cfg.faulty = 1;
      if (!outage_set) {
        const std::int64_t from = cfg.batch_interval * cfg.batches / 4;
        char window[64];
        std::snprintf(window, sizeof window, "0@%lld~%lld",
                      static_cast<long long>(from),
                      static_cast<long long>(2 * from));
        cfg.outage = window;
      }
    }

    StreamRun run = run_stream(args);
    const StreamReport& report = run.report;
    args.chain = report.chain_hash;
    args.hash = report.hash();
    std::printf("streaming sort: %d batches x %lld keys over cycle(%d)^%d,"
                " block=%d, %d ranges, %d backends (%d faulted, %d domains),"
                " budget %lld bytes\n\n%s\n\n",
                cfg.batches, static_cast<long long>(cfg.batch_keys),
                args.size, args.dims, cfg.block, cfg.ranges, cfg.backends,
                cfg.faulty, std::min(cfg.domains, cfg.backends),
                static_cast<long long>(cfg.budget_bytes),
                report.summary().c_str());
    std::printf("%s\n", format_repro(args).c_str());
    print_stream_fp(report);
    if (!out_path.empty() && !write_file(out_path, pack_emitted(run.emitted))) {
      std::fprintf(stderr, "error: could not write %s\n", out_path.c_str());
      return 1;
    }
    if (!json_path.empty() && !write_file(json_path, report.json()))
      std::fprintf(stderr, "warning: could not write %s\n", json_path.c_str());
    if (soak) {
      const int violations = check_invariants(args, run);
      if (violations != 0) {
        std::printf("soak: %d invariant violation(s)\n", violations);
        return 1;
      }
      std::printf("soak: all streaming invariants held — %lld keys,"
                  " high-water %lld/%lld bytes, %lld retries, %lld"
                  " rollbacks\n",
                  static_cast<long long>(report.keys_emitted),
                  static_cast<long long>(report.high_water_bytes),
                  static_cast<long long>(report.budget_bytes),
                  static_cast<long long>(report.retries),
                  static_cast<long long>(report.merge_rollbacks));
    }
    return 0;
  } catch (const DurabilityKill& kill) {
    return report_kill(kill);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s%s\n",
                 !repro_line.empty()    ? "--repro: malformed line: "
                 : !recover_dir.empty() ? "prodsort_stream --recover: "
                                        : "prodsort_stream: ",
                 e.what());
    return 2;
  }
}

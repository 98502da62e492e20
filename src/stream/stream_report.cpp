#include "stream/stream_report.hpp"

#include <sstream>

#include "core/report_fields.hpp"

namespace prodsort {

bool StreamReport::conserved() const {
  return complete && runs_failed == 0 && cert_escapes == 0 &&
         keys_emitted == keys_ingested && sealed_fp == ingest_fp;
}

std::uint64_t StreamReport::hash() const { return HashFold::of(*this); }

std::string StreamReport::json() const {
  JsonWriter out(*this);
  out("conserved", conserved());
  out("hash", hash());
  return out.str();
}

std::string StreamReport::summary() const {
  std::ostringstream out;
  out << "batches=" << batches << " keys=" << keys_ingested << "->"
      << keys_emitted << " runs=" << runs << " attempts=" << run_attempts
      << " failures=" << run_failures << " retries=" << retries
      << " crashes=" << crash_injected << " outage=" << outage_refusals << "/"
      << outage_failures << " sdc=" << sdc_detected
      << " escapes=" << cert_escapes << "\nmemory high-water="
      << high_water_bytes << "/" << budget_bytes
      << " spill-high=" << spill_high_bytes
      << " stalls=" << backpressure_stalls << " forced-cuts=" << forced_cuts
      << " padded=" << padded_keys << "\ndurability journal-records="
      << journal_records << " (compactions=" << journal_compactions
      << ", short-writes=" << journal_short_writes << ", dropped-syncs="
      << journal_dropped_syncs << ") spill-files=" << spill_files
      << " measured-high=" << spill_measured_high_bytes
      << " reconcile-failures=" << spill_reconcile_failures
      << " recovered=" << recovered_runs << "r/" << recovered_ranges
      << "R reingested=" << reingested_batches
      << "\negress ranges=" << ranges_sealed
      << " (empty=" << empty_ranges << ") rollbacks=" << merge_rollbacks
      << " merge-steps=" << merge_steps << " horizon=" << horizon
      << " run-latency p50=" << run_latency.p50 << " p99=" << run_latency.p99
      << "\nconserved=" << (conserved() ? "yes" : "NO")
      << " chain=" << chain_hash << " hash=" << hash();
  return out.str();
}

}  // namespace prodsort

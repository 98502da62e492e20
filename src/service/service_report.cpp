#include "service/service_report.hpp"

#include <algorithm>
#include <sstream>

#include "core/report_fields.hpp"

namespace prodsort {

namespace {

std::int64_t nearest_rank(const std::vector<std::int64_t>& sorted,
                          int percentile) {
  if (sorted.empty()) return 0;
  const std::size_t n = sorted.size();
  // Nearest-rank: ceil(p/100 * n), 1-based.
  std::size_t rank = (static_cast<std::size_t>(percentile) * n + 99) / 100;
  rank = std::clamp<std::size_t>(rank, 1, n);
  return sorted[rank - 1];
}

}  // namespace

LatencyStats latency_stats(std::vector<std::int64_t> latencies) {
  LatencyStats stats;
  stats.count = static_cast<std::int64_t>(latencies.size());
  if (latencies.empty()) return stats;
  std::sort(latencies.begin(), latencies.end());
  stats.p50 = nearest_rank(latencies, 50);
  stats.p95 = nearest_rank(latencies, 95);
  stats.p99 = nearest_rank(latencies, 99);
  stats.max = latencies.back();
  return stats;
}

bool ServiceCounters::conserved() const {
  const std::int64_t terminal = completed_on_time + completed_late +
                                shed_queue_full + shed_deadline + failed;
  if (terminal != offered) return false;
  if (static_cast<std::int64_t>(jobs.size()) != offered) return false;
  for (const JobRecord& job : jobs) {
    if (job.outcome == JobOutcome::kPending) return false;
    const bool completed = job.outcome == JobOutcome::kOnTime ||
                           job.outcome == JobOutcome::kLate;
    if (completed && !job.verified) return false;
  }
  return true;
}

std::uint64_t ServiceReport::hash() const { return HashFold::of(*this); }

std::string ServiceReport::json() const {
  JsonWriter out(*this);
  out("hash", hash());
  return out.str();
}

std::string ServiceReport::summary() const {
  std::ostringstream out;
  out << "offered=" << offered << " on-time=" << completed_on_time
      << " late=" << completed_late << " shed-queue=" << shed_queue_full
      << " shed-deadline=" << shed_deadline << " failed=" << failed
      << " retries=" << retries << " fallback=" << fallback_jobs
      << " degraded=" << degraded_jobs << " verified=" << verified_jobs
      << " sdc=" << sdc_detected << "/" << sdc_failures
      << "\nlatency p50=" << latency.p50 << " p95=" << latency.p95
      << " p99=" << latency.p99 << " max=" << latency.max
      << " goodput=" << goodput << "/kstep horizon=" << horizon
      << " queue-high-water=" << queue_high_water << "\nbackends:";
  for (const BackendHealth& b : backends) {
    out << " [" << b.id << (b.faulted ? "*" : "") << " "
        << to_string(b.breaker) << " att=" << b.attempts
        << " fail=" << b.failures << " sdc=" << b.sdc_detected
        << " trips=" << b.times_opened << "]";
  }
  out << "\nconserved=" << (conserved() ? "yes" : "NO") << " hash=" << hash();
  return out.str();
}

}  // namespace prodsort

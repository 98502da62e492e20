#include "service/router/router_report.hpp"

#include <sstream>

#include "core/report_fields.hpp"

namespace prodsort {

bool RouterReport::conserved() const {
  std::int64_t submitted = 0;
  for (const TenantStats& t : tenants) {
    if (!t.conserved()) return false;
    submitted += t.submitted;
  }
  return submitted == offered && ServiceCounters::conserved();
}

std::uint64_t RouterReport::hash() const { return HashFold::of(*this); }

std::string RouterReport::json() const {
  JsonWriter out(*this);
  out("hash", hash());
  return out.str();
}

std::string RouterReport::summary() const {
  std::ostringstream out;
  out << "offered=" << offered << " on-time=" << completed_on_time
      << " late=" << completed_late << " shed-queue=" << shed_queue_full
      << " shed-deadline=" << shed_deadline << " failed=" << failed
      << " retries=" << retries << " hedged=" << hedged_jobs
      << " failovers=" << failovers << " fallback=" << fallback_jobs
      << " degraded=" << degraded_jobs << " sdc=" << sdc_detected << "/"
      << sdc_failures << "\nlatency p50=" << latency.p50
      << " p95=" << latency.p95 << " p99=" << latency.p99
      << " max=" << latency.max << " goodput=" << goodput
      << "/kstep horizon=" << horizon << "\ntenants:";
  for (const TenantStats& t : tenants) {
    out << " [" << t.name << " sub=" << t.submitted
        << " ok=" << t.completed_on_time + t.completed_late
        << " shed=" << t.shed_queue_full + t.shed_deadline
        << " fail=" << t.failed << "]";
  }
  out << "\npools:";
  for (const PoolHealth& p : pools) {
    out << " [" << p.id << (p.has_domain_faults ? "*" : "")
        << " disp=" << p.dispatched << " fail=" << p.failures
        << " outage=" << p.outage_refusals << "/" << p.outage_failures
        << " ewma=" << p.ewma_micro << (p.degraded ? " DEGRADED" : "") << "]";
  }
  out << "\nconserved=" << (conserved() ? "yes" : "NO") << " hash=" << hash();
  return out.str();
}

}  // namespace prodsort

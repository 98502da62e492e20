#include "service/router/pool_router.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/host_merge.hpp"
#include "core/hashing.hpp"
#include "core/sort_plan.hpp"
#include "service/admission_queue.hpp"
#include "service/event_queue.hpp"

namespace prodsort {

namespace {

// Decision-stream tags (the stream operand of mix64) for the router's
// seed-hashed draws; disjoint from FaultModel's streams by value.
constexpr std::uint64_t kStreamArrival = 0xA11A;
constexpr std::uint64_t kStreamJitter = 0xD34D;
constexpr std::uint64_t kStreamPriority = 0x9407;
constexpr std::uint64_t kStreamPattern = 0x9A77;
constexpr std::uint64_t kStreamKeys = 0x5EED;
constexpr std::uint64_t kStreamProbe = 0x9808;
constexpr std::uint64_t kStreamTenant = 0x7E4A57;

double unit_draw(std::uint64_t seed, std::uint64_t stream, std::uint64_t id) {
  return hash_to_unit(mix64(mix64(seed, stream), id));
}

// Event ids are jobs (-1 for a probe tick); a completion's aux is its
// backend, kFallbackBackend for the host.
enum Kind { kArrival = 0, kCompletion = 1, kRequeue = 2, kProbeTick = 3 };

}  // namespace

PoolRouter::PoolRouter(const ProductGraph& pg, RouterConfig config,
                       std::vector<PoolSpec> pools, const S2Sorter* s2,
                       ParallelExecutor* executor)
    : pg_(&pg),
      config_(std::move(config)),
      s2_(s2),
      executor_(executor),
      ring_(config_.seed,
            static_cast<int>(std::max<std::size_t>(1, pools.size())),
            config_.ring_replicas) {
  if (pools.empty())
    throw std::invalid_argument("pool router needs at least one pool");
  if (!(config_.load > 0))
    throw std::invalid_argument("pool router load must be positive");
  if (config_.jobs < 0)
    throw std::invalid_argument("pool router job count must be >= 0");
  if (config_.retry_budget < 0)
    throw std::invalid_argument("pool router retry budget must be >= 0");
  check_backoff(config_.backoff_base, config_.backoff_cap, "pool router");
  if (!(config_.ewma_alpha > 0) || config_.ewma_alpha > 1)
    throw std::invalid_argument("pool router ewma_alpha must be in (0, 1]");

  if (config_.tenants.empty()) config_.tenants.push_back(TenantSpec{});
  for (const TenantSpec& t : config_.tenants) {
    if (!(t.weight > 0))
      throw std::invalid_argument("tenant weight must be positive: " + t.name);
    if (t.max_in_flight < 1)
      throw std::invalid_argument("tenant max_in_flight must be >= 1: " +
                                  t.name);
    if (t.queue_cap < 1)
      throw std::invalid_argument("tenant queue_cap must be >= 1: " + t.name);
  }

  // Probe the fault-free service time once; arrivals and deadlines are
  // scaled by it so `load` means the same thing on every topology.  The
  // probe is recorded as the plan every backend replays.
  JobSpec probe;
  probe.id = -1;
  probe.key_seed = mix64(config_.seed, kStreamProbe);
  Machine machine(pg, service_job_keys(pg.num_nodes(), probe), executor_);
  SortOptions options;
  options.s2 = s2_;
  plan_ = SortPlan::record(machine, options);
  mean_steps_ = std::max<std::int64_t>(1, machine.cost().exec_steps);

  for (std::size_t pi = 0; pi < pools.size(); ++pi) {
    PoolSpec& spec = pools[pi];
    if (spec.backends.empty())
      throw std::invalid_argument("pool router: every pool needs a backend");
    Pool pool;
    if (!spec.domain_schedule.empty())
      pool.domain = std::make_unique<FaultModel>(
          FaultModel::parse_schedule_string(spec.domain_schedule));
    // Correlated crash bursts: expand once per domain and append the
    // *same* victim set to every member's crash schedule — that shared
    // fate is what makes the pool one fault domain rather than N
    // independently flaky backends.
    std::vector<CrashEvent> correlated;
    if (pool.domain && pool.domain->has_bursts()) {
      pool.domain->expand_bursts(pg.num_nodes());
      correlated = pool.domain->burst_crashes();
    }
    for (const BackendConfig& member : spec.backends) {
      const int global = static_cast<int>(backends_.size());
      BackendConfig bc = member;
      if (!correlated.empty()) {
        FaultConfig fc;
        if (!bc.fault_schedule.empty())
          fc = FaultModel::parse_schedule_string(bc.fault_schedule);
        else
          fc.seed = mix64(pool.domain->config().seed,
                          static_cast<std::uint64_t>(global));
        fc.crash_schedule.insert(fc.crash_schedule.end(), correlated.begin(),
                                 correlated.end());
        bc.fault_schedule = FaultModel(fc).schedule_string();
      }
      backends_.push_back(std::make_unique<SortBackend>(
          pg, global, bc, s2_, executor_, config_.breaker, plan_.get()));
      pool.members.push_back(global);
      pool_of_backend_.push_back(static_cast<int>(pi));
    }
    pools_.push_back(std::move(pool));
  }

  if (config_.adaptive.enabled) {
    if (!config_.adaptive.ledger_json.empty())
      ledger_ = SuspectLedger::from_json(config_.adaptive.ledger_json);
    for (std::size_t i = 0; i < backends_.size(); ++i) {
      AdaptiveCertConfig cert;
      cert.seed = mix64(config_.seed, static_cast<std::uint64_t>(i));
      cert.sdc_budget = config_.adaptive.sdc_budget;
      cert.decay_streak = config_.adaptive.decay_streak;
      controllers_.emplace_back(cert);
    }
  }
}

PoolRouter::~PoolRouter() = default;

RouterReport PoolRouter::run() {
  RouterReport report;
  report.seed = config_.seed;
  report.offered = config_.jobs;
  report.jobs.resize(static_cast<std::size_t>(config_.jobs));

  struct Tenant {
    TenantSpec spec;
    AdmissionQueue queue;
    int in_flight = 0;          ///< placed and not yet resolved/requeued
    std::int64_t submitted = 0;
  };
  std::vector<Tenant> tenants;
  tenants.reserve(config_.tenants.size());
  for (const TenantSpec& spec : config_.tenants)
    tenants.push_back(
        Tenant{spec, AdmissionQueue({config_.policy, spec.queue_cap}), 0, 0});
  double total_weight = 0;
  for (const Tenant& t : tenants) total_weight += t.spec.weight;

  EventQueue events;

  // --- open-loop arrival schedule (pure function of the seed) ----------
  const double pool_rate =
      config_.load * static_cast<double>(backends_.size()) /
      static_cast<double>(mean_steps_);
  std::int64_t clock = 0;
  for (std::int64_t id = 0; id < config_.jobs; ++id) {
    const auto uid = static_cast<std::uint64_t>(id);
    const double u = unit_draw(config_.seed, kStreamArrival, uid);
    const double gap = -std::log(1.0 - u) / pool_rate;
    clock += std::max<std::int64_t>(1, std::llround(gap));

    JobSpec spec;
    spec.id = id;
    spec.arrival = clock;
    const double jitter = 0.5 + unit_draw(config_.seed, kStreamJitter, uid);
    spec.deadline =
        clock + std::max<std::int64_t>(
                    1, std::llround(config_.deadline_slack *
                                    static_cast<double>(mean_steps_) * jitter));
    const double p = unit_draw(config_.seed, kStreamPriority, uid);
    spec.priority = p < 0.2 ? 0 : (p < 0.8 ? 1 : 2);
    spec.pattern =
        static_cast<int>(mix64(mix64(config_.seed, kStreamPattern), uid) % 5);
    spec.key_seed = mix64(mix64(config_.seed, kStreamKeys), uid);

    // Weighted tenant assignment: walk the cumulative weights.
    const double tw =
        unit_draw(config_.seed, kStreamTenant, uid) * total_weight;
    double cum = 0;
    spec.tenant = static_cast<int>(tenants.size()) - 1;
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      cum += tenants[t].spec.weight;
      if (tw < cum) {
        spec.tenant = static_cast<int>(t);
        break;
      }
    }
    ++tenants[static_cast<std::size_t>(spec.tenant)].submitted;

    report.jobs[static_cast<std::size_t>(id)].spec = spec;
    report.jobs[static_cast<std::size_t>(id)].checksum =
        fingerprint_sequence(service_job_keys(pg_->num_nodes(), spec))
            .checksum;
    events.push(spec.arrival, kArrival, id, -1);
  }

  // --- event loop -------------------------------------------------------
  struct InFlight {
    JobSpec job;
    AttemptResult result;
  };
  struct JobState {
    int outstanding = 0;  ///< dispatched attempts not yet completed
    int waves = 0;        ///< dispatch waves (hedges share a wave)
    bool terminal = false;
  };
  std::vector<std::optional<InFlight>> busy(backends_.size());
  std::optional<InFlight> fallback_busy;
  std::vector<JobState> jstate(static_cast<std::size_t>(config_.jobs));
  std::size_t tenant_cursor = 0;
  std::vector<std::int64_t> tmr_attempts(backends_.size(), 0);
  std::vector<std::int64_t> quarantine_attempts(backends_.size(), 0);
  std::vector<char> quarantine_burned(backends_.size(), 0);

  const auto record_of = [&](std::int64_t id) -> JobRecord& {
    return report.jobs[static_cast<std::size_t>(id)];
  };
  const auto shed = [&](const JobSpec& job, JobOutcome outcome) {
    JobRecord& rec = record_of(job.id);
    rec.outcome = outcome;
    if (outcome == JobOutcome::kShedQueueFull) ++report.shed_queue_full;
    else ++report.shed_deadline;
  };
  const auto finish = [&](const JobSpec& job, std::int64_t now, int backend,
                          const AttemptResult& result, bool fallback) {
    JobRecord& rec = record_of(job.id);
    rec.backend = backend;
    rec.fallback = fallback;
    rec.degraded = rec.degraded || result.degraded;
    rec.verified = true;
    rec.completion = now;
    rec.latency = now - job.arrival;
    rec.outcome = now <= job.deadline ? JobOutcome::kOnTime : JobOutcome::kLate;
    if (rec.outcome == JobOutcome::kOnTime) ++report.completed_on_time;
    else ++report.completed_late;
    ++report.verified_jobs;
    if (fallback) ++report.fallback_jobs;
    if (result.degraded) ++report.degraded_jobs;
  };

  /// True while the pool's fault domain is dark; queues the outage-end
  /// wake-up once per window so dispatch resumes the instant it lifts.
  const auto pool_in_outage = [&](Pool& p, std::int64_t now) -> bool {
    const std::int64_t until = p.domain ? p.domain->outage_until(now) : 0;
    if (until == 0) return false;
    if (p.outage_tick != until) {
      p.outage_tick = until;
      events.push(until, kProbeTick, -1, -1);
    }
    return true;
  };

  /// Free member of `p` whose breaker admits a dispatch at `now`, from
  /// the rotating cursor (pick_backend's order).  Returns the member
  /// index within the pool, or -1.
  const auto free_member = [&](Pool& p, std::int64_t now) -> int {
    return pick_backend(
        p.members.size(), p.cursor, now,
        [&](std::size_t mi) -> CircuitBreaker* {
          const auto b = static_cast<std::size_t>(p.members[mi]);
          return busy[b] ? nullptr : &backends_[b]->breaker();
        },
        [](std::size_t) { return false; });
  };

  const auto all_breakers_open = [&]() {
    return std::all_of(backends_.begin(), backends_.end(), [](const auto& b) {
      return b->breaker().state() == BreakerState::kOpen;
    });
  };

  const auto dispatch_to = [&](int pool_id, int member, const JobSpec& job,
                               std::int64_t now) {
    Pool& p = pools_[static_cast<std::size_t>(pool_id)];
    const int b = p.members[static_cast<std::size_t>(member)];
    SortBackend& backend = *backends_[static_cast<std::size_t>(b)];
    backend.breaker().on_dispatch();
    AttemptOptions opts;
    if (config_.adaptive.enabled) {
      const double risk = ledger_.risk(b);
      opts.has_plan = true;
      opts.cert_plan = controllers_[static_cast<std::size_t>(b)].plan(
          static_cast<std::uint64_t>(job.id), risk);
      if (ledger_.suspect(b, config_.adaptive.suspect_threshold)) {
        // Hardening ladder: quarantine the named comparator (route
        // merges around it, ~1x cost) when the attribution is
        // concentrated; selective TMR (3x) only when it is diffuse or
        // a quarantined attempt already let an SDC through.
        std::vector<std::int64_t> nodes;
        if (!quarantine_burned[static_cast<std::size_t>(b)])
          nodes = ledger_.quarantine_nodes(b,
                                           config_.adaptive.quarantine_share,
                                           config_.adaptive.quarantine_hits);
        if (!nodes.empty()) {
          opts.quarantine.reserve(nodes.size());
          for (const std::int64_t node : nodes)
            opts.quarantine.push_back(static_cast<PNode>(node));
          ++quarantine_attempts[static_cast<std::size_t>(b)];
        } else {
          opts.tmr = true;
          ++tmr_attempts[static_cast<std::size_t>(b)];
        }
      }
    }
    const AttemptResult result = backend.run_attempt(job, now, opts);
    if (config_.adaptive.enabled) {
      if (result.quarantined && result.sdc_detected)
        quarantine_burned[static_cast<std::size_t>(b)] = 1;
      ledger_.record_attempt(b, result.sdc_detected, result.suspect_nodes);
      controllers_[static_cast<std::size_t>(b)].record(result.sdc_detected);
      if (result.cert_escalated) ++report.cert_escalations;
    }
    ++p.dispatched;
    ++jstate[static_cast<std::size_t>(job.id)].outstanding;
    busy[static_cast<std::size_t>(b)] = InFlight{job, result};
    events.push(now + result.steps, kCompletion, job.id, b);
    p.cursor = (static_cast<std::size_t>(member) + 1) % p.members.size();
  };

  /// Places one popped job: ring-preference walk (failover), hedged
  /// second dispatch, host fallback, or requeue/shed when nothing
  /// admits it.
  const auto place = [&](const JobSpec& job, std::int64_t now) {
    JobRecord& rec = record_of(job.id);
    JobState& st = jstate[static_cast<std::size_t>(job.id)];
    Tenant& ten = tenants[static_cast<std::size_t>(job.tenant)];
    const std::vector<int> pref = ring_.preference(job.key_seed);

    int chosen_pool = -1;
    int chosen_member = -1;
    for (const int pid : pref) {
      Pool& p = pools_[static_cast<std::size_t>(pid)];
      if (pool_in_outage(p, now)) {
        ++p.outage_refusals;
        if (!config_.failover) break;
        continue;
      }
      const int m = free_member(p, now);
      if (m >= 0) {
        chosen_pool = pid;
        chosen_member = m;
        break;
      }
      if (!config_.failover) break;
    }

    if (chosen_pool < 0) {
      if (all_breakers_open() && config_.fallback.enabled &&
          !fallback_busy.has_value()) {
        // Last resort: the whole federation is breaker-open, sort on
        // the host.  The duration is *measured* — every comparison and
        // key move of the run-sort + k-way merge is counted and priced
        // through kHostMergeLanes (core/host_merge.hpp), so fallback
        // and backend latencies share one clock.
        ++st.waves;
        if (st.waves > 1) ++report.retries;
        ++rec.attempts;
        ++ten.in_flight;
        const PNode n = job.block > 0
                            ? pg_->num_nodes() * static_cast<PNode>(job.block)
                            : pg_->num_nodes();
        const std::vector<Key> input = service_job_keys(n, job);
        const Certifier certifier(input, executor_);
        HostMergeStats stats;
        const std::vector<Key> keys =
            measured_host_sort(input, config_.fallback.run_keys, stats);
        // The host output goes through the same end-to-end certificate
        // path as backend attempts, so a corrupt fallback sort is
        // *detected* (counted in sdc_detected), not just failed.
        const EndToEndCertificate cert = certifier.certify(keys);
        AttemptResult result;
        result.success = cert.pass();
        result.sdc_detected = !cert.pass();
        result.comparisons = stats.comparisons;
        result.steps = std::max<std::int64_t>(1, stats.steps());
        ++jstate[static_cast<std::size_t>(job.id)].outstanding;
        fallback_busy = InFlight{job, result};
        events.push(now + result.steps, kCompletion, job.id, kFallbackBackend);
        return;
      }
      // Nothing admits the job right now (outages, busy backends, or a
      // failover-off primary that is down).  Bounce it back through the
      // queue after a backoff — without consuming a retry wave — unless
      // its deadline has already passed.
      if (now > job.deadline) {
        shed(job, JobOutcome::kShedDeadline);
        return;
      }
      events.push(now + config_.backoff_base, kRequeue, job.id, -1);
      return;
    }

    ++st.waves;
    if (st.waves > 1) ++report.retries;
    ++ten.in_flight;
    if (chosen_pool != pref[0]) ++report.failovers;
    ++rec.attempts;
    dispatch_to(chosen_pool, chosen_member, job, now);

    // Hedged re-dispatch: the placement is suspect — the pool's
    // deadline-miss EWMA is degraded, or an outage displaced the job
    // off its ring primary — so race a second pool; first verified
    // completion wins.
    if (config_.hedging && config_.failover) {
      const bool displaced = chosen_pool != pref[0];
      const bool degraded =
          pools_[static_cast<std::size_t>(chosen_pool)].ewma >
          config_.ewma_degraded;
      if (displaced || degraded) {
        for (const int pid : pref) {
          if (pid == chosen_pool) continue;
          Pool& p = pools_[static_cast<std::size_t>(pid)];
          if (pool_in_outage(p, now)) {
            ++p.outage_refusals;
            continue;
          }
          const int m = free_member(p, now);
          if (m >= 0) {
            ++rec.attempts;
            ++report.hedged_jobs;
            dispatch_to(pid, m, job, now);
            break;
          }
        }
      }
    }
  };

  /// True when place() could make progress for *some* job right now —
  /// gates queue pops so jobs are not churned through requeue events
  /// while every pool refuses (failover on; admissibility is
  /// job-independent because preference() covers every pool).
  const auto any_capacity = [&](std::int64_t now) -> bool {
    bool any = false;
    for (Pool& p : pools_) {
      if (pool_in_outage(p, now)) continue;
      if (free_member(p, now) >= 0) any = true;
    }
    if (any) return true;
    return all_breakers_open() && config_.fallback.enabled &&
           !fallback_busy.has_value();
  };

  const auto dispatch_all = [&](std::int64_t now) {
    bool progress = true;
    while (progress) {
      progress = false;
      for (std::size_t t = 0; t < tenants.size(); ++t) {
        const std::size_t ti = (tenant_cursor + t) % tenants.size();
        Tenant& ten = tenants[ti];
        if (ten.queue.empty()) continue;
        if (ten.in_flight >= ten.spec.max_in_flight) continue;
        if (config_.failover && !any_capacity(now)) return;
        std::vector<JobSpec> expired;
        const std::optional<JobSpec> job = ten.queue.pop(now, &expired);
        for (const JobSpec& e : expired) shed(e, JobOutcome::kShedDeadline);
        if (!job.has_value()) continue;
        place(*job, now);
        progress = true;
        tenant_cursor = (ti + 1) % tenants.size();
      }
    }
  };

  const auto offer = [&](const JobSpec& job, std::int64_t now) {
    Tenant& ten = tenants[static_cast<std::size_t>(job.tenant)];
    const std::optional<JobSpec> victim = ten.queue.offer(job);
    if (victim.has_value()) shed(*victim, JobOutcome::kShedQueueFull);
    dispatch_all(now);
  };

  while (!events.empty()) {
    const EventQueue::Event e = events.pop();
    report.horizon = std::max(report.horizon, e.time);

    switch (e.kind) {
      case kArrival:
      case kRequeue:
        offer(record_of(e.id).spec, e.time);
        break;

      case kProbeTick:
        dispatch_all(e.time);
        break;

      case kCompletion: {
        const int backend = e.aux;
        std::optional<InFlight>& slot =
            backend == kFallbackBackend
                ? fallback_busy
                : busy[static_cast<std::size_t>(backend)];
        const InFlight done = *slot;
        slot.reset();
        JobState& st = jstate[static_cast<std::size_t>(done.job.id)];
        Tenant& ten = tenants[static_cast<std::size_t>(done.job.tenant)];
        AttemptResult result = done.result;

        if (backend != kFallbackBackend) {
          Pool& p = pools_[static_cast<std::size_t>(
              pool_of_backend_[static_cast<std::size_t>(backend)])];
          if (pool_in_outage(p, e.time)) {
            // The domain went dark while this attempt was in flight:
            // its result is lost with the rack, success or not.
            result.success = false;
            ++p.outage_failures;
          }
          if (result.sdc_detected) {
            ++report.sdc_detected;
            if (!result.success) ++report.sdc_failures;
          }
          if (!result.success) ++p.failures;
          CircuitBreaker& breaker =
              backends_[static_cast<std::size_t>(backend)]->breaker();
          const std::int64_t opened_before = breaker.times_opened();
          if (result.success) breaker.record_success();
          else breaker.record_failure(e.time);
          if (breaker.times_opened() > opened_before)
            events.push(breaker.open_until(), kProbeTick, -1, -1);
          const bool miss = !result.success || e.time > done.job.deadline;
          p.ewma = config_.ewma_alpha * (miss ? 1.0 : 0.0) +
                   (1.0 - config_.ewma_alpha) * p.ewma;
        } else if (result.sdc_detected) {
          ++report.sdc_detected;
          if (!result.success) ++report.sdc_failures;
        }

        --st.outstanding;
        if (st.terminal) {
          // Hedge loser of an already-decided job: the backend is
          // freed, the breaker and EWMA were fed, nothing else to do.
          dispatch_all(e.time);
          break;
        }
        if (result.success) {
          st.terminal = true;
          --ten.in_flight;
          finish(done.job, e.time, backend, result,
                 backend == kFallbackBackend);
        } else if (st.outstanding > 0) {
          // A hedge partner is still flying; it decides the job.
        } else if (st.waves <= config_.retry_budget) {
          --ten.in_flight;
          events.push(e.time + retry_backoff(config_.backoff_base,
                                             config_.backoff_cap, st.waves),
                      kRequeue, done.job.id, -1);
        } else {
          --ten.in_flight;
          record_of(done.job.id).outcome = JobOutcome::kFailed;
          record_of(done.job.id).backend = backend;
          ++report.failed;
        }
        dispatch_all(e.time);
        break;
      }
    }
  }

  // --- roll up ----------------------------------------------------------
  std::vector<std::int64_t> latencies;
  std::vector<std::vector<std::int64_t>> tenant_latencies(tenants.size());
  for (const JobRecord& job : report.jobs) {
    if (job.latency < 0) continue;
    latencies.push_back(job.latency);
    tenant_latencies[static_cast<std::size_t>(job.spec.tenant)].push_back(
        job.latency);
  }
  report.latency = latency_stats(std::move(latencies));
  report.goodput =
      report.horizon > 0
          ? 1000.0 * static_cast<double>(report.completed_on_time) /
                static_cast<double>(report.horizon)
          : 0.0;

  for (std::size_t t = 0; t < tenants.size(); ++t) {
    TenantStats stats;
    stats.id = static_cast<int>(t);
    stats.name = tenants[t].spec.name;
    stats.submitted = tenants[t].submitted;
    stats.queue_high_water =
        static_cast<std::int64_t>(tenants[t].queue.high_water());
    stats.latency = latency_stats(std::move(tenant_latencies[t]));
    report.tenants.push_back(std::move(stats));
  }
  for (const JobRecord& job : report.jobs) {
    TenantStats& stats =
        report.tenants[static_cast<std::size_t>(job.spec.tenant)];
    switch (job.outcome) {
      case JobOutcome::kOnTime: ++stats.completed_on_time; break;
      case JobOutcome::kLate: ++stats.completed_late; break;
      case JobOutcome::kShedQueueFull: ++stats.shed_queue_full; break;
      case JobOutcome::kShedDeadline: ++stats.shed_deadline; break;
      case JobOutcome::kFailed: ++stats.failed; break;
      case JobOutcome::kPending: break;  // conserved() will flag it
    }
  }

  for (std::size_t pi = 0; pi < pools_.size(); ++pi) {
    const Pool& pool = pools_[pi];
    PoolHealth health;
    health.id = static_cast<int>(pi);
    health.has_domain_faults = pool.domain != nullptr;
    health.dispatched = pool.dispatched;
    health.failures = pool.failures;
    health.outage_refusals = pool.outage_refusals;
    health.outage_failures = pool.outage_failures;
    health.ewma_micro = std::llround(pool.ewma * 1e6);
    health.degraded = pool.ewma > config_.ewma_degraded;
    for (const int bi : pool.members) {
      const SortBackend& b = *backends_[static_cast<std::size_t>(bi)];
      BackendHealth bh;
      bh.id = b.id();
      bh.faulted = b.has_faults();
      bh.tmr = b.config().tmr;
      bh.attempts = b.attempts();
      bh.failures = b.failures();
      bh.sdc_detected = b.sdc_detected();
      bh.busy_steps = b.totals().exec_steps;
      bh.cert_steps = b.totals().cert_steps;
      bh.crashes = b.totals().crashes;
      bh.times_opened = b.breaker().times_opened();
      bh.breaker = b.breaker().state();
      if (config_.adaptive.enabled) {
        bh.suspect =
            ledger_.suspect(bh.id, config_.adaptive.suspect_threshold);
        bh.tmr_attempts = tmr_attempts[static_cast<std::size_t>(bh.id)];
        bh.quarantine_attempts =
            quarantine_attempts[static_cast<std::size_t>(bh.id)];
        bh.cert_level = static_cast<int>(
            controllers_[static_cast<std::size_t>(bh.id)].current_level(
                ledger_.risk(bh.id)));
        if (const SuspectLedger::BackendEntry* entry = ledger_.entry(bh.id)) {
          bh.sdc_attributed = entry->sdc_detected;
          std::vector<std::pair<std::int64_t, std::int64_t>> nodes(
              entry->node_hits.begin(), entry->node_hits.end());
          std::sort(nodes.begin(), nodes.end(),
                    [](const auto& a, const auto& b2) {
                      if (a.second != b2.second) return a.second > b2.second;
                      return a.first < b2.first;
                    });
          if (nodes.size() > 4) nodes.resize(4);
          bh.sdc_nodes = std::move(nodes);
        }
      }
      health.quarantine_attempts += bh.quarantine_attempts;
      health.tmr_attempts += bh.tmr_attempts;
      report.breaker_transitions += b.breaker().transitions();
      health.backends.push_back(std::move(bh));
    }
    report.pools.push_back(std::move(health));
  }
  if (config_.adaptive.enabled) {
    report.sdc_budget = config_.adaptive.sdc_budget;
    report.ledger_hash = ledger_.state_hash();
  }
  return report;
}

}  // namespace prodsort

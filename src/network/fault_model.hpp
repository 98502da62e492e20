#pragma once

// Deterministic, seed-driven fault injection for the network layer.
//
// The machine model of Section 4 assumes a perfect synchronous fabric;
// this subsystem perturbs it on a reproducible schedule so the sorting
// and routing procedures can be exercised — and hardened — against the
// failures real networks exhibit:
//
//  * permanent link failures — `failed_links` non-cut factor-graph edges
//    are disabled; the packet simulator re-routes around them (BFS on the
//    pruned graph) and reports the resulting path dilation;
//  * transient packet drops — each link transmission is lost with
//    probability `packet_drop_rate`; the simulator retries with bounded
//    backoff;
//  * compare-exchange message loss — each compare-exchange pair is
//    silently skipped with probability `ce_drop_rate` (the multiset of
//    keys is preserved, only the order is perturbed, so the
//    certify-and-repair layer of core/certifier.hpp can recover);
//  * key corruption — a stored key is bit-flipped with probability
//    `key_corrupt_rate` (multiset-breaking: detectable via the checksum
//    certificate, not recoverable by re-sorting);
//  * stragglers — `stragglers` processors run `straggler_factor`x slower;
//    every synchronous phase touching one is charged the slowdown in
//    CostModel::exec_steps;
//  * silent comparator faults — `comparator_schedule` breaks a named
//    processor's comparator over a phase window of the fault clock:
//    stuck-pass-through (the exchange never happens), inverted (min and
//    max swap places), or arbitrary-output (the faulty node's output
//    register takes a deterministic garbage value).  Nothing loud
//    happens — no drop, no crash — which is exactly what defeats the
//    loud-fault detectors; the end-to-end certificate layer in
//    core/certifier.hpp exists to catch these (see docs/FAULTS.md,
//    "Silent faults").
//  * fail-stop node crashes — `crash_schedule` kills a named processor at
//    a named synchronous phase index, discarding its in-memory key (the
//    one fault class that breaks the multiset itself).  A crash is either
//    restartable (the processor reboots empty) or permanent (the node is
//    gone for good and the surviving machine must sort on the degraded
//    topology).  Recovery — partner re-execution, checkpoint rollback,
//    degraded-snake remap — lives in network/checkpoint.hpp and
//    network/recovery.hpp; see docs/FAULTS.md for the escalation ladder.
//
// Determinism: every decision is a pure splitmix64 hash of (seed, stream
// tag, event ids) — see core/hashing.hpp — so a schedule replays
// bit-identically for any thread count, call order, or platform.
// Attaching a FaultModel with all rates zero and no failed links or
// stragglers is behaviorally identical to attaching none.
// Cost: a stream is hashed only when its rate is > 0 or its window
// covers the step; the machines fix each step's StepCoins and
// StepComparatorFaults before the pair loop.

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/hashing.hpp"
#include "core/multiway_merge.hpp"  // Key
#include "graph/graph.hpp"
#include "product/gray_code.hpp"  // PNode

namespace prodsort {

/// One scheduled fail-stop crash: processor `node` dies at the start of
/// synchronous phase `phase` (the machine's fault-step counter) and its
/// in-memory key is discarded.  Restartable crashes reboot the node
/// empty; permanent ones remove it from the topology for good.
struct CrashEvent {
  PNode node = 0;
  std::int64_t phase = 0;
  bool permanent = false;
  friend bool operator==(const CrashEvent&, const CrashEvent&) = default;
};

/// How a silently-broken comparator misbehaves.  The first two are
/// multiset-preserving (keys end up misplaced, never destroyed, so
/// re-sorting repairs them); arbitrary output damages the multiset
/// itself and can only be detected, not repaired in place.
enum class ComparatorFaultKind : std::uint8_t {
  kStuckPassThrough,  ///< the exchange silently never happens
  kInverted,          ///< min and max come out swapped
  kArbitrary,         ///< the faulty node's output is garbage
};

/// One silently-faulty comparator: the comparator at processor `node`
/// misbehaves for every synchronous phase in `[from_phase, until_phase)`
/// of the fault clock (`until_phase == -1` means forever).  Any
/// compare-exchange pair with `node` as an endpoint is affected while
/// the fault is active.
struct ComparatorFault {
  PNode node = 0;
  std::int64_t from_phase = 0;
  std::int64_t until_phase = -1;  ///< exclusive; -1 = permanent
  ComparatorFaultKind kind = ComparatorFaultKind::kStuckPassThrough;
  /// Keys corrupted per faulty merge-split in block mode (arbitrary
  /// kind only; clamped to the block size; ignored — and required to be
  /// 1 — for the other kinds and in single-key mode).
  int burst = 1;
  friend bool operator==(const ComparatorFault&,
                         const ComparatorFault&) = default;
};

/// One pool-wide outage window on the *service* virtual clock: the
/// whole fault domain is down for `[from, until)`.  Dispatch into the
/// domain is refused while the window is active, and attempts that
/// would complete inside it are lost (the sort service's router treats
/// them as failures).  Unlike crashes, an outage names no node — it is
/// the correlated "whole rack went dark" fault class.
struct OutageWindow {
  std::int64_t from = 0;
  std::int64_t until = 0;  ///< exclusive
  friend bool operator==(const OutageWindow&, const OutageWindow&) = default;
};

/// The latest `until` among the windows covering `now`, or `now` itself
/// when none does: an outage is active at `now` iff the result exceeds
/// `now`.
[[nodiscard]] std::int64_t outage_until(std::span<const OutageWindow> windows,
                                        std::int64_t now) noexcept;

/// Parses a per-domain outage schedule ("D@FROM~UNTIL" joined by '+')
/// into one window list per domain.  Throws std::invalid_argument
/// naming the malformed token on junk, a domain outside [0, domains),
/// a negative from, or until <= from.
[[nodiscard]] std::vector<std::vector<OutageWindow>> parse_domain_outages(
    const std::string& schedule, int domains);

/// Inverse of parse_domain_outages (empty string for no windows);
/// parse(format(x)) == x, the round-trip the fuzz tests pin.
[[nodiscard]] std::string format_domain_outages(
    const std::vector<std::vector<OutageWindow>>& windows);

/// One correlated crash burst: `count` distinct seed-hashed processors
/// all fail-stop at fault-clock phase `phase`.  The victims are chosen
/// by expand_bursts() — a pure function of (seed, burst index), so every
/// machine in a fault domain sharing the schedule loses the *same*
/// nodes at the same phase (correlated, not independent, failures).
struct CrashBurst {
  int count = 0;
  std::int64_t phase = 0;
  bool permanent = false;
  friend bool operator==(const CrashBurst&, const CrashBurst&) = default;
};

struct FaultConfig {
  std::uint64_t seed = 1;       ///< root of every decision stream
  double packet_drop_rate = 0;  ///< transient per-transmission loss prob
  double ce_drop_rate = 0;      ///< per-pair compare-exchange loss prob
  double key_corrupt_rate = 0;  ///< per-pair stored-key bit-flip prob
  int failed_links = 0;         ///< permanent non-cut link failures
  int stragglers = 0;           ///< slow processors
  int straggler_factor = 1;     ///< their slowdown multiplier (>= 1)
  int max_retries = 12;         ///< per-hop retransmission budget
  int max_backoff = 8;          ///< retry backoff cap, in steps
  std::vector<CrashEvent> crash_schedule;  ///< fail-stop node crashes
  std::vector<ComparatorFault> comparator_schedule;  ///< silent comparator faults
  std::vector<OutageWindow> outage_schedule;  ///< pool-wide outage windows
  std::vector<CrashBurst> burst_schedule;     ///< correlated crash bursts

  friend bool operator==(const FaultConfig&, const FaultConfig&) = default;
};

/// Injection tallies (what the model actually did, not what it cost —
/// cost lives in CostModel / PacketStats).
struct FaultCounters {
  std::int64_t packet_drops = 0;    ///< transmissions lost in packet_sim
  std::int64_t ce_drops = 0;        ///< compare-exchanges lost
  std::int64_t key_corruptions = 0; ///< keys bit-flipped
  std::int64_t straggler_phases = 0;///< phases slowed by a straggler
  std::int64_t crashes = 0;         ///< fail-stop crash events fired
  std::int64_t comparator_faults = 0;  ///< silently-wrong compare-exchanges
  /// Per-pair fault hashes the Machine evaluated (coins and TMR replica
  /// picks): work accounting, not behaviour, so no report hash reads it.
  std::int64_t decisions = 0;
};

/// One per-pair decision stream at one fault-clock step, with its
/// (seed, stream, step) hash prefix hoisted; never hashes at rate 0.
struct StepCoin {
  double rate = 0;
  std::uint64_t prefix = 0;  ///< mix64(mix64(seed, stream), step)

  [[nodiscard]] bool operator()(std::int64_t pair) const noexcept {
    return rate > 0 &&
           hash_to_unit(mix64(mix64(prefix, static_cast<std::uint64_t>(pair)),
                              0)) < rate;
  }
};

/// The compare-exchange coins of one step: drop(pair) and corrupt(pair)
/// equal FaultModel::drop_compare_exchange / corrupt_key bit for bit.
/// A plain value: build it once per step, read it from any thread.
struct StepCoins {
  StepCoin drop;
  StepCoin corrupt;
};

/// The silent comparator faults active at one fault-clock step: a
/// non-owning view of the schedule, filtered in at() to the entries
/// whose [from_phase, until_phase) window covers `step`.  The view
/// starts at the first covering entry, so it is empty exactly when no
/// window covers the step.  A plain value that owns nothing: building
/// it per step allocates nothing.  It borrows the schedule of the
/// FaultModel that built it.
struct StepComparatorFaults {
  std::span<const ComparatorFault> schedule;
  std::int64_t step = 0;

  /// True when `f`'s window covers fault-clock `step`.
  [[nodiscard]] static bool covers(const ComparatorFault& f,
                                   std::int64_t step) noexcept {
    return step >= f.from_phase &&
           (f.until_phase == -1 || step < f.until_phase);
  }

  [[nodiscard]] bool empty() const noexcept { return schedule.empty(); }

  /// The fault at `node` (the earliest covering entry), or nullptr.
  [[nodiscard]] const ComparatorFault* at(PNode node) const noexcept {
    for (const ComparatorFault& f : schedule)
      if (f.node == node && covers(f, step)) return &f;
    return nullptr;
  }

  /// The fault that hijacks pair (low, high) — the lower endpoint's when
  /// both are faulty — or nullptr.
  [[nodiscard]] const ComparatorFault* hit(PNode low,
                                           PNode high) const noexcept {
    if (empty()) return nullptr;
    const ComparatorFault* f = at(low);
    return f != nullptr ? f : at(high);
  }
};

/// Thrown by the machine when a fired crash cannot be absorbed in-phase
/// (the lost key has no live copy in the fabric): the caller must
/// escalate — roll back to a checkpoint or remap to the degraded
/// topology (network/recovery.hpp drives that ladder).
class CrashInterrupt : public std::runtime_error {
 public:
  CrashInterrupt(PNode node, std::int64_t phase, bool permanent);
  [[nodiscard]] PNode node() const noexcept { return node_; }
  [[nodiscard]] std::int64_t phase() const noexcept { return phase_; }
  [[nodiscard]] bool permanent() const noexcept { return permanent_; }

 private:
  PNode node_;
  std::int64_t phase_;
  bool permanent_;
};

class FaultModel {
 public:
  explicit FaultModel(const FaultConfig& config = {});

  [[nodiscard]] const FaultConfig& config() const noexcept { return config_; }
  [[nodiscard]] const FaultCounters& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] FaultCounters& counters() noexcept { return counters_; }

  /// Deterministically disables `config().failed_links` edges of `g`,
  /// considering edges in seed-hashed order and skipping any whose
  /// removal (on top of the already-failed set) would disconnect the
  /// graph — so the surviving network always stays connected.  Replaces
  /// any previously failed set.
  void fail_links(const Graph& g);
  [[nodiscard]] bool link_failed(NodeId a, NodeId b) const noexcept;
  [[nodiscard]] const std::vector<std::pair<NodeId, NodeId>>& failed_edges()
      const noexcept {
    return failed_;
  }

  /// Deterministically marks `config().stragglers` of `num_nodes`
  /// processors as stragglers.  Replaces any previous selection.
  void select_stragglers(PNode num_nodes);
  [[nodiscard]] bool is_straggler(PNode node) const noexcept {
    return node >= 0 && static_cast<std::size_t>(node) < straggler_.size() &&
           straggler_[static_cast<std::size_t>(node)] != 0;
  }
  [[nodiscard]] const std::vector<PNode>& straggler_nodes() const noexcept {
    return straggler_nodes_;
  }

  // Pure decision streams (const, thread-safe, call-order independent).
  // Each returns false without hashing when its rate is 0.
  [[nodiscard]] bool drop_packet(std::int64_t packet, std::int64_t hop,
                                 int attempt) const noexcept;
  [[nodiscard]] bool drop_compare_exchange(std::int64_t step,
                                           std::int64_t pair) const noexcept;
  [[nodiscard]] bool corrupt_key(std::int64_t step,
                                 std::int64_t pair) const noexcept;
  /// The corrupted replacement for `key` (a deterministic bit flip).
  [[nodiscard]] Key corrupted_value(std::int64_t step, std::int64_t pair,
                                    Key key) const noexcept;

  /// The ce-drop and key-corrupt coins of fault-clock `step`.
  [[nodiscard]] StepCoins step_coins(std::int64_t step) const noexcept;

  /// True iff any compute-side fault (drops, corruption, stragglers,
  /// silent comparator faults) is configured: the phase observer's
  /// "perturbed" flag.  What can fire is decided per step (step_coins).
  [[nodiscard]] bool perturbs_compute() const noexcept {
    return config_.ce_drop_rate > 0 || config_.key_corrupt_rate > 0 ||
           config_.stragglers > 0 || !config_.comparator_schedule.empty();
  }

  // --- silent comparator faults -------------------------------------------

  [[nodiscard]] bool has_comparator_faults() const noexcept {
    return !config_.comparator_schedule.empty();
  }

  /// The comparator faults active during fault-clock `phase`.
  [[nodiscard]] StepComparatorFaults comparator_faults(
      std::int64_t phase) const noexcept;

  /// The deterministic garbage an arbitrary-output comparator emits —
  /// derived from (seed, node, phase, pair) so the value is stable
  /// across thread counts and almost surely outside the input multiset.
  [[nodiscard]] Key comparator_garbage(PNode node, std::int64_t phase,
                                       std::int64_t pair) const noexcept;

  /// Which of the three TMR replicas a faulty comparator at `node`
  /// occupies (0..2, seed-hashed per node).  TMR is *spatial*
  /// redundancy: one physical fault corrupts one replica, so majority
  /// voting masks any single faulty comparator per pair; two faulty
  /// endpoints on distinct replicas can still outvote the healthy one.
  /// Hashed only for an endpoint with an active comparator fault.
  [[nodiscard]] int faulty_replica(PNode node) const noexcept;

  // --- correlated faults (fault domains) ---------------------------------

  [[nodiscard]] bool has_outages() const noexcept {
    return !config_.outage_schedule.empty();
  }

  /// True iff any scheduled outage window covers virtual time `now`.
  [[nodiscard]] bool outage_active(std::int64_t now) const noexcept;

  /// Virtual time the outage covering `now` ends (0 when none is
  /// active); with overlapping windows, the latest `until` wins.
  [[nodiscard]] std::int64_t outage_until(std::int64_t now) const noexcept;

  [[nodiscard]] bool has_bursts() const noexcept {
    return !config_.burst_schedule.empty();
  }

  /// Expands every CrashBurst into `count` distinct CrashEvents over
  /// `num_nodes` processors (seed-hashed victim selection, like
  /// select_stragglers — a pure function of the config, so every fault
  /// domain member sharing the schedule loses the same nodes).  The
  /// expanded events feed crash_due()/take_crash() alongside the
  /// explicit crash schedule.  Replaces any previous expansion; call it
  /// before the first phase, like select_stragglers.
  void expand_bursts(PNode num_nodes);
  [[nodiscard]] const std::vector<CrashEvent>& burst_crashes() const noexcept {
    return burst_crashes_;
  }

  // --- fail-stop crashes -------------------------------------------------

  [[nodiscard]] bool has_crashes() const noexcept {
    return !config_.crash_schedule.empty() || !burst_crashes_.empty();
  }

  /// True iff a not-yet-fired crash is scheduled for `phase` (a const
  /// peek — the machine uses it to flag the phase as perturbed before
  /// firing anything).
  [[nodiscard]] bool crash_due(std::int64_t phase) const noexcept;

  /// The next not-yet-fired crash scheduled for `phase`, marking it
  /// fired; nullopt when none is due.  The machine calls this once per
  /// synchronous phase (looping while events remain for that phase).
  [[nodiscard]] std::optional<CrashEvent> take_crash(std::int64_t phase);

  /// Marks `node` dead (fail-stop: its key is gone).  Idempotent.
  void kill(PNode node);
  /// Reboots a restartable node: alive again, memory empty.
  void restart(PNode node);
  [[nodiscard]] bool is_dead(PNode node) const noexcept;
  [[nodiscard]] bool has_dead_nodes() const noexcept {
    return !dead_nodes_.empty();
  }
  /// Currently dead processors, ascending.
  [[nodiscard]] const std::vector<PNode>& dead_nodes() const noexcept {
    return dead_nodes_;
  }

  /// The deterministic garbage value a crashed node's memory decays to —
  /// derived from (seed, node, phase) so tests can prove recovery never
  /// reads the lost key.
  [[nodiscard]] Key crash_garbage(PNode node, std::int64_t phase) const noexcept;

  /// Re-arms the model for a fresh trial: zeroes the counters, un-fires
  /// every crash event, and revives all dead nodes.  The deterministic
  /// selections (failed links, stragglers) are kept — they are pure
  /// functions of the config and would re-derive identically.
  void reset();

  /// Machine-readable schedule summary for repro lines, e.g.
  /// "seed=5,drop=0.001,ce=0.001,corrupt=0,links=1,stragglers=1x4,
  /// crashes=3@17+40@200P,comparators=5@2~9I+7@0A" (P marks a permanent
  /// crash; comparator entries are node@from[~until]kind[xburst] with
  /// kind S = stuck-pass-through, I = inverted, A = arbitrary output,
  /// no ~until meaning permanent, and an optional xB suffix — valid
  /// only after A — naming the block-mode corruption burst).  The
  /// correlated layer appends ",outages=from~until+..." (service-clock
  /// windows) and ",bursts=count@phase[P]+..." (correlated fail-stop
  /// bursts).  Round-trips through parse_schedule_string.
  [[nodiscard]] std::string schedule_string() const;

  /// Inverse of schedule_string: rebuilds the FaultConfig from a
  /// schedule summary, so a FAULT-REPRO line can be replayed verbatim
  /// (prodsort_stress --repro).  Unknown fields and malformed or
  /// truncated numeric tokens throw std::invalid_argument naming the
  /// field and the offending token — a corrupted repro line never
  /// surfaces as a bare std::stod/std::stoi exception.
  [[nodiscard]] static FaultConfig parse_schedule_string(
      const std::string& schedule);

 private:
  FaultConfig config_;
  FaultCounters counters_;
  std::vector<std::pair<NodeId, NodeId>> failed_;
  std::vector<char> straggler_;       ///< per-node flag
  std::vector<PNode> straggler_nodes_;
  std::vector<char> crash_fired_;     ///< per-schedule-entry fired flag
  std::vector<PNode> dead_nodes_;     ///< currently dead, ascending
  std::vector<CrashEvent> burst_crashes_;  ///< expanded burst victims
  std::vector<char> burst_fired_;     ///< per-expanded-event fired flag
};

}  // namespace prodsort

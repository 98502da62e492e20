#include "network/fault_model.hpp"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "core/hashing.hpp"
#include "graph/graph_algos.hpp"

namespace prodsort {

namespace {

// Stream tags keep the decision families statistically independent even
// when their event ids coincide.
enum Stream : std::uint64_t {
  kPacketDrop = 0x70616b64,   // "pakd"
  kCeDrop = 0x63656472,       // "cedr"
  kKeyCorrupt = 0x6b657963,   // "keyc"
  kCorruptBit = 0x62697463,   // "bitc"
  kLinkOrder = 0x6c6e6b6f,    // "lnko"
  kStragglerOrder = 0x73747261,  // "stra"
  kCrashGarbage = 0x63726173,    // "cras"
  kComparatorGarbage = 0x636d7067,  // "cmpg"
  kTmrReplica = 0x746d7272,         // "tmrr"
  kBurstOrder = 0x62757273,         // "burs"
};

char comparator_kind_char(ComparatorFaultKind kind) {
  switch (kind) {
    case ComparatorFaultKind::kStuckPassThrough: return 'S';
    case ComparatorFaultKind::kInverted: return 'I';
    case ComparatorFaultKind::kArbitrary: return 'A';
  }
  return '?';
}

// The (seed, stream, a) prefix every decision of that stream starts from.
std::uint64_t stream_prefix(std::uint64_t seed, Stream stream,
                            std::uint64_t a) {
  return mix64(mix64(seed, static_cast<std::uint64_t>(stream)), a);
}

std::uint64_t decision(std::uint64_t seed, Stream stream, std::uint64_t a,
                       std::uint64_t b, std::uint64_t c = 0) {
  return mix64(mix64(stream_prefix(seed, stream, a), b), c);
}

// The coin of a per-pair stream at `step`; a zero-rate coin never reads
// its prefix, so it skips the hashing.
StepCoin step_coin(std::uint64_t seed, double rate, Stream stream,
                   std::int64_t step) {
  return {rate, rate > 0 ? stream_prefix(seed, stream,
                                         static_cast<std::uint64_t>(step))
                         : 0};
}

// Processors 0..num_nodes-1 ordered by `hash(node)`, ties by id: the
// deterministic draw order of stragglers and crash-burst victims.
template <class Hash>
std::vector<PNode> hashed_order(PNode num_nodes, Hash hash) {
  std::vector<PNode> order(static_cast<std::size_t>(num_nodes));
  std::iota(order.begin(), order.end(), PNode{0});
  std::sort(order.begin(), order.end(), [&](PNode x, PNode y) {
    const std::uint64_t hx = hash(x);
    const std::uint64_t hy = hash(y);
    return hx != hy ? hx < hy : x < y;
  });
  return order;
}

// Numeric parsing for parse_schedule_string.  std::stod/std::stoi throw
// bare std::invalid_argument / std::out_of_range with no context; a
// truncated or hand-edited FAULT-REPRO line must instead fail with a
// message naming the field and the offending token, and trailing junk
// ("0.1x", "3seven") must be rejected rather than silently ignored.

[[noreturn]] void bad_token(const char* field, const std::string& value) {
  throw std::invalid_argument("malformed schedule field '" +
                              std::string(field) + "': bad token '" + value +
                              "'");
}

// Runs `parse` (a std::sto* call reporting how many characters it used)
// on the whole token.
template <class Parse>
auto parse_token(const char* field, const std::string& value, Parse parse) {
  try {
    std::size_t used = 0;
    const auto v = parse(value, &used);
    if (used != value.size()) bad_token(field, value);
    return v;
  } catch (const std::invalid_argument&) {
    bad_token(field, value);
  } catch (const std::out_of_range&) {
    bad_token(field, value);
  }
}

double parse_rate(const char* field, const std::string& value) {
  return parse_token(field, value, [](const std::string& v, std::size_t* used) {
    return std::stod(v, used);
  });
}

long long parse_count(const char* field, const std::string& value) {
  return parse_token(field, value, [](const std::string& v, std::size_t* used) {
    return std::stoll(v, used);
  });
}

std::uint64_t parse_seed(const char* field, const std::string& value) {
  // std::stoull accepts a leading '-' and wraps modulo 2^64; a negative
  // seed token is junk, not a huge seed.
  if (!value.empty() && value.front() == '-') bad_token(field, value);
  return parse_token(field, value, [](const std::string& v, std::size_t* used) {
    return std::stoull(v, used);
  });
}

// A whole base-10 integer: no blanks, no '+', no suffix.
bool parse_i64(std::string_view text, std::int64_t& value) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  return ec == std::errc{} && ptr == end;
}

// One outage window, "FROM~UNTIL" with 0 <= FROM < UNTIL: the window
// grammar of a fault schedule's outages= list and of a domain outage
// token alike.
bool parse_window(std::string_view text, OutageWindow& w) {
  const std::size_t tilde = text.find('~');
  return tilde != std::string_view::npos &&
         parse_i64(text.substr(0, tilde), w.from) &&
         parse_i64(text.substr(tilde + 1), w.until) && w.from >= 0 &&
         w.until > w.from;
}

}  // namespace

CrashInterrupt::CrashInterrupt(PNode node, std::int64_t phase, bool permanent)
    : std::runtime_error("fail-stop crash: node " + std::to_string(node) +
                         " at phase " + std::to_string(phase) +
                         (permanent ? " (permanent)" : " (restartable)")),
      node_(node),
      phase_(phase),
      permanent_(permanent) {}

FaultModel::FaultModel(const FaultConfig& config) : config_(config) {
  if (config_.straggler_factor < 1)
    throw std::invalid_argument("straggler_factor must be >= 1");
  if (config_.failed_links < 0 || config_.stragglers < 0 ||
      config_.max_retries < 1 || config_.max_backoff < 0)
    throw std::invalid_argument("negative fault-config parameter");
  for (const CrashEvent& c : config_.crash_schedule)
    if (c.node < 0 || c.phase < 0)
      throw std::invalid_argument("crash event with negative node or phase");
  for (const ComparatorFault& f : config_.comparator_schedule) {
    if (f.node < 0 || f.from_phase < 0)
      throw std::invalid_argument(
          "comparator fault with negative node or phase");
    if (f.until_phase != -1 && f.until_phase <= f.from_phase)
      throw std::invalid_argument(
          "comparator fault with empty phase window");
    if (f.burst < 1)
      throw std::invalid_argument("comparator fault with burst < 1");
    if (f.burst > 1 && f.kind != ComparatorFaultKind::kArbitrary)
      throw std::invalid_argument(
          "comparator burst is only meaningful for arbitrary-output faults");
  }
  for (const OutageWindow& w : config_.outage_schedule)
    if (w.from < 0 || w.until <= w.from)
      throw std::invalid_argument(
          "outage window with negative start or non-positive width");
  for (const CrashBurst& b : config_.burst_schedule)
    if (b.count < 1 || b.phase < 0)
      throw std::invalid_argument(
          "crash burst with empty victim count or negative phase");
  crash_fired_.assign(config_.crash_schedule.size(), 0);
}

std::int64_t outage_until(std::span<const OutageWindow> windows,
                          std::int64_t now) noexcept {
  std::int64_t until = now;
  for (const OutageWindow& w : windows)
    if (w.from <= now && now < w.until) until = std::max(until, w.until);
  return until;
}

std::vector<std::vector<OutageWindow>> parse_domain_outages(
    const std::string& schedule, int domains) {
  if (domains < 1)
    throw std::invalid_argument("parse_domain_outages: domains < 1");
  std::vector<std::vector<OutageWindow>> windows(
      static_cast<std::size_t>(domains));
  if (schedule.empty()) return windows;
  for (std::size_t pos = 0; pos <= schedule.size();) {
    const std::size_t next = std::min(schedule.find('+', pos), schedule.size());
    const std::string token = schedule.substr(pos, next - pos);
    pos = next + 1;
    const std::string_view text(token);
    const std::size_t at = text.find('@');
    std::int64_t domain = 0;
    OutageWindow w;
    if (at == std::string_view::npos ||
        !parse_i64(text.substr(0, at), domain) ||
        !parse_window(text.substr(at + 1), w))
      throw std::invalid_argument("malformed outage token '" + token +
                                  "': want D@FROM~UNTIL, 0 <= FROM < UNTIL");
    if (domain < 0 || domain >= domains)
      throw std::invalid_argument("malformed outage token '" + token +
                                  "': domain out of range");
    windows[static_cast<std::size_t>(domain)].push_back(w);
  }
  return windows;
}

std::string format_domain_outages(
    const std::vector<std::vector<OutageWindow>>& windows) {
  std::string out;
  for (std::size_t d = 0; d < windows.size(); ++d) {
    for (const OutageWindow& w : windows[d]) {
      if (!out.empty()) out += '+';
      char buf[96];
      std::snprintf(buf, sizeof buf, "%zu@%" PRId64 "~%" PRId64, d, w.from,
                    w.until);
      out += buf;
    }
  }
  return out;
}

bool FaultModel::outage_active(std::int64_t now) const noexcept {
  return prodsort::outage_until(config_.outage_schedule, now) > now;
}

std::int64_t FaultModel::outage_until(std::int64_t now) const noexcept {
  const std::int64_t until =
      prodsort::outage_until(config_.outage_schedule, now);
  return until > now ? until : 0;
}

void FaultModel::expand_bursts(PNode num_nodes) {
  burst_crashes_.clear();
  for (std::size_t b = 0; b < config_.burst_schedule.size(); ++b) {
    const CrashBurst& burst = config_.burst_schedule[b];
    // Victim selection mirrors select_stragglers: seed-hashed total
    // order over the processors, take the prefix.  The burst index is a
    // stream operand so two bursts at the same phase hit different (but
    // individually deterministic) victim sets.
    const int want = static_cast<int>(std::min<PNode>(burst.count, num_nodes));
    const std::vector<PNode> order = hashed_order(num_nodes, [&](PNode v) {
      return decision(config_.seed, kBurstOrder, static_cast<std::uint64_t>(b),
                      static_cast<std::uint64_t>(v));
    });
    for (int i = 0; i < want; ++i)
      burst_crashes_.push_back(
          {order[static_cast<std::size_t>(i)], burst.phase, burst.permanent});
  }
  burst_fired_.assign(burst_crashes_.size(), 0);
}

void FaultModel::fail_links(const Graph& g) {
  failed_.clear();
  if (config_.failed_links == 0) return;
  if (!is_connected(g))
    throw std::invalid_argument("fail_links requires a connected graph");

  // Consider edges in seed-hashed order; keep an edge failed only if the
  // surviving graph stays connected (the failure set never isolates a
  // node, so every destination remains reachable by re-routing).
  std::vector<std::size_t> order(g.edges().size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return decision(config_.seed, kLinkOrder, a, 0) <
           decision(config_.seed, kLinkOrder, b, 0);
  });

  for (const std::size_t e : order) {
    if (static_cast<int>(failed_.size()) >= config_.failed_links) break;
    const auto candidate = g.edges()[e];
    Graph pruned(g.num_nodes());
    for (const auto& [a, b] : g.edges()) {
      if (std::pair{a, b} == candidate) continue;
      bool already_failed = false;
      for (const auto& f : failed_)
        if (f == std::pair{a, b}) already_failed = true;
      if (!already_failed) pruned.add_edge(a, b);
    }
    if (is_connected(pruned)) failed_.push_back(candidate);
  }
}

bool FaultModel::link_failed(NodeId a, NodeId b) const noexcept {
  if (a > b) std::swap(a, b);
  for (const auto& f : failed_)
    if (f.first == a && f.second == b) return true;
  return false;
}

void FaultModel::select_stragglers(PNode num_nodes) {
  straggler_.assign(static_cast<std::size_t>(num_nodes), 0);
  straggler_nodes_.clear();
  const int want = std::min<PNode>(config_.stragglers, num_nodes);
  if (want == 0) return;
  const std::vector<PNode> order = hashed_order(num_nodes, [&](PNode v) {
    return decision(config_.seed, kStragglerOrder,
                    static_cast<std::uint64_t>(v), 0);
  });
  for (int i = 0; i < want; ++i) {
    straggler_[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] = 1;
    straggler_nodes_.push_back(order[static_cast<std::size_t>(i)]);
  }
  std::sort(straggler_nodes_.begin(), straggler_nodes_.end());
}

bool FaultModel::drop_packet(std::int64_t packet, std::int64_t hop,
                             int attempt) const noexcept {
  const double rate = config_.packet_drop_rate;
  return rate > 0 && hash_to_unit(decision(config_.seed, kPacketDrop,
                                           static_cast<std::uint64_t>(packet),
                                           static_cast<std::uint64_t>(hop),
                                           static_cast<std::uint64_t>(
                                               attempt))) < rate;
}

bool FaultModel::drop_compare_exchange(std::int64_t step,
                                       std::int64_t pair) const noexcept {
  return step_coin(config_.seed, config_.ce_drop_rate, kCeDrop, step)(pair);
}

bool FaultModel::corrupt_key(std::int64_t step,
                             std::int64_t pair) const noexcept {
  return step_coin(config_.seed, config_.key_corrupt_rate, kKeyCorrupt,
                   step)(pair);
}

StepCoins FaultModel::step_coins(std::int64_t step) const noexcept {
  return {step_coin(config_.seed, config_.ce_drop_rate, kCeDrop, step),
          step_coin(config_.seed, config_.key_corrupt_rate, kKeyCorrupt, step)};
}

Key FaultModel::corrupted_value(std::int64_t step, std::int64_t pair,
                                Key key) const noexcept {
  const std::uint64_t h =
      decision(config_.seed, kCorruptBit, static_cast<std::uint64_t>(step),
               static_cast<std::uint64_t>(pair));
  // Flip one low-ish bit: the corrupted key stays in Key's range but the
  // multiset checksum changes with certainty.
  return key ^ (Key{1} << (h % 48));
}

StepComparatorFaults FaultModel::comparator_faults(
    std::int64_t phase) const noexcept {
  const std::span<const ComparatorFault> schedule = config_.comparator_schedule;
  for (std::size_t i = 0; i < schedule.size(); ++i)
    if (StepComparatorFaults::covers(schedule[i], phase))
      return {schedule.subspan(i), phase};
  return {};
}

Key FaultModel::comparator_garbage(PNode node, std::int64_t phase,
                                   std::int64_t pair) const noexcept {
  // Like crash_garbage: a value the input multiset almost surely never
  // held, so the fingerprint certificate flags the output with certainty.
  return static_cast<Key>(
      decision(config_.seed, kComparatorGarbage,
               static_cast<std::uint64_t>(node),
               static_cast<std::uint64_t>(phase),
               static_cast<std::uint64_t>(pair)) >>
      1);
}

int FaultModel::faulty_replica(PNode node) const noexcept {
  return static_cast<int>(
      decision(config_.seed, kTmrReplica, static_cast<std::uint64_t>(node), 0) %
      3);
}

bool FaultModel::crash_due(std::int64_t phase) const noexcept {
  for (std::size_t i = 0; i < config_.crash_schedule.size(); ++i)
    if (crash_fired_[i] == 0 && config_.crash_schedule[i].phase == phase)
      return true;
  for (std::size_t i = 0; i < burst_crashes_.size(); ++i)
    if (burst_fired_[i] == 0 && burst_crashes_[i].phase == phase) return true;
  return false;
}

std::optional<CrashEvent> FaultModel::take_crash(std::int64_t phase) {
  for (std::size_t i = 0; i < config_.crash_schedule.size(); ++i) {
    if (crash_fired_[i] != 0) continue;
    if (config_.crash_schedule[i].phase != phase) continue;
    crash_fired_[i] = 1;
    ++counters_.crashes;
    return config_.crash_schedule[i];
  }
  // Expanded burst victims fire after the explicit schedule — a stable
  // order, so replay is bit-identical.
  for (std::size_t i = 0; i < burst_crashes_.size(); ++i) {
    if (burst_fired_[i] != 0) continue;
    if (burst_crashes_[i].phase != phase) continue;
    burst_fired_[i] = 1;
    ++counters_.crashes;
    return burst_crashes_[i];
  }
  return std::nullopt;
}

void FaultModel::kill(PNode node) {
  const auto it = std::lower_bound(dead_nodes_.begin(), dead_nodes_.end(), node);
  if (it == dead_nodes_.end() || *it != node) dead_nodes_.insert(it, node);
}

void FaultModel::restart(PNode node) {
  const auto it = std::lower_bound(dead_nodes_.begin(), dead_nodes_.end(), node);
  if (it != dead_nodes_.end() && *it == node) dead_nodes_.erase(it);
}

bool FaultModel::is_dead(PNode node) const noexcept {
  return std::binary_search(dead_nodes_.begin(), dead_nodes_.end(), node);
}

Key FaultModel::crash_garbage(PNode node, std::int64_t phase) const noexcept {
  // Decayed memory: a value the input multiset almost surely never held,
  // so any recovery path that "uses" the dead key fails verification.
  return static_cast<Key>(
      decision(config_.seed, kCrashGarbage, static_cast<std::uint64_t>(node),
               static_cast<std::uint64_t>(phase)) >>
      1);
}

void FaultModel::reset() {
  counters_ = FaultCounters{};
  std::fill(crash_fired_.begin(), crash_fired_.end(), 0);
  std::fill(burst_fired_.begin(), burst_fired_.end(), 0);
  dead_nodes_.clear();
  // The burst expansion itself is kept: it is a pure function of the
  // config and num_nodes and would re-derive identically.
}

std::string FaultModel::schedule_string() const {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "seed=%llu,drop=%g,ce=%g,corrupt=%g,links=%d,stragglers=%dx%d",
                static_cast<unsigned long long>(config_.seed),
                config_.packet_drop_rate, config_.ce_drop_rate,
                config_.key_corrupt_rate, config_.failed_links,
                config_.stragglers, config_.straggler_factor);
  std::string out = buf;
  if (!config_.crash_schedule.empty()) {
    out += ",crashes=";
    for (std::size_t i = 0; i < config_.crash_schedule.size(); ++i) {
      const CrashEvent& c = config_.crash_schedule[i];
      if (i != 0) out += '+';
      out += std::to_string(c.node) + "@" + std::to_string(c.phase);
      if (c.permanent) out += 'P';
    }
  }
  if (!config_.comparator_schedule.empty()) {
    out += ",comparators=";
    for (std::size_t i = 0; i < config_.comparator_schedule.size(); ++i) {
      const ComparatorFault& f = config_.comparator_schedule[i];
      if (i != 0) out += '+';
      out += std::to_string(f.node) + "@" + std::to_string(f.from_phase);
      if (f.until_phase != -1) {
        out += '~';
        out += std::to_string(f.until_phase);
      }
      out += comparator_kind_char(f.kind);
      if (f.burst > 1) {
        out += 'x';
        out += std::to_string(f.burst);
      }
    }
  }
  if (!config_.outage_schedule.empty()) {
    out += ",outages=";
    for (std::size_t i = 0; i < config_.outage_schedule.size(); ++i) {
      const OutageWindow& w = config_.outage_schedule[i];
      if (i != 0) out += '+';
      out += std::to_string(w.from) + "~" + std::to_string(w.until);
    }
  }
  if (!config_.burst_schedule.empty()) {
    out += ",bursts=";
    for (std::size_t i = 0; i < config_.burst_schedule.size(); ++i) {
      const CrashBurst& b = config_.burst_schedule[i];
      if (i != 0) out += '+';
      out += std::to_string(b.count) + "@" + std::to_string(b.phase);
      if (b.permanent) out += 'P';
    }
  }
  return out;
}

FaultConfig FaultModel::parse_schedule_string(const std::string& schedule) {
  FaultConfig config;
  std::size_t pos = 0;
  while (pos < schedule.size()) {
    const std::size_t comma = schedule.find(',', pos);
    const std::string field = schedule.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    pos = comma == std::string::npos ? schedule.size() : comma + 1;

    const std::size_t eq = field.find('=');
    if (eq == std::string::npos)
      throw std::invalid_argument("schedule field without '=': " + field);
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);

    if (key == "seed") {
      config.seed = parse_seed("seed", value);
    } else if (key == "drop") {
      config.packet_drop_rate = parse_rate("drop", value);
    } else if (key == "ce") {
      config.ce_drop_rate = parse_rate("ce", value);
    } else if (key == "corrupt") {
      config.key_corrupt_rate = parse_rate("corrupt", value);
    } else if (key == "links") {
      config.failed_links =
          static_cast<int>(parse_count("links", value));
    } else if (key == "stragglers") {
      const std::size_t x = value.find('x');
      if (x == std::string::npos) bad_token("stragglers", value);
      config.stragglers =
          static_cast<int>(parse_count("stragglers", value.substr(0, x)));
      config.straggler_factor =
          static_cast<int>(parse_count("stragglers", value.substr(x + 1)));
    } else if (key == "crashes") {
      // An empty list or a dangling '+' separator is a truncated
      // schedule, not a shorter one.
      if (value.empty() || value.back() == '+') bad_token("crashes", value);
      std::size_t at = 0;
      while (at < value.size()) {
        const std::size_t plus = value.find('+', at);
        std::string entry = value.substr(
            at, plus == std::string::npos ? std::string::npos : plus - at);
        at = plus == std::string::npos ? value.size() : plus + 1;
        CrashEvent c;
        if (!entry.empty() && entry.back() == 'P') {
          c.permanent = true;
          entry.pop_back();
        }
        const std::size_t sep = entry.find('@');
        if (sep == std::string::npos) bad_token("crashes", entry);
        c.node = static_cast<PNode>(parse_count("crashes", entry.substr(0, sep)));
        c.phase = parse_count("crashes", entry.substr(sep + 1));
        if (c.node < 0 || c.phase < 0) bad_token("crashes", entry);
        config.crash_schedule.push_back(c);
      }
    } else if (key == "comparators") {
      if (value.empty() || value.back() == '+')
        bad_token("comparators", value);
      std::size_t at = 0;
      while (at < value.size()) {
        const std::size_t plus = value.find('+', at);
        std::string entry = value.substr(
            at, plus == std::string::npos ? std::string::npos : plus - at);
        at = plus == std::string::npos ? value.size() : plus + 1;
        ComparatorFault f;
        if (entry.empty()) bad_token("comparators", entry);
        // node@window are digits/@/~ only, so the first S/I/A names the
        // kind; anything after it must be the xB burst suffix (valid
        // only for arbitrary-output faults — a burst of stuck or
        // inverted merge-splits would not mean anything).
        const std::size_t kpos = entry.find_first_of("SIA");
        if (kpos == std::string::npos) bad_token("comparators", entry);
        switch (entry[kpos]) {
          case 'S': f.kind = ComparatorFaultKind::kStuckPassThrough; break;
          case 'I': f.kind = ComparatorFaultKind::kInverted; break;
          case 'A': f.kind = ComparatorFaultKind::kArbitrary; break;
          default: bad_token("comparators", entry);
        }
        const std::string tail = entry.substr(kpos + 1);
        if (!tail.empty()) {
          if (tail.front() != 'x' ||
              f.kind != ComparatorFaultKind::kArbitrary)
            bad_token("comparators", entry);
          f.burst = static_cast<int>(
              parse_count("comparators", tail.substr(1)));
          if (f.burst < 1) bad_token("comparators", entry);
        }
        entry.resize(kpos);
        const std::size_t sep = entry.find('@');
        if (sep == std::string::npos) bad_token("comparators", entry);
        f.node = static_cast<PNode>(
            parse_count("comparators", entry.substr(0, sep)));
        std::string window = entry.substr(sep + 1);
        const std::size_t tilde = window.find('~');
        if (tilde == std::string::npos) {
          f.from_phase = parse_count("comparators", window);
        } else {
          f.from_phase =
              parse_count("comparators", window.substr(0, tilde));
          f.until_phase =
              parse_count("comparators", window.substr(tilde + 1));
        }
        // Same semantic checks as the FaultModel constructor: a parsed
        // line must construct, so reject it here with the field name.
        if (f.node < 0 || f.from_phase < 0 ||
            (f.until_phase != -1 && f.until_phase <= f.from_phase))
          bad_token("comparators", entry);
        config.comparator_schedule.push_back(f);
      }
    } else if (key == "outages") {
      if (value.empty() || value.back() == '+') bad_token("outages", value);
      std::size_t at = 0;
      while (at < value.size()) {
        const std::size_t plus = value.find('+', at);
        const std::string entry = value.substr(
            at, plus == std::string::npos ? std::string::npos : plus - at);
        at = plus == std::string::npos ? value.size() : plus + 1;
        // A negative start or a zero/negative-width window is a
        // corrupted token, not a shorter outage.
        OutageWindow w;
        if (!parse_window(entry, w)) bad_token("outages", entry);
        config.outage_schedule.push_back(w);
      }
    } else if (key == "bursts") {
      if (value.empty() || value.back() == '+') bad_token("bursts", value);
      std::size_t at = 0;
      while (at < value.size()) {
        const std::size_t plus = value.find('+', at);
        std::string entry = value.substr(
            at, plus == std::string::npos ? std::string::npos : plus - at);
        at = plus == std::string::npos ? value.size() : plus + 1;
        CrashBurst b;
        if (!entry.empty() && entry.back() == 'P') {
          b.permanent = true;
          entry.pop_back();
        }
        const std::size_t sep = entry.find('@');
        if (sep == std::string::npos) bad_token("bursts", entry);
        b.count = static_cast<int>(parse_count("bursts", entry.substr(0, sep)));
        b.phase = parse_count("bursts", entry.substr(sep + 1));
        if (b.count < 1 || b.phase < 0) bad_token("bursts", entry);
        config.burst_schedule.push_back(b);
      }
    } else {
      throw std::invalid_argument("unknown schedule field: " + key);
    }
  }
  return config;
}

}  // namespace prodsort

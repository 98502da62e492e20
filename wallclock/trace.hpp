#pragma once

// In-memory span recorder for the traced run of bench_wallclock.
//
// Spans are recorded only from the benchmark's own files, around calls
// into each module's public functions (and around every machine phase
// through a PhaseObserver); nothing inside src/ is instrumented.  Each
// span carries a name, start, end, parent span and call id.  Spans stay
// in memory and are written once, at exit, in Chrome trace-event format
// (load the file in chrome://tracing or https://ui.perfetto.dev).
//
// Self time is a span's duration minus the time its direct children
// cover.  Spans are opened and closed on the calling thread only, so a
// span's children never overlap and the subtraction is exact.  Counts
// (work done, retries, bytes) are recorded into the same tracer at the
// same boundaries, so ratios come from one traced round.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "network/phase_observer.hpp"

namespace prodsort::wallclock {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  const char* name = "";  ///< static string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the span list, -1 at top level
  std::int64_t call = 0;     ///< the benchmark call the span belongs to
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  void set_call(std::int64_t call) noexcept { call_ = call; }

  std::int32_t begin(const char* name) {
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({name, now_ns(), 0, open_.empty() ? -1 : open_.back(),
                      call_});
    open_.push_back(id);
    return id;
  }

  void end(std::int32_t id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    open_.pop_back();
  }

  [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept {
    return spans_;
  }

  /// Adds `value` to the counter `name`.
  void count(const std::string& name, double value) { counts_[name] += value; }

  /// The summed value of counter `name` (0 if never counted).
  [[nodiscard]] double counted(const std::string& name) const {
    const auto it = counts_.find(name);
    return it != counts_.end() ? it->second : 0;
  }

  /// Summed duration of every span called `name`, in milliseconds.
  [[nodiscard]] double total_ms(const std::string& name) const {
    std::int64_t ns = 0;
    for (const SpanRecord& s : spans_)
      if (name == s.name) ns += s.end_ns - s.start_ns;
    return static_cast<double>(ns) / 1e6;
  }

  /// Summed self time (duration minus direct children) of every span
  /// called `name`, in milliseconds.
  [[nodiscard]] double self_ms(const std::string& name) const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const SpanRecord& s : spans_)
      if (s.parent >= 0)
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    std::int64_t ns = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (name == spans_[i].name)
        ns += spans_[i].end_ns - spans_[i].start_ns - child_ns[i];
    return static_cast<double>(ns) / 1e6;
  }

  /// Writes every span as a Chrome "complete" event (ph "X", times in
  /// microseconds).  Returns false when the file cannot be written.
  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"call\":%lld}}",
                   i ? "," : "", s.name, static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                   s.parent, static_cast<long long>(s.call));
    }
    std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\"}\n");
    return std::fclose(f) == 0;
  }

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<std::int32_t> open_;
  std::map<std::string, double> counts_;
  std::int64_t call_ = 0;
};

/// RAII span; a null tracer records nothing, so untraced calls pay one
/// branch per boundary.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->begin(name) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t id_;
};

/// Records one "machine.ce" span per synchronous machine phase and
/// counts phases and pairs.  Passive: it never validates, so attaching
/// it leaves the machine's behaviour unchanged.
class PhaseSpanObserver final : public PhaseObserver {
 public:
  explicit PhaseSpanObserver(Tracer& tracer) : tracer_(tracer) {}

  void before_phase(std::span<const Key> /*keys*/,
                    std::span<const CEPair> pairs, int /*hop_distance*/,
                    int /*block_size*/, bool /*faulty*/) override {
    ++phases_;
    pairs_ += static_cast<std::int64_t>(pairs.size());
    open_ = tracer_.begin("machine.ce");
  }
  void after_phase(std::span<const Key> /*keys*/) override {
    tracer_.end(open_);
  }

  [[nodiscard]] std::int64_t phases() const noexcept { return phases_; }
  [[nodiscard]] std::int64_t pairs() const noexcept { return pairs_; }

 private:
  Tracer& tracer_;
  std::int32_t open_ = -1;
  std::int64_t phases_ = 0;
  std::int64_t pairs_ = 0;
};

}  // namespace prodsort::wallclock

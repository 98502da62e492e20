#pragma once

// Shared helpers for the experiment benches: fixed-seed key generation,
// simple fixed-width table printing, wall-clock timing, and JSON export.
// Every bench prints a paper-vs-measured table for one experiment of
// DESIGN.md's per-experiment index; benches with machine-readable
// artifacts (BENCH_*.json) build a JsonValue tree and hand it to
// export_json instead of fprintf-ing braces by hand.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/multiway_merge.hpp"
#include "product/gray_code.hpp"
#include "render/csv.hpp"

namespace prodsort::bench {

inline std::vector<Key> random_keys(PNode count, unsigned seed) {
  std::vector<Key> keys(static_cast<std::size_t>(count));
  std::mt19937_64 rng(seed);
  for (Key& k : keys) k = static_cast<Key>(rng() % 1000003);
  return keys;
}

/// Nearest-rank percentile over integer samples: ceil(p/100 * n),
/// 1-based, clamped to [1, n] — the same pick ServiceReport's latency
/// stats use, so service- and router-side benches report comparable
/// numbers.  Returns 0 on an empty sample set.  `samples` is taken by
/// value and sorted internally; call percentiles() for several cuts of
/// one set to sort only once.
inline std::int64_t percentile(std::vector<std::int64_t> samples, int p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  std::size_t rank = (static_cast<std::size_t>(p) * n + 99) / 100;
  rank = std::clamp<std::size_t>(rank, 1, n);
  return samples[rank - 1];
}

/// Several nearest-rank cuts of one sample set with a single sort;
/// result[i] corresponds to cuts[i].
inline std::vector<std::int64_t> percentiles(std::vector<std::int64_t> samples,
                                             const std::vector<int>& cuts) {
  std::sort(samples.begin(), samples.end());
  std::vector<std::int64_t> out;
  out.reserve(cuts.size());
  for (const int p : cuts) {
    if (samples.empty()) {
      out.push_back(0);
      continue;
    }
    const std::size_t n = samples.size();
    std::size_t rank = (static_cast<std::size_t>(p) * n + 99) / 100;
    rank = std::clamp<std::size_t>(rank, 1, n);
    out.push_back(samples[rank - 1]);
  }
  return out;
}

/// Millisecond wall-clock of a callable.
template <typename F>
double time_ms(F&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : widths_(headers.size()) {
    for (std::size_t i = 0; i < headers.size(); ++i)
      widths_[i] = headers[i].size() + 2;
    rows_.push_back(std::move(headers));
  }

  void add_row(std::vector<std::string> cells) {
    for (std::size_t i = 0; i < cells.size() && i < widths_.size(); ++i)
      widths_[i] = std::max(widths_[i], cells[i].size() + 2);
    rows_.push_back(std::move(cells));
  }

  void print() const {
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      for (std::size_t c = 0; c < rows_[r].size(); ++c)
        std::printf("%-*s", static_cast<int>(widths_[c]), rows_[r][c].c_str());
      std::printf("\n");
      if (r == 0) {
        std::size_t total = 0;
        for (const auto w : widths_) total += w;
        std::printf("%s\n", std::string(total, '-').c_str());
      }
    }
  }

  /// If the PRODSORT_CSV_DIR environment variable is set, also export
  /// the table as <dir>/<name>.csv (machine-readable bench results).
  void maybe_export_csv(const std::string& name) const {
    const char* dir = std::getenv("PRODSORT_CSV_DIR");
    if (dir == nullptr || rows_.empty()) return;
    CsvWriter csv(rows_.front());
    for (std::size_t r = 1; r < rows_.size(); ++r) {
      auto row = rows_[r];
      row.resize(rows_.front().size());  // pad ragged rows
      csv.add_row(std::move(row));
    }
    const std::string path = std::string(dir) + "/" + name + ".csv";
    csv.write(path);
    std::printf("[csv exported to %s]\n", path.c_str());
  }

 private:
  std::vector<std::size_t> widths_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1f", v);
  return buf;
}

inline std::string fmt(std::int64_t v) { return std::to_string(v); }
inline std::string fmt(int v) { return std::to_string(v); }

/// A small build-and-dump JSON tree for the BENCH_*.json artifacts.
/// Objects keep insertion order so exported files diff stably; integers
/// (int64 and uint64, so 64-bit hashes stay positive) print exactly and
/// doubles with %.17g, which round-trips.
class JsonValue {
 public:
  JsonValue() : kind_(Kind::kNull) {}
  JsonValue(const char* s) : kind_(Kind::kString), string_(s) {}
  JsonValue(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}
  JsonValue(bool b) : kind_(Kind::kBool), int_(b ? 1 : 0) {}
  JsonValue(int v) : kind_(Kind::kInt), int_(v) {}
  JsonValue(std::int64_t v) : kind_(Kind::kInt), int_(v) {}
  JsonValue(std::uint64_t v) : kind_(Kind::kUint), uint_(v) {}
  JsonValue(double v) : kind_(Kind::kDouble), double_(v) {}

  static JsonValue object() {
    JsonValue v;
    v.kind_ = Kind::kObject;
    return v;
  }
  static JsonValue array() {
    JsonValue v;
    v.kind_ = Kind::kArray;
    return v;
  }

  /// Adds (or appends) a key to an object.  Returns *this for chaining.
  JsonValue& set(std::string key, JsonValue value) {
    members_.emplace_back(std::move(key), std::move(value));
    return *this;
  }

  /// Appends an element to an array.
  JsonValue& push(JsonValue value) {
    elements_.push_back(std::move(value));
    return *this;
  }

  void dump(std::FILE* f, int indent = 0) const {
    switch (kind_) {
      case Kind::kNull:
        std::fprintf(f, "null");
        break;
      case Kind::kBool:
        std::fprintf(f, "%s", int_ != 0 ? "true" : "false");
        break;
      case Kind::kInt:
        std::fprintf(f, "%lld", static_cast<long long>(int_));
        break;
      case Kind::kUint:
        std::fprintf(f, "%llu", static_cast<unsigned long long>(uint_));
        break;
      case Kind::kDouble:
        std::fprintf(f, "%.17g", double_);
        break;
      case Kind::kString:
        std::fprintf(f, "\"%s\"", escaped(string_).c_str());
        break;
      case Kind::kObject: {
        std::fprintf(f, "{");
        for (std::size_t i = 0; i < members_.size(); ++i) {
          std::fprintf(f, "%s\n%*s\"%s\": ", i ? "," : "", indent + 2, "",
                       escaped(members_[i].first).c_str());
          members_[i].second.dump(f, indent + 2);
        }
        if (!members_.empty()) std::fprintf(f, "\n%*s", indent, "");
        std::fprintf(f, "}");
        break;
      }
      case Kind::kArray: {
        std::fprintf(f, "[");
        for (std::size_t i = 0; i < elements_.size(); ++i) {
          std::fprintf(f, "%s\n%*s", i ? "," : "", indent + 2, "");
          elements_[i].dump(f, indent + 2);
        }
        if (!elements_.empty()) std::fprintf(f, "\n%*s", indent, "");
        std::fprintf(f, "]");
        break;
      }
    }
  }

 private:
  enum class Kind {
    kNull, kBool, kInt, kUint, kDouble, kString, kObject, kArray
  };

  static std::string escaped(const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (c == '\n') {
        out += "\\n";
        continue;
      }
      out.push_back(c);
    }
    return out;
  }

  Kind kind_;
  std::string string_;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  double double_ = 0;
  std::vector<std::pair<std::string, JsonValue>> members_;
  std::vector<JsonValue> elements_;
};

/// Writes `root` as <PRODSORT_CSV_DIR or .>/<name>.json and announces
/// the path — the shared tail of every BENCH_*.json export.
inline void export_json(const std::string& name, const JsonValue& root) {
  const char* dir = std::getenv("PRODSORT_CSV_DIR");
  const std::string path =
      std::string(dir != nullptr ? dir : ".") + "/" + name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("[could not write %s]\n", path.c_str());
    return;
  }
  root.dump(f);
  std::fprintf(f, "\n");
  std::fclose(f);
  std::printf("[json exported to %s]\n", path.c_str());
}

}  // namespace prodsort::bench

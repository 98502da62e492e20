#pragma once

// The one grammar of the tools' machine-readable replay lines:
// FAULT-REPRO (the fault soak's and the chaos soak's), SDC-REPRO,
// SERVICE-REPRO, STREAM-REPRO and STATIC-REPRO.
//
// A line is a tag and space-separated `key=value` tokens; values never
// contain spaces (FaultModel::schedule_string and friends guarantee
// this).  Each replay struct declares its tag, and its tokens once, in
// print order, as core/report_fields.hpp declares report fields:
//
//   static std::string_view tag(const Spec&) { return "STREAM-REPRO"; }
//   static void tokens(auto& v, auto& self) {
//     v("seed", self.seed);                           // required
//     v("tmr", self.tmr, kOptional);                  // absent on old lines
//     v("pools", self.pools, when(self.pools > 0));   // printed only then
//     v.text("hash", self.hash, kHexCodec);           // %016llx
//     v.text("journal", self.io, Codec{format, parse},  // structured,
//            flag(self.journal));                     // printed iff set
//   }
//
// format_repro() is one ReproWriter walk over that list and
// parse_repro() one ReproReader walk.  A plain value is an integer, a
// bool (0/1), a double or a std::string; any other (a hex hash, a fault
// schedule, a factor name) brings its own (format, parse) Codec.
//
// The writer prints every number exactly: a double prints as the
// shortest %.{p}g, p from 6 to 17, that reads back to the same bits —
// the bytes %g prints wherever %g is exact.  The reader takes the first
// occurrence of a key, ignores unknown tokens (lines carry diagnostic
// fields like `reason=` that replay does not consume), and parses every
// number with std::from_chars over the whole value.  A missing required
// token or a malformed value throws std::invalid_argument naming it.
//
// The same line must round-trip through a shell — `--repro` accepts it
// either as one quoted argument or shell-split into many — so
// rejoin_args() glues an argv tail back together with single spaces.

#include <bit>
#include <charconv>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "graph/labeled_factor.hpp"

namespace prodsort {

/// The tokenizer: `key=value` lookup over one line.
class ReproLine {
 public:
  explicit ReproLine(std::string line) : line_(std::move(line)) {}

  /// Value of the first `key=value` token, or "" when the key is
  /// absent (an empty value and an absent key are indistinguishable —
  /// use has() to tell them apart).
  [[nodiscard]] std::string get(std::string_view key) const {
    std::string value;
    (void)find(key, &value);
    return value;
  }

  /// True iff a `key=` token is present (even with an empty value).
  [[nodiscard]] bool has(std::string_view key) const {
    return find(key, nullptr);
  }

  /// Like get(), but throws std::invalid_argument naming the missing
  /// key — for fields replay cannot proceed without.
  [[nodiscard]] std::string require(std::string_view key) const {
    std::string value;
    if (!find(key, &value))
      throw std::invalid_argument("repro line is missing required token '" +
                                  std::string(key) + "='");
    return value;
  }

  /// Rejoins argv[first..argc) into one space-separated line, undoing
  /// the shell's word splitting when the user pasted the repro line
  /// unquoted after --repro.
  [[nodiscard]] static std::string rejoin_args(int argc, char** argv,
                                               int first) {
    std::string line;
    for (int i = first; i < argc; ++i) {
      if (!line.empty()) line += ' ';
      line += argv[i];
    }
    return line;
  }

 private:
  bool find(std::string_view key, std::string* value) const {
    const std::string needle = std::string(key) + "=";
    std::size_t pos = 0;
    while (pos < line_.size()) {
      const std::size_t end = line_.find(' ', pos);
      const std::size_t len =
          (end == std::string::npos ? line_.size() : end) - pos;
      if (len >= needle.size() &&
          line_.compare(pos, needle.size(), needle) == 0) {
        if (value != nullptr)
          *value = line_.substr(pos + needle.size(), len - needle.size());
        return true;
      }
      pos = end == std::string::npos ? line_.size() : end + 1;
    }
    return false;
  }

  std::string line_;
};

/// The (format, parse) pair of a structured token value.
template <class Format, class Parse>
struct Codec {
  Format format;
  Parse parse;
};

/// How a token is present on a line.
struct Presence {
  bool print = true;     ///< the writer prints the token
  bool required = true;  ///< the reader refuses a line without it
  bool* seen = nullptr;  ///< the reader stores whether it was there
};
/// Printed always; a line without it is refused.
inline constexpr Presence kRequired{};
/// Printed always; a line without it (an older line) keeps the default.
inline constexpr Presence kOptional{true, false};
/// Printed only when `print` holds; a line without it keeps the default.
constexpr Presence when(bool print) { return {print, false}; }
/// Printed only when `on` is set; the reader sets `on` to whether the
/// token was there.
inline Presence flag(bool& on) { return {on, false, &on}; }
inline Presence flag(const bool& on) { return {on, false}; }

/// Reads all of `text` as a T with std::from_chars (integers in
/// `base`), or a bool as 0 or 1; false when it is malformed.
template <class T>
bool read_number(std::string_view text, T& out, int base = 10) {
  const char* const end = text.data() + text.size();
  std::from_chars_result r{};
  if constexpr (std::is_same_v<T, bool>) {
    out = text == "1";
    return text == "0" || text == "1";
  } else if constexpr (std::is_floating_point_v<T>) {
    r = std::from_chars(text.data(), end, out);
  } else {
    r = std::from_chars(text.data(), end, out, base);
  }
  return r.ec == std::errc{} && r.ptr == end;
}

/// The one number parser behind every REPRO token and every numeric
/// flag of the tools: all of `text` as a T, or std::invalid_argument
/// naming `name` (a flag, say) and the text.
template <class T>
[[nodiscard]] T parse_number(std::string_view name, std::string_view text) {
  T value{};
  if (!read_number(text, value))
    throw std::invalid_argument(std::string(name) + ": malformed number '" +
                                std::string(text) + "'");
  return value;
}

/// One step of a tool's hand-written flag loop over argv:
///
///   for (int i = 1; i < argc; ++i) {
///     FlagCursor flag{argc, argv, i};
///     if (flag.has_value("--jobs")) flag.number(args.jobs);
struct FlagCursor {
  int argc;
  char** argv;
  int& i;

  /// True when argv[i] is `name` and a value follows it.
  [[nodiscard]] bool has_value(const char* name) const {
    return std::strcmp(argv[i], name) == 0 && i + 1 < argc;
  }
  /// Reads the value after the flag with parse_number, naming the flag,
  /// and steps `i` past it.
  template <class T>
  void number(T& field) {
    field = parse_number<T>(argv[i], argv[i + 1]);
    ++i;
  }
};

/// The shortest %.{p}g, p from 6 to 17, that reads back to the same
/// bits.
inline std::string format_double(double value) {
  char buf[32];
  for (int p = 6;; ++p) {
    std::snprintf(buf, sizeof buf, "%.*g", p, value);
    double back = 0;
    (void)std::from_chars(buf, buf + std::strlen(buf), back);
    if (p == 17 || std::bit_cast<std::uint64_t>(back) ==
                       std::bit_cast<std::uint64_t>(value))
      return buf;
  }
}

/// Prints a struct's declared tokens after its tag, onto `line`.
struct ReproWriter {
  std::string line;

  template <class T>
  void operator()(std::string_view name, const T& value,
                  Presence presence = kRequired) {
    if (!presence.print) return;
    if constexpr (std::is_same_v<T, bool>)
      put(name, value ? "1" : "0");
    else if constexpr (std::is_floating_point_v<T>)
      put(name, format_double(value));
    else if constexpr (std::is_integral_v<T>)
      put(name, std::to_string(value));
    else
      put(name, value);
  }
  template <class T, class F, class P>
  void text(std::string_view name, const T& value, const Codec<F, P>& codec,
            Presence presence = kRequired) {
    if (presence.print) put(name, codec.format(value));
  }

  void put(std::string_view name, std::string_view value) {
    line += ' ';
    line += name;
    line += '=';
    line += value;
  }
};

/// Reads a struct's declared tokens back from a line.  Errors carry the
/// tag of the struct read so far (a tag may depend on an earlier token,
/// as FAULT-REPRO and SDC-REPRO depend on mode=).
template <class Spec>
class ReproReader {
 public:
  ReproReader(const std::string& line, const Spec& spec)
      : line_(line), spec_(spec) {}

  template <class T>
  void operator()(std::string_view name, T& value,
                  Presence presence = kRequired) {
    read(name, presence, [&](const std::string& text) {
      if constexpr (std::is_same_v<T, std::string>)
        value = text;
      else if (!read_number(text, value))
        throw std::invalid_argument("malformed number");
    });
  }
  template <class T, class F, class P>
  void text(std::string_view name, T& value, const Codec<F, P>& codec,
            Presence presence = kRequired) {
    read(name, presence,
         [&](const std::string& text) { value = codec.parse(text); });
  }

 private:
  template <class Assign>
  void read(std::string_view name, Presence presence, const Assign& assign) {
    const bool present = line_.has(name);
    if (presence.seen != nullptr) *presence.seen = present;
    if (!present && !presence.required) return;
    const std::string text = line_.require(name);
    try {
      assign(text);
    } catch (const std::exception& e) {
      throw std::invalid_argument(std::string(Spec::tag(spec_)) +
                                  ": bad token '" + std::string(name) + "=" +
                                  text + "': " + e.what());
    }
  }

  ReproLine line_;
  const Spec& spec_;
};

/// The one-line replay form of `spec`, without a trailing newline.
template <class Spec>
[[nodiscard]] std::string format_repro(const Spec& spec) {
  ReproWriter writer{std::string(Spec::tag(spec))};
  Spec::tokens(writer, spec);
  return std::move(writer.line);
}

/// Reads a line printed by format_repro; tokens a line may lack keep
/// Spec's defaults.
template <class Spec>
[[nodiscard]] Spec parse_repro(const std::string& line) {
  Spec spec;
  ReproReader<Spec> reader(line, spec);
  Spec::tokens(reader, spec);
  return spec;
}

// --- shared structured values -------------------------------------------

/// A u64 printed as 16 hex digits (STATIC-REPRO hash=).
inline const Codec kHexCodec{
    [](std::uint64_t value) {
      char buf[24];
      std::snprintf(buf, sizeof buf, "%016" PRIx64, value);
      return std::string(buf);
    },
    [](const std::string& text) {
      std::uint64_t value = 0;
      if (!read_number(text, value, 16))
        throw std::invalid_argument("malformed hex number");
      return value;
    }};

/// A family= / factor= token: a standard_factors() member, by name.
inline const Codec kFactorCodec{
    [](const LabeledFactor* factor) { return factor->name; },
    [](const std::string& name) {
      static const std::vector<LabeledFactor> factors = standard_factors();
      for (const LabeledFactor& factor : factors)
        if (factor.name == name) return &factor;
      throw std::invalid_argument("unknown factor family");
    }};

/// A token naming an entry of `names` (sorter=, mode=), read and kept as
/// its index.
template <std::size_t N>
constexpr auto names_codec(const char* const (&names)[N]) {
  return Codec{
      [&names](std::size_t index) { return std::string(names[index]); },
      [&names](std::string_view name) {
        std::string expected = "expected one of";
        for (std::size_t i = 0; i < N; ++i) {
          if (name == names[i]) return i;
          expected += i == 0 ? " " : ", ";
          expected += names[i];
        }
        throw std::invalid_argument(expected);
      }};
}

}  // namespace prodsort

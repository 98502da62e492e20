#pragma once

// One declared field list per report struct (docs/API.md, "Reports").
// A report declares its fields once, in hash order, in
// `static void fields(auto& v, auto& self)`:
//
//   v("seed", self.seed);                  // folded and printed
//   v.hash_only("count", self.fp.count);   // folded, not printed
//   v.json_only("goodput", self.goodput);  // printed, not folded
//   v.micro("sdc_budget", self.sdc_budget);
//   v.label("breaker", self.breaker, name_of);
//
// and hash() / json() are one HashFold / JsonWriter walk over it.  A
// value is an integer, bool or enum, a struct with its own fields(), or
// a std::vector of either.  Extra arguments after the value reach the
// element's fields(), or, if the only one is a callable, declare each
// element themselves as `extra(v, element)`.

#include <cstdint>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/hashing.hpp"

namespace prodsort {

template <class T>
inline constexpr bool kIsVector = false;
template <class T, class A>
inline constexpr bool kIsVector<std::vector<T, A>> = true;

template <class V, class Item, class... Opt>
void visit_fields(V& v, Item& item, const Opt&... opt) {
  if constexpr (sizeof...(Opt) == 1 &&
                (std::is_invocable_v<const Opt&, V&, Item&> && ...))
    (opt(v, item), ...);
  else
    std::remove_const_t<Item>::fields(v, item, opt...);
}

/// The report hash: the first value seeds the state as mix64(v), every
/// later one folds as mix64(h, v).  Integers fold as their 64-bit two's
/// complement, bools as 0/1, enums as their integer; a double must be
/// declared micro() or json_only().
class HashFold {
 public:
  template <class Report>
  [[nodiscard]] static std::uint64_t of(const Report& report) {
    HashFold fold;
    Report::fields(fold, report);
    return fold.h_;
  }

  template <class T, class... Opt>
  void operator()(const char*, const T& value, const Opt&... opt) {
    if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
      h_ = seeded_ ? mix64(h_, static_cast<std::uint64_t>(value))
                   : mix64(static_cast<std::uint64_t>(value));
      seeded_ = true;
    } else if constexpr (kIsVector<T>) {
      for (const auto& item : value) (*this)("", item, opt...);
    } else {
      visit_fields(*this, value, opt...);
    }
  }
  template <class T, class... Opt>
  void hash_only(const char* name, const T& value, const Opt&... opt) {
    (*this)(name, value, opt...);
  }
  template <class T>
  void json_only(const char*, const T&) {}
  /// Folds static_cast<int64_t>(value * 1e6): truncated, not rounded.
  void micro(const char* name, double value) {
    (*this)(name, static_cast<std::int64_t>(value * 1e6));
  }
  template <class T, class Text>
  void label(const char* name, const T& value, const Text&) {
    (*this)(name, value);
  }

 private:
  std::uint64_t h_ = 0;
  bool seeded_ = false;
};

/// The JSON export: numbers in ostream form, bools as 0/1, labels and
/// strings as escaped JSON strings, structs as objects, vectors as
/// arrays.  Construct it from a report, add derived keys, then str().
class JsonWriter {
 public:
  template <class Report>
  explicit JsonWriter(const Report& report) {
    out_ << '{';
    Report::fields(*this, report);
  }

  template <class T, class... Opt>
  void operator()(const char* name, const T& value, const Opt&... opt) {
    if (!first_) out_ << ',';
    first_ = false;
    out_ << '"' << name << "\":";
    write(value, opt...);
  }
  template <class T, class... Opt>
  void hash_only(const char*, const T&, const Opt&...) {}
  template <class T>
  void json_only(const char* name, const T& value) {
    (*this)(name, value);
  }
  void micro(const char* name, double value) { (*this)(name, value); }
  template <class T, class Text>
  void label(const char* name, const T& value, const Text& text) {
    (*this)(name, std::string(text(value)));
  }

  [[nodiscard]] std::string str() {
    out_ << '}';
    return out_.str();
  }

 private:
  template <class T, class... Opt>
  void write(const T& value, const Opt&... opt) {
    if constexpr (std::is_same_v<T, bool>) {
      out_ << (value ? 1 : 0);
    } else if constexpr (std::is_arithmetic_v<T>) {
      out_ << value;
    } else if constexpr (std::is_same_v<T, std::string>) {
      out_ << '"';
      for (const char c : value) escape(c);
      out_ << '"';
    } else if constexpr (kIsVector<T>) {
      out_ << '[';
      for (std::size_t i = 0; i < value.size(); ++i) {
        if (i != 0) out_ << ',';
        write(value[i], opt...);
      }
      out_ << ']';
    } else {
      out_ << '{';
      first_ = true;
      visit_fields(*this, value, opt...);
      out_ << '}';
      first_ = false;
    }
  }
  /// '"' and '\\' get a backslash, control characters become \u00XX.
  void escape(char c) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out_ << '\\' << c;
    } else if (byte < 0x20) {
      out_ << "\\u00" << "0123456789abcdef"[byte >> 4]
           << "0123456789abcdef"[byte & 0xf];
    } else {
      out_ << c;
    }
  }

  std::ostringstream out_;
  bool first_ = true;
};

}  // namespace prodsort

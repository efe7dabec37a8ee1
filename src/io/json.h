// Minimal, dependency-free JSON: a value type, a strict parser, and a
// deterministic serializer. Scope: what the scenario/result persistence
// layer needs — UTF-8 pass-through strings with standard escapes, doubles
// with round-trip precision, arrays, and objects with insertion-ordered
// keys (deterministic output for diffable artifacts).
#pragma once

#include <cstdint>
#include <type_traits>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "util/check.h"

namespace mecra::io {

class Json;

using JsonArray = std::vector<Json>;

/// Object preserving insertion order (deterministic serialization).
///
/// Members live in two parallel vectors in insertion order: `keys()[i]`
/// names `values()[i]`. Lookup is a linear scan. The objects this library
/// reads and writes are small (journal records, services, instances,
/// scenario fields: a handful of keys each), where a scan over contiguous
/// keys beats a tree walk, and the flat layout costs no tree node or heap
/// `Json` per member — which matters because a journal snapshot builds,
/// writes and reads back thousands of such objects.
class JsonObject {
 public:
  /// Inserts a key at the end, or overwrites the value of an existing key
  /// in place (the key keeps its first position).
  void set(std::string key, Json value);
  [[nodiscard]] bool contains(std::string_view key) const;
  /// Access; requires the key to exist.
  [[nodiscard]] const Json& at(std::string_view key) const;
  [[nodiscard]] std::size_t size() const noexcept { return keys_.size(); }
  [[nodiscard]] bool empty() const noexcept { return keys_.empty(); }
  [[nodiscard]] const std::vector<std::string>& keys() const noexcept {
    return keys_;
  }
  /// Member values, parallel to keys().
  [[nodiscard]] const std::vector<Json>& values() const noexcept {
    return values_;
  }

 private:
  /// Index of `key`, or size() when absent.
  [[nodiscard]] std::size_t find(std::string_view key) const;

  std::vector<std::string> keys_;
  std::vector<Json> values_;
};

class Json {
 public:
  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  /// Any integral type converts through double (values beyond 2^53 lose
  /// precision, far above anything the library serializes).
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  Json(T i) : value_(static_cast<double>(i)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(JsonArray a) : value_(std::move(a)) {}
  Json(JsonObject o) : value_(std::move(o)) {}

  // Move-only: a copy of a record tree is never intended, and deleting it
  // keeps every accidental deep copy a compile error.
  Json(const Json&) = delete;
  Json& operator=(const Json&) = delete;
  Json(Json&&) noexcept = default;
  Json& operator=(Json&&) noexcept = default;

  [[nodiscard]] bool is_null() const { return holds<std::nullptr_t>(); }
  [[nodiscard]] bool is_bool() const { return holds<bool>(); }
  [[nodiscard]] bool is_number() const { return holds<double>(); }
  [[nodiscard]] bool is_string() const { return holds<std::string>(); }
  [[nodiscard]] bool is_array() const { return holds<JsonArray>(); }
  [[nodiscard]] bool is_object() const { return holds<JsonObject>(); }

  [[nodiscard]] bool as_bool() const { return get<bool>(); }
  [[nodiscard]] double as_double() const { return get<double>(); }
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] const std::string& as_string() const {
    return get<std::string>();
  }
  [[nodiscard]] const JsonArray& as_array() const { return get<JsonArray>(); }
  [[nodiscard]] const JsonObject& as_object() const {
    return get<JsonObject>();
  }

  /// Serializes compactly (no whitespace) when indent < 0, pretty-printed
  /// with the given indent width otherwise.
  [[nodiscard]] std::string dump(int indent = -1) const;

  /// Appends the compact serialization to `out`, reusing the caller's
  /// buffer instead of allocating the temporary dump() returns — the
  /// journal append hot path (orchestrator/journal.cpp).
  void dump_append(std::string& out) const;

  /// Strict parse of exactly `text` (a view into a longer buffer stops at
  /// the view's end); throws util::CheckFailure with position info on
  /// errors, including trailing characters inside the view. Never yields a
  /// raw() value.
  [[nodiscard]] static Json parse(std::string_view text);

  /// A value that holds already-serialized compact JSON text: dump() and
  /// dump_append() copy `compact` verbatim wherever the value sits (also
  /// inside a pretty-printed container, which leaves it compact), every
  /// is_*() is false and every as_*() throws. Nothing checks that
  /// `compact` is one valid JSON value; the caller builds it with the
  /// building blocks below. The journal's payload writers
  /// (orchestrator/journal.cpp) serialize a record once this way, so no
  /// tree is built only to be written.
  [[nodiscard]] static Json raw(std::string compact);

 private:
  struct Raw {
    std::string text;
  };
  struct Dumper;  // json.cpp

  explicit Json(Raw raw) : value_(std::move(raw)) {}

  template <typename T>
  [[nodiscard]] bool holds() const {
    return std::holds_alternative<T>(value_);
  }
  template <typename T>
  [[nodiscard]] const T& get() const {
    MECRA_CHECK_MSG(std::holds_alternative<T>(value_),
                    "JSON value has a different type");
    return std::get<T>(value_);
  }

  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject, Raw>
      value_;
};

// Serializer building blocks, exposed so hand-assembled text (the
// journal's record envelope and payloads) can match Json::dump byte for
// byte without constructing a tree first.

/// Appends the JSON string literal (quotes + standard escapes) for `s`.
void dump_string_append(std::string& out, std::string_view s);
/// Appends the JSON number serialization of `d` (round-trip shortest form;
/// integral values below 2^53 print without a decimal point). Requires a
/// finite value.
void dump_number_append(std::string& out, double d);

}  // namespace mecra::io

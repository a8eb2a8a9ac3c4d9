// Minimal JSON support for the machine-readable surfaces: the bench/CLI
// result reports (writer) and the moheco_d line-delimited wire protocol
// (parser).  Deliberately small: objects and arrays of the five scalar
// kinds, UTF-8 pass-through, \uXXXX escapes decoded to UTF-8.  Numbers
// remember their source lexeme so 64-bit integers (seeds, job ids) round
// trip exactly instead of through a double.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace moheco {

std::string json_escape(const std::string& s);

/// Shortest-round-trip double literal; non-finite values become null
/// (bare inf/nan are not valid JSON tokens).
std::string json_number(double v);

/// Flat JSON object builder (nested objects/arrays enter via add_raw).
/// Fields are emitted in insertion order.
class JsonObject {
 public:
  void add_string(const std::string& key, const std::string& value) {
    field(key) << '"' << json_escape(value) << '"';
  }
  void add_number(const std::string& key, double value) {
    field(key) << json_number(value);
  }
  void add_int(const std::string& key, long long value) {
    field(key) << value;
  }
  void add_uint(const std::string& key, unsigned long long value) {
    field(key) << value;
  }
  void add_bool(const std::string& key, bool value) {
    field(key) << (value ? "true" : "false");
  }
  /// Inserts `body` verbatim (a nested object/array or pre-encoded value).
  void add_raw(const std::string& key, const std::string& body) {
    field(key) << body;
  }
  std::string str() const {
    // Appended, not "{" + temporary: gcc 12 at -O3 reports a false
    // -Wrestrict on a literal + std::string rvalue.
    std::string out(1, '{');
    out += body_.str();
    out += '}';
    return out;
  }

 private:
  std::ostringstream& field(const std::string& key) {
    if (!first_) body_ << ',';
    first_ = false;
    body_ << '"' << json_escape(key) << "\":";
    return body_;
  }
  std::ostringstream body_;
  bool first_ = true;
};

/// Parsed JSON value.  Lookups are null-safe: every accessor works on any
/// kind and returns a fallback on mismatch, so protocol handlers read
/// requests without pre-validating shape ("type confusion" degrades to a
/// default, never UB).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_bool() const { return kind_ == Kind::kBool; }

  bool as_bool(bool fallback = false) const {
    return kind_ == Kind::kBool ? bool_ : fallback;
  }
  double as_number(double fallback = 0.0) const {
    return kind_ == Kind::kNumber ? number_ : fallback;
  }
  /// Exact 64-bit read from the source lexeme (falls back to the double
  /// value for e-notation lexemes, and to `fallback` for non-numbers).
  long long as_int(long long fallback = 0) const;
  std::uint64_t as_uint(std::uint64_t fallback = 0) const;
  const std::string& as_string(const std::string& fallback = empty_string())
      const {
    return kind_ == Kind::kString ? text_ : fallback;
  }

  const std::vector<JsonValue>& items() const { return items_; }
  std::size_t size() const { return items_.size(); }
  /// Member lookup; returns a shared null value when absent or non-object.
  const JsonValue& operator[](const std::string& key) const;
  bool has(const std::string& key) const;
  const std::map<std::string, JsonValue>& members() const { return members_; }
  /// Object keys in source (insertion) order -- members() sorts them, but
  /// reports replaying a parsed object must keep the emitter's order.
  const std::vector<std::string>& member_names() const {
    return member_names_;
  }
  /// For parsed objects/arrays: the exact source slice this value was
  /// parsed from (empty for scalars and built values).  Lets a relay write
  /// a nested payload byte-identically instead of re-serializing it.
  const std::string& raw() const { return text_; }

  // --- construction (parser + tests) ---
  static JsonValue make_null() { return JsonValue(); }
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double v, std::string lexeme = "");
  static JsonValue make_string(std::string s);
  static JsonValue make_array(std::vector<JsonValue> items);
  /// `order` is the insertion-order key list (defaults to sorted); keys in
  /// `order` but not in `members` are dropped.
  static JsonValue make_object(std::map<std::string, JsonValue> members,
                               std::vector<std::string> order = {});
  /// Parser hook: records the source slice of a container value (raw()).
  void set_raw(std::string raw) { text_ = std::move(raw); }

 private:
  static const std::string& empty_string();
  static const JsonValue& null_value();

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  /// String payload, a number's source lexeme, or a container's raw slice.
  std::string text_;
  std::vector<JsonValue> items_;
  std::map<std::string, JsonValue> members_;
  std::vector<std::string> member_names_;  ///< insertion order
};

/// Parses one JSON document.  Returns std::nullopt on any syntax error
/// (including trailing garbage); the wire protocol maps that to a
/// "bad_request" response rather than an exception.
std::optional<JsonValue> parse_json(std::string_view text);

}  // namespace moheco

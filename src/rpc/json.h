#pragma once

// Minimal JSON value + parser/serializer for the simulated JSON-RPC layer.
// Supports the full JSON grammar: \uXXXX escapes decode to UTF-8, with
// surrogate pairs combined into supplementary-plane code points and lone
// surrogates rejected as parse errors; numbers are stored as double
// (sufficient for RPC ids) with integral fast-paths for serialization.

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace topo::rpc {

class Json;
using JsonArray = std::vector<Json>;
using JsonObject = std::map<std::string, Json>;

class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : kind_(Kind::kNull) {}
  Json(std::nullptr_t) : kind_(Kind::kNull) {}
  Json(bool b) : kind_(Kind::kBool), bool_(b) {}
  Json(int v) : kind_(Kind::kNumber), num_(v) {}
  Json(int64_t v) : kind_(Kind::kNumber), num_(static_cast<double>(v)) {}
  Json(uint64_t v) : kind_(Kind::kNumber), num_(static_cast<double>(v)) {}
  Json(double v) : kind_(Kind::kNumber), num_(v) {}
  Json(const char* s) : kind_(Kind::kString), str_(s) {}
  Json(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}
  Json(JsonArray a) : kind_(Kind::kArray), arr_(std::move(a)) {}
  Json(JsonObject o) : kind_(Kind::kObject), obj_(std::move(o)) {}

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool() const { return bool_; }
  double as_number() const { return num_; }
  const std::string& as_string() const { return str_; }
  const JsonArray& as_array() const { return arr_; }
  const JsonObject& as_object() const { return obj_; }
  JsonArray& as_array() { return arr_; }
  JsonObject& as_object() { return obj_; }

  /// The number as an unsigned integer when it is exactly one: finite,
  /// non-negative, integral and at most 2^53 (beyond that a double skips
  /// integers). nullopt otherwise, non-numbers included. Decoders read
  /// every integer field through this; casting an out-of-range double is
  /// undefined behaviour.
  std::optional<uint64_t> as_uint() const;

  /// Object field lookup; returns a static null for absent keys.
  const Json& operator[](const std::string& key) const;
  /// Array index; static null when out of range.
  const Json& operator[](size_t i) const;

  std::string dump() const;

  /// Deepest nesting of arrays and objects parse() accepts: the parser
  /// recurses once per level, so deeper input is a parse error.
  static constexpr size_t kMaxDepth = 256;

  /// Strict parse of a complete document; nullopt on any syntax error.
  static std::optional<Json> parse(const std::string& text);

  bool operator==(const Json& o) const;

 private:
  Kind kind_;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  JsonArray arr_;
  JsonObject obj_;
};

/// Hex helpers used by Ethereum's JSON-RPC conventions ("0x...").
std::string to_hex_quantity(uint64_t v);               // minimal, e.g. "0x1a"
std::string to_hex_bytes(const std::vector<uint8_t>&); // padded data blob
std::optional<uint64_t> from_hex_quantity(const std::string& s);
std::optional<std::vector<uint8_t>> from_hex_bytes(const std::string& s);

}  // namespace topo::rpc

#pragma once
// Minimal JSON support: escaping and 17-digit numbers for the writers, a
// small recursive-descent parser for the readers (g6report, tests
// validating --metrics-out / --trace-out files), and JsonReader, the
// strict object reader behind every serving and config format (manifest,
// journal, wire envelopes, fault plans). Handles the full JSON grammar;
// numbers are doubles.

#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace g6::obs {

/// Escape `s` for use inside a JSON string literal (no surrounding
/// quotes added).
std::string json_escape(std::string_view s);

/// `v` at 17 significant digits: std::strtod reads the text back to the
/// identical binary64, so doubles round-trip every serving format.
std::string json_number(double v);

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parse a complete JSON document; throws std::runtime_error with a
  /// byte offset on malformed input (trailing garbage included).
  static JsonValue parse(std::string_view text);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_bool() const { return type_ == Type::kBool; }

  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& items() const;  ///< array elements
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  /// Object lookup; nullptr when absent (or not an object).
  const JsonValue* find(std::string_view key) const;
  /// Object lookup; throws std::runtime_error when absent.
  const JsonValue& at(std::string_view key) const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;

  friend class JsonParser;
};

/// Strict reader over one JSON object. Every violation — not an object,
/// an unknown or missing key, a wrong type, a number that is not an
/// integer inside the target type's range — goes to the caller's `fail`,
/// which throws the caller's own error type (ManifestError,
/// JournalError, WireError, FaultError) with a message that names
/// `where` and the key. Integers are range-checked before the cast, so
/// no input can reach an out-of-range float-to-integer conversion.
class JsonReader {
 public:
  /// Throws; JsonReader never continues after calling it.
  using FailFn = void (*)(const std::string& what);

  JsonReader(const JsonValue& obj, std::string where, FailFn on_error);

  /// Every member key must be in `allowed`; every key in `required` must
  /// be present.
  void strict_keys(const std::vector<std::string_view>& allowed,
                   const std::vector<std::string_view>& required = {}) const;

  bool has(std::string_view key) const { return obj_->find(key) != nullptr; }
  /// The member `key`, of any type; missing fails.
  const JsonValue& at(std::string_view key) const;

  /// `key` as T: bool, std::string, double, or an integer type. Missing
  /// or mistyped fails.
  template <class T>
  T get(std::string_view key) const {
    return as<T>(at(key), key_name(key));
  }
  /// Optional key: assign `*out` when `key` is present, else leave it.
  template <class T>
  void read(std::string_view key, T* out) const {
    if (const JsonValue* v = obj_->find(key)) *out = as<T>(*v, key_name(key));
  }
  /// A bare value (an array element, say) as T; `name` labels it.
  template <class T>
  T as(const JsonValue& v, const std::string& name) const {
    if constexpr (std::is_same_v<T, bool>) {
      if (!v.is_bool()) fail(name + " must be a bool");
      return v.as_bool();
    } else if constexpr (std::is_same_v<T, std::string>) {
      if (!v.is_string()) fail(name + " must be a string");
      return v.as_string();
    } else if constexpr (std::is_floating_point_v<T>) {
      if (!v.is_number()) fail(name + " must be a number");
      return v.as_number();
    } else {
      static_assert(std::is_integral_v<T>, "JsonReader: unsupported type");
      return static_cast<T>(integral(v, name, std::is_signed_v<T>,
                                     std::numeric_limits<T>::digits));
    }
  }

  /// A reader over `v` (a member or array element of this object), named
  /// "<where><suffix>" and failing the same way.
  JsonReader child(const JsonValue& v, const std::string& suffix) const {
    return JsonReader(v, where_ + suffix, fail_);
  }

  /// Throw through the caller's `fail` with "<where>: <what>".
  [[noreturn]] void fail(const std::string& what) const;

 private:
  static std::string key_name(std::string_view key);
  /// An integral double inside [-2^digits, 2^digits) (signed) or
  /// [0, 2^digits) (unsigned): exactly the values a cast keeps.
  double integral(const JsonValue& v, const std::string& name,
                  bool is_signed, int digits) const;

  const JsonValue* obj_;
  std::string where_;
  FailFn fail_;
};

}  // namespace g6::obs

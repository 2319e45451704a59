#ifndef SOFIA_OBS_JSON_LITE_H_
#define SOFIA_OBS_JSON_LITE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

/// \file json_lite.hpp
/// \brief Minimal recursive-descent JSON reader for the observability
/// artifacts (metrics JSONL snapshots, Chrome trace files, BENCH_*.json).
///
/// Deliberately small: objects, arrays, strings (with the escapes our own
/// writers emit), numbers, booleans, null. Not a general-purpose library —
/// it exists so tools/obs_report and the obs tests can validate emitted
/// files without adding a dependency. Always compiled (independent of
/// SOFIA_OBS_DISABLED): the report tool must read artifacts produced by
/// any build.

namespace sofia {
namespace obs {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  // Insertion-ordered object members; duplicate keys keep the last value.
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }

  /// Member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;
  /// Find + numeric coercion helpers returning `def` when absent/mistyped.
  double NumberOr(const std::string& key, double def) const;
  std::string StringOr(const std::string& key,
                       const std::string& def) const;
};

/// Parses one JSON document from `text`. On failure returns false and
/// describes the problem (with byte offset) in *error when non-null.
/// Arrays and objects nested more than 512 deep fail with "nesting too
/// deep".
bool ParseJson(const std::string& text, JsonValue* out,
               std::string* error = nullptr);

/// Parses the LAST non-empty line of a JSON-lines file body — the final
/// (cumulative) snapshot of a metrics JSONL.
bool ParseLastJsonLine(const std::string& body, JsonValue* out,
                       std::string* error = nullptr);

/// Reads a whole file into *out; false (with *error) when unreadable.
bool ReadFileToString(const std::string& path, std::string* out,
                      std::string* error = nullptr);

}  // namespace obs
}  // namespace sofia

#endif  // SOFIA_OBS_JSON_LITE_H_

#include "obs/json_lite.hpp"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace sofia {
namespace obs {

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  const JsonValue* found = nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) found = &v;  // Last duplicate wins, like our writers.
  }
  return found;
}

double JsonValue::NumberOr(const std::string& key, double def) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_number() ? v->number : def;
}

std::string JsonValue::StringOr(const std::string& key,
                                const std::string& def) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_string() ? v->string : def;
}

namespace {

/// Deepest array/object nesting ParseJson accepts. The trace and metrics
/// writers nest a handful of levels; the bound keeps the recursive descent
/// from overflowing the stack on a malformed or hostile file.
constexpr size_t kMaxJsonDepth = 512;

struct Parser {
  const std::string& text;
  size_t pos = 0;
  size_t depth = 0;  ///< Arrays and objects currently open.
  std::string error;

  bool Fail(const std::string& what) {
    std::ostringstream msg;
    msg << what << " at byte " << pos;
    error = msg.str();
    return false;
  }

  void SkipWs() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos >= text.size() || text[pos] != c) return false;
    ++pos;
    return true;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return Fail("expected string");
    out->clear();
    while (pos < text.size()) {
      const char c = text[pos++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos >= text.size()) return Fail("truncated escape");
        const char e = text[pos++];
        switch (e) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'r': out->push_back('\r'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'u': {
            // Our writers never emit \u; decode as '?' to stay lossless
            // enough for validation.
            if (pos + 4 > text.size()) return Fail("truncated \\u escape");
            pos += 4;
            out->push_back('?');
            break;
          }
          default:
            return Fail("unknown escape");
        }
      } else {
        out->push_back(c);
      }
    }
    return Fail("unterminated string");
  }

  bool ParseValue(JsonValue* out) {
    SkipWs();
    if (pos >= text.size()) return Fail("unexpected end of input");
    const char c = text[pos];
    if (c == '{' || c == '[') {
      if (depth == kMaxJsonDepth) return Fail("nesting too deep");
      ++depth;
      const bool ok = c == '{' ? ParseObject(out) : ParseArray(out);
      --depth;
      return ok;
    }
    if (c == '"') {
      out->type = JsonValue::Type::kString;
      return ParseString(&out->string);
    }
    if (text.compare(pos, 4, "true") == 0) {
      out->type = JsonValue::Type::kBool;
      out->boolean = true;
      pos += 4;
      return true;
    }
    if (text.compare(pos, 5, "false") == 0) {
      out->type = JsonValue::Type::kBool;
      out->boolean = false;
      pos += 5;
      return true;
    }
    if (text.compare(pos, 4, "null") == 0) {
      out->type = JsonValue::Type::kNull;
      pos += 4;
      return true;
    }
    // Number.
    char* end = nullptr;
    const double value = std::strtod(text.c_str() + pos, &end);
    if (end == text.c_str() + pos) return Fail("unexpected token");
    out->type = JsonValue::Type::kNumber;
    out->number = value;
    pos = static_cast<size_t>(end - text.c_str());
    return true;
  }

  bool ParseObject(JsonValue* out) {
    if (!Consume('{')) return Fail("expected '{'");
    out->type = JsonValue::Type::kObject;
    SkipWs();
    if (Consume('}')) return true;
    for (;;) {
      std::string key;
      SkipWs();
      if (!ParseString(&key)) return false;
      if (!Consume(':')) return Fail("expected ':'");
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->object.emplace_back(std::move(key), std::move(value));
      if (Consume(',')) continue;
      if (Consume('}')) return true;
      return Fail("expected ',' or '}'");
    }
  }

  bool ParseArray(JsonValue* out) {
    if (!Consume('[')) return Fail("expected '['");
    out->type = JsonValue::Type::kArray;
    SkipWs();
    if (Consume(']')) return true;
    for (;;) {
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->array.push_back(std::move(value));
      if (Consume(',')) continue;
      if (Consume(']')) return true;
      return Fail("expected ',' or ']'");
    }
  }
};

}  // namespace

bool ParseJson(const std::string& text, JsonValue* out, std::string* error) {
  Parser parser{text};
  *out = JsonValue{};
  if (!parser.ParseValue(out)) {
    if (error != nullptr) *error = parser.error;
    return false;
  }
  parser.SkipWs();
  if (parser.pos != text.size()) {
    if (error != nullptr) *error = "trailing data after JSON document";
    return false;
  }
  return true;
}

bool ParseLastJsonLine(const std::string& body, JsonValue* out,
                       std::string* error) {
  size_t end = body.size();
  while (end > 0 && (body[end - 1] == '\n' || body[end - 1] == '\r')) --end;
  if (end == 0) {
    if (error != nullptr) *error = "empty file";
    return false;
  }
  size_t begin = body.rfind('\n', end - 1);
  begin = begin == std::string::npos ? 0 : begin + 1;
  return ParseJson(body.substr(begin, end - begin), out, error);
}

bool ReadFileToString(const std::string& path, std::string* out,
                      std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

}  // namespace obs
}  // namespace sofia

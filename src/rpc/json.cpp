#include "rpc/json.h"

#include <cmath>
#include <cstdio>
#include <cstring>

namespace topo::rpc {

namespace {
const Json kNullJson{};
}

const Json& Json::operator[](const std::string& key) const {
  if (kind_ == Kind::kObject) {
    auto it = obj_.find(key);
    if (it != obj_.end()) return it->second;
  }
  return kNullJson;
}

const Json& Json::operator[](size_t i) const {
  if (kind_ == Kind::kArray && i < arr_.size()) return arr_[i];
  return kNullJson;
}

std::optional<uint64_t> Json::as_uint() const {
  constexpr double kMaxExact = 9007199254740992.0;  // 2^53
  if (kind_ != Kind::kNumber || !(num_ >= 0.0 && num_ <= kMaxExact) ||
      num_ != std::floor(num_)) {
    return std::nullopt;
  }
  return static_cast<uint64_t>(num_);
}

bool Json::operator==(const Json& o) const {
  if (kind_ != o.kind_) return false;
  switch (kind_) {
    case Kind::kNull: return true;
    case Kind::kBool: return bool_ == o.bool_;
    case Kind::kNumber: return num_ == o.num_;
    case Kind::kString: return str_ == o.str_;
    case Kind::kArray: return arr_ == o.arr_;
    case Kind::kObject: return obj_ == o.obj_;
  }
  return false;
}

namespace {

void dump_string(const std::string& s, std::string& out) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void dump_value(const Json& v, std::string& out) {
  switch (v.kind()) {
    case Json::Kind::kNull:
      out += "null";
      break;
    case Json::Kind::kBool:
      out += v.as_bool() ? "true" : "false";
      break;
    case Json::Kind::kNumber: {
      const double d = v.as_number();
      if (std::nearbyint(d) == d && std::fabs(d) < 9.0e15) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(d));
        out += buf;
      } else {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", d);
        out += buf;
      }
      break;
    }
    case Json::Kind::kString:
      dump_string(v.as_string(), out);
      break;
    case Json::Kind::kArray: {
      out.push_back('[');
      bool first = true;
      for (const auto& e : v.as_array()) {
        if (!first) out.push_back(',');
        first = false;
        dump_value(e, out);
      }
      out.push_back(']');
      break;
    }
    case Json::Kind::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [k, e] : v.as_object()) {
        if (!first) out.push_back(',');
        first = false;
        dump_string(k, out);
        out.push_back(':');
        dump_value(e, out);
      }
      out.push_back('}');
      break;
    }
  }
}

struct Parser {
  const char* p;
  const char* end;
  size_t depth = 0;  ///< arrays and objects currently open

  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) ++p;
  }
  bool literal(const char* s) {
    const size_t n = std::strlen(s);
    if (static_cast<size_t>(end - p) < n || std::strncmp(p, s, n) != 0) return false;
    p += n;
    return true;
  }

  std::optional<Json> value() {
    skip_ws();
    if (p >= end) return std::nullopt;
    switch (*p) {
      case 'n': return literal("null") ? std::optional<Json>(Json()) : std::nullopt;
      case 't': return literal("true") ? std::optional<Json>(Json(true)) : std::nullopt;
      case 'f': return literal("false") ? std::optional<Json>(Json(false)) : std::nullopt;
      case '"': return string_value();
      case '[':
      case '{': {
        if (depth == Json::kMaxDepth) return std::nullopt;
        ++depth;
        auto v = *p == '[' ? array_value() : object_value();
        --depth;
        return v;
      }
      default: return number_value();
    }
  }

  std::optional<Json> string_value() {
    ++p;  // opening quote
    std::string out;
    while (p < end && *p != '"') {
      if (*p == '\\') {
        ++p;
        if (p >= end) return std::nullopt;
        switch (*p) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u': {
            // Reads the 4 hex digits after the 'u' at *p, leaving p on the
            // last digit (the shared ++p below steps past it).
            const auto hex4 = [this](unsigned& code) -> bool {
              if (end - p < 5) return false;
              code = 0;
              for (int i = 1; i <= 4; ++i) {
                const char c = p[i];
                code <<= 4;
                if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
                else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
                else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
                else return false;
              }
              p += 4;
              return true;
            };
            unsigned code = 0;
            if (!hex4(code)) return std::nullopt;
            // Surrogate halves are not code points: a lone low surrogate
            // (or a high one without its partner, below) is a parse error
            // rather than mojibake in the output.
            if (code >= 0xdc00 && code <= 0xdfff) return std::nullopt;
            if (code >= 0xd800 && code <= 0xdbff) {
              // High surrogate: combine with the mandatory following
              // \uDC00-\uDFFF escape into one supplementary-plane point.
              if (end - p < 3 || p[1] != '\\' || p[2] != 'u') return std::nullopt;
              p += 2;  // onto the second 'u'
              unsigned low = 0;
              if (!hex4(low)) return std::nullopt;
              if (low < 0xdc00 || low > 0xdfff) return std::nullopt;
              code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
            }
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xc0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
            } else if (code < 0x10000) {
              out.push_back(static_cast<char>(0xe0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
            } else {
              out.push_back(static_cast<char>(0xf0 | (code >> 18)));
              out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3f)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
            }
            break;
          }
          default: return std::nullopt;
        }
        ++p;
      } else {
        out.push_back(*p++);
      }
    }
    if (p >= end) return std::nullopt;
    ++p;  // closing quote
    return Json(std::move(out));
  }

  std::optional<Json> number_value() {
    const char* start = p;
    if (p < end && *p == '-') ++p;
    while (p < end && ((*p >= '0' && *p <= '9') || *p == '.' || *p == 'e' || *p == 'E' ||
                       *p == '+' || *p == '-')) {
      ++p;
    }
    if (p == start) return std::nullopt;
    char* parsed_end = nullptr;
    const std::string text(start, p);
    const double v = std::strtod(text.c_str(), &parsed_end);
    if (parsed_end != text.c_str() + text.size()) return std::nullopt;
    return Json(v);
  }

  std::optional<Json> array_value() {
    ++p;  // '['
    JsonArray out;
    skip_ws();
    if (p < end && *p == ']') {
      ++p;
      return Json(std::move(out));
    }
    while (true) {
      auto v = value();
      if (!v) return std::nullopt;
      out.push_back(std::move(*v));
      skip_ws();
      if (p < end && *p == ',') {
        ++p;
        continue;
      }
      if (p < end && *p == ']') {
        ++p;
        return Json(std::move(out));
      }
      return std::nullopt;
    }
  }

  std::optional<Json> object_value() {
    ++p;  // '{'
    JsonObject out;
    skip_ws();
    if (p < end && *p == '}') {
      ++p;
      return Json(std::move(out));
    }
    while (true) {
      skip_ws();
      if (p >= end || *p != '"') return std::nullopt;
      auto key = string_value();
      if (!key) return std::nullopt;
      skip_ws();
      if (p >= end || *p != ':') return std::nullopt;
      ++p;
      auto v = value();
      if (!v) return std::nullopt;
      out[key->as_string()] = std::move(*v);
      skip_ws();
      if (p < end && *p == ',') {
        ++p;
        continue;
      }
      if (p < end && *p == '}') {
        ++p;
        return Json(std::move(out));
      }
      return std::nullopt;
    }
  }
};

}  // namespace

std::string Json::dump() const {
  std::string out;
  dump_value(*this, out);
  return out;
}

std::optional<Json> Json::parse(const std::string& text) {
  Parser parser{text.data(), text.data() + text.size()};
  auto v = parser.value();
  if (!v) return std::nullopt;
  parser.skip_ws();
  if (parser.p != parser.end) return std::nullopt;
  return v;
}

std::string to_hex_quantity(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string to_hex_bytes(const std::vector<uint8_t>& bytes) {
  std::string out = "0x";
  static const char* digits = "0123456789abcdef";
  for (uint8_t b : bytes) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xf]);
  }
  return out;
}

namespace {
std::optional<unsigned> hex_digit(char c) {
  if (c >= '0' && c <= '9') return static_cast<unsigned>(c - '0');
  if (c >= 'a' && c <= 'f') return static_cast<unsigned>(c - 'a' + 10);
  if (c >= 'A' && c <= 'F') return static_cast<unsigned>(c - 'A' + 10);
  return std::nullopt;
}
}  // namespace

std::optional<uint64_t> from_hex_quantity(const std::string& s) {
  if (s.size() < 3 || s[0] != '0' || (s[1] != 'x' && s[1] != 'X')) return std::nullopt;
  if (s.size() > 2 + 16) return std::nullopt;
  uint64_t v = 0;
  for (size_t i = 2; i < s.size(); ++i) {
    auto d = hex_digit(s[i]);
    if (!d) return std::nullopt;
    v = (v << 4) | *d;
  }
  return v;
}

std::optional<std::vector<uint8_t>> from_hex_bytes(const std::string& s) {
  if (s.size() < 2 || s[0] != '0' || (s[1] != 'x' && s[1] != 'X')) return std::nullopt;
  if ((s.size() - 2) % 2 != 0) return std::nullopt;
  std::vector<uint8_t> out;
  out.reserve((s.size() - 2) / 2);
  for (size_t i = 2; i < s.size(); i += 2) {
    auto hi = hex_digit(s[i]);
    auto lo = hex_digit(s[i + 1]);
    if (!hi || !lo) return std::nullopt;
    out.push_back(static_cast<uint8_t>((*hi << 4) | *lo));
  }
  return out;
}

}  // namespace topo::rpc

#include "io/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace mecra::io {

// ------------------------------------------------------------- JsonObject

std::size_t JsonObject::find(std::string_view key) const {
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (keys_[i] == key) return i;
  }
  return keys_.size();
}

void JsonObject::set(std::string key, Json value) {
  const std::size_t i = find(key);
  if (i < keys_.size()) {
    values_[i] = std::move(value);
    return;
  }
  keys_.push_back(std::move(key));
  values_.push_back(std::move(value));
}

bool JsonObject::contains(std::string_view key) const {
  return find(key) < keys_.size();
}

const Json& JsonObject::at(std::string_view key) const {
  const std::size_t i = find(key);
  MECRA_CHECK_MSG(i < keys_.size(), "missing JSON key: " + std::string(key));
  return values_[i];
}

// ------------------------------------------------------------------ dump

std::int64_t Json::as_int() const {
  const double d = as_double();
  const double rounded = std::round(d);
  MECRA_CHECK_MSG(std::abs(d - rounded) < 1e-9,
                  "JSON number is not an integer");
  return static_cast<std::int64_t>(rounded);
}

namespace {

void append_escaped(std::string& out, std::string_view s) {
  out += '"';
  // Copy maximal clean runs in bulk; the per-character switch only runs for
  // the rare characters that actually need escaping.
  std::size_t flushed = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char ch = s[i];
    if (static_cast<unsigned char>(ch) >= 0x20 && ch != '"' && ch != '\\') {
      continue;  // UTF-8 bytes pass through
    }
    out.append(s.substr(flushed, i - flushed));
    flushed = i + 1;
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", ch);
        out += buf;
      }
    }
  }
  out.append(s.substr(flushed));
  out += '"';
}

void append_number(std::string& out, double d) {
  MECRA_CHECK_MSG(std::isfinite(d), "JSON cannot represent non-finite numbers");
  // Integers up to 2^53 print without a decimal point. Integer to_chars
  // produces the same digits as the historical snprintf("%.0f") at a
  // fraction of the cost (this runs three times per journal record).
  if (d == std::floor(d) && std::abs(d) < 9.007199254740992e15) {
    if (d == 0.0 && std::signbit(d)) {
      out += "-0";  // %.0f printed the sign of negative zero
      return;
    }
    char buf[32];
    const auto [ptr, ec] =
        std::to_chars(buf, buf + sizeof buf, static_cast<std::int64_t>(d));
    MECRA_CHECK(ec == std::errc());
    out.append(buf, ptr);
    return;
  }
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, d);
  MECRA_CHECK(ec == std::errc());
  out.append(buf, ptr);
}

}  // namespace

struct Json::Dumper {
  int indent;
  std::string& out;

  void newline(int depth) {
    if (indent < 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * depth), ' ');
  }

  void dump(const Json& v, int depth) {  // NOLINT(misc-no-recursion)
    if (const Raw* raw = std::get_if<Raw>(&v.value_)) {
      out += raw->text;  // already compact, at any indent
    } else if (v.is_null()) {
      out += "null";
    } else if (v.is_bool()) {
      out += v.as_bool() ? "true" : "false";
    } else if (v.is_number()) {
      append_number(out, v.as_double());
    } else if (v.is_string()) {
      append_escaped(out, v.as_string());
    } else if (v.is_array()) {
      const auto& arr = v.as_array();
      if (arr.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (std::size_t i = 0; i < arr.size(); ++i) {
        if (i != 0) out += ',';
        newline(depth + 1);
        dump(arr[i], depth + 1);
      }
      newline(depth);
      out += ']';
    } else {
      const auto& obj = v.as_object();
      if (obj.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      for (std::size_t i = 0; i < obj.size(); ++i) {
        if (i != 0) out += ',';
        newline(depth + 1);
        append_escaped(out, obj.keys()[i]);
        out += indent < 0 ? ":" : ": ";
        dump(obj.values()[i], depth + 1);
      }
      newline(depth);
      out += '}';
    }
  }
};

Json Json::raw(std::string compact) { return Json(Raw{std::move(compact)}); }

std::string Json::dump(int indent) const {
  std::string out;
  Dumper d{indent, out};
  d.dump(*this, 0);
  return out;
}

void Json::dump_append(std::string& out) const {
  Dumper d{-1, out};
  d.dump(*this, 0);
}

void dump_string_append(std::string& out, std::string_view s) {
  append_escaped(out, s);
}

void dump_number_append(std::string& out, double d) {
  append_number(out, d);
}

// ----------------------------------------------------------------- parse

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse() {
    Json v = value();
    skip_ws();
    expect(pos_ == text_.size(), "trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    std::ostringstream os;
    os << "JSON parse error at offset " << pos_ << ": " << what;
    throw util::CheckFailure(os.str());
  }
  void expect(bool cond, const char* what) const {
    if (!cond) fail(what);
  }
  [[nodiscard]] char peek() const {
    expect(pos_ < text_.size(), "unexpected end of input");
    return text_[pos_];
  }
  char take() {
    const char ch = peek();
    ++pos_;
    return ch;
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  void literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p) {
      expect(pos_ < text_.size() && text_[pos_] == *p, "invalid literal");
      ++pos_;
    }
  }

  Json value() {  // NOLINT(misc-no-recursion)
    skip_ws();
    switch (peek()) {
      case 'n': literal("null"); return Json(nullptr);
      case 't': literal("true"); return Json(true);
      case 'f': literal("false"); return Json(false);
      case '"': return Json(string());
      case '[': return array();
      case '{': return object();
      default: return number();
    }
  }

  std::string string() {
    expect(take() == '"', "expected '\"'");
    std::string out;
    for (;;) {
      expect(pos_ < text_.size(), "unterminated string");
      const char ch = take();
      if (ch == '"') return out;
      if (ch != '\\') {
        expect(static_cast<unsigned char>(ch) >= 0x20,
               "raw control character in string");
        out += ch;
        continue;
      }
      const char esc = take();
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = take();
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("invalid \\u escape");
            }
          }
          // Encode the BMP code point as UTF-8 (surrogates unsupported —
          // the library never emits them).
          expect(code < 0xD800 || code > 0xDFFF,
                 "surrogate pairs are not supported");
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("invalid escape character");
      }
    }
  }

  Json number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    expect(pos_ > start, "expected a number");
    double out = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, out);
    if (ec != std::errc() || ptr != text_.data() + pos_) {
      fail("malformed number");
    }
    return Json(out);
  }

  Json array() {  // NOLINT(misc-no-recursion)
    expect(take() == '[', "expected '['");
    JsonArray out;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(out));
    }
    for (;;) {
      out.push_back(value());
      skip_ws();
      const char ch = take();
      if (ch == ']') return Json(std::move(out));
      expect(ch == ',', "expected ',' or ']' in array");
    }
  }

  Json object() {  // NOLINT(misc-no-recursion)
    expect(take() == '{', "expected '{'");
    JsonObject out;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(out));
    }
    for (;;) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(take() == ':', "expected ':' after object key");
      out.set(std::move(key), value());
      skip_ws();
      const char ch = take();
      if (ch == '}') return Json(std::move(out));
      expect(ch == ',', "expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(std::string_view text) { return Parser(text).parse(); }

}  // namespace mecra::io

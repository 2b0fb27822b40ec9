#include "obs/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace lac::obs::json {

namespace {

constexpr int kMaxDepth = 256;

}  // namespace

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";  // JSON has no Inf/NaN
    return;
  }
  char buf[32];
  const double r = std::nearbyint(v);
  if (r == v && std::fabs(v) < 9.0e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(r));
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  out += buf;
}

void append_number(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  out += buf;
}

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_escaped(out, s);
  return out;
}

void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void Writer::separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_.empty()) {
    if (first_.back()) {
      first_.back() = 0;
    } else {
      out_ += ',';
    }
  }
}

void Writer::begin_object() {
  separate();
  out_ += '{';
  first_.push_back(1);
}

void Writer::end_object() {
  first_.pop_back();
  out_ += '}';
}

void Writer::begin_array() {
  separate();
  out_ += '[';
  first_.push_back(1);
}

void Writer::end_array() {
  first_.pop_back();
  out_ += ']';
}

void Writer::key(std::string_view k) {
  separate();
  out_ += '"';
  append_escaped(out_, k);
  out_ += "\":";
  after_key_ = true;
}

void Writer::value(std::string_view v) {
  separate();
  out_ += '"';
  append_escaped(out_, v);
  out_ += '"';
}

void Writer::value(double v) {
  separate();
  append_number(out_, v);
}

void Writer::value(std::int64_t v) {
  separate();
  append_number(out_, v);
}

void Writer::value(bool v) {
  separate();
  out_ += v ? "true" : "false";
}

void Writer::null() {
  separate();
  out_ += "null";
}

std::string Writer::take() {
  std::string r = std::move(out_);
  out_.clear();
  first_.clear();
  after_key_ = false;
  return r;
}

Value Value::of(std::string_view s) {
  Value v;
  v.kind = Kind::kString;
  v.str.assign(s);
  return v;
}

Value Value::of(double d) {
  Value v;
  v.kind = Kind::kNumber;
  v.num = d;
  return v;
}

Value Value::of(std::int64_t i) {
  Value v;
  v.kind = Kind::kNumber;
  v.num = static_cast<double>(i);
  return v;
}

Value Value::of(bool b) {
  Value v;
  v.kind = Kind::kBool;
  v.b = b;
  return v;
}

const Value* Value::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

const Value* Value::at_path(
    std::initializer_list<std::string_view> keys) const {
  const Value* cur = this;
  for (const std::string_view k : keys) {
    cur = cur->find(k);
    if (cur == nullptr) return nullptr;
  }
  return cur;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  std::optional<Value> run() {
    skip_ws();
    Value v;
    if (!parse_value(v, 0)) return std::nullopt;
    skip_ws();
    if (pos_ != s_.size()) return std::nullopt;  // trailing garbage
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  [[nodiscard]] bool eof() const { return pos_ >= s_.size(); }
  [[nodiscard]] char peek() const { return s_[pos_]; }

  bool consume(char c) {
    if (eof() || s_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool parse_hex4(unsigned& out) {
    if (pos_ + 4 > s_.size()) return false;
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = s_[pos_++];
      out <<= 4;
      if (c >= '0' && c <= '9') out |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') out |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') out |= static_cast<unsigned>(c - 'A' + 10);
      else return false;
    }
    return true;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return false;
    while (!eof()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (eof()) return false;
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp = 0;
          if (!parse_hex4(cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: expect \uDC00..\uDFFF next.
            unsigned lo = 0;
            if (!consume('\\') || !consume('u') || !parse_hex4(lo) ||
                lo < 0xDC00 || lo > 0xDFFF)
              return false;
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return false;  // lone low surrogate
          }
          append_utf8(out, cp);
          break;
        }
        default: return false;
      }
    }
    return false;  // unterminated
  }

  bool parse_number(Value& v) {
    const std::size_t start = pos_;
    if (consume('-')) {}
    if (eof()) return false;
    while (!eof() && ((peek() >= '0' && peek() <= '9') || peek() == '.' ||
                      peek() == 'e' || peek() == 'E' || peek() == '+' ||
                      peek() == '-'))
      ++pos_;
    if (pos_ == start) return false;
    const std::string num(s_.substr(start, pos_ - start));
    char* end = nullptr;
    const double d = std::strtod(num.c_str(), &end);
    if (end == nullptr || *end != '\0') return false;
    v.kind = Value::Kind::kNumber;
    v.num = d;
    return true;
  }

  bool parse_value(Value& v, int depth) {
    if (depth > kMaxDepth || eof()) return false;
    switch (peek()) {
      case '{': {
        ++pos_;
        v.kind = Value::Kind::kObject;
        skip_ws();
        if (consume('}')) return true;
        while (true) {
          skip_ws();
          std::string key;
          if (!parse_string(key)) return false;
          skip_ws();
          if (!consume(':')) return false;
          skip_ws();
          Value member;
          if (!parse_value(member, depth + 1)) return false;
          v.object.emplace_back(std::move(key), std::move(member));
          skip_ws();
          if (consume(',')) continue;
          return consume('}');
        }
      }
      case '[': {
        ++pos_;
        v.kind = Value::Kind::kArray;
        skip_ws();
        if (consume(']')) return true;
        while (true) {
          skip_ws();
          Value element;
          if (!parse_value(element, depth + 1)) return false;
          v.array.push_back(std::move(element));
          skip_ws();
          if (consume(',')) continue;
          return consume(']');
        }
      }
      case '"': {
        v.kind = Value::Kind::kString;
        return parse_string(v.str);
      }
      case 't':
        v.kind = Value::Kind::kBool;
        v.b = true;
        return literal("true");
      case 'f':
        v.kind = Value::Kind::kBool;
        v.b = false;
        return literal("false");
      case 'n':
        v.kind = Value::Kind::kNull;
        return literal("null");
      default:
        return parse_number(v);
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

void serialize_into(const Value& v, Writer& w) {
  switch (v.kind) {
    case Value::Kind::kNull: w.null(); break;
    case Value::Kind::kBool: w.value(v.b); break;
    case Value::Kind::kNumber: w.value(v.num); break;
    case Value::Kind::kString: w.value(std::string_view(v.str)); break;
    case Value::Kind::kArray:
      w.begin_array();
      for (const auto& e : v.array) serialize_into(e, w);
      w.end_array();
      break;
    case Value::Kind::kObject:
      w.begin_object();
      for (const auto& [k, member] : v.object) {
        w.key(k);
        serialize_into(member, w);
      }
      w.end_object();
      break;
  }
}

}  // namespace

std::optional<Value> parse(std::string_view text) {
  return Parser(text).run();
}

std::optional<Value> parse_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse(buf.str());
}

std::string serialize(const Value& v) {
  Writer w;
  serialize_into(v, w);
  return w.take();
}

}  // namespace lac::obs::json

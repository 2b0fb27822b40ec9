// Minimal JSON support for the run-report pipeline: an RFC 8259 escaper,
// a streaming writer (no intermediate DOM needed to serialise a report),
// and a small recursive-descent parser so report consumers — examples,
// tests, downstream tooling — can read reports back without an external
// dependency.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lac::obs::json {

// Escapes `s` for inclusion inside a JSON string literal (quotes and
// backslashes escaped, control characters as \n, \t, ... or \u00XX).
// Does not add the surrounding quotes.
[[nodiscard]] std::string escape(std::string_view s);

// Appending forms of escape() and of the writer's number rendering
// (integral doubles without a fraction, others in round-trip %.17g,
// non-finite as null), for callers that render into a reused buffer.
void append_escaped(std::string& out, std::string_view s);
void append_number(std::string& out, double v);
void append_number(std::string& out, std::int64_t v);

// Streaming JSON writer.  Commas and colons are inserted automatically;
// the caller is responsible for well-formed nesting (begin/end pairs and
// key() before every value inside an object).
class Writer {
 public:
  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  // Object member key; must precede the member's value.
  void key(std::string_view k);

  void value(std::string_view v);
  void value(const char* v) { value(std::string_view(v)); }
  void value(double v);
  void value(std::int64_t v);
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(bool v);
  void null();

  // key() + value() shorthand.
  template <typename T>
  void kv(std::string_view k, T v) {
    key(k);
    value(v);
  }

  // The finished document.  The writer is left empty.
  [[nodiscard]] std::string take();

 private:
  void separate();  // comma bookkeeping before a value or key

  std::string out_;
  std::vector<char> first_;  // nesting stack; 1 = no member emitted yet
  bool after_key_ = false;
};

// Parsed JSON value (DOM).  Numbers are kept as double — report values
// are counts and seconds, both exact in a double's 53-bit mantissa.
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  static Value of(std::string_view s);
  static Value of(const char* s) { return of(std::string_view(s)); }
  static Value of(double v);
  static Value of(std::int64_t v);
  static Value of(int v) { return of(static_cast<std::int64_t>(v)); }
  static Value of(long long v) { return of(static_cast<std::int64_t>(v)); }
  static Value of(std::size_t v) { return of(static_cast<std::int64_t>(v)); }
  static Value of(bool v);

  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }

  // Object member lookup (first match); nullptr when absent or not an
  // object.
  [[nodiscard]] const Value* find(std::string_view key) const;

  // Chained find() through nested objects; nullptr when any hop fails.
  [[nodiscard]] const Value* at_path(
      std::initializer_list<std::string_view> keys) const;
};

// Parses a complete JSON document (trailing whitespace allowed, trailing
// garbage rejected).  Returns nullopt on malformed input or nesting
// deeper than an internal recursion limit.
[[nodiscard]] std::optional<Value> parse(std::string_view text);

// Reads `path` and parses it; nullopt on I/O or parse failure.
[[nodiscard]] std::optional<Value> parse_file(const std::string& path);

// Serialises a Value (inverse of parse; objects keep insertion order).
[[nodiscard]] std::string serialize(const Value& v);

}  // namespace lac::obs::json

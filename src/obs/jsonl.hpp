#pragma once

/// \file jsonl.hpp
/// Reader for the JSONL files the exporters write: one flat JSON object per
/// line whose values are strings, booleans, numbers or arrays of whole
/// numbers.  Span JSONL (obs/span.hpp) and operation-history JSONL
/// (core/spec/history.hpp) both parse through it.  It knows the dialect,
/// not the record types: the caller walks the keys and picks a reader per
/// value.
///
/// Strict about structure and number syntax, lenient about whitespace and
/// key order.  Every error is a std::logic_error naming the caller and the
/// 1-based line, e.g. "parse_spans_jsonl: line 5: unknown key 'bogus'".
/// Blank lines are skipped but still counted, so the number matches what an
/// editor shows.

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

namespace pqra::obs {

class JsonlReader {
 public:
  /// \p context prefixes every error message (the calling parser's name).
  JsonlReader(std::istream& in, std::string context);

  /// Moves to the next non-blank line and opens its object; false at the
  /// end of the input.
  bool next_line();

  /// Reads the current object's next key, or returns false after its
  /// closing brace (rejecting anything but whitespace after it).
  bool next_key(std::string& key);

  std::string read_string();
  bool read_bool();
  double read_double();

  /// A whole number that fits T: digits only, so a sign, a fraction, an
  /// exponent or a value above T's maximum is rejected.
  template <typename T>
  T read_uint() {
    return static_cast<T>(read_whole(std::numeric_limits<T>::max()));
  }

  /// A [...] array of whole numbers, each fitting 32 bits.
  std::vector<std::uint32_t> read_uint32_array();

  /// Throws std::logic_error "<context>: line <N>: <what>".
  [[noreturn]] void fail(const std::string& what) const;

 private:
  std::uint64_t read_whole(std::uint64_t max);
  std::string number_token();
  void skip_ws();
  char peek();
  void expect(char c);

  std::istream& in_;
  std::string context_;
  std::string line_;
  std::size_t lineno_ = 0;
  std::size_t pos_ = 0;
  bool first_key_ = true;
};

}  // namespace pqra::obs

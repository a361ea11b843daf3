#include "obs/jsonl.hpp"

#include <cctype>
#include <charconv>
#include <istream>
#include <stdexcept>
#include <utility>

namespace pqra::obs {

JsonlReader::JsonlReader(std::istream& in, std::string context)
    : in_(in), context_(std::move(context)) {}

bool JsonlReader::next_line() {
  while (std::getline(in_, line_)) {
    ++lineno_;
    pos_ = 0;
    skip_ws();
    if (pos_ == line_.size()) continue;
    expect('{');
    first_key_ = true;
    return true;
  }
  return false;
}

bool JsonlReader::next_key(std::string& key) {
  skip_ws();
  if (peek() == '}') {
    ++pos_;
    skip_ws();
    if (pos_ != line_.size()) fail("trailing garbage");
    return false;
  }
  if (!first_key_) expect(',');
  first_key_ = false;
  key = read_string();
  expect(':');
  return true;
}

std::string JsonlReader::read_string() {
  expect('"');
  std::string out;
  while (peek() != '"') {
    char c = line_[pos_++];
    if (c == '\\') {
      switch (peek()) {
        case '"':
          c = '"';
          break;
        case '\\':
          c = '\\';
          break;
        case 'n':
          c = '\n';
          break;
        case 't':
          c = '\t';
          break;
        default:
          fail("unsupported escape");
      }
      ++pos_;
    }
    out += c;
  }
  ++pos_;  // closing quote
  return out;
}

bool JsonlReader::read_bool() {
  skip_ws();
  if (line_.compare(pos_, 4, "true") == 0) {
    pos_ += 4;
    return true;
  }
  if (line_.compare(pos_, 5, "false") == 0) {
    pos_ += 5;
    return false;
  }
  fail("expected a boolean");
}

double JsonlReader::read_double() {
  const std::string tok = number_token();
  double value = 0.0;
  const auto [end, ec] =
      std::from_chars(tok.data(), tok.data() + tok.size(), value);
  if (ec == std::errc::result_out_of_range) fail("number out of range: " + tok);
  if (ec != std::errc() || end != tok.data() + tok.size()) {
    fail("malformed number '" + tok + "'");
  }
  return value;
}

std::uint64_t JsonlReader::read_whole(std::uint64_t max) {
  const std::string tok = number_token();
  for (char c : tok) {
    if (std::isdigit(static_cast<unsigned char>(c)) == 0) {
      fail("expected an unsigned integer, got '" + tok + "'");
    }
  }
  std::uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(tok.data(), tok.data() + tok.size(), value);
  if (ec != std::errc() || value > max) fail("number out of range: " + tok);
  return value;
}

std::vector<std::uint32_t> JsonlReader::read_uint32_array() {
  std::vector<std::uint32_t> out;
  expect('[');
  skip_ws();
  if (peek() == ']') {
    ++pos_;
    return out;
  }
  while (true) {
    out.push_back(read_uint<std::uint32_t>());
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return out;
    }
    expect(',');
  }
}

void JsonlReader::fail(const std::string& what) const {
  throw std::logic_error(context_ + ": line " + std::to_string(lineno_) +
                         ": " + what);
}

std::string JsonlReader::number_token() {
  skip_ws();
  const std::size_t start = pos_;
  while (pos_ < line_.size() &&
         (std::isdigit(static_cast<unsigned char>(line_[pos_])) != 0 ||
          line_[pos_] == '-' || line_[pos_] == '+' || line_[pos_] == '.' ||
          line_[pos_] == 'e' || line_[pos_] == 'E')) {
    ++pos_;
  }
  if (pos_ == start) fail("expected a number");
  return line_.substr(start, pos_ - start);
}

void JsonlReader::skip_ws() {
  while (pos_ < line_.size() &&
         std::isspace(static_cast<unsigned char>(line_[pos_])) != 0) {
    ++pos_;
  }
}

char JsonlReader::peek() {
  if (pos_ >= line_.size()) fail("truncated line");
  return line_[pos_];
}

void JsonlReader::expect(char c) {
  skip_ws();
  if (peek() != c) fail(std::string("expected '") + c + "'");
  ++pos_;
}

}  // namespace pqra::obs

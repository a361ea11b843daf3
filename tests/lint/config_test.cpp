/// \file config_test.cpp
/// pqra_lint's .pqra-lint.toml loader, in process: the repository's two
/// configs load, a multi-line array ends at its first ']' outside quotes,
/// and every truncation and single-byte substitution of a real config either
/// loads or fails with "<name>:<line>: " naming a line inside the text —
/// never a crash (the ASan and UBSan jobs run this sweep too).

#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint/common.hpp"

namespace pqra_lint {
namespace {

std::string read_source(const std::string& relative) {
  std::ifstream in(std::string(PQRA_SOURCE_DIR) + "/" + relative,
                   std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << relative;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Lines in \p text, counting a last line without a line break.
int line_count(const std::string& text) {
  int lines = 0;
  for (char c : text) lines += c == '\n';
  if (!text.empty() && text.back() != '\n') ++lines;
  return lines;
}

/// Parses \p text; a failure must read "cfg:<line>: <reason>" with the line
/// inside the text.  Sets \p loaded to whether it parsed.
testing::AssertionResult loads_or_fails_inside(const std::string& text,
                                               bool& loaded) {
  Config cfg;
  std::string err;
  loaded = parse_config("cfg", text, cfg, err);
  if (loaded) return testing::AssertionSuccess();
  std::size_t digits = 4;
  while (digits < err.size() && err[digits] >= '0' && err[digits] <= '9') {
    ++digits;
  }
  if (err.rfind("cfg:", 0) != 0 || digits == 4 ||
      err.compare(digits, 2, ": ") != 0) {
    return testing::AssertionFailure() << "malformed error '" << err << "'";
  }
  int line = std::stoi(err.substr(4, digits - 4));
  if (line < 1 || line > line_count(text)) {
    return testing::AssertionFailure()
           << "error names line " << line << " of " << line_count(text)
           << ": '" << err << "'";
  }
  return testing::AssertionSuccess();
}

TEST(LintConfig, RepositoryConfigsLoad) {
  for (const char* file :
       {".pqra-lint.toml", "tests/lint/fixtures/lint.toml"}) {
    Config cfg;
    std::string err;
    EXPECT_TRUE(parse_config(file, read_source(file), cfg, err)) << err;
  }
}

TEST(LintConfig, ArrayEndsAtItsFirstBracketOutsideQuotes) {
  Config cfg;
  std::string err;
  ASSERT_TRUE(parse_config("cfg",
                           "[rule.determinism-rng]\n"
                           "allow = [\n"
                           "  \"a]b\",\n"
                           "  \"c\"  # trailing comment\n"
                           "]  # done\n",
                           cfg, err))
      << err;
  EXPECT_EQ(cfg.rules["determinism-rng"].allow,
            (std::vector<std::string>{"a]b", "c"}));
}

TEST(LintConfig, EveryTruncationLoadsOrFailsInside) {
  const std::string text = read_source(".pqra-lint.toml");
  ASSERT_FALSE(text.empty());
  std::size_t loaded_count = 0;
  for (std::size_t n = 0; n <= text.size(); ++n) {
    bool loaded = false;
    ASSERT_TRUE(loads_or_fails_inside(text.substr(0, n), loaded))
        << "truncated to " << n << " bytes";
    loaded_count += loaded;
  }
  EXPECT_GT(loaded_count, 0u);
  EXPECT_LT(loaded_count, text.size() + 1);
}

TEST(LintConfig, EverySubstitutionLoadsOrFailsInside) {
  const std::string text = read_source("tests/lint/fixtures/lint.toml");
  ASSERT_FALSE(text.empty());
  const char bytes[] = {'"', '[', ']', '=', ',', '#', '\n', '\0', '\xff'};
  std::size_t loaded_count = 0, mutants = 0;
  for (std::size_t at = 0; at < text.size(); ++at) {
    for (char b : bytes) {
      std::string mutant = text;
      mutant[at] = b;
      bool loaded = false;
      ASSERT_TRUE(loads_or_fails_inside(mutant, loaded))
          << "byte " << at << " := " << static_cast<int>(b);
      loaded_count += loaded;
      ++mutants;
    }
  }
  EXPECT_GT(loaded_count, 0u);
  EXPECT_LT(loaded_count, mutants);
}

}  // namespace
}  // namespace pqra_lint

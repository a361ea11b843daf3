#pragma once

/// \file common.hpp
/// Shared vocabulary for the pqra_lint passes (docs/STATIC_ANALYSIS.md).
///
/// pqra_lint v2 is a multi-pass analyzer split across five modules:
///
///   index.*      pass 1 — tokenizer + per-file indexing (symbols, calls,
///                facts, taint statements) behind a content-hash cache
///   callgraph.*  pass 2 — project-wide call graph; re-bases the hotpath-*
///                rules on reachability from the DES fire loop
///   taint.*      pass 3 — nondeterminism-taint source→sink propagation
///   rules.cpp    the per-file token rules carried over from v1, plus the
///                include-closure unordered-iter pass
///   main.cpp     driver: file walk, parallel scan, cache, --sarif/--diff
///
/// This header holds the types every module speaks: tokens, configuration,
/// violations and the rule catalogue.  Exit status contract (unchanged from
/// v1): 0 clean, 1 violations found, 2 usage/configuration error.

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace pqra_lint {

// ---------------------------------------------------------------------------
// Tokens
// ---------------------------------------------------------------------------

enum class TokKind { kIdent, kPunct, kString, kNumber };

struct Token {
  TokKind kind;
  std::string text;  // for kString: the literal's *contents*, unescaped-ish
  int line;
};

// ---------------------------------------------------------------------------
// Configuration (.pqra-lint.toml)
// ---------------------------------------------------------------------------

struct RuleConfig {
  std::vector<std::string> allow;  // path globs exempt from the rule
  std::vector<std::string> paths;  // if non-empty, rule only applies here
};

/// [callgraph]: the reachability pass.  Roots are qualified-name suffixes
/// ("Simulator::run", or an unqualified free-function name); every function
/// defined in a hotpath-* `paths` file and every lambda passed to one of
/// `schedulers` is a root implicitly.  `scope` limits which files the
/// transitive findings may land in; `allow` exempts files (the threaded
/// runtime) with a justification comment in the config.
struct CallGraphConfig {
  std::vector<std::string> roots;
  std::vector<std::string> schedulers = {"schedule_in", "schedule_at",
                                         "schedule_batch"};
  std::vector<std::string> scope;
  std::vector<std::string> allow;
};

struct Config {
  std::vector<std::string> extensions = {".cpp", ".hpp", ".cc", ".h"};
  std::map<std::string, RuleConfig> rules;
  CallGraphConfig callgraph;
};

/// Loads \p file.  On failure returns false with \p err =
/// "<file>:<line>: <reason>" (or "<file>: <reason>" for open errors) — the
/// driver turns any config failure into a hard exit 2, never a clean scan.
bool load_config(const std::string& file, Config& cfg, std::string& err);

// ---------------------------------------------------------------------------
// Violations and the rule catalogue
// ---------------------------------------------------------------------------

struct Violation {
  std::string path;
  int line;
  std::string rule;
  std::string message;
  std::string hint;
};

struct RuleInfo {
  std::string id;
  std::string summary;
};

const std::vector<RuleInfo>& rule_table();

/// Fix hint attached to every diagnostic of \p rule (stable text: the
/// golden tests byte-compare it).
const std::string& rule_hint(const std::string& rule);

/// True when \p rule exists in rule_table() — config sections naming an
/// unknown rule are a parse error (typo safety).
bool known_rule(const std::string& rule);

// ---------------------------------------------------------------------------
// Small shared helpers
// ---------------------------------------------------------------------------

std::string trim(const std::string& s);

/// Glob match supporting '*' (any run of chars, including '/').  A pattern
/// with a trailing '/' matches the whole subtree.
bool glob_match(const std::string& pat, const std::string& path);
bool matches_any(const std::vector<std::string>& pats, const std::string& path);

/// Forward-slashes, strips a leading "./".
std::string normalize(std::string p);

/// FNV-1a 64 over bytes — the content hash keying the index cache.  The
/// same fold the Simulator uses for fingerprints, so cache keys are stable
/// across platforms and standard libraries (never std::hash).
std::uint64_t fnv1a(const void* data, std::size_t n);

/// Percent-encodes '%', '\t', '\n', '\r' and ' ' so variable-text fields
/// survive the whitespace-delimited cache format; decode() inverts it.
std::string cache_encode(const std::string& s);
std::string cache_decode(const std::string& s);

}  // namespace pqra_lint

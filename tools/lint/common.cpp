#include "common.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

namespace pqra_lint {

// ---------------------------------------------------------------------------
// Rule catalogue
// ---------------------------------------------------------------------------

const std::vector<RuleInfo>& rule_table() {
  static const std::vector<RuleInfo> kRules = {
      {"determinism-rng",
       "raw RNG sources (std::random_device, mt19937, rand) outside "
       "util::Rng"},
      {"determinism-clock",
       "wall-clock reads (system_clock, time(), gettimeofday) in simulated "
       "code"},
      {"unordered-iter",
       "iteration over std::unordered_{map,set} (hash order leaks into "
       "output)"},
      {"hotpath-function",
       "std::function in DES hot-path code (heap-allocates)"},
      {"hotpath-alloc",
       "heap allocation (new/make_unique/malloc) in DES hot-path code"},
      {"hotpath-blocking",
       "blocking primitives (mutex/condition_variable/sleep) in DES code"},
      {"metric-name",
       "metric-name string literal outside src/obs/names.hpp (string "
       "drift)"},
      {"taint-hash-order",
       "hash-ordered value (std::hash, unordered iteration) reaches an "
       "output sink"},
      {"taint-ptr-identity",
       "pointer identity (ptr->int cast, %p, void* insertion) reaches an "
       "output sink"},
      {"taint-wall-clock",
       "wall-clock value reaches an output sink (replay divergence)"},
  };
  return kRules;
}

bool known_rule(const std::string& rule) {
  for (const RuleInfo& r : rule_table()) {
    if (r.id == rule) return true;
  }
  return false;
}

const std::string& rule_hint(const std::string& rule) {
  static const std::map<std::string, std::string> kHints = {
      {"determinism-rng",
       "draw randomness through util::Rng (src/util/rng.hpp); derive "
       "per-stream generators with Rng::fork(stream_id)"},
      {"determinism-clock",
       "simulated code must take time from sim::Simulator::now(); threaded "
       "runtime timeouts use steady_clock (allowlisted files only)"},
      {"unordered-iter",
       "iterate a sorted snapshot (copy keys/entries into a std::vector and "
       "std::sort) or use std::map/std::set when order reaches any output"},
      {"hotpath-function",
       "use sim::EventFn (sim/event_fn.hpp): small-buffer storage, "
       "no heap allocation in the schedule->fire loop"},
      {"hotpath-alloc",
       "event-path storage must come from sim::EventArena (recycled slab "
       "blocks); construction-time factories need an inline escape"},
      {"hotpath-blocking",
       "the DES is single-threaded by contract (docs/PERFORMANCE.md); "
       "threaded-runtime files belong on the rule's allowlist"},
      {"metric-name",
       "add a constant to src/obs/names.hpp and reference it "
       "(obs::names::k...)"},
      {"taint-hash-order",
       "hash order must never reach bytes, fingerprints, metrics or stdout: "
       "sort a snapshot before emitting, or key on deterministic ids "
       "(docs/STATIC_ANALYSIS.md)"},
      {"taint-ptr-identity",
       "pointer values vary per run (ASLR/allocator): emit stable ids (node "
       "index, op id) instead of addresses"},
      {"taint-wall-clock",
       "wall-clock values in output break byte-identical replay: take time "
       "from sim::Simulator::now()"},
  };
  static const std::string kEmpty;
  auto it = kHints.find(rule);
  return it == kHints.end() ? kEmpty : it->second;
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

std::string trim(const std::string& s) {
  std::size_t a = s.find_first_not_of(" \t\r");
  if (a == std::string::npos) return "";
  std::size_t b = s.find_last_not_of(" \t\r");
  return s.substr(a, b - a + 1);
}

bool glob_match(const std::string& pat, const std::string& path) {
  if (!pat.empty() && pat.back() == '/') {
    return path.rfind(pat, 0) == 0;
  }
  std::size_t p = 0, s = 0, star = std::string::npos, mark = 0;
  while (s < path.size()) {
    if (p < pat.size() && (pat[p] == path[s])) {
      ++p, ++s;
    } else if (p < pat.size() && pat[p] == '*') {
      star = p++;
      mark = s;
    } else if (star != std::string::npos) {
      p = star + 1;
      s = ++mark;
    } else {
      return false;
    }
  }
  while (p < pat.size() && pat[p] == '*') ++p;
  return p == pat.size();
}

bool matches_any(const std::vector<std::string>& pats,
                 const std::string& path) {
  for (const std::string& pat : pats) {
    if (glob_match(pat, path)) return true;
  }
  return false;
}

std::string normalize(std::string p) {
  for (char& c : p) {
    if (c == '\\') c = '/';
  }
  if (p.rfind("./", 0) == 0) p = p.substr(2);
  return p;
}

bool read_file(const std::string& path, std::string& out) {
  // A directory opens as an empty stream, which would read as an empty
  // (and so permissive) config.
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) return false;
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

// ---------------------------------------------------------------------------
// Configuration loader — a deliberately small TOML subset: [sections],
// key = "string" | [ "array", "of", "strings" ], # comments.  An array may
// span lines and ends at its first ']' outside quotes; after a value or a
// section header only a comment may follow on its line.  Every malformed
// construct is a hard error with a name:line diagnostic (a silently-ignored
// line once let an unreadable config produce a clean exit through a harness
// wrapper; see tests/lint/lint_config_error.cmake).
// ---------------------------------------------------------------------------

namespace {

/// Cursor over the config text; tracks the 1-based line it is on and
/// formats the first error.
struct Scanner {
  const std::string& name;
  const std::string& text;
  std::string& err;
  std::size_t pos = 0;
  int line = 1;

  bool at_end() const { return pos >= text.size(); }
  char peek() const { return text[pos]; }
  void advance() {
    if (text[pos++] == '\n') ++line;
  }

  bool fail(int ln, const std::string& why) {
    err = name + ":" + std::to_string(ln) + ": " + why;
    return false;
  }

  void skip_comment() {
    while (!at_end() && peek() != '\n') advance();
  }

  /// Skips spaces, tabs and '\r'; with \p newlines also line breaks and
  /// comments (the blank space inside a multi-line array).
  void skip_blank(bool newlines) {
    while (!at_end()) {
      char c = peek();
      if (c == ' ' || c == '\t' || c == '\r' || (newlines && c == '\n')) {
        advance();
      } else if (newlines && c == '#') {
        skip_comment();
      } else {
        return;
      }
    }
  }

  /// Ends a header or key line: blanks, an optional comment, then the line
  /// break or the end of the text.  False on any other text.
  bool end_line() {
    skip_blank(false);
    if (!at_end() && peek() == '#') skip_comment();
    if (at_end()) return true;
    if (peek() != '\n') return false;
    advance();
    return true;
  }

  /// A double-quoted string on one line; no escapes.
  bool string(std::vector<std::string>& out) {
    std::size_t close = text.find_first_of("\"\n", pos + 1);
    if (close == std::string::npos || text[close] != '"') {
      return fail(line, "unterminated string");
    }
    out.push_back(text.substr(pos + 1, close - pos - 1));
    pos = close + 1;
    return true;
  }

  /// One string, or an array of strings (trailing comma allowed) that may
  /// span lines and ends at its first ']' outside quotes.  \p key_line
  /// names an array that never closes.
  bool value(int key_line, std::vector<std::string>& out) {
    if (!at_end() && peek() == '"') return string(out);
    if (at_end() || peek() != '[') {
      return fail(line,
                  "value must be a \"string\" or [\"array\", \"of\", "
                  "\"strings\"]");
    }
    advance();
    skip_blank(true);
    while (at_end() || peek() != ']') {
      if (at_end()) {
        return fail(key_line, "unterminated array (no closing ']')");
      }
      if (peek() != '"') {
        return fail(line, "array elements must be double-quoted strings");
      }
      if (!string(out)) return false;
      skip_blank(true);
      if (!at_end() && peek() == ',') {
        advance();
        skip_blank(true);
      } else if (!at_end() && peek() != ']') {
        return fail(line, "missing ',' between array elements");
      }
    }
    advance();
    return true;
  }
};

/// True for [lint], [callgraph] and [rule.<id>] of a known rule; false with
/// \p why otherwise.
bool known_section(const std::string& section, std::string& why) {
  if (section == "lint" || section == "callgraph") return true;
  if (section.rfind("rule.", 0) == 0) {
    if (known_rule(section.substr(5))) return true;
    why = "unknown rule '" + section.substr(5) + "' (see --list-rules)";
    return false;
  }
  why = section.empty() ? "empty section name"
                        : "unknown section [" + section + "]";
  return false;
}

/// The list `key = ...` sets in \p section (one known_section() accepts),
/// or nullptr for a key the section does not have.
std::vector<std::string>* config_slot(Config& cfg, const std::string& section,
                                      const std::string& key) {
  if (section == "lint") {
    return key == "extensions" ? &cfg.extensions : nullptr;
  }
  if (section == "callgraph") {
    if (key == "roots") return &cfg.callgraph.roots;
    if (key == "schedulers") return &cfg.callgraph.schedulers;
    if (key == "scope") return &cfg.callgraph.scope;
    if (key == "allow") return &cfg.callgraph.allow;
    return nullptr;
  }
  if (key != "allow" && key != "paths") return nullptr;
  RuleConfig& rc = cfg.rules[section.substr(5)];
  return key == "allow" ? &rc.allow : &rc.paths;
}

}  // namespace

bool parse_config(const std::string& name, const std::string& text,
                  Config& cfg, std::string& err) {
  Scanner sc{name, text, err};
  std::string section;
  for (;;) {
    sc.skip_blank(false);
    if (sc.at_end()) return true;
    const int ln = sc.line;
    if (sc.peek() == '\n' || sc.peek() == '#') {
      sc.end_line();
      continue;
    }
    if (sc.peek() == '[') {
      std::size_t close = text.find_first_of("]\n", sc.pos);
      if (close == std::string::npos || text[close] != ']') {
        return sc.fail(ln, "section header missing closing ']'");
      }
      section = trim(text.substr(sc.pos + 1, close - sc.pos - 1));
      sc.pos = close + 1;
      std::string why;
      if (!known_section(section, why)) return sc.fail(ln, why);
      if (!sc.end_line()) {
        return sc.fail(ln, "unexpected text after the section header");
      }
      continue;
    }
    std::size_t eq = text.find_first_of("=\n#", sc.pos);
    if (eq == std::string::npos || text[eq] != '=') {
      return sc.fail(ln, "expected 'key = value' or '[section]'");
    }
    std::string key = trim(text.substr(sc.pos, eq - sc.pos));
    sc.pos = eq + 1;
    if (key.empty()) return sc.fail(ln, "missing key before '='");
    if (section.empty()) return sc.fail(ln, "key outside any [section]");
    std::vector<std::string>* slot = config_slot(cfg, section, key);
    if (slot == nullptr) {
      return sc.fail(ln, "unknown key '" + key + "' in [" + section + "]");
    }
    std::vector<std::string> items;
    sc.skip_blank(false);
    if (!sc.value(ln, items)) return false;
    if (!sc.end_line()) {
      return sc.fail(sc.line, "unexpected text after the value");
    }
    *slot = std::move(items);
  }
}

bool load_config(const std::string& file, Config& cfg, std::string& err) {
  std::string text;
  if (!read_file(file, text)) {
    err = file + ": cannot open config file";
    return false;
  }
  return parse_config(file, text, cfg, err);
}

}  // namespace pqra_lint

#pragma once

/// \file index.hpp
/// Pass 1: per-file indexing.
///
/// For every source file the indexer extracts, in one tokenizer pass, all
/// the structure the later passes need, so passes 2 and 3 never touch
/// source text again:
///
///   - quoted #include targets (the project include graph)
///   - names declared with an unordered container type (unordered-iter)
///   - inline `// pqra-lint: allow(...)` escapes by line
///   - an approximate symbol table: function and method definitions,
///     lambdas (attributed to their enclosing function; lambdas passed to a
///     Simulator scheduler are marked as event bodies), and one pseudo-node
///     per class for class-scope declarations
///   - qualified call sites (virtual dispatch over-approximated by name)
///   - hot-path facts: every std::function / new / make_unique / malloc /
///     blocking-primitive occurrence, attributed to its enclosing function
///   - token facts for the file-local rules (determinism-rng/clock,
///     metric-name) and iteration sites for unordered-iter
///   - a per-function statement stream for the taint pass: assignments,
///     returns, nondeterminism sources, output sinks, calls, sanitizers
///
/// Everything recorded here except event-body marking is
/// configuration-independent: which facts turn into diagnostics is decided
/// by the passes.

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common.hpp"

namespace pqra_lint {

struct FuncDef {
  std::string name;        // unqualified ("" for class pseudo-nodes)
  std::string qual;        // "Class::name", plain name, or "<lambda f:l>"
  std::string class_name;  // enclosing (or qualifying) class, "" if none
  int line_begin = 0;
  int line_end = 0;
  int parent = -1;           // enclosing function index (lambdas), else -1
  bool is_lambda = false;
  bool is_event_body = false;  // lambda passed to a scheduler call
  bool is_class_scope = false;  // pseudo-node for class-body declarations
  std::vector<std::string> stream_params;  // params of ostream-ish type
};

struct CallSite {
  int func = -1;  // index into FileIndex::funcs; -1 = file scope
  int line = 0;
  std::string callee;       // unqualified name
  std::string qual_prefix;  // "Class" when written Class::callee, else ""
  bool member = false;      // x.callee / x->callee
};

/// One banned-construct occurrence for the hotpath-* family.
/// rule: 'f' hotpath-function, 'a' hotpath-alloc, 'b' hotpath-blocking.
/// variant (alloc): 'n' `new`, 'm' make_unique/make_shared, 'c' libc call.
struct HotFact {
  int func = -1;
  int line = 0;
  char rule = 'a';
  char variant = 'n';
  std::string detail;  // construct name: "new", "make_unique", "mutex", ...
};

/// File-local token-rule occurrence.  rule: 'r' determinism-rng,
/// 'c' determinism-clock, 'm' metric-name; variant: 'i' banned identifier,
/// 'c' libc free call ('i' unused for metric-name).
struct TokenFact {
  int line = 0;
  char rule = 'r';
  char variant = 'i';
  std::string detail;
};

/// Candidate unordered-container iteration.  form: 'r' range-for (idents =
/// every identifier in the range expression, in token order), 'w' iterator
/// walk (idents = the single container name).  The unordered-iter pass
/// flags the first ident that resolves to an unordered-declared name in
/// this file's transitive include closure.
struct IterSite {
  char form = 'r';
  std::vector<std::pair<std::string, int>> idents;  // (name, line)
};

/// Taint sources.  kind: 'h' hash order, 'p' pointer identity, 'c' wall
/// clock.  detail is the human-readable construct ("std::hash", ...).
struct TaintSource {
  char kind = 'h';
  int line = 0;
  std::string detail;
};

/// One statement relevant to taint propagation (statements with no
/// assignment, return, source, sink or call are dropped at index time).
/// sinks: 'e' Codec encode, 'g' fingerprint accumulation, 'o' obs::
/// emitter, 's' ostream write, 'p' printf-family output.
struct Stmt {
  int func = -1;
  int line = 0;
  bool is_range_for = false;  // lhs = loop variable, idents = range expr
  bool is_return = false;
  bool sanitize = false;      // std::sort/stable_sort over its idents
  std::string lhs;            // assigned identifier, "" if none
  std::vector<std::string> idents;
  std::vector<TaintSource> sources;
  std::string sinks;               // set of sink kind chars, sorted
  std::vector<std::string> calls;  // callee names (unqualified)
};

struct FileIndex {
  std::string path;
  std::vector<std::string> includes;
  std::set<std::string> unordered_names;
  std::map<int, std::set<std::string>> escapes;
  std::vector<FuncDef> funcs;
  std::vector<CallSite> calls;
  std::vector<HotFact> hot_facts;
  std::vector<TokenFact> token_facts;
  std::vector<IterSite> iter_sites;
  std::vector<Stmt> stmts;

  /// True when an inline escape covers \p rule on \p line (an escape also
  /// covers the following line).
  bool escaped(const std::string& rule, int line) const;
};

/// Tokenizes and indexes one file.  \p schedulers marks which call names
/// make a lambda argument an event body (CallGraphConfig::schedulers).
FileIndex build_index(const std::string& path, const std::string& contents,
                      const std::vector<std::string>& schedulers);

}  // namespace pqra_lint

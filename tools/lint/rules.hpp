#pragma once

/// \file rules.hpp
/// The per-file token rules carried over from v1 — determinism-rng/clock,
/// metric-name, unordered-iter and the lexical (path-scoped) hotpath-*
/// checks — replayed from the pass-1 facts, so no rule re-tokenizes.
/// Diagnostic text and per-file ordering match v1 exactly:
/// the golden tests byte-compare the output.
///
/// unordered-iter is the one upgrade: names now come from the *transitive*
/// include closure (v1 looked one include deep), so v2 findings are a
/// strict superset.

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common.hpp"
#include "index.hpp"

namespace pqra_lint {

/// True when \p rule applies to \p path under cfg (v1 semantics: an
/// unconfigured rule is global; non-empty `paths` restricts; `allow`
/// exempts).
bool rule_applies(const Config& cfg, const std::string& rule,
                  const std::string& path);

/// Appends the file-local violations for \p idx.  \p closure_names are the
/// unordered-container names from the file's transitive include closure
/// (its own declarations included).
void check_file_rules(const Config& cfg, const FileIndex& idx,
                      const std::set<std::string>& closure_names,
                      std::vector<Violation>& out);

}  // namespace pqra_lint

/// \file main.cpp
/// pqra_lint driver: file walk, parallel per-file indexing, the three
/// passes (rules / reachability / taint), and the output backends (human
/// diagnostics, --sarif).
///
/// Exit status contract (unchanged from v1, relied on by
/// bench/run_benches.sh and CI): 0 clean, 1 violations, 2 usage or
/// configuration error.  Any config parse failure is a hard exit 2 with a
/// file:line diagnostic — never a clean scan.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>
#include <tuple>

#include "callgraph.hpp"
#include "common.hpp"
#include "index.hpp"
#include "rules.hpp"
#include "taint.hpp"

namespace fs = std::filesystem;

namespace pqra_lint {
namespace {

bool has_extension(const Config& cfg, const std::string& path) {
  for (const std::string& ext : cfg.extensions) {
    if (path.size() >= ext.size() &&
        path.compare(path.size() - ext.size(), ext.size(), ext) == 0) {
      return true;
    }
  }
  return false;
}

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " [--config FILE] [--sarif FILE] [--list-rules] PATH...\n"
         "Scans the given files/directories (relative to the working\n"
         "directory) for pqra project-invariant violations.  With no\n"
         "--config, reads .pqra-lint.toml from the working directory when\n"
         "present.\n"
         "  --sarif FILE  also write diagnostics as SARIF 2.1.0\n"
         "Exit: 0 clean, 1 violations, 2 error.\n";
  return 2;
}

// -- include resolution ------------------------------------------------------

/// Quoted includes resolve the way the build does: against src/ (the
/// project include root), then the including file's own directory, then the
/// literal path.
std::string resolve_include(const std::string& from, const std::string& inc) {
  for (const fs::path& candidate :
       {fs::path("src") / inc, fs::path(from).parent_path() / inc,
        fs::path(inc)}) {
    std::error_code ec;
    if (fs::is_regular_file(candidate, ec)) {
      return normalize(candidate.generic_string());
    }
  }
  return "";
}

// -- SARIF -------------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

bool write_sarif(const std::string& file,
                 const std::vector<Violation>& violations) {
  std::ofstream os(file, std::ios::binary | std::ios::trunc);
  if (!os) return false;
  std::map<std::string, std::size_t> rule_index;
  os << "{\n"
        "  \"$schema\": "
        "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
        "  \"version\": \"2.1.0\",\n"
        "  \"runs\": [\n"
        "    {\n"
        "      \"tool\": {\n"
        "        \"driver\": {\n"
        "          \"name\": \"pqra-lint\",\n"
        "          \"version\": \"2.0.0\",\n"
        "          \"informationUri\": "
        "\"https://example.invalid/docs/STATIC_ANALYSIS.md\",\n"
        "          \"rules\": [\n";
  const auto& rules = rule_table();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    rule_index[rules[i].id] = i;
    os << "            {\n"
       << "              \"id\": \"" << json_escape(rules[i].id) << "\",\n"
       << "              \"shortDescription\": { \"text\": \""
       << json_escape(rules[i].summary) << "\" },\n"
       << "              \"help\": { \"text\": \""
       << json_escape(rule_hint(rules[i].id)) << "\" },\n"
       << "              \"defaultConfiguration\": { \"level\": \"error\" }\n"
       << "            }" << (i + 1 < rules.size() ? "," : "") << "\n";
  }
  os << "          ]\n"
        "        }\n"
        "      },\n"
        "      \"columnKind\": \"utf16CodeUnits\",\n"
        "      \"results\": [\n";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    const Violation& v = violations[i];
    std::size_t ri =
        rule_index.count(v.rule) ? rule_index[v.rule] : std::size_t{0};
    os << "        {\n"
       << "          \"ruleId\": \"" << json_escape(v.rule) << "\",\n"
       << "          \"ruleIndex\": " << ri << ",\n"
       << "          \"level\": \"error\",\n"
       << "          \"message\": { \"text\": \""
       << json_escape(v.message + "; hint: " + v.hint) << "\" },\n"
       << "          \"locations\": [\n"
       << "            {\n"
       << "              \"physicalLocation\": {\n"
       << "                \"artifactLocation\": { \"uri\": \""
       << json_escape(v.path) << "\" },\n"
       << "                \"region\": { \"startLine\": "
       << (v.line > 0 ? v.line : 1) << " }\n"
       << "              }\n"
       << "            }\n"
       << "          ]\n"
       << "        }" << (i + 1 < violations.size() ? "," : "") << "\n";
  }
  os << "      ]\n"
        "    }\n"
        "  ]\n"
        "}\n";
  return static_cast<bool>(os);
}

}  // namespace
}  // namespace pqra_lint

int main(int argc, char** argv) {
  using namespace pqra_lint;

  std::string config_file, sarif_file;
  std::vector<std::string> roots;
  bool list_rules = false;
  for (int a = 1; a < argc; ++a) {
    std::string arg = argv[a];
    if (arg == "--config") {
      if (++a >= argc) return usage(argv[0]);
      config_file = argv[a];
    } else if (arg == "--cache") {
      // Accepted and ignored: bench/suite/run_suite.py's lint gate still
      // passes it.
      if (++a >= argc) return usage(argv[0]);
    } else if (arg == "--sarif") {
      if (++a >= argc) return usage(argv[0]);
      sarif_file = argv[a];
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else {
      roots.push_back(arg);
    }
  }
  if (list_rules) {
    for (const RuleInfo& r : rule_table()) {
      std::printf("%-20s %s\n", r.id.c_str(), r.summary.c_str());
    }
    return 0;
  }
  if (roots.empty()) return usage(argv[0]);

  Config cfg;
  if (config_file.empty() && fs::exists(".pqra-lint.toml")) {
    config_file = ".pqra-lint.toml";
  }
  if (!config_file.empty()) {
    std::string err;
    if (!load_config(config_file, cfg, err)) {
      std::cerr << "pqra_lint: " << err << "\n";
      return 2;
    }
  }

  // Collect files (sorted for deterministic diagnostics).
  std::vector<std::string> files;
  for (const std::string& root : roots) {
    fs::path rp(root);
    std::error_code ec;
    if (fs::is_directory(rp, ec)) {
      for (fs::recursive_directory_iterator it(rp, ec), end; it != end;
           it.increment(ec)) {
        if (ec) break;
        if (!it->is_regular_file()) continue;
        std::string p = normalize(it->path().generic_string());
        if (has_extension(cfg, p)) files.push_back(p);
      }
    } else if (fs::is_regular_file(rp, ec)) {
      files.push_back(normalize(rp.generic_string()));
    } else {
      std::cerr << "pqra_lint: no such file or directory: " << root << "\n";
      return 2;
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  // Pass 1: per-file indexing, parallel across files at hardware
  // concurrency, deterministic by slotting results at the file's position.
  std::vector<FileIndex> indexes(files.size());
  std::vector<char> unreadable(files.size(), 0);
  {
    std::atomic<std::size_t> next{0};
    auto worker = [&]() {
      for (std::size_t i = next.fetch_add(1); i < files.size();
           i = next.fetch_add(1)) {
        std::string contents;
        if (read_file(files[i], contents)) {
          indexes[i] =
              build_index(files[i], contents, cfg.callgraph.schedulers);
        } else {
          unreadable[i] = 1;
        }
      }
    };
    const std::size_t threads = std::min<std::size_t>(
        std::thread::hardware_concurrency(), files.size());
    std::vector<std::thread> pool;
    for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(worker);
    worker();
    for (std::thread& t : pool) t.join();
  }
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (unreadable[i]) {
      std::cerr << "pqra_lint: cannot read " << files[i] << "\n";
      return 2;
    }
  }

  std::map<std::string, const FileIndex*> by_path;
  for (const FileIndex& idx : indexes) by_path[idx.path] = &idx;

  // Headers pulled in by scanned files but outside the scan set still
  // contribute unordered-container names; index them on demand.
  std::map<std::string, FileIndex> aux;
  auto get_index = [&](const std::string& path) -> const FileIndex* {
    auto hit = by_path.find(path);
    if (hit != by_path.end()) return hit->second;
    auto ax = aux.find(path);
    if (ax != aux.end()) return &ax->second;
    std::string contents;
    if (!read_file(path, contents)) return nullptr;
    return &aux.emplace(path, build_index(path, contents,
                                          cfg.callgraph.schedulers))
                .first->second;
  };

  // Transitive include closure -> unordered-container names per file (v1
  // resolved one level; the closure catches aliases two headers deep).
  std::map<std::string, std::set<std::string>> closure_names;
  for (const FileIndex& idx : indexes) {
    std::set<std::string>& names = closure_names[idx.path];
    std::set<std::string> visited{idx.path};
    std::vector<const FileIndex*> queue{&idx};
    while (!queue.empty()) {
      const FileIndex* cur = queue.back();
      queue.pop_back();
      names.insert(cur->unordered_names.begin(), cur->unordered_names.end());
      for (const std::string& inc : cur->includes) {
        std::string resolved = resolve_include(cur->path, inc);
        if (resolved.empty() || !visited.insert(resolved).second) continue;
        if (const FileIndex* next = get_index(resolved)) {
          queue.push_back(next);
        }
      }
    }
  }

  // Passes 2+3 over the scanned set.
  std::vector<const FileIndex*> file_ptrs;
  for (const FileIndex& idx : indexes) file_ptrs.push_back(&idx);
  std::vector<Violation> violations;
  for (const FileIndex& idx : indexes) {
    check_file_rules(cfg, idx, closure_names[idx.path], violations);
  }
  check_reachability(cfg, file_ptrs, violations);
  check_taint(cfg, file_ptrs, closure_names, violations);

  // stable_sort: two diagnostics can tie on (path, line, rule) — e.g. a
  // `mutex` and a `lock_guard` fact on one line — and their relative order
  // must not depend on what else is in the array, or a one-file edit could
  // reshuffle another file's output.  Ties keep deterministic emission order.
  std::stable_sort(violations.begin(), violations.end(),
                   [](const Violation& a, const Violation& b) {
                     return std::tie(a.path, a.line, a.rule) <
                            std::tie(b.path, b.line, b.rule);
                   });
  for (const Violation& v : violations) {
    std::cout << v.path << ":" << v.line << ": [" << v.rule << "] "
              << v.message << "\n    hint: " << v.hint << "\n";
  }

  if (!sarif_file.empty() && !write_sarif(sarif_file, violations)) {
    std::cerr << "pqra_lint: cannot write SARIF to " << sarif_file << "\n";
    return 2;
  }
  if (!violations.empty()) {
    std::cout << "pqra_lint: " << violations.size() << " violation"
              << (violations.size() == 1 ? "" : "s") << " in " << files.size()
              << " files scanned\n";
    return 1;
  }
  std::cout << "pqra_lint: clean (" << files.size() << " files scanned)\n";
  return 0;
}

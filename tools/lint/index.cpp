#include "index.hpp"

#include <algorithm>
#include <cctype>

namespace pqra_lint {

namespace {

// ---------------------------------------------------------------------------
// Tokenizer (carried over from v1 byte-for-byte in behavior: the golden
// tests pin the diagnostics it feeds)
// ---------------------------------------------------------------------------

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Parses "pqra-lint: allow(a, b)" out of a comment body; returns the rule
/// ids (empty if the comment is not an escape).
std::set<std::string> parse_escape(const std::string& comment) {
  std::set<std::string> rules;
  const std::string key = "pqra-lint:";
  auto at = comment.find(key);
  if (at == std::string::npos) return rules;
  auto open = comment.find("allow(", at + key.size());
  if (open == std::string::npos) return rules;
  auto close = comment.find(')', open);
  if (close == std::string::npos) return rules;
  std::string list = comment.substr(open + 6, close - open - 6);
  std::string cur;
  for (char c : list) {
    if (c == ',') {
      if (!cur.empty()) rules.insert(cur);
      cur.clear();
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      cur += c;
    }
  }
  if (!cur.empty()) rules.insert(cur);
  return rules;
}

struct TokenStream {
  std::vector<Token> tokens;
  std::map<int, std::set<std::string>> escapes;
  std::vector<std::string> includes;
};

/// Tokenizes C++ source: strips comments (capturing pqra-lint escapes),
/// skips preprocessor lines (so `#include <new>` is not an allocation) and
/// collapses string literals to single tokens so banned identifiers inside
/// text never fire.  Line numbers are 1-based.
TokenStream tokenize(const std::string& src) {
  TokenStream scan;
  std::size_t i = 0;
  const std::size_t n = src.size();
  int line = 1;
  bool at_line_start = true;  // only whitespace seen since the last newline

  auto record_escape = [&scan](int ln, const std::string& body) {
    std::set<std::string> rules = parse_escape(body);
    if (!rules.empty()) scan.escapes[ln].insert(rules.begin(), rules.end());
  };

  while (i < n) {
    char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      at_line_start = true;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Preprocessor directive: skip to end of line, honouring continuations.
    // Quoted includes are recorded for the include graph.
    if (c == '#' && at_line_start) {
      std::size_t start = i;
      while (i < n) {
        if (src[i] == '\\' && i + 1 < n && src[i + 1] == '\n') {
          ++line;
          i += 2;
          continue;
        }
        if (src[i] == '\n') break;
        ++i;
      }
      std::string directive = src.substr(start, i - start);
      auto inc = directive.find("include");
      if (inc != std::string::npos) {
        auto q1 = directive.find('"', inc);
        if (q1 != std::string::npos) {
          auto q2 = directive.find('"', q1 + 1);
          if (q2 != std::string::npos) {
            scan.includes.push_back(directive.substr(q1 + 1, q2 - q1 - 1));
          }
        }
      }
      continue;
    }
    at_line_start = false;
    // Line comment (may carry an escape annotation).
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      std::size_t end = src.find('\n', i);
      if (end == std::string::npos) end = n;
      record_escape(line, src.substr(i + 2, end - i - 2));
      i = end;
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      std::size_t end = src.find("*/", i + 2);
      if (end == std::string::npos) end = n;
      std::string body = src.substr(i + 2, end - i - 2);
      record_escape(line, body);
      line += static_cast<int>(std::count(body.begin(), body.end(), '\n'));
      i = (end == n) ? n : end + 2;
      continue;
    }
    // Raw string literal: R"delim( ... )delim".
    if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
      std::size_t p = i + 2;
      std::string delim;
      while (p < n && src[p] != '(') delim += src[p++];
      std::string closer = ")" + delim + "\"";
      std::size_t end = src.find(closer, p);
      if (end == std::string::npos) end = n;
      std::string body = src.substr(p + 1, end - p - 1);
      scan.tokens.push_back({TokKind::kString, body, line});
      line += static_cast<int>(std::count(
          src.begin() + static_cast<long>(i),
          src.begin() + static_cast<long>(std::min(end + closer.size(), n)),
          '\n'));
      i = std::min(end + closer.size(), n);
      continue;
    }
    // String / char literal.
    if (c == '"' || c == '\'') {
      char quote = c;
      std::size_t p = i + 1;
      std::string body;
      while (p < n && src[p] != quote) {
        if (src[p] == '\\' && p + 1 < n) {
          body += src[p + 1];
          p += 2;
        } else {
          if (src[p] == '\n') ++line;
          body += src[p++];
        }
      }
      if (quote == '"') scan.tokens.push_back({TokKind::kString, body, line});
      i = (p < n) ? p + 1 : n;
      continue;
    }
    if (ident_start(c)) {
      std::size_t p = i;
      while (p < n && ident_char(src[p])) ++p;
      scan.tokens.push_back({TokKind::kIdent, src.substr(i, p - i), line});
      i = p;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t p = i;
      while (p < n && (ident_char(src[p]) || src[p] == '.' || src[p] == '\'')) {
        ++p;
      }
      scan.tokens.push_back({TokKind::kNumber, src.substr(i, p - i), line});
      i = p;
      continue;
    }
    // Punctuation.  "::" and "->" are kept whole (qualification / member
    // access matter to the rules); everything else is a single char so angle
    // bracket depth can be tracked without a ">>" special case.
    if (c == ':' && i + 1 < n && src[i + 1] == ':') {
      scan.tokens.push_back({TokKind::kPunct, "::", line});
      i += 2;
      continue;
    }
    if (c == '-' && i + 1 < n && src[i + 1] == '>') {
      scan.tokens.push_back({TokKind::kPunct, "->", line});
      i += 2;
      continue;
    }
    scan.tokens.push_back({TokKind::kPunct, std::string(1, c), line});
    ++i;
  }
  return scan;
}

// ---------------------------------------------------------------------------
// Unordered-container declaration harvest (v1 logic)
// ---------------------------------------------------------------------------

std::set<std::string> collect_unordered_names(const std::vector<Token>& t) {
  static const std::set<std::string> kUnordered = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  std::set<std::string> names;    // variables of unordered type
  std::set<std::string> aliases;  // using X = std::unordered_map<...>
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    bool unordered_type =
        kUnordered.count(t[i].text) > 0 || aliases.count(t[i].text) > 0;
    if (!unordered_type) continue;
    // `using X = ...unordered_map<...>;` registers an alias, not a var.
    bool in_using = false;
    for (std::size_t b = i; b-- > 0;) {
      if (t[b].text == ";" || t[b].text == "{" || t[b].text == "}") break;
      if (t[b].kind == TokKind::kIdent && t[b].text == "using") {
        in_using = true;
        if (b + 1 < t.size() && t[b + 1].kind == TokKind::kIdent) {
          aliases.insert(t[b + 1].text);
        }
        break;
      }
    }
    std::size_t j = i + 1;
    // Skip the template argument list.
    if (j < t.size() && t[j].text == "<") {
      int depth = 0;
      for (; j < t.size(); ++j) {
        if (t[j].text == "<") ++depth;
        if (t[j].text == ">" && --depth == 0) {
          ++j;
          break;
        }
      }
    }
    if (in_using) continue;
    // Declarator: the last identifier before ; = { ) or , — a `(` or a
    // closing `>` means this was a return type / nested template argument.
    std::string last_ident;
    for (; j < t.size(); ++j) {
      const std::string& x = t[j].text;
      if (x == "(" || x == "<" || x == ">") {
        last_ident.clear();
        break;
      }
      if (x == ";" || x == "=" || x == "{" || x == ")" || x == ",") break;
      if (t[j].kind == TokKind::kIdent && x != "const" && x != "constexpr" &&
          x != "static" && x != "mutable") {
        last_ident = x;
      }
    }
    if (!last_ident.empty()) names.insert(last_ident);
  }
  return names;
}

// ---------------------------------------------------------------------------
// Structural + fact indexer
// ---------------------------------------------------------------------------

const std::set<std::string>& keyword_set() {
  static const std::set<std::string> kw = {
      "if",       "for",      "while",     "switch",   "return",
      "sizeof",   "catch",    "new",       "delete",   "case",
      "do",       "else",     "template",  "typename", "using",
      "namespace","class",    "struct",    "union",    "enum",
      "decltype", "alignof",  "alignas",   "operator", "static_assert",
      "throw",    "co_await", "co_return", "co_yield", "static_cast",
      "const_cast","dynamic_cast","reinterpret_cast","noexcept","requires"};
  return kw;
}

struct Indexer {
  const std::vector<Token>& t;
  const std::vector<std::string>& schedulers;
  FileIndex& out;

  enum class ScopeKind { kFile, kNamespace, kClass, kFunc, kLambda, kBrace };
  struct Scope {
    ScopeKind kind;
    int func = -1;           // FuncDef index for kFunc/kLambda/kClass pseudo
    std::string class_name;  // for kClass
  };
  std::vector<Scope> scopes;
  // Token index of an upcoming '{' -> the scope it opens.
  std::map<std::size_t, Scope> planned;
  // (open, close) token ranges of scheduler-call argument lists.
  std::vector<std::pair<std::size_t, std::size_t>> sched_regions;
  // Current statement: token indices since the last ; { }.
  std::vector<std::size_t> stmt_toks;

  std::size_t find_matching(std::size_t open, const char* o,
                            const char* c) const {
    int depth = 0;
    for (std::size_t j = open; j < t.size(); ++j) {
      if (t[j].text == o) ++depth;
      if (t[j].text == c && --depth == 0) return j;
    }
    return t.size();
  }

  bool is_free_call(std::size_t i, const std::string& name) const {
    if (t[i].kind != TokKind::kIdent || t[i].text != name) return false;
    if (i + 1 >= t.size() || t[i + 1].text != "(") return false;
    if (i == 0) return true;
    const std::string& prev = t[i - 1].text;
    if (prev == "." || prev == "->") return false;
    if (prev == "::") {
      // std::rand / ::rand are still the banned function; Foo::rand is not.
      if (i >= 2 && t[i - 2].kind == TokKind::kIdent && t[i - 2].text != "std") {
        return false;
      }
    }
    return true;
  }

  int owner_func() const {
    for (std::size_t s = scopes.size(); s-- > 0;) {
      if (scopes[s].kind == ScopeKind::kFunc ||
          scopes[s].kind == ScopeKind::kLambda) {
        return scopes[s].func;
      }
    }
    return -1;
  }

  /// Owner for facts: innermost function, else innermost class pseudo-node
  /// (member declarations), else -1 (file scope).
  int fact_owner() const {
    for (std::size_t s = scopes.size(); s-- > 0;) {
      if (scopes[s].kind == ScopeKind::kFunc ||
          scopes[s].kind == ScopeKind::kLambda ||
          (scopes[s].kind == ScopeKind::kClass && scopes[s].func >= 0)) {
        return scopes[s].func;
      }
    }
    return -1;
  }

  std::string enclosing_class() const {
    for (std::size_t s = scopes.size(); s-- > 0;) {
      if (scopes[s].kind == ScopeKind::kClass) return scopes[s].class_name;
    }
    return "";
  }

  bool in_function_scope() const {
    for (std::size_t s = scopes.size(); s-- > 0;) {
      if (scopes[s].kind == ScopeKind::kFunc ||
          scopes[s].kind == ScopeKind::kLambda) {
        return true;
      }
      if (scopes[s].kind == ScopeKind::kClass ||
          scopes[s].kind == ScopeKind::kNamespace) {
        return false;
      }
    }
    return false;
  }

  void pre_scan_scheduler_regions() {
    std::set<std::string> sched(schedulers.begin(), schedulers.end());
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      if (t[i].kind == TokKind::kIdent && sched.count(t[i].text) &&
          t[i + 1].text == "(") {
        sched_regions.emplace_back(i + 1, find_matching(i + 1, "(", ")"));
      }
    }
  }

  bool in_scheduler_region(std::size_t i) const {
    for (const auto& [open, close] : sched_regions) {
      if (i > open && i < close) return true;
    }
    return false;
  }

  /// From the token after a parameter list's ')', finds the '{' opening a
  /// definition body; returns t.size() when this is a declaration or
  /// anything else.  Handles const/noexcept/override/&/&&, trailing return
  /// types and constructor initializer lists.
  std::size_t find_def_body(std::size_t r) const {
    int paren = 0;
    for (std::size_t j = r; j < t.size(); ++j) {
      const std::string& x = t[j].text;
      if (x == "(") ++paren;
      else if (x == ")") {
        if (paren == 0) return t.size();
        --paren;
      } else if (paren > 0) {
        continue;
      } else if (x == "{") {
        return j;
      } else if (x == ";") {
        return t.size();
      } else if (x == "=") {
        // "= default;" / "= delete;" / "= 0;" — or an initializer: either
        // way, not a body we index.
        return t.size();
      } else if (x == "," || x == "]" || x == "}") {
        return t.size();
      }
      // const, noexcept, override, final, mutable, ->, :, &, &&, idents in
      // trailing return types and ctor-init lists: keep scanning.
    }
    return t.size();
  }

  /// Parameter names of ostream-ish parameters in tokens (open, close).
  std::vector<std::string> stream_params(std::size_t open,
                                         std::size_t close) const {
    static const std::set<std::string> streamy = {"ostream", "ostringstream",
                                                  "stringstream", "FILE"};
    std::vector<std::string> out;
    bool param_streamy = false;
    std::string last_ident;
    int depth = 0;
    for (std::size_t j = open + 1; j < close; ++j) {
      const std::string& x = t[j].text;
      if (x == "(" || x == "<" || x == "[") ++depth;
      if (x == ")" || x == ">" || x == "]") --depth;
      if (x == "," && depth == 0) {
        if (param_streamy && !last_ident.empty()) out.push_back(last_ident);
        param_streamy = false;
        last_ident.clear();
        continue;
      }
      if (t[j].kind == TokKind::kIdent) {
        if (streamy.count(x)) param_streamy = true;
        else if (x != "const" && x != "std") last_ident = x;
      }
    }
    if (param_streamy && !last_ident.empty()) out.push_back(last_ident);
    return out;
  }

  void plan_function_def(std::size_t i) {
    // t[i] is an identifier followed by '('.
    std::size_t close = find_matching(i + 1, "(", ")");
    if (close >= t.size()) return;
    std::size_t body = find_def_body(close + 1);
    if (body >= t.size() || planned.count(body)) return;
    FuncDef fn;
    fn.name = t[i].text;
    if (i >= 2 && t[i - 1].text == "::" && t[i - 2].kind == TokKind::kIdent) {
      fn.class_name = t[i - 2].text;
    } else {
      fn.class_name = enclosing_class();
    }
    fn.qual = fn.class_name.empty() ? fn.name : fn.class_name + "::" + fn.name;
    fn.line_begin = t[i].line;
    fn.stream_params = stream_params(i + 1, close);
    out.funcs.push_back(std::move(fn));
    planned[body] = Scope{ScopeKind::kFunc,
                          static_cast<int>(out.funcs.size()) - 1, ""};
  }

  void plan_lambda(std::size_t i, const std::string& path) {
    // t[i] == "[" and is not a subscript.  [[attributes]] are skipped.
    if (i + 1 < t.size() && t[i + 1].text == "[") return;
    std::size_t close = find_matching(i, "[", "]");
    if (close >= t.size() || close + 1 >= t.size()) return;
    std::size_t j = close + 1;
    std::size_t body;
    if (t[j].text == "(") {
      std::size_t pclose = find_matching(j, "(", ")");
      if (pclose >= t.size()) return;
      body = find_def_body(pclose + 1);
    } else if (t[j].text == "{") {
      body = j;
    } else {
      return;
    }
    if (body >= t.size() || planned.count(body)) return;
    FuncDef fn;
    fn.is_lambda = true;
    fn.parent = owner_func();
    fn.line_begin = t[i].line;
    fn.qual =
        "<lambda " + path + ":" + std::to_string(t[i].line) + ">";
    fn.class_name = enclosing_class();
    fn.is_event_body = in_scheduler_region(i);
    out.funcs.push_back(std::move(fn));
    planned[body] = Scope{ScopeKind::kLambda,
                          static_cast<int>(out.funcs.size()) - 1, ""};
  }

  void plan_class(std::size_t i) {
    // t[i] in {class, struct, union}; skip template parameter positions.
    if (i > 0 && (t[i - 1].text == "<" || t[i - 1].text == "," ||
                  t[i - 1].text == "enum")) {
      return;
    }
    std::size_t j = i + 1;
    // Skip attributes and macros until the name; `final` is a context
    // keyword, never the class name.
    std::string name;
    while (j < t.size() && t[j].kind == TokKind::kIdent) {
      if (t[j].text != "final") name = t[j].text;
      ++j;
      if (j < t.size() && (t[j].text == "{" || t[j].text == ":" ||
                           t[j].text == ";" || t[j].text == "<")) {
        break;
      }
    }
    if (name.empty() || j >= t.size()) return;
    if (t[j].text == ";" || t[j].text == "<") return;  // fwd decl / template
    if (t[j].text == ":") {
      // Base clause: first '{' at angle-depth 0 opens the body.
      int angle = 0;
      for (; j < t.size(); ++j) {
        if (t[j].text == "<") ++angle;
        if (t[j].text == ">") --angle;
        if (t[j].text == ";" && angle <= 0) return;
        if (t[j].text == "{" && angle <= 0) break;
      }
      if (j >= t.size()) return;
    }
    if (t[j].text != "{" || planned.count(j)) return;
    // Pseudo-node for class-scope declarations (e.g. a std::function member
    // type): reachable when any member function is reachable.
    FuncDef pseudo;
    pseudo.is_class_scope = true;
    pseudo.class_name = name;
    pseudo.qual = "class " + name;
    pseudo.line_begin = t[i].line;
    out.funcs.push_back(std::move(pseudo));
    planned[j] = Scope{ScopeKind::kClass,
                       static_cast<int>(out.funcs.size()) - 1, name};
  }

  void plan_namespace(std::size_t i) {
    std::size_t j = i + 1;
    while (j < t.size() &&
           (t[j].kind == TokKind::kIdent || t[j].text == "::")) {
      if (t[j].text == "=") return;  // namespace alias
      ++j;
    }
    if (j < t.size() && t[j].text == "{" && !planned.count(j)) {
      planned[j] = Scope{ScopeKind::kNamespace, -1, ""};
    }
  }

  // -- facts ----------------------------------------------------------------

  void record_hot_facts(std::size_t i) {
    static const std::set<std::string> blocking = {
        "mutex",          "condition_variable", "condition_variable_any",
        "sleep_for",      "sleep_until",        "lock_guard",
        "unique_lock",    "scoped_lock",        "shared_mutex",
        "recursive_mutex"};
    const Token& tok = t[i];
    if (tok.kind != TokKind::kIdent) return;
    int owner = fact_owner();
    if (tok.text == "std" && i + 2 < t.size() && t[i + 1].text == "::" &&
        t[i + 2].text == "function") {
      out.hot_facts.push_back({owner, tok.line, 'f', 'f', "std::function"});
    } else if (tok.text == "new") {
      bool placement =
          (i > 0 && (t[i - 1].text == "::" || t[i - 1].text == "operator"));
      if (!placement) {
        out.hot_facts.push_back({owner, tok.line, 'a', 'n', "new"});
      }
    } else if (tok.text == "make_unique" || tok.text == "make_shared") {
      out.hot_facts.push_back({owner, tok.line, 'a', 'm', tok.text});
    } else if (is_free_call(i, "malloc") || is_free_call(i, "calloc") ||
               is_free_call(i, "realloc")) {
      out.hot_facts.push_back({owner, tok.line, 'a', 'c', tok.text});
    } else if (blocking.count(tok.text)) {
      out.hot_facts.push_back({owner, tok.line, 'b', 'i', tok.text});
    }
  }

  void record_token_facts(std::size_t i) {
    static const std::set<std::string> rng_idents = {
        "random_device", "mt19937",       "mt19937_64",
        "minstd_rand",   "default_random_engine",
        "knuth_b",       "random_shuffle"};
    static const std::set<std::string> clock_idents = {
        "system_clock", "gettimeofday", "localtime",
        "gmtime",       "ctime",        "timespec_get"};
    const Token& tok = t[i];
    if (tok.kind == TokKind::kString) {
      const std::string& s = tok.text;
      if (s.rfind("pqra_", 0) == 0 && s.size() > 5) {
        bool name_shaped = true;
        for (char c : s) {
          if (!(std::islower(static_cast<unsigned char>(c)) ||
                std::isdigit(static_cast<unsigned char>(c)) || c == '_')) {
            name_shaped = false;
            break;
          }
        }
        if (name_shaped) out.token_facts.push_back({tok.line, 'm', 'i', s});
      }
      return;
    }
    if (tok.kind != TokKind::kIdent) return;
    if (rng_idents.count(tok.text)) {
      out.token_facts.push_back({tok.line, 'r', 'i', tok.text});
    }
    for (const char* fn : {"rand", "srand", "rand_r", "drand48"}) {
      if (is_free_call(i, fn)) {
        out.token_facts.push_back({tok.line, 'r', 'c', tok.text});
      }
    }
    if (clock_idents.count(tok.text)) {
      out.token_facts.push_back({tok.line, 'c', 'i', tok.text});
    }
    if (is_free_call(i, "time") || is_free_call(i, "clock")) {
      out.token_facts.push_back({tok.line, 'c', 'c', tok.text});
    }
  }

  void record_iter_walk(std::size_t i) {
    if (t[i].kind != TokKind::kIdent || i + 2 >= t.size()) return;
    if ((t[i + 1].text == "." || t[i + 1].text == "->") &&
        (t[i + 2].text == "begin" || t[i + 2].text == "cbegin" ||
         t[i + 2].text == "rbegin")) {
      IterSite site;
      site.form = 'w';
      site.idents.emplace_back(t[i].text, t[i].line);
      out.iter_sites.push_back(std::move(site));
    }
  }

  void record_call(std::size_t i) {
    const Token& tok = t[i];
    if (tok.kind != TokKind::kIdent || i + 1 >= t.size() ||
        t[i + 1].text != "(") {
      return;
    }
    if (keyword_set().count(tok.text)) return;
    CallSite cs;
    cs.func = owner_func();
    cs.line = tok.line;
    cs.callee = tok.text;
    if (i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->")) {
      cs.member = true;
    } else if (i >= 2 && t[i - 1].text == "::" &&
               t[i - 2].kind == TokKind::kIdent) {
      if (t[i - 2].text == "std") return;  // std:: calls never resolve here
      cs.qual_prefix = t[i - 2].text;
    }
    out.calls.push_back(std::move(cs));
  }

  // -- statements (taint raw material) --------------------------------------

  void flush_stmt() {
    std::vector<std::size_t> toks;
    toks.swap(stmt_toks);
    int owner = owner_func();
    if (owner < 0 || toks.empty()) return;
    build_stmt(owner, toks, /*range_for=*/false, "", {});
  }

  /// Assembles a Stmt from the given token indices; for range-fors the
  /// caller passes the loop variable and restricts \p toks to the range
  /// expression.
  void build_stmt(int owner, const std::vector<std::size_t>& toks,
                  bool range_for, const std::string& loop_var,
                  const std::vector<std::size_t>& header_toks) {
    static const std::set<std::string> printf_family = {
        "printf", "fprintf", "sprintf", "snprintf", "puts", "fputs", "fwrite"};
    static const std::set<std::string> int_targets = {
        "uintptr_t", "intptr_t", "size_t",    "uint64_t", "uint32_t",
        "uintmax_t", "unsigned", "long",      "int"};
    Stmt st;
    st.func = owner;
    st.line = t[toks.front()].line;
    st.is_range_for = range_for;
    st.lhs = loop_var;

    const std::vector<std::size_t>& all = header_toks.empty() ? toks
                                                              : header_toks;
    // First token `return`?
    if (!range_for && t[toks.front()].kind == TokKind::kIdent &&
        t[toks.front()].text == "return") {
      st.is_return = true;
    }
    // Assignment: first top-level '=' that is not a comparison; the lhs is
    // the last identifier before it.
    if (!range_for) {
      int depth = 0;
      for (std::size_t k = 0; k < toks.size(); ++k) {
        const std::string& x = t[toks[k]].text;
        if (x == "(" || x == "[") ++depth;
        if (x == ")" || x == "]") --depth;
        if (x == "=" && depth == 0) {
          bool cmp = false;
          if (k + 1 < toks.size() && t[toks[k + 1]].text == "=") cmp = true;
          if (k > 0) {
            const std::string& p = t[toks[k - 1]].text;
            if (p == "=" || p == "!" || p == "<" || p == ">") cmp = true;
          }
          if (cmp) continue;
          for (std::size_t b = k; b-- > 0;) {
            const std::string& p = t[toks[b]].text;
            if (t[toks[b]].kind == TokKind::kIdent && p != "const" &&
                p != "auto" && p != "static" && p != "constexpr") {
              st.lhs = p;
              break;
            }
            if (p == ";" || p == "{") break;
          }
          break;
        }
      }
    }
    // Identifiers, sources, sinks, calls, sanitizers.
    bool has_shift_left = false;
    for (std::size_t k = 0; k + 1 < all.size(); ++k) {
      if (t[all[k]].text == "<" && t[all[k + 1]].text == "<") {
        has_shift_left = true;
        break;
      }
    }
    for (std::size_t k = 0; k < all.size(); ++k) {
      std::size_t i = all[k];
      const Token& tok = t[i];
      if (tok.kind == TokKind::kString) {
        if (tok.text.find("%p") != std::string::npos) {
          st.sources.push_back({'p', tok.line, "%p format"});
        }
        continue;
      }
      if (tok.kind != TokKind::kIdent) continue;
      const std::string& x = tok.text;
      if (!keyword_set().count(x) && x != "auto" && x != "const" &&
          x != "std") {
        if (std::find(st.idents.begin(), st.idents.end(), x) ==
                st.idents.end() &&
            st.idents.size() < 24) {
          st.idents.push_back(x);
        }
      }
      // Sources.
      if (x == "hash" && i >= 2 && t[i - 1].text == "::" &&
          t[i - 2].text == "std") {
        st.sources.push_back({'h', tok.line, "std::hash"});
      } else if (x == "reinterpret_cast" && i + 1 < t.size() &&
                 t[i + 1].text == "<") {
        std::size_t close = find_matching(i + 1, "<", ">");
        for (std::size_t j = i + 2; j < close && j < t.size(); ++j) {
          if (t[j].kind == TokKind::kIdent && int_targets.count(t[j].text)) {
            st.sources.push_back(
                {'p', tok.line, "reinterpret_cast to integer"});
            break;
          }
        }
      } else if (x == "system_clock" || x == "gettimeofday") {
        st.sources.push_back({'c', tok.line, x});
      } else if (is_free_call(i, "time") || is_free_call(i, "clock")) {
        st.sources.push_back({'c', tok.line, x + "()"});
      }
      // Sinks.
      bool call_like = i + 1 < t.size() && t[i + 1].text == "(";
      if (x == "encode" && call_like) add_sink(st, 'e');
      if (x.find("fingerprint") != std::string::npos || x == "fnv1a") {
        add_sink(st, 'g');
      }
      if (x == "obs" && i + 1 < t.size() && t[i + 1].text == "::") {
        add_sink(st, 'o');
      }
      if (printf_family.count(x) && is_free_call(i, x.c_str())) {
        add_sink(st, 'p');
      }
      if ((x == "sort" || x == "stable_sort") && call_like) {
        st.sanitize = true;
      }
      // Calls (for one-call-depth return-taint propagation).
      if (call_like && !keyword_set().count(x) &&
          !(i > 0 && t[i - 1].text == "::" && i >= 2 &&
            t[i - 2].text == "std") &&
          st.calls.size() < 12) {
        st.calls.push_back(x);
      }
    }
    if (has_shift_left) {
      bool streamy = false;
      for (const std::string& x : st.idents) {
        if (x == "cout" || x == "cerr") streamy = true;
      }
      if (!streamy && st.func >= 0 &&
          st.func < static_cast<int>(out.funcs.size())) {
        for (const std::string& p : out.funcs[st.func].stream_params) {
          if (std::find(st.idents.begin(), st.idents.end(), p) !=
              st.idents.end()) {
            streamy = true;
          }
        }
      }
      if (streamy) {
        add_sink(st, 's');
        // A pointer pushed into a stream: `os << static_cast<void*>(p)`.
        for (std::size_t k = 0; k + 1 < all.size(); ++k) {
          if (t[all[k]].text == "void" && t[all[k + 1]].text == "*") {
            st.sources.push_back(
                {'p', t[all[k]].line, "void* stream insertion"});
            break;
          }
        }
      }
    }
    if (st.sources.empty() && st.sinks.empty() && st.calls.empty() &&
        st.lhs.empty() && !st.is_return && !st.is_range_for) {
      return;
    }
    out.stmts.push_back(std::move(st));
  }

  static void add_sink(Stmt& st, char kind) {
    if (st.sinks.find(kind) == std::string::npos) {
      st.sinks += kind;
      std::sort(st.sinks.begin(), st.sinks.end());
    }
  }

  /// Handles `for (decl : range)`: records the IterSite and the range-for
  /// taint statement, then returns the index of the closing ')'.
  std::size_t handle_range_for(std::size_t i) {
    // t[i] == "for", t[i+1] == "(".
    std::size_t close = find_matching(i + 1, "(", ")");
    if (close >= t.size()) return i;
    int depth = 0;
    std::size_t colon = 0;
    for (std::size_t j = i + 1; j <= close; ++j) {
      if (t[j].text == "(") ++depth;
      if (t[j].text == ")") --depth;
      if (t[j].text == ":" && depth == 1 && colon == 0) colon = j;
    }
    if (colon == 0) return i;  // classic for(;;): handled as plain stmts
    IterSite site;
    site.form = 'r';
    std::vector<std::size_t> range_toks;
    for (std::size_t j = colon + 1; j < close; ++j) {
      range_toks.push_back(j);
      if (t[j].kind == TokKind::kIdent) {
        site.idents.emplace_back(t[j].text, t[j].line);
      }
    }
    if (!site.idents.empty()) out.iter_sites.push_back(site);
    std::string loop_var;
    for (std::size_t j = colon; j-- > i + 1;) {
      if (t[j].kind == TokKind::kIdent && t[j].text != "auto" &&
          t[j].text != "const") {
        loop_var = t[j].text;
        break;
      }
    }
    int owner = owner_func();
    if (owner >= 0 && !range_toks.empty()) {
      build_stmt(owner, range_toks, /*range_for=*/true, loop_var, {});
    }
    return close;
  }

  void run(const std::string& path) {
    pre_scan_scheduler_regions();
    scopes.push_back({ScopeKind::kFile, -1, ""});
    for (std::size_t i = 0; i < t.size(); ++i) {
      const Token& tok = t[i];
      if (tok.kind == TokKind::kPunct) {
        if (tok.text == "{") {
          flush_stmt();
          auto it = planned.find(i);
          if (it != planned.end()) {
            scopes.push_back(it->second);
          } else {
            scopes.push_back({ScopeKind::kBrace, -1, ""});
          }
          continue;
        }
        if (tok.text == "}") {
          flush_stmt();
          if (scopes.size() > 1) {
            Scope top = scopes.back();
            if ((top.kind == ScopeKind::kFunc ||
                 top.kind == ScopeKind::kLambda) &&
                top.func >= 0) {
              out.funcs[top.func].line_end = tok.line;
            }
            scopes.pop_back();
          }
          continue;
        }
        if (tok.text == ";") {
          stmt_toks.push_back(i);
          flush_stmt();
          continue;
        }
        if (tok.text == "[") plan_lambda(i, path);
        stmt_toks.push_back(i);
        continue;
      }
      // Identifier / string / number handling.
      if (tok.kind == TokKind::kIdent) {
        if (tok.text == "namespace") {
          plan_namespace(i);
        } else if (tok.text == "class" || tok.text == "struct" ||
                   tok.text == "union") {
          plan_class(i);
        } else if (tok.text == "for" && i + 1 < t.size() &&
                   t[i + 1].text == "(" && in_function_scope()) {
          flush_stmt();
          std::size_t close = handle_range_for(i);
          if (close != i) {
            i = close;  // range-for header consumed
            continue;
          }
        } else if (!in_function_scope() && i + 1 < t.size() &&
                   t[i + 1].text == "(" && !keyword_set().count(tok.text)) {
          plan_function_def(i);
        }
        record_call(i);
        record_iter_walk(i);
      }
      record_hot_facts(i);
      record_token_facts(i);
      stmt_toks.push_back(i);
    }
    flush_stmt();
  }
};

}  // namespace

bool FileIndex::escaped(const std::string& rule, int line) const {
  for (int ln : {line, line - 1}) {
    auto it = escapes.find(ln);
    if (it == escapes.end()) continue;
    if (it->second.count(rule) || it->second.count("all")) return true;
  }
  return false;
}

FileIndex build_index(const std::string& path, const std::string& contents,
                      const std::vector<std::string>& schedulers) {
  FileIndex idx;
  idx.path = path;
  TokenStream ts = tokenize(contents);
  idx.includes = std::move(ts.includes);
  idx.escapes = std::move(ts.escapes);
  idx.unordered_names = collect_unordered_names(ts.tokens);
  Indexer ix{ts.tokens, schedulers, idx, {}, {}, {}, {}};
  ix.run(path);
  return idx;
}

}  // namespace pqra_lint

#include "lint/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace leed::lint {

namespace {

// ---------------------------------------------------------------------------
// Preprocessing: split a translation unit into per-line code (comments
// removed, string/char-literal contents blanked) + comment text + the
// string literals themselves (the metric-name rule needs their contents).
// Line numbers are preserved exactly; multi-line block comments and raw
// strings keep advancing the line counter.
// ---------------------------------------------------------------------------

struct LineInfo {
  std::string code;
  std::string comment;
  std::vector<std::string> strings;  // literal contents, left to right
};

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// True iff `code` (the code seen so far on this line) ends in a raw-string
// prefix — R, u8R, uR, UR, or LR standing alone as a token. An identifier
// that merely ends in 'R' (LOG_HDR"...") must not count, or the lexer
// enters raw-string state and desyncs for the rest of the file.
bool EndsWithRawStringPrefix(const std::string& code) {
  size_t r = code.size();
  if (r == 0 || code[r - 1] != 'R') return false;
  size_t start = r - 1;  // index of the 'R'
  if (start >= 2 && code[start - 2] == 'u' && code[start - 1] == '8') {
    start -= 2;
  } else if (start >= 1 &&
             (code[start - 1] == 'u' || code[start - 1] == 'U' ||
              code[start - 1] == 'L')) {
    start -= 1;
  }
  return start == 0 || !IsIdentChar(code[start - 1]);
}

std::vector<LineInfo> Preprocess(const std::string& text) {
  enum class State { kCode, kLine, kBlock, kString, kChar, kRaw };
  std::vector<LineInfo> lines(1);
  State st = State::kCode;
  std::string raw_close;  // ")delim\"" terminator of the active raw string
  std::string literal;
  const size_t n = text.size();
  size_t i = 0;
  while (i < n) {
    const char c = text[i];
    LineInfo& cur = lines.back();
    if (c == '\n') {
      switch (st) {
        case State::kLine:
          st = State::kCode;
          break;
        case State::kString:
        case State::kChar:
          // Unterminated at end of line (macro trickery); recover.
          st = State::kCode;
          break;
        case State::kRaw:
          literal += '\n';
          break;
        default:
          break;
      }
      lines.emplace_back();
      ++i;
      continue;
    }
    switch (st) {
      case State::kCode:
        if (c == '/' && i + 1 < n && text[i + 1] == '/') {
          st = State::kLine;
          i += 2;
        } else if (c == '/' && i + 1 < n && text[i + 1] == '*') {
          st = State::kBlock;
          i += 2;
        } else if (c == '"') {
          if (EndsWithRawStringPrefix(cur.code)) {
            // R"delim( ... )delim" — find the opening parenthesis.
            size_t j = i + 1;
            std::string delim;
            while (j < n && text[j] != '(' && text[j] != '\n' &&
                   delim.size() <= 16) {
              delim += text[j++];
            }
            if (j < n && text[j] == '(') {
              raw_close = ")" + delim + "\"";
              st = State::kRaw;
              literal.clear();
              cur.code += '"';
              i = j + 1;
              break;
            }
          }
          st = State::kString;
          literal.clear();
          cur.code += '"';
          ++i;
        } else if (c == '\'' && !cur.code.empty() &&
                   IsIdentChar(cur.code.back())) {
          // Digit separator (1'000'000) — real char literals never follow
          // an identifier/number directly.
          cur.code += c;
          ++i;
        } else if (c == '\'') {
          st = State::kChar;
          cur.code += '\'';
          ++i;
        } else {
          cur.code += c;
          ++i;
        }
        break;
      case State::kLine:
        cur.comment += c;
        ++i;
        break;
      case State::kBlock:
        if (c == '*' && i + 1 < n && text[i + 1] == '/') {
          st = State::kCode;
          cur.code += ' ';
          i += 2;
        } else {
          cur.comment += c;
          ++i;
        }
        break;
      case State::kString:
        if (c == '\\' && i + 1 < n) {
          literal += text[i + 1];
          i += 2;
        } else if (c == '"') {
          st = State::kCode;
          cur.code += '"';
          cur.strings.push_back(literal);
          ++i;
        } else {
          literal += c;
          ++i;
        }
        break;
      case State::kChar:
        if (c == '\\' && i + 1 < n) {
          i += 2;
        } else if (c == '\'') {
          st = State::kCode;
          cur.code += '\'';
          ++i;
        } else {
          ++i;
        }
        break;
      case State::kRaw:
        if (text.compare(i, raw_close.size(), raw_close) == 0) {
          st = State::kCode;
          cur.code += '"';
          cur.strings.push_back(literal);
          i += raw_close.size();
        } else {
          literal += c;
          ++i;
        }
        break;
    }
  }
  return lines;
}

// ---------------------------------------------------------------------------
// Suppression annotations: // leed-lint: allow(<rule>): <justification>
// ---------------------------------------------------------------------------

struct Allow {
  int line = 0;
  std::string rule;
  bool used = false;
};

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

void ParseAllows(const std::string& comment, const std::string& path,
                 int line, std::vector<Allow>* allows,
                 std::vector<Finding>* findings) {
  static const std::string kTag = "leed-lint:";
  // A directive must *begin* the comment ("// leed-lint: ..."), which is
  // how annotations are written; prose that merely mentions the syntax
  // mid-sentence (like this linter's own documentation) is not parsed.
  const std::string body = Trim(comment);
  if (body.rfind(kTag, 0) != 0) return;
  size_t p = kTag.size();
  while (p < body.size() && body[p] == ' ') ++p;
  static const std::string kAllow = "allow(";
  if (body.compare(p, kAllow.size(), kAllow) != 0) {
    findings->push_back({path, line, "allow-syntax",
                         "unrecognized leed-lint directive (expected "
                         "'leed-lint: allow(<rule>): <justification>')"});
    return;
  }
  p += kAllow.size();
  const size_t close = body.find(')', p);
  if (close == std::string::npos) {
    findings->push_back(
        {path, line, "allow-syntax", "unterminated allow(<rule>)"});
    return;
  }
  const std::string rule = Trim(body.substr(p, close - p));
  if (!IsKnownRule(rule)) {
    findings->push_back({path, line, "allow-syntax",
                         "allow() names unknown rule '" + rule + "'"});
    return;
  }
  size_t q = close + 1;
  while (q < body.size() && body[q] == ' ') ++q;
  std::string justification;
  if (q < body.size() && body[q] == ':') {
    justification = Trim(body.substr(q + 1));
  }
  if (justification.empty()) {
    findings->push_back(
        {path, line, "allow-syntax",
         "allow(" + rule + ") requires a justification: '... allow(" + rule +
             "): <why this is safe>'"});
    return;
  }
  allows->push_back({line, rule, false});
}

// ---------------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------------

// Calls fn(start_index, identifier) for every maximal identifier token.
template <typename Fn>
void ForEachIdentifier(const std::string& code, Fn fn) {
  size_t i = 0;
  while (i < code.size()) {
    if (IsIdentChar(code[i]) &&
        (std::isdigit(static_cast<unsigned char>(code[i])) == 0)) {
      size_t b = i;
      while (i < code.size() && IsIdentChar(code[i])) ++i;
      fn(b, code.substr(b, i - b));
    } else {
      ++i;
    }
  }
}

// True when the identifier at [b, e) is called as a free function or via
// std:: / the global scope — i.e. not a member (x.time()) and not a
// static of some other class (CpuModel::clock()).
bool IsFreeOrStdCall(const std::string& code, size_t b, size_t e) {
  size_t j = e;
  while (j < code.size() && code[j] == ' ') ++j;
  if (j >= code.size() || code[j] != '(') return false;
  size_t k = b;
  while (k > 0 && code[k - 1] == ' ') --k;
  if (k >= 1 && code[k - 1] == '.') return false;
  if (k >= 2 && code[k - 2] == '-' && code[k - 1] == '>') return false;
  if (k >= 2 && code[k - 1] == ':' && code[k - 2] == ':') {
    size_t qe = k - 2;
    while (qe > 0 && code[qe - 1] == ' ') --qe;
    size_t qb = qe;
    while (qb > 0 && IsIdentChar(code[qb - 1])) --qb;
    const std::string qual = code.substr(qb, qe - qb);
    return qual == "std" || qual.empty();
  }
  // `long time() const` is a declaration, not a call: an identifier directly
  // preceding the name can only be a return type (or declarator keyword) —
  // in an expression the only identifier-like tokens that can precede a call
  // are control keywords.
  if (k >= 1 && IsIdentChar(code[k - 1])) {
    static const std::set<std::string> kCallContextKeywords = {
        "return", "co_return", "co_yield", "co_await", "throw",
        "case",   "else",      "do",       "and",      "or",
        "not",    "xor"};
    size_t pb = k;
    while (pb > 0 && IsIdentChar(code[pb - 1])) --pb;
    return kCallContextKeywords.contains(code.substr(pb, k - pb));
  }
  return true;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// ---------------------------------------------------------------------------
// Flattened code + per-TU model.
//
// The static-state and pointer-order rules reason about declarations (which
// names are raw pointers) and about constructs that span lines, so they work
// on the whole TU's code joined into one string with a position→line map,
// plus a small declaration table. For a .cc file the table also merges the
// companion header's declarations (LintTree passes it along) — that is the
// "TU" in per-TU: pointer fields declared in node.h are known when node.cc
// is linted.
// ---------------------------------------------------------------------------

struct FlatCode {
  std::string text;               // code lines joined with '\n'; '#' lines blank
  std::vector<size_t> line_start;  // 0-based line index -> offset in text
};

FlatCode Flatten(const std::vector<LineInfo>& lines) {
  FlatCode flat;
  for (const LineInfo& li : lines) {
    flat.line_start.push_back(flat.text.size());
    const std::string trimmed = Trim(li.code);
    // Preprocessor lines never declare run-time state; blanking them keeps
    // macro bodies out of the declaration table.
    if (trimmed.empty() || trimmed[0] != '#') flat.text += li.code;
    flat.text += '\n';
  }
  return flat;
}

int LineAt(const FlatCode& flat, size_t pos) {
  auto it = std::upper_bound(flat.line_start.begin(), flat.line_start.end(),
                             pos);
  return static_cast<int>(it - flat.line_start.begin());  // 1-based
}

size_t SkipSpace(const std::string& t, size_t i) {
  while (i < t.size() && (t[i] == ' ' || t[i] == '\t' || t[i] == '\n')) ++i;
  return i;
}

// Index of the last non-whitespace char strictly before `i`, or npos.
size_t PrevNonSpace(const std::string& t, size_t i) {
  while (i > 0) {
    --i;
    if (t[i] != ' ' && t[i] != '\t' && t[i] != '\n') return i;
  }
  return std::string::npos;
}

// Reads the identifier ending at (and including) position `end`; returns its
// start, or npos when t[end] is not an identifier char.
size_t IdentBegin(const std::string& t, size_t end) {
  if (end >= t.size() || !IsIdentChar(t[end])) return std::string::npos;
  size_t b = end;
  while (b > 0 && IsIdentChar(t[b - 1])) --b;
  return b;
}

struct TuModel {
  std::set<std::string> pointer_names;  // declared raw-pointer variables
};

const std::set<std::string>& DeclContextKeywords() {
  static const std::set<std::string> kSet = {
      "const",    "constexpr", "constinit", "static",  "inline",
      "mutable",  "volatile",  "typename",  "register"};
  return kSet;
}

// Records `Type* name` style declarations into model->pointer_names. A
// heuristic by design (see docs/STATIC_ANALYSIS.md): the left identifier
// must sit in declaration position (start of statement/parameter, or after
// a declarator keyword) and the declared name must be followed by
// ; = , ) or [ — which excludes `x = a * b` style multiplication.
void ExtractPointerDecls(const FlatCode& flat, TuModel* model) {
  const std::string& t = flat.text;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i] != '*') continue;
    const size_t lend = PrevNonSpace(t, i);
    const size_t lb = lend == std::string::npos
                          ? std::string::npos
                          : IdentBegin(t, lend);
    if (lb == std::string::npos) continue;
    const std::string type_tok = t.substr(lb, lend - lb + 1);
    static const std::set<std::string> kNotTypes = {
        "return", "new", "delete", "sizeof", "case", "throw", "auto"};
    if (kNotTypes.contains(type_tok) && type_tok != "auto") continue;
    const size_t before = PrevNonSpace(t, lb);
    bool decl_context = before == std::string::npos;
    if (!decl_context) {
      const char pc = t[before];
      if (pc == ';' || pc == '{' || pc == '}' || pc == '(' || pc == ',' ||
          pc == '<' || pc == '>') {
        decl_context = true;
      } else if (IsIdentChar(pc)) {
        const size_t kb = IdentBegin(t, before);
        decl_context =
            DeclContextKeywords().contains(t.substr(kb, before - kb + 1));
      }
    }
    if (!decl_context) continue;
    size_t j = SkipSpace(t, i + 1);
    // `Type* const name` keeps the pointer itself const, not the address
    // order; still a pointer name.
    while (j < t.size() && IsIdentChar(t[j])) {
      const size_t e = j;
      size_t k = e;
      while (k < t.size() && IsIdentChar(t[k])) ++k;
      const std::string tok = t.substr(e, k - e);
      if (tok != "const" && tok != "volatile") {
        const size_t after = SkipSpace(t, k);
        if (after < t.size() &&
            (t[after] == ';' || t[after] == '=' || t[after] == ',' ||
             t[after] == ')' || t[after] == '[')) {
          model->pointer_names.insert(tok);
        }
        break;
      }
      j = SkipSpace(t, k);
    }
  }
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

bool InDeterminismScope(const std::string& path) {
  return StartsWith(path, "src/sim/") || StartsWith(path, "src/leed/") ||
         StartsWith(path, "src/engine/") ||
         StartsWith(path, "src/replication/");
}

// Identifiers whose mere presence is nondeterministic.
const std::set<std::string>& DeterminismBannedTypes() {
  static const std::set<std::string> kSet = {
      "system_clock",   "steady_clock",          "high_resolution_clock",
      "random_device",  "default_random_engine", "mt19937",
      "mt19937_64",
  };
  return kSet;
}

// Free/std functions banned in the determinism scope.
const std::set<std::string>& DeterminismBannedCalls() {
  static const std::set<std::string> kSet = {
      "time",      "clock",        "rand",         "srand",
      "random",    "gettimeofday", "clock_gettime", "localtime",
      "gmtime",    "timespec_get", "drand48",       "lrand48",
  };
  return kSet;
}

const std::set<std::string>& BannedFunctions() {
  static const std::set<std::string> kSet = {"strcpy", "strcat", "sprintf",
                                             "vsprintf", "gets"};
  return kSet;
}

const std::set<std::string>& RawByteFunctions() {
  static const std::set<std::string> kSet = {"memcpy", "memset", "memmove"};
  return kSet;
}

void CheckDeterminism(const std::string& path,
                      const std::vector<LineInfo>& lines,
                      std::vector<Finding>* out) {
  if (!InDeterminismScope(path)) return;
  for (size_t ln = 0; ln < lines.size(); ++ln) {
    const std::string& code = lines[ln].code;
    if (code.empty()) continue;
    ForEachIdentifier(code, [&](size_t b, const std::string& id) {
      if (DeterminismBannedTypes().contains(id)) {
        out->push_back({path, static_cast<int>(ln + 1), "determinism",
                        "nondeterministic source '" + id +
                            "' in simulation code; derive time from the "
                            "simulator clock and randomness from leed::Rng"});
        return;
      }
      if (DeterminismBannedCalls().contains(id) &&
          IsFreeOrStdCall(code, b, b + id.size())) {
        out->push_back({path, static_cast<int>(ln + 1), "determinism",
                        "nondeterministic call '" + id +
                            "()' in simulation code; derive time from the "
                            "simulator clock and randomness from leed::Rng"});
      }
    });
  }
}

void CheckUnordered(const std::string& path,
                    const std::vector<LineInfo>& lines,
                    std::vector<Finding>* out) {
  if (!StartsWith(path, "src/")) return;
  // Pass 1 — declarations: every one is a finding (sorted containers are
  // the default; hash containers need a justification), and the declared
  // name is tracked so pass 2 can flag iteration even when the member is
  // declared below its first use.
  std::set<std::string> unordered_names;
  for (size_t ln = 0; ln < lines.size(); ++ln) {
    const std::string& code = lines[ln].code;
    const bool is_decl = (code.find("unordered_map<") != std::string::npos ||
                          code.find("unordered_set<") != std::string::npos) &&
                         Trim(code).rfind("#include", 0) != 0;
    if (!is_decl) continue;
    out->push_back(
        {path, static_cast<int>(ln + 1), "unordered-iter",
         "std::unordered_* has nondeterministic iteration order, which "
         "breaks snapshot/replay determinism the moment it is iterated; "
         "use std::map/std::set (or sort before emitting) or justify "
         "with leed-lint: allow(unordered-iter)"});
    std::string last_ident;
    ForEachIdentifier(code,
                      [&](size_t, const std::string& id) { last_ident = id; });
    if (!last_ident.empty() && last_ident != "unordered_map" &&
        last_ident != "unordered_set") {
      unordered_names.insert(last_ident);
    }
  }
  if (unordered_names.empty()) return;
  // Pass 2 — range-for whose range expression mentions a tracked name.
  for (size_t ln = 0; ln < lines.size(); ++ln) {
    const std::string& code = lines[ln].code;
    size_t pos = 0;
    while ((pos = code.find("for", pos)) != std::string::npos) {
      const size_t b = pos;
      pos += 3;
      if (b > 0 && IsIdentChar(code[b - 1])) continue;
      if (b + 3 < code.size() && IsIdentChar(code[b + 3])) continue;
      size_t p = b + 3;
      while (p < code.size() && code[p] == ' ') ++p;
      if (p >= code.size() || code[p] != '(') continue;
      // Find the range ':' at parenthesis depth 1 (skipping "::").
      int depth = 0;
      size_t colon = std::string::npos, close = std::string::npos;
      for (size_t j = p; j < code.size(); ++j) {
        if (code[j] == '(') ++depth;
        if (code[j] == ')' && --depth == 0) {
          close = j;
          break;
        }
        if (code[j] == ':' && depth == 1) {
          if (j + 1 < code.size() && code[j + 1] == ':') {
            ++j;
            continue;
          }
          if (j > 0 && code[j - 1] == ':') continue;
          colon = j;
        }
      }
      if (colon == std::string::npos) continue;
      const size_t range_end = close == std::string::npos ? code.size() : close;
      const std::string range = code.substr(colon + 1, range_end - colon - 1);
      ForEachIdentifier(range, [&](size_t, const std::string& id) {
        if (unordered_names.contains(id)) {
          out->push_back(
              {path, static_cast<int>(ln + 1), "unordered-iter",
               "range-for over unordered container '" + id +
                   "' iterates in nondeterministic order; if this feeds a "
                   "snapshot, trace, or wire message it breaks bit-exact "
                   "replay — sort first or justify with leed-lint: "
                   "allow(unordered-iter)"});
        }
      });
    }
  }
}

void CheckPragmaOnce(const std::string& path,
                     const std::vector<LineInfo>& lines,
                     std::vector<Finding>* out) {
  if (!EndsWith(path, ".h")) return;
  for (const LineInfo& li : lines) {
    if (Trim(li.code) == "#pragma once") return;
  }
  out->push_back(
      {path, 1, "pragma-once", "header is missing '#pragma once'"});
}

void CheckBannedFunctions(const std::string& path,
                          const std::vector<LineInfo>& lines,
                          std::vector<Finding>* out) {
  for (size_t ln = 0; ln < lines.size(); ++ln) {
    const std::string& code = lines[ln].code;
    if (code.empty()) continue;
    ForEachIdentifier(code, [&](size_t b, const std::string& id) {
      if (BannedFunctions().contains(id) &&
          IsFreeOrStdCall(code, b, b + id.size())) {
        out->push_back({path, static_cast<int>(ln + 1), "banned-func",
                        "banned function '" + id +
                            "()' (unbounded write); use snprintf or "
                            "std::string formatting"});
      } else if (RawByteFunctions().contains(id) &&
                 IsFreeOrStdCall(code, b, b + id.size())) {
        out->push_back(
            {path, static_cast<int>(ln + 1), "memcpy",
             "raw " + id +
                 "() is UB on a null pointer even when n == 0; use "
                 "leed::CopyBytes / leed::FillBytes (common/bytes.h) or "
                 "justify with leed-lint: allow(memcpy)"});
      }
    });
  }
}

bool ValidMetricLiteral(const std::string& lit, bool whole_argument) {
  if (lit.empty()) return false;
  for (char c : lit) {
    const bool ok = (std::islower(static_cast<unsigned char>(c)) != 0) ||
                    (std::isdigit(static_cast<unsigned char>(c)) != 0) ||
                    c == '_' || c == '.';
    if (!ok) return false;
  }
  if (lit.front() == '.') return false;
  if (lit.find("..") != std::string::npos) return false;
  if (whole_argument && lit.back() == '.') return false;
  return true;
}

void CheckMetricNames(const std::string& path,
                      const std::vector<LineInfo>& lines,
                      std::vector<Finding>* out) {
  static const std::set<std::string> kGetters = {"GetCounter", "GetGauge",
                                                 "GetHistogram", "Sub"};
  for (size_t ln = 0; ln < lines.size(); ++ln) {
    const LineInfo& li = lines[ln];
    if (li.code.empty() || li.strings.empty()) continue;
    ForEachIdentifier(li.code, [&](size_t b, const std::string& id) {
      if (!kGetters.contains(id)) return;
      if (id == "Sub") {
        // Only obs::Scope::Sub — require a member-call spelling so other
        // APIs named Sub stay out of scope.
        const bool member = (b >= 1 && li.code[b - 1] == '.') ||
                            (b >= 2 && li.code[b - 2] == '-' &&
                             li.code[b - 1] == '>');
        if (!member) return;
      }
      size_t j = b + id.size();
      while (j < li.code.size() && li.code[j] == ' ') ++j;
      if (j >= li.code.size() || li.code[j] != '(') return;
      ++j;
      while (j < li.code.size() && li.code[j] == ' ') ++j;
      if (j >= li.code.size() || li.code[j] != '"') return;
      // Which literal is this? Each literal contributes exactly two '"'
      // marks to the code line.
      const size_t quote_count =
          static_cast<size_t>(std::count(li.code.begin(),
                                         li.code.begin() + j, '"'));
      const size_t index = quote_count / 2;
      if (index >= li.strings.size()) return;
      const std::string& lit = li.strings[index];
      size_t after = j + 1;  // position of the closing quote in code
      while (after < li.code.size() && li.code[after] != '"') ++after;
      ++after;
      while (after < li.code.size() && li.code[after] == ' ') ++after;
      const bool whole = after < li.code.size() && li.code[after] == ')';
      if (!ValidMetricLiteral(lit, whole)) {
        out->push_back({path, static_cast<int>(ln + 1), "metric-name",
                        "metric name \"" + lit +
                            "\" must be lowercase dot-scoped: [a-z0-9_] "
                            "segments joined by '.', no spaces"});
      }
    });
  }
}

// count-in-bool-context: `m.count(key)` used as a boolean reads as a
// presence test but is a multiset count; the codebase standardized on
// contains() (PR 2 sweep, regressed once since). Fires on member spellings
// with a non-empty argument feeding a boolean operator (!, &&, ||, ?:) or
// sitting directly in an if/while condition. Explicit comparisons
// (`count(x) != 0`) and the zero-arg Histogram::count() stay out of scope.
void CheckCountInBoolContext(const std::string& path,
                             const std::vector<LineInfo>& lines,
                             std::vector<Finding>* out) {
  if (!StartsWith(path, "src/")) return;
  for (size_t ln = 0; ln < lines.size(); ++ln) {
    const std::string& code = lines[ln].code;
    if (code.empty()) continue;
    ForEachIdentifier(code, [&](size_t b, const std::string& id) {
      if (id != "count") return;
      // Member spelling only: x.count( / x->count(.
      size_t recv = b;
      if (b >= 1 && code[b - 1] == '.') {
        recv = b - 1;
      } else if (b >= 2 && code[b - 2] == '-' && code[b - 1] == '>') {
        recv = b - 2;
      } else {
        return;
      }
      size_t open = b + id.size();
      while (open < code.size() && code[open] == ' ') ++open;
      if (open >= code.size() || code[open] != '(') return;
      size_t j = open + 1;
      while (j < code.size() && code[j] == ' ') ++j;
      if (j >= code.size() || code[j] == ')') return;  // zero-arg count()
      // Walk the receiver back over a member chain, then classify the
      // token before it and the token after the call's closing paren.
      while (recv > 0) {
        const char c = code[recv - 1];
        if (IsIdentChar(c) || c == '.' || c == '[' || c == ']' || c == ':') {
          --recv;
        } else if (recv >= 2 && c == '>' && code[recv - 2] == '-') {
          recv -= 2;
        } else {
          break;
        }
      }
      size_t p = recv;
      while (p > 0 && code[p - 1] == ' ') --p;
      const bool negated = p >= 1 && code[p - 1] == '!';
      const bool conjoined =
          p >= 2 && ((code[p - 2] == '&' && code[p - 1] == '&') ||
                     (code[p - 2] == '|' && code[p - 1] == '|'));
      bool condition_head = false;  // directly inside if (...) / while (...)
      if (p >= 1 && code[p - 1] == '(') {
        size_t kw_end = p - 1;
        while (kw_end > 0 && code[kw_end - 1] == ' ') --kw_end;
        size_t kw_beg = kw_end;
        while (kw_beg > 0 && IsIdentChar(code[kw_beg - 1])) --kw_beg;
        const std::string kw = code.substr(kw_beg, kw_end - kw_beg);
        condition_head = kw == "if" || kw == "while";
      }
      int depth = 1;
      size_t close = open + 1;
      while (close < code.size() && depth > 0) {
        if (code[close] == '(') ++depth;
        if (code[close] == ')') --depth;
        ++close;
      }
      if (depth != 0) return;  // call spans lines; stay conservative
      size_t a = close;
      while (a < code.size() && code[a] == ' ') ++a;
      const bool before_ternary = a < code.size() && code[a] == '?';
      const bool closes_bool =
          a >= code.size() || code[a] == ')' || code[a] == ';' ||
          (a + 1 < code.size() && ((code[a] == '&' && code[a + 1] == '&') ||
                                   (code[a] == '|' && code[a + 1] == '|')));
      if (!(negated || before_ternary ||
            ((conjoined || condition_head) && closes_bool))) {
        return;
      }
      out->push_back(
          {path, static_cast<int>(ln + 1), "count-in-bool-context",
           "'count(...)' used as a boolean presence test; use contains() "
           "or compare the count explicitly"});
    });
  }
}

bool InSimScope(const std::string& path) {
  return InDeterminismScope(path) || StartsWith(path, "src/cluster/") ||
         StartsWith(path, "src/check/");
}

// unannotated-sim-shared: `static` mutable state in sim-scope paths is
// shared by every concurrently-running seed of a parallel sweep, with
// nothing saying why that is safe.
void CheckUnannotatedSimShared(const std::string& path, const FlatCode& flat,
                               std::vector<Finding>* out) {
  if (!InSimScope(path)) return;
  const std::string& t = flat.text;
  ForEachIdentifier(t, [&](size_t b, const std::string& id) {
    if (id != "static") return;
    // Declaration position: start of a statement (or after `inline`).
    const size_t before = PrevNonSpace(t, b);
    if (before != std::string::npos) {
      const char pc = t[before];
      if (IsIdentChar(pc)) {
        const size_t kb = IdentBegin(t, before);
        if (t.substr(kb, before - kb + 1) != "inline") return;
      } else if (pc != ';' && pc != '{' && pc != '}') {
        return;
      }
    }
    // Scan the declarator prefix up to the first top-level ; = ( or {.
    int angle = 0;
    size_t i = b + id.size();
    std::vector<std::string> toks;
    size_t tok_end = i;
    char term = 0;
    while (i < t.size()) {
      const char c = t[i];
      if (IsIdentChar(c)) {
        const size_t e = i;
        while (i < t.size() && IsIdentChar(t[i])) ++i;
        toks.push_back(t.substr(e, i - e));
        tok_end = i;
        continue;
      }
      if (c == '<' && !toks.empty() && PrevNonSpace(t, i) == tok_end - 1) {
        ++angle;
      } else if (c == '>' && angle > 0) {
        --angle;
      } else if (angle == 0 &&
                 (c == ';' || c == '=' || c == '(' || c == '{')) {
        term = c;
        break;
      }
      ++i;
    }
    if (term == 0 || term == '(') return;  // function decl / ctor-style init
    for (const std::string& tok : toks) {
      if (tok == "const" || tok == "constexpr" || tok == "consteval" ||
          tok == "constinit" || tok == "struct" || tok == "class" ||
          tok == "union") {
        return;
      }
    }
    if (toks.empty()) return;
    out->push_back(
        {path, LineAt(flat, b), "unannotated-sim-shared",
         "mutable static '" + toks.back() +
             "' in sim scope is shared by every parallel seed; make it "
             "const, move it into the simulation's state, or justify it with "
             "allow(unannotated-sim-shared)"});
  });
}

// pointer-order: iteration/comparison keyed on raw pointer values replays
// in allocation-address order, which differs run to run.
void CheckPointerOrder(const std::string& path, const FlatCode& flat,
                       const TuModel& model,
                       std::vector<Finding>* out) {
  if (!StartsWith(path, "src/")) return;
  const std::string& t = flat.text;
  // (a) ordered containers keyed by a raw pointer type.
  ForEachIdentifier(t, [&](size_t b, const std::string& id) {
    if (id != "map" && id != "set" && id != "multimap" && id != "multiset")
      return;
    const size_t open = b + id.size();
    if (open >= t.size() || t[open] != '<') return;
    int angle = 1, paren = 0;
    size_t end = std::string::npos;
    for (size_t i = open + 1; i < t.size(); ++i) {
      const char c = t[i];
      if (c == '<') ++angle;
      else if (c == '>' && --angle == 0) { end = i; break; }
      else if (c == '(') ++paren;
      else if (c == ')') --paren;
      else if (c == ',' && angle == 1 && paren == 0) { end = i; break; }
      else if (c == ';') break;  // `a < b; ... > c` — not a template
    }
    if (end == std::string::npos) return;
    const std::string key = t.substr(open + 1, end - open - 1);
    if (key.find('*') == std::string::npos) return;
    out->push_back(
        {path, LineAt(flat, b), "pointer-order",
         "std::" + id + " keyed by a raw pointer ('" + Trim(key) +
             "') iterates in address order, which changes run to run and "
             "breaks replay; key by a stable id or use an explicit "
             "comparator over ids"});
  });
  // (b) explicit < / <= between two known raw-pointer names.
  if (model.pointer_names.empty()) return;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i] != '<') continue;
    if (i + 1 < t.size() && t[i + 1] == '<') { ++i; continue; }
    if (i >= 1 && (t[i - 1] == '<' || t[i - 1] == '-')) continue;
    size_t right = i + 1;
    if (right < t.size() && t[right] == '=') ++right;
    const size_t lend = PrevNonSpace(t, i);
    const size_t lb =
        lend == std::string::npos ? std::string::npos : IdentBegin(t, lend);
    if (lb == std::string::npos) continue;
    // `x.call < ...` compares the member, not the pointer variable `call`.
    if (lb >= 1 && (t[lb - 1] == '.' || t[lb - 1] == ':')) continue;
    if (lb >= 2 && t[lb - 2] == '-' && t[lb - 1] == '>') continue;
    const std::string left = t.substr(lb, lend - lb + 1);
    right = SkipSpace(t, right);
    const size_t re = right;
    while (right < t.size() && IsIdentChar(t[right])) ++right;
    if (right == re) continue;
    const std::string rhs = t.substr(re, right - re);
    if (std::isdigit(static_cast<unsigned char>(rhs[0])) != 0) continue;
    // Same on the right: `p < q.field` / `p < q->f()` compares a member.
    const size_t after_r = SkipSpace(t, right);
    if (after_r < t.size() &&
        (t[after_r] == '.' ||
         (t[after_r] == '-' && after_r + 1 < t.size() &&
          t[after_r + 1] == '>') ||
         t[after_r] == ':' || t[after_r] == '(')) {
      continue;
    }
    if (model.pointer_names.contains(left) &&
        model.pointer_names.contains(rhs)) {
      out->push_back(
          {path, LineAt(flat, i), "pointer-order",
           "'" + left + " < " + rhs +
               "' compares raw pointers by address; address order is "
               "nondeterministic across runs — compare stable ids instead"});
    }
  }
}

}  // namespace

bool ValidMetricName(const std::string& name) {
  return ValidMetricLiteral(name, /*whole_argument=*/true);
}

const std::vector<RuleInfo>& Rules() {
  static const std::vector<RuleInfo> kRules = {
      {"determinism",
       "no wall-clock or libc randomness in src/{sim,leed,engine,"
       "replication} — sim time and leed::Rng only"},
      {"unordered-iter",
       "std::unordered_* declarations/iteration in src/ need sorted "
       "containers or a justified allow annotation"},
      {"pragma-once", "every header carries #pragma once"},
      {"banned-func", "strcpy/strcat/sprintf/vsprintf/gets are banned"},
      {"memcpy",
       "raw memcpy/memset/memmove are banned; use leed::CopyBytes / "
       "leed::FillBytes"},
      {"metric-name",
       "leed::obs metric names are lowercase dot-scoped identifiers"},
      {"count-in-bool-context",
       "map/set membership tests in src/ use contains(), not count(x) in a "
       "boolean context"},
      {"unannotated-sim-shared",
       "mutable static state in sim-scope paths must be const or carry a "
       "justified allow annotation"},
      {"pointer-order",
       "ordered containers keyed by raw pointers and pointer < comparisons "
       "replay in address order; key/compare by stable ids"},
      {"allow-syntax",
       "leed-lint annotations must name a known rule and justify"},
      {"unused-allow", "allow annotations that suppress nothing are rot"},
      {"unreadable-file",
       "a discovered source file that cannot be opened fails the tree walk "
       "instead of passing as clean"},
  };
  return kRules;
}

bool IsKnownRule(const std::string& name) {
  for (const RuleInfo& r : Rules()) {
    if (name == r.name) return true;
  }
  return false;
}

std::vector<Finding> LintFile(const std::string& path,
                              const std::string& contents,
                              const std::string* companion_header) {
  const std::vector<LineInfo> lines = Preprocess(contents);
  const FlatCode flat = Flatten(lines);

  std::vector<Finding> findings;  // final (incl. allow-syntax)
  std::vector<Allow> allows;
  for (size_t ln = 0; ln < lines.size(); ++ln) {
    if (!lines[ln].comment.empty()) {
      ParseAllows(lines[ln].comment, path, static_cast<int>(ln + 1), &allows,
                  &findings);
    }
  }

  std::vector<Finding> raw;
  CheckDeterminism(path, lines, &raw);
  CheckUnordered(path, lines, &raw);
  CheckPragmaOnce(path, lines, &raw);
  CheckBannedFunctions(path, lines, &raw);
  CheckMetricNames(path, lines, &raw);
  CheckCountInBoolContext(path, lines, &raw);

  // Per-TU model: declarations from this file plus — for a .cc — its
  // companion header, so pointer fields declared in x.h are known while
  // x.cc is linted. The companion contributes declarations only; its own
  // findings are reported when it is linted itself.
  TuModel model;
  ExtractPointerDecls(flat, &model);
  if (companion_header != nullptr) {
    ExtractPointerDecls(Flatten(Preprocess(*companion_header)), &model);
  }
  CheckUnannotatedSimShared(path, flat, &raw);
  CheckPointerOrder(path, flat, model, &raw);

  // An allow covers its own line and the next line that carries code —
  // comment continuation lines in between do not break the association,
  // so a justification may wrap.
  std::vector<int> covered(allows.size(), 0);
  for (size_t ai = 0; ai < allows.size(); ++ai) {
    size_t ln = static_cast<size_t>(allows[ai].line);  // 1-based -> next idx
    while (ln < lines.size() && Trim(lines[ln].code).empty()) ++ln;
    covered[ai] = static_cast<int>(ln + 1);
  }

  for (Finding& f : raw) {
    bool suppressed = false;
    for (size_t ai = 0; ai < allows.size(); ++ai) {
      Allow& a = allows[ai];
      if (a.rule == f.rule && (a.line == f.line || covered[ai] == f.line)) {
        a.used = true;
        suppressed = true;
      }
    }
    if (!suppressed) findings.push_back(std::move(f));
  }
  for (const Allow& a : allows) {
    if (!a.used) {
      findings.push_back({path, a.line, "unused-allow",
                          "allow(" + a.rule +
                              ") suppresses nothing on this or the next "
                              "line; remove it"});
    }
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  return findings;
}

std::vector<Finding> LintTree(const std::string& root,
                              const TreeOptions& options,
                              size_t* files_scanned) {
  namespace fs = std::filesystem;
  std::vector<std::string> paths;
  for (const std::string& sub : options.subdirs) {
    const fs::path dir = fs::path(root) / sub;
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) continue;
    for (fs::recursive_directory_iterator it(dir, ec), end; it != end;
         it.increment(ec)) {
      if (ec) break;
      if (!it->is_regular_file(ec)) continue;
      const std::string ext = it->path().extension().string();
      if (ext != ".h" && ext != ".cc" && ext != ".cpp") continue;
      const std::string rel =
          fs::relative(it->path(), root, ec).generic_string();
      if (rel.find("lint_corpus") != std::string::npos) continue;
      paths.push_back(rel);
    }
  }
  std::sort(paths.begin(), paths.end());
  const std::set<std::string> path_set(paths.begin(), paths.end());

  std::vector<Finding> findings;
  size_t scanned = 0;
  for (const std::string& rel : paths) {
    std::ifstream in(fs::path(root) / rel, std::ios::binary);
    if (!in) {
      // A file the gate cannot read must fail the run, not pass as clean.
      findings.push_back({rel, 1, "unreadable-file",
                          "discovered but could not be opened for reading; "
                          "the gate cannot vouch for it"});
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    ++scanned;
    // The per-TU model of x.cc includes the declarations of its sibling
    // x.h (when the tree has one) so annotations live next to the fields
    // they describe, not duplicated into every .cc.
    std::string companion;
    const std::string* companion_ptr = nullptr;
    const size_t dot = rel.rfind('.');
    if (dot != std::string::npos &&
        (EndsWith(rel, ".cc") || EndsWith(rel, ".cpp"))) {
      const std::string header = rel.substr(0, dot) + ".h";
      if (path_set.contains(header)) {
        std::ifstream hin(fs::path(root) / header, std::ios::binary);
        if (hin) {
          std::ostringstream hbuf;
          hbuf << hin.rdbuf();
          companion = hbuf.str();
          companion_ptr = &companion;
        }
      }
    }
    std::vector<Finding> f = LintFile(rel, buf.str(), companion_ptr);
    findings.insert(findings.end(), std::make_move_iterator(f.begin()),
                    std::make_move_iterator(f.end()));
  }
  // The walk already visits paths in sorted order and LintFile sorts within
  // a file, but the deterministic (path, line, rule, message) report order
  // is a documented contract — enforce it here rather than inherit it.
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  if (files_scanned != nullptr) *files_scanned = scanned;
  return findings;
}

std::string FormatFindings(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings) {
    out += f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
           f.message + "\n";
  }
  return out;
}

namespace {

// GitHub workflow-command escaping: data escapes % \r \n; property values
// additionally escape : and , (github.com/actions/toolkit issue-commands).
std::string GhEscape(const std::string& s, bool property) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '%': out += "%25"; break;
      case '\r': out += "%0D"; break;
      case '\n': out += "%0A"; break;
      case ':': out += property ? "%3A" : ":"; break;
      case ',': out += property ? "%2C" : ","; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

std::string FormatFindingsGitHub(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings) {
    out += "::error file=" + GhEscape(f.file, true) +
           ",line=" + std::to_string(f.line) + ",title=leed-lint " + f.rule +
           "::[" + f.rule + "] " + GhEscape(f.message, false) + "\n";
  }
  return out;
}

}  // namespace leed::lint

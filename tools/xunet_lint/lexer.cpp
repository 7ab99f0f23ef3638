// lexer.cpp — a lightweight C++ lexer: enough to token-match project rules
// without false positives from comments, strings, or preprocessor lines.
#include "xunet_lint/scan.hpp"

#include <array>
#include <cctype>
#include <fstream>
#include <sstream>

namespace xunet::lint {
namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return {};
  std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

/// Multi-character punctuators, longest first so greedy matching works.
const std::array<const char*, 23> kPuncts = {
    "<<=", ">>=", "...", "->*", "::", "->", "==", "!=", "<=", ">=", "&&",
    "||",  "<<",  ">>",  "++",  "--", "+=", "-=", "*=", "/=", "%=", "|=",
    "&=",
};

/// Parse one `xunet-lint:` annotation out of a comment body.
Allow parse_allow(const std::string& comment, int line) {
  Allow a;
  a.line = line;
  std::size_t tag = comment.find("xunet-lint");
  std::size_t open = comment.find("allow(", tag);
  std::size_t close = open == std::string::npos ? std::string::npos
                                                : comment.find(')', open);
  if (open == std::string::npos || close == std::string::npos) {
    a.malformed = true;
    return a;
  }
  std::string list = comment.substr(open + 6, close - open - 6);
  std::string cur;
  for (char c : list + ",") {
    if (c == ',') {
      cur = trim(cur);
      if (!cur.empty()) a.rules.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (a.rules.empty()) a.malformed = true;
  std::size_t dash = comment.find("--", close);
  if (dash != std::string::npos) a.reason = trim(comment.substr(dash + 2));
  return a;
}

/// Collect identifiers declared as std::unordered_map / std::unordered_set
/// (members, locals, or parameters): `std :: unordered_x < ...balanced... >
/// [&*]* NAME`.
void collect_unordered(Unit& u) {
  const std::vector<Token>& t = u.toks;
  for (std::size_t i = 0; i + 4 < t.size(); ++i) {
    if (t[i].text != "std" || t[i + 1].text != "::") continue;
    const std::string& k = t[i + 2].text;
    if (k != "unordered_map" && k != "unordered_set" &&
        k != "unordered_multimap" && k != "unordered_multiset") {
      continue;
    }
    if (t[i + 3].text != "<") continue;
    std::size_t close = match_forward(t, i + 3);
    std::size_t j = close + 1;
    while (j < t.size() &&
           (t[j].text == "&" || t[j].text == "*" || t[j].text == "const")) {
      ++j;
    }
    if (j < t.size() && t[j].kind == Token::Kind::ident) {
      u.unordered_names.insert(t[j].text);
    }
  }
}

}  // namespace

std::size_t match_forward(const std::vector<Token>& toks, std::size_t open) {
  const std::string& o = toks[open].text;
  const bool angle = o == "<";
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    const std::string& s = toks[i].text;
    if (angle) {
      if (s == "<") ++depth;
      else if (s == "<<") depth += 2;
      else if (s == ">") --depth;
      else if (s == ">>") depth -= 2;
      else if (s == ";") return toks.size();  // not a template after all
    } else {
      if (s == "(" || s == "[" || s == "{") ++depth;
      else if (s == ")" || s == "]" || s == "}") --depth;
    }
    if (depth <= 0) return i;
  }
  return toks.size();
}

void lex_source(Unit& u, const std::string& text) {
  // Raw lines, for annotation targeting.
  {
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      u.lines.push_back(line);
    }
  }

  const std::size_t n = text.size();
  std::size_t i = 0;
  int line = 1;
  bool at_line_start = true;  // only whitespace seen since the last newline

  auto note_allow = [&](const std::string& comment, int cline) {
    if (comment.find("xunet-lint") == std::string::npos) return;
    Allow a = parse_allow(comment, cline);
    // A trailing annotation covers its own line; a standalone one covers
    // the next line.
    a.target_line = at_line_start ? cline + 1 : cline;
    u.allows.push_back(std::move(a));
  };

  while (i < n) {
    char c = text[i];
    if (c == '\n') {
      ++line;
      ++i;
      at_line_start = true;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\f' || c == '\v') {
      ++i;
      continue;
    }
    // Preprocessor directive (only at line start): captured out-of-band,
    // with backslash continuations folded.
    if (c == '#' && at_line_start) {
      Directive d;
      d.line = line;
      while (i < n) {
        std::size_t eol = text.find('\n', i);
        if (eol == std::string::npos) eol = n;
        std::string part = text.substr(i, eol - i);
        if (!part.empty() && part.back() == '\r') part.pop_back();
        bool cont = !part.empty() && part.back() == '\\';
        if (cont) part.pop_back();
        d.text += part;
        i = eol < n ? eol + 1 : n;
        if (eol < n) ++line;
        if (!cont) break;
      }
      u.directives.push_back(std::move(d));
      at_line_start = true;
      continue;
    }
    if (c == '/' && i + 1 < n && text[i + 1] == '/') {
      std::size_t eol = text.find('\n', i);
      if (eol == std::string::npos) eol = n;
      note_allow(text.substr(i + 2, eol - i - 2), line);
      i = eol;
      continue;
    }
    if (c == '/' && i + 1 < n && text[i + 1] == '*') {
      int cline = line;
      std::size_t end = text.find("*/", i + 2);
      if (end == std::string::npos) end = n;
      std::string body = text.substr(i + 2, end - i - 2);
      note_allow(body, cline);
      for (char bc : body)
        if (bc == '\n') ++line;
      i = end == n ? n : end + 2;
      continue;
    }
    at_line_start = false;
    // Raw string literal.
    if (c == 'R' && i + 1 < n && text[i + 1] == '"') {
      std::size_t p = text.find('(', i + 2);
      if (p != std::string::npos) {
        std::string delim = ")" + text.substr(i + 2, p - i - 2) + "\"";
        std::size_t end = text.find(delim, p + 1);
        if (end == std::string::npos) end = n;
        for (std::size_t j = i; j < end && j < n; ++j)
          if (text[j] == '\n') ++line;
        u.toks.push_back({Token::Kind::string, "<raw>", line});
        i = end == n ? n : end + delim.size();
        continue;
      }
    }
    if (c == '"' || c == '\'') {
      char quote = c;
      std::size_t j = i + 1;
      while (j < n && text[j] != quote) {
        if (text[j] == '\\') ++j;
        if (text[j] == '\n') ++line;
        ++j;
      }
      u.toks.push_back({quote == '"' ? Token::Kind::string : Token::Kind::chr,
                        text.substr(i, j + 1 - i), line});
      i = j + 1;
      continue;
    }
    if (ident_start(c)) {
      std::size_t j = i + 1;
      while (j < n && ident_char(text[j])) ++j;
      u.toks.push_back({Token::Kind::ident, text.substr(i, j - i), line});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      std::size_t j = i + 1;
      while (j < n && (ident_char(text[j]) || text[j] == '\'' ||
                       text[j] == '.' ||
                       ((text[j] == '+' || text[j] == '-') &&
                        (text[j - 1] == 'e' || text[j - 1] == 'E' ||
                         text[j - 1] == 'p' || text[j - 1] == 'P')))) {
        ++j;
      }
      u.toks.push_back({Token::Kind::number, text.substr(i, j - i), line});
      i = j;
      continue;
    }
    // Punctuator: greedy longest match against the multi-char set.
    std::string p(1, c);
    for (const char* mp : kPuncts) {
      std::size_t len = std::char_traits<char>::length(mp);
      if (text.compare(i, len, mp) == 0) {
        p = mp;
        break;
      }
    }
    u.toks.push_back({Token::Kind::punct, p, line});
    i += p.size();
  }
  collect_unordered(u);

  // A standalone annotation covers the next CODE line: skip any blank or
  // comment-only lines between it and the statement it guards (annotations
  // often share a multi-line comment with their prose).
  for (Allow& a : u.allows) {
    if (a.target_line == a.line) continue;  // trailing: covers its own line
    while (a.target_line <= static_cast<int>(u.lines.size())) {
      const std::string& raw = u.lines[a.target_line - 1];
      std::size_t b = raw.find_first_not_of(" \t");
      if (b != std::string::npos && raw.compare(b, 2, "//") != 0) break;
      ++a.target_line;
    }
  }
}

Unit lex_file(const std::string& path, const std::string& rel, bool& ok) {
  Unit u;
  u.path = path;
  u.rel = rel;
  auto dot = rel.find_last_of('.');
  std::string ext = dot == std::string::npos ? "" : rel.substr(dot);
  u.is_header = ext == ".hpp" || ext == ".h";
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    ok = false;
    return u;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  lex_source(u, ss.str());
  ok = true;
  return u;
}

}  // namespace xunet::lint

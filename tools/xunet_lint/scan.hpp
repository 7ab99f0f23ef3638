// scan.hpp — internal lexer structures shared by the xunet_lint rule
// matchers.  Not installed; tests include it to drive rules directly.
#pragma once

#include <set>
#include <string>
#include <vector>

namespace xunet::lint {

/// One lexical token.  Comments and preprocessor directives are captured
/// out-of-band (Unit::allows / Unit::directives), so rules never see them.
struct Token {
  enum class Kind { ident, number, string, chr, punct };
  Kind kind = Kind::punct;
  std::string text;
  int line = 0;
};

/// One preprocessor directive, continuations folded in.
struct Directive {
  int line = 0;
  std::string text;  ///< from '#' to end of (logical) line
};

/// One `xunet-lint: allow(...)` annotation.
struct Allow {
  int line = 0;           ///< line the comment sits on
  int target_line = 0;    ///< line whose findings it suppresses
  std::vector<std::string> rules;
  std::string reason;
  bool malformed = false; ///< comment mentions xunet-lint but did not parse
  bool used = false;
};

/// One lexed source file.
struct Unit {
  std::string path;  ///< as opened
  std::string rel;   ///< root-relative display path
  bool is_header = false;
  std::vector<std::string> lines;  ///< raw text, for annotation targeting
  std::vector<Token> toks;
  std::vector<Directive> directives;
  std::vector<Allow> allows;
  /// Identifiers declared in this file as std::unordered_map/unordered_set.
  std::set<std::string> unordered_names;
};

/// Read and lex `path`.  `ok` is false when the file cannot be read.
[[nodiscard]] Unit lex_file(const std::string& path, const std::string& rel,
                            bool& ok);

/// Lex `text` into `u` (exposed for fixture-free unit tests).
void lex_source(Unit& u, const std::string& text);

/// Index of the token matching the opener at `open` ("(", "[", "{", "<"),
/// or toks.size() when unbalanced.  For "<" the search treats ">>" as two
/// closers (template context).
[[nodiscard]] std::size_t match_forward(const std::vector<Token>& toks,
                                        std::size_t open);

}  // namespace xunet::lint

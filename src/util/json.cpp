#include "util/json.hpp"

#include <algorithm>

namespace xunet::util {

namespace {

/// Recursive-descent reader that accepts exactly the JSON grammar.
class JsonCursor {
 public:
  explicit JsonCursor(std::string_view t) : t_(t) {}

  bool value() {
    ws();
    if (pos_ >= t_.size()) return false;
    switch (t_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool at_end() {
    ws();
    return pos_ == t_.size();
  }

 private:
  [[nodiscard]] bool peek(char c) const {
    return pos_ < t_.size() && t_[pos_] == c;
  }
  [[nodiscard]] bool peek_digit() const {
    return pos_ < t_.size() && t_[pos_] >= '0' && t_[pos_] <= '9';
  }
  void ws() {
    while (peek(' ') || peek('\t') || peek('\n') || peek('\r')) ++pos_;
  }
  bool consume(char c) {
    ws();
    if (!peek(c)) return false;
    ++pos_;
    return true;
  }
  bool literal(std::string_view lit) {
    if (t_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }
  bool hex_digit() {
    if (pos_ >= t_.size()) return false;
    const char c = t_[pos_++];
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') ||
           (c >= 'A' && c <= 'F');
  }
  bool string() {
    if (!consume('"')) return false;
    while (pos_ < t_.size()) {
      const char c = t_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') continue;
      if (pos_ >= t_.size()) return false;
      const char e = t_[pos_++];
      if (e == 'u') {
        for (int i = 0; i < 4; ++i) {
          if (!hex_digit()) return false;
        }
      } else if (std::string_view("\"\\/bfnrt").find(e) ==
                 std::string_view::npos) {
        return false;
      }
    }
    return false;
  }
  /// At least one digit; false (and nothing consumed) otherwise.
  bool digits() {
    if (!peek_digit()) return false;
    while (peek_digit()) ++pos_;
    return true;
  }
  bool number() {
    if (peek('-')) ++pos_;
    if (peek('0')) {
      ++pos_;
    } else if (!digits()) {
      return false;
    }
    if (peek('.')) {
      ++pos_;
      if (!digits()) return false;
    }
    if (peek('e') || peek('E')) {
      ++pos_;
      if (peek('+') || peek('-')) ++pos_;
      if (!digits()) return false;
    }
    return true;
  }
  bool object() {
    if (!consume('{')) return false;
    if (consume('}')) return true;
    do {
      ws();
      if (!string()) return false;
      if (!consume(':')) return false;
      if (!value()) return false;
    } while (consume(','));
    return consume('}');
  }
  bool array() {
    if (!consume('[')) return false;
    if (consume(']')) return true;
    do {
      if (!value()) return false;
    } while (consume(','));
    return consume(']');
  }

  std::string_view t_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<void> validate_json(std::string_view text) {
  JsonCursor c(text);
  if (!c.value() || !c.at_end()) return Errc::protocol_error;
  return {};
}

std::optional<std::string> json_field(std::string_view line,
                                      std::string_view key, bool string_only) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const std::size_t pos = line.find(needle);
  if (pos == std::string_view::npos) return std::nullopt;
  const std::size_t start =
      std::min(line.find_first_not_of(" \t", pos + needle.size()), line.size());
  if (start < line.size() && line[start] == '"') {
    const std::size_t end = line.find('"', start + 1);
    if (end == std::string_view::npos) return std::string();
    return std::string(line.substr(start + 1, end - start - 1));
  }
  if (string_only) return std::nullopt;
  const std::size_t end =
      std::min(line.find_first_of(",}", start), line.size());
  return std::string(line.substr(start, end - start));
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char hex[] = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xf];
          out += hex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace xunet::util

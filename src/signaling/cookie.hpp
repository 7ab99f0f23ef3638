// cookie.hpp — the §7.1 cookie capabilities sighost issues.
//
// "sighost maintains a per-VCI table of cookies.  When an endpoint does a
// connect or an accept on a socket, it must supply the cookie provided to
// it during call setup ... If authentication fails, the call is torn down,
// and the socket marked unusable."  The per-VCI table is VCI_mapping itself:
// each entry carries its call's cookie, and sighost authenticates a bind or
// connect indication against it.  This class only issues the cookies and
// keeps the outstanding ones unique.
#pragma once

#include <unordered_map>

#include "signaling/messages.hpp"
#include "util/rng.hpp"

namespace xunet::sig {

/// Issues unguessable 16-bit cookies, unique among those outstanding.
class CookieTable {
 public:
  explicit CookieTable(std::uint64_t seed) : rng_(seed) {}

  /// Mint a fresh cookie.  Never returns 0 (0 means "no cookie") and never
  /// collides with another outstanding cookie, so a guess succeeds with
  /// probability < 2^-16 per attempt.
  [[nodiscard]] Cookie mint();

  /// "Cookies last for the lifetime of a connection": end one when its
  /// call does (or when its setup fails).
  void discard(Cookie cookie) { outstanding_.erase(cookie); }

  [[nodiscard]] std::size_t outstanding_count() const noexcept {
    return outstanding_.size();
  }

 private:
  util::Rng rng_;
  std::unordered_map<Cookie, bool> outstanding_;
};

}  // namespace xunet::sig

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

#include <vector>

#include "signaling/messages.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"

namespace xunet::sig {

/// Issues unguessable 16-bit cookies, unique among those outstanding.
class CookieTable {
 public:
  explicit CookieTable(std::uint64_t seed) : rng_(seed) {}

  /// Mint a fresh cookie.  Never returns 0 (0 means "no cookie") and never
  /// collides with another outstanding cookie, so a guess succeeds with
  /// probability < 2^-16 per attempt.  Fails with no_buffer_space when all
  /// 65,535 cookies are outstanding.
  [[nodiscard]] util::Result<Cookie> mint();

  /// "Cookies last for the lifetime of a connection": end one when its
  /// call does (or when its setup fails).
  void discard(Cookie cookie) {
    if (outstanding_[cookie]) --count_;
    outstanding_[cookie] = false;
  }

  [[nodiscard]] std::size_t outstanding_count() const noexcept { return count_; }

 private:
  util::Rng rng_;
  std::vector<bool> outstanding_ = std::vector<bool>(0x10000);  ///< by cookie
  std::size_t count_ = 0;
};

}  // namespace xunet::sig

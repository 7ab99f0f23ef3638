#include "signaling/cookie.hpp"

namespace xunet::sig {

util::Result<Cookie> CookieTable::mint() {
  if (count_ == 0xFFFF) return util::Errc::no_buffer_space;
  for (;;) {
    auto c = static_cast<Cookie>(rng_.below(0xFFFF) + 1);  // in [1, 0xFFFF]
    if (outstanding_[c]) continue;
    outstanding_[c] = true;
    ++count_;
    return c;
  }
}

}  // namespace xunet::sig

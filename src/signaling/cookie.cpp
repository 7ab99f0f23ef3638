#include "signaling/cookie.hpp"

namespace xunet::sig {

Cookie CookieTable::mint() {
  for (;;) {
    auto c = static_cast<Cookie>(rng_.below(0xFFFF) + 1);  // in [1, 0xFFFF]
    if (outstanding_.try_emplace(c, true).second) return c;
  }
}

}  // namespace xunet::sig

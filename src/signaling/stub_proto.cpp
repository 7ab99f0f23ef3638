#include "signaling/stub_proto.hpp"

namespace xunet::sig {

util::Buffer serialize(const StubMsg& m) {
  util::Writer w;
  w.reserve(kStubMsgBytes);
  w.u8(static_cast<std::uint8_t>(m.type));
  w.u8(static_cast<std::uint8_t>(m.up_type));
  w.u16(m.vci);
  w.u16(m.cookie);
  w.u32(m.machine.value);
  return w.take();
}

void StubFramer::feed(util::BytesView chunk) {
  util::feed_stream(pending_, chunk, [this](util::BytesView data) {
    std::size_t used = 0;
    for (; data.size() - used >= kStubMsgBytes; used += kStubMsgBytes) {
      const std::uint8_t* p = data.data() + used;
      StubMsg m;
      m.type = static_cast<StubMsg::Type>(p[0]);
      m.up_type = static_cast<kern::AnandUpType>(p[1]);
      m.vci = util::load_u16(p + 2);
      m.cookie = util::load_u16(p + 4);
      m.machine.value = util::load_u32(p + 6);
      on_msg_(m);
    }
    return used;
  });
}

}  // namespace xunet::sig

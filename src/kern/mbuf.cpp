#include "kern/mbuf.hpp"

#include <cassert>

namespace xunet::kern {
namespace {

std::size_t mbufs_for(std::size_t bytes, std::size_t mbuf_bytes) {
  assert(mbuf_bytes > 0);
  return bytes == 0 ? 1 : (bytes + mbuf_bytes - 1) / mbuf_bytes;
}

}  // namespace

MbufChain MbufChain::from_bytes(util::BytesView data, std::size_t mbuf_bytes) {
  return adopt(util::to_buffer(data), mbuf_bytes);
}

MbufChain MbufChain::adopt(util::Buffer&& data, std::size_t mbuf_bytes) {
  const std::size_t mbufs = mbufs_for(data.size(), mbuf_bytes);
  return MbufChain(std::move(data), mbufs);
}

MbufChain MbufChain::shaped(std::size_t count, std::size_t each,
                            std::uint8_t fill) {
  return MbufChain(util::Buffer(count * each, fill), count);
}

}  // namespace xunet::kern

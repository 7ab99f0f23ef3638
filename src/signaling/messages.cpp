#include "signaling/messages.hpp"

#include <cassert>

#include "util/checksum.hpp"

namespace xunet::sig {

using util::Errc;

std::string_view to_string(MsgType t) noexcept {
  switch (t) {
    case MsgType::export_srv: return "EXPORT_SRV";
    case MsgType::service_regs: return "SERVICE_REGS";
    case MsgType::withdraw_srv: return "WITHDRAW_SRV";
    case MsgType::incoming_conn: return "INCOMING_CONN";
    case MsgType::accept_conn: return "ACCEPT_CONN";
    case MsgType::reject_conn: return "REJECT_CONN";
    case MsgType::vci_for_conn: return "VCI_FOR_CONN";
    case MsgType::connect_req: return "CONNECT_REQ";
    case MsgType::req_id: return "REQ_ID";
    case MsgType::cancel_req: return "CANCEL_REQ";
    case MsgType::conn_failed: return "CONN_FAILED";
    case MsgType::peer_setup: return "PEER_SETUP";
    case MsgType::peer_accept: return "PEER_ACCEPT";
    case MsgType::peer_reject: return "PEER_REJECT";
    case MsgType::peer_established: return "PEER_ESTABLISHED";
    case MsgType::peer_bound: return "PEER_BOUND";
    case MsgType::peer_setup_failed: return "PEER_SETUP_FAILED";
    case MsgType::peer_teardown: return "PEER_TEARDOWN";
    case MsgType::peer_cancel: return "PEER_CANCEL";
    case MsgType::peer_ack: return "PEER_ACK";
    case MsgType::peer_resync: return "PEER_RESYNC";
    case MsgType::peer_resync_ack: return "PEER_RESYNC_ACK";
    case MsgType::peer_resync_info: return "PEER_RESYNC_INFO";
  }
  return "?";
}

namespace {

// Fletcher-16 over the message body.  The peer PVCs are datagram sockets:
// a corrupted cell that slips past (or is injected above) the AAL5 CRC
// must never parse into a plausible message — a flipped bit in `seq`
// would acknowledge a message that was never delivered and silently
// remove it from the retransmit queue.  Detected corruption is loss, and
// loss is what the reliable-delivery layer already handles.
void write_msg(util::Writer& w, const Msg& m) {
  const std::size_t at = w.size();
  w.u16(0);  // the checksum, patched in once the body is written
  w.u8(static_cast<std::uint8_t>(m.type));
  w.u32(m.req_id);
  w.u32(m.seq);
  w.u16(m.cookie);
  w.u16(m.vci);
  w.u16(m.vci2);
  w.u16(m.port);
  w.u8(m.error);
  w.u64(m.trace_id);
  w.u64(m.parent_span);
  w.lp_string(m.service);
  w.lp_string(m.qos);
  w.lp_string(m.dst);
  w.lp_string(m.comment);
  w.patch_u16(at, util::fletcher16(w.view().subspan(at + 2)));
}

}  // namespace

util::Buffer serialize(const Msg& m) {
  util::Writer w;
  w.reserve(wire_size(m));
  write_msg(w, m);
  return w.take();
}

util::Result<Msg> parse_msg(util::BytesView wire) {
  if (wire.size() < kMsgFixedBytes) return Errc::protocol_error;
  const std::uint8_t* p = wire.data();
  if (util::load_u16(p) != util::fletcher16(wire.subspan(2))) {
    return Errc::protocol_error;
  }
  if (p[2] < static_cast<std::uint8_t>(MsgType::export_srv) ||
      p[2] > static_cast<std::uint8_t>(MsgType::peer_resync_info)) {
    return Errc::protocol_error;
  }
  Msg m;
  m.type = static_cast<MsgType>(p[2]);
  m.req_id = util::load_u32(p + 3);
  m.seq = util::load_u32(p + 7);
  m.cookie = util::load_u16(p + 11);
  m.vci = util::load_u16(p + 13);
  m.vci2 = util::load_u16(p + 15);
  m.port = util::load_u16(p + 17);
  m.error = p[19];
  m.trace_id = util::load_u64(p + 20);
  m.parent_span = util::load_u64(p + 28);
  util::Reader r(wire.subspan(kMsgFixedBytes));
  for (std::string* s : {&m.service, &m.qos, &m.dst, &m.comment}) {
    auto v = r.lp_bytes();
    if (!v) return Errc::protocol_error;
    s->assign(reinterpret_cast<const char*>(v->data()), v->size());
  }
  if (!r.exhausted()) return Errc::protocol_error;
  return m;
}

util::Buffer frame(const Msg& m) {
  const std::size_t n = wire_size(m);
  assert(n <= kMaxMsgBytes);
  util::Writer w;
  w.reserve(2 + n);
  w.u16(static_cast<std::uint16_t>(n));
  write_msg(w, m);
  return w.take();
}

void MsgFramer::feed(util::BytesView chunk) {
  util::feed_stream(pending_, chunk, [this](util::BytesView data) {
    std::size_t used = 0;
    while (data.size() - used >= 2) {
      const std::size_t len = util::load_u16(data.data() + used);
      if (data.size() - used - 2 < len) break;
      auto parsed = parse_msg(data.subspan(used + 2, len));
      used += 2 + len;
      if (parsed) {
        on_msg_(*parsed);
      } else if (on_err_) {
        on_err_(parsed.error());
      }
    }
    return used;
  });
}

}  // namespace xunet::sig

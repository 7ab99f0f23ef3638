// model.cpp — the product-machine encoding and the breadth-first explorer.
//
// One product state packs into a single 64-bit word: the call-lifecycle and
// five-list occupancy bits of both sighosts, both endpoint socket states,
// nine per-kind in-flight message counters (saturating at 2 — the standard
// counter abstraction for a reordering channel), and four anand indication
// counters.  The reachable space on the real tables is small (tens of
// thousands of states); the bound exists so a bad table edit fails loudly
// instead of spinning.
#include "xunet_model/model.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "util/json.hpp"

namespace xunet::model {
namespace {

// ------------------------------------------------------------ state word

// Boolean bits.
enum Bit : unsigned {
  kOOut = 0,   // originator: outgoing_requests entry
  kOVm,        // originator: vci_mapping entry
  kOWb,        // originator: wait_for_bind entry
  kOConf,      // originator: vm entry confirmed
  kCInc,       // callee: incoming_requests entry
  kCVm,        // callee: vci_mapping entry
  kCWb,        // callee: wait_for_bind entry
  kCConf,      // callee: vm entry confirmed
  kCDecided,   // callee app already accepted (awaiting ESTABLISHED)
  kSvc,        // service currently exported at callee
  kSvcUsed,    // export consumed (each of export/withdraw happens once)
  kWdrawn,     // withdraw consumed
  kStarted,    // the one modeled call was initiated
  kCliVci,     // client app holds VCI_FOR_CONN
  kSrvVci,     // server app holds VCI_FOR_CONN
  kOCrashed,   // originator sighost crash+recover consumed
  kCCrashed,   // callee sighost crash+recover consumed
  kVc,         // network VC exists (handle held by originator)
  kBoolBits
};

// Socket states (model adds "closed": descriptor released, slot recycled).
enum Sock : std::uint64_t { CR = 0, BD = 1, CN = 2, DI = 3, CL = 4 };

constexpr unsigned kKoShift = kBoolBits;      // 3 bits
constexpr unsigned kKcShift = kKoShift + 3;   // 3 bits

// Sighost↔sighost messages; direction is fixed per kind.
enum Msg : unsigned {
  mSETUP = 0,      // O→C  PEER_SETUP
  mCANCEL,         // O→C  PEER_CANCEL
  mSETUP_FAILED,   // O→C  PEER_SETUP_FAILED
  mTEARDOWN_OC,    // O→C  PEER_TEARDOWN
  mACCEPT,         // C→O  accept reply
  mREJECT,         // C→O  PEER_REJECT
  mESTABLISHED,    // C→O  PEER_ESTABLISHED
  mBOUND,          // C→O  PEER_BOUND
  mTEARDOWN_CO,    // C→O  PEER_TEARDOWN
  kMsgKinds
};
constexpr unsigned kMsgShift = kKcShift + 3;  // 2 bits each

// Kernel→sighost anand indications.
enum Ind : unsigned { iOConn = 0, iOTerm, iCBind, iCTerm, kIndKinds };
constexpr unsigned kIndShift = kMsgShift + 2 * kMsgKinds;  // 2 bits each

// Indications carry per-incarnation cookies (sighost.cpp confirm_endpoint):
// tearing a call down invalidates any bind/connect indication still queued
// for that side.  One bit per side suffices — fresh indications only post
// while the socket is `created`, which a torn-down endpoint never is again.
constexpr unsigned kOIndStale = kIndShift + 2 * kIndKinds;
constexpr unsigned kCIndStale = kOIndStale + 1;

// The apps' VCI_FOR_CONN credentials are likewise per-incarnation: tearing
// the mapping down invalidates an already-handed-out credential, and a
// bind/connect performed with a stale credential posts an indication that
// will fail cookie authentication.  Re-establishment hands out a fresh one.
constexpr unsigned kCliVciStale = kCIndStale + 1;
constexpr unsigned kSrvVciStale = kCliVciStale + 1;

using St = std::uint64_t;

bool bit(St s, unsigned b) { return (s >> b) & 1u; }
St with_bit(St s, unsigned b, bool v) {
  return v ? (s | (St{1} << b)) : (s & ~(St{1} << b));
}
Sock ko(St s) { return static_cast<Sock>((s >> kKoShift) & 7u); }
Sock kc(St s) { return static_cast<Sock>((s >> kKcShift) & 7u); }
St with_ko(St s, Sock v) {
  return (s & ~(St{7} << kKoShift)) | (St{v} << kKoShift);
}
St with_kc(St s, Sock v) {
  return (s & ~(St{7} << kKcShift)) | (St{v} << kKcShift);
}
unsigned msg(St s, unsigned m) { return (s >> (kMsgShift + 2 * m)) & 3u; }
St with_msg(St s, unsigned m, unsigned v) {
  return (s & ~(St{3} << (kMsgShift + 2 * m))) |
         (St{v & 3u} << (kMsgShift + 2 * m));
}
St send(St s, unsigned m) {  // saturating at 2 (counter abstraction)
  unsigned v = msg(s, m);
  return with_msg(s, m, v < 2 ? v + 1 : 2);
}
St consume(St s, unsigned m) { return with_msg(s, m, msg(s, m) - 1); }
unsigned ind(St s, unsigned i) { return (s >> (kIndShift + 2 * i)) & 3u; }
St with_ind(St s, unsigned i, unsigned v) {
  return (s & ~(St{3} << (kIndShift + 2 * i))) |
         (St{v & 3u} << (kIndShift + 2 * i));
}
St post(St s, unsigned i) {
  unsigned v = ind(s, i);
  return with_ind(s, i, v < 2 ? v + 1 : 2);
}
St take(St s, unsigned i) {
  s = with_ind(s, i, ind(s, i) - 1);
  // Draining the last endpoint indication clears that side's stale mark.
  if (i == iOConn && ind(s, i) == 0) s = with_bit(s, kOIndStale, false);
  if (i == iCBind && ind(s, i) == 0) s = with_bit(s, kCIndStale, false);
  return s;
}

bool quiescent(St s) {
  for (unsigned m = 0; m < kMsgKinds; ++m)
    if (msg(s, m) != 0) return false;
  for (unsigned i = 0; i < kIndKinds; ++i)
    if (ind(s, i) != 0) return false;
  return true;
}

const char* sock_name(Sock v) {
  switch (v) {
    case CR: return "created";
    case BD: return "bound";
    case CN: return "connected";
    case DI: return "disconnected";
    case CL: return "closed";
  }
  return "?";
}

std::string decode(St s) {
  std::ostringstream o;
  o << "O{";
  if (bit(s, kOOut)) o << "out ";
  if (bit(s, kOVm)) o << "vm ";
  if (bit(s, kOWb)) o << "wb ";
  if (bit(s, kOConf)) o << "conf ";
  if (bit(s, kOCrashed)) o << "crashed ";
  o << "sock=" << sock_name(ko(s)) << "} C{";
  if (bit(s, kCInc)) o << "inc ";
  if (bit(s, kCVm)) o << "vm ";
  if (bit(s, kCWb)) o << "wb ";
  if (bit(s, kCConf)) o << "conf ";
  if (bit(s, kCDecided)) o << "decided ";
  if (bit(s, kCCrashed)) o << "crashed ";
  o << "sock=" << sock_name(kc(s)) << "}";
  if (bit(s, kSvc)) o << " svc";
  if (bit(s, kVc)) o << " VC";
  if (bit(s, kCliVci)) o << " cli-vci";
  if (bit(s, kSrvVci)) o << " srv-vci";
  static const char* kMsgNames[kMsgKinds] = {
      "SETUP",       "CANCEL", "SETUP_FAILED", "TEARDOWN>",  "ACCEPT",
      "REJECT",      "ESTABLISHED", "BOUND",   "TEARDOWN<"};
  for (unsigned m = 0; m < kMsgKinds; ++m) {
    if (msg(s, m) != 0) o << " " << kMsgNames[m] << "x" << msg(s, m);
  }
  static const char* kIndNames[kIndKinds] = {"conn-ind", "term-ind@O",
                                             "bind-ind", "term-ind@C"};
  for (unsigned i = 0; i < kIndKinds; ++i) {
    if (ind(s, i) != 0) o << " " << kIndNames[i] << "x" << ind(s, i);
  }
  return o.str();
}

// --------------------------------------------------------------- context

struct Ctx {
  // Declared sighost entries: key "fn|list|op" -> table line.
  std::map<std::string, int> s_decl;
  std::set<std::string> s_reached;
  // Declared kernel edges, plus the (fn, to) reachability projection.
  const std::vector<lint::MachineEdge>* kern = nullptr;
  std::set<std::string> k_reached;  // "fn|to"
  std::set<std::string> badsource;  // deduped MODEL-BADSOURCE details
  bool sabotage = false;
};

std::string skey(const char* fn, const char* list, const char* op) {
  return std::string(fn) + "|" + list + "|" + op;
}

bool has_s(const Ctx& cx, const char* fn, const char* list, const char* op) {
  return cx.s_decl.count(skey(fn, list, op)) != 0;
}
void fire_s(Ctx& cx, const char* fn, const char* list, const char* op) {
  cx.s_reached.insert(skey(fn, list, op));
}
bool has_k(const Ctx& cx, const char* fn, const char* to) {
  for (const lint::MachineEdge& e : *cx.kern) {
    if (e.fn == fn && e.to == to) return true;
  }
  return false;
}
void fire_k(Ctx& cx, const char* fn, Sock from, const char* to) {
  cx.k_reached.insert(std::string(fn) + "|" + to);
  for (const lint::MachineEdge& e : *cx.kern) {
    if (e.fn != fn || e.to != to) continue;
    for (const std::string& f : e.from) {
      if (f == "*" || f == sock_name(from)) return;
    }
  }
  cx.badsource.insert(std::string(fn) + " fired from '" + sock_name(from) +
                      "' which its declared from-list does not cover");
}

// ------------------------------------------------------------ successors

/// Tear down one side's call state (teardown_vci): vm+wb erased, the
/// endpoint socket disconnected downward, the network VC released by the
/// originator, the peer optionally notified.  Returns false when a required
/// table entry is undeclared (the event is then disabled — gating).
bool teardown(St& s, Ctx& cx, bool orig_side, bool notify) {
  unsigned vm = orig_side ? kOVm : kCVm;
  unsigned wb = orig_side ? kOWb : kCWb;
  unsigned conf = orig_side ? kOConf : kCConf;
  if (!has_s(cx, "teardown_vci", "vci_mapping", "erase")) return false;
  if (bit(s, wb) && !has_s(cx, "teardown_vci", "wait_for_bind", "erase"))
    return false;
  Sock sock = orig_side ? ko(s) : kc(s);
  bool disconnect = sock == BD || sock == CN;
  if (disconnect && !has_k(cx, "mark_vci_disconnected", "disconnected"))
    return false;
  fire_s(cx, "teardown_vci", "vci_mapping", "erase");
  if (bit(s, wb)) fire_s(cx, "teardown_vci", "wait_for_bind", "erase");
  s = with_bit(s, vm, false);
  s = with_bit(s, wb, false);
  s = with_bit(s, conf, false);
  if (disconnect) {
    fire_k(cx, "mark_vci_disconnected", sock, "disconnected");
    s = orig_side ? with_ko(s, DI) : with_kc(s, DI);
  }
  if (orig_side) s = with_bit(s, kVc, false);  // originator owns the handle
  // Any endpoint indication still queued for this side — and any app
  // credential already handed out — carries the torn incarnation's cookie
  // and will fail authentication downstream.
  if (orig_side) {
    if (ind(s, iOConn) != 0) s = with_bit(s, kOIndStale, true);
    if (bit(s, kCliVci)) s = with_bit(s, kCliVciStale, true);
  } else {
    if (ind(s, iCBind) != 0) s = with_bit(s, kCIndStale, true);
    if (bit(s, kSrvVci)) s = with_bit(s, kSrvVciStale, true);
  }
  if (notify) s = send(s, orig_side ? mTEARDOWN_OC : mTEARDOWN_CO);
  return true;
}

/// Emit every enabled event's successor, in a fixed order.  Firing
/// accounting happens here: `s` was popped from the BFS queue, so it is
/// reachable and everything an enabled event fires is reachable.
void successors(St s, Ctx& cx,
                std::vector<std::pair<const char*, St>>& out) {
  out.clear();
  auto add = [&out](const char* name, St ns) { out.emplace_back(name, ns); };

  // --- callee app: export / withdraw the service (once each).
  if (!bit(s, kSvcUsed) && has_s(cx, "handle_export_srv", "service_list",
                                 "insert")) {
    fire_s(cx, "handle_export_srv", "service_list", "insert");
    add("export", with_bit(with_bit(s, kSvc, true), kSvcUsed, true));
  }
  if (bit(s, kSvc) && !bit(s, kWdrawn) &&
      has_s(cx, "handle_withdraw_srv", "service_list", "erase")) {
    fire_s(cx, "handle_withdraw_srv", "service_list", "erase");
    add("withdraw", with_bit(with_bit(s, kSvc, false), kWdrawn, true));
  }

  // --- client app: initiate the one modeled call.
  if (!bit(s, kStarted) &&
      has_s(cx, "handle_connect_req", "outgoing_requests", "insert")) {
    fire_s(cx, "handle_connect_req", "outgoing_requests", "insert");
    St n = with_bit(with_bit(s, kStarted, true), kOOut, true);
    add("connect_req", send(n, mSETUP));
  }

  // --- SETUP delivery at the callee.
  if (msg(s, mSETUP) != 0) {
    St n = consume(s, mSETUP);
    if (!bit(s, kCInc) && !bit(s, kCVm)) {
      if (bit(s, kSvc) &&
          has_s(cx, "handle_peer_setup", "incoming_requests", "insert")) {
        fire_s(cx, "handle_peer_setup", "incoming_requests", "insert");
        add("setup_ok", with_bit(n, kCInc, true));
      }
      if (!bit(s, kSvc)) add("setup_no_svc", send(n, mREJECT));
    } else {
      add("setup_dup", n);  // idempotent: request already known
    }
  }

  // --- callee app decides; the watchdog converts silence into REJECT.
  if (bit(s, kCInc)) {
    if (!bit(s, kCDecided)) {
      add("accept", send(with_bit(s, kCDecided, true), mACCEPT));
      if (has_s(cx, "handle_reject_conn", "incoming_requests", "erase")) {
        fire_s(cx, "handle_reject_conn", "incoming_requests", "erase");
        St n = with_bit(s, kCInc, false);
        add("reject", send(n, mREJECT));
      }
    }
    // Watchdog / server death / transport failure: handle_peer_setup's
    // timer erases the entry and fails the call toward the originator.
    if (has_s(cx, "handle_peer_setup", "incoming_requests", "erase")) {
      fire_s(cx, "handle_peer_setup", "incoming_requests", "erase");
      St n = with_bit(with_bit(s, kCInc, false), kCDecided, false);
      add("callee_timeout", send(n, mREJECT));
    }
  }

  // --- ACCEPT delivery at the originator: establish_vc (or the network
  // refuses the VC: fail_outgoing + PEER_SETUP_FAILED).
  if (msg(s, mACCEPT) != 0) {
    St n = consume(s, mACCEPT);
    if (bit(s, kOOut)) {
      if (has_s(cx, "establish_vc", "outgoing_requests", "erase") &&
          has_s(cx, "establish_vc", "vci_mapping", "insert") &&
          has_s(cx, "load_wait_for_bind", "wait_for_bind", "insert")) {
        fire_s(cx, "establish_vc", "outgoing_requests", "erase");
        fire_s(cx, "establish_vc", "vci_mapping", "insert");
        fire_s(cx, "load_wait_for_bind", "wait_for_bind", "insert");
        St e = with_bit(n, kOOut, false);
        e = with_bit(e, kOVm, true);
        e = with_bit(e, kOWb, true);
        e = with_bit(e, kVc, true);
        add("accept_ok", send(e, mESTABLISHED));
      }
      if (has_s(cx, "fail_outgoing", "outgoing_requests", "erase")) {
        fire_s(cx, "fail_outgoing", "outgoing_requests", "erase");
        add("accept_net_fail",
            send(with_bit(n, kOOut, false), mSETUP_FAILED));
      }
    } else {
      add("accept_stale", n);  // request already failed; CANCEL is in flight
    }
  }

  // --- REJECT delivery at the originator.
  if (msg(s, mREJECT) != 0) {
    St n = consume(s, mREJECT);
    if (bit(s, kOOut)) {
      if (has_s(cx, "fail_outgoing", "outgoing_requests", "erase")) {
        fire_s(cx, "fail_outgoing", "outgoing_requests", "erase");
        add("reject_recv", with_bit(n, kOOut, false));
      }
    } else {
      add("reject_stale", n);
    }
  }

  // --- ESTABLISHED delivery at the callee: vci_mapping + wait_for_bind,
  // VCI_FOR_CONN released to the server app.
  if (msg(s, mESTABLISHED) != 0) {
    St n = consume(s, mESTABLISHED);
    if (bit(s, kCInc)) {
      if (has_s(cx, "handle_peer_established", "incoming_requests", "erase") &&
          has_s(cx, "handle_peer_established", "vci_mapping", "insert") &&
          has_s(cx, "load_wait_for_bind", "wait_for_bind", "insert")) {
        fire_s(cx, "handle_peer_established", "incoming_requests", "erase");
        fire_s(cx, "handle_peer_established", "vci_mapping", "insert");
        fire_s(cx, "load_wait_for_bind", "wait_for_bind", "insert");
        St e = with_bit(with_bit(n, kCInc, false), kCDecided, false);
        e = with_bit(e, kCVm, true);
        e = with_bit(e, kCWb, true);
        e = with_bit(e, kSrvVci, true);
        e = with_bit(e, kSrvVciStale, false);  // fresh VCI_FOR_CONN
        add("established_ok", e);
      }
    } else {
      add("established_stale", n);
    }
  }

  // --- SETUP_FAILED delivery at the callee.
  if (msg(s, mSETUP_FAILED) != 0) {
    St n = consume(s, mSETUP_FAILED);
    if (bit(s, kCInc)) {
      if (has_s(cx, "handle_peer_setup_failed", "incoming_requests",
                "erase")) {
        fire_s(cx, "handle_peer_setup_failed", "incoming_requests", "erase");
        add("setup_failed_recv",
            with_bit(with_bit(n, kCInc, false), kCDecided, false));
      }
    } else {
      add("setup_failed_stale", n);
    }
  }

  // --- server app binds its socket (kernel posts the bind indication).
  if (bit(s, kSrvVci) && kc(s) == CR && has_k(cx, "xunet_bind", "bound")) {
    fire_k(cx, "xunet_bind", CR, "bound");
    St n = post(with_kc(s, BD), iCBind);
    // A bind with a torn incarnation's credential will fail cookie auth.
    if (bit(s, kSrvVciStale)) n = with_bit(n, kCIndStale, true);
    add("server_bind", n);
  }

  // --- bind indication: delivered (confirm_endpoint) or lost (§10).
  if (ind(s, iCBind) != 0) {
    St n = take(s, iCBind);
    if (bit(s, kCVm) && bit(s, kCIndStale)) {
      // §7.1 cookie authentication: the indication predates the current
      // incarnation of the mapping — confirm_endpoint tears the call down.
      if (teardown(n, cx, /*orig=*/false, /*notify=*/true))
        add("bind_ind_auth_fail", n);
    } else if (bit(s, kCVm) && bit(s, kCWb)) {
      if (has_s(cx, "confirm_endpoint", "wait_for_bind", "erase")) {
        fire_s(cx, "confirm_endpoint", "wait_for_bind", "erase");
        St e = with_bit(with_bit(n, kCWb, false), kCConf, true);
        add("bind_confirm", send(e, mBOUND));
      }
    } else if (!bit(s, kCVm)) {
      // Stale indication: the call is gone; the sighost answers with a
      // downward disconnect so the socket is not left usable on a dead VCI.
      St e = n;
      if (kc(s) == BD && has_k(cx, "mark_vci_disconnected", "disconnected")) {
        fire_k(cx, "mark_vci_disconnected", BD, "disconnected");
        e = with_kc(e, DI);
      }
      add("bind_ind_stale", e);
    } else {
      add("bind_ind_dup", n);  // already confirmed
    }
    add("bind_ind_lost", n);  // anand buffer overflow (§10)
  }

  // --- BOUND delivery at the originator: VCI_FOR_CONN to the client.
  if (msg(s, mBOUND) != 0) {
    St n = consume(s, mBOUND);
    if (bit(s, kOVm)) {
      add("bound_recv",
          with_bit(with_bit(n, kCliVci, true), kCliVciStale, false));
    } else {
      add("bound_stale", n);
    }
  }

  // --- client app connects (kernel posts the connect indication).
  if (bit(s, kCliVci) && ko(s) == CR && has_k(cx, "xunet_connect",
                                              "connected")) {
    fire_k(cx, "xunet_connect", CR, "connected");
    St n = post(with_ko(s, CN), iOConn);
    if (bit(s, kCliVciStale)) n = with_bit(n, kOIndStale, true);
    add("client_connect", n);
  }

  // --- connect indication: delivered or lost.
  if (ind(s, iOConn) != 0) {
    St n = take(s, iOConn);
    if (bit(s, kOVm) && bit(s, kOIndStale)) {
      if (teardown(n, cx, /*orig=*/true, /*notify=*/true))
        add("conn_ind_auth_fail", n);
    } else if (bit(s, kOVm) && bit(s, kOWb)) {
      if (has_s(cx, "confirm_endpoint", "wait_for_bind", "erase")) {
        fire_s(cx, "confirm_endpoint", "wait_for_bind", "erase");
        add("conn_confirm", with_bit(with_bit(n, kOWb, false), kOConf, true));
      }
    } else if (!bit(s, kOVm)) {
      St e = n;
      if (ko(s) == CN && has_k(cx, "mark_vci_disconnected", "disconnected")) {
        fire_k(cx, "mark_vci_disconnected", CN, "disconnected");
        e = with_ko(e, DI);
      }
      add("conn_ind_stale", e);
    } else {
      add("conn_ind_dup", n);
    }
    add("conn_ind_lost", n);
  }

  // --- wait_for_bind watchdogs: unconfirmed endpoints tear down.
  if (bit(s, kOVm) && bit(s, kOWb)) {
    St n = s;
    if (teardown(n, cx, /*orig=*/true, /*notify=*/true))
      add("wb_timeout_O", n);
  }
  if (bit(s, kCVm) && bit(s, kCWb)) {
    St n = s;
    if (teardown(n, cx, /*orig=*/false, /*notify=*/true))
      add("wb_timeout_C", n);
  }

  // --- originator request watchdog / client abandoning the request.
  if (bit(s, kOOut)) {
    if (has_s(cx, "fail_outgoing", "outgoing_requests", "erase")) {
      fire_s(cx, "fail_outgoing", "outgoing_requests", "erase");
      add("req_timeout", send(with_bit(s, kOOut, false), mCANCEL));
    }
    if (has_s(cx, "on_app_conn_closed", "outgoing_requests", "erase")) {
      fire_s(cx, "on_app_conn_closed", "outgoing_requests", "erase");
      add("client_abandon", send(with_bit(s, kOOut, false), mCANCEL));
    }
  }

  // --- CANCEL delivery at the callee.
  if (msg(s, mCANCEL) != 0) {
    St n = consume(s, mCANCEL);
    if (bit(s, kCInc)) {
      if (has_s(cx, "handle_peer_cancel", "incoming_requests", "erase")) {
        fire_s(cx, "handle_peer_cancel", "incoming_requests", "erase");
        add("cancel_recv",
            with_bit(with_bit(n, kCInc, false), kCDecided, false));
      }
    } else if (bit(s, kCVm)) {
      if (teardown(n, cx, /*orig=*/false, /*notify=*/false))
        add("cancel_teardown", n);
    } else {
      add("cancel_stale", n);
    }
  }

  // --- TEARDOWN deliveries.
  if (msg(s, mTEARDOWN_OC) != 0) {
    St n = consume(s, mTEARDOWN_OC);
    if (bit(s, kCVm)) {
      if (teardown(n, cx, /*orig=*/false, /*notify=*/false))
        add("teardown_recv_C", n);
    } else if (bit(s, kCInc)) {
      if (has_s(cx, "handle_peer_teardown", "incoming_requests", "erase")) {
        fire_s(cx, "handle_peer_teardown", "incoming_requests", "erase");
        add("teardown_kills_inc",
            with_bit(with_bit(n, kCInc, false), kCDecided, false));
      }
    } else {
      add("teardown_stale_C", n);
    }
  }
  if (msg(s, mTEARDOWN_CO) != 0) {
    St n = consume(s, mTEARDOWN_CO);
    if (bit(s, kOVm)) {
      if (teardown(n, cx, /*orig=*/true, /*notify=*/false))
        add("teardown_recv_O", n);
    } else {
      add("teardown_stale_O", n);
    }
  }

  // --- app closes its socket; bound/connected closes post
  // process_terminated (durably — the kernel retries past a full buffer).
  if ((ko(s) == CN || ko(s) == DI) && has_k(cx, "close_xunet", "created")) {
    fire_k(cx, "close_xunet", ko(s), "created");
    St n = with_ko(s, CL);
    add("client_close", ko(s) == CN ? post(n, iOTerm) : n);
  }
  if ((kc(s) == BD || kc(s) == DI) && has_k(cx, "close_xunet", "created")) {
    fire_k(cx, "close_xunet", kc(s), "created");
    St n = with_kc(s, CL);
    add("server_close", kc(s) == BD ? post(n, iCTerm) : n);
  }

  // --- process_terminated deliveries (reliable; no lost variant).
  if (ind(s, iOTerm) != 0) {
    St n = take(s, iOTerm);
    if (bit(s, kOVm)) {
      if (teardown(n, cx, /*orig=*/true, /*notify=*/true))
        add("term_teardown_O", n);
    } else {
      add("term_stale_O", n);
    }
  }
  if (ind(s, iCTerm) != 0) {
    St n = take(s, iCTerm);
    if (bit(s, kCVm)) {
      if (teardown(n, cx, /*orig=*/false, /*notify=*/true))
        add("term_teardown_C", n);
    } else {
      add("term_stale_C", n);
    }
  }

  // --- lazy VCI reclamation: the network dropped the VC but the sighost
  // still maps it; establish_vc's reuse path tears the stale entry down.
  if (bit(s, kCVm) && !bit(s, kVc)) {
    St n = s;
    if (teardown(n, cx, /*orig=*/false, /*notify=*/true))
      add("vci_reuse_C", n);
  }
  if (bit(s, kOVm) && !bit(s, kVc)) {
    St n = s;
    if (teardown(n, cx, /*orig=*/true, /*notify=*/true))
      add("vci_reuse_O", n);
  }

  // --- sighost crash + recover, one atomic event per side, taken at
  // channel-quiescent states only (the chaos harness crashes between
  // deliveries too, but those interleavings only lose in-flight messages —
  // which the drop events already model).
  bool recover_ok = has_s(cx, "recover", "vci_mapping", "insert");
  if (bit(s, kStarted) && quiescent(s) && !bit(s, kOCrashed) &&
      (recover_ok || cx.sabotage)) {
    St n = with_bit(s, kOCrashed, true);
    n = with_bit(n, kOOut, false);
    n = with_bit(n, kOVm, false);
    n = with_bit(n, kOWb, false);
    n = with_bit(n, kOConf, false);
    if (bit(s, kOVm) && bit(s, kCliVci)) n = with_bit(n, kCliVciStale, true);
    if (!cx.sabotage) {
      bool sock_live = ko(s) == BD || ko(s) == CN;
      if (sock_live && bit(s, kVc)) {
        fire_s(cx, "recover", "vci_mapping", "insert");
        n = with_bit(with_bit(n, kOVm, true), kOConf, true);
        // The audit rebuilds the same incarnation from the kernel's cookie
        // bindings: the app's credential stays valid.
        n = with_bit(n, kCliVciStale, bit(s, kCliVciStale));
      } else if (sock_live && !bit(s, kVc) &&
                 has_k(cx, "mark_vci_disconnected", "disconnected")) {
        fire_k(cx, "mark_vci_disconnected", ko(s), "disconnected");
        n = with_ko(n, DI);  // audit: socket without a VC is an orphan
      } else if (!sock_live && bit(s, kVc)) {
        n = with_bit(n, kVc, false);  // audit: VC without a socket is torn
      }
      // Its PEER_RESYNC ends the callee's request from the old incarnation.
      if (bit(s, kCInc) &&
          has_s(cx, "handle_peer_resync", "incoming_requests", "erase")) {
        fire_s(cx, "handle_peer_resync", "incoming_requests", "erase");
        n = with_bit(with_bit(n, kCInc, false), kCDecided, false);
      }
    }
    add("crash_recover_O", n);
  }
  if (bit(s, kStarted) && quiescent(s) && !bit(s, kCCrashed) &&
      (recover_ok || cx.sabotage)) {
    St n = with_bit(s, kCCrashed, true);
    n = with_bit(n, kCInc, false);
    n = with_bit(n, kCDecided, false);
    n = with_bit(n, kCVm, false);
    n = with_bit(n, kCWb, false);
    n = with_bit(n, kCConf, false);
    if (bit(s, kCVm) && bit(s, kSrvVci)) n = with_bit(n, kSrvVciStale, true);
    if (!cx.sabotage) {
      bool sock_live = kc(s) == BD || kc(s) == CN;
      if (sock_live && bit(s, kVc)) {
        fire_s(cx, "recover", "vci_mapping", "insert");
        n = with_bit(with_bit(n, kCVm, true), kCConf, true);
        n = with_bit(n, kSrvVciStale, bit(s, kSrvVciStale));
      } else if (sock_live && !bit(s, kVc) &&
                 has_k(cx, "mark_vci_disconnected", "disconnected")) {
        fire_k(cx, "mark_vci_disconnected", kc(s), "disconnected");
        n = with_kc(n, DI);
      }
      // The VC handle lives at the originator; a callee crash never
      // releases it — vci_reuse / the originator's own audit do.
    }
    add("crash_recover_C", n);
  }

  // --- channel faults: drop and duplicate (reorder is inherent — any
  // pending kind may deliver first).
  static const char* kDropNames[kMsgKinds] = {
      "drop_SETUP",       "drop_CANCEL", "drop_SETUP_FAILED",
      "drop_TEARDOWN_OC", "drop_ACCEPT", "drop_REJECT",
      "drop_ESTABLISHED", "drop_BOUND",  "drop_TEARDOWN_CO"};
  static const char* kDupNames[kMsgKinds] = {
      "dup_SETUP",       "dup_CANCEL", "dup_SETUP_FAILED",
      "dup_TEARDOWN_OC", "dup_ACCEPT", "dup_REJECT",
      "dup_ESTABLISHED", "dup_BOUND",  "dup_TEARDOWN_CO"};
  for (unsigned m = 0; m < kMsgKinds; ++m) {
    unsigned v = msg(s, m);
    if (v >= 1) add(kDropNames[m], consume(s, m));
    if (v == 1) add(kDupNames[m], with_msg(s, m, 2));
  }
}

/// Accepted terminal: the call is resolved and every resource is released.
bool accepted_terminal(St s) {
  if (!quiescent(s)) return false;
  if (bit(s, kOOut) || bit(s, kOVm) || bit(s, kOWb) || bit(s, kCInc) ||
      bit(s, kCVm) || bit(s, kCWb)) {
    return false;
  }
  if (bit(s, kVc)) return false;  // leaked network VC
  Sock a = ko(s), b = kc(s);
  return (a == CR || a == CL) && (b == CR || b == CL);
}

/// §5.3 check: a CONFIRMED vci_mapping entry whose endpoint socket is not
/// bound/connected, at a channel-quiescent state.  (Unconfirmed entries are
/// transient and watchdog-guarded; sockets without entries are app-held
/// resources the kernel tracks — the claim's direction is sighost ⊆ kernel.)
bool divergent(St s) {
  if (!quiescent(s)) return false;
  if (bit(s, kOVm) && bit(s, kOConf) && !(ko(s) == BD || ko(s) == CN))
    return true;
  if (bit(s, kCVm) && bit(s, kCConf) && !(kc(s) == BD || kc(s) == CN))
    return true;
  return false;
}

}  // namespace

Result check(const std::vector<lint::Transition>& sighost_table,
             const std::vector<lint::MachineEdge>& kern_table,
             const Options& opt) {
  Result r;
  Ctx cx;
  cx.kern = &kern_table;
  cx.sabotage = opt.sabotage_recover;
  for (const lint::Transition& t : sighost_table) {
    cx.s_decl.emplace(t.fn + "|" + t.list + "|" + t.op, t.line);
  }
  r.sighost_declared = cx.s_decl.size();
  std::map<std::string, int> k_decl;  // "fn|to" -> first table line
  for (const lint::MachineEdge& e : kern_table) {
    k_decl.emplace(e.fn + "|" + e.to, e.line);
  }
  r.kern_declared = k_decl.size();

  // ---- breadth-first exploration from the empty initial state.  BFS
  // parents give shortest counterexample traces for the first example of
  // each finding kind.
  const St init = 0;
  std::unordered_map<St, std::pair<St, const char*>> seen;
  seen.emplace(init, std::make_pair(init, nullptr));
  std::deque<St> queue{init};
  std::vector<std::pair<const char*, St>> succ;
  std::vector<std::string> stuck_examples;
  std::vector<std::string> diverge_examples;
  auto trace = [&seen, init](St s) {
    std::vector<const char*> ev;
    while (s != init) {
      auto it = seen.find(s);
      ev.push_back(it->second.second);
      s = it->second.first;
    }
    std::string out;
    for (auto it = ev.rbegin(); it != ev.rend(); ++it) {
      if (!out.empty()) out += " -> ";
      out += *it;
    }
    return out;
  };
  bool truncated = false;
  while (!queue.empty()) {
    St s = queue.front();
    queue.pop_front();
    if (divergent(s) && diverge_examples.size() < opt.max_examples) {
      std::string d = decode(s);
      if (diverge_examples.empty()) d += "; trace: " + trace(s);
      diverge_examples.push_back(std::move(d));
    }
    successors(s, cx, succ);
    if (succ.empty()) {
      if (!accepted_terminal(s) &&
          stuck_examples.size() < opt.max_examples) {
        std::string d = decode(s);
        if (stuck_examples.empty()) d += "; trace: " + trace(s);
        stuck_examples.push_back(std::move(d));
      }
      continue;
    }
    r.edges += succ.size();
    for (const auto& [name, n] : succ) {
      if (seen.emplace(n, std::make_pair(s, name)).second) {
        if (seen.size() > opt.max_states) {
          truncated = true;
          break;
        }
        queue.push_back(n);
      }
    }
    if (truncated) break;
  }
  r.states = seen.size();

  // ---- findings, in a fixed order: config, divergence, stuck, badsource,
  // unreachable (sighost table order, then kernel table order).
  if (truncated) {
    r.findings.push_back(
        {"MODEL-CONFIG", "exploration exceeded max_states=" +
                             std::to_string(opt.max_states) +
                             "; results are not exhaustive"});
  }
  for (const std::string& d : diverge_examples) {
    r.findings.push_back(
        {"MODEL-DIVERGENCE",
         "confirmed vci_mapping entry with a dead endpoint socket: " + d});
  }
  for (const std::string& d : stuck_examples) {
    r.findings.push_back(
        {"MODEL-STUCK", "no outgoing transition and not an accepted "
                        "terminal: " + d});
  }
  for (const std::string& d : cx.badsource) {
    r.findings.push_back({"MODEL-BADSOURCE", d});
  }
  std::vector<std::pair<int, std::string>> unreached;
  for (const auto& [key, line] : cx.s_decl) {
    if (cx.s_reached.count(key) != 0) {
      ++r.sighost_reached;
      continue;
    }
    unreached.emplace_back(line, "sighost transition never fired: " + key +
                                     " (sighost table line " +
                                     std::to_string(line) + ")");
  }
  for (const auto& [key, line] : k_decl) {
    if (cx.k_reached.count(key) != 0) {
      ++r.kern_reached;
      continue;
    }
    unreached.emplace_back(line,
                           "kern_socket transition never fired: " + key +
                               " (kernel table line " +
                               std::to_string(line) + ")");
  }
  std::sort(unreached.begin(), unreached.end());
  for (auto& [line, d] : unreached) {
    (void)line;
    r.findings.push_back({"MODEL-UNREACHABLE", std::move(d)});
  }
  r.notes.push_back(
      "channel counters saturate at 2 per message kind (counter "
      "abstraction); reorder is inherent, drop/dup are explicit events");
  if (cx.sabotage) {
    r.notes.push_back("sabotage: recovery rebuilds nothing (self-test mode)");
  }
  return r;
}

std::string render_text(const Result& r) {
  std::ostringstream o;
  for (const Finding& f : r.findings) {
    o << "error: [" << f.kind << "] " << f.detail << "\n";
  }
  for (const std::string& n : r.notes) o << "note: " << n << "\n";
  o << "xunet_model: " << r.states << " states, " << r.edges
    << " transitions; sighost " << r.sighost_reached << "/"
    << r.sighost_declared << " reached, kern_socket " << r.kern_reached
    << "/" << r.kern_declared << " reached; " << r.findings.size()
    << " findings\n";
  return o.str();
}

std::string render_json(const Result& r) {
  std::string out;
  out += "{\n";
  out += "  \"schema\": \"xunet.model.v1\",\n";
  out += "  \"tool\": \"xunet_model\",\n";
  out += "  \"states\": " + std::to_string(r.states) + ",\n";
  out += "  \"edges\": " + std::to_string(r.edges) + ",\n";
  out += "  \"sighost_declared\": " + std::to_string(r.sighost_declared) +
         ",\n";
  out += "  \"sighost_reached\": " + std::to_string(r.sighost_reached) + ",\n";
  out += "  \"kern_declared\": " + std::to_string(r.kern_declared) + ",\n";
  out += "  \"kern_reached\": " + std::to_string(r.kern_reached) + ",\n";
  out += std::string("  \"ok\": ") + (r.ok() ? "true" : "false") + ",\n";
  out += "  \"findings\": [";
  bool first = true;
  for (const Finding& f : r.findings) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"kind\": \"";
    out += util::json_escape(f.kind);
    out += "\", \"detail\": \"";
    out += util::json_escape(f.detail);
    out += "\"}";
  }
  out += first ? "],\n" : "\n  ],\n";
  out += "  \"notes\": [";
  first = true;
  for (const std::string& n : r.notes) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    out += util::json_escape(n);
    out += "\"";
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

}  // namespace xunet::model

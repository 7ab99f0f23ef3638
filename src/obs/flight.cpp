#include "obs/flight.hpp"

#include <cstring>

#include "util/json.hpp"

namespace xunet::obs {
namespace {

// Truncating copy into a fixed field; always NUL-terminated.
template <std::size_t N>
void put(char (&dst)[N], std::string_view src) noexcept {
  std::size_t n = src.size() < N - 1 ? src.size() : N - 1;
  std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

}  // namespace

void FlightRecorder::set_capacity(std::size_t records) {
  capacity_ = records > 0 ? records : 1;
  ring_.clear();
  ring_.shrink_to_fit();
  total_ = 0;
}

void FlightRecorder::ensure_ring() {
  if (ring_.size() != capacity_) ring_.resize(capacity_);
}

void FlightRecorder::note(sim::SimTime ts, std::string_view component,
                          std::string_view name, std::string_view track,
                          std::string_view detail, std::int64_t vci) noexcept {
  if (!enabled_) return;
  ensure_ring();
  FlightRecord& r = ring_[static_cast<std::size_t>(total_ % capacity_)];
  r.ts = ts;
  r.seq = total_;
  r.vci = vci;
  put(r.component, component);
  put(r.name, name);
  put(r.track, track);
  put(r.detail, detail);
  ++total_;
}

std::vector<const FlightRecord*> FlightRecorder::chronological() const {
  std::vector<const FlightRecord*> out;
  std::size_t n = size();
  out.reserve(n);
  // Oldest retained record is total_ - n; the ring slot for seq s is
  // s % capacity_.
  for (std::uint64_t s = total_ - n; s < total_; ++s) {
    out.push_back(&ring_[static_cast<std::size_t>(s % capacity_)]);
  }
  return out;
}

std::string FlightRecorder::dump_jsonl(std::string_view reason) const {
  std::string out;
  std::size_t n = size();
  out.reserve(64 + n * 128);
  out += "{\"schema\":\"";
  out += kFlightSchema;
  out += "\",\"reason\":\"";
  out += util::json_escape(reason);
  out += "\",\"records\":";
  out += std::to_string(n);
  out += ",\"overwritten\":";
  out += std::to_string(total_ - n);
  out += "}\n";
  for (const FlightRecord* r : chronological()) {
    out += "{\"seq\":";
    out += std::to_string(r->seq);
    out += ",\"ts_ns\":";
    out += std::to_string(r->ts.ns());
    out += ",\"comp\":\"";
    out += util::json_escape(r->component);
    out += "\",\"name\":\"";
    out += util::json_escape(r->name);
    out += "\",\"track\":\"";
    out += util::json_escape(r->track);
    out += "\",\"detail\":\"";
    out += util::json_escape(r->detail);
    out += "\",\"vci\":";
    out += std::to_string(r->vci);
    out += "}\n";
  }
  return out;
}

void FlightRecorder::trigger(std::string_view reason) {
  ++triggers_;
  last_dump_ = dump_jsonl(reason);
}

void FlightRecorder::clear() noexcept {
  ring_.clear();
  ring_.shrink_to_fit();
  total_ = 0;
  triggers_ = 0;
  last_dump_.clear();
}

}  // namespace xunet::obs

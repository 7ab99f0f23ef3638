#include "obs/metrics.hpp"

#include <cstdio>

namespace xunet::obs {

namespace {
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}
}  // namespace

void MetricsRegistry::add_sync(const void* owner, std::function<void(Sync)> fn) {
  syncs_.emplace_back(owner, std::move(fn));
}

void MetricsRegistry::remove_sync(const void* owner) {
  std::erase_if(syncs_, [owner](const auto& s) { return s.first == owner; });
}

void MetricsRegistry::sync(Sync why) const {
  for (const auto& s : syncs_) s.second(why);
}

std::uint64_t MetricsRegistry::counter_value(const std::string& name) const {
  sync(Sync::read);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value();
}

std::int64_t MetricsRegistry::gauge_value(const std::string& name) const {
  sync(Sync::read);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second.value();
}

const util::Summary* MetricsRegistry::histogram_summary(
    const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.exact_summary();
}

const Histogram* MetricsRegistry::histogram_stats(
    const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

std::string MetricsRegistry::render_text() const {
  sync(Sync::read);
  std::string out;
  for (const auto& [name, c] : counters_) {
    out += name + " " + std::to_string(c.value()) + "\n";
  }
  for (const auto& [name, g] : gauges_) {
    out += name + " " + std::to_string(g.value()) + "\n";
  }
  for (const auto& [name, h] : histograms_) {
    out += name + " count=" + std::to_string(h.count());
    if (h.count() > 0) {
      out += " mean=" + fmt_double(h.mean()) + " p50=" +
             fmt_double(h.percentile(50)) + " p99=" +
             fmt_double(h.percentile(99)) + " max=" + fmt_double(h.max());
    }
    out += "\n";
  }
  return out;
}

void MetricsRegistry::reset() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

}  // namespace xunet::obs

// Fixture: DET-UNORD-ITER on ordered artifacts.  Loops over unordered
// containers that build ordered artifacts (streams, JSON lines, sequences)
// in hash order are flagged even though none reaches the event queue or the
// wire; the snapshot-then-sort idiom and pure aggregation stay clean.
// Expected findings: 3 (render's stream append, collect's push_back, the
// write_json_line loop).
#include "det_unord_strict.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

void write_json_line(const std::string& s);

std::string MetricsDump::render() const {
  std::ostringstream out;
  for (const auto& [name, v] : counters_) {  // strict finding: '<<'
    out << name << "=" << v << "\n";
  }
  return out.str();
}

void MetricsDump::collect(std::vector<std::uint64_t>& out) const {
  for (std::uint64_t v : live_) {  // strict finding: push_back, no sort
    out.push_back(v);
  }
}

void MetricsDump::collect_sorted(std::vector<std::uint64_t>& out) const {
  for (std::uint64_t v : live_) {  // clean: snapshot-then-sort
    out.push_back(v);
  }
  std::sort(out.begin(), out.end());
}

std::size_t MetricsDump::total() const {
  std::size_t n = 0;
  for (std::uint64_t v : live_) {  // clean: pure aggregation
    n += static_cast<std::size_t>(v);
  }
  return n;
}

void dump_all(const MetricsDump& m,
              const std::unordered_set<std::uint64_t>& ids_) {
  for (std::uint64_t id : ids_) {  // strict finding: JSON emitter
    write_json_line(std::to_string(id));
  }
  (void)m;
}

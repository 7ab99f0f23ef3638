#include "spans.hpp"

#include <time.h>

#include <chrono>
#include <cstdio>

namespace pathbench {

const char* span_label(SpanName n) noexcept {
  switch (n) {
    case SpanName::build: return "build";
    case SpanName::bring_up: return "bring_up";
    case SpanName::serve: return "serve";
    case SpanName::open: return "open";
    case SpanName::xunet_send: return "xunet_send";
    case SpanName::close_call: return "close_call";
    case SpanName::run_for: return "run_for";
    case SpanName::cb_opened: return "cb_opened";
    case SpanName::cb_frame: return "cb_frame";
    case SpanName::cb_send: return "cb_send";
    case SpanName::cb_issue: return "cb_issue";
    case SpanName::count_: break;
  }
  return "?";
}

std::int64_t wall_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t cpu_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void Tracer::begin(SpanName n) {
  Open o{n, -1, op_, wall_ns(), 0};
  if (records_.size() < cap_) {
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back().record;
    o.record = static_cast<std::int32_t>(records_.size());
    records_.push_back(Record{n, parent, op_, o.start_ns, 0});
  }
  stack_.push_back(o);
}

void Tracer::end() {
  const std::int64_t now = wall_ns();
  const Open o = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = now - o.start_ns;
  const auto i = static_cast<std::size_t>(o.name);
  totals_.self_ns[i] += dur - o.child_ns;
  totals_.total_ns[i] += dur;
  ++totals_.count[i];
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (o.record >= 0) records_[static_cast<std::size_t>(o.record)].end_ns = now;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t t0 = records_.empty() ? 0 : records_.front().start_ns;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"op\":%u}\n",
                 i, span_label(r.name), static_cast<long long>(r.start_ns - t0),
                 static_cast<long long>(r.end_ns - t0), r.parent, r.op);
  }
  return std::fclose(f) == 0;
}

Tracer& tracer() noexcept {
  static Tracer t;
  return t;
}

}  // namespace pathbench

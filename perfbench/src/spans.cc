#include "spans.h"

#include <time.h>

#include <cstdio>
#include <memory>

namespace perfbench {

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

HostSpan::HostSpan(SpanLog* log, const char* name, uint64_t parent,
                   uint32_t lane)
    : log_(log) {
  span_.id = log->NewId();
  span_.parent = parent;
  span_.name = name;
  span_.clock = SpanClock::kHost;
  span_.lane = lane;
  span_.start_ns = ThreadCpuNs();
}

int64_t HostSpan::End() {
  if (open_) {
    open_ = false;
    span_.end_ns = ThreadCpuNs();
    ns_ = span_.end_ns - span_.start_ns;
    log_->Add(span_);
  }
  return ns_;
}

bool SpanLog::WriteChromeJson(const std::string& path) const {
  std::unique_ptr<FILE, int (*)(FILE*)> f(std::fopen(path.c_str(), "w"),
                                          &std::fclose);
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f.get());
  bool first = true;
  for (const Span& s : spans_) {
    const bool sim = s.clock == SpanClock::kSim;
    std::fprintf(f.get(),
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu",
                 first ? "" : ",\n", s.name, sim ? 1 : 2, s.lane,
                 static_cast<double>(s.start_ns) / 1000.0,
                 static_cast<double>(s.end_ns - s.start_ns) / 1000.0,
                 static_cast<unsigned long long>(s.id));
    if (!sim) {
      std::fprintf(f.get(), ",\"parent\":%llu,\"arg\":%llu",
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.arg));
    }
    std::fputs("}}", f.get());
    first = false;
  }
  std::fputs("\n]}\n", f.get());
  return std::ferror(f.get()) == 0;
}

std::map<std::string, HostTotal> HostTotals(const std::vector<Span>& spans) {
  std::map<std::string, HostTotal> out;
  for (const Span& s : spans) {
    if (s.clock != SpanClock::kHost) continue;
    HostTotal& t = out[s.name];
    t.ns += s.end_ns - s.start_ns;
    t.arg += s.arg;
    t.count++;
  }
  return out;
}

void AddOpSpans(const std::vector<Span>& spans, int64_t begin, int64_t end,
                WindowStats* w) {
  for (const Span& s : spans) {
    if (s.clock != SpanClock::kSim || s.end_ns < begin || s.end_ns >= end) {
      continue;
    }
    const size_t k = static_cast<size_t>(s.arg);
    if (k >= w->ops.size()) continue;
    w->ops[k]++;
    w->latency_ns[k].Add(static_cast<uint64_t>(s.end_ns - s.start_ns));
  }
}

}  // namespace perfbench

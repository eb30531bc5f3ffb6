// The benchmark's own trace: spans recorded from outside the program,
// around the calls into each layer, kept in memory and written as one
// chrome://tracing JSON file when the run ends.
//
// Two clocks: op spans carry simulated nanoseconds (one span per client
// op; the span id is the op's id), host spans carry the thread's CPU
// nanoseconds (system construction, bulk load, generator construction,
// WorkloadGenerator::Next batches, Simulator::Run).
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "layer_metrics.h"

namespace perfbench {

enum class SpanClock : uint8_t { kSim, kHost };

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;        // 0 = root
  const char* name = "";      // static string
  SpanClock clock = SpanClock::kHost;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t lane = 0;          // client index for op and Next() spans
  uint64_t arg = 0;           // op spans: OpKind; Next() spans: ops drawn
};

// Host CPU time of the calling thread, in nanoseconds.
int64_t ThreadCpuNs();

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  uint64_t NewId() { return next_id_++; }
  void Add(const Span& s) {
    if (enabled_) spans_.push_back(s);
  }
  const std::vector<Span>& spans() const { return spans_; }

  // chrome://tracing "traceEvents" JSON: simulated spans under pid 1
  // (the span name is the op kind), host CPU spans under pid 2; "tid" is
  // the client lane, "args" holds the span id and, for host spans, the
  // parent id and arg.
  bool WriteChromeJson(const std::string& path) const;

 private:
  bool enabled_;
  uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

// Times one host-side phase on the thread CPU clock. The duration is
// always measured (set-up metrics need it untraced too); the span is
// recorded only when the log is enabled.
class HostSpan {
 public:
  HostSpan(SpanLog* log, const char* name, uint64_t parent = 0,
           uint32_t lane = 0);
  ~HostSpan() { End(); }
  HostSpan(const HostSpan&) = delete;
  HostSpan& operator=(const HostSpan&) = delete;

  uint64_t id() const { return span_.id; }
  void set_arg(uint64_t arg) { span_.arg = arg; }
  // Closes the span (idempotent) and returns its duration in ns.
  int64_t End();
  double seconds() const { return static_cast<double>(ns_) / 1e9; }

 private:
  SpanLog* log_;
  Span span_;
  bool open_ = true;
  int64_t ns_ = 0;
};

// Host span totals by name: summed duration and summed arg.
struct HostTotal {
  int64_t ns = 0;
  uint64_t arg = 0;
  uint64_t count = 0;
};
std::map<std::string, HostTotal> HostTotals(const std::vector<Span>& spans);

// Folds the op spans that ended inside [begin, end) simulated ns into
// w->latency_ns and w->ops.
void AddOpSpans(const std::vector<Span>& spans, int64_t begin, int64_t end,
                WindowStats* w);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_

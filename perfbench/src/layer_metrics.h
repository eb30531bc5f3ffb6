// Metric arithmetic of the repository benchmark: per-op-kind window
// aggregates, percentiles, zero-safe per-op ratios, the host-cost
// normalisation, and the per-layer table (`<module>.<metric>` names after
// the src/ modules) built from registry deltas and the benchmark's spans.
#ifndef PERFBENCH_LAYER_METRICS_H_
#define PERFBENCH_LAYER_METRICS_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/histogram.h"

namespace perfbench {

// The four client op kinds the benchmark sends through TreeClient.
enum class OpKind : uint8_t { kGet = 0, kPut = 1, kScan = 2, kDel = 3 };
inline constexpr int kNumOpKinds = 4;
const char* OpKindName(OpKind k);  // "get", "put", "scan", "del"

// Exact simulated latencies (ns) of one op kind. Percentiles come from the
// samples themselves rather than from a bucketed Histogram: a histogram
// percentile is truncated to whole ns inside a bucket an eighth of a power
// of two wide, which flattens a tail that moves by a fraction of a bucket.
class Samples {
 public:
  void Add(uint64_t ns) {
    v_.push_back(ns);
    sum_ += ns;
  }
  void Merge(const Samples& o) {
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
    sum_ += o.sum_;
  }
  double MeanUs() const;
  // Percentile p in [0, 100], in microseconds, linearly interpolated
  // between the two nearest order statistics; 0 when empty.
  double PercentileUs(double p) const;

 private:
  std::vector<uint64_t> v_;
  uint64_t sum_ = 0;
};

// Simulated-clock aggregates of the ops that completed inside the
// measurement window.
struct WindowStats {
  std::array<Samples, kNumOpKinds> latency_ns;
  std::array<uint64_t, kNumOpKinds> ops{};
  uint64_t fresh_puts = 0;        // first put to a key that was not loaded
  uint64_t get_not_found = 0;     // GETs answered NotFound
  uint64_t get_read_retries = 0;  // OpStats::read_retries summed over GETs
  uint64_t put_bytes_written = 0; // OpStats::bytes_written summed over puts
  sherman::Histogram write_round_trips;  // OpStats::round_trips per put/del

  void Merge(const WindowStats& o);
  uint64_t total() const;
  uint64_t writes() const;  // puts + deletes
  const Samples& latency(OpKind k) const {
    return latency_ns[static_cast<int>(k)];
  }
  uint64_t count(OpKind k) const { return ops[static_cast<int>(k)]; }
};

// num / den, or 0 when den is 0 (a per-op ratio of an op kind or layer the
// workload never exercises, e.g. vlog.* on a fixed-layout tree).
double Ratio(double num, double den);

// Host microseconds per simulated op: host CPU nanoseconds spent inside
// Simulator::Run divided by every op that run completed (warmup, window
// and drain), so a change that simulates more ops in the same window does
// not read as a host-time regression.
double HostUsPerOp(uint64_t run_host_ns, uint64_t ops_completed);

// Median of `v` (mean of the middle two for an even count); 0 if empty.
double Median(std::vector<double> v);

// Everything the per-layer table is computed from, for one measured pass.
struct LayerInputs {
  WindowStats window;
  sherman::obs::MetricsSnapshot counters;  // registry delta over the window
  double allocated_bytes = 0;  // alloc.allocated_bytes after the drain
  uint64_t sim_events = 0;     // Simulator::steps() over the whole run
  uint64_t ops_completed = 0;  // warmup + window + drain
  uint64_t run_host_ns = 0;    // host CPU inside Simulator::Run
  uint64_t next_host_ns = 0;   // host CPU inside WorkloadGenerator::Next
  uint64_t next_ops = 0;       // ops drawn by those Next() calls
  double system_s = 0;         // ShermanSystem construction
  double load_s = 0;           // BulkLoad / BulkLoadVar
  double workload_init_s = 0;  // WorkloadGenerator construction
  double trace_overhead = 0;   // traced / untraced host_us_per_op - 1
  // HostSpeed::Factor() of the pass: the host times above are measured CPU
  // times, and the table reports them times this factor.
  double host_factor = 1;
};

// The per-layer table, keyed by metric name, in the order of
// PerLayerNames().
std::map<std::string, double> PerLayerTable(const LayerInputs& in);

// Every per-layer metric name with its unit, in report order.
const std::vector<std::pair<std::string, std::string>>& PerLayerNames();

}  // namespace perfbench

#endif  // PERFBENCH_LAYER_METRICS_H_

#include "layer_metrics.h"

#include <algorithm>

namespace perfbench {

const char* OpKindName(OpKind k) {
  switch (k) {
    case OpKind::kGet: return "get";
    case OpKind::kPut: return "put";
    case OpKind::kScan: return "scan";
    case OpKind::kDel: return "del";
  }
  return "op";
}

void WindowStats::Merge(const WindowStats& o) {
  for (int k = 0; k < kNumOpKinds; k++) {
    latency_ns[k].Merge(o.latency_ns[k]);
    ops[k] += o.ops[k];
  }
  fresh_puts += o.fresh_puts;
  get_not_found += o.get_not_found;
  get_read_retries += o.get_read_retries;
  put_bytes_written += o.put_bytes_written;
  write_round_trips.Merge(o.write_round_trips);
}

uint64_t WindowStats::total() const {
  uint64_t n = 0;
  for (uint64_t c : ops) n += c;
  return n;
}

uint64_t WindowStats::writes() const {
  return count(OpKind::kPut) + count(OpKind::kDel);
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double Samples::MeanUs() const {
  return Ratio(static_cast<double>(sum_) / 1000.0,
               static_cast<double>(v_.size()));
}

double Samples::PercentileUs(double p) const {
  if (v_.empty()) return 0.0;
  std::vector<uint64_t> v = v_;
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(lo),
                   v.end());
  const double a = static_cast<double>(v[lo]);
  double b = a;
  if (lo + 1 < v.size()) {
    b = static_cast<double>(*std::min_element(
        v.begin() + static_cast<std::ptrdiff_t>(lo) + 1, v.end()));
  }
  return (a + (b - a) * (rank - static_cast<double>(lo))) / 1000.0;
}

double HostUsPerOp(uint64_t run_host_ns, uint64_t ops_completed) {
  return Ratio(static_cast<double>(run_host_ns) / 1000.0,
               static_cast<double>(ops_completed));
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerNames() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      {"sim.events_per_op", "count"},
      {"sim.host_ns_per_event", "ns"},
      {"rdma.reads_per_get", "count"},
      {"rdma.read_bytes_per_op", "B"},
      {"rdma.writes_per_op", "count"},
      {"rdma.write_bytes_per_op", "B"},
      {"rdma.atomics_per_op", "count"},
      {"rdma.round_trips_per_write", "count"},
      {"rdma.round_trips_per_write_p99", "count"},
      {"nic.cs.rx_stall_us_per_op", "us"},
      {"nic.ms.atomic_stall_us_per_op", "us"},
      {"lock.cas_per_write", "count"},
      {"lock.cas_success_ratio", "ratio"},
      {"lock.handovers_per_write", "count"},
      {"lock.lease_steals", "count"},
      {"cache.hit_ratio", "ratio"},
      {"cache.evictions_per_op", "count"},
      {"cache.invalidations_per_op", "count"},
      {"core.read_retries_per_get", "count"},
      {"core.write_bytes_per_put", "B"},
      {"core.get_p50_us", "us"},
      {"core.get_p99_us", "us"},
      {"core.put_p50_us", "us"},
      {"core.scan_p50_us", "us"},
      {"core.scan_p99_us", "us"},
      {"core.del_p50_us", "us"},
      {"core.del_p99_us", "us"},
      {"vlog.appends_per_put", "count"},
      {"vlog.append_bytes_per_put", "B"},
      {"vlog.reads_per_get", "count"},
      {"vlog.gc_relocated", "count"},
      {"vlog.gc_passes", "count"},
      {"alloc.allocated_mb", "MB"},
      {"workload.init_s", "s"},
      {"workload.host_ns_per_op", "ns"},
      {"workload.get_share", "ratio"},
      {"workload.put_share", "ratio"},
      {"workload.scan_share", "ratio"},
      {"workload.del_share", "ratio"},
      {"workload.fresh_put_share", "ratio"},
      {"workload.get_notfound_share", "ratio"},
      {"setup.system_s", "s"},
      {"setup.load_s", "s"},
      {"obs.trace_overhead", "ratio"},
  };
  return kNames;
}

std::map<std::string, double> PerLayerTable(const LayerInputs& in) {
  const WindowStats& w = in.window;
  const sherman::obs::MetricsSnapshot& c = in.counters;
  auto ctr = [&c](const char* name) {
    return static_cast<double>(c.counter(name));
  };
  const double ops = static_cast<double>(w.total());
  const double gets = static_cast<double>(w.count(OpKind::kGet));
  const double puts = static_cast<double>(w.count(OpKind::kPut));
  const double writes = static_cast<double>(w.writes());

  std::map<std::string, double> t;
  t["sim.events_per_op"] = Ratio(static_cast<double>(in.sim_events),
                                 static_cast<double>(in.ops_completed));
  const double f = in.host_factor;
  t["sim.host_ns_per_event"] = Ratio(static_cast<double>(in.run_host_ns) * f,
                                     static_cast<double>(in.sim_events));

  t["rdma.reads_per_get"] = Ratio(ctr("rdma.reads"), gets);
  t["rdma.read_bytes_per_op"] = Ratio(ctr("rdma.read_bytes"), ops);
  t["rdma.writes_per_op"] = Ratio(ctr("rdma.writes"), ops);
  t["rdma.write_bytes_per_op"] = Ratio(ctr("rdma.write_bytes"), ops);
  t["rdma.atomics_per_op"] = Ratio(ctr("rdma.atomics"), ops);
  t["rdma.round_trips_per_write"] = w.write_round_trips.Mean();
  t["rdma.round_trips_per_write_p99"] =
      w.write_round_trips.count() == 0
          ? 0.0
          : static_cast<double>(w.write_round_trips.P99());
  t["nic.cs.rx_stall_us_per_op"] =
      Ratio(ctr("nic.cs.rx_stall_ns") / 1000.0, ops);
  t["nic.ms.atomic_stall_us_per_op"] =
      Ratio(ctr("nic.ms.atomic_stall_ns") / 1000.0, ops);

  const double cas = ctr("lock.cas_attempts");
  t["lock.cas_per_write"] = Ratio(cas, writes);
  t["lock.cas_success_ratio"] = Ratio(cas - ctr("lock.cas_failures"), cas);
  t["lock.handovers_per_write"] = Ratio(ctr("lock.handovers"), writes);
  t["lock.lease_steals"] = ctr("lock.lease_steals");

  const double hits = ctr("cache.l1_hits");
  t["cache.hit_ratio"] = Ratio(hits, hits + ctr("cache.l1_misses"));
  t["cache.evictions_per_op"] = Ratio(ctr("cache.evictions"), ops);
  t["cache.invalidations_per_op"] = Ratio(ctr("cache.invalidations"), ops);

  t["core.read_retries_per_get"] =
      Ratio(static_cast<double>(w.get_read_retries), gets);
  t["core.write_bytes_per_put"] =
      Ratio(static_cast<double>(w.put_bytes_written), puts);
  t["core.get_p50_us"] = w.latency(OpKind::kGet).PercentileUs(50);
  t["core.get_p99_us"] = w.latency(OpKind::kGet).PercentileUs(99);
  t["core.put_p50_us"] = w.latency(OpKind::kPut).PercentileUs(50);
  t["core.scan_p50_us"] = w.latency(OpKind::kScan).PercentileUs(50);
  t["core.scan_p99_us"] = w.latency(OpKind::kScan).PercentileUs(99);
  t["core.del_p50_us"] = w.latency(OpKind::kDel).PercentileUs(50);
  t["core.del_p99_us"] = w.latency(OpKind::kDel).PercentileUs(99);

  t["vlog.appends_per_put"] = Ratio(ctr("vlog.appends"), puts);
  t["vlog.append_bytes_per_put"] = Ratio(ctr("vlog.append_bytes"), puts);
  t["vlog.reads_per_get"] = Ratio(ctr("vlog.reads"), gets);
  t["vlog.gc_relocated"] = ctr("vlog.gc_relocated");
  t["vlog.gc_passes"] = ctr("vlog.gc_passes");

  t["alloc.allocated_mb"] = in.allocated_bytes / (1024.0 * 1024.0);

  t["workload.init_s"] = in.workload_init_s * f;
  t["workload.host_ns_per_op"] = Ratio(static_cast<double>(in.next_host_ns) * f,
                                       static_cast<double>(in.next_ops));
  t["workload.get_share"] = Ratio(gets, ops);
  t["workload.put_share"] = Ratio(puts, ops);
  t["workload.scan_share"] =
      Ratio(static_cast<double>(w.count(OpKind::kScan)), ops);
  t["workload.del_share"] =
      Ratio(static_cast<double>(w.count(OpKind::kDel)), ops);
  t["workload.fresh_put_share"] =
      Ratio(static_cast<double>(w.fresh_puts), puts);
  t["workload.get_notfound_share"] =
      Ratio(static_cast<double>(w.get_not_found), gets);

  t["setup.system_s"] = in.system_s * f;
  t["setup.load_s"] = in.load_s * f;
  t["obs.trace_overhead"] = in.trace_overhead;
  return t;
}

}  // namespace perfbench

// shermanbench: the repository benchmark's runner.
//
//   shermanbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--out-dir DIR] [--digest FILE]
//
// Builds one workload's system through the public API (ShermanSystem,
// BulkLoad/BulkLoadVar, WorkloadGenerator, TreeClient ops, Simulator),
// drives it closed-loop with 8 CS x 22 client coroutines (the paper's 176
// clients, §5.1.3), checks every answer against what the benchmark itself
// sent, checks the drained tree, and prints its metrics. The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
//
// --trace 0 reports the end-to-end metrics: simulated throughput and
// GET/PUT latency, set-up time, host CPU per simulated op and peak RSS. It
// runs the workload's number of passes, each on a fresh system
// with its own workload seed derived from --seed and an equal share of the
// window, and pools them; setup_s is the median set-up. The program's
// tracer and DMSan are off.
// --trace 1 runs the workload twice on fresh systems, untraced then
// traced (the program's tracer on, the benchmark's spans recorded),
// writes the spans and the per-layer table under --out-dir, and reports
// the per-layer metrics aggregated from them, including the tracing
// overhead between the two passes.
//
// --seconds sets the simulated measurement window through a per-workload
// rate (simulated ns per requested host second), so the simulated outputs
// depend only on (workload, seed, seconds) and stay deterministic.
// --digest writes every simulated metric and window counter of a --trace
// 0 run, for byte-for-byte determinism checks.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench/runner.h"
#include "checks.h"
#include "core/btree.h"
#include "core/presets.h"
#include "host_speed.h"
#include "layer_metrics.h"
#include "obs/trace.h"
#include "spans.h"
#include "workload/workload.h"

namespace {

using perfbench::HostSpan;
using perfbench::HostSpeed;
using perfbench::LayerInputs;
using perfbench::OpKind;
using perfbench::Oracle;
using perfbench::Span;
using perfbench::SpanClock;
using perfbench::SpanLog;
using perfbench::WindowStats;
using sherman::Key;
using sherman::Op;
using sherman::OpStats;
using sherman::OpType;
using sherman::ShermanSystem;
using sherman::Status;
using sherman::TreeClient;
using sherman::WorkloadGenerator;
using sherman::WorkloadOptions;
namespace sim = sherman::sim;

constexpr int kNumCs = 8;
constexpr int kThreadsPerCs = 22;
constexpr int kClients = kNumCs * kThreadsPerCs;
constexpr sim::SimTime kWarmupNs = 2'000'000;
constexpr sim::SimTime kGcIntervalNs = 1'000'000;
// Simulator::RunUntil slice between host-speed checks, and the host CPU
// time between two host-speed samples.
constexpr sim::SimTime kRunSliceNs = 100'000;
constexpr int64_t kSampleEveryNs = 20'000'000;
// Ops each client draws per WorkloadGenerator::Next() batch (one host
// span per batch keeps the timing cost off the per-op path).
constexpr int kNextBatch = 64;
constexpr double kBulkFill = 0.8;

struct Spec {
  std::string name;
  uint64_t keys = 0;
  WorkloadOptions wl;
  sherman::TreeOptions tree;
  bool gc = false;  // one VlogGcOnce coroutine per CS
  uint64_t ms_memory_bytes = 64ull << 20;  // simulated DRAM per MS
  // Passes (each with its own set-up) per end-to-end run.
  int passes = 3;
  // Simulated measurement window per requested host second.
  sim::SimTime window_ns_per_second = 0;
};

bool MakeSpec(const std::string& name, Spec* s) {
  s->name = name;
  s->tree = sherman::ShermanOptions();
  if (name == "skew-write") {
    // The paper's write-intensive mix under YCSB skew; the index fits the
    // default 4 MB cache.
    s->keys = 1'000'000;
    s->wl.mix = sherman::WorkloadMix::WriteIntensive();
    s->wl.zipf_theta = 0.99;
    s->window_ns_per_second = 12'000'000;
  } else if (name == "uniform-read-cold") {
    // Read-intensive and uniform, with the cache cut to about a quarter of
    // the level-1 nodes so most GETs traverse.
    s->keys = 1'000'000;
    s->wl.mix = sherman::WorkloadMix::ReadIntensive();
    s->tree.cache_bytes = 128 << 10;
    s->passes = 5;  // its host cost is the noisiest of the three
    s->window_ns_per_second = 2'800'000;
  } else if (name == "varlen-mixed") {
    // Slotted-page leaves and the value log: string keys of 16-40 B,
    // values of 16 B-4 KB on the geometric ladder, scans and deletes
    // beside point ops.
    s->keys = 500'000;
    SHERMAN_CHECK(sherman::ParseMix("ycsb-string", &s->wl));
    s->wl.mix = {/*insert=*/0.40, /*lookup=*/0.30, /*range=*/0.15,
                 /*del=*/0.15};
    s->tree.shape.varlen = true;
    s->tree.two_level_versions = false;  // varlen needs sorted leaves
    s->gc = true;
    // Value-log segments come out of 8 MB chunks per client and MS.
    s->ms_memory_bytes = 128ull << 20;
    // Its put tail hangs on vlog GC bursts, which hit some passes hard.
    s->passes = 5;
    s->window_ns_per_second = 1'400'000;
  } else {
    return false;
  }
  s->wl.loaded_keys = s->keys;
  return true;
}

bool Varlen(const Spec& s) { return s.tree.shape.varlen; }

// The library's default fabric (8 MS x 8 CS) with the workload's memory.
sherman::rdma::FabricConfig FabricCfg(const Spec& spec) {
  sherman::rdma::FabricConfig f;
  f.num_memory_servers = 8;
  f.num_compute_servers = kNumCs;
  f.ms_memory_bytes = spec.ms_memory_bytes;
  return f;
}

// --- inputs ------------------------------------------------------------------

// Bulk-load value of a varlen key: 8 inline bytes derived from the key.
std::string VarLoadValue(const std::string& key) {
  std::string v(1, 'L');
  v.append(key, 0, 7);
  return v;
}

uint64_t FixedLoadValue(Key k) { return k * 31 + 7; }  // bench::MakeLoadKvs

// Loaded keys are the even keys 2..2N (WorkloadGenerator::LoadedKeyFor).
bool LoadedKey(uint64_t key, uint64_t n) {
  return key % 2 == 0 && key >= 2 && key <= 2 * n;
}

struct LoadSet {
  std::vector<std::pair<Key, uint64_t>> fixed;
  std::vector<std::pair<std::string, std::string>> var;  // sorted by key

  bool VarLoaded(const std::string& key) const {
    auto it = std::lower_bound(
        var.begin(), var.end(), key,
        [](const auto& kv, const std::string& k) { return kv.first < k; });
    return it != var.end() && it->first == key;
  }
};

LoadSet MakeLoadSet(const Spec& spec) {
  LoadSet load;
  if (!Varlen(spec)) {
    load.fixed = sherman::bench::MakeLoadKvs(spec.keys);
    return load;
  }
  load.var.reserve(spec.keys);
  for (uint64_t rank = 0; rank < spec.keys; rank++) {
    std::string k = WorkloadGenerator::StringKeyFor(
        WorkloadGenerator::LoadedKeyFor(rank), spec.wl.string_key_min,
        spec.wl.string_key_max);
    std::string v = VarLoadValue(k);
    load.var.emplace_back(std::move(k), std::move(v));
  }
  std::sort(load.var.begin(), load.var.end());
  load.var.erase(std::unique(load.var.begin(), load.var.end(),
                             [](const auto& a, const auto& b) {
                               return a.first == b.first;
                             }),
                 load.var.end());
  return load;
}

// --- set-up ------------------------------------------------------------------

struct Setup {
  std::unique_ptr<ShermanSystem> system;
  std::vector<WorkloadGenerator> gens;  // one per client, lane order
  double system_s = 0;
  double load_s = 0;
  double init_s = 0;
  double total_s() const { return system_s + load_s + init_s; }
};

// System construction + bulk load + generator construction: everything
// before the first op.
std::unique_ptr<Setup> BuildSetup(const Spec& spec, const LoadSet& load,
                                  uint64_t seed, SpanLog* spans) {
  auto s = std::make_unique<Setup>();
  HostSpan root(spans, "setup");
  {
    HostSpan h(spans, "setup.system", root.id());
    s->system = std::make_unique<ShermanSystem>(FabricCfg(spec), spec.tree);
    h.End();
    s->system_s = h.seconds();
  }
  s->system->tracer().set_enabled(false);
  {
    HostSpan h(spans, "setup.load", root.id());
    if (Varlen(spec)) {
      s->system->BulkLoadVar(load.var, kBulkFill);
    } else {
      s->system->BulkLoad(load.fixed, kBulkFill);
    }
    h.End();
    s->load_s = h.seconds();
  }
  {
    HostSpan h(spans, "workload.init", root.id());
    s->gens.reserve(kClients);
    for (int cs = 0; cs < kNumCs; cs++) {
      for (int t = 0; t < kThreadsPerCs; t++) {
        s->gens.emplace_back(spec.wl, sherman::bench::ClientSeed(seed, cs, t));
      }
    }
    h.End();
    s->init_s = h.seconds();
  }
  return s;
}

// BuildSetup with a host-speed sample on either side.
std::unique_ptr<Setup> CalibratedSetup(const Spec& spec, const LoadSet& load,
                                       uint64_t seed, SpanLog* spans,
                                       HostSpeed* speed) {
  speed->Sample();
  auto s = BuildSetup(spec, load, seed, spans);
  speed->Sample();
  return s;
}

// --- one measured pass -------------------------------------------------------

struct RunCtx {
  const Spec* spec = nullptr;
  const LoadSet* load = nullptr;
  sim::Simulator* sim = nullptr;
  sherman::obs::Tracer* tracer = nullptr;  // null = program tracing off
  SpanLog* spans = nullptr;
  uint64_t run_span = 0;
  Oracle oracle;
  sim::SimTime window_begin = 0;
  sim::SimTime window_end = 0;
  bool stop = false;
  int live = 0;

  WindowStats window;
  uint64_t completed = 0;
  uint64_t attempted = 0;
  uint64_t failed_status = 0;
  uint64_t failed_check = 0;
  int64_t next_host_ns = 0;
  uint64_t next_ops = 0;

  void FailStatus(const Status& st, const char* what) {
    if (failed_status++ < 4) {
      std::fprintf(stderr, "op failed: %s: %s\n", what, st.ToString().c_str());
    }
  }
  void FailCheck(const char* what) {
    if (failed_check++ < 4) std::fprintf(stderr, "bad output: %s\n", what);
  }
};

struct OpOutcome {
  OpKind kind = OpKind::kGet;
  bool fresh = false;      // first put to a key that was not loaded
  bool not_found = false;  // GET answered NotFound
};

OpKind KindOf(OpType t) {
  switch (t) {
    case OpType::kInsert: return OpKind::kPut;
    case OpType::kLookup: return OpKind::kGet;
    case OpType::kRangeQuery: return OpKind::kScan;
    case OpType::kDelete: return OpKind::kDel;
  }
  return OpKind::kGet;
}

sim::Task<OpOutcome> FixedOp(TreeClient* client, const Op* op, OpStats* stats,
                             RunCtx* ctx,
                             std::vector<std::pair<Key, uint64_t>>* out) {
  OpOutcome r;
  r.kind = KindOf(op->type);
  const uint64_t n = ctx->spec->keys;
  const bool loaded = LoadedKey(op->key, n);
  Oracle& oracle = ctx->oracle;
  switch (op->type) {
    case OpType::kInsert: {
      r.fresh = oracle.RecordPut(op->key, op->value, loaded);
      Status st = co_await client->Insert(op->key, op->value, stats);
      if (st.ok()) {
        oracle.RecordPutDone(op->key);
      } else {
        ctx->FailStatus(st, "insert");
      }
      break;
    }
    case OpType::kLookup: {
      const bool must = oracle.MustExist(op->key, loaded);
      uint64_t v = 0;
      Status st = co_await client->Lookup(op->key, &v, stats);
      if (st.ok()) {
        if (!oracle.ValidValue(op->key, loaded, FixedLoadValue(op->key), v)) {
          ctx->FailCheck("lookup returned a value never written to its key");
        }
      } else if (st.IsNotFound()) {
        r.not_found = true;
        if (must && oracle.MustExist(op->key, loaded)) {
          ctx->FailCheck("lookup returned NotFound for a present key");
        }
      } else {
        ctx->FailStatus(st, "lookup");
      }
      break;
    }
    case OpType::kRangeQuery: {
      out->clear();
      Status st = co_await client->RangeQuery(op->key, op->range_size, out,
                                              stats);
      if (!st.ok()) {
        ctx->FailStatus(st, "range query");
      } else if (perfbench::CheckScan(
                     op->key, op->range_size, *out,
                     [&oracle, n](Key k, uint64_t v) {
                       return oracle.ValidValue(k, LoadedKey(k, n),
                                                FixedLoadValue(k), v);
                     }) != 0) {
        ctx->FailCheck("range query out of order or with an invalid pair");
      }
      break;
    }
    case OpType::kDelete: {
      oracle.RecordDelete(op->key);
      Status st = co_await client->Delete(op->key, stats);
      if (!st.ok() && !st.IsNotFound()) ctx->FailStatus(st, "delete");
      break;
    }
  }
  co_return r;
}

sim::Task<OpOutcome> VarOp(TreeClient* client, const Op* op, OpStats* stats,
                           RunCtx* ctx,
                           std::vector<std::pair<std::string, std::string>>* out) {
  OpOutcome r;
  r.kind = KindOf(op->type);
  const bool loaded = LoadedKey(op->key, ctx->spec->keys);
  const uint64_t key_id = perfbench::BytesId(op->skey);
  Oracle& oracle = ctx->oracle;
  switch (op->type) {
    case OpType::kInsert: {
      r.fresh = oracle.RecordPut(key_id, perfbench::BytesId(op->svalue), loaded);
      Status st = co_await client->InsertVar(op->skey, op->svalue, stats);
      if (st.ok()) {
        oracle.RecordPutDone(key_id);
      } else {
        ctx->FailStatus(st, "insert");
      }
      break;
    }
    case OpType::kLookup: {
      const bool must = oracle.MustExist(key_id, loaded);
      std::string v;
      Status st = co_await client->LookupVar(op->skey, &v, stats);
      if (st.ok()) {
        if (!oracle.ValidValue(key_id, loaded,
                               perfbench::BytesId(VarLoadValue(op->skey)),
                               perfbench::BytesId(v))) {
          ctx->FailCheck("lookup returned a value never written to its key");
        }
      } else if (st.IsNotFound()) {
        r.not_found = true;
        if (must && oracle.MustExist(key_id, loaded)) {
          ctx->FailCheck("lookup returned NotFound for a present key");
        }
      } else {
        ctx->FailStatus(st, "lookup");
      }
      break;
    }
    case OpType::kRangeQuery: {
      Status st = co_await client->ScanVar(op->skey, op->range_size, out,
                                           stats);
      if (!st.ok()) {
        ctx->FailStatus(st, "scan");
      } else if (perfbench::CheckScan(
                     op->skey, op->range_size, *out,
                     [&oracle, ctx](const std::string& k,
                                    const std::string& v) {
                       return oracle.ValidValue(
                           perfbench::BytesId(k), ctx->load->VarLoaded(k),
                           perfbench::BytesId(VarLoadValue(k)),
                           perfbench::BytesId(v));
                     }) != 0) {
        ctx->FailCheck("scan out of order or with an invalid pair");
      }
      break;
    }
    case OpType::kDelete: {
      oracle.RecordDelete(key_id);
      Status st = co_await client->DeleteVar(op->skey, stats);
      if (!st.ok() && !st.IsNotFound()) ctx->FailStatus(st, "delete");
      break;
    }
  }
  co_return r;
}

void DrawBatch(WorkloadGenerator* gen, std::vector<Op>* batch, uint32_t lane,
               RunCtx* ctx) {
  HostSpan span(ctx->spans, "workload.next", ctx->run_span, lane);
  batch->clear();
  for (int i = 0; i < kNextBatch; i++) batch->push_back(gen->Next());
  span.set_arg(kNextBatch);
  ctx->next_host_ns += span.End();
  ctx->next_ops += kNextBatch;
}

void Record(RunCtx* ctx, const OpOutcome& r, const OpStats& stats,
            sim::SimTime start, sim::SimTime end) {
  if (end < ctx->window_begin || end >= ctx->window_end) return;
  WindowStats& w = ctx->window;
  const int k = static_cast<int>(r.kind);
  w.ops[k]++;
  w.latency_ns[k].Add(static_cast<uint64_t>(end - start));
  switch (r.kind) {
    case OpKind::kGet:
      w.get_read_retries += stats.read_retries;
      if (r.not_found) w.get_not_found++;
      break;
    case OpKind::kPut:
      w.put_bytes_written += stats.bytes_written;
      if (r.fresh) w.fresh_puts++;
      w.write_round_trips.Add(stats.round_trips);
      break;
    case OpKind::kDel:
      w.write_round_trips.Add(stats.round_trips);
      break;
    case OpKind::kScan:
      break;
  }
}

constexpr const char* kOpSpanNames[perfbench::kNumOpKinds] = {
    "op.get", "op.put", "op.scan", "op.del"};

sim::Task<void> ClientLoop(TreeClient* client, WorkloadGenerator gen,
                           uint32_t lane, RunCtx* ctx) {
  sherman::obs::TraceCtx trace = sherman::obs::TraceCtx::For(
      ctx->tracer, sherman::obs::RingId::Client(client->cs_id()));
  const bool varlen = Varlen(*ctx->spec);
  std::vector<Op> batch;
  size_t next = 0;
  std::vector<std::pair<Key, uint64_t>> fixed_out;
  std::vector<std::pair<std::string, std::string>> var_out;
  while (!ctx->stop) {
    if (next == batch.size()) {
      DrawBatch(&gen, &batch, lane, ctx);
      next = 0;
    }
    const Op op = std::move(batch[next++]);
    OpStats stats;
    stats.trace = ctx->tracer != nullptr ? &trace : nullptr;
    ctx->attempted++;
    const sim::SimTime start = ctx->sim->now();
    const OpOutcome r =
        varlen ? co_await VarOp(client, &op, &stats, ctx, &var_out)
               : co_await FixedOp(client, &op, &stats, ctx, &fixed_out);
    const sim::SimTime end = ctx->sim->now();
    ctx->completed++;
    if (ctx->spans->enabled()) {
      Span s;
      s.id = ctx->spans->NewId();
      s.name = kOpSpanNames[static_cast<int>(r.kind)];
      s.clock = SpanClock::kSim;
      s.start_ns = start;
      s.end_ns = end;
      s.lane = lane;
      s.arg = static_cast<uint64_t>(r.kind);
      ctx->spans->Add(s);
    }
    Record(ctx, r, stats, start, end);
  }
  ctx->live--;
}

// Per-CS GC coroutine. The coroutines start staggered over one interval:
// started together, their passes stay in lockstep and the put tail swings with
// where the joint bursts fall relative to the window.
sim::Task<void> GcLoop(TreeClient* client, RunCtx* ctx) {
  co_await ctx->sim->Delay(kGcIntervalNs * client->cs_id() / kNumCs);
  while (!ctx->stop) {
    Status st = co_await client->VlogGcOnce();
    if (!st.ok()) ctx->FailStatus(st, "vlog gc");
    co_await ctx->sim->Delay(kGcIntervalNs);
  }
  ctx->live--;
}

struct PassResult {
  LayerInputs layer;
  sim::SimTime window_begin = 0;
  sim::SimTime window_ns = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double host_us_per_op = 0;
};

// Checks the drained tree: structural invariants (DebugCheckInvariants
// aborts on a violation), every stored value valid for its key, and every
// loaded key that no delete touched still present. Returns violations.
uint64_t CheckDrainedTree(const Spec& spec, const LoadSet& load,
                          const Oracle& oracle, const ShermanSystem& sys) {
  sys.DebugCheckInvariants();
  uint64_t bad = 0;
  std::unordered_set<uint64_t> present;
  if (Varlen(spec)) {
    const auto entries = sys.DebugScanLeavesVar();
    present.reserve(entries.size());
    for (const auto& [k, v] : entries) {
      const uint64_t id = perfbench::BytesId(k);
      present.insert(id);
      if (!oracle.ValidValue(id, load.VarLoaded(k),
                             perfbench::BytesId(VarLoadValue(k)),
                             perfbench::BytesId(v))) {
        bad++;
      }
    }
    for (const auto& kv : load.var) {
      const uint64_t id = perfbench::BytesId(kv.first);
      if (oracle.MustExist(id, true) && present.count(id) == 0) bad++;
    }
  } else {
    const auto entries = sys.DebugScanLeaves();
    present.reserve(entries.size());
    for (const auto& [k, v] : entries) {
      present.insert(k);
      if (!oracle.ValidValue(k, LoadedKey(k, spec.keys), FixedLoadValue(k),
                             v)) {
        bad++;
      }
    }
    for (const auto& kv : load.fixed) {
      if (oracle.MustExist(kv.first, true) && present.count(kv.first) == 0) {
        bad++;
      }
    }
  }
  if (bad != 0) {
    std::fprintf(stderr, "bad output: %llu violations in the drained tree\n",
                 static_cast<unsigned long long>(bad));
  }
  return bad;
}

// Runs the workload on a set-up system: warmup, measurement window, drain.
// Host-speed samples are interleaved with the simulation (not counted in
// its host time) and land in `speed`, which should already hold the
// samples taken around the pass's set-up.
PassResult RunPass(const Spec& spec, const LoadSet& load, Setup* setup,
                   sim::SimTime window_ns, bool traced, SpanLog* spans,
                   HostSpeed* speed) {
  ShermanSystem& sys = *setup->system;
  SHERMAN_CHECK_MSG(sys.dmsan_checker() == nullptr,
                    "DMSan must be off in benchmark runs (unset SHERMAN_DMSAN)");
  sys.tracer().set_enabled(traced);
  sim::Simulator& sim = sys.simulator();

  auto ctx = std::make_unique<RunCtx>();
  ctx->spec = &spec;
  ctx->load = &load;
  ctx->sim = &sim;
  ctx->tracer = traced ? &sys.tracer() : nullptr;
  ctx->spans = spans;
  ctx->window_begin = sim.now() + kWarmupNs;
  ctx->window_end = ctx->window_begin + window_ns;

  sherman::obs::MetricsSnapshot before, after;
  sim.At(ctx->window_begin, [&] { before = sys.registry().Snapshot(); });
  sim.At(ctx->window_end, [&] {
    after = sys.registry().Snapshot();
    ctx->stop = true;
  });

  PassResult out;
  const uint64_t steps0 = sim.steps();
  {
    HostSpan run(spans, "sim.run");
    ctx->run_span = run.id();
    for (int lane = 0; lane < kClients; lane++) {
      ctx->live++;
      sim::Spawn(ClientLoop(&sys.client(lane / kThreadsPerCs),
                            std::move(setup->gens[lane]),
                            static_cast<uint32_t>(lane), ctx.get()));
    }
    if (spec.gc) {
      for (int cs = 0; cs < kNumCs; cs++) {
        ctx->live++;
        sim::Spawn(GcLoop(&sys.client(cs), ctx.get()));
      }
    }
    int64_t calibrate_ns = 0;
    int64_t next_sample = perfbench::ThreadCpuNs() + kSampleEveryNs;
    while (!sim.idle()) {
      sim.RunUntil(sim.now() + kRunSliceNs);
      if (perfbench::ThreadCpuNs() >= next_sample) {
        HostSpan cal(spans, "calibrate.run", run.id());
        speed->Sample();
        calibrate_ns += cal.End();
        next_sample = perfbench::ThreadCpuNs() + kSampleEveryNs;
      }
    }
    out.layer.run_host_ns = static_cast<uint64_t>(run.End() - calibrate_ns);
  }
  SHERMAN_CHECK(ctx->live == 0);
  sys.tracer().set_enabled(false);

  ctx->failed_check += CheckDrainedTree(spec, load, ctx->oracle, sys);

  LayerInputs& li = out.layer;
  li.window = std::move(ctx->window);
  li.counters = after.Since(before);
  li.allocated_bytes = static_cast<double>(sys.TotalAllocatedBytes());
  li.sim_events = sim.steps() - steps0;
  li.ops_completed = ctx->completed;
  li.next_host_ns = static_cast<uint64_t>(ctx->next_host_ns);
  li.next_ops = ctx->next_ops;
  li.system_s = setup->system_s;
  li.load_s = setup->load_s;
  li.workload_init_s = setup->init_s;
  li.host_factor = speed->Factor();
  out.window_begin = ctx->window_begin;
  out.window_ns = window_ns;
  out.attempted = ctx->attempted;
  out.failed = ctx->failed_status + ctx->failed_check;
  out.host_us_per_op =
      perfbench::HostUsPerOp(li.run_host_ns, ctx->completed) * li.host_factor;
  return out;
}

// Workload seed of pass i of a run: the run's seed for the first pass.
uint64_t PassSeed(uint64_t seed, int i) {
  return seed ^ (static_cast<uint64_t>(i) * 0x9e3779b97f4a7c15ull);
}

// Adds the simulated outputs of pass `p` to the pooled result `into`:
// window stats, counters, event and op counts (host times stay per pass).
void Pool(PassResult* into, const PassResult& p) {
  LayerInputs& a = into->layer;
  const LayerInputs& b = p.layer;
  a.window.Merge(b.window);
  a.counters.Merge(b.counters);
  a.sim_events += b.sim_events;
  a.ops_completed += b.ops_completed;
  into->window_ns += p.window_ns;
  into->attempted += p.attempted;
  into->failed += p.failed;
}

// --- reporting ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

double ThroughputMops(const PassResult& p) {
  return perfbench::Ratio(static_cast<double>(p.layer.window.total()) * 1000.0,
                          static_cast<double>(p.window_ns));
}

void PrintJson(FILE* f, bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::fprintf(f, "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                  "\"metrics\": {",
               correct ? "true" : "false",
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); i++) {
    std::fprintf(f, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                 metrics[i].unit.c_str());
  }
  std::fputs("}}\n", f);
}

void PrintTable(const std::string& title, const std::vector<Metric>& metrics) {
  std::printf("# %s\n", title.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

// Simulated outputs of a pass (no host clock): deterministic for a fixed
// (workload, seed, seconds).
bool WriteDigest(const std::string& path, const std::vector<Metric>& medians,
                 const std::vector<Metric>& pooled, const PassResult& p) {
  std::unique_ptr<FILE, int (*)(FILE*)> f(std::fopen(path.c_str(), "w"),
                                          &std::fclose);
  if (f == nullptr) return false;
  for (const auto* list : {&medians, &pooled}) {
    for (const Metric& m : *list) {
      std::fprintf(f.get(), "%s %.17g %s\n", m.name.c_str(), m.value,
                   m.unit.c_str());
    }
  }
  std::fprintf(f.get(), "sim.events %llu\nops.completed %llu\n",
               static_cast<unsigned long long>(p.layer.sim_events),
               static_cast<unsigned long long>(p.layer.ops_completed));
  for (const auto& [name, v] : p.layer.counters.counters) {
    std::fprintf(f.get(), "counter %s %llu\n", name.c_str(),
                 static_cast<unsigned long long>(v));
  }
  for (const auto& [name, v] : p.layer.counters.gauges) {
    std::fprintf(f.get(), "gauge %s %.17g\n", name.c_str(), v);
  }
  return std::ferror(f.get()) == 0;
}

// Simulated metrics: the kSimE2e end-to-end ones first, then the
// medians, the scan and delete latencies and the sample counts behind them.
constexpr size_t kSimE2e = 5;
std::vector<Metric> SimulatedMetrics(const PassResult& p) {
  const WindowStats& w = p.layer.window;
  const perfbench::Samples& get = w.latency(OpKind::kGet);
  const perfbench::Samples& put = w.latency(OpKind::kPut);
  const perfbench::Samples& scan = w.latency(OpKind::kScan);
  const perfbench::Samples& del = w.latency(OpKind::kDel);
  std::vector<Metric> m = {
      {"throughput_mops", ThroughputMops(p), "Mops"},
      {"get_mean_us", get.MeanUs(), "us"},
      {"get_p999_us", get.PercentileUs(99.9), "us"},
      {"put_mean_us", put.MeanUs(), "us"},
      {"put_p99_us", put.PercentileUs(99), "us"},
      {"get_p50_us", get.PercentileUs(50), "us"},
      {"get_p99_us", get.PercentileUs(99), "us"},
      {"put_p50_us", put.PercentileUs(50), "us"},
      {"scan_p50_us", scan.PercentileUs(50), "us"},
      {"scan_p99_us", scan.PercentileUs(99), "us"},
      {"del_p50_us", del.PercentileUs(50), "us"},
      {"del_p99_us", del.PercentileUs(99), "us"},
  };
  for (int k = 0; k < perfbench::kNumOpKinds; k++) {
    m.push_back({std::string("samples.") +
                     perfbench::OpKindName(static_cast<OpKind>(k)),
                 static_cast<double>(w.ops[k]), "count"});
  }
  return m;
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out_dir = ".bench_out";
  std::string digest;
};

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; i++) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) != 0 || i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    errno = 0;
    if (a == "--workload") {
      o->workload = v;
    } else if (a == "--seed") {
      o->seed = std::strtoull(v.c_str(), &end, 10);
    } else if (a == "--seconds") {
      o->seconds = std::strtod(v.c_str(), &end);
    } else if (a == "--trace") {
      o->trace = static_cast<int>(std::strtol(v.c_str(), &end, 10));
    } else if (a == "--out-dir") {
      o->out_dir = v;
    } else if (a == "--digest") {
      o->digest = v;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || errno != 0)) return false;
  }
  return !o->workload.empty() && o->seconds > 0 && o->seconds <= 600 &&
         (o->trace == 0 || o->trace == 1);
}

int RunEndToEnd(const Spec& spec, const LoadSet& load, const Options& o,
                sim::SimTime window_ns) {
  // One pass per set-up, each on a fresh system with its own workload seed
  // and an equal share of the window. Each end-to-end metric is the median
  // over the passes, so one pass that met a rare burst (a tail percentile
  // of pooled samples would follow it) does not move the run.
  SpanLog spans(/*enabled=*/false);
  std::vector<double> setup_s;   // per pass, at the reference speed
  std::vector<double> host_us;   // per pass, at the reference speed
  std::vector<double> factors;   // per pass
  std::vector<std::vector<double>> sim_e2e(kSimE2e);
  PassResult p;  // all passes pooled: counters, traffic, other latencies
  const int passes = spec.passes;
  for (int i = 0; i < passes; i++) {
    HostSpeed speed;
    std::unique_ptr<Setup> setup =
        CalibratedSetup(spec, load, PassSeed(o.seed, i), &spans, &speed);
    const PassResult r = RunPass(spec, load, setup.get(), window_ns / passes,
                                 /*traced=*/false, &spans, &speed);
    const std::vector<Metric> m = SimulatedMetrics(r);
    for (size_t j = 0; j < kSimE2e; j++) sim_e2e[j].push_back(m[j].value);
    factors.push_back(speed.Factor());
    setup_s.push_back(setup->total_s() * factors.back());
    host_us.push_back(r.host_us_per_op);
    Pool(&p, r);
  }
  p.layer.host_factor = perfbench::Median(factors);

  const std::vector<Metric> sim = SimulatedMetrics(p);
  std::vector<Metric> e2e;
  for (size_t j = 0; j < kSimE2e; j++) {
    e2e.push_back({sim[j].name, perfbench::Median(sim_e2e[j]), sim[j].unit});
  }
  const std::vector<Metric> sim_medians = e2e;
  e2e.push_back({"setup_s", perfbench::Median(setup_s), "s"});
  e2e.push_back({"host_us_per_op", perfbench::Median(host_us), "us"});
  e2e.push_back({"peak_rss_mb", PeakRssMb(), "MB"});

  std::vector<Metric> extra(sim.begin() + kSimE2e, sim.end());
  extra.push_back({"host_speed_factor", p.layer.host_factor, "ratio"});
  extra.push_back({"error_rate",
                   perfbench::Ratio(static_cast<double>(p.failed),
                                    static_cast<double>(p.attempted)),
                   "ratio"});
  const auto layer = perfbench::PerLayerTable(p.layer);
  for (const char* name :
       {"workload.get_share", "workload.put_share", "workload.scan_share",
        "workload.del_share", "workload.fresh_put_share",
        "workload.get_notfound_share"}) {
    extra.push_back({name, layer.at(name), "ratio"});
  }
  PrintTable(spec.name + ": end-to-end", e2e);
  PrintTable(spec.name + ": other simulated metrics and traffic served", extra);

  bool ok = p.failed == 0;
  if (!o.digest.empty() && !WriteDigest(o.digest, sim_medians, sim, p)) {
    std::fprintf(stderr, "cannot write %s\n", o.digest.c_str());
    ok = false;
  }
  std::fflush(stdout);
  PrintJson(stdout, ok, p.attempted, p.failed, e2e);
  return ok ? 0 : 1;
}

int RunTraced(const Spec& spec, const LoadSet& load, const Options& o,
              sim::SimTime window_ns) {
  // Untraced baseline for the tracing overhead.
  SpanLog off(/*enabled=*/false);
  HostSpeed base_speed;
  std::unique_ptr<Setup> setup =
      CalibratedSetup(spec, load, o.seed, &off, &base_speed);
  const PassResult base = RunPass(spec, load, setup.get(), window_ns,
                                  /*traced=*/false, &off, &base_speed);
  setup.reset();

  SpanLog spans(/*enabled=*/true);
  HostSpeed traced_speed;
  setup = CalibratedSetup(spec, load, o.seed, &spans, &traced_speed);
  PassResult traced = RunPass(spec, load, setup.get(), window_ns,
                              /*traced=*/true, &spans, &traced_speed);
  setup.reset();

  uint64_t failed = base.failed + traced.failed;
  // Tracing observes; it must not change the simulation.
  if (traced.layer.window.ops != base.layer.window.ops ||
      traced.layer.sim_events != base.layer.sim_events) {
    std::fprintf(stderr, "bad output: the traced pass simulated differently\n");
    failed++;
  }

  // Aggregate the spans into the per-layer inputs.
  LayerInputs li = traced.layer;
  WindowStats from_spans;
  perfbench::AddOpSpans(spans.spans(), traced.window_begin,
                        traced.window_begin + window_ns, &from_spans);
  if (from_spans.ops != li.window.ops) {
    std::fprintf(stderr, "bad output: op spans disagree with op counts\n");
    failed++;
  }
  li.window.latency_ns = from_spans.latency_ns;
  const auto totals = perfbench::HostTotals(spans.spans());
  auto total_ns = [&totals](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0 : it->second.ns;
  };
  li.system_s = static_cast<double>(total_ns("setup.system")) / 1e9;
  li.load_s = static_cast<double>(total_ns("setup.load")) / 1e9;
  li.workload_init_s = static_cast<double>(total_ns("workload.init")) / 1e9;
  li.run_host_ns =
      static_cast<uint64_t>(total_ns("sim.run") - total_ns("calibrate.run"));
  li.next_host_ns = static_cast<uint64_t>(total_ns("workload.next"));
  li.next_ops = totals.count("workload.next") ? totals.at("workload.next").arg
                                              : 0;
  li.trace_overhead =
      perfbench::Ratio(perfbench::HostUsPerOp(li.run_host_ns, li.ops_completed) *
                           li.host_factor,
                       base.host_us_per_op) -
      1.0;

  const auto table = perfbench::PerLayerTable(li);
  std::vector<Metric> layer;
  for (const auto& [name, unit] : perfbench::PerLayerNames()) {
    layer.push_back({name, table.at(name), unit});
  }
  PrintTable(spec.name + ": per-layer (traced pass)", layer);

  // One file pair per workload, overwritten by the next traced run.
  const std::string stem = o.out_dir + "/" + spec.name;
  bool ok = failed == 0;
  if (!spans.WriteChromeJson(stem + ".spans.json")) {
    std::fprintf(stderr, "cannot write %s.spans.json\n", stem.c_str());
    ok = false;
  } else {
    std::unique_ptr<FILE, int (*)(FILE*)> f(
        std::fopen((stem + ".layers.json").c_str(), "w"), &std::fclose);
    if (f == nullptr) {
      ok = false;
    } else {
      PrintJson(f.get(), ok, traced.attempted, failed, layer);
    }
    std::printf("# spans: %s.spans.json (%zu spans), table: %s.layers.json\n",
                stem.c_str(), spans.spans().size(), stem.c_str());
  }
  std::fflush(stdout);
  PrintJson(stdout, ok, base.attempted + traced.attempted, failed, layer);
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  Spec spec;
  if (!ParseArgs(argc, argv, &o) || !MakeSpec(o.workload, &spec)) {
    std::fprintf(stderr,
                 "usage: shermanbench --workload "
                 "skew-write|uniform-read-cold|varlen-mixed --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR] [--digest FILE]\n");
    return 2;
  }
  const sim::SimTime window_ns = static_cast<sim::SimTime>(
      o.seconds * static_cast<double>(spec.window_ns_per_second));
  const LoadSet load = MakeLoadSet(spec);
  return o.trace == 1 ? RunTraced(spec, load, o, window_ns)
                      : RunEndToEnd(spec, load, o, window_ns);
}

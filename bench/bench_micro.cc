// google-benchmark microbenchmarks for the hot in-process paths: node
// search/scan, entry writes, Zipfian generation, CRC32, histogram inserts,
// index-cache probes and refills, the varlen bulk loader, and one READ
// through the simulated fabric. These are
// host-CPU costs (not simulated time); most back the cpu_*_ns constants in
// rdma/config.h.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/index_cache.h"
#include "core/btree.h"
#include "core/node_layout.h"
#include "rdma/fabric.h"
#include "sim/task.h"
#include "util/crc32.h"
#include "util/histogram.h"
#include "util/random.h"
#include "workload/workload.h"

namespace sherman {
namespace {

void BM_UnsortedLeafScan(benchmark::State& state) {
  const TreeShape shape{static_cast<uint32_t>(state.range(0)), 8, 8};
  std::vector<uint8_t> buf(shape.node_size, 0);
  NodeView v(buf.data(), &shape);
  v.InitLeaf(0, kMaxKey, rdma::kNullAddress);
  for (uint32_t i = 0; i < shape.leaf_capacity(); i++) {
    v.SetLeafEntry(i, 1000 + i * 2, i);
  }
  uint64_t probe = 1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(v.FindLeafSlot(probe));
    probe += 2;
    if (probe > 1000 + shape.leaf_capacity() * 2) probe = 1000;
  }
}
BENCHMARK(BM_UnsortedLeafScan)->Arg(256)->Arg(1024)->Arg(4096);

void BM_SortedLeafBinarySearch(benchmark::State& state) {
  const TreeShape shape{static_cast<uint32_t>(state.range(0)), 8, 8};
  std::vector<uint8_t> buf(shape.node_size, 0);
  NodeView v(buf.data(), &shape);
  v.InitLeaf(0, kMaxKey, rdma::kNullAddress);
  for (uint32_t i = 0; i < shape.leaf_capacity(); i++) {
    v.SortedLeafInsert(1000 + i * 2, i);
  }
  uint64_t probe = 1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(v.SortedLeafFind(probe));
    probe += 2;
    if (probe > 1000 + shape.leaf_capacity() * 2) probe = 1000;
  }
}
BENCHMARK(BM_SortedLeafBinarySearch)->Arg(256)->Arg(1024)->Arg(4096);

void BM_InternalChildFor(benchmark::State& state) {
  const TreeShape shape{1024, 8, 8};
  std::vector<uint8_t> buf(shape.node_size, 0);
  NodeView v(buf.data(), &shape);
  v.InitInternal(1, 0, kMaxKey, rdma::kNullAddress, rdma::GlobalAddress(0, 64));
  for (uint32_t i = 0; i < shape.internal_capacity(); i++) {
    v.InternalInsert(100 + i * 10, rdma::GlobalAddress(0, 4096 + i));
  }
  Random rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(v.InternalChildFor(rng.Uniform(700)));
  }
}
BENCHMARK(BM_InternalChildFor);

void BM_LeafEntryWrite(benchmark::State& state) {
  const TreeShape shape{1024, 8, 8};
  std::vector<uint8_t> buf(shape.node_size, 0);
  NodeView v(buf.data(), &shape);
  v.InitLeaf(0, kMaxKey, rdma::kNullAddress);
  uint32_t i = 0;
  for (auto _ : state) {
    v.SetLeafEntry(i % shape.leaf_capacity(), i, i);
    i++;
  }
}
BENCHMARK(BM_LeafEntryWrite);

void BM_Crc32Node(benchmark::State& state) {
  std::vector<uint8_t> buf(static_cast<size_t>(state.range(0)), 0xa5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(buf.data(), buf.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32Node)->Arg(256)->Arg(1024)->Arg(4096);

void BM_ZipfianNext(benchmark::State& state) {
  ZipfianGenerator z(1'000'000, 0.99);
  Random rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(z.Next(rng));
  }
}
BENCHMARK(BM_ZipfianNext);

void BM_ScrambledZipfianNext(benchmark::State& state) {
  ScrambledZipfianGenerator z(1'000'000, 0.99);
  Random rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(z.Next(rng));
  }
}
BENCHMARK(BM_ScrambledZipfianNext);

void BM_HistogramAdd(benchmark::State& state) {
  Histogram h;
  Random rng(4);
  for (auto _ : state) {
    h.Add(rng.Uniform(10'000'000));
  }
  benchmark::DoNotOptimize(h.P99());
}
BENCHMARK(BM_HistogramAdd);

// A level-1 node with `fanout` children covering [lo, lo + width).
ParsedInternal MicroLevel1Node(Key lo, Key width, int fanout) {
  ParsedInternal p;
  p.level = 1;
  p.lo = lo;
  p.hi = lo + width;
  p.self = rdma::GlobalAddress(0, 4096 + lo);
  p.leftmost = rdma::GlobalAddress(1, 4096);
  for (int i = 1; i < fanout; i++) {
    p.entries.emplace_back(lo + width * i / fanout,
                           rdma::GlobalAddress(1, 4096 + 1024 * i));
  }
  return p;
}

// Type-① lookups over a full cache of range(0) level-1 nodes.
void BM_IndexCacheLookup(benchmark::State& state) {
  const uint64_t nodes = static_cast<uint64_t>(state.range(0));
  IndexCache cache(nodes * 1024, 1024, 5);
  for (uint64_t i = 0; i < nodes; i++) {
    cache.Insert(MicroLevel1Node(i * 1000, 1000, 60));
  }
  Random rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.LookupLevel1(rng.Uniform(nodes * 1000)));
  }
}
BENCHMARK(BM_IndexCacheLookup)->Arg(128)->Arg(4096);

// The miss path: every insert into a full cache of range(0) nodes evicts
// one (4096 = the 4 MB default capacity at 1 KB nodes).
void BM_IndexCacheInsertEvict(benchmark::State& state) {
  const uint64_t nodes = static_cast<uint64_t>(state.range(0));
  IndexCache cache(nodes * 1024, 1024, 6);
  constexpr uint64_t kUniverse = 1'000'000;
  Random rng(6);
  for (uint64_t i = 0; i < nodes; i++) {
    cache.Insert(MicroLevel1Node(rng.Uniform(kUniverse) * 1000, 1000, 60));
  }
  ParsedInternal n = MicroLevel1Node(0, 1000, 60);
  for (auto _ : state) {
    // Move the node to a random range; its separators move with it.
    const Key lo = rng.Uniform(kUniverse) * 1000;
    for (auto& entry : n.entries) entry.first = entry.first - n.lo + lo;
    n.lo = lo;
    n.hi = lo + 1000;
    cache.Insert(n);
  }
  benchmark::DoNotOptimize(cache.stats().evictions);
}
BENCHMARK(BM_IndexCacheInsertEvict)->Arg(128)->Arg(4096);

// BulkLoadVar over range(0) sorted string records of 16-40 B with 8-byte
// values (perfbench varlen-mixed's load set), into 1 KB slotted leaves at
// fill 0.8. System construction and teardown are not timed.
void BM_BulkLoadVar(benchmark::State& state) {
  std::vector<std::pair<std::string, std::string>> kvs;
  for (int64_t rank = 0; rank < state.range(0); rank++) {
    std::string k = WorkloadGenerator::StringKeyFor(
        WorkloadGenerator::LoadedKeyFor(static_cast<uint64_t>(rank)), 16, 40);
    std::string v = "L" + k.substr(0, 7);
    kvs.emplace_back(std::move(k), std::move(v));
  }
  std::sort(kvs.begin(), kvs.end());
  kvs.erase(std::unique(kvs.begin(), kvs.end(),
                        [](const auto& a, const auto& b) {
                          return a.first == b.first;
                        }),
            kvs.end());
  rdma::FabricConfig fabric;
  fabric.num_memory_servers = 2;
  fabric.num_compute_servers = 1;
  fabric.ms_memory_bytes = 64ull << 20;
  TreeOptions tree;
  tree.two_level_versions = false;  // varlen needs sorted leaves
  tree.shape.varlen = true;
  for (auto _ : state) {
    state.PauseTiming();
    auto system = std::make_unique<ShermanSystem>(fabric, tree);
    state.ResumeTiming();
    system->BulkLoadVar(kvs, 0.8);
    benchmark::DoNotOptimize(system->DebugRootAddr());
    state.PauseTiming();
    system.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kvs.size()));
}
BENCHMARK(BM_BulkLoadVar)->Arg(500'000)->Unit(benchmark::kMillisecond);

sim::Task<void> PostOne(rdma::Qp* qp, rdma::WorkRequest wr) {
  co_await qp->Post(wr);
}

// One 1 KB READ posted and completed through a Qp on an idle fabric: its
// events, its DMA window and the copy into the reader's buffer. With
// range(0) = 1 a 64-byte WRITE to the READ's last 64 bytes, posted right
// after it, lands mid-DMA ahead of the transfer (a torn read); the WRITE's
// own cost is then included.
void BM_QpRead1K(benchmark::State& state) {
  rdma::FabricConfig cfg;
  cfg.num_memory_servers = 1;
  cfg.num_compute_servers = 1;
  cfg.ms_memory_bytes = 1 << 20;
  rdma::Fabric fabric(cfg);
  rdma::Qp& qp = fabric.qp(0, 0);
  const rdma::GlobalAddress addr(0, 64 << 10);
  std::vector<uint8_t> dst(1024);
  std::vector<uint8_t> src(64, 7);
  const bool torn = state.range(0) != 0;
  const auto read = rdma::WorkRequest::Read(addr, dst.data(), 1024);
  // protocol-ok: raw-verb microbenchmark of the fabric layer
  const auto write = rdma::WorkRequest::Write(addr.Plus(960), src.data(), 64);
  for (auto _ : state) {
    sim::Spawn(PostOne(&qp, read));
    if (torn) sim::Spawn(PostOne(&qp, write));
    fabric.simulator().Run();
  }
  benchmark::DoNotOptimize(dst.data());
}
BENCHMARK(BM_QpRead1K)->Arg(0)->Arg(1);

}  // namespace
}  // namespace sherman

BENCHMARK_MAIN();

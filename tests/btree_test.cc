// Single-client tree correctness: random operation sequences verified
// against std::map, bulkload shapes, split cascades, root growth, deletes,
// range queries, and key-size sweeps — parameterized over every preset.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench/runner.h"
#include "core/btree.h"
#include "core/presets.h"
#include "util/random.h"
#include "vlog/vlog.h"

namespace sherman {
namespace {

rdma::FabricConfig SmallFabric(int ms = 2, int cs = 1) {
  rdma::FabricConfig f;
  f.num_memory_servers = ms;
  f.num_compute_servers = cs;
  f.ms_memory_bytes = 32ull << 20;
  return f;
}

// Drives a single-coroutine random op sequence mirrored into std::map.
sim::Task<void> RandomOps(TreeClient* client, uint64_t seed, int ops,
                          uint64_t key_space, bool with_deletes,
                          std::map<Key, uint64_t>* model, bool* done) {
  Random rng(seed);
  for (int i = 0; i < ops; i++) {
    const Key key = 1 + rng.Uniform(key_space);
    const int action = static_cast<int>(rng.Uniform(with_deletes ? 4 : 3));
    if (action == 0 || action == 2) {
      const uint64_t value = rng.Next();
      Status st = co_await client->Insert(key, value);
      EXPECT_TRUE(st.ok()) << st.ToString();
      (*model)[key] = value;
    } else if (action == 1) {
      uint64_t value = 0;
      Status st = co_await client->Lookup(key, &value);
      auto it = model->find(key);
      if (it == model->end()) {
        EXPECT_TRUE(st.IsNotFound()) << "key " << key << ": " << st.ToString();
      } else {
        EXPECT_TRUE(st.ok()) << st.ToString();
        EXPECT_EQ(value, it->second) << "key " << key;
      }
    } else {
      Status st = co_await client->Delete(key);
      if (model->erase(key) > 0) {
        EXPECT_TRUE(st.ok()) << st.ToString();
      } else {
        EXPECT_TRUE(st.IsNotFound()) << st.ToString();
      }
    }
  }
  *done = true;
}

class PresetTreeTest : public ::testing::TestWithParam<std::string> {
 protected:
  TreeOptions Options() {
    TreeOptions t;
    EXPECT_TRUE(PresetByName(GetParam(), &t));
    return t;
  }
};

TEST_P(PresetTreeTest, RandomOpsMatchStdMap) {
  TreeOptions topt = Options();
  topt.shape.node_size = 256;  // small nodes force frequent splits
  ShermanSystem system(SmallFabric(), topt);
  system.BulkLoad({}, 0.8);  // start empty: exercises root growth from leaf

  std::map<Key, uint64_t> model;
  bool done = false;
  sim::Spawn(RandomOps(&system.client(0), 99, 3000, 500, true, &model, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);

  system.DebugCheckInvariants();
  const auto scan = system.DebugScanLeaves();
  ASSERT_EQ(scan.size(), model.size());
  auto it = model.begin();
  for (size_t i = 0; i < scan.size(); i++, ++it) {
    EXPECT_EQ(scan[i].first, it->first);
    EXPECT_EQ(scan[i].second, it->second);
  }
}

TEST_P(PresetTreeTest, SequentialInsertsCascadeSplitsToDeepTree) {
  TreeOptions topt = Options();
  topt.shape.node_size = 256;
  ShermanSystem system(SmallFabric(), topt);
  system.BulkLoad({}, 0.8);

  bool done = false;
  sim::Spawn([](TreeClient* c, bool* flag) -> sim::Task<void> {
    for (Key k = 1; k <= 2000; k++) {
      Status st = co_await c->Insert(k, k * 2);
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
    // Everything must be found.
    for (Key k = 1; k <= 2000; k++) {
      uint64_t v = 0;
      Status st = co_await c->Lookup(k, &v);
      EXPECT_TRUE(st.ok()) << "key " << k << ": " << st.ToString();
      EXPECT_EQ(v, k * 2);
    }
    *flag = true;
  }(&system.client(0), &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
  EXPECT_GE(system.DebugHeight(), 3u) << "splits should have grown the tree";
  system.DebugCheckInvariants();
}

TEST_P(PresetTreeTest, RangeQueryAgainstModel) {
  TreeOptions topt = Options();
  ShermanSystem system(SmallFabric(), topt);
  const uint64_t n = 5'000;
  system.BulkLoad(bench::MakeLoadKvs(n), 0.8);

  bool done = false;
  sim::Spawn([](TreeClient* c, uint64_t n_keys, bool* flag) -> sim::Task<void> {
    Random rng(5);
    std::vector<std::pair<Key, uint64_t>> out;
    for (int trial = 0; trial < 30; trial++) {
      const Key from = 1 + rng.Uniform(2 * n_keys);
      const uint32_t count = 1 + static_cast<uint32_t>(rng.Uniform(200));
      Status st = co_await c->RangeQuery(from, count, &out);
      EXPECT_TRUE(st.ok()) << st.ToString();
      // Expected: even keys in [from, ...), up to count of them.
      Key expect = from + (from % 2);
      if (expect < 2) expect = 2;
      for (const auto& [k, v] : out) {
        EXPECT_EQ(k, expect);
        EXPECT_EQ(v, k * 31 + 7);
        expect = k + 2;
      }
      const uint64_t max_key = 2 * n_keys;
      const Key first = from + (from % 2);
      const uint64_t available =
          first > max_key ? 0 : (max_key - first) / 2 + 1;
      EXPECT_EQ(out.size(), std::min<uint64_t>(count, available));
    }
    *flag = true;
  }(&system.client(0), n, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
}

INSTANTIATE_TEST_SUITE_P(AllPresets, PresetTreeTest,
                         ::testing::Values("fg", "fg+", "+combine", "+on-chip",
                                           "+hierarchical", "sherman"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (!isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return n;
                         });

// --- bulkload shapes ---

TEST(BulkLoadTest, EmptyTreeIsSingleLeafRoot) {
  ShermanSystem system(SmallFabric(), ShermanOptions());
  system.BulkLoad({}, 0.8);
  EXPECT_EQ(system.DebugHeight(), 1u);
  EXPECT_TRUE(system.DebugScanLeaves().empty());
  system.DebugCheckInvariants();
}

TEST(BulkLoadTest, SingleKey) {
  ShermanSystem system(SmallFabric(), ShermanOptions());
  system.BulkLoad({{42, 420}}, 0.8);
  const auto scan = system.DebugScanLeaves();
  ASSERT_EQ(scan.size(), 1u);
  EXPECT_EQ(scan[0].first, 42u);
  system.DebugCheckInvariants();
}

TEST(BulkLoadTest, LargeLoadRoundTripsAndHeight) {
  ShermanSystem system(SmallFabric(), ShermanOptions());
  const uint64_t n = 100'000;
  system.BulkLoad(bench::MakeLoadKvs(n), 0.8);
  system.DebugCheckInvariants();
  const auto scan = system.DebugScanLeaves();
  ASSERT_EQ(scan.size(), n);
  EXPECT_GE(system.DebugHeight(), 3u);
  // Lookup through the simulated path too.
  bool done = false;
  sim::Spawn([](TreeClient* c, bool* flag) -> sim::Task<void> {
    uint64_t v = 0;
    for (Key k : {2ull, 100'000ull, 200'000ull}) {
      Status st = co_await c->Lookup(k, &v);
      EXPECT_TRUE(st.ok()) << "key " << k;
      EXPECT_EQ(v, k * 31 + 7);
    }
    *flag = true;
  }(&system.client(0), &done));
  system.simulator().Run();
  EXPECT_TRUE(done);
}

TEST(BulkLoadTest, FillFactorControlsLeafCount) {
  const uint64_t n = 10'000;
  auto height_leaves = [&](double fill) {
    ShermanSystem system(SmallFabric(), ShermanOptions());
    system.BulkLoad(bench::MakeLoadKvs(n), fill);
    return system.DebugScanLeaves().size();
  };
  // Same data regardless of fill; invariants checked inside scans.
  EXPECT_EQ(height_leaves(0.5), n);
  EXPECT_EQ(height_leaves(1.0), n);
}

// --- key/value size sweep (Figure 15 geometry) ---

class KeySizeTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(KeySizeTest, OperationsWorkWithWideKeys) {
  TreeOptions topt = ShermanOptions();
  topt.shape.key_size = GetParam();
  // Figure 15 fixes 32 entries per leaf by growing the node.
  topt.shape.node_size = 64 + 32 * topt.shape.leaf_entry_size();
  // Round up to something sane.
  topt.shape.node_size = std::max(topt.shape.node_size, 256u);
  ShermanSystem system(SmallFabric(), topt);
  const auto loaded = bench::MakeLoadKvs(2'000);
  system.BulkLoad(loaded, 0.8);

  std::map<Key, uint64_t> model(loaded.begin(), loaded.end());
  bool done = false;
  sim::Spawn(RandomOps(&system.client(0), 7, 500, 5'000, false, &model, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
  system.DebugCheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(Widths, KeySizeTest,
                         ::testing::Values(8, 16, 32, 64, 128, 256, 512, 1024),
                         [](const auto& info) {
                           return "key" + std::to_string(info.param);
                         });

// --- misc behaviours ---

TEST(BTreeTest, UpdateOverwritesInPlaceWithSmallWrite) {
  ShermanSystem system(SmallFabric(), ShermanOptions());
  system.BulkLoad(bench::MakeLoadKvs(1'000), 0.8);
  bool done = false;
  sim::Spawn([](TreeClient* c, bool* flag) -> sim::Task<void> {
    OpStats stats;
    Status st = co_await c->Insert(2, 12345, &stats);
    EXPECT_TRUE(st.ok());
    // Two-level versions: only the 18-byte entry is written back.
    EXPECT_EQ(stats.bytes_written, 18u);
    uint64_t v = 0;
    st = co_await c->Lookup(2, &v);
    EXPECT_TRUE(st.ok());
    EXPECT_EQ(v, 12345u);
    *flag = true;
  }(&system.client(0), &done));
  system.simulator().Run();
  EXPECT_TRUE(done);
}

TEST(BTreeTest, FgWritesWholeNodes) {
  ShermanSystem system(SmallFabric(), FgPlusOptions());
  system.BulkLoad(bench::MakeLoadKvs(1'000), 0.8);
  bool done = false;
  sim::Spawn([](TreeClient* c, uint32_t node_size, bool* flag)
                 -> sim::Task<void> {
    OpStats stats;
    Status st = co_await c->Insert(2, 12345, &stats);
    EXPECT_TRUE(st.ok());
    EXPECT_EQ(stats.bytes_written, node_size);
    *flag = true;
  }(&system.client(0), system.options().shape.node_size, &done));
  system.simulator().Run();
  EXPECT_TRUE(done);
}

TEST(BTreeTest, CombinedInsertTakesFewerRoundTripsThanFgPlus) {
  auto round_trips = [&](TreeOptions topt) {
    ShermanSystem system(SmallFabric(), topt);
    system.BulkLoad(bench::MakeLoadKvs(1'000), 0.8);
    uint32_t rts = 0;
    sim::Spawn([](TreeClient* c, uint32_t* out) -> sim::Task<void> {
      // Warm the cache so both configs start from a level-1 hit.
      uint64_t v;
      co_await c->Lookup(2, &v);
      OpStats stats;
      Status st = co_await c->Insert(4, 1, &stats);
      EXPECT_TRUE(st.ok());
      *out = stats.round_trips;
    }(&system.client(0), &rts));
    system.simulator().Run();
    return rts;
  };
  const uint32_t fg_rts = round_trips(FgPlusOptions());
  const uint32_t sherman_rts = round_trips(ShermanOptions());
  // Paper Figure 14b: FG+ needs 4 round trips, Sherman 3 (no handover).
  EXPECT_EQ(fg_rts, 4u);
  EXPECT_EQ(sherman_rts, 3u);
}

TEST(BTreeTest, DeleteFreesSlotForReuse) {
  TreeOptions topt = ShermanOptions();
  topt.shape.node_size = 256;
  ShermanSystem system(SmallFabric(), topt);
  system.BulkLoad({}, 0.8);
  bool done = false;
  sim::Spawn([](TreeClient* c, bool* flag) -> sim::Task<void> {
    // Fill a leaf, delete everything, refill: no unnecessary splits.
    for (Key k = 1; k <= 10; k++) co_await c->Insert(k, k);
    for (Key k = 1; k <= 10; k++) {
      Status st = co_await c->Delete(k);
      EXPECT_TRUE(st.ok());
    }
    for (Key k = 11; k <= 20; k++) co_await c->Insert(k, k);
    for (Key k = 1; k <= 10; k++) {
      uint64_t v;
      EXPECT_TRUE((co_await c->Lookup(k, &v)).IsNotFound());
    }
    for (Key k = 11; k <= 20; k++) {
      uint64_t v = 0;
      EXPECT_TRUE((co_await c->Lookup(k, &v)).ok());
      EXPECT_EQ(v, k);
    }
    *flag = true;
  }(&system.client(0), &done));
  system.simulator().Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(system.DebugScanLeaves().size(), 10u);
}

// Regression (delete-path sweep): sorted-mode (FG) deletes must write back
// only the header + the left-shifted suffix, not the whole node — the byte
// accounting must reflect it exactly.
TEST(BTreeTest, FgDeleteWritesOnlyShiftedSuffix) {
  ShermanSystem system(SmallFabric(), FgPlusOptions());
  const uint64_t n = 1'000;
  system.BulkLoad(bench::MakeLoadKvs(n), 0.8);
  bool done = false;
  sim::Spawn([](TreeClient* c, const TreeShape* shape, bool* flag)
                 -> sim::Task<void> {
    const uint32_t esz = shape->leaf_entry_size();
    const uint32_t cap = shape->leaf_capacity();
    const uint32_t per_leaf = std::min(
        cap, static_cast<uint32_t>(cap * 0.8));  // bulkload fill
    // Last key of the first leaf: only that one entry slot shifts.
    OpStats stats;
    Status st = co_await c->Delete(
        WorkloadGenerator::LoadedKeyFor(per_leaf - 1), &stats);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(stats.bytes_written, kHeaderSize + esz);
    // First key of the first leaf: the whole remaining tail shifts — still
    // strictly less than a whole-node write.
    stats.Reset();
    st = co_await c->Delete(WorkloadGenerator::LoadedKeyFor(0), &stats);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(stats.bytes_written, kHeaderSize + (per_leaf - 1) * esz);
    EXPECT_LT(stats.bytes_written, shape->node_size);
    // The leaf still validates and serves correctly.
    uint64_t v = 0;
    st = co_await c->Lookup(WorkloadGenerator::LoadedKeyFor(1), &v);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(v, WorkloadGenerator::LoadedKeyFor(1) * 31 + 7);
    EXPECT_TRUE(
        (co_await c->Lookup(WorkloadGenerator::LoadedKeyFor(0), &v))
            .IsNotFound());
    *flag = true;
  }(&system.client(0), &system.options().shape, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
  system.DebugCheckInvariants();
}

// Regression (delete-path sweep): range queries and MultiGet over unsorted
// leaves must skip nulled (deleted) entries — deleted keys neither appear
// in results nor count toward the requested `count`.
TEST(RangeBoundaryTest, ScanSkipsDeletedEntriesMidRange) {
  TreeOptions topt = ShermanOptions();
  topt.merge_threshold = 0;  // keep leaves in place: nulled slots persist
  ShermanSystem system(SmallFabric(2, 2), topt);
  const uint64_t n = 2'000;
  system.BulkLoad(bench::MakeLoadKvs(n), 0.8);

  bool done = false;
  sim::Spawn([](TreeClient* c, bool* flag) -> sim::Task<void> {
    // Null every odd-ranked key in ranks [300, 700).
    for (uint64_t r = 300; r < 700; r++) {
      if (r % 2 == 0) continue;
      EXPECT_TRUE(
          (co_await c->Delete(WorkloadGenerator::LoadedKeyFor(r))).ok());
    }
    // Scan across the deleted region: exactly the survivors, in order,
    // with deleted keys not counted toward `count`.
    const Key from = WorkloadGenerator::LoadedKeyFor(250);
    std::vector<std::pair<Key, uint64_t>> out;
    Status st = co_await c->RangeQuery(from, 300, &out);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(out.size(), 300u);
    uint64_t rank = 250;
    for (const auto& [k, v] : out) {
      EXPECT_EQ(k, WorkloadGenerator::LoadedKeyFor(rank)) << "rank " << rank;
      EXPECT_EQ(v, k * 31 + 7);
      // Next surviving rank: odd ranks in [300, 700) were deleted.
      rank++;
      while (rank >= 300 && rank < 700 && rank % 2 == 1) rank++;
    }
    // MultiGet over a deleted/live mix: deleted keys report NotFound.
    std::vector<Key> keys;
    for (uint64_t r = 298; r < 312; r++) {
      keys.push_back(WorkloadGenerator::LoadedKeyFor(r));
    }
    std::vector<MultiGetResult> got;
    st = co_await c->MultiGet(keys, &got);
    EXPECT_TRUE(st.ok()) << st.ToString();
    for (size_t i = 0; i < keys.size(); i++) {
      const uint64_t r = 298 + i;
      const bool deleted = r >= 300 && r < 700 && r % 2 == 1;
      if (deleted) {
        EXPECT_TRUE(got[i].status.IsNotFound()) << "rank " << r;
      } else {
        EXPECT_TRUE(got[i].status.ok()) << "rank " << r;
        EXPECT_EQ(got[i].value, keys[i] * 31 + 7);
      }
    }
    *flag = true;
  }(&system.client(0), &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
  system.DebugCheckInvariants();
}

// Same, racing: deletes landing inside the scanned range while the scan
// walks across it. Stable (never-deleted) keys must all appear exactly
// once and in order; deleted keys never surface after their delete.
TEST(RangeBoundaryTest, ScanRacesDeletesMidRange) {
  TreeOptions topt = ShermanOptions();
  topt.shape.node_size = 256;
  ShermanSystem system(SmallFabric(2, 2), topt);
  const uint64_t n = 2'000;
  system.BulkLoad(bench::MakeLoadKvs(n), 1.0);

  int done = 0;
  sim::Spawn([](TreeClient* c, int* d) -> sim::Task<void> {
    Random rng(3);
    // Delete odd-ranked keys in [200, 800) in random order; merges fire
    // as leaves drain.
    std::vector<uint64_t> ranks;
    for (uint64_t r = 200; r < 800; r++) {
      if (r % 2 == 1) ranks.push_back(r);
    }
    for (size_t i = ranks.size(); i > 1; i--) {
      std::swap(ranks[i - 1], ranks[rng.Uniform(i)]);
    }
    for (uint64_t r : ranks) {
      EXPECT_TRUE(
          (co_await c->Delete(WorkloadGenerator::LoadedKeyFor(r))).ok());
    }
    (*d)++;
  }(&system.client(0), &done));
  sim::Spawn([](TreeClient* c, int* d) -> sim::Task<void> {
    const Key from = WorkloadGenerator::LoadedKeyFor(180);
    for (int round = 0; round < 25; round++) {
      std::vector<std::pair<Key, uint64_t>> out;
      Status st = co_await c->RangeQuery(from, 350, &out);
      EXPECT_TRUE(st.ok()) << st.ToString();
      Key prev = 0;
      uint64_t even_rank = 180;
      for (const auto& [k, v] : out) {
        EXPECT_GT(k, prev) << "unsorted or duplicated key";
        prev = k;
        if ((k / 2 - 1) % 2 == 0) {
          // Even-ranked keys are stable: none may be skipped.
          EXPECT_EQ(k, WorkloadGenerator::LoadedKeyFor(even_rank))
              << "scan skipped a stable key";
          even_rank += 2;
        }
      }
    }
    (*d)++;
  }(&system.client(1), &done));
  system.simulator().Run();
  ASSERT_EQ(done, 2);
  system.DebugCheckInvariants();
}

TEST(BTreeTest, CacheDisabledStillCorrect) {
  TreeOptions topt = ShermanOptions();
  topt.enable_cache = false;
  ShermanSystem system(SmallFabric(), topt);
  system.BulkLoad(bench::MakeLoadKvs(5'000), 0.8);
  std::map<Key, uint64_t> model;
  for (const auto& kv : bench::MakeLoadKvs(5'000)) model.insert(kv);
  bool done = false;
  sim::Spawn(RandomOps(&system.client(0), 17, 500, 12'000, false, &model,
                       &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
  system.DebugCheckInvariants();
}

TEST(BTreeTest, TinyCacheEvictsButStaysCorrect) {
  TreeOptions topt = ShermanOptions();
  topt.cache_bytes = 4 * 1024;  // room for ~4 level-1 nodes
  ShermanSystem system(SmallFabric(), topt);
  system.BulkLoad(bench::MakeLoadKvs(50'000), 0.8);
  bool done = false;
  sim::Spawn([](TreeClient* c, bool* flag) -> sim::Task<void> {
    Random rng(3);
    for (int i = 0; i < 500; i++) {
      const Key k = 2 * (1 + rng.Uniform(50'000));
      uint64_t v = 0;
      Status st = co_await c->Lookup(k, &v);
      EXPECT_TRUE(st.ok()) << "key " << k;
      EXPECT_EQ(v, k * 31 + 7);
    }
    *flag = true;
  }(&system.client(0), &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
  EXPECT_GT(system.client(0).cache().stats().evictions, 0u);
  // Both tiers stay within their budgets: level-1 nodes inside
  // cache_bytes, upper (level >= 2) nodes inside their dedicated bound.
  const IndexCache& cache = system.client(0).cache();
  EXPECT_LE(cache.bytes_used() - cache.upper_bytes_used(), 4u * 1024);
  EXPECT_LE(cache.upper_bytes_used(), cache.upper_capacity_bytes());
}

// --- range queries across structural boundaries ----------------------------

// A scan whose range straddles a leaf that splits mid-scan: the B-link
// cursor (advance by hi fence, re-validate, restart on fence mismatch)
// must neither skip nor duplicate keys that are stable across the scan.
TEST(RangeBoundaryTest, ScanStraddlesLeafSplit) {
  TreeOptions topt = ShermanOptions();
  topt.shape.node_size = 256;  // small leaves: one insert splits
  ShermanSystem system(SmallFabric(2, 2), topt);
  const uint64_t n = 2'000;
  system.BulkLoad(bench::MakeLoadKvs(n), 1.0);  // full leaves

  // Writer: hammers fresh odd keys inside [lo, hi), forcing splits of the
  // exact leaves the scanner walks. Scanner: repeatedly scans [lo, hi)
  // and checks the stable (bulkloaded, never-written) keys are all there,
  // in order, exactly once.
  const uint64_t lo_rank = 200;
  const uint64_t hi_rank = 800;
  const Key lo = WorkloadGenerator::LoadedKeyFor(lo_rank);  // 402
  int done = 0;
  sim::Spawn([](TreeClient* c, uint64_t lo_r, uint64_t hi_r, int* d)
                 -> sim::Task<void> {
    Random rng(11);
    for (int i = 0; i < 200; i++) {
      const Key odd =
          WorkloadGenerator::LoadedKeyFor(lo_r + rng.Uniform(hi_r - lo_r)) + 1;
      EXPECT_TRUE((co_await c->Insert(odd, odd)).ok());
    }
    (*d)++;
  }(&system.client(0), lo_rank, hi_rank, &done));
  sim::Spawn([](TreeClient* c, Key from, int* d) -> sim::Task<void> {
    for (int round = 0; round < 20; round++) {
      std::vector<std::pair<Key, uint64_t>> out;
      Status st = co_await c->RangeQuery(from, 400, &out);
      EXPECT_TRUE(st.ok()) << st.ToString();
      EXPECT_EQ(out.size(), 400u);
      Key prev = 0;
      Key even_cursor = from;
      for (const auto& [k, v] : out) {
        EXPECT_GT(k, prev) << "unsorted or duplicated key";
        prev = k;
        if (k % 2 == 0) {
          // Stable bulkloaded keys: none may be skipped by a split.
          EXPECT_EQ(k, even_cursor) << "scan skipped a stable key";
          EXPECT_EQ(v, k * 31 + 7);
          even_cursor = k + 2;
        } else {
          EXPECT_EQ(v, k);  // writer's odd inserts carry value == key
        }
      }
    }
    (*d)++;
  }(&system.client(1), lo, &done));
  system.simulator().Run();
  ASSERT_EQ(done, 2);
  system.DebugCheckInvariants();
  EXPECT_GT(system.DebugHeight(), 1u);
}

// A scan wide enough to cross memory-server boundaries: bulkload spreads
// consecutive leaves round-robin over MSs, so any multi-leaf scan fetches
// from several servers; the result must still be exact and ordered.
TEST(RangeBoundaryTest, ScanCrossesMsBoundaries) {
  ShermanSystem system(SmallFabric(/*ms=*/4, /*cs=*/1), ShermanOptions());
  const uint64_t n = 20'000;
  system.BulkLoad(bench::MakeLoadKvs(n), 0.8);

  // Confirm the scanned range genuinely spans several MSs (leaf walk in
  // host memory).
  {
    const TreeShape& shape = system.options().shape;
    rdma::GlobalAddress addr = system.DebugRootAddr();
    while (true) {
      const NodeView view =
          NodeView::Reader(system.fabric().HostRaw(addr), &shape);
      if (view.is_leaf()) break;
      addr = view.leftmost_child();
    }
    std::set<uint16_t> servers;
    for (int i = 0; i < 40 && !addr.is_null(); i++) {
      servers.insert(addr.node);
      const NodeView view =
          NodeView::Reader(system.fabric().HostRaw(addr), &shape);
      addr = view.sibling();
    }
    ASSERT_GE(servers.size(), 3u) << "leaves not spread across servers";
  }

  bool done = false;
  sim::Spawn([](TreeClient* c, uint64_t keys, bool* flag) -> sim::Task<void> {
    Random rng(23);
    for (int round = 0; round < 10; round++) {
      const uint64_t rank = rng.Uniform(keys - 2'000);
      const Key from = WorkloadGenerator::LoadedKeyFor(rank);
      const uint32_t count = 500 + static_cast<uint32_t>(rng.Uniform(1'000));
      std::vector<std::pair<Key, uint64_t>> out;
      Status st = co_await c->RangeQuery(from, count, &out);
      EXPECT_TRUE(st.ok()) << st.ToString();
      EXPECT_EQ(out.size(), count);
      for (uint32_t i = 0; i < out.size(); i++) {
        const Key want = from + 2 * i;
        EXPECT_EQ(out[i].first, want);
        EXPECT_EQ(out[i].second, want * 31 + 7);
      }
    }
    *flag = true;
  }(&system.client(0), n, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
}

// --- variable-length records (slotted leaves + value log) -------------------

TreeOptions VarOptions(uint32_t node_size = 512) {
  TreeOptions t = ShermanOptions();
  t.two_level_versions = false;  // varlen requires sorted leaves
  t.shape.varlen = true;
  t.shape.node_size = node_size;
  return t;
}

std::string VarKey(uint64_t rank) {
  return WorkloadGenerator::StringKeyFor(rank, 16, 40);
}

// Single-coroutine random string ops mirrored into std::map. Value lengths
// are redrawn per write across {empty, inline, threshold, out-of-line}, so
// updates cross the inline threshold in both directions; small leaves make
// heap exhaustion (not slot count) the split trigger.
TEST(VarTreeTest, RandomVarOpsMatchStdMap) {
  ShermanSystem system(SmallFabric(), VarOptions());
  system.BulkLoad({}, 0.8);  // empty start: root growth from a slotted leaf

  std::map<std::string, std::string> model;
  bool done = false;
  sim::Spawn([](TreeClient* c, std::map<std::string, std::string>* model,
                bool* flag) -> sim::Task<void> {
    Random rng(177);
    for (int i = 0; i < 2'500; i++) {
      const std::string key = VarKey(1 + rng.Uniform(400));
      const int action = static_cast<int>(rng.Uniform(4));
      if (action <= 1) {
        const uint64_t d = rng.Uniform(8);
        const uint32_t len =
            d == 0 ? 0
                   : (d < 4 ? 8 + static_cast<uint32_t>(rng.Uniform(56))
                            : (d == 4 ? 64
                                      : 65 + static_cast<uint32_t>(
                                                 rng.Uniform(150))));
        std::string value = "v" + std::to_string(i) + ":";
        if (value.size() > len) value.resize(len);
        value.resize(len, 'x');
        Status st = co_await c->InsertVar(Slice(key), Slice(value));
        EXPECT_TRUE(st.ok()) << st.ToString();
        (*model)[key] = value;
      } else if (action == 2) {
        std::string value;
        Status st = co_await c->LookupVar(Slice(key), &value);
        auto it = model->find(key);
        if (it == model->end()) {
          EXPECT_TRUE(st.IsNotFound()) << key << ": " << st.ToString();
        } else {
          EXPECT_TRUE(st.ok()) << st.ToString();
          EXPECT_EQ(value, it->second) << "key " << key;
        }
      } else {
        Status st = co_await c->DeleteVar(Slice(key));
        if (model->erase(key) > 0) {
          EXPECT_TRUE(st.ok()) << st.ToString();
        } else {
          EXPECT_TRUE(st.IsNotFound()) << st.ToString();
        }
      }
    }
    *flag = true;
  }(&system.client(0), &model, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);

  system.DebugCheckInvariants();
  const auto scan = system.DebugScanLeavesVar();
  ASSERT_EQ(scan.size(), model.size());
  auto it = model.begin();
  for (size_t i = 0; i < scan.size(); i++, ++it) {
    EXPECT_EQ(scan[i].first, it->first);
    EXPECT_EQ(scan[i].second, it->second);
  }
  EXPECT_GT(system.DebugHeight(), 1u) << "run too small to split";
}

// One key updated across the inline threshold in both directions: each
// transition must read back the fresh value, and every out-of-line
// predecessor must be retired (no extent leaks from repeated crossings).
TEST(VarTreeTest, UpdatesCrossInlineThresholdBothWays) {
  ShermanSystem system(SmallFabric(), VarOptions());
  system.BulkLoad({}, 0.8);

  bool done = false;
  sim::Spawn([](TreeClient* c, bool* flag) -> sim::Task<void> {
    const std::string key = VarKey(7);
    uint64_t out_writes = 0;
    for (int round = 0; round < 10; round++) {
      const bool big = (round % 2 == 0);  // out-of-line on even rounds
      const uint32_t len = big ? 150 + round : 8 + round;
      if (big) out_writes++;
      const std::string value(len, static_cast<char>('a' + round));
      EXPECT_TRUE((co_await c->InsertVar(Slice(key), Slice(value))).ok());
      std::string got;
      Status st = co_await c->LookupVar(Slice(key), &got);
      EXPECT_TRUE(st.ok()) << st.ToString();
      EXPECT_EQ(got, value) << "round " << round;
    }
    const vlog::VlogStats& vs = c->vlog().stats();
    EXPECT_EQ(vs.appends, out_writes);
    // The final round wrote inline, so every out-of-line extent ever
    // appended was retired by a later crossing — no extent leaks.
    EXPECT_EQ(vs.retires, out_writes);
    *flag = true;
  }(&system.client(0), &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
  system.DebugCheckInvariants();
}

// BulkLoadVar stages sorted string records into slotted leaves; every key
// must round-trip through LookupVar and the ordered ScanVar cursor must
// walk leaf chains (prefix-truncated suffixes rehydrated) exactly.
TEST(VarTreeTest, BulkLoadVarRoundTripsAndScans) {
  ShermanSystem system(SmallFabric(), VarOptions());
  std::vector<std::pair<std::string, std::string>> kvs;
  for (uint64_t r = 1; r <= 3'000; r++) {
    kvs.emplace_back(VarKey(r), "blv:" + VarKey(r));
  }
  std::sort(kvs.begin(), kvs.end());
  kvs.erase(std::unique(kvs.begin(), kvs.end(),
                        [](const auto& a, const auto& b) {
                          return a.first == b.first;
                        }),
            kvs.end());
  system.BulkLoadVar(kvs, 0.8);
  system.DebugCheckInvariants();
  EXPECT_GT(system.DebugCountLeaves(), 1u);

  bool done = false;
  sim::Spawn([](TreeClient* c,
                const std::vector<std::pair<std::string, std::string>>* kvs,
                bool* flag) -> sim::Task<void> {
    Random rng(31);
    for (int i = 0; i < 200; i++) {
      const auto& [k, v] = (*kvs)[rng.Uniform(kvs->size())];
      std::string got;
      Status st = co_await c->LookupVar(Slice(k), &got);
      EXPECT_TRUE(st.ok()) << st.ToString();
      EXPECT_EQ(got, v);
    }
    // An ordered scan from a random interior key crosses leaf boundaries.
    const size_t at = 500;
    std::vector<std::pair<std::string, std::string>> out;
    Status st = co_await c->ScanVar(Slice((*kvs)[at].first), 300, &out);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(out.size(), 300u);
    for (size_t i = 0; i < out.size() && at + i < kvs->size(); i++) {
      EXPECT_EQ(out[i].first, (*kvs)[at + i].first);
      EXPECT_EQ(out[i].second, (*kvs)[at + i].second);
    }
    *flag = true;
  }(&system.client(0), &kvs, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);

  const auto scan = system.DebugScanLeavesVar();
  ASSERT_EQ(scan.size(), kvs.size());
  for (size_t i = 0; i < scan.size(); i++) {
    EXPECT_EQ(scan[i].first, kvs[i].first);
    EXPECT_EQ(scan[i].second, kvs[i].second);
  }
}

// Batched varlen paths: MultiInsertVar with an in-batch duplicate (the
// later write must win and the superseded extent retire), MultiGetVar
// answering present and absent keys positionally.
// A scan that has emitted rows of leaf A and then finds its next leaf B
// freed (a concurrent delete merged B into A) restarts from the last
// emitted key. The restart lands in the merged A, which still holds that
// key, and must resume strictly after it.
TEST(VarTreeTest, ScanRestartAfterMergeRepeatsNoRow) {
  const TreeOptions topt = VarOptions(1024);
  ShermanSystem system(SmallFabric(2, 2), topt);
  std::vector<std::pair<std::string, std::string>> kvs;
  for (uint32_t r = 1; r <= 400; r++) {
    const std::string d = std::to_string(r);
    kvs.emplace_back("k" + std::string(7 - d.size(), '0') + d, "v" + d);
  }
  // Leaves 30% full: A and B together stay under the merge headroom.
  system.BulkLoadVar(kvs, 0.3);
  const TreeShape& shape = topt.shape;

  // Leaves 2 and 3 of the chain: A and its right sibling B.
  auto node = [&](rdma::GlobalAddress a) {
    return NodeView::Reader(system.fabric().HostRaw(a), &shape);
  };
  rdma::GlobalAddress addr = system.DebugRootAddr();
  while (!node(addr).is_leaf()) addr = node(addr).leftmost_child();
  std::vector<rdma::GlobalAddress> leaves;
  for (; !addr.is_null() && leaves.size() < 4; addr = node(addr).sibling()) {
    leaves.push_back(addr);
  }
  ASSERT_EQ(leaves.size(), 4u);
  const rdma::GlobalAddress a_addr = leaves[2], b_addr = leaves[3];
  auto keys_of = [&](rdma::GlobalAddress leaf) {
    const NodeView v = node(leaf);
    std::vector<std::string> out;
    for (uint32_t i = 0; i < v.count(); i++) out.push_back(v.VarFullKey(i));
    return out;
  };
  const std::vector<std::string> a_keys = keys_of(a_addr);
  const std::vector<std::string> b_keys = keys_of(b_addr);
  ASSERT_GE(a_keys.size(), 10u);

  // Set-up: A's values move out of line (one vlog READ per scanned row, so
  // the scan of A spans many round trips), and B is drained to just above
  // the merge threshold.
  const double merge_below =
      topt.merge_threshold * static_cast<double>(shape.var_usable_bytes());
  bool ready = false;
  sim::Spawn([](ShermanSystem* sys, const std::vector<std::string>* a_keys,
                rdma::GlobalAddress b, double merge_below,
                bool* flag) -> sim::Task<void> {
    TreeClient* c = &sys->client(0);
    const TreeShape& shape = sys->options().shape;
    for (const std::string& k : *a_keys) {
      EXPECT_TRUE((co_await c->InsertVar(k, std::string(100, 'o'))).ok());
    }
    while (true) {
      const NodeView v = NodeView::Reader(sys->fabric().HostRaw(b), &shape);
      const uint32_t last = v.count() - 1;
      if (v.VarLiveBytes() - kVarSlotSize - v.VarEntryBytes(last) <
          merge_below) {
        break;
      }
      EXPECT_TRUE((co_await c->DeleteVar(v.VarFullKey(last))).ok());
    }
    *flag = true;
  }(&system, &a_keys, b_addr, merge_below, &ready));
  system.simulator().Run();
  ASSERT_TRUE(ready);
  ASSERT_FALSE(node(b_addr).is_free());
  const std::vector<std::string> b_left = keys_of(b_addr);

  // The scan of A races one more delete in B, which merges B into A.
  std::vector<std::pair<std::string, std::string>> got;
  bool scanned = false, deleted = false;
  sim::Spawn([](TreeClient* c, const std::string* from, uint32_t count,
                std::vector<std::pair<std::string, std::string>>* out,
                bool* flag) -> sim::Task<void> {
    Status st = co_await c->ScanVar(Slice(*from), count, out);
    EXPECT_TRUE(st.ok()) << st.ToString();
    *flag = true;
  }(&system.client(0), &a_keys.front(),
    static_cast<uint32_t>(a_keys.size() + b_left.size()), &got, &scanned));
  sim::Spawn([](TreeClient* c, const std::string* key,
                bool* flag) -> sim::Task<void> {
    EXPECT_TRUE((co_await c->DeleteVar(*key)).ok());
    *flag = true;
  }(&system.client(1), &b_left.back(), &deleted));
  system.simulator().Run();
  ASSERT_TRUE(scanned && deleted);
  ASSERT_TRUE(node(b_addr).is_free())
      << "the delete did not merge B away";
  system.DebugCheckInvariants();

  // Every row once, in order: A's rows, what B still held, then the rows
  // past B.
  std::vector<std::string> want = a_keys;
  want.insert(want.end(), b_left.begin(), b_left.end() - 1);
  const auto after = std::upper_bound(
      kvs.begin(), kvs.end(), b_keys.back(),
      [](const std::string& k, const auto& kv) { return k < kv.first; });
  for (auto it = after; want.size() < got.size() && it != kvs.end(); ++it) {
    want.push_back(it->first);
  }
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); i++) {
    EXPECT_EQ(got[i].first, want[i]) << "row " << i;
  }
}

TEST(VarTreeTest, MultiInsertVarAndMultiGetVarRoundTrip) {
  ShermanSystem system(SmallFabric(), VarOptions());
  system.BulkLoad({}, 0.8);

  bool done = false;
  sim::Spawn([](TreeClient* c, bool* flag) -> sim::Task<void> {
    std::vector<std::pair<std::string, std::string>> kvs;
    for (uint64_t r = 1; r <= 40; r++) {
      kvs.emplace_back(VarKey(r), std::string(r % 2 == 0 ? 120 : 24,
                                              static_cast<char>('a' + r % 26)));
    }
    kvs.emplace_back(VarKey(5), std::string(200, 'Z'));  // duplicate: wins
    EXPECT_TRUE((co_await c->MultiInsertVar(kvs)).ok());

    std::vector<std::string> keys;
    for (uint64_t r = 1; r <= 40; r++) keys.push_back(VarKey(r));
    keys.push_back(VarKey(9'999));  // absent
    std::vector<VarGetResult> got;
    Status st = co_await c->MultiGetVar(keys, &got);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(got.size(), keys.size());
    if (got.size() != keys.size()) {
      *flag = true;
      co_return;
    }
    for (uint64_t r = 1; r <= 40; r++) {
      const VarGetResult& g = got[r - 1];
      EXPECT_TRUE(g.status.ok()) << "rank " << r << ": "
                                 << g.status.ToString();
      if (r == 5) {
        EXPECT_EQ(g.value, std::string(200, 'Z'));
      } else {
        EXPECT_EQ(g.value, std::string(r % 2 == 0 ? 120 : 24,
                                       static_cast<char>('a' + r % 26)));
      }
    }
    EXPECT_TRUE(got.back().status.IsNotFound());
    *flag = true;
  }(&system.client(0), &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
  system.DebugCheckInvariants();
}

}  // namespace
}  // namespace sherman

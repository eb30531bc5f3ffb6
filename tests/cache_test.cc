// Unit tests for the index cache (§4.2.3).
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "cache/index_cache.h"
#include "util/random.h"

namespace sherman {
namespace {

// --- IndexCache ---

ParsedInternal MakeNode(uint8_t level, Key lo, Key hi, uint64_t addr_seed) {
  ParsedInternal p;
  p.level = level;
  p.lo = lo;
  p.hi = hi;
  p.self = rdma::GlobalAddress(0, 4096 + addr_seed * 1024);
  p.leftmost = rdma::GlobalAddress(1, 4096 + addr_seed * 2048);
  // A couple of children splitting [lo, hi).
  const Key mid = lo + (hi - lo) / 2;
  p.entries.emplace_back(mid, rdma::GlobalAddress(1, 8192 + addr_seed));
  return p;
}

TEST(IndexCacheTest, Level1HitAndMiss) {
  IndexCache cache(1 << 20, 1024, 1);
  cache.Insert(MakeNode(1, 100, 200, 1));
  EXPECT_NE(cache.LookupLevel1(150), nullptr);
  EXPECT_EQ(cache.LookupLevel1(250), nullptr);
  EXPECT_EQ(cache.LookupLevel1(50), nullptr);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(IndexCacheTest, ChildForRoutesWithinCachedNode) {
  IndexCache cache(1 << 20, 1024, 1);
  ParsedInternal n = MakeNode(1, 0, 1000, 2);
  cache.Insert(n);
  const ParsedInternal* hit = cache.LookupLevel1(10);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->ChildFor(10), n.leftmost);
  EXPECT_EQ(hit->ChildFor(600), n.entries[0].second);
}

TEST(IndexCacheTest, UpperCachePrefersDeepestLevel) {
  IndexCache cache(1 << 20, 1024, 1);
  cache.Insert(MakeNode(3, 0, kMaxKey, 3));
  cache.Insert(MakeNode(2, 0, 5000, 4));
  const ParsedInternal* got = cache.LookupUpper(100);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->level, 2);
  // Key outside the level-2 node falls back to level 3.
  got = cache.LookupUpper(9000);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->level, 3);
}

TEST(IndexCacheTest, Level1NodesNeverServeUpperLookups) {
  IndexCache cache(1 << 20, 1024, 1);
  cache.Insert(MakeNode(1, 0, 1000, 5));
  EXPECT_EQ(cache.LookupUpper(10), nullptr);
}

TEST(IndexCacheTest, RefreshInPlaceKeepsOneEntry) {
  IndexCache cache(1 << 20, 1024, 1);
  cache.Insert(MakeNode(1, 100, 200, 6));
  cache.Insert(MakeNode(1, 100, 180, 6));  // same lo, updated hi
  EXPECT_EQ(cache.level1_nodes(), 1u);
  const ParsedInternal* got = cache.LookupLevel1(150);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->hi, 180u);
}

TEST(IndexCacheTest, EvictsUnderCapacityPressure) {
  // Capacity for 4 nodes of 1 KB.
  IndexCache cache(4 * 1024, 1024, 7);
  for (uint64_t i = 0; i < 32; i++) {
    cache.Insert(MakeNode(1, i * 100, (i + 1) * 100, i));
  }
  EXPECT_LE(cache.bytes_used(), 4u * 1024);
  EXPECT_LE(cache.level1_nodes(), 4u);
  EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(IndexCacheTest, EvictionPrefersLeastRecentlyUsed) {
  IndexCache cache(8 * 1024, 1024, 7);
  for (uint64_t i = 0; i < 8; i++) {
    cache.Insert(MakeNode(1, i * 100, (i + 1) * 100, i));
  }
  // Touch node 0 heavily; then overflow. Node 0 should usually survive
  // power-of-two-choices eviction.
  for (int i = 0; i < 50; i++) cache.LookupLevel1(50);
  for (uint64_t i = 8; i < 16; i++) {
    cache.Insert(MakeNode(1, i * 100, (i + 1) * 100, i));
  }
  EXPECT_NE(cache.LookupLevel1(50), nullptr) << "hot entry was evicted";
}

TEST(IndexCacheTest, InvalidateByKeyAndAddress) {
  IndexCache cache(1 << 20, 1024, 1);
  ParsedInternal n = MakeNode(1, 100, 200, 8);
  cache.Insert(n);
  // Wrong address: no-op.
  cache.Invalidate(150, rdma::GlobalAddress(9, 9));
  EXPECT_NE(cache.LookupLevel1(150), nullptr);
  // Right address: dropped.
  cache.Invalidate(150, n.self);
  EXPECT_EQ(cache.LookupLevel1(150), nullptr);
}

TEST(IndexCacheTest, InvalidateLevel1Covering) {
  IndexCache cache(1 << 20, 1024, 1);
  cache.Insert(MakeNode(1, 100, 200, 9));
  cache.InvalidateLevel1Covering(150);
  EXPECT_EQ(cache.LookupLevel1(150), nullptr);
  EXPECT_GE(cache.stats().invalidations, 1u);
  // Covering nothing: harmless.
  cache.InvalidateLevel1Covering(150);
}

TEST(IndexCacheTest, UpperNodesChargedAndBounded) {
  // 64 KB type-① capacity => upper budget max(64K/4, 16*1K) = 16 KB = 16
  // nodes. Insert many distinct level-2 nodes (as stale epochs would) and
  // the budget must hold instead of growing without bound.
  IndexCache cache(64 << 10, 1024, 1);
  for (uint64_t i = 0; i < 200; i++) {
    cache.Insert(MakeNode(2, i * 100, (i + 1) * 100, i));
  }
  EXPECT_LE(cache.upper_bytes_used(), cache.upper_capacity_bytes());
  EXPECT_LE(cache.upper_nodes(), 16u);
  EXPECT_GT(cache.stats().evictions, 0u);
  // bytes_used() reports both tiers.
  EXPECT_EQ(cache.bytes_used(), cache.upper_bytes_used());
}

TEST(IndexCacheTest, UpperRefreshDoesNotDoubleCharge) {
  IndexCache cache(1 << 20, 1024, 1);
  cache.Insert(MakeNode(2, 100, 200, 1));
  const uint64_t once = cache.upper_bytes_used();
  cache.Insert(MakeNode(2, 100, 250, 1));  // same level+lo: refresh in place
  EXPECT_EQ(cache.upper_bytes_used(), once);
  EXPECT_EQ(cache.upper_nodes(), 1u);
  const ParsedInternal* got = cache.LookupUpper(220);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->hi, 250u);
}

TEST(IndexCacheTest, UpperEvictionPrefersLeastRecentlyUsed) {
  // Budget of 16 nodes; fill it, keep node 0 hot, then overflow: the hot
  // node must survive LRU eviction.
  IndexCache cache(64 << 10, 1024, 1);
  for (uint64_t i = 0; i < 16; i++) {
    cache.Insert(MakeNode(2, i * 100, (i + 1) * 100, i));
  }
  for (int i = 0; i < 4; i++) EXPECT_NE(cache.LookupUpper(50), nullptr);
  for (uint64_t i = 16; i < 24; i++) {
    cache.Insert(MakeNode(2, i * 100, (i + 1) * 100, i));
  }
  EXPECT_NE(cache.LookupUpper(50), nullptr) << "hot upper node was evicted";
}

TEST(IndexCacheTest, InvalidateUpperReleasesBudget) {
  IndexCache cache(1 << 20, 1024, 1);
  ParsedInternal n = MakeNode(2, 0, 5000, 20);
  cache.Insert(n);
  EXPECT_EQ(cache.upper_nodes(), 1u);
  cache.Invalidate(100, n.self);
  EXPECT_EQ(cache.upper_nodes(), 0u);
  EXPECT_EQ(cache.upper_bytes_used(), 0u);
}

TEST(IndexCacheTest, InvalidateUpper) {
  IndexCache cache(1 << 20, 1024, 1);
  ParsedInternal n = MakeNode(2, 0, 5000, 10);
  cache.Insert(n);
  cache.Invalidate(100, n.self);
  EXPECT_EQ(cache.LookupUpper(100), nullptr);
}

TEST(IndexCacheTest, ClearDropsEverything) {
  IndexCache cache(1 << 20, 1024, 1);
  cache.Insert(MakeNode(1, 0, 100, 11));
  cache.Insert(MakeNode(2, 0, 10'000, 12));
  cache.Clear();
  EXPECT_EQ(cache.level1_nodes(), 0u);
  EXPECT_EQ(cache.LookupUpper(5), nullptr);
  EXPECT_EQ(cache.bytes_used(), 0u);
}

TEST(IndexCacheTest, HitRatioAccounting) {
  IndexCache cache(1 << 20, 1024, 1);
  cache.Insert(MakeNode(1, 0, 100, 13));
  cache.LookupLevel1(50);   // hit
  cache.LookupLevel1(500);  // miss
  EXPECT_DOUBLE_EQ(cache.stats().HitRatio(), 0.5);
}

// Differential test against a std::map model of the type-① semantics:
// entries are keyed by lo fence, and a lookup hits the entry with the
// greatest lo <= key if its [lo, hi) covers the key. Intervals overlap
// on purpose (stale entries do in a live cache). The capacity exceeds the
// working set, so nothing is evicted and the model stays exact.
TEST(IndexCacheTest, RandomizedAgainstStdMapModel) {
  IndexCache cache(1 << 20, 1024, 3);  // room for 1024 level-1 nodes
  std::map<Key, ParsedInternal> model;
  auto covering = [&](Key key) -> const ParsedInternal* {
    auto it = model.upper_bound(key);
    if (it == model.begin()) return nullptr;
    --it;
    return key < it->second.hi ? &it->second : nullptr;
  };
  Random rng(17);
  for (int i = 0; i < 50'000; i++) {
    const Key key = rng.Uniform(1'000);  // <= 1000 distinct lo fences
    const uint64_t action = rng.Uniform(10);
    if (action < 4) {
      const Key lo = key;
      const Key hi = lo + 1 + rng.Uniform(40);
      ParsedInternal n = MakeNode(1, lo, hi, rng.Uniform(1'000'000));
      for (uint64_t c = rng.Uniform(4); c > 0; c--) {  // varied fan-out
        if (hi - c > n.entries.back().first) {
          n.entries.emplace_back(hi - c, rdma::GlobalAddress(1, c * 64));
        }
      }
      cache.Insert(n);
      model[lo] = n;
    } else if (action < 8) {
      const ParsedInternal* want = covering(key);
      const ParsedInternal* got = cache.LookupLevel1(key);
      ASSERT_EQ(got != nullptr, want != nullptr) << "key " << key;
      if (got != nullptr) {
        EXPECT_EQ(got->lo, want->lo);
        EXPECT_EQ(got->hi, want->hi);
        EXPECT_EQ(got->self, want->self);
        EXPECT_EQ(got->entries, want->entries);
        EXPECT_EQ(got->ChildFor(key), want->ChildFor(key));
      }
    } else if (action == 8) {
      const ParsedInternal* want = covering(key);
      const rdma::GlobalAddress addr =
          (want != nullptr && rng.Uniform(2) == 0) ? want->self
                                                   : rdma::GlobalAddress(7, 7);
      if (want != nullptr && want->self == addr) model.erase(want->lo);
      cache.Invalidate(key, addr);
    } else if (rng.Uniform(8) == 0) {
      const Key hi = key + rng.Uniform(30);
      for (auto it = model.begin(); it != model.end();) {
        it = (it->second.lo < hi && it->second.hi > key) ? model.erase(it)
                                                         : std::next(it);
      }
      cache.InvalidateKeyRange(key, hi);
    } else {
      const ParsedInternal* want = covering(key);
      if (want != nullptr) model.erase(want->lo);
      cache.InvalidateLevel1Covering(key);
    }
    ASSERT_EQ(cache.level1_nodes(), model.size()) << "op " << i;
  }
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.bytes_used(), model.size() * 1024);
}

// Pins the power-of-two-choices victims: with a fixed seed the survivor
// set after overflowing the capacity is fully determined by the sampling
// pool's order (push on insert, swap-remove on removal) and the two
// Uniform draws per eviction. A change to either changes what the
// simulated clients cache, so it must show here.
TEST(IndexCacheTest, EvictionSequenceIsPinned) {
  constexpr uint64_t kCapacityNodes = 16;
  constexpr uint64_t kInserts = 120;
  IndexCache cache(kCapacityNodes * 1024, 1024, 42);
  Random rng(5);
  for (uint64_t i = 0; i < kInserts; i++) {
    cache.Insert(MakeNode(1, i * 100, (i + 1) * 100, i));
    for (int j = 0; j < 3; j++) cache.LookupLevel1(rng.Uniform(i + 1) * 100);
    if (i % 10 == 9) cache.InvalidateLevel1Covering(rng.Uniform(i + 1) * 100);
  }
  std::vector<uint64_t> survivors;
  for (uint64_t i = 0; i < kInserts; i++) {
    if (cache.LookupLevel1(i * 100) != nullptr) survivors.push_back(i);
  }
  EXPECT_EQ(survivors,
            (std::vector<uint64_t>{94, 99, 102, 103, 105, 106, 108, 111, 112,
                                   113, 114, 116, 117, 118, 119}));
  EXPECT_EQ(cache.level1_nodes(), survivors.size());
}

}  // namespace
}  // namespace sherman

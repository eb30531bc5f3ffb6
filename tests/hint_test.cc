// Leaf-hint sidecar staleness: a hinted leaf that is concurrently split,
// merged away, migrated to another MS, or freed-and-recycled into a
// different role must only ever cost the lookup a fallback — never a
// wrong value, never a failed op. Each scenario warms one client's hint
// mirror, mutates the tree through a DIFFERENT client (so the victim's
// mirror goes stale), then re-reads through the stale mirror and checks
// both the values and the hint-feedback counters. The crash-site sweep at
// the hint-publish/invalidate milestones lives in recover_test
// (CrashSweepTest covers hint.publish and hint.invalidate).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "bench/runner.h"
#include "core/btree.h"
#include "core/presets.h"
#include "migrate/migrator.h"
#include "workload/workload.h"

namespace sherman {
namespace {

rdma::FabricConfig SmallFabric(int ms = 2, int cs = 2) {
  rdma::FabricConfig f;
  f.num_memory_servers = ms;
  f.num_compute_servers = cs;
  f.ms_memory_bytes = 32ull << 20;
  return f;
}

// The split and merge scenarios run on both leaf layouts: fixed u64 keys
// through Insert/Lookup/Delete, and string keys over slotted leaves through
// InsertVar/LookupVar/DeleteVar. Both layouts run the same locked-write and
// lock-free read loops, so both must keep their hint-stale rules.
enum class Layout { kFixed, kVarlen };

const char* LayoutName(Layout layout) {
  return layout == Layout::kFixed ? "fixed" : "varlen";
}

TreeOptions HintOptions(Layout layout = Layout::kFixed) {
  TreeOptions topt = ShermanOptions();
  topt.shape.node_size = 256;  // small nodes: splits/merges fire fast
  if (layout == Layout::kVarlen) {
    topt.two_level_versions = false;  // varlen requires sorted leaves
    topt.shape.varlen = true;
    topt.shape.node_size = 512;  // room for two maximal slotted entries
  }
  topt.enable_cache = false;   // isolate the hint path from the cache
  topt.cache_bytes = 0;
  topt.enable_leaf_hints = true;
  // A huge refresh threshold keeps the victim's mirror frozen at its
  // warm-time contents — every scenario below depends on the mirror NOT
  // healing itself by refetching mid-test.
  topt.hint_refresh_miss_threshold = 1'000'000;
  return topt;
}

// Varlen key and loaded value of rank `r` (values stay inline).
std::string VarKey(uint64_t r) {
  return WorkloadGenerator::StringKeyFor(r, 16, 40);
}
std::string VarValue(const std::string& key) { return "v:" + key; }

// Loads ranks [0, n) with `fill`-full leaves.
void LoadRanks(ShermanSystem* system, Layout layout, uint64_t n, double fill) {
  if (layout == Layout::kFixed) {
    system->BulkLoad(bench::MakeLoadKvs(n), fill);
    return;
  }
  std::vector<std::pair<std::string, std::string>> kvs;
  for (uint64_t r = 0; r < n; r++) {
    kvs.emplace_back(VarKey(r), VarValue(VarKey(r)));
  }
  std::sort(kvs.begin(), kvs.end());
  system->BulkLoadVar(kvs, fill);
}

// Point lookup of loaded rank `r`: OK only with the loaded value.
sim::Task<Status> LookupRank(TreeClient* c, Layout layout, uint64_t r) {
  if (layout == Layout::kFixed) {
    const Key k = WorkloadGenerator::LoadedKeyFor(r);
    uint64_t v = 0;
    const Status st = co_await c->Lookup(k, &v);
    if (st.ok() && v != k * 31 + 7) co_return Status::Corruption("bad value");
    co_return st;
  }
  const std::string k = VarKey(r);
  std::string v;
  const Status st = co_await c->LookupVar(k, &v);
  if (st.ok() && v != VarValue(k)) co_return Status::Corruption("bad value");
  co_return st;
}

// Inserts a fresh key right after loaded rank `r` (same leaf).
sim::Task<Status> InsertBesideRank(TreeClient* c, Layout layout, uint64_t r) {
  if (layout == Layout::kFixed) {
    const Key k = WorkloadGenerator::LoadedKeyFor(r) + 1;
    co_return co_await c->Insert(k, k);
  }
  co_return co_await c->InsertVar(VarKey(r) + "+", "fresh");
}

sim::Task<Status> DeleteRank(TreeClient* c, Layout layout, uint64_t r) {
  if (layout == Layout::kFixed) {
    co_return co_await c->Delete(WorkloadGenerator::LoadedKeyFor(r));
  }
  co_return co_await c->DeleteVar(VarKey(r));
}

// Looks up every loaded rank in [0, n) through `c` and checks the value.
sim::Task<void> VerifyAll(TreeClient* c, uint64_t n, bool* done,
                          Layout layout = Layout::kFixed) {
  for (uint64_t r = 0; r < n; r++) {
    const Status st = co_await LookupRank(c, layout, r);
    EXPECT_TRUE(st.ok()) << "rank " << r << ": " << st.ToString();
  }
  *done = true;
}

// One lookup to warm the client's mirror (the first consult fetches every
// MS's table).
sim::Task<void> WarmMirror(TreeClient* c, bool* done,
                           Layout layout = Layout::kFixed) {
  const Status st = co_await LookupRank(c, layout, 0);
  EXPECT_TRUE(st.ok()) << st.ToString();
  *done = true;
}

void RunToDone(ShermanSystem* system, bool* done) {
  system->simulator().Run();
  ASSERT_TRUE(*done);
}

// --- split ------------------------------------------------------------------
// The victim's mirror predates a burst of inserts that splits hinted
// leaves; keys that moved to new right siblings must still be served
// (B-link chase from the hinted leaf), and keys in split-off siblings the
// mirror has never heard of must fall back cleanly.
TEST(HintStalenessTest, HintedLeafConcurrentlySplit) {
  for (Layout layout : {Layout::kFixed, Layout::kVarlen}) {
    SCOPED_TRACE(LayoutName(layout));
    ShermanSystem system(SmallFabric(), HintOptions(layout));
    const uint64_t n = 2'000;
    LoadRanks(&system, layout, n, 1.0);  // full leaves: split-prone

    bool warmed = false;
    sim::Spawn(WarmMirror(&system.client(1), &warmed, layout));
    RunToDone(&system, &warmed);

    // Client 0 inserts a key right after every loaded one: every leaf
    // overflows and splits. Client 1's mirror still maps pre-split ranges.
    bool churned = false;
    sim::Spawn([](TreeClient* c, Layout l, uint64_t keys,
                  bool* done) -> sim::Task<void> {
      for (uint64_t r = 0; r < keys; r++) {
        EXPECT_TRUE((co_await InsertBesideRank(c, l, r)).ok());
      }
      *done = true;
    }(&system.client(0), layout, n, &churned));
    RunToDone(&system, &churned);

    bool verified = false;
    sim::Spawn(VerifyAll(&system.client(1), n, &verified, layout));
    RunToDone(&system, &verified);

    const TreeClient::HintStats& h = system.client(1).hint_stats();
    EXPECT_GT(h.consults, 0u);
    // Post-split reads from the stale mirror must have chased or fallen
    // back at least once — if not, the scenario never went stale.
    EXPECT_GT(h.chases + h.stale, 0u) << "splits never invalidated a hint";
    system.DebugCheckInvariants();
  }
}

// --- merge ------------------------------------------------------------------
// Mass deletion merges most leaves away; the victim's mirror still points
// at freed nodes. Every surviving key must read correctly (validation
// rejects the freed leaf, traversal serves it) and every deleted key must
// report NotFound — not a failure.
TEST(HintStalenessTest, HintedLeafConcurrentlyMerged) {
  for (Layout layout : {Layout::kFixed, Layout::kVarlen}) {
    SCOPED_TRACE(LayoutName(layout));
    ShermanSystem system(SmallFabric(), HintOptions(layout));
    const uint64_t n = 2'000;
    LoadRanks(&system, layout, n, 1.0);

    bool warmed = false;
    sim::Spawn(WarmMirror(&system.client(1), &warmed, layout));
    RunToDone(&system, &warmed);

    bool churned = false;
    sim::Spawn([](TreeClient* c, Layout l, uint64_t keys,
                  bool* done) -> sim::Task<void> {
      for (uint64_t r = 0; r < keys; r++) {
        if (r % 16 == 0) continue;  // keep 1 of every 16
        EXPECT_TRUE((co_await DeleteRank(c, l, r)).ok());
      }
      *done = true;
    }(&system.client(0), layout, n, &churned));
    RunToDone(&system, &churned);

    bool verified = false;
    sim::Spawn([](TreeClient* c, Layout l, uint64_t keys,
                  bool* done) -> sim::Task<void> {
      for (uint64_t r = 0; r < keys; r++) {
        const Status st = co_await LookupRank(c, l, r);
        if (r % 16 == 0) {
          EXPECT_TRUE(st.ok()) << "rank " << r << ": " << st.ToString();
        } else {
          EXPECT_TRUE(st.IsNotFound())
              << "rank " << r << ": " << st.ToString();
        }
      }
      *done = true;
    }(&system.client(1), layout, n, &verified));
    RunToDone(&system, &verified);

    const TreeClient::HintStats& h = system.client(1).hint_stats();
    EXPECT_GT(h.stale, 0u) << "merges never invalidated a hint";
    system.DebugCheckInvariants();
  }
}

// --- migrate ----------------------------------------------------------------
// Half the key range moves to a freshly added MS; the victim's mirror
// still maps it to the source copies (freed after the flip). Reads must
// re-home transparently.
TEST(HintStalenessTest, HintedLeafConcurrentlyMigrated) {
  ShermanSystem system(SmallFabric(), HintOptions());
  const uint64_t n = 4'000;
  system.BulkLoad(bench::MakeLoadKvs(n), 0.8);

  bool warmed = false;
  sim::Spawn(WarmMirror(&system.client(1), &warmed));
  RunToDone(&system, &warmed);

  const int target = system.AddMemoryServer();
  migrate::Migrator mig(&system, {});
  Status st;
  bool moved = false;
  sim::Spawn([](migrate::Migrator* m, Key hi, uint16_t t, Status* out,
                bool* done) -> sim::Task<void> {
    *out = co_await m->MigrateRange(1, hi, t);
    *done = true;
  }(&mig, WorkloadGenerator::LoadedKeyFor(n / 2), static_cast<uint16_t>(target),
    &st, &moved));
  RunToDone(&system, &moved);
  ASSERT_TRUE(st.ok()) << st.ToString();

  bool verified = false;
  sim::Spawn(VerifyAll(&system.client(1), n, &verified));
  RunToDone(&system, &verified);

  const TreeClient::HintStats& h = system.client(1).hint_stats();
  EXPECT_GT(h.consults, 0u);
  EXPECT_GT(h.stale, 0u) << "migration never invalidated a hint";
  system.DebugCheckInvariants();
}

// --- recycle ----------------------------------------------------------------
// Delete churn frees leaves, insert churn recycles their addresses into
// NEW nodes (possibly internal, possibly leaves with different fences).
// A stale mirror entry pointing at a recycled address must be rejected by
// the role/fence validation — never served.
TEST(HintStalenessTest, HintedLeafAddressRecycled) {
  ShermanSystem system(SmallFabric(), HintOptions());
  const uint64_t n = 2'000;
  system.BulkLoad(bench::MakeLoadKvs(n), 1.0);

  bool warmed = false;
  sim::Spawn(WarmMirror(&system.client(1), &warmed));
  RunToDone(&system, &warmed);

  // Client 0: delete the top half (merges free leaves), then insert a
  // dense run of fresh keys below the surviving range (splits allocate,
  // recycling the freed addresses).
  bool churned = false;
  sim::Spawn([](TreeClient* c, uint64_t keys, bool* done) -> sim::Task<void> {
    for (uint64_t r = keys / 2; r < keys; r++) {
      EXPECT_TRUE(
          (co_await c->Delete(WorkloadGenerator::LoadedKeyFor(r))).ok());
    }
    for (uint64_t r = 0; r < keys / 2; r++) {
      const Key k = WorkloadGenerator::LoadedKeyFor(r) + 1;
      EXPECT_TRUE((co_await c->Insert(k, k)).ok());
    }
    *done = true;
  }(&system.client(0), n, &churned));
  RunToDone(&system, &churned);

  uint64_t recycled = 0;
  for (int ms = 0; ms < system.num_chunk_managers(); ms++) {
    recycled += system.chunk_manager(ms).nodes_recycled();
  }
  ASSERT_GT(recycled, 0u) << "churn never recycled a freed node";

  // Surviving + fresh keys all correct through the stale mirror; deleted
  // keys NotFound.
  bool verified = false;
  sim::Spawn([](TreeClient* c, uint64_t keys, bool* done) -> sim::Task<void> {
    for (uint64_t r = 0; r < keys; r++) {
      const Key k = WorkloadGenerator::LoadedKeyFor(r);
      uint64_t v = 0;
      const Status st = co_await c->Lookup(k, &v);
      if (r < keys / 2) {
        EXPECT_TRUE(st.ok()) << "rank " << r << ": " << st.ToString();
        EXPECT_EQ(v, k * 31 + 7);
      } else {
        EXPECT_TRUE(st.IsNotFound()) << "rank " << r << ": " << st.ToString();
      }
    }
    *done = true;
  }(&system.client(1), n, &verified));
  RunToDone(&system, &verified);

  const TreeClient::HintStats& h = system.client(1).hint_stats();
  EXPECT_GT(h.stale, 0u) << "recycled addresses never tripped validation";
  system.DebugCheckInvariants();
}

}  // namespace
}  // namespace sherman

// IndexCache: the compute-server-side cache of internal tree nodes
// (§4.2.3).
//
// Type ① — level-1 nodes (parents of leaves) — are cached under a byte
// capacity and evicted with power-of-two-choices: sample two random cached
// nodes and drop the least recently used. A hit resolves a key directly to
// a leaf address (one RDMA_READ per operation in the ideal case). The
// paper keys this cache with a skiplist; here the nodes live in a slot
// arena recycled through a free list (a reused slot keeps its buffers, so
// a refill copies without allocating) and lookups binary-search a sorted
// array of {lo fence, hi fence, slot}. That is a host structure only: the
// simulated lookup charge (`cpu_cache_lookup_ns`) does not depend on it.
//
// Type ② — the upper levels (level >= 2, including the root) — are cached
// in per-level ordered maps under a dedicated byte budget (a quarter of the
// type-① capacity, floored at 16 nodes). A healthy tree has only a handful
// of such nodes, but stale entries accumulate across splits and root moves,
// so they are charged and LRU-evicted like any other cached node instead of
// growing without bound.
//
// The cache never causes consistency issues: fetched nodes carry fence keys
// and level, which the tree validates; on violation the tree calls
// Invalidate() and retries (the paper's lazy invalidation).
#ifndef SHERMAN_CACHE_INDEX_CACHE_H_
#define SHERMAN_CACHE_INDEX_CACHE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "core/node_layout.h"
#include "rdma/global_address.h"
#include "util/random.h"

namespace sherman {

struct IndexCacheStats {
  uint64_t hits = 0;    // type-① (level-1) lookups
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t invalidations = 0;
  uint64_t upper_hits = 0;   // type-② (level >= 2) lookups, counted
  uint64_t upper_misses = 0; // separately: they shorten a descent rather
                             // than replace it

  double HitRatio() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

class IndexCache {
 public:
  IndexCache(uint64_t capacity_bytes, uint32_t node_bytes, uint64_t seed);
  ~IndexCache();

  IndexCache(const IndexCache&) = delete;
  IndexCache& operator=(const IndexCache&) = delete;

  // Type-① lookup: if a cached level-1 node covers `key`, returns it (its
  // ChildFor(key) is the target leaf). Counts a hit/miss. Returned nodes
  // (here and from LookupUpper) stay valid until the next call that
  // inserts or drops entries.
  const ParsedInternal* LookupLevel1(Key key);

  // Caches a node: level-1 nodes go to the bounded type-① structure;
  // levels >= 2 go to the unbounded type-② top cache.
  void Insert(const ParsedInternal& node);

  // Type-② lookup: deepest cached upper-level node covering `key` (never
  // level 1). Returns nullptr if none (caller starts at the root).
  const ParsedInternal* LookupUpper(Key key);

  // Drops the cached node (any type) whose range covers `key` at address
  // `addr` — called when a fetched child contradicts the cached pointer.
  void Invalidate(Key key, rdma::GlobalAddress addr);

  // Drops the type-① entry covering `key` regardless of address — called
  // when the leaf it steered to failed its fence check (lazy invalidation,
  // §4.2.3).
  void InvalidateLevel1Covering(Key key);

  // Drops type-② entries covering `key` whose child pointer for `key` is
  // `child` — called when a descent through `child` found a tombstoned
  // (migrated-away) node: the live parent was flipped in place, so any
  // cached copy still steering to `child` is stale.
  void InvalidateUpperCovering(Key key, rdma::GlobalAddress child);

  // Drops every type-① entry whose fence interval intersects [lo, hi) —
  // the flip-time invalidation broadcast of a shard migration. Cached
  // leaf translations in the migrated range point at tombstones; dropping
  // them here saves every client one wasted READ + restart per key.
  void InvalidateKeyRange(Key lo, Key hi);

  // Drops everything (used when the root moves).
  void Clear();

  const IndexCacheStats& stats() const { return stats_; }
  uint64_t bytes_used() const { return bytes_used_ + upper_bytes_; }
  uint64_t capacity_bytes() const { return capacity_bytes_; }
  size_t level1_nodes() const { return pool_.size(); }
  size_t upper_nodes() const { return upper_count_; }
  uint64_t upper_bytes_used() const { return upper_bytes_; }
  uint64_t upper_capacity_bytes() const { return upper_capacity_bytes_; }

 private:
  struct Entry {
    ParsedInternal node;
    uint64_t last_used = 0;
    uint32_t pool_index = 0;  // position in pool_ for O(1) random sampling
  };
  // One type-① entry in lo-fence order; `hi` rides along so a miss is
  // decided without touching the slot.
  struct IndexRef {
    Key lo;
    Key hi;
    uint32_t slot;
  };
  struct UpperEntry {
    ParsedInternal node;
    uint64_t last_used = 0;
  };

  // First index_ entry with lo >= `key`.
  std::vector<IndexRef>::iterator LowerBound(Key key);
  // The type-① entry covering `key` (greatest lo <= key, key < hi), or
  // index_.end().
  std::vector<IndexRef>::iterator FindCovering(Key key);

  static constexpr uint32_t kNoSlot = ~0u;

  uint32_t AllocSlot();
  // Evicts one type-① node if over capacity, releasing its slot but
  // leaving its index_ entry to the caller; returns it (or kNoSlot).
  uint32_t EvictIfNeeded();
  void EvictUpperIfNeeded();
  // Drops a live type-① node from index_, the pool and the arena.
  void RemoveEntry(uint32_t slot);
  // Drops a type-① node from the pool and recycles its slot.
  void ReleaseSlot(uint32_t slot);

  uint64_t capacity_bytes_;
  uint64_t upper_capacity_bytes_;
  uint32_t node_bytes_;
  Random rng_;
  uint64_t tick_ = 0;
  uint64_t bytes_used_ = 0;
  uint64_t upper_bytes_ = 0;
  size_t upper_count_ = 0;

  std::vector<Entry> slots_;      // type-① arena, grown on demand
  std::vector<uint32_t> free_;    // recycled slots of slots_
  std::vector<IndexRef> index_;   // live entries sorted by lo fence
  std::vector<uint32_t> pool_;    // live slots, random-sampling mirror

  // Type-② top cache: level -> (lo fence -> entry).
  std::map<uint8_t, std::map<Key, UpperEntry>> upper_;

  IndexCacheStats stats_;
};

}  // namespace sherman

#endif  // SHERMAN_CACHE_INDEX_CACHE_H_

#include "cache/index_cache.h"

#include <algorithm>

#include "util/logging.h"

namespace sherman {

IndexCache::IndexCache(uint64_t capacity_bytes, uint32_t node_bytes,
                       uint64_t seed)
    : capacity_bytes_(capacity_bytes),
      // A healthy tree has few level>=2 nodes, but stale entries pile up
      // across splits/root moves; give them a bounded side budget instead
      // of the historical "never charged, never evicted".
      upper_capacity_bytes_(
          capacity_bytes == 0
              ? 0
              : std::max<uint64_t>(capacity_bytes / 4,
                                   16ull * node_bytes)),
      node_bytes_(node_bytes),
      rng_(seed) {}

IndexCache::~IndexCache() = default;

std::vector<IndexCache::IndexRef>::iterator IndexCache::LowerBound(Key key) {
  return std::lower_bound(
      index_.begin(), index_.end(), key,
      [](const IndexRef& r, Key k) { return r.lo < k; });
}

std::vector<IndexCache::IndexRef>::iterator IndexCache::FindCovering(
    Key key) {
  auto it = std::upper_bound(
      index_.begin(), index_.end(), key,
      [](Key k, const IndexRef& r) { return k < r.lo; });
  if (it == index_.begin()) return index_.end();
  --it;
  return key < it->hi ? it : index_.end();
}

const ParsedInternal* IndexCache::LookupLevel1(Key key) {
  const auto it = FindCovering(key);
  if (it != index_.end()) {
    Entry& e = slots_[it->slot];
    e.last_used = ++tick_;
    stats_.hits++;
    return &e.node;
  }
  stats_.misses++;
  return nullptr;
}

void IndexCache::Insert(const ParsedInternal& node) {
  if (node.level != 1) {
    std::map<Key, UpperEntry>& nodes = upper_[node.level];
    auto [it, inserted] = nodes.try_emplace(node.lo);
    it->second.node = node;
    it->second.last_used = ++tick_;
    if (inserted) {
      upper_count_++;
      upper_bytes_ += node_bytes_;
      EvictUpperIfNeeded();
    }
    return;
  }
  const auto it = LowerBound(node.lo);
  if (it != index_.end() && it->lo == node.lo) {
    // Refresh in place.
    Entry& e = slots_[it->slot];
    e.node = node;
    e.last_used = ++tick_;
    it->hi = node.hi;
    return;
  }
  const uint32_t slot = AllocSlot();
  Entry& e = slots_[slot];
  e.node = node;  // a recycled slot reuses its entries' capacity
  e.last_used = ++tick_;
  e.pool_index = static_cast<uint32_t>(pool_.size());
  pool_.push_back(slot);
  bytes_used_ += node_bytes_;
  // The new node joins index_ after eviction so that an evicting insert
  // moves only the index span between the victim and the new position.
  const IndexRef ref{node.lo, node.hi, slot};
  const uint32_t victim = EvictIfNeeded();
  if (victim == slot) return;  // the new node itself was evicted
  if (victim == kNoSlot) {
    index_.insert(it, ref);
    return;
  }
  const auto gone = LowerBound(slots_[victim].node.lo);
  SHERMAN_CHECK(gone != index_.end() && gone->slot == victim);
  if (gone < it) {
    // Entries between the victim and the new position slide left.
    std::move(gone + 1, it, gone);
    *(it - 1) = ref;
  } else {
    std::move_backward(it, gone, gone + 1);
    *it = ref;
  }
}

uint32_t IndexCache::AllocSlot() {
  if (!free_.empty()) {
    const uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  slots_.emplace_back();
  return static_cast<uint32_t>(slots_.size() - 1);
}

const ParsedInternal* IndexCache::LookupUpper(Key key) {
  // Deepest (smallest level) upper node covering key.
  for (auto& [level, nodes] : upper_) {
    auto it = nodes.upper_bound(key);
    if (it == nodes.begin()) continue;
    --it;
    UpperEntry& e = it->second;
    if (key >= e.node.lo && key < e.node.hi) {
      e.last_used = ++tick_;
      stats_.upper_hits++;
      return &e.node;
    }
  }
  stats_.upper_misses++;
  return nullptr;
}

void IndexCache::Invalidate(Key key, rdma::GlobalAddress addr) {
  const auto level1 = FindCovering(key);
  if (level1 != index_.end() && slots_[level1->slot].node.self == addr) {
    stats_.invalidations++;
    RemoveEntry(level1->slot);
    return;
  }
  for (auto& [level, nodes] : upper_) {
    auto it = nodes.upper_bound(key);
    if (it == nodes.begin()) continue;
    --it;
    const ParsedInternal& node = it->second.node;
    if (node.self == addr && key >= node.lo && key < node.hi) {
      stats_.invalidations++;
      nodes.erase(it);
      upper_count_--;
      upper_bytes_ -= node_bytes_;
      return;
    }
  }
}

void IndexCache::InvalidateLevel1Covering(Key key) {
  const auto it = FindCovering(key);
  if (it != index_.end()) {
    stats_.invalidations++;
    RemoveEntry(it->slot);
  }
}

void IndexCache::InvalidateUpperCovering(Key key, rdma::GlobalAddress child) {
  for (auto& [level, nodes] : upper_) {
    auto it = nodes.upper_bound(key);
    if (it == nodes.begin()) continue;
    --it;
    const ParsedInternal& node = it->second.node;
    if (key >= node.lo && key < node.hi && node.ChildFor(key) == child) {
      stats_.invalidations++;
      nodes.erase(it);
      upper_count_--;
      upper_bytes_ -= node_bytes_;
    }
  }
}

void IndexCache::InvalidateKeyRange(Key lo, Key hi) {
  // Removal swap-reorders pool_, so collect first, in pool order.
  std::vector<uint32_t> victims;
  for (const uint32_t slot : pool_) {
    const ParsedInternal& node = slots_[slot].node;
    if (node.lo < hi && node.hi > lo) victims.push_back(slot);
  }
  for (const uint32_t slot : victims) {
    stats_.invalidations++;
    RemoveEntry(slot);
  }
}

void IndexCache::Clear() {
  free_.insert(free_.end(), pool_.begin(), pool_.end());
  pool_.clear();
  index_.clear();
  bytes_used_ = 0;
  upper_.clear();
  upper_count_ = 0;
  upper_bytes_ = 0;
}

void IndexCache::RemoveEntry(uint32_t slot) {
  const auto it = LowerBound(slots_[slot].node.lo);
  SHERMAN_CHECK(it != index_.end() && it->slot == slot);
  index_.erase(it);
  ReleaseSlot(slot);
}

void IndexCache::ReleaseSlot(uint32_t slot) {
  // Swap-remove from the sampling pool, then recycle the slot.
  const uint32_t idx = slots_[slot].pool_index;
  SHERMAN_CHECK(idx < pool_.size() && pool_[idx] == slot);
  pool_[idx] = pool_.back();
  slots_[pool_[idx]].pool_index = idx;
  pool_.pop_back();
  free_.push_back(slot);
  bytes_used_ -= node_bytes_;
}

void IndexCache::EvictUpperIfNeeded() {
  // The population is small by construction (bounded by the budget), so a
  // full LRU scan per eviction is fine.
  while (upper_bytes_ > upper_capacity_bytes_ && upper_count_ > 1) {
    uint8_t victim_level = 0;
    Key victim_lo = 0;
    uint64_t oldest = ~0ull;
    for (const auto& [level, nodes] : upper_) {
      for (const auto& [lo, e] : nodes) {
        if (e.last_used < oldest) {
          oldest = e.last_used;
          victim_level = level;
          victim_lo = lo;
        }
      }
    }
    upper_[victim_level].erase(victim_lo);
    upper_count_--;
    upper_bytes_ -= node_bytes_;
    stats_.evictions++;
  }
}

uint32_t IndexCache::EvictIfNeeded() {
  // Power-of-two-choices (§4.2.3): sample two cached nodes, evict the one
  // least recently used. The cache was within capacity (or held a single
  // node) before the insert that calls this, so one eviction restores it.
  if (bytes_used_ <= capacity_bytes_ || pool_.size() <= 1) return kNoSlot;
  const uint32_t a = pool_[rng_.Uniform(pool_.size())];
  const uint32_t b = pool_[rng_.Uniform(pool_.size())];
  const uint32_t victim =
      (slots_[a].last_used <= slots_[b].last_used) ? a : b;
  stats_.evictions++;
  ReleaseSlot(victim);
  return victim;
}

}  // namespace sherman

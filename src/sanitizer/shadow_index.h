// DMSan's shadow indexes. They are consulted on every posted work request
// and every validation, so a lookup is a few array probes rather than a
// walk of a node-based tree.
//
// GranuleIndex and RangeIndex hold shadow records for disjoint
// [base, base + size) ranges of each memory server's address space, and
// share one interface: Find the record containing an offset, Insert a
// record (replacing any it overlaps), EraseOverlapping, ForEach, size.
// TaintIndex holds the host buffers of unvalidated lock-free reads.
#ifndef SHERMAN_SANITIZER_SHADOW_INDEX_H_
#define SHERMAN_SANITIZER_SHADOW_INDEX_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "alloc/layout.h"
#include "util/logging.h"

namespace sherman::dmsan {

// GranuleIndex: ranges no shorter than a granule (a power of two), found
// in O(1). Each MS has a table with one slot per granule of its address
// space, naming the record that covers the granule's first byte and the
// record that begins inside the granule after it; there is at most one of
// each, since no range is shorter than a granule. Used for tree nodes,
// whose ranges are one node or more. T carries the range length in a
// `size` member.
template <typename T>
class GranuleIndex {
 public:
  struct Record {
    uint64_t base;
    T shadow;
  };

  // `granule` is rounded down to a power of two.
  explicit GranuleIndex(uint32_t granule)
      : shift_(std::bit_width(granule) - 1) {
    SHERMAN_CHECK(granule > 0);
  }

  Record* Find(uint16_t ms, uint64_t offset) {
    if (ms >= tables_.size() || offset >> shift_ >= tables_[ms].size()) {
      return nullptr;
    }
    const Slot slot = tables_[ms][offset >> shift_];
    if (slot.starts != 0) {
      Entry& e = entries_[slot.starts - 1];
      if (e.rec.base <= offset) return Contains(e, offset) ? &e.rec : nullptr;
    }
    if (slot.covers != 0) {
      Entry& e = entries_[slot.covers - 1];
      if (Contains(e, offset)) return &e.rec;
    }
    return nullptr;
  }

  T& Insert(uint16_t ms, uint64_t base, const T& shadow) {
    SHERMAN_CHECK(shadow.size >= uint64_t{1} << shift_);
    EraseOverlapping(ms, base, base + shadow.size);
    uint32_t id;
    if (free_.empty()) {
      id = static_cast<uint32_t>(entries_.size());
      entries_.push_back(Entry{ms, Record{base, shadow}});
    } else {
      id = free_.back();
      free_.pop_back();
      entries_[id] = Entry{ms, Record{base, shadow}};
    }
    count_++;
    if (ms >= tables_.size()) tables_.resize(ms + 1);
    std::vector<Slot>& table = tables_[ms];
    const uint64_t last = (base + shadow.size - 1) >> shift_;
    if (last >= table.size()) table.resize(last + 1);
    for (uint64_t g = base >> shift_; g <= last; g++) {
      (g << shift_ >= base ? table[g].covers : table[g].starts) = id + 1;
    }
    return entries_[id].rec.shadow;
  }

  void EraseOverlapping(uint16_t ms, uint64_t begin, uint64_t end) {
    if (begin >= end || ms >= tables_.size() ||
        begin >> shift_ >= tables_[ms].size()) {
      return;
    }
    std::vector<Slot>& table = tables_[ms];
    // A record overlapping the range contains one of its bytes, so a slot
    // of that byte's granule names it.
    const uint64_t last = std::min<uint64_t>((end - 1) >> shift_,
                                             table.size() - 1);
    for (uint64_t g = begin >> shift_; g <= last; g++) {
      for (const uint32_t ref : {table[g].starts, table[g].covers}) {
        if (ref == 0) continue;
        const Entry& e = entries_[ref - 1];
        if (e.rec.base < end && e.rec.base + e.rec.shadow.size > begin) {
          Erase(ref - 1);
        }
      }
    }
  }

  // Calls f(ms, base, shadow) for every record.
  template <typename F>
  void ForEach(F&& f) {
    for (Entry& e : entries_) {
      if (e.rec.shadow.size != 0) f(e.ms, e.rec.base, e.rec.shadow);
    }
  }

  uint64_t size() const { return count_; }

 private:
  struct Entry {
    uint16_t ms;
    Record rec;  // shadow.size == 0: a free entry
  };
  struct Slot {
    uint32_t covers = 0;  // entry id + 1 of the record holding the first byte
    uint32_t starts = 0;  // entry id + 1 of a record beginning after it
  };

  static bool Contains(const Entry& e, uint64_t offset) {
    return offset - e.rec.base < e.rec.shadow.size;
  }

  void Erase(uint32_t id) {
    Entry& e = entries_[id];
    std::vector<Slot>& table = tables_[e.ms];
    const uint64_t last = (e.rec.base + e.rec.shadow.size - 1) >> shift_;
    for (uint64_t g = e.rec.base >> shift_; g <= last; g++) {
      if (table[g].covers == id + 1) table[g].covers = 0;
      if (table[g].starts == id + 1) table[g].starts = 0;
    }
    e.rec.shadow.size = 0;
    free_.push_back(id);
    count_--;
  }

  int shift_;
  std::vector<std::vector<Slot>> tables_;  // [ms][offset >> shift_]
  std::vector<Entry> entries_;             // by id
  std::vector<uint32_t> free_;             // ids of free entries
  uint64_t count_ = 0;
};

// RangeIndex: ranges of any length, for value-log extents (64 B and up).
// Records are bucketed per MS by the chunk (alloc/layout.h kChunkSize)
// their base falls in, and kept sorted by base inside a bucket. A lookup
// is two vector indexings plus a binary search over one chunk's records,
// and the allocator's bump order within a chunk appends at the bucket's
// end. A record may reach into the next chunk but no further: no range is
// larger than a chunk. T carries the range length in a `size` member.
template <typename T>
class RangeIndex {
 public:
  struct Record {
    uint64_t base;
    T shadow;
  };

  // The record whose range contains `offset` on `ms`, or nullptr.
  Record* Find(uint16_t ms, uint64_t offset) {
    if (ms >= buckets_.size()) return nullptr;
    std::vector<Bucket>& per_ms = buckets_[ms];
    const uint64_t chunk = offset / kChunkSize;
    // Ranges are disjoint, so the container is the last record at or below
    // `offset` in its chunk or, if the chunk has none, the last record of
    // the chunk before.
    Record* r = nullptr;
    if (chunk < per_ms.size()) {
      Bucket& b = per_ms[chunk];
      const auto it = std::upper_bound(b.begin(), b.end(), offset, BaseAbove);
      if (it != b.begin()) r = &*std::prev(it);
    }
    if (r == nullptr && chunk > 0 && chunk - 1 < per_ms.size() &&
        !per_ms[chunk - 1].empty()) {
      r = &per_ms[chunk - 1].back();
    }
    return r != nullptr && offset < r->base + r->shadow.size ? r : nullptr;
  }

  // Adds a record for [base, base + shadow.size), replacing any record it
  // overlaps.
  T& Insert(uint16_t ms, uint64_t base, const T& shadow) {
    SHERMAN_CHECK(shadow.size <= kChunkSize);
    EraseOverlapping(ms, base, base + shadow.size);
    if (ms >= buckets_.size()) buckets_.resize(ms + 1);
    std::vector<Bucket>& per_ms = buckets_[ms];
    const uint64_t chunk = base / kChunkSize;
    if (chunk >= per_ms.size()) per_ms.resize(chunk + 1);
    Bucket& b = per_ms[chunk];
    const auto it = std::upper_bound(b.begin(), b.end(), base, BaseAbove);
    count_++;
    return b.insert(it, Record{base, shadow})->shadow;
  }

  // Drops every record overlapping [begin, end) on `ms`.
  void EraseOverlapping(uint16_t ms, uint64_t begin, uint64_t end) {
    if (begin >= end || ms >= buckets_.size()) return;
    std::vector<Bucket>& per_ms = buckets_[ms];
    const uint64_t first = begin / kChunkSize;
    const uint64_t last = (end - 1) / kChunkSize;
    for (uint64_t c = first > 0 ? first - 1 : 0;
         c <= last && c < per_ms.size(); c++) {
      Bucket& b = per_ms[c];
      auto lo = std::lower_bound(b.begin(), b.end(), begin, BaseBelow);
      if (lo != b.begin() && std::prev(lo)->base + std::prev(lo)->shadow.size >
                                 begin) {
        --lo;
      }
      auto hi = lo;
      while (hi != b.end() && hi->base < end) ++hi;
      count_ -= static_cast<uint64_t>(hi - lo);
      b.erase(lo, hi);
    }
  }

  // Calls f(ms, base, shadow) for every record.
  template <typename F>
  void ForEach(F&& f) {
    for (size_t ms = 0; ms < buckets_.size(); ms++) {
      for (Bucket& b : buckets_[ms]) {
        for (Record& r : b) f(static_cast<uint16_t>(ms), r.base, r.shadow);
      }
    }
  }

  uint64_t size() const { return count_; }

 private:
  using Bucket = std::vector<Record>;

  static bool BaseAbove(uint64_t offset, const Record& r) {
    return offset < r.base;
  }
  static bool BaseBelow(const Record& r, uint64_t offset) {
    return r.base < offset;
  }

  std::vector<std::vector<Bucket>> buckets_;  // [ms][chunk]
  uint64_t count_ = 0;
};

// TaintIndex holds the host buffers filled by lock-free full-node READs,
// each a taint of exactly `len` bytes until a validation clears it. Two
// taints that begin within one power-of-two granule no larger than `len`
// would overlap, so at most one taint begins per granule. A hash on the
// granule therefore finds the taints overlapping [begin, end) by probing
// the few granules in (begin - len, end).
//
// Validation retires a taint in place; the slot is reused by the next read
// into the same buffer. A compaction sweeps retired and expired taints out
// whenever the table reaches twice the live count of the last sweep, so
// the table stays bounded at O(1) amortized cost per taint.
class TaintIndex {
 public:
  struct Taint {
    uintptr_t begin = 0;  // 0 = empty slot
    uint64_t at = 0;      // sim time of the read post
    uint64_t src = 0;     // remote address read (GlobalAddress::ToU64)
    bool validated = false;
  };

  // A taint older than `ttl_ns` no longer counts.
  TaintIndex(uint32_t len, uint64_t ttl_ns);

  // Taints [begin, begin + len), read from `src` at `now`, and drops every
  // taint it overlaps.
  void Add(uintptr_t begin, uint64_t src, uint64_t now);
  // Clears every taint overlapping [begin, end).
  void Validate(uintptr_t begin, uintptr_t end);
  // An unexpired, unvalidated taint overlapping [begin, end), or nullptr.
  const Taint* FindLive(uintptr_t begin, uintptr_t end, uint64_t now) const;
  void Clear() { Reset(kMinLimit); }

  // Taints held, retired and expired ones included until the next sweep.
  size_t size() const { return count_; }

 private:
  static constexpr size_t kMinLimit = 256;

  // The slot holding the taint of `granule`, or the empty slot where it
  // would go.
  size_t Probe(uintptr_t granule) const;
  // First and last granule that can hold a taint overlapping [begin, end).
  uintptr_t FirstGranule(uintptr_t begin) const;
  uintptr_t LastGranule(uintptr_t end) const { return (end - 1) >> shift_; }
  bool Overlaps(const Taint& t, uintptr_t begin, uintptr_t end) const {
    return t.begin != 0 && t.begin < end && t.begin + len_ > begin;
  }
  bool Live(const Taint& t, uint64_t now) const {
    return !t.validated && now - t.at <= ttl_ns_;
  }
  void Reset(size_t limit);
  void Compact(uint64_t now);

  uint32_t len_;
  uint64_t ttl_ns_;
  int shift_;                 // log2 of the granule
  std::vector<Taint> slots_;  // open addressing, linear probing
  size_t count_ = 0;
  size_t limit_ = 0;          // count_ that triggers the next Compact
};

}  // namespace sherman::dmsan

#endif  // SHERMAN_SANITIZER_SHADOW_INDEX_H_

#include "sanitizer/shadow_index.h"

#include <bit>

namespace sherman::dmsan {

TaintIndex::TaintIndex(uint32_t len, uint64_t ttl_ns)
    : len_(len), ttl_ns_(ttl_ns), shift_(std::bit_width(len) - 1) {
  SHERMAN_CHECK(len > 0);
  Reset(kMinLimit);
}

size_t TaintIndex::Probe(uintptr_t granule) const {
  // The home slot is the granule's low bits: the neighbouring granules an
  // overlap query probes then sit in neighbouring slots, mostly on the
  // same cache line.
  const size_t mask = slots_.size() - 1;
  size_t i = static_cast<size_t>(granule) & mask;
  while (slots_[i].begin != 0 && slots_[i].begin >> shift_ != granule) {
    i = (i + 1) & mask;
  }
  return i;
}

uintptr_t TaintIndex::FirstGranule(uintptr_t begin) const {
  return begin >= len_ ? (begin - len_ + 1) >> shift_ : 0;
}

void TaintIndex::Add(uintptr_t begin, uint64_t src, uint64_t now) {
  SHERMAN_CHECK(begin != 0);
  if (count_ >= limit_) Compact(now);
  // One pass over the granules that can hold an overlapping taint: retire
  // each overlap, and keep the slot of begin's own granule for the new one.
  const uintptr_t end = begin + len_;
  const uintptr_t own = begin >> shift_;
  size_t at = 0;
  for (uintptr_t g = FirstGranule(begin); g <= LastGranule(end); g++) {
    const size_t i = Probe(g);
    if (Overlaps(slots_[i], begin, end)) slots_[i].validated = true;
    if (g == own) at = i;
  }
  Taint& slot = slots_[at];
  if (slot.begin == 0) count_++;
  slot = Taint{begin, now, src, false};
}

void TaintIndex::Validate(uintptr_t begin, uintptr_t end) {
  if (begin >= end) return;
  // Live taints never overlap (Add retires the ones it overlaps), so when
  // the range is exactly one live taint, no other live taint touches it.
  if (end - begin == len_) {
    Taint& t = slots_[Probe(begin >> shift_)];
    if (t.begin == begin && !t.validated) {
      t.validated = true;
      return;
    }
  }
  for (uintptr_t g = FirstGranule(begin); g <= LastGranule(end); g++) {
    Taint& t = slots_[Probe(g)];
    if (Overlaps(t, begin, end)) t.validated = true;
  }
}

const TaintIndex::Taint* TaintIndex::FindLive(uintptr_t begin, uintptr_t end,
                                              uint64_t now) const {
  if (begin >= end) return nullptr;
  for (uintptr_t g = FirstGranule(begin); g <= LastGranule(end); g++) {
    const Taint& t = slots_[Probe(g)];
    if (Overlaps(t, begin, end) && Live(t, now)) return &t;
  }
  return nullptr;
}

void TaintIndex::Reset(size_t limit) {
  limit_ = limit;
  // Load factor stays at or below one half.
  slots_.assign(std::bit_ceil(2 * limit), Taint{});
  count_ = 0;
}

void TaintIndex::Compact(uint64_t now) {
  std::vector<Taint> live;
  for (const Taint& t : slots_) {
    if (t.begin != 0 && Live(t, now)) live.push_back(t);
  }
  Reset(std::max(kMinLimit, 2 * live.size()));
  for (const Taint& t : live) slots_[Probe(t.begin >> shift_)] = t;
  count_ = live.size();
}

}  // namespace sherman::dmsan

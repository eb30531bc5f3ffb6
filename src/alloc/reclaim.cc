#include "alloc/reclaim.h"

#include <utility>

#include "util/logging.h"

namespace sherman {

void ReclaimEpoch::EpochRing::Add(uint64_t epoch) {
  if (size_ > 0 && At(size_ - 1).epoch == epoch) {
    At(size_ - 1).count++;
    return;
  }
  if (size_ == slots_.size()) {
    std::vector<Slot> grown(slots_.empty() ? 4 : 2 * slots_.size());
    for (size_t i = 0; i < size_; i++) grown[i] = At(i);
    slots_ = std::move(grown);
    head_ = 0;
  }
  At(size_++) = Slot{epoch, 1};
}

bool ReclaimEpoch::EpochRing::Remove(uint64_t epoch, uint64_t n) {
  size_t lo = 0;
  size_t hi = size_;
  while (lo < hi) {  // first slot with slot.epoch >= epoch
    const size_t mid = lo + (hi - lo) / 2;
    if (At(mid).epoch < epoch) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == size_ || At(lo).epoch != epoch || At(lo).count < n) return false;
  At(lo).count -= n;
  while (size_ > 0 && At(0).count == 0) {
    head_ = (head_ + 1) & (slots_.size() - 1);
    size_--;
  }
  return true;
}

uint64_t ReclaimEpoch::EpochRing::Total() const {
  uint64_t n = 0;
  for (size_t i = 0; i < size_; i++) n += At(i).count;
  return n;
}

void ReclaimEpoch::AdvancePastDrained() {
  // Advance once the oldest cohort drains: frees tagged up to the old
  // epoch become recyclable as soon as the remaining (newer) pins exit.
  if (active_.empty() || active_.front_epoch() >= global_) global_++;
}

void ReclaimEpoch::Exit(uint64_t epoch, int cs) {
  if (epoch == kDeadEpoch) return;  // pin of an already-dead client
  if (cs >= 0) {
    if (IsDead(cs)) return;  // released wholesale by MarkDead
    SHERMAN_CHECK_MSG(static_cast<size_t>(cs) < by_cs_.size() &&
                          !by_cs_[cs].empty(),
                      "epoch exit for untracked client");
    const bool pinned = by_cs_[cs].Remove(epoch);
    SHERMAN_CHECK(pinned);
  }
  const bool entered = active_.Remove(epoch);
  SHERMAN_CHECK_MSG(entered, "epoch exit without matching enter");
  AdvancePastDrained();
}

void ReclaimEpoch::MarkDead(int cs) {
  if (cs < 0 || IsDead(cs)) return;
  if (static_cast<size_t>(cs) >= dead_.size()) dead_.resize(cs + 1);
  dead_[cs] = true;
  if (static_cast<size_t>(cs) >= by_cs_.size() || by_cs_[cs].empty()) return;
  by_cs_[cs].ForEach([this](uint64_t epoch, uint64_t count) {
    const bool held = count == 0 || active_.Remove(epoch, count);
    SHERMAN_CHECK(held);
  });
  by_cs_[cs].Clear();
  AdvancePastDrained();
}

}  // namespace sherman

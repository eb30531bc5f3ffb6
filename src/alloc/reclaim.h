// ReclaimEpoch: the fabric-wide grace-period machinery protecting remote
// memory reclamation against in-flight one-sided readers (DEX-style
// epoch-based reclamation).
//
// The hazard: a client resolves a leaf address (from its index cache or a
// parent read), then spends several round trips before its RDMA_READ of
// that address lands. If the node is freed AND recycled in that window,
// the reader observes a node mid-rewrite by the new owner. Every read
// path validates (free flag, fence interval, level, versions/checksum),
// so a recycled node can never produce a wrong answer — but the grace
// period keeps the tombstoned bytes intact until no in-flight operation
// can still hold the address, which turns "retry storm on a torn
// recycled node" into "one clean bounce off a stable tombstone", and is
// what makes the reclamation protocol auditable: reclaim_test asserts no
// node is recycled while an older-epoch reader is still pinned.
//
// Protocol:
//  - every index operation pins the current epoch for its duration
//    (EpochPin RAII in the operation's coroutine frame);
//  - ChunkManager::FreeNode tags each freed node with the epoch current
//    at free time;
//  - a freed node is recycled only when every pinned operation entered
//    at a LATER epoch (freed_epoch < MinActive());
//  - the epoch advances when the last operation of the oldest active
//    epoch retires, so under continuous load the grace window is "all
//    ops in flight at free time have completed".
//
// Pin counts live in epoch-sorted rings of {epoch, count} (one fabric-wide,
// one per compute server): epochs only grow, so Enter bumps or appends at
// the back, Exit binary-searches, and only zero counts at the front are
// trimmed. Steady state allocates nothing.
//
// Single simulator thread; no synchronization needed.
#ifndef SHERMAN_ALLOC_RECLAIM_H_
#define SHERMAN_ALLOC_RECLAIM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sherman {

class ReclaimEpoch {
 public:
  ReclaimEpoch() = default;

  ReclaimEpoch(const ReclaimEpoch&) = delete;
  ReclaimEpoch& operator=(const ReclaimEpoch&) = delete;

  uint64_t current() const { return global_; }

  // Pins the current epoch for one in-flight operation; returns the
  // epoch to pass back to Exit(). `cs` attributes the pin to a compute
  // server (-1 = untracked) so a crashed client's orphaned pins can be
  // released by recovery — without that, a dead client's in-flight ops
  // would hold MinActive() down forever and freeze node recycling
  // fabric-wide.
  uint64_t Enter(int cs = -1) {
    if (cs >= 0) {
      if (IsDead(cs)) return kDeadEpoch;  // dead clients pin nothing
      if (static_cast<size_t>(cs) >= by_cs_.size()) by_cs_.resize(cs + 1);
      by_cs_[cs].Add(global_);
    }
    active_.Add(global_);
    return global_;
  }

  // Retires an operation pinned at `epoch`. When the oldest active epoch
  // drains, the global epoch advances past it. Pins of a client already
  // released via MarkDead are ignored (their frames may still unwind
  // later — e.g. at test teardown — without corrupting the counts).
  void Exit(uint64_t epoch, int cs = -1);

  // Declares compute server `cs` crashed: releases every pin it holds and
  // makes its future Enter/Exit calls no-ops. Called by the Recoverer
  // AFTER the dead client's in-doubt intents are resolved — the dead
  // client's own pins are exactly what keeps its tombstoned nodes off the
  // recycle pools while recovery still reads them.
  void MarkDead(int cs);

  bool IsDead(int cs) const {
    return cs >= 0 && static_cast<size_t>(cs) < dead_.size() && dead_[cs];
  }

  // Oldest epoch any in-flight operation is still pinned at (the global
  // epoch if none). A node freed at epoch E may be recycled only once
  // MinActive() > E.
  uint64_t MinActive() const {
    return active_.empty() ? global_ : active_.front_epoch();
  }

  bool SafeToRecycle(uint64_t freed_epoch) const {
    return freed_epoch < MinActive();
  }

  // Pins currently held by compute server `cs` (0 if untracked or dead).
  // DMSan's use-after-free rule keys off this: a read of a node past its
  // grace window is only safe under a live pin.
  uint64_t ActivePins(int cs) const {
    if (cs < 0 || static_cast<size_t>(cs) >= by_cs_.size()) return 0;
    return by_cs_[cs].Total();
  }

  uint64_t pinned_ops() const { return active_.Total(); }

 private:
  // Sentinel returned by Enter() for dead clients; Exit ignores it.
  static constexpr uint64_t kDeadEpoch = ~0ull;

  // Pin counts by epoch, ascending, in a circular buffer that doubles when
  // full. The front count is never zero (zeros there are trimmed at once);
  // zeros further back stay until they reach the front or are refilled.
  class EpochRing {
   public:
    bool empty() const { return size_ == 0; }
    uint64_t front_epoch() const { return At(0).epoch; }

    // One more pin at `epoch`, which is >= every epoch in the ring.
    void Add(uint64_t epoch);
    // Removes `n` pins at `epoch`; false (and no change) if it holds
    // fewer.
    bool Remove(uint64_t epoch, uint64_t n = 1);
    uint64_t Total() const;

    template <typename Fn>
    void ForEach(Fn&& fn) const {
      for (size_t i = 0; i < size_; i++) fn(At(i).epoch, At(i).count);
    }
    void Clear() { head_ = size_ = 0; }

   private:
    struct Slot {
      uint64_t epoch;
      uint64_t count;
    };
    Slot& At(size_t i) { return slots_[(head_ + i) & (slots_.size() - 1)]; }
    const Slot& At(size_t i) const {
      return slots_[(head_ + i) & (slots_.size() - 1)];
    }

    std::vector<Slot> slots_;  // capacity: 0 or a power of two
    size_t head_ = 0;
    size_t size_ = 0;
  };

  void AdvancePastDrained();

  uint64_t global_ = 1;  // epoch 0 is "freed before any pin existed"
  EpochRing active_;                 // in-flight ops by epoch
  std::vector<EpochRing> by_cs_;     // the same, per compute server
  std::vector<bool> dead_;           // by cs
};

// RAII pin for one operation. Safe to construct with a null domain (unit
// tests drive ChunkManager without a system); coroutine frames destroy
// locals deterministically at co_return, so the pin spans exactly the
// operation.
class EpochPin {
 public:
  explicit EpochPin(ReclaimEpoch* domain, int cs = -1)
      : domain_(domain),
        cs_(cs),
        epoch_(domain != nullptr ? domain->Enter(cs) : 0) {}
  ~EpochPin() {
    if (domain_ != nullptr) domain_->Exit(epoch_, cs_);
  }

  EpochPin(const EpochPin&) = delete;
  EpochPin& operator=(const EpochPin&) = delete;

 private:
  ReclaimEpoch* domain_;
  int cs_;
  uint64_t epoch_;
};

}  // namespace sherman

#endif  // SHERMAN_ALLOC_RECLAIM_H_

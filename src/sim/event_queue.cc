#include "sim/event_queue.h"

#include <utility>

namespace sherman::sim {

uint32_t EventQueue::TakeSlot() {
  if (free_slots_.empty()) {
    slots_.emplace_back();
    return static_cast<uint32_t>(slots_.size() - 1);
  }
  const uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  return slot;
}

void EventQueue::PushKey(Key key) {
  // Sift the hole up from the new leaf, then drop the key into it.
  size_t hole = heap_.size();
  heap_.push_back(key);
  while (hole > 0) {
    const size_t parent = (hole - 1) / 2;
    if (!key.Before(heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = key;
}

EventQueue::Callback EventQueue::Pop() {
  const uint32_t slot = heap_.front().slot;
  Callback fn = std::move(slots_[slot]);
  free_slots_.push_back(slot);

  // Move the last key into the root's hole and sift it down.
  const Key last = heap_.back();
  heap_.pop_back();
  const size_t n = heap_.size();
  if (n > 0) {
    size_t hole = 0;
    for (;;) {
      size_t child = 2 * hole + 1;
      if (child >= n) break;
      if (child + 1 < n && heap_[child + 1].Before(heap_[child])) child++;
      if (!heap_[child].Before(last)) break;
      heap_[hole] = heap_[child];
      hole = child;
    }
    heap_[hole] = last;
  }
  return fn;
}

}  // namespace sherman::sim

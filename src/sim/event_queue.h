// A time-ordered event queue for the discrete-event simulator. Events with
// equal timestamps fire in insertion order (stable), which keeps every
// simulation run deterministic.
//
// The queue allocates nothing per event. A callback's capture is stored
// inline in a slot of a reusable slot array (a capture larger than the
// inline buffer does not compile), and the binary heap orders only small
// {time, seq, slot} keys.
#ifndef SHERMAN_SIM_EVENT_QUEUE_H_
#define SHERMAN_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace sherman::sim {

// Simulated time in nanoseconds.
using SimTime = uint64_t;

// A move-only `void()` callable whose capture lives inline. Captures of up
// to kCapacity bytes fit (seven pointers or scalars); a larger one is a
// compile-time error, so an event never touches the heap. A capture that
// needs more state should point at it instead (e.g. into the coroutine
// frame that scheduled the event and outlives it).
class InlineCallback {
 public:
  static constexpr size_t kCapacity = 56;

  InlineCallback() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineCallback>>>
  InlineCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kCapacity,
                  "event capture too large for InlineCallback: capture a "
                  "pointer to the state instead");
    static_assert(alignof(Fn) <= alignof(void*),
                  "event capture over-aligned for InlineCallback");
    static_assert(std::is_invocable_r_v<void, Fn&>);
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
    ops_ = &kOps<Fn>;
  }

  InlineCallback(InlineCallback&& other) noexcept { TakeFrom(other); }
  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      Reset();
      TakeFrom(other);
    }
    return *this;
  }
  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;
  ~InlineCallback() { Reset(); }

  // Requires a held callable.
  void operator()() { ops_->invoke(buf_); }

 private:
  struct Ops {
    void (*invoke)(void* self);
    // Null when the capture is trivially copyable / destructible: a move
    // is then a byte copy, and destruction is nothing.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* self);
  };

  template <typename Fn>
  static constexpr Ops kOps = {
      [](void* self) { (*static_cast<Fn*>(self))(); },
      std::is_trivially_copyable_v<Fn>
          ? nullptr
          : +[](void* dst, void* src) {
              ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
              static_cast<Fn*>(src)->~Fn();
            },
      std::is_trivially_destructible_v<Fn>
          ? nullptr
          : +[](void* self) { static_cast<Fn*>(self)->~Fn(); },
  };

  void TakeFrom(InlineCallback& other) noexcept {
    ops_ = std::exchange(other.ops_, nullptr);
    if (ops_ == nullptr) return;
    if (ops_->relocate != nullptr) {
      ops_->relocate(buf_, other.buf_);
    } else {
      std::memcpy(buf_, other.buf_, kCapacity);
    }
  }
  void Reset() noexcept {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(buf_);
    ops_ = nullptr;
  }

  alignas(void*) unsigned char buf_[kCapacity];
  const Ops* ops_ = nullptr;
};

class EventQueue {
 public:
  using Callback = InlineCallback;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules fn at `time`; fn may be any callable that fits a Callback.
  template <typename F>
  void Push(SimTime time, F&& fn) {
    const uint32_t slot = TakeSlot();
    slots_[slot] = Callback(std::forward<F>(fn));
    PushKey(Key{time, next_seq_++, slot});
  }

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }
  // Callback slots ever allocated: the high-water mark of size().
  size_t slots() const { return slots_.size(); }

  // Time and sequence number of the earliest pending event. Require
  // !empty().
  SimTime NextTime() const { return heap_.front().time; }
  uint64_t NextSeq() const { return heap_.front().seq; }

  // Sequence numbers order same-time events: each Push takes the next one.
  // TakeSeq() takes one without scheduling anything; SeqMark() is the one
  // the next Push or TakeSeq will take.
  uint64_t TakeSeq() { return next_seq_++; }
  uint64_t SeqMark() const { return next_seq_; }

  // Removes and returns the earliest event's callback. Requires !empty().
  Callback Pop();

 private:
  struct Key {
    SimTime time;
    uint64_t seq;  // tie-breaker: insertion order
    uint32_t slot;

    bool Before(const Key& other) const {
      return time != other.time ? time < other.time : seq < other.seq;
    }
  };

  uint32_t TakeSlot();
  void PushKey(Key key);

  std::vector<Key> heap_;           // binary min-heap on (time, seq)
  std::vector<Callback> slots_;     // callbacks, indexed by Key::slot
  std::vector<uint32_t> free_slots_;
  uint64_t next_seq_ = 0;
};

}  // namespace sherman::sim

#endif  // SHERMAN_SIM_EVENT_QUEUE_H_

// The discrete-event simulator driving the whole RDMA fabric. All "client
// threads" are coroutines resumed by events from this queue; simulated time
// only advances between events, so a run is fully deterministic.
#ifndef SHERMAN_SIM_SIMULATOR_H_
#define SHERMAN_SIM_SIMULATOR_H_

#include <coroutine>
#include <cstdint>
#include <limits>
#include <utility>

#include "sim/event_queue.h"
#include "util/logging.h"

namespace sherman::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }
  uint64_t steps() const { return steps_; }
  bool idle() const { return queue_.empty(); }

  // Schedules fn at absolute time t (>= now). fn is any callable whose
  // capture fits an EventQueue::Callback (see InlineCallback).
  template <typename F>
  void At(SimTime t, F&& fn) {
    SHERMAN_CHECK_MSG(t >= now_, "scheduling into the past: t=%llu now=%llu",
                      static_cast<unsigned long long>(t),
                      static_cast<unsigned long long>(now_));
    queue_.Push(t, std::forward<F>(fn));
  }

  // Schedules fn `delay` nanoseconds from now.
  template <typename F>
  void After(SimTime delay, F&& fn) {
    At(now_ + delay, std::forward<F>(fn));
  }

  // --- Event order ---
  // Events fire in (time, seq) order, and each scheduled event takes the
  // next seq. TakeStamp() takes one without scheduling anything: it marks
  // the place an event scheduled now would hold, for state that models an
  // event instead of scheduling it. Passed(t, stamp) is true iff such an
  // event at time t has already fired, i.e. it orders before the code now
  // running (an event, or a caller between Run calls).
  uint64_t TakeStamp() { return queue_.TakeSeq(); }
  bool Passed(SimTime t, uint64_t stamp) const {
    return t < now_ || (t == now_ && stamp < position_);
  }

  // Processes the earliest event. Returns false if the queue is empty.
  bool RunOne();

  // Processes events until the queue drains. Returns events processed.
  uint64_t Run() { return RunUntil(std::numeric_limits<SimTime>::max()); }

  // Processes events with time <= deadline; afterwards now() == deadline if
  // any later events remain, else the time of the last event processed.
  uint64_t RunUntil(SimTime deadline);

  // Awaitable: suspend the calling coroutine for `delay` simulated ns.
  // A zero delay still round-trips through the event queue, preserving a
  // consistent interleaving model (yield point).
  struct DelayAwaiter {
    Simulator* sim;
    SimTime delay;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      sim->After(delay, [h] { h.resume(); });
    }
    void await_resume() const noexcept {}
  };
  DelayAwaiter Delay(SimTime delay) { return DelayAwaiter{this, delay}; }

 private:
  SimTime now_ = 0;
  // Seq of the event running or last run; once nothing is left due at
  // now_, the next seq to be taken (every stamp at now_ has passed).
  uint64_t position_ = 0;
  uint64_t steps_ = 0;
  EventQueue queue_;
};

}  // namespace sherman::sim

#endif  // SHERMAN_SIM_SIMULATOR_H_

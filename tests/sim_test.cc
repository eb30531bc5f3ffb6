// Unit tests for the discrete-event simulation engine: event queue,
// simulator, coroutine tasks, and synchronization primitives.
#include <gtest/gtest.h>

#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <tuple>
#include <vector>

#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace sherman::sim {
namespace {

TEST(EventQueueTest, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  q.Push(30, [&] { order.push_back(3); });
  q.Push(10, [&] { order.push_back(1); });
  q.Push(20, [&] { order.push_back(2); });
  while (!q.empty()) q.Pop()();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; i++) {
    q.Push(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.Pop()();
  for (int i = 0; i < 10; i++) EXPECT_EQ(order[i], i);
}

// Differential check against a reference priority queue of (time, seq):
// random interleaved pushes and pops, few distinct timestamps (many ties),
// and enough pops in between that callback slots are reused.
TEST(EventQueueTest, MatchesReferenceOrderUnderInterleaving) {
  using Ref = std::tuple<SimTime, uint64_t>;  // (time, seq == event id)
  std::priority_queue<Ref, std::vector<Ref>, std::greater<Ref>> ref;
  EventQueue q;
  uint64_t next_id = 0;
  uint64_t fired = ~0ull;
  uint64_t state = 12345;
  auto rand = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  for (int step = 0; step < 10'000; step++) {
    if (ref.empty() || rand() % 100 < 55) {
      const SimTime t = rand() % 16;
      const uint64_t id = next_id++;
      q.Push(t, [&fired, id] { fired = id; });
      ref.emplace(t, id);
    } else {
      ASSERT_EQ(q.NextTime(), std::get<0>(ref.top()));
      q.Pop()();
      ASSERT_EQ(fired, std::get<1>(ref.top())) << "step " << step;
      ref.pop();
    }
    ASSERT_EQ(q.size(), ref.size());
  }
  while (!ref.empty()) {
    q.Pop()();
    ASSERT_EQ(fired, std::get<1>(ref.top()));
    ref.pop();
  }
  EXPECT_TRUE(q.empty());
  // Slots were reused: far fewer were allocated than events pushed.
  EXPECT_LT(q.slots(), next_id / 4);
}

// A move-only capture is destroyed exactly once, whether its event fired
// or was still pending when the queue was destroyed.
TEST(EventQueueTest, MoveOnlyCaptureDestroyedOnce) {
  struct Probe {
    int* destroyed;
    ~Probe() { ++*destroyed; }
  };
  int fired_destroyed = 0;
  int pending_destroyed = 0;
  int calls = 0;
  {
    EventQueue q;
    q.Push(1, [p = std::unique_ptr<Probe>(new Probe{&fired_destroyed}),
               &calls] { calls++; });
    q.Push(2,
           [p = std::unique_ptr<Probe>(new Probe{&pending_destroyed})] {});
    // Filler events move the heap around the pending callback's slot.
    for (int i = 0; i < 100; i++) q.Push(3 + i, [] {});
    EventQueue::Callback fn = q.Pop();
    EXPECT_EQ(fired_destroyed, 0);
    fn();
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(fired_destroyed, 0);  // the callback still owns its capture
  }
  EXPECT_EQ(fired_destroyed, 1);
  EXPECT_EQ(pending_destroyed, 1);
}

TEST(SimulatorTest, AdvancesTime) {
  Simulator sim;
  SimTime seen = 0;
  sim.After(100, [&] { seen = sim.now(); });
  sim.Run();
  EXPECT_EQ(seen, 100u);
  EXPECT_EQ(sim.now(), 100u);
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.After(10, [&] {
    times.push_back(sim.now());
    sim.After(15, [&] { times.push_back(sim.now()); });
  });
  sim.Run();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 25}));
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.After(10, [&] { fired++; });
  sim.After(20, [&] { fired++; });
  sim.After(30, [&] { fired++; });
  EXPECT_EQ(sim.RunUntil(20), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 20u);
  sim.Run();
  EXPECT_EQ(fired, 3);
}

TEST(SimulatorTest, RunOneReturnsFalseWhenIdle) {
  Simulator sim;
  EXPECT_FALSE(sim.RunOne());
  EXPECT_TRUE(sim.idle());
}

TEST(SimulatorTest, StepsCounted) {
  Simulator sim;
  for (int i = 0; i < 5; i++) sim.After(i, [] {});
  sim.Run();
  EXPECT_EQ(sim.steps(), 5u);
}

// A stamp holds the place of an event scheduled when it was taken: it has
// passed for same-time events scheduled after it, and for code between runs
// once nothing is left due at its time.
TEST(SimulatorTest, StampsOrderAmongSameTimeEvents) {
  Simulator sim;
  std::vector<bool> passed;
  uint64_t stamp = 0;
  sim.At(5, [&] { passed.push_back(sim.Passed(10, stamp)); });
  sim.At(10, [&] { passed.push_back(sim.Passed(10, stamp)); });
  stamp = sim.TakeStamp();
  sim.At(10, [&] { passed.push_back(sim.Passed(10, stamp)); });
  sim.At(30, [] {});
  EXPECT_FALSE(sim.Passed(10, stamp));
  sim.RunOne();
  sim.RunOne();
  EXPECT_FALSE(sim.Passed(10, stamp));  // the event after it is still due
  sim.RunUntil(20);
  EXPECT_EQ(passed, (std::vector<bool>{false, false, true}));
  EXPECT_TRUE(sim.Passed(10, stamp));
  EXPECT_FALSE(sim.Passed(30, sim.TakeStamp()));
}

// --- coroutine tasks ---

Task<int> Answer() { co_return 42; }

Task<int> Sum(Simulator* sim) {
  int a = co_await Answer();
  co_await sim->Delay(10);
  int b = co_await Answer();
  co_return a + b;
}

TEST(TaskTest, NestedAwaitsAndReturnValues) {
  Simulator sim;
  int result = 0;
  Spawn([](Simulator* s, int* out) -> Task<void> {
    *out = co_await Sum(s);
  }(&sim, &result));
  sim.Run();
  EXPECT_EQ(result, 84);
  EXPECT_EQ(sim.now(), 10u);
}

TEST(TaskTest, DelaySequencing) {
  Simulator sim;
  std::vector<SimTime> stamps;
  Spawn([](Simulator* s, std::vector<SimTime>* v) -> Task<void> {
    for (int i = 0; i < 3; i++) {
      co_await s->Delay(7);
      v->push_back(s->now());
    }
  }(&sim, &stamps));
  sim.Run();
  EXPECT_EQ(stamps, (std::vector<SimTime>{7, 14, 21}));
}

TEST(TaskTest, ManyConcurrentCoroutinesInterleave) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 4; i++) {
    Spawn([](Simulator* s, std::vector<int>* v, int id) -> Task<void> {
      co_await s->Delay(static_cast<SimTime>(10 * (id + 1)));
      v->push_back(id);
    }(&sim, &order, i));
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(OneShotTest, AwaitThenFire) {
  Simulator sim;
  OneShot shot;
  bool resumed = false;
  Spawn([](OneShot* s, bool* r) -> Task<void> {
    co_await *s;
    *r = true;
  }(&shot, &resumed));
  EXPECT_FALSE(resumed);
  shot.Fire();
  EXPECT_TRUE(resumed);
}

TEST(OneShotTest, FireBeforeAwaitIsReady) {
  OneShot shot;
  shot.Fire();
  bool resumed = false;
  Spawn([](OneShot* s, bool* r) -> Task<void> {
    co_await *s;  // already fired: no suspension
    *r = true;
  }(&shot, &resumed));
  EXPECT_TRUE(resumed);
}

// --- frame pool ---

TEST(FramePoolTest, ReusesFreedFrames) {
  void* a = FramePool::Allocate(200);
  FramePool::Free(a, 200);
  void* b = FramePool::Allocate(250);  // same 64-byte class (193-256 B)
  EXPECT_EQ(a, b);
  FramePool::Free(b, 250);
}

#ifdef SHERMAN_FRAME_POOL_ASAN  // set by sim/task.h under ASan
// Hands the awaiting coroutine's frame address out and continues at once.
struct FrameAddress {
  void** out;
  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> h) noexcept {
    *out = h.address();
    return false;
  }
  void await_resume() const noexcept {}
};

// A destroyed frame goes back to the pool poisoned, so ASan still reports
// a touch of it, e.g. resuming a dangling handle reads its first word.
TEST(FramePoolDeathTest, TouchOfDestroyedFrameReports) {
  void* frame = nullptr;
  Spawn([](void** out) -> Task<void> { co_await FrameAddress{out}; }(&frame));
  ASSERT_NE(frame, nullptr);
  EXPECT_DEATH(
      {
        volatile char first = *static_cast<volatile char*>(frame);
        (void)first;
      },
      "use-after-poison");
}
#endif

// --- CoroQueue / CountdownLatch ---

TEST(CoroQueueTest, FifoWakeOrder) {
  Simulator sim;
  CoroQueue q;
  std::vector<int> order;
  for (int i = 0; i < 3; i++) {
    Spawn([](CoroQueue* cq, std::vector<int>* v, int id) -> Task<void> {
      co_await cq->Wait();
      v->push_back(id);
    }(&q, &order, i));
  }
  EXPECT_EQ(q.size(), 3u);
  EXPECT_TRUE(q.WakeOne());
  EXPECT_EQ(order, (std::vector<int>{0}));
  EXPECT_EQ(q.WakeAll(), 2u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_FALSE(q.WakeOne());
}

TEST(CountdownLatchTest, ReleasesWaiterAtZero) {
  Simulator sim;
  CountdownLatch latch(3);
  bool released = false;
  Spawn([](CountdownLatch* l, bool* r) -> Task<void> {
    co_await l->Wait();
    *r = true;
  }(&latch, &released));
  latch.Arrive();
  latch.Arrive();
  EXPECT_FALSE(released);
  latch.Arrive();
  EXPECT_TRUE(released);
  EXPECT_TRUE(latch.done());
}

TEST(CountdownLatchTest, WaitAfterDoneIsImmediate) {
  CountdownLatch latch(1);
  latch.Arrive();
  bool released = false;
  Spawn([](CountdownLatch* l, bool* r) -> Task<void> {
    co_await l->Wait();
    *r = true;
  }(&latch, &released));
  EXPECT_TRUE(released);
}

}  // namespace
}  // namespace sherman::sim

// Unit tests for the simulated RDMA fabric: addressing, DMA-faithful
// memory regions, the NIC timing model, verbs, batching, ordering, and RPC.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "rdma/fabric.h"
#include "sim/task.h"
#include "util/random.h"

namespace sherman::rdma {
namespace {

// --- GlobalAddress ---

TEST(GlobalAddressTest, PackUnpackRoundTrip) {
  GlobalAddress a(7, 0x123456789abcull);
  const GlobalAddress b = GlobalAddress::FromU64(a.ToU64());
  EXPECT_EQ(a, b);
  EXPECT_EQ(b.node, 7);
  EXPECT_EQ(b.offset, 0x123456789abcull);
}

TEST(GlobalAddressTest, NullSemantics) {
  EXPECT_TRUE(kNullAddress.is_null());
  EXPECT_FALSE(GlobalAddress(0, 64).is_null());
  EXPECT_FALSE(GlobalAddress(1, 0).is_null());
}

TEST(GlobalAddressTest, Plus) {
  EXPECT_EQ(GlobalAddress(3, 100).Plus(28), GlobalAddress(3, 128));
}

// --- MemoryRegion DMA read windows ---

TEST(MemoryRegionTest, PlainReadWrite) {
  MemoryRegion r(4096);
  const uint8_t data[4] = {1, 2, 3, 4};
  r.Write(0, 100, data, 4);
  EXPECT_EQ(std::memcmp(r.raw(100), data, 4), 0);
  r.Write64(0, 200, 0xdeadbeef);
  EXPECT_EQ(r.Read64(200), 0xdeadbeefull);
}

TEST(MemoryRegionTest, WriteAfterDmaPassedKeepsOldData) {
  MemoryRegion r(4096);
  const uint8_t before[8] = {1, 1, 1, 1, 1, 1, 1, 1};
  r.Write(0, 0, before, 8);
  uint8_t dst[8];
  // DMA covers [0,8) over time [100, 200).
  const uint64_t h = r.OpenRead(0, 8, dst, 100, 200, 0);
  // At t=200 the DMA has passed everything: the write is invisible.
  const uint8_t after[8] = {2, 2, 2, 2, 2, 2, 2, 2};
  r.Write(200, 0, after, 8);
  r.CloseRead(h);
  for (int i = 0; i < 8; i++) EXPECT_EQ(dst[i], 1);
  // Memory itself holds the new data.
  EXPECT_EQ(r.raw(0)[0], 2);
}

TEST(MemoryRegionTest, WriteBeforeDmaStartIsFullyVisible) {
  MemoryRegion r(4096);
  uint8_t dst[8] = {0};
  const uint64_t h = r.OpenRead(0, 8, dst, 100, 200, 0);
  const uint8_t after[8] = {9, 9, 9, 9, 9, 9, 9, 9};
  r.Write(100, 0, after, 8);  // progress == 0: nothing transferred yet
  r.CloseRead(h);
  for (int i = 0; i < 8; i++) EXPECT_EQ(dst[i], 9);
}

TEST(MemoryRegionTest, MidDmaWriteTearsAtProgressPoint) {
  MemoryRegion r(4096);
  uint8_t dst[100] = {0};
  const uint64_t h = r.OpenRead(0, 100, dst, 0, 100, 0);  // 1 byte per ns
  std::vector<uint8_t> after(100, 7);
  r.Write(50, 0, after.data(), 100);  // halfway through the DMA
  r.CloseRead(h);
  // First half already transferred (old zeros), second half patched.
  for (int i = 0; i < 50; i++) EXPECT_EQ(dst[i], 0) << i;
  for (int i = 50; i < 100; i++) EXPECT_EQ(dst[i], 7) << i;
}

TEST(MemoryRegionTest, UntouchedWindowIsCopiedOnceAtClose) {
  MemoryRegion r(4096);
  uint8_t dst[8];
  std::memset(dst, 0xee, 8);
  const uint64_t h = r.OpenRead(0, 8, dst, 0, 100, 0);
  const uint8_t x[8] = {5, 5, 5, 5, 5, 5, 5, 5};
  r.Write(50, 512, x, 8);  // elsewhere: the window stays unfilled
  for (int i = 0; i < 8; i++) EXPECT_EQ(dst[i], 0xee) << i;
  r.CloseRead(h);
  for (int i = 0; i < 8; i++) EXPECT_EQ(dst[i], 0) << i;
}

TEST(MemoryRegionTest, InflightBookkeeping) {
  MemoryRegion r(4096);
  uint8_t dst[16];
  const uint64_t h1 = r.OpenRead(0, 8, dst, 0, 10, 0);
  const uint64_t h2 = r.OpenRead(8, 8, dst + 8, 0, 10, 1);
  EXPECT_EQ(r.inflight_reads(), 2u);
  r.CloseRead(h1);
  r.CloseRead(h2);
  EXPECT_EQ(r.inflight_reads(), 0u);
}

TEST(MemoryRegionTest, NonFifoCloseReadKeepsOtherWindows) {
  MemoryRegion r(4096);
  uint8_t a[8] = {0}, b[8] = {0}, c[8] = {0};
  // Three windows over [0, 100): 8 bytes each, so 1 byte per 12.5 ns.
  const uint64_t ha = r.OpenRead(0, 8, a, 0, 100, 0);
  const uint64_t hb = r.OpenRead(16, 8, b, 0, 100, 1);
  const uint64_t hc = r.OpenRead(32, 8, c, 0, 100, 2);
  EXPECT_EQ(r.inflight_reads(), 3u);

  // Close the middle window first: the first and last stay registered, so
  // a write at t=50 (half of each DMA done) still tears both.
  r.CloseRead(hb);
  EXPECT_EQ(r.inflight_reads(), 2u);
  const std::vector<uint8_t> x(40, 4);
  r.Write(50, 0, x.data(), 40);

  // Then the first window: only the last one remains.
  r.CloseRead(ha);
  EXPECT_EQ(r.inflight_reads(), 1u);
  const uint8_t y[8] = {6, 6, 6, 6, 6, 6, 6, 6};
  r.Write(75, 0, y, 8);
  r.Write(75, 32, y, 8);
  r.CloseRead(hc);
  EXPECT_EQ(r.inflight_reads(), 0u);
  for (int i = 0; i < 8; i++) {
    EXPECT_EQ(a[i], i < 4 ? 0 : 4) << i;
    EXPECT_EQ(b[i], 0) << i;  // closed before any write
    EXPECT_EQ(c[i], i < 4 ? 0 : i < 6 ? 4 : 6) << i;
  }
}

TEST(MemoryRegionTest, WriteAcrossTwoWindowsPatchesEachAtItsProgress) {
  MemoryRegion r(4096);
  uint8_t a[64] = {0}, b[64] = {0};
  // Window A reads [0, 64) over [0, 64); window B reads [64, 128) over
  // [16, 80). Both move 1 byte per ns.
  const uint64_t ha = r.OpenRead(0, 64, a, 0, 64, 0);
  const uint64_t hb = r.OpenRead(64, 64, b, 16, 80, 1);
  // One write of [16, 112) at t=32: A has passed byte 32, B byte 80.
  std::vector<uint8_t> w(96, 9);
  r.Write(32, 16, w.data(), 96);
  r.CloseRead(hb);
  r.CloseRead(ha);
  for (int i = 0; i < 32; i++) EXPECT_EQ(a[i], 0) << i;
  for (int i = 32; i < 64; i++) EXPECT_EQ(a[i], 9) << i;
  for (int i = 0; i < 16; i++) EXPECT_EQ(b[i], 0) << i;   // [64, 80)
  for (int i = 16; i < 48; i++) EXPECT_EQ(b[i], 9) << i;  // [80, 112)
  for (int i = 48; i < 64; i++) EXPECT_EQ(b[i], 0) << i;  // past the write
}

// An in-place change in the nanosecond a DMA starts is in the payload iff
// it runs before the window's stamp, as it would run before or after an
// event scheduled at the DMA start.
TEST(MemoryRegionTest, InPlaceChangeAtDmaStartOrdersByStamp) {
  sim::Simulator sim;
  MemoryRegion r(4096);
  uint8_t early[8], late[8];
  uint64_t h_early = 0, h_late = 0;
  sim.At(0, [&] {
    h_early = r.OpenRead(0, 8, early, 100, 200, sim.TakeStamp());
    sim.At(100, [&] {
      std::memset(r.MutableRaw(0, 8, sim), 7, 8);
    });
    h_late = r.OpenRead(0, 8, late, 100, 200, sim.TakeStamp());
  });
  sim.At(300, [&] {
    r.CloseRead(h_early);
    r.CloseRead(h_late);
  });
  sim.Run();
  for (int i = 0; i < 8; i++) {
    EXPECT_EQ(early[i], 0) << i;  // its DMA started before the change
    EXPECT_EQ(late[i], 7) << i;   // its DMA started after it
  }
}

// The eager model that lazily filled windows replace, kept as the
// reference: a READ copies the region in an event at its DMA start, a Write
// patches the unread suffix of every window until an event at its DMA end
// unregisters it, and an in-place change is a plain store.
class EagerRegion {
 public:
  explicit EagerRegion(size_t size) : data_(size, 0) {}

  uint8_t* data() { return data_.data(); }

  void Begin(uint8_t* dst, uint64_t offset, uint32_t len, sim::SimTime start,
             sim::SimTime end) {
    std::memcpy(dst, data_.data() + offset, len);
    open_.push_back(Window{dst, offset, len, start, end});
  }

  void End(const uint8_t* dst) {
    open_.erase(std::find_if(open_.begin(), open_.end(),
                             [dst](const Window& w) { return w.dst == dst; }));
  }

  void Write(sim::SimTime now, uint64_t offset, const uint8_t* src,
             uint32_t len) {
    std::memcpy(data_.data() + offset, src, len);
    for (const Window& w : open_) {
      uint64_t progress = w.offset + w.len;
      if (now <= w.start) {
        progress = w.offset;
      } else if (now < w.end) {
        const double frac = static_cast<double>(now - w.start) /
                            static_cast<double>(w.end - w.start);
        progress = w.offset + static_cast<uint64_t>(frac * w.len);
      }
      const uint64_t begin = std::max({offset, w.offset, progress});
      const uint64_t end = std::min<uint64_t>(offset + len, w.offset + w.len);
      if (begin < end) {
        std::memcpy(w.dst + (begin - w.offset), src + (begin - offset),
                    end - begin);
      }
    }
  }

 private:
  struct Window {
    uint8_t* dst;
    uint64_t offset;
    uint32_t len;
    sim::SimTime start;
    sim::SimTime end;
  };
  std::vector<uint8_t> data_;
  std::vector<Window> open_;
};

// Drives a MemoryRegion and the eager model through one random schedule of
// overlapping READ windows, Writes and in-place changes on a small region,
// and checks that every READ completes with the same payload in both.
class WindowRace {
 public:
  explicit WindowRace(uint64_t seed)
      : rng_(seed), lazy_(kSize), eager_(kSize) {}

  // Runs the schedule; returns the number of READs compared.
  int Run() {
    for (int i = 0; i < 24; i++) {
      const sim::SimTime t = rng_.Uniform(kHorizon);
      if (rng_.Uniform(3) == 0) {
        sim_.At(t, [this] { Post(); });
      } else {
        ChangeAt(t);
      }
    }
    sim_.Run();
    EXPECT_EQ(std::memcmp(lazy_.raw(0), eager_.data(), kSize), 0);
    EXPECT_EQ(lazy_.inflight_reads(), 0u);
    return compared_;
  }

 private:
  static constexpr uint64_t kSize = 192;
  static constexpr sim::SimTime kHorizon = 48;

  struct Read {
    std::vector<uint8_t> lazy;
    std::vector<uint8_t> eager;
    uint64_t handle = 0;
  };

  // Random bytes over a random range, applied to both models as a Write or
  // as an in-place change.
  void Change(bool in_place) {
    const uint64_t offset = rng_.Uniform(kSize);
    const uint64_t len =
        1 + rng_.Uniform(std::min<uint64_t>(48, kSize - offset));
    std::vector<uint8_t> bytes(len);
    for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng_.Next());
    if (in_place) {
      std::memcpy(lazy_.MutableRaw(offset, len, sim_), bytes.data(), len);
      std::memcpy(eager_.data() + offset, bytes.data(), len);
    } else {
      const auto n = static_cast<uint32_t>(len);
      lazy_.Write(sim_.now(), offset, bytes.data(), n);
      eager_.Write(sim_.now(), offset, bytes.data(), n);
    }
  }

  void ChangeAt(sim::SimTime t) {
    const bool in_place = rng_.Bernoulli(0.5);
    sim_.At(t, [this, in_place] { Change(in_place); });
  }

  // Posts a READ as Qp does: its DMA starts after now, the eager model gets
  // events at the start and end, the region a stamp. Changes land at the
  // start on either side of the stamp, mid-DMA, at the end, and between
  // the end and the completion.
  void Post() {
    const uint64_t offset = rng_.Uniform(kSize);
    const auto len = static_cast<uint32_t>(
        1 + rng_.Uniform(std::min<uint64_t>(96, kSize - offset)));
    const sim::SimTime start = sim_.now() + 1 + rng_.Uniform(8);
    const sim::SimTime end = start + 1 + rng_.Uniform(16);
    const sim::SimTime done = end + rng_.Uniform(8);
    reads_.push_back(std::make_unique<Read>());
    Read* r = reads_.back().get();
    r->lazy.assign(len, 0xee);
    r->eager.assign(len, 0xdd);

    if (rng_.Bernoulli(0.5)) ChangeAt(start);  // before the DMA start
    r->handle = lazy_.OpenRead(offset, len, r->lazy.data(), start, end,
                               sim_.TakeStamp());
    sim_.At(start, [this, r, offset, len, start, end] {
      eager_.Begin(r->eager.data(), offset, len, start, end);
    });
    sim_.At(end, [this, r] { eager_.End(r->eager.data()); });
    if (rng_.Bernoulli(0.5)) ChangeAt(start);  // after it
    if (rng_.Bernoulli(0.5)) ChangeAt(start + rng_.Uniform(end - start));
    if (rng_.Bernoulli(0.3)) ChangeAt(end);
    if (rng_.Bernoulli(0.3)) ChangeAt(end + rng_.Uniform(done - end + 1));
    sim_.At(done, [this, r] {
      lazy_.CloseRead(r->handle);
      EXPECT_EQ(r->lazy, r->eager);
      compared_++;
    });
    if (rng_.Bernoulli(0.3)) sim_.At(done, [this] { Post(); });
  }

  Random rng_;
  sim::Simulator sim_;
  MemoryRegion lazy_;
  EagerRegion eager_;
  std::vector<std::unique_ptr<Read>> reads_;
  int compared_ = 0;
};

TEST(MemoryRegionTest, LazyWindowsMatchEagerModel) {
  int compared = 0;
  for (uint64_t seed = 1; seed <= 300; seed++) {
    SCOPED_TRACE(seed);
    compared += WindowRace(seed).Run();
    if (HasFailure()) break;
  }
  EXPECT_GT(compared, 2500);
}

// --- MemoryRegion backing: lazily zero-filled, guard page after the end ---

// Resident set size of this process, from /proc/self/statm.
uint64_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  uint64_t total_pages = 0, resident_pages = 0;
  statm >> total_pages >> resident_pages;
  return resident_pages * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

TEST(MemoryRegionTest, FreshRegionReadsZero) {
  MemoryRegion r(64ull << 20);
  EXPECT_EQ(*r.raw(0), 0);
  EXPECT_EQ(*r.raw(r.size() / 2), 0);
  EXPECT_EQ(*r.raw(r.size() - 1), 0);
  EXPECT_EQ(r.Read64(r.size() - 8), 0u);
}

TEST(MemoryRegionTest, UntouchedMemoryIsNotResident) {
  constexpr uint64_t kSlack = 8ull << 20;
  const uint64_t before = ResidentBytes();
  {
    MemoryRegion r(1ull << 30);
    r.Write64(0, r.size() / 2, 42);  // one touched page
    EXPECT_LT(ResidentBytes(), before + kSlack);
  }
  EXPECT_LT(ResidentBytes(), before + kSlack);
}

TEST(MemoryRegionDeathTest, OverrunPastTheEndFaults) {
  EXPECT_DEATH(
      {
        sim::Simulator sim;
        MemoryRegion r(4096);
        std::memset(r.MutableRaw(r.size() - 8, 8, sim), 0xab, 16);
      },
      "");
}

// --- NIC timing ---

TEST(NicTest, MessageCostKnee) {
  FabricConfig cfg;
  Nic nic(&cfg);
  // Small messages: per-message bound; large: bandwidth bound (Figure 3).
  const auto small = nic.MessageCost(16, cfg.nic_rx_ns);
  const auto medium = nic.MessageCost(128, cfg.nic_rx_ns);
  const auto large = nic.MessageCost(4096, cfg.nic_rx_ns);
  EXPECT_EQ(small, cfg.nic_rx_ns);
  EXPECT_LE(medium, 2 * cfg.nic_rx_ns);
  EXPECT_GT(large, 300u);  // ~330 ns at 12.5 B/ns
}

TEST(NicTest, EnginesAreFifoServers) {
  FabricConfig cfg;
  Nic nic(&cfg);
  const auto t1 = nic.ReserveRx(100, 16);
  const auto t2 = nic.ReserveRx(100, 16);  // queues behind t1
  EXPECT_EQ(t1, 100 + cfg.nic_rx_ns);
  EXPECT_EQ(t2, t1 + cfg.nic_rx_ns);
  // A later idle period: starts at arrival.
  const auto t3 = nic.ReserveRx(10'000, 16);
  EXPECT_EQ(t3, 10'000 + cfg.nic_rx_ns);
}

TEST(NicTest, AtomicBucketsSerializeSameAddress) {
  FabricConfig cfg;
  Nic nic(&cfg);
  const auto s1 = nic.ReserveAtomicBucket(64, 100, 900);
  const auto s2 = nic.ReserveAtomicBucket(64, 100, 900);
  EXPECT_EQ(s1, 100u);
  EXPECT_EQ(s2, 1000u);  // waited for the bucket
  EXPECT_EQ(nic.counters().atomic_stall_ns, 900u);
}

TEST(NicTest, AtomicBucketsIndependentAcrossAddresses) {
  FabricConfig cfg;
  Nic nic(&cfg);
  const auto s1 = nic.ReserveAtomicBucket(64, 100, 900);
  const auto s2 = nic.ReserveAtomicBucket(128, 100, 900);  // different bucket
  EXPECT_EQ(s1, 100u);
  EXPECT_EQ(s2, 100u);
}

TEST(NicTest, BucketCollisionAt4KStride) {
  FabricConfig cfg;  // 12 LSBs select the bucket
  Nic nic(&cfg);
  const auto s1 = nic.ReserveAtomicBucket(64, 0, 900);
  const auto s2 = nic.ReserveAtomicBucket(64 + 4096, 0, 900);
  EXPECT_EQ(s1, 0u);
  EXPECT_EQ(s2, 900u);  // same 12 LSBs -> same bucket
}

// --- Verbs over the fabric ---

class FabricTest : public ::testing::Test {
 protected:
  FabricTest() : fabric_(MakeConfig()) {}

  static FabricConfig MakeConfig() {
    FabricConfig f;
    f.num_memory_servers = 2;
    f.num_compute_servers = 2;
    f.ms_memory_bytes = 16 << 20;
    return f;
  }

  // Runs `task` to completion on the simulator.
  void RunTask(sim::Task<void> task) {
    sim::Spawn(std::move(task));
    fabric_.simulator().Run();
  }

  Fabric fabric_;
};

TEST_F(FabricTest, WriteThenReadRoundTrip) {
  bool done = false;
  RunTask([](Fabric* f, bool* flag) -> sim::Task<void> {
    Qp& qp = f->qp(0, 1);
    const GlobalAddress addr(1, 1 << 20);
    uint64_t payload = 0x1122334455667788ull;
    RdmaResult w = co_await qp.Post(WorkRequest::Write(addr, &payload, 8));
    EXPECT_TRUE(w.status.ok());
    uint64_t readback = 0;
    RdmaResult r = co_await qp.Post(WorkRequest::Read(addr, &readback, 8));
    EXPECT_TRUE(r.status.ok());
    EXPECT_EQ(readback, payload);
    *flag = true;
  }(&fabric_, &done));
  EXPECT_TRUE(done);
}

TEST_F(FabricTest, SmallReadLatencyAboutTwoMicroseconds) {
  sim::SimTime latency = 0;
  RunTask([](Fabric* f, sim::SimTime* out) -> sim::Task<void> {
    uint64_t v;
    const sim::SimTime t0 = f->simulator().now();
    co_await f->qp(0, 0).Post(
        WorkRequest::Read(GlobalAddress(0, 1 << 20), &v, 8));
    *out = f->simulator().now() - t0;
  }(&fabric_, &latency));
  // Paper: <= 2 us for small messages on an idle fabric.
  EXPECT_GT(latency, 1500u);
  EXPECT_LT(latency, 2500u);
}

// Each verb's cost in simulator events. A READ schedules only its
// completion: its DMA window is filled lazily (see MemoryRegion), so a
// change that brings back per-READ events fails here.
TEST_F(FabricTest, EventBudgetPerVerb) {
  RunTask([](Fabric* f) -> sim::Task<void> {
    sim::Simulator& sim = f->simulator();
    Qp& qp = f->qp(0, 0);
    const GlobalAddress addr(0, 1 << 20);
    std::vector<uint8_t> buf(4 * 1024);
    uint64_t mark = sim.steps();
    auto events = [&sim, &mark] {
      const uint64_t spent = sim.steps() - mark;
      mark = sim.steps();
      return spent;
    };

    co_await qp.Post(WorkRequest::Read(addr, buf.data(), 1024));
    EXPECT_EQ(events(), 1u);  // READ
    std::vector<WorkRequest> reads;
    for (uint32_t i = 0; i < 4; i++) {
      reads.push_back(WorkRequest::Read(addr.Plus(i * 1024),
                                        buf.data() + i * 1024, 1024));
    }
    co_await qp.PostReadBatch(std::move(reads));
    EXPECT_EQ(events(), 1u);  // 4-READ PostReadBatch
    co_await qp.Post(WorkRequest::Write(addr, buf.data(), 1024));
    EXPECT_EQ(events(), 2u);  // WRITE
    uint64_t fetched = 0;
    co_await qp.Post(WorkRequest::Cas(addr, 0, 1, &fetched));
    EXPECT_EQ(events(), 2u);  // CAS
    std::vector<WorkRequest> batch;
    batch.push_back(WorkRequest::Write(addr, buf.data(), 64));
    batch.push_back(WorkRequest::Read(addr, buf.data() + 64, 64));
    co_await qp.PostBatch(std::move(batch));
    EXPECT_EQ(events(), 2u);  // WRITE+READ batch
  }(&fabric_));
}

TEST_F(FabricTest, CasSucceedsAndFails) {
  RunTask([](Fabric* f) -> sim::Task<void> {
    Qp& qp = f->qp(0, 0);
    const GlobalAddress addr(0, 2 << 20);
    uint64_t fetched = 0;
    RdmaResult r1 =
        co_await qp.Post(WorkRequest::Cas(addr, 0, 111, &fetched));
    EXPECT_TRUE(r1.cas_success);
    EXPECT_EQ(fetched, 0u);
    RdmaResult r2 =
        co_await qp.Post(WorkRequest::Cas(addr, 0, 222, &fetched));
    EXPECT_FALSE(r2.cas_success);  // now holds 111
    EXPECT_EQ(fetched, 111u);
    RdmaResult r3 =
        co_await qp.Post(WorkRequest::Cas(addr, 111, 222, &fetched));
    EXPECT_TRUE(r3.cas_success);
  }(&fabric_));
}

TEST_F(FabricTest, MaskedCasTouchesOnlyLane) {
  RunTask([](Fabric* f) -> sim::Task<void> {
    Qp& qp = f->qp(0, 0);
    const GlobalAddress addr(0, 3 << 20);
    uint64_t init = 0xAAAA'0000'0000'BBBBull;  // lane [16,32) is zero
    co_await qp.Post(WorkRequest::Write(addr, &init, 8));
    // CAS the 16-bit lane at bits [16,32): expect 0, swap 0x7777.
    uint64_t fetched = 0;
    const uint64_t mask = 0xffff'0000ull;
    RdmaResult r = co_await qp.Post(
        WorkRequest::MaskedCas(addr, 0, 0x7777'0000ull, mask, &fetched));
    EXPECT_TRUE(r.cas_success);
    uint64_t readback = 0;
    co_await qp.Post(WorkRequest::Read(addr, &readback, 8));
    EXPECT_EQ(readback, 0xAAAA'0000'0000'BBBBull | 0x7777'0000ull);
    // Mismatched lane: fails, value unchanged.
    RdmaResult r2 = co_await qp.Post(
        WorkRequest::MaskedCas(addr, 0, 0x1111'0000ull, mask, &fetched));
    EXPECT_FALSE(r2.cas_success);
  }(&fabric_));
}

TEST_F(FabricTest, FaaAddsAndFetches) {
  RunTask([](Fabric* f) -> sim::Task<void> {
    Qp& qp = f->qp(1, 1);
    const GlobalAddress addr(1, 4 << 20);
    uint64_t fetched = 0;
    co_await qp.Post(WorkRequest::Faa(addr, 5, &fetched));
    EXPECT_EQ(fetched, 0u);
    co_await qp.Post(WorkRequest::Faa(addr, 7, &fetched));
    EXPECT_EQ(fetched, 5u);
    uint64_t v = 0;
    co_await qp.Post(WorkRequest::Read(addr, &v, 8));
    EXPECT_EQ(v, 12u);
  }(&fabric_));
}

TEST_F(FabricTest, DeviceMemorySpaceIsSeparate) {
  RunTask([](Fabric* f) -> sim::Task<void> {
    Qp& qp = f->qp(0, 0);
    const GlobalAddress addr(0, 64);
    uint64_t host_val = 111, dev_val = 222;
    co_await qp.Post(
        WorkRequest::Write(addr, &host_val, 8, MemorySpace::kHost));
    co_await qp.Post(
        WorkRequest::Write(addr, &dev_val, 8, MemorySpace::kDevice));
    uint64_t h = 0, d = 0;
    co_await qp.Post(WorkRequest::Read(addr, &h, 8, MemorySpace::kHost));
    co_await qp.Post(WorkRequest::Read(addr, &d, 8, MemorySpace::kDevice));
    EXPECT_EQ(h, 111u);
    EXPECT_EQ(d, 222u);
  }(&fabric_));
}

TEST_F(FabricTest, OnChipAtomicsMuchFasterUnderContention) {
  // Hammer one address with CAS from many coroutines, host vs device.
  auto hammer = [](Fabric* f, MemorySpace space, sim::SimTime* elapsed)
      -> sim::Task<void> {
    const GlobalAddress addr(0, 2048);
    const sim::SimTime t0 = f->simulator().now();
    for (int i = 0; i < 50; i++) {
      uint64_t fetched;
      co_await f->qp(0, 0).Post(
          WorkRequest::Cas(addr, 1, 1, &fetched, space));
    }
    *elapsed = f->simulator().now() - t0;
  };
  sim::SimTime host_ns = 0;
  {
    Fabric fab(MakeConfig());
    // 8 concurrent hammerers to build bucket queueing.
    std::vector<sim::SimTime> ts(8, 0);
    for (int i = 0; i < 8; i++) sim::Spawn(hammer(&fab, MemorySpace::kHost, &ts[i]));
    fab.simulator().Run();
    for (auto t : ts) host_ns = std::max(host_ns, t);
  }
  sim::SimTime dev_ns = 0;
  {
    Fabric fab(MakeConfig());
    std::vector<sim::SimTime> ts(8, 0);
    for (int i = 0; i < 8; i++) sim::Spawn(hammer(&fab, MemorySpace::kDevice, &ts[i]));
    fab.simulator().Run();
    for (auto t : ts) dev_ns = std::max(dev_ns, t);
  }
  EXPECT_LT(dev_ns, host_ns);  // on-chip avoids PCIe in the bucket hold
}

TEST_F(FabricTest, BatchAppliesWritesInOrderWithOneCompletion) {
  RunTask([](Fabric* f) -> sim::Task<void> {
    Qp& qp = f->qp(0, 0);
    const GlobalAddress a(0, 5 << 20);
    uint64_t v1 = 1, v2 = 2;
    std::vector<WorkRequest> batch;
    batch.push_back(WorkRequest::Write(a, &v1, 8));
    batch.push_back(WorkRequest::Write(a, &v2, 8));  // same address: last wins
    const uint64_t batches_before = qp.counters().batches;
    co_await qp.PostBatch(std::move(batch));
    EXPECT_EQ(qp.counters().batches, batches_before + 1);
    uint64_t v = 0;
    co_await qp.Post(WorkRequest::Read(a, &v, 8));
    EXPECT_EQ(v, 2u);  // in-order execution: v2 landed last
  }(&fabric_));
}

TEST_F(FabricTest, BatchCheaperThanSequentialRoundTrips) {
  auto measure = [](Fabric* f, bool combine, sim::SimTime* out)
      -> sim::Task<void> {
    Qp& qp = f->qp(0, 0);
    uint64_t x = 7;
    const sim::SimTime t0 = f->simulator().now();
    if (combine) {
      std::vector<WorkRequest> batch;
      batch.push_back(WorkRequest::Write(GlobalAddress(0, 6 << 20), &x, 8));
      batch.push_back(WorkRequest::Write(GlobalAddress(0, 7 << 20), &x, 8));
      co_await qp.PostBatch(std::move(batch));
    } else {
      co_await qp.Post(WorkRequest::Write(GlobalAddress(0, 6 << 20), &x, 8));
      co_await qp.Post(WorkRequest::Write(GlobalAddress(0, 7 << 20), &x, 8));
    }
    *out = f->simulator().now() - t0;
  };
  sim::SimTime combined = 0, sequential = 0;
  {
    Fabric fab(MakeConfig());
    sim::Spawn(measure(&fab, true, &combined));
    fab.simulator().Run();
  }
  {
    Fabric fab(MakeConfig());
    sim::Spawn(measure(&fab, false, &sequential));
    fab.simulator().Run();
  }
  EXPECT_LT(combined, sequential);
  EXPECT_GT(sequential, combined * 3 / 2);  // saves ~a full round trip
}

TEST_F(FabricTest, ReadAfterPostedWriteSeesData) {
  // A read posted right after a write (different "threads") must observe
  // it: PCIe read-after-write ordering at the MS NIC.
  RunTask([](Fabric* f) -> sim::Task<void> {
    const GlobalAddress addr(0, 8 << 20);
    uint64_t payload = 42;
    // Post the write but do NOT await it yet: fire-and-forget coroutine.
    bool write_done = false;
    sim::Spawn([](Fabric* f2, GlobalAddress a, uint64_t* p,
                  bool* flag) -> sim::Task<void> {
      co_await f2->qp(0, 0).Post(WorkRequest::Write(a, p, 8));
      *flag = true;
    }(f, addr, &payload, &write_done));
    // Read from another CS immediately; it must not see stale zeros IF its
    // DMA starts after the write applied. Wait one wire latency to ensure
    // the read arrives after the write.
    co_await f->simulator().Delay(f->config().wire_latency_ns + 100);
    uint64_t v = 0;
    co_await f->qp(1, 0).Post(WorkRequest::Read(addr, &v, 8));
    EXPECT_EQ(v, 42u);
  }(&fabric_));
}

TEST_F(FabricTest, RpcInvokesHandlerFifo) {
  fabric_.ms(1).set_rpc_handler([](uint64_t opcode, uint64_t arg,
                                   uint64_t arg2,
                                   std::string* body) -> uint64_t {
    EXPECT_TRUE(body->empty());  // no body sent
    return opcode * 1000 + arg * 10 + arg2 * 100;
  });
  RunTask([](Fabric* f) -> sim::Task<void> {
    const uint64_t r = co_await f->qp(0, 1).Rpc(3, 4, 5);
    EXPECT_EQ(r, 3 * 1000 + 4 * 10 + 5 * 100u);
  }(&fabric_));
  EXPECT_EQ(fabric_.ms(1).rpcs_served(), 1u);
}

TEST_F(FabricTest, RpcSerializedByMemoryThread) {
  fabric_.ms(0).set_rpc_handler(
      [](uint64_t, uint64_t, uint64_t, std::string*) -> uint64_t { return 1; });
  std::vector<sim::SimTime> completions(4);
  for (int i = 0; i < 4; i++) {
    sim::Spawn([](Fabric* f, sim::SimTime* out) -> sim::Task<void> {
      co_await f->qp(0, 0).Rpc(1, 0);
      *out = f->simulator().now();
    }(&fabric_, &completions[i]));
  }
  fabric_.simulator().Run();
  std::sort(completions.begin(), completions.end());
  // FIFO service: completions spaced by at least the service time.
  for (int i = 1; i < 4; i++) {
    EXPECT_GE(completions[i] - completions[i - 1],
              fabric_.config().rpc_service_ns);
  }
}

// 4 KB of `seed`-derived bytes, zero bytes included.
std::string PatternBytes(uint8_t seed) {
  std::string s(4096, '\0');
  for (size_t i = 0; i < s.size(); i++) {
    s[i] = static_cast<char>((i * 7 + seed) & 0xff);
  }
  return s;
}

TEST_F(FabricTest, RpcBodyRoundTripsAtUnchangedCost) {
  fabric_.ms(1).set_rpc_handler([](uint64_t opcode, uint64_t, uint64_t,
                                   std::string* body) -> uint64_t {
    if (opcode == 1) return 0;  // body-less reference call
    EXPECT_EQ(*body, PatternBytes(1));
    *body = PatternBytes(2);
    return 7;
  });
  RunTask([](Fabric* f) -> sim::Task<void> {
    sim::Simulator& sim = f->simulator();
    const sim::SimTime t0 = sim.now();
    co_await f->qp(0, 1).Rpc(1, 0);
    const sim::SimTime plain = sim.now() - t0;

    std::string body = PatternBytes(1);
    const sim::SimTime t1 = sim.now();
    EXPECT_EQ(co_await f->qp(0, 1).Rpc(2, 0, 0, &body), 7u);
    // The fixed-size message charge holds whatever the body carries.
    EXPECT_EQ(sim.now() - t1, plain);
    EXPECT_EQ(body, PatternBytes(2));
  }(&fabric_));
}

TEST(RpcBodyTest, WriterReaderRoundTrip) {
  std::string body = "stale";
  RpcWriter w(&body);  // starts the body afresh
  w.Put(uint8_t{0xab});
  w.Put(uint32_t{70000});
  w.Put(~uint64_t{0});
  w.PutBytes(std::string("a\0b\xff", 4));
  w.PutBytes("");
  RpcReader r(std::move(body));
  EXPECT_EQ(r.Get<uint8_t>(), 0xab);
  EXPECT_EQ(r.Get<uint32_t>(), 70000u);
  EXPECT_EQ(r.Get<uint64_t>(), ~uint64_t{0});
  EXPECT_EQ(r.GetBytes(), std::string("a\0b\xff", 4));
  EXPECT_EQ(r.GetBytes(), "");
}

TEST(RpcBodyTest, ReaderChecksBoundsAndFullConsumption) {
  std::string body;
  RpcWriter(&body).Put(uint32_t{5});
  // A length prefix naming more bytes than remain.
  EXPECT_DEATH(RpcReader(body).GetBytes(), "SHERMAN_CHECK");
  // Reading past the end.
  EXPECT_DEATH(RpcReader(body).Get<uint64_t>(), "SHERMAN_CHECK");
  // Leaving bytes unread.
  EXPECT_DEATH(RpcReader{body}, "SHERMAN_CHECK");
}

TEST_F(FabricTest, CountersTrackTraffic) {
  RunTask([](Fabric* f) -> sim::Task<void> {
    uint64_t v = 9;
    co_await f->qp(0, 1).Post(
        WorkRequest::Write(GlobalAddress(1, 9 << 20), &v, 8));
    uint64_t r;
    co_await f->qp(0, 1).Post(
        WorkRequest::Read(GlobalAddress(1, 9 << 20), &r, 8));
  }(&fabric_));
  const QpCounters& c = fabric_.qp(0, 1).counters();
  EXPECT_EQ(c.writes, 1u);
  EXPECT_EQ(c.reads, 1u);
  EXPECT_EQ(c.write_bytes, 8u);
  EXPECT_EQ(c.read_bytes, 8u);
  EXPECT_EQ(c.batches, 2u);
}

}  // namespace
}  // namespace sherman::rdma

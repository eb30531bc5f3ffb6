#include "host_speed.h"

#include <cstdlib>
#include <functional>
#include <queue>
#include <vector>

#include "spans.h"

namespace perfbench {

namespace {

constexpr uint64_t kMemWords = uint64_t{1} << 23;  // 64 MB
constexpr int kLiveEvents = 4000;
constexpr int kEventSteps = 3000;
constexpr size_t kLiveBlocks = 10'000;
constexpr int kAllocSteps = 3000;

uint64_t Lcg(uint64_t x) {
  return x * 6364136223846793005ull + 1442695040888963407ull;
}

// A miniature discrete-event loop: a (time, seq) priority queue of
// std::function callbacks, each doing a random read-modify-write in a
// 64 MB array and scheduling its successor, plus malloc/free churn of
// 16 B-4 KB blocks. Shared by every HostSpeed; built on first use.
class Kernel {
 public:
  Kernel() : mem_(kMemWords, 1), blocks_(kLiveBlocks, nullptr) {
    for (int i = 0; i < kLiveEvents; i++) Schedule(static_cast<uint64_t>(i));
  }
  ~Kernel() {
    for (void* b : blocks_) std::free(b);
  }
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  void Run() {
    for (int i = 0; i < kEventSteps; i++) {
      Event e = queue_.top();
      queue_.pop();
      now_ = e.time;
      e.fn();
    }
    for (int i = 0; i < kAllocSteps; i++) {
      x_ = Lcg(x_);
      void*& b = blocks_[x_ % kLiveBlocks];
      std::free(b);
      b = std::malloc(16 + (x_ >> 40) % 4080);
      static_cast<char*>(b)[0] = static_cast<char>(x_);
    }
  }

 private:
  struct Event {
    uint64_t time;
    uint64_t seq;
    std::function<void()> fn;
    bool operator>(const Event& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };

  void Schedule(uint64_t delay) {
    const uint64_t key = x_;
    queue_.push(Event{now_ + delay, seq_++, [this, key] { Fire(key); }});
  }
  void Fire(uint64_t key) {
    x_ = Lcg(x_);
    mem_[(x_ ^ key) & (kMemWords - 1)] += key;
    Schedule(x_ >> 54);
  }

  std::vector<uint64_t> mem_;
  std::vector<void*> blocks_;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue_;
  uint64_t now_ = 0;
  uint64_t seq_ = 0;
  uint64_t x_ = 0x9e3779b97f4a7c15ull;
};

Kernel& SharedKernel() {
  static Kernel kernel;
  return kernel;
}

}  // namespace

void HostSpeed::Sample() {
  Kernel& kernel = SharedKernel();
  const int64_t start = ThreadCpuNs();
  kernel.Run();
  total_ns_ += ThreadCpuNs() - start;
  samples_++;
}

double HostSpeed::Factor() const {
  if (samples_ == 0 || total_ns_ == 0) return 1.0;
  return static_cast<double>(kReferenceKernelNs) * samples_ /
         static_cast<double>(total_ns_);
}

}  // namespace perfbench

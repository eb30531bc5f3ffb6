// Host-speed calibration for the benchmark's host-clock metrics.
//
// On a shared machine the CPU time of identical work drifts with the load
// of other tenants, by up to ~30% between runs, and the drift is slow: it
// holds for seconds. HostSpeed times a fixed kernel of the benchmark's own
// (a miniature discrete-event loop over a 64 MB array plus malloc/free
// churn, see host_speed.cc) interleaved with the measured work, and host
// metrics are reported at the reference speed, at which one kernel pass
// takes kReferenceKernelNs:
//
//   reported = measured CPU time * Factor()
//   Factor() = kReferenceKernelNs / mean measured kernel time
//
// so a change in the program's host cost shows, while a change in the
// machine's speed cancels. The kernel is the benchmark's code, not the
// program's, so speeding up the simulator does not speed up the kernel.
// It must resemble the simulator's work and be sampled often: on a 4-vCPU
// VM, random access over 32 MB alone barely tracked the simulator, and one
// sample per 300 ms tracked it worse than one per 20 ms. With this kernel
// every 20 ms, eight skew-write runs at one seed spread by 3% normalised
// (quartile spread over the median) against 13% raw. Each HostSpeed
// accumulates its own samples (one per measured run or traced pass).
#ifndef PERFBENCH_HOST_SPEED_H_
#define PERFBENCH_HOST_SPEED_H_

#include <cstdint>

namespace perfbench {

class HostSpeed {
 public:
  // Thread CPU time of one kernel pass at the reference speed.
  static constexpr int64_t kReferenceKernelNs = 4'000'000;

  // Runs the kernel once and records its thread CPU time.
  void Sample();
  // kReferenceKernelNs / mean sample; 1 before the first sample.
  double Factor() const;

 private:
  int64_t total_ns_ = 0;
  int samples_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HOST_SPEED_H_

#include "sim/simulator.h"

namespace sherman::sim {

bool Simulator::RunOne() {
  if (queue_.empty()) return false;
  now_ = queue_.NextTime();
  position_ = queue_.NextSeq();
  auto fn = queue_.Pop();
  steps_++;
  fn();
  return true;
}

uint64_t Simulator::RunUntil(SimTime deadline) {
  uint64_t processed = 0;
  while (!queue_.empty() && queue_.NextTime() <= deadline) {
    RunOne();
    processed++;
  }
  if (!queue_.empty() && now_ < deadline) now_ = deadline;
  // With nothing left due at now, every stamp at now has passed.
  if (queue_.empty() || queue_.NextTime() > now_) position_ = queue_.SeqMark();
  return processed;
}

}  // namespace sherman::sim

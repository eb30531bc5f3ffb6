#include "rdma/memory_region.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "sim/simulator.h"
#include "util/logging.h"

namespace sherman::rdma {

MemoryRegion::MemoryRegion(uint64_t size) : size_(size) {
  const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  // The region ends within 16 bytes of the guard page, and its first byte
  // keeps the 16-byte alignment a heap allocation would have.
  const size_t span = (size + 15) & ~size_t{15};
  const size_t data_bytes = (span + page - 1) / page * page;
  map_bytes_ = data_bytes + page;
  void* map = mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  SHERMAN_CHECK_MSG(map != MAP_FAILED, "mmap of %zu bytes failed", map_bytes_);
  map_ = static_cast<uint8_t*>(map);
  SHERMAN_CHECK(mprotect(map_ + data_bytes, page, PROT_NONE) == 0);
  data_ = map_ + data_bytes - span;
}

MemoryRegion::~MemoryRegion() { munmap(map_, map_bytes_); }

const uint8_t* MemoryRegion::raw(uint64_t offset) const {
  SHERMAN_CHECK_MSG(offset <= size_, "offset %llu beyond region size %llu",
                    static_cast<unsigned long long>(offset),
                    static_cast<unsigned long long>(size_));
  return data_ + offset;
}

uint8_t* MemoryRegion::MutableRaw(uint64_t offset, uint64_t len,
                                  const sim::Simulator& sim) {
  SHERMAN_CHECK(offset + len <= size_);
  for (ReadWindow& w : windows_) {
    if (!w.filled && w.offset < offset + len && offset < w.offset + w.len &&
        sim.Passed(w.start, w.stamp)) {
      Fill(w);
    }
  }
  return data_ + offset;
}

uint64_t MemoryRegion::OpenRead(uint64_t offset, uint32_t len, uint8_t* dst,
                                sim::SimTime start, sim::SimTime end,
                                uint64_t stamp) {
  SHERMAN_CHECK(offset + len <= size_);
  // A DMA takes time, so a Write at `start` patches the whole overlap
  // whichever side of the start event it runs on (see Write).
  SHERMAN_CHECK_MSG(end > start, "empty DMA window at t=%llu",
                    static_cast<unsigned long long>(start));
  const uint64_t handle = next_handle_++;
  windows_.push_back(
      ReadWindow{handle, offset, len, false, dst, start, end, stamp});
  return handle;
}

void MemoryRegion::CloseRead(uint64_t handle) {
  for (ReadWindow& w : windows_) {
    if (w.handle == handle) {
      if (!w.filled) Fill(w);
      w = windows_.back();
      windows_.pop_back();
      return;
    }
  }
  SHERMAN_CHECK_MSG(false, "CloseRead: unknown handle %llu",
                    static_cast<unsigned long long>(handle));
}

void MemoryRegion::Fill(ReadWindow& w) {
  std::memcpy(w.dst, data_ + w.offset, w.len);
  w.filled = true;
}

uint64_t MemoryRegion::Progress(const ReadWindow& w, sim::SimTime now) {
  if (now <= w.start) return w.offset;
  if (now >= w.end) return w.offset + w.len;
  const double frac = static_cast<double>(now - w.start) /
                      static_cast<double>(w.end - w.start);
  return w.offset + static_cast<uint64_t>(frac * w.len);
}

void MemoryRegion::Write(sim::SimTime now, uint64_t offset, const uint8_t* src,
                         uint32_t len) {
  SHERMAN_CHECK(offset + len <= size_);
  for (ReadWindow& w : windows_) {
    const uint64_t overlap_begin = std::max(offset, w.offset);
    const uint64_t overlap_end =
        std::min<uint64_t>(offset + len, w.offset + w.len);
    if (overlap_begin >= overlap_end) continue;
    if (!w.filled) {
      // Up to its start the DMA has moved nothing: the later fill reads
      // this write, as a patch of the whole overlap would.
      if (now <= w.start) continue;
      Fill(w);
    }
    // Bytes below the DMA progress point were already transferred and keep
    // their old value in the reader's buffer.
    const uint64_t patch_begin = std::max(overlap_begin, Progress(w, now));
    if (patch_begin >= overlap_end) continue;
    std::memcpy(w.dst + (patch_begin - w.offset), src + (patch_begin - offset),
                overlap_end - patch_begin);
  }
  std::memcpy(data_ + offset, src, len);
}

uint64_t MemoryRegion::Read64(uint64_t offset) const {
  SHERMAN_CHECK(offset + 8 <= size_);
  uint64_t v;
  std::memcpy(&v, data_ + offset, 8);
  return v;
}

void MemoryRegion::Write64(sim::SimTime now, uint64_t offset, uint64_t value) {
  uint8_t buf[8];
  std::memcpy(buf, &value, 8);
  Write(now, offset, buf, 8);
}

}  // namespace sherman::rdma

#include "rdma/memory_region.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

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

uint8_t* MemoryRegion::raw(uint64_t offset) {
  SHERMAN_CHECK_MSG(offset <= size_, "offset %llu beyond region size %llu",
                    static_cast<unsigned long long>(offset),
                    static_cast<unsigned long long>(size_));
  return data_ + offset;
}

const uint8_t* MemoryRegion::raw(uint64_t offset) const {
  SHERMAN_CHECK(offset <= size_);
  return data_ + offset;
}

uint64_t MemoryRegion::BeginRead(uint64_t offset, uint32_t len, uint8_t* dst,
                                 sim::SimTime start, sim::SimTime end) {
  SHERMAN_CHECK(offset + len <= size_);
  SHERMAN_CHECK(end >= start);
  std::memcpy(dst, data_ + offset, len);
  const uint64_t handle = next_handle_++;
  inflight_.push_back(InflightRead{handle, offset, len, dst, start, end});
  return handle;
}

void MemoryRegion::EndRead(uint64_t handle) {
  for (InflightRead& r : inflight_) {
    if (r.handle == handle) {
      r = inflight_.back();
      inflight_.pop_back();
      return;
    }
  }
  SHERMAN_CHECK_MSG(false, "EndRead: unknown handle %llu",
                    static_cast<unsigned long long>(handle));
}

uint64_t MemoryRegion::Progress(const InflightRead& r, sim::SimTime now) {
  if (now <= r.start) return r.offset;
  if (now >= r.end) return r.offset + r.len;
  const double frac = static_cast<double>(now - r.start) /
                      static_cast<double>(r.end - r.start);
  return r.offset + static_cast<uint64_t>(frac * r.len);
}

void MemoryRegion::Write(sim::SimTime now, uint64_t offset, const uint8_t* src,
                         uint32_t len) {
  SHERMAN_CHECK(offset + len <= size_);
  std::memcpy(data_ + offset, src, len);
  // Patch the not-yet-transferred suffix of overlapping in-flight reads:
  // bytes below the DMA progress point were already transferred and keep
  // their old value in the reader's buffer.
  for (const InflightRead& r : inflight_) {
    const uint64_t overlap_begin =
        std::max({offset, r.offset, Progress(r, now)});
    const uint64_t overlap_end =
        std::min<uint64_t>(offset + len, r.offset + r.len);
    if (overlap_begin >= overlap_end) continue;
    std::memcpy(r.dst + (overlap_begin - r.offset), src + (overlap_begin - offset),
                overlap_end - overlap_begin);
  }
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

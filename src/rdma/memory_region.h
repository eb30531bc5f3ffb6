// MemoryRegion: a byte-addressable region on a memory server (host DRAM or
// NIC on-chip memory) with DMA-faithful read semantics.
//
// RDMA NICs transfer READ payloads in increasing address order (paper
// footnote 5). We model a READ's DMA as a window [start, end) that moves
// the bytes at a constant rate: a WRITE executed inside the window reaches
// only the suffix of the reader's buffer that the DMA has not yet passed.
// This reproduces torn reads — and their rarity (Figure 14a) — with the
// exact semantics Sherman's version checks rely on.
//
// A window is registered when its READ is posted and its buffer is filled
// lazily, so a READ costs one copy and no events of its own:
//   - The first change to its bytes after the DMA started (a Write or a
//     MutableRaw) first copies the still unchanged bytes into the buffer;
//     a Write then patches the suffix not yet transferred.
//   - CloseRead, in the READ's completion, copies the bytes if nothing did
//     (so none changed since the start) and unregisters the window.
// A change before the start is simply part of what the DMA reads. At a tie
// with the start (same nanosecond), the window's stamp (a
// Simulator::TakeStamp() taken at post time) orders the start among that
// nanosecond's events: a MutableRaw change is in the payload iff it runs
// before the stamp. A Write at the start patches its whole overlap (a DMA
// takes time, so none has moved yet), which is the same payload either way.
//
// The bytes live in a lazily zero-filled anonymous mapping: a memory
// server's DRAM pool is large and the index touches it sparsely, so
// untouched simulated memory costs no host time or resident memory. A
// PROT_NONE guard page follows the region, with the region's last byte
// placed just before it, so a host overrun past raw() faults at once.
#ifndef SHERMAN_RDMA_MEMORY_REGION_H_
#define SHERMAN_RDMA_MEMORY_REGION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/event_queue.h"

namespace sherman::sim {
class Simulator;
}  // namespace sherman::sim

namespace sherman::rdma {

class MemoryRegion {
 public:
  explicit MemoryRegion(uint64_t size);
  ~MemoryRegion();

  MemoryRegion(const MemoryRegion&) = delete;
  MemoryRegion& operator=(const MemoryRegion&) = delete;

  uint64_t size() const { return size_; }

  // Read-only access for inspection: simulated memory changes only through
  // Write/Write64 and MutableRaw.
  const uint8_t* raw(uint64_t offset) const;

  // The one way to change simulated memory in place outside the verbs
  // (memory-server RPC executors, bulk load): first fills every window
  // over [offset, offset+len) whose DMA started before the code now running
  // in `sim`, so those READs keep the bytes they already moved. The
  // pointer is for changes to that range made before `sim` runs another
  // event.
  uint8_t* MutableRaw(uint64_t offset, uint64_t len,
                      const sim::Simulator& sim);

  // --- DMA read windows ---
  // Registers a READ of [offset, offset+len) into dst whose DMA occupies
  // [start, end); `stamp` orders the start among same-time events. Copies
  // nothing yet. Returns a handle.
  uint64_t OpenRead(uint64_t offset, uint32_t len, uint8_t* dst,
                    sim::SimTime start, sim::SimTime end, uint64_t stamp);
  // Completes the READ at or after `end`: dst now holds the final (possibly
  // torn) payload, and the window is unregistered.
  void CloseRead(uint64_t handle);

  // Applies a write of [offset, offset+len) at simulated time `now`,
  // patching the not-yet-transferred suffix of every overlapping window.
  void Write(sim::SimTime now, uint64_t offset, const uint8_t* src,
             uint32_t len);

  // 8-byte accessors used by the atomic units (always aligned).
  uint64_t Read64(uint64_t offset) const;
  // Atomic write also patches in-flight readers.
  void Write64(sim::SimTime now, uint64_t offset, uint64_t value);

  size_t inflight_reads() const { return windows_.size(); }

 private:
  struct ReadWindow {
    uint64_t handle;
    uint64_t offset;
    uint32_t len;
    bool filled;  // dst holds the bytes at the DMA start (plus patches)
    uint8_t* dst;
    sim::SimTime start;
    sim::SimTime end;
    uint64_t stamp;
  };

  // Copies the window's bytes, unchanged since its DMA started, into dst.
  void Fill(ReadWindow& w);
  // First byte address the DMA has NOT yet transferred at time `now`.
  static uint64_t Progress(const ReadWindow& w, sim::SimTime now);

  uint64_t size_;
  uint8_t* map_ = nullptr;   // start of the mapping (data + guard page)
  size_t map_bytes_ = 0;
  uint8_t* data_ = nullptr;  // byte 0 of the region, inside the mapping
  std::vector<ReadWindow> windows_;  // unordered; CloseRead swap-removes
  uint64_t next_handle_ = 1;
};

}  // namespace sherman::rdma

#endif  // SHERMAN_RDMA_MEMORY_REGION_H_

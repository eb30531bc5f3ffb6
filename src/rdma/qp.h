// Qp: a reliable-connected queue pair between one compute server and one
// memory server.
//
// Two hardware properties that Sherman exploits are modeled explicitly:
//  - in-order delivery/execution of the WRs inside one doorbell batch
//    (command combination, §4.5), plus the NIC/PCIe rule that reads and
//    atomics never pass previously posted writes at the same MS (the
//    paper's §5.5.1) — together these give Sherman its ordering guarantees
//    without extra round trips;
//  - doorbell batching: PostBatch() posts a linked list of WRs in one call;
//    only the last WR is signaled, so the whole batch costs one completed
//    round trip.
//
// One Qp object serves all client threads of a CS toward one MS. In the
// real system each thread owns a QP; accordingly, independent batches are
// NOT ordered against each other.
#ifndef SHERMAN_RDMA_QP_H_
#define SHERMAN_RDMA_QP_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "rdma/config.h"
#include "rdma/verbs.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "util/logging.h"
#include "util/slice.h"

namespace sherman::rdma {

class ComputeServer;
class MemoryServer;
class MemoryRegion;

struct QpCounters {
  uint64_t batches = 0;     // doorbell rings == round trips on this QP
  uint64_t wrs = 0;         // individual work requests
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t atomics = 0;
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;
  uint64_t rpcs = 0;
};

// Writes an RPC body: fixed-width integers in host byte order (both ends
// share one process) and u32-length-prefixed byte strings. Starts the body
// afresh, so a handler can write its response over the request it read.
class RpcWriter {
 public:
  explicit RpcWriter(std::string* body) : body_(body) { body_->clear(); }

  template <typename T>
  void Put(T v) {
    static_assert(std::is_integral_v<T>);
    body_->append(reinterpret_cast<const char*>(&v), sizeof(v));
  }
  void PutBytes(const Slice& s) {
    Put(static_cast<uint32_t>(s.size()));
    body_->append(s.data(), s.size());
  }

 private:
  std::string* body_;
};

// Reads a body written by RpcWriter, field by field in writing order. It
// owns the bytes (move the body in), and aborts on a read past the end or
// when destroyed with bytes left unread.
class RpcReader {
 public:
  explicit RpcReader(std::string body) : body_(std::move(body)) {}
  ~RpcReader() { SHERMAN_CHECK(pos_ == body_.size()); }

  RpcReader(const RpcReader&) = delete;
  RpcReader& operator=(const RpcReader&) = delete;

  template <typename T>
  T Get() {
    static_assert(std::is_integral_v<T>);
    SHERMAN_CHECK(sizeof(T) <= body_.size() - pos_);
    T v{};
    std::memcpy(&v, body_.data() + pos_, sizeof(v));
    pos_ += sizeof(v);
    return v;
  }
  std::string GetBytes() {
    const uint32_t n = Get<uint32_t>();
    SHERMAN_CHECK(n <= body_.size() - pos_);
    std::string s = body_.substr(pos_, n);
    pos_ += n;
    return s;
  }

 private:
  std::string body_;
  size_t pos_ = 0;
};

class Qp {
 public:
  Qp(ComputeServer* cs, MemoryServer* ms, sim::Simulator* sim,
     const FabricConfig* cfg);

  Qp(const Qp&) = delete;
  Qp& operator=(const Qp&) = delete;

  uint16_t remote_id() const;

  // Posts a single signaled work request; resumes when its completion entry
  // would be polled from the CQ.
  sim::Task<RdmaResult> Post(const WorkRequest& wr) { return PostWrs(wr, {}); }

  // Posts a doorbell-batched list; WRs execute in order at the target NIC;
  // a single completion (for the last WR) ends the call. READ or atomic WRs
  // may only appear in the last position (earlier ones would need their own
  // response; Sherman never batches them).
  sim::Task<RdmaResult> PostBatch(std::vector<WorkRequest> wrs) {
    SHERMAN_CHECK(!wrs.empty());
    return PostWrs(WorkRequest(), std::move(wrs));
  }

  // Posts a doorbell-batched list of INDEPENDENT READs (op pipelining):
  // one doorbell ring, request headers leave the TX engine back to back,
  // the target executes each READ as soon as its header arrives (no
  // intra-batch ordering dependency), and the response payloads stream
  // back in posting order. Only the last WR is signaled, so the whole
  // batch costs one completed round trip — the wire/DMA legs of all reads
  // overlap instead of paying a full RTT each.
  sim::Task<RdmaResult> PostReadBatch(std::vector<WorkRequest> wrs);

  // Two-sided RPC to the memory server's memory thread (§4.2.4). The message
  // is an opcode, two words and an optional byte body: *body (when given)
  // carries the request payload in and holds the handler's response payload
  // when the call returns. Returns the handler's response word. The wire
  // and service charge is fixed per message, whatever the body size.
  sim::Task<uint64_t> Rpc(uint64_t opcode, uint64_t arg, uint64_t arg2 = 0,
                          std::string* body = nullptr);

  const QpCounters& counters() const { return counters_; }
  void ResetCounters() { counters_ = QpCounters(); }

 private:
  // Payload bytes carried by the request / response message of a WR.
  static uint32_t RequestPayload(const WorkRequest& wr);
  static uint32_t ResponsePayload(const WorkRequest& wr);

  // The one body of Post and PostBatch: posts `batch`, or `one` when
  // `batch` is empty. Both are coroutine parameters, so the WRs live in the
  // posting frame, and the WRITE and atomic events point at them there:
  // every event this schedules fires no later than the completion that
  // resumes it.
  sim::Task<RdmaResult> PostWrs(WorkRequest one,
                                std::vector<WorkRequest> batch);

  // The region a WR targets on this QP's memory server.
  MemoryRegion& RegionFor(const WorkRequest& wr) const;

  // Times the MS-side DMA of one READ: its window [start, end) begins once
  // the request is ready and every previously posted write has applied
  // (PCIe ordering). Registers the window with the target region now, at
  // post time, as *handle, schedules no event, and returns `end`. The
  // caller's completion event must CloseRead(*handle), which fills `wr`'s
  // buffer unless a write to the window already did (see MemoryRegion).
  sim::SimTime ScheduleReadDma(const WorkRequest& wr, sim::SimTime exec_ready,
                               uint64_t* handle);

  // An RPC in flight; lives in the calling Rpc() frame.
  struct RpcCall;
  // Runs the MS handler for `call` at service completion and schedules
  // its response.
  void ServeRpc(RpcCall* call);

  ComputeServer* cs_;
  MemoryServer* ms_;
  sim::Simulator* sim_;
  const FabricConfig* cfg_;
  QpCounters counters_;
};

}  // namespace sherman::rdma

#endif  // SHERMAN_RDMA_QP_H_

#include "rdma/qp.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "fault/crash_point.h"
#include "rdma/compute_server.h"
#include "rdma/memory_server.h"
#include "sanitizer/dmsan.h"
#include "util/logging.h"

namespace sherman::rdma {

namespace {
// Wire payload charged for each RPC message, either way.
constexpr uint32_t kRpcBytes = 32;
}  // namespace

Qp::Qp(ComputeServer* cs, MemoryServer* ms, sim::Simulator* sim,
       const FabricConfig* cfg)
    : cs_(cs), ms_(ms), sim_(sim), cfg_(cfg) {}

uint16_t Qp::remote_id() const { return ms_->id(); }

MemoryRegion& Qp::RegionFor(const WorkRequest& wr) const {
  return wr.space == MemorySpace::kHost ? ms_->host() : ms_->device();
}

uint32_t Qp::RequestPayload(const WorkRequest& wr) {
  switch (wr.verb) {
    case Verb::kWrite:
      return wr.length;
    case Verb::kRead:
      return 0;  // address/length ride in the header
    case Verb::kCas:
    case Verb::kMaskedCas:
      return 16;  // compare + swap operands
    case Verb::kFaa:
      return 8;
  }
  return 0;
}

uint32_t Qp::ResponsePayload(const WorkRequest& wr) {
  switch (wr.verb) {
    case Verb::kWrite:
      return 0;  // ack only
    case Verb::kRead:
      return wr.length;
    case Verb::kCas:
    case Verb::kMaskedCas:
    case Verb::kFaa:
      return 8;  // fetched value
  }
  return 0;
}

sim::Task<RdmaResult> Qp::PostWrs(WorkRequest one,
                                  std::vector<WorkRequest> batch) {
  // Crash-fault injection: a dead compute server issues nothing further —
  // any coroutine of a killed client freezes at its next doorbell.
  co_await fault::Injector().FreezeIfDead(cs_->id());
  const WorkRequest* wrs = batch.empty() ? &one : batch.data();
  const size_t n = batch.empty() ? 1 : batch.size();
  counters_.batches++;
  counters_.wrs += n;

  sim::Simulator* sim = sim_;
  const FabricConfig* cfg = cfg_;
  Nic& cs_nic = cs_->nic();
  Nic& ms_nic = ms_->nic();

  // Completion and DMA state live in this coroutine frame. Every event
  // scheduled below fires no later than the completion event, and the frame
  // is alive until the completion resumes it (a crashed client's frame is
  // parked, never destroyed), so plain pointers into the frame are safe to
  // capture.
  bool cas_success = false;
  MemoryRegion* read_region = nullptr;  // the READ's window, if the batch
  uint64_t read_handle = 0;             // ends in a READ
  // WRITE payloads are snapshotted at post time (the NIC DMAs them from the
  // sender then) into one buffer for the whole batch.
  size_t payload_bytes = 0;
  for (size_t i = 0; i < n; i++) {
    if (wrs[i].verb == Verb::kWrite) payload_bytes += wrs[i].length;
  }
  sim::PooledBuffer payload(payload_bytes);
  uint8_t* payload_next = payload.data<uint8_t>();

  sim::SimTime tx_prev = sim->now();
  sim::SimTime exec_done = sim->now();
  // In-order execution applies *within* a doorbell batch (its WRs are
  // dependent by construction, §4.5). Independent operations — in the real
  // system they ride distinct per-thread QPs — are ordered only by the
  // NIC/PCIe rules: reads and atomics never pass previously issued posted
  // writes (see MemoryServer::NoteWriteApply).
  sim::SimTime batch_prev_exec = 0;
  uint32_t last_resp_payload = 0;

  for (size_t i = 0; i < n; i++) {
    const WorkRequest& wr = wrs[i];
    const bool is_last = (i + 1 == n);
    SHERMAN_CHECK_MSG(is_last || wr.verb == Verb::kWrite,
                      "only WRITEs may precede the last WR in a batch");

    // DMSan observes every WR at post time: the simulator is single-
    // threaded, so post order IS the order protocol decisions were made in.
    if (dmsan::Active()) {
      if (dmsan::Checker* checker = dmsan::Find(sim)) {
        checker->OnWr(cs_->id(), wr);
      }
    }

    switch (wr.verb) {
      case Verb::kRead:
        counters_.reads++;
        counters_.read_bytes += wr.length;
        break;
      case Verb::kWrite:
        counters_.writes++;
        counters_.write_bytes += wr.length;
        break;
      default:
        counters_.atomics++;
        break;
    }

    // Request path: sender TX engine -> wire -> receiver RX engine.
    const uint32_t req_payload = RequestPayload(wr);
    const sim::SimTime tx_done = cs_nic.ReserveTx(tx_prev, req_payload);
    tx_prev = tx_done;
    const sim::SimTime arrive = tx_done + cfg->wire_latency_ns;
    const sim::SimTime rx_done = ms_nic.ReserveRx(arrive, req_payload);
    const sim::SimTime exec_ready = std::max(rx_done, batch_prev_exec);
    const bool device_space = wr.space == MemorySpace::kDevice;

    MemoryRegion& region = RegionFor(wr);
    SHERMAN_CHECK_MSG(wr.remote.node == ms_->id(),
                      "WR for MS %u posted on QP to MS %u", wr.remote.node,
                      ms_->id());
    SHERMAN_CHECK(wr.remote.offset + wr.length <= region.size());

    switch (wr.verb) {
      case Verb::kWrite: {
        const sim::SimTime dma =
            wr.space == MemorySpace::kHost
                ? cfg->pcie_write_ns +
                      static_cast<sim::SimTime>(wr.length /
                                                cfg->pcie_bytes_per_ns)
                : cfg->onchip_access_ns;
        exec_done = exec_ready + dma;
        ms_->NoteWriteApply(device_space, exec_done);
        // Snapshot the payload now; apply it to remote memory at the
        // execution instant.
        const uint8_t* snapshot = payload_next;
        if (wr.length > 0) std::memcpy(payload_next, wr.local_buf, wr.length);
        payload_next += wr.length;
        sim->At(exec_done, [&region, &wr, snapshot, sim] {
          region.Write(sim->now(), wr.remote.offset, snapshot, wr.length);
        });
        break;
      }
      case Verb::kRead: {
        exec_done = ScheduleReadDma(wr, exec_ready, &read_handle);
        read_region = &region;
        break;
      }
      case Verb::kCas:
      case Verb::kMaskedCas:
      case Verb::kFaa: {
        // NIC-internal concurrency control (§3.2.2): the atomic holds its
        // bucket for the full read(+write-back) PCIe time in host memory, or
        // a few ns in on-chip memory.
        const bool on_host = wr.space == MemorySpace::kHost;
        const sim::SimTime hold = on_host
                                      ? cfg->pcie_read_ns + cfg->pcie_write_ns
                                      : cfg->onchip_access_ns;
        // Atomics read host memory too: ordered after prior posted writes.
        const sim::SimTime earliest =
            std::max(exec_ready, ms_->LastWriteApply(device_space));
        const sim::SimTime start =
            ms_nic.ReserveAtomicBucket(wr.remote.offset, earliest, hold);
        exec_done = start + hold;
        // Unlike plain writes, an atomic queued on its bucket has not yet
        // issued its PCIe write, so later reads may pass it — no
        // NoteWriteApply here.
        // The value is observed once the PCIe read returns.
        const sim::SimTime rmw_at = on_host ? start + cfg->pcie_read_ns : start;
        bool* cas_flag = &cas_success;
        sim->At(rmw_at, [&region, &w = wr, cas_flag, sim] {
          const uint64_t old = region.Read64(w.remote.offset);
          if (w.fetched != nullptr) *w.fetched = old;
          switch (w.verb) {
            case Verb::kCas:
              if (old == w.compare) {
                region.Write64(sim->now(), w.remote.offset, w.swap_or_add);
                *cas_flag = true;
              }
              break;
            case Verb::kMaskedCas:
              if ((old & w.mask) == (w.compare & w.mask)) {
                const uint64_t next =
                    (old & ~w.mask) | (w.swap_or_add & w.mask);
                region.Write64(sim->now(), w.remote.offset, next);
                *cas_flag = true;
              }
              break;
            case Verb::kFaa:
              region.Write64(sim->now(), w.remote.offset, old + w.swap_or_add);
              break;
            default:
              break;
          }
        });
        break;
      }
    }
    batch_prev_exec = exec_done;
    if (is_last) last_resp_payload = ResponsePayload(wr);
  }

  // Response / completion path for the (only) signaled WR.
  const sim::SimTime resp_tx_done = ms_nic.ReserveTx(exec_done, last_resp_payload);
  const sim::SimTime resp_arrive = resp_tx_done + cfg->wire_latency_ns;
  const sim::SimTime resp_done = cs_nic.ReserveRx(resp_arrive, last_resp_payload);
  const sim::SimTime completion = resp_done + cfg->cq_poll_ns;

  sim::OneShot done;
  sim->At(completion, [&done, read_region, read_handle] {
    if (read_region != nullptr) read_region->CloseRead(read_handle);
    done.Fire();
  });
  co_await done;

  RdmaResult result;
  result.status = Status::OK();
  result.cas_success = cas_success;
  co_return result;
}

sim::SimTime Qp::ScheduleReadDma(const WorkRequest& wr,
                                 sim::SimTime exec_ready, uint64_t* handle) {
  const FabricConfig* cfg = cfg_;
  const bool device_space = wr.space == MemorySpace::kDevice;
  const sim::SimTime dma =
      wr.space == MemorySpace::kHost
          ? cfg->pcie_read_ns + static_cast<sim::SimTime>(
                                    wr.length / cfg->pcie_bytes_per_ns)
          : cfg->onchip_access_ns;
  // PCIe ordering: the read may not pass previously posted writes.
  const sim::SimTime start =
      std::max(exec_ready, ms_->LastWriteApply(device_space));
  const sim::SimTime end = start + dma;
  // The stamp holds the place an event at `start`, scheduled now, would
  // take, so a same-nanosecond in-place change orders against the DMA
  // start exactly as it would against that event.
  *handle = RegionFor(wr).OpenRead(wr.remote.offset, wr.length,
                                   static_cast<uint8_t*>(wr.local_buf), start,
                                   end, sim_->TakeStamp());
  return end;
}

sim::Task<RdmaResult> Qp::PostReadBatch(std::vector<WorkRequest> wrs) {
  co_await fault::Injector().FreezeIfDead(cs_->id());
  SHERMAN_CHECK(!wrs.empty());
  counters_.batches++;
  counters_.wrs += wrs.size();

  sim::Simulator* sim = sim_;
  const FabricConfig* cfg = cfg_;
  Nic& cs_nic = cs_->nic();
  Nic& ms_nic = ms_->nic();

  // Request headers ride the TX engine back to back (one doorbell); each
  // READ's DMA starts as soon as its own header clears the target RX —
  // unlike PostBatch there is no execute-after-predecessor chain, the
  // reads are independent by contract.
  // One read-window handle per READ, owned by this frame (see PostWrs).
  sim::PooledBuffer handles(wrs.size() * sizeof(uint64_t));
  sim::SimTime tx_prev = sim->now();
  sim::SimTime resp_prev = 0;
  sim::SimTime last_resp_done = 0;
  for (size_t i = 0; i < wrs.size(); i++) {
    const WorkRequest& wr = wrs[i];
    SHERMAN_CHECK_MSG(wr.verb == Verb::kRead,
                      "PostReadBatch accepts only READs");
    SHERMAN_CHECK_MSG(wr.remote.node == ms_->id(),
                      "WR for MS %u posted on QP to MS %u", wr.remote.node,
                      ms_->id());
    counters_.reads++;
    counters_.read_bytes += wr.length;
    SHERMAN_CHECK(wr.remote.offset + wr.length <= RegionFor(wr).size());
    if (dmsan::Active()) {
      if (dmsan::Checker* checker = dmsan::Find(sim)) {
        checker->OnWr(cs_->id(), wr);
      }
    }

    const sim::SimTime tx_done = cs_nic.ReserveTx(tx_prev, RequestPayload(wr));
    tx_prev = tx_done;
    const sim::SimTime arrive = tx_done + cfg->wire_latency_ns;
    const sim::SimTime rx_done = ms_nic.ReserveRx(arrive, RequestPayload(wr));
    const sim::SimTime exec_done =
        ScheduleReadDma(wr, rx_done, &handles.data<uint64_t>()[i]);

    // Responses return in posting order on the RC channel.
    const sim::SimTime resp_ready = std::max(exec_done, resp_prev);
    const sim::SimTime resp_tx =
        ms_nic.ReserveTx(resp_ready, ResponsePayload(wr));
    resp_prev = resp_tx;
    const sim::SimTime resp_arrive = resp_tx + cfg->wire_latency_ns;
    last_resp_done = cs_nic.ReserveRx(resp_arrive, ResponsePayload(wr));
  }

  // One completion, polled after the last response lands; it closes every
  // READ's window.
  const sim::SimTime completion = last_resp_done + cfg->cq_poll_ns;
  sim::OneShot done;
  sim->At(completion,
          [this, &wrs, ids = handles.data<uint64_t>(), &done] {
            for (size_t i = 0; i < wrs.size(); i++) {
              RegionFor(wrs[i]).CloseRead(ids[i]);
            }
            done.Fire();
          });
  co_await done;

  RdmaResult result;
  result.status = Status::OK();
  co_return result;
}

struct Qp::RpcCall {
  uint64_t opcode = 0;
  uint64_t arg = 0;
  uint64_t arg2 = 0;
  std::string* body = nullptr;
  uint64_t response = 0;
  sim::OneShot done;
};

sim::Task<uint64_t> Qp::Rpc(uint64_t opcode, uint64_t arg, uint64_t arg2,
                            std::string* body) {
  co_await fault::Injector().FreezeIfDead(cs_->id());
  counters_.rpcs++;
  std::string no_body;
  RpcCall call;
  call.opcode = opcode;
  call.arg = arg;
  call.arg2 = arg2;
  call.body = body != nullptr ? body : &no_body;

  // Request: SEND to the MS.
  const sim::SimTime tx_done = cs_->nic().ReserveTx(sim_->now(), kRpcBytes);
  const sim::SimTime arrive = tx_done + cfg_->wire_latency_ns;
  const sim::SimTime rx_done = ms_->nic().ReserveRx(arrive, kRpcBytes);

  // The memory thread serves requests FIFO with a fixed service time.
  const sim::SimTime svc_done = ms_->ReserveMemoryThread(rx_done);

  // The response's NIC/wire legs are reserved at service-completion time,
  // not issue time: the NIC FIFO clocks advance in reservation order, so
  // reserving the TX engine for a far-future svc_done (a deep memory-thread
  // queue) would stall every later message on this MS — including one-sided
  // READ responses — behind a slot that is not actually occupied yet.
  // `call` lives in this frame until `done` resumes it.
  sim_->At(svc_done, [this, c = &call] { ServeRpc(c); });
  co_await call.done;
  co_return call.response;
}

void Qp::ServeRpc(RpcCall* call) {
  SHERMAN_CHECK_MSG(ms_->rpc_handler() != nullptr,
                    "RPC to MS %u with no handler installed", ms_->id());
  call->response =
      ms_->rpc_handler()(call->opcode, call->arg, call->arg2, call->body);

  // Response: SEND back to the CS.
  const sim::SimTime resp_tx = ms_->nic().ReserveTx(sim_->now(), kRpcBytes);
  const sim::SimTime resp_arrive = resp_tx + cfg_->wire_latency_ns;
  const sim::SimTime resp_done = cs_->nic().ReserveRx(resp_arrive, kRpcBytes);
  sim_->At(resp_done + cfg_->cq_poll_ns, [call] { call->done.Fire(); });
}

}  // namespace sherman::rdma

// Fabric: owns the simulator, the memory servers, and the compute servers,
// and wires up QPs. This is the root object of the simulated disaggregated
// memory architecture (Figure 1 / Figure 5 of the paper).
#ifndef SHERMAN_RDMA_FABRIC_H_
#define SHERMAN_RDMA_FABRIC_H_

#include <memory>
#include <vector>

#include "rdma/compute_server.h"
#include "rdma/config.h"
#include "rdma/memory_server.h"
#include "rdma/qp.h"
#include "sim/simulator.h"

namespace sherman::rdma {

class Fabric {
 public:
  explicit Fabric(FabricConfig cfg);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  sim::Simulator& simulator() { return sim_; }
  const FabricConfig& config() const { return cfg_; }

  int num_memory_servers() const { return static_cast<int>(memory_.size()); }
  int num_compute_servers() const { return static_cast<int>(compute_.size()); }

  MemoryServer& ms(int i) { return *memory_[i]; }
  ComputeServer& cs(int i) { return *compute_[i]; }

  // The QP from compute server `cs_id` to memory server `ms_id`.
  Qp& qp(int cs_id, int ms_id) { return cs(cs_id).qp(static_cast<uint16_t>(ms_id)); }

  // Elastic scale-out: brings one more memory server online. The MS is
  // constructed with the fabric's standard geometry, and every compute
  // server connects a fresh RC QP to it, so one-sided ops and RPCs can
  // target it immediately. Callers layer the rest of the bring-up on top
  // (chunk manager, RPC services, shard migration — see ShermanSystem::
  // AddMemoryServer and migrate/migrator.h). Returns the new server; its
  // id is the previous num_memory_servers().
  MemoryServer& AddMemoryServer();

  // Direct host-memory access for verification and memory-server-side
  // lookups (bypasses the timing model; never use from simulated clients).
  const uint8_t* HostRaw(GlobalAddress addr) {
    return ms(addr.node).host().raw(addr.offset);
  }
  // The one mutable door into host memory outside the verbs, for the
  // memory-server RPC executors and bulk load: `len` bytes at `addr` may be
  // changed in place until the simulator runs another event. READs whose
  // DMA already started keep the bytes they moved (see
  // MemoryRegion::MutableRaw).
  uint8_t* HostMutable(GlobalAddress addr, uint64_t len) {
    return ms(addr.node).host().MutableRaw(addr.offset, len, sim_);
  }

  // Aggregate NIC counters over all servers (for reports).
  NicCounters TotalMsNicCounters() const;
  void ResetNicCounters();

 private:
  FabricConfig cfg_;
  sim::Simulator sim_;
  std::vector<std::unique_ptr<MemoryServer>> memory_;
  std::vector<std::unique_ptr<ComputeServer>> compute_;
};

}  // namespace sherman::rdma

#endif  // SHERMAN_RDMA_FABRIC_H_

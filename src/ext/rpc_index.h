// RpcIndex: a Cell/FaRM-style index whose WRITE path runs as remote
// procedure calls executed by the memory server's wimpy memory thread —
// the design the paper argues cannot work on disaggregated memory (§3.1:
// "with near-zero computation power at MS-side, we cannot delegate index
// operations to CPUs of MSs via RPCs").
//
// Each MS hosts one ordered shard (keys are range-partitioned by hash),
// maintained by its memory thread; every Put/Delete costs one RPC whose
// service time is bounded by the thread's throughput (1/rpc_service_ns,
// ~0.33 Mops per MS at the default 3 us). Reads can go either way; we
// serve them via RPC too, matching Cell's near-root behaviour.
//
// This exists to make the motivation measurable (bench_ablation part d):
// RPC saturates at num_ms / rpc_service_ns regardless of client count,
// while Sherman's one-sided path scales with NIC IOPS.
#ifndef SHERMAN_EXT_RPC_INDEX_H_
#define SHERMAN_EXT_RPC_INDEX_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/stats.h"
#include "rdma/fabric.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "util/status.h"

namespace sherman::ext {

class RpcIndex {
 public:
  // Installs shard handlers on every MS's memory thread. The index owns
  // the shard state (conceptually resident in MS host memory; the memory
  // thread is its only mutator, so no remote locking is needed — that is
  // the RPC design's one advantage).
  explicit RpcIndex(rdma::Fabric* fabric);

  RpcIndex(const RpcIndex&) = delete;
  RpcIndex& operator=(const RpcIndex&) = delete;

  // Pre-populates shards without simulated traffic.
  void BulkLoad(const std::vector<std::pair<uint64_t, uint64_t>>& kvs);

  uint64_t DebugCount() const;

  rdma::Fabric* fabric() { return fabric_; }
  int ShardFor(uint64_t key) const;

 private:
  friend class RpcIndexClient;

  // Point ops carry (key, value) in the RPC words. Scans and coalesced
  // batches carry their pairs / keys / values in the RPC body; the words
  // hold the scan's (from, count) or the batch's key count.
  static constexpr uint64_t kOpPut = 100;
  static constexpr uint64_t kOpGet = 101;
  static constexpr uint64_t kOpDelete = 102;
  static constexpr uint64_t kOpScan = 103;
  static constexpr uint64_t kOpMultiGet = 104;
  static constexpr uint64_t kOpMultiPut = 105;

  uint64_t HandleRpc(int ms, uint64_t opcode, uint64_t arg, uint64_t arg2,
                     std::string* body);

  rdma::Fabric* fabric_;
  std::vector<std::map<uint64_t, uint64_t>> shards_;  // one per MS
};

class RpcIndexClient {
 public:
  RpcIndexClient(RpcIndex* index, int cs_id) : index_(index), cs_id_(cs_id) {}

  // Op names follow TreeClient's, so templated callers (the bench runner,
  // tests) take either client.
  sim::Task<Status> Insert(uint64_t key, uint64_t value,
                           OpStats* stats = nullptr);
  sim::Task<Status> Lookup(uint64_t key, uint64_t* value,
                           OpStats* stats = nullptr);
  sim::Task<Status> Delete(uint64_t key, OpStats* stats = nullptr);
  // Returns up to `count` key-ordered pairs with key >= from. Keys are
  // hash-sharded, so every MS must be asked — one RPC per MS, the
  // structural weakness of an RPC hash index on range workloads.
  sim::Task<Status> RangeQuery(uint64_t from, uint32_t count,
                               std::vector<std::pair<uint64_t, uint64_t>>* out,
                               OpStats* stats = nullptr);

  // Coalesced batch ops: the keys/kvs are grouped by shard and each shard
  // is asked with ONE RPC carrying the whole sub-batch in its body, so
  // a depth-d batch costs ceil(d / shards-touched) service slots of wire
  // overhead instead of d round trips. out->at(i) answers keys[i].
  sim::Task<Status> MultiGet(std::vector<uint64_t> keys,
                             std::vector<MultiGetResult>* out,
                             OpStats* stats = nullptr);
  sim::Task<Status> MultiInsert(
      std::vector<std::pair<uint64_t, uint64_t>> kvs,
      OpStats* stats = nullptr);

 private:
  sim::Task<void> ScanShard(int ms, uint64_t from, uint32_t count,
                            std::vector<std::pair<uint64_t, uint64_t>>* out,
                            sim::CountdownLatch* latch);
  sim::Task<void> MultiGetShard(int ms, std::vector<uint64_t> keys,
                                std::vector<size_t> idxs,
                                std::vector<MultiGetResult>* out,
                                OpStats* stats, sim::CountdownLatch* latch);
  sim::Task<void> MultiInsertShard(
      int ms, std::vector<std::pair<uint64_t, uint64_t>> kvs,
      OpStats* stats, sim::CountdownLatch* latch);

  RpcIndex* index_;
  int cs_id_;
};

}  // namespace sherman::ext

#endif  // SHERMAN_EXT_RPC_INDEX_H_

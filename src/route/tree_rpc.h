// TreeRpcService: near-memory execution of Sherman tree operations.
//
// The hybrid router's offload path does NOT keep a second index: it ships
// the *operation* to a memory server's wimpy memory thread, which executes
// it directly against the same B-link tree in MS host memory. One RPC
// round trip replaces the one-sided path's 2-4 cache-miss round trips — at
// the price of the memory thread's FIFO service-time ceiling (the trade
// FlexKV exploits; cold / read-mostly shards win, hot shards lose).
//
// Consistency with concurrent one-sided clients:
//  - The simulator is discrete-event, so a handler executes atomically at
//    one instant; readers on either path always observe a consistent node.
//  - One-sided writers hold the HOCL global lock from before they read a
//    leaf until their write-back is applied. The executor therefore checks
//    the node's global lock lane before mutating and DECLINES if it is
//    held; a mutation that lands while the lane is free is ordered either
//    before the one-sided writer's lock CAS (and thus observed by its
//    subsequent read) or after its release. Declined ops fall back to the
//    one-sided path at the caller.
//  - Structural changes (leaf splits) are never performed MS-side; a full
//    leaf also DECLINES to the one-sided path.
//
// Opcode space 200+ chains on top of whatever handler the MS already has
// (chunk-allocation RPCs), so the service coexists with ShermanSystem.
#ifndef SHERMAN_ROUTE_TREE_RPC_H_
#define SHERMAN_ROUTE_TREE_RPC_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/btree.h"
#include "core/stats.h"
#include "sim/task.h"
#include "util/status.h"

namespace sherman::route {

class TreeRpcService {
 public:
  // Every op message carries its operands and results in the RPC body
  // (rdma::RpcWriter / RpcReader): keys, values, per-key statuses and scan
  // results. A singleton point op is a batch of one. Statuses are OK,
  // NotFound, or Retry (declined: locked leaf / full leaf / anomaly — the
  // caller falls back one-sided). The RPC itself is charged as one fixed
  // message each way and one service slot, as in rdma::Qp::Rpc.
  //
  // Range scan: words (from, count); response body (status, pairs).
  static constexpr uint64_t kOpScan = 200;
  // Coalesced batches: body = the key / kv list; response body = per-key
  // results. Each key beyond the first charges the memory thread half a
  // service slot (a root-to-leaf walk per key), so batches are cheaper than
  // op-at-a-time RPCs but still show up in the FIFO backlog the router
  // watches.
  static constexpr uint64_t kOpMultiGet = 201;
  static constexpr uint64_t kOpMultiInsert = 202;
  static constexpr uint64_t kOpMultiDelete = 203;
  // Varlen (slotted-leaf) ops, with byte keys/values in the body. The
  // executor serves inline records only: values above inline_threshold
  // need the client's value-log appender, and out-of-line values whose
  // extent lives on a FOREIGN MS are not near-memory — both decline to the
  // one-sided path.
  static constexpr uint64_t kOpVarDelete = 204;  // body: key
  static constexpr uint64_t kOpVarScan = 205;    // word 2: count; body: from
  static constexpr uint64_t kOpMultiVarGet = 206;
  static constexpr uint64_t kOpMultiVarInsert = 207;

  // Installs handlers on every MS of the system's fabric, chaining to the
  // previously installed handler for foreign opcodes.
  explicit TreeRpcService(ShermanSystem* system);

  TreeRpcService(const TreeRpcService&) = delete;
  TreeRpcService& operator=(const TreeRpcService&) = delete;

  ShermanSystem* system() { return system_; }

  // Installs this service's handler on one MS — used when a memory server
  // joins after construction (elastic scale-out). Must run after the MS's
  // chunk manager installed its base handler (ChainRpcHandler forwards
  // foreign opcodes to it).
  void InstallOn(int ms);

  uint64_t served() const { return served_; }
  uint64_t declined() const { return declined_; }
  // Leaves merged + reclaimed by the MS-side delete executor (same merge
  // logic as the one-sided path; skipped when any involved lock is held).
  uint64_t leaf_merges() const { return leaf_merges_; }

 private:
  // Decodes the request body, runs the executor, and writes its results
  // over the body.
  void Handle(int ms, uint64_t opcode, uint64_t a, uint64_t b,
              std::string* body);

  // Descends from the root to the level-`level` node covering `key`
  // through raw host memory. Returns null on any structural anomaly
  // (caller declines). Height-1 trees have no level-1 node.
  rdma::GlobalAddress FindNode(Key key, uint8_t level) const;
  rdma::GlobalAddress FindLeaf(Key key) const { return FindNode(key, 0); }
  // Is the HOCL global lock lane guarding `addr` currently held?
  bool NodeLocked(rdma::GlobalAddress addr) const;

  Status DoScan(int ms, Key from, uint32_t count,
                std::vector<std::pair<Key, uint64_t>>* out);
  std::vector<MultiGetResult> DoMultiGet(int ms, const std::vector<Key>& keys);
  std::vector<Status> DoMultiInsert(
      int ms, const std::vector<std::pair<Key, uint64_t>>& kvs);
  std::vector<Status> DoMultiDelete(int ms, const std::vector<Key>& keys);
  Status DoVarDelete(int ms, const std::string& key);
  Status DoVarScan(int ms, const std::string& from, uint32_t count,
                   std::vector<std::pair<std::string, std::string>>* out);
  std::vector<VarGetResult> DoMultiVarGet(int ms,
                                          const std::vector<std::string>& keys);
  std::vector<Status> DoMultiVarInsert(
      int ms, const std::vector<std::pair<std::string, std::string>>& kvs);

  // Charges MS `ms`'s memory thread half a service slot for each of `walks`
  // node walks beyond the first: per key of a batch, per leaf of a scan.
  void ChargeWalks(int ms, size_t walks);

  // One inline-record var insert against the leaf covering `key` on the
  // host path. Returns OK, or Retry naming the decline reason.
  Status HostVarInsert(const std::string& key, const std::string& value);
  // One var point read; OK/NotFound, or Retry when the record's extent
  // lives on a foreign MS.
  Status HostVarLookup(int ms, const std::string& key, std::string* value);
  // Materializes slot `i` of `view` into *value. False when the record is
  // out-of-line on a foreign MS (caller declines).
  bool HostVarValue(int ms, const NodeView& view, uint32_t i,
                    const std::string& key, std::string* value) const;

  // Opportunistic MS-side mirror of TreeClient::TryMergeLeafLocked: the
  // handler runs atomically at one simulated instant, so instead of taking
  // the three locks it simply skips the merge unless the leaf's, the left
  // sibling's, and the parent's lock lanes are all free. The freed leaf
  // goes to its MS's epoch-keyed grace list like any client-side merge.
  void TryMergeHost(rdma::GlobalAddress leaf);

  ShermanSystem* system_;
  uint64_t served_ = 0;
  uint64_t declined_ = 0;
  uint64_t leaf_merges_ = 0;
};

// Per-compute-server client stub for TreeRpcService. The caller names the
// target MS (the shard's home, per the router's DEX-style pinning); a Retry
// status means the MS declined and the op must be retried one-sided. The
// singleton point ops (Insert, Lookup, Delete, InsertVar, LookupVar) send
// a one-key batch.
class TreeRpcClient {
 public:
  TreeRpcClient(TreeRpcService* service, int cs_id)
      : service_(service), cs_id_(cs_id) {}

  sim::Task<Status> Insert(uint16_t ms, Key key, uint64_t value,
                           OpStats* stats);
  sim::Task<Status> Lookup(uint16_t ms, Key key, uint64_t* value,
                           OpStats* stats);
  sim::Task<Status> Delete(uint16_t ms, Key key, OpStats* stats);
  sim::Task<Status> RangeQuery(uint16_t ms, Key from, uint32_t count,
                               std::vector<std::pair<Key, uint64_t>>* out,
                               OpStats* stats);

  // Coalesced batches against one MS (the shard's home): ONE RPC carries
  // the whole sub-batch. Per-key statuses are OK / NotFound / Retry; a
  // Retry key was declined MS-side and must fall back one-sided.
  sim::Task<Status> MultiGet(uint16_t ms, std::vector<Key> keys,
                             std::vector<MultiGetResult>* out, OpStats* stats);
  sim::Task<Status> MultiInsert(uint16_t ms,
                                std::vector<std::pair<Key, uint64_t>> kvs,
                                std::vector<Status>* per_key, OpStats* stats);
  sim::Task<Status> MultiDelete(uint16_t ms, std::vector<Key> keys,
                                std::vector<Status>* per_key, OpStats* stats);

  // Varlen ops against one MS. Retry = declined, retry one-sided.
  sim::Task<Status> InsertVar(uint16_t ms, const Slice& key,
                              const Slice& value, OpStats* stats);
  sim::Task<Status> LookupVar(uint16_t ms, const Slice& key,
                              std::string* value, OpStats* stats);
  sim::Task<Status> DeleteVar(uint16_t ms, const Slice& key, OpStats* stats);
  sim::Task<Status> ScanVar(
      uint16_t ms, const Slice& from, uint32_t count,
      std::vector<std::pair<std::string, std::string>>* out, OpStats* stats);
  sim::Task<Status> MultiGetVar(uint16_t ms, std::vector<std::string> keys,
                                std::vector<VarGetResult>* out,
                                OpStats* stats);
  sim::Task<Status> MultiInsertVar(
      uint16_t ms, std::vector<std::pair<std::string, std::string>> kvs,
      std::vector<Status>* per_key, OpStats* stats);

 private:
  // One round trip to MS `ms`'s executor: sends (opcode, a, b, body) and
  // returns the response body.
  sim::Task<std::string> Call(uint16_t ms, uint64_t opcode, uint64_t a,
                              uint64_t b, std::string body, OpStats* stats);

  TreeRpcService* service_;
  int cs_id_;
};

}  // namespace sherman::route

#endif  // SHERMAN_ROUTE_TREE_RPC_H_

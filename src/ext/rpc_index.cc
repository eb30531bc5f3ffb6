#include "ext/rpc_index.h"

#include <algorithm>

#include "sim/sync.h"
#include "util/logging.h"

namespace sherman::ext {

namespace {
uint64_t MixKey(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}
}  // namespace

RpcIndex::RpcIndex(rdma::Fabric* fabric) : fabric_(fabric) {
  const int num_ms = fabric->num_memory_servers();
  shards_.resize(num_ms);
  for (int ms = 0; ms < num_ms; ms++) {
    // Chain onto any handler already installed (e.g. a ChunkManager's
    // allocation RPCs) so the index can coexist with a ShermanSystem on
    // the same fabric.
    fabric->ms(ms).ChainRpcHandler(
        kOpPut, kOpMultiPut,
        [this, ms](uint64_t opcode, uint64_t arg, uint64_t arg2, uint16_t) {
          return HandleRpc(ms, opcode, arg, arg2);
        });
  }
}

int RpcIndex::ShardFor(uint64_t key) const {
  return static_cast<int>(MixKey(key) % shards_.size());
}

void RpcIndex::BulkLoad(
    const std::vector<std::pair<uint64_t, uint64_t>>& kvs) {
  for (const auto& [k, v] : kvs) shards_[ShardFor(k)][k] = v;
}

uint64_t RpcIndex::DebugCount() const {
  uint64_t n = 0;
  for (const auto& s : shards_) n += s.size();
  return n;
}

uint64_t RpcIndex::HandleRpc(int ms, uint64_t opcode, uint64_t key,
                             uint64_t value) {
  std::map<uint64_t, uint64_t>& shard = shards_[ms];
  switch (opcode) {
    case kOpPut:
      shard[key] = value;
      return 1;
    case kOpGet: {
      auto it = shard.find(key);
      // Encode found/value: callers reserve value 0 as "absent".
      return it == shard.end() ? 0 : it->second;
    }
    case kOpDelete:
      return shard.erase(key);
    case kOpScan: {
      // key = from; value packs (token << 16 | count). The memory thread
      // collects this shard's first `count` pairs >= from; the client
      // merges across shards.
      const uint64_t token = value >> 16;
      const uint32_t count = static_cast<uint32_t>(value & 0xffff);
      std::vector<std::pair<uint64_t, uint64_t>>& out = scan_out_[token];
      uint32_t got = 0;
      for (auto it = shard.lower_bound(key);
           it != shard.end() && got < count; ++it, ++got) {
        out.emplace_back(it->first, it->second);
      }
      return got;
    }
    case kOpMultiGet: {
      // key = token; the caller staged the key list under it. One RPC slot
      // covers the first key; each additional map probe costs the wimpy
      // core a quarter slot, charged so batches show up in the FIFO
      // backlog without erasing the coalescing win.
      const auto in = mget_in_.find(key);
      SHERMAN_CHECK(in != mget_in_.end());
      std::vector<uint64_t>& out = mget_out_[key];
      uint64_t found = 0;
      for (uint64_t k : in->second) {
        auto it = shard.find(k);
        out.push_back(it == shard.end() ? 0 : it->second);
        if (it != shard.end()) found++;
      }
      if (in->second.size() > 1) {
        fabric_->ms(ms).ChargeMemoryThread(
            static_cast<sim::SimTime>(in->second.size() - 1) *
            fabric_->config().rpc_service_ns / 4);
      }
      mget_in_.erase(in);
      return found;
    }
    case kOpMultiPut: {
      const auto in = mput_in_.find(key);
      SHERMAN_CHECK(in != mput_in_.end());
      for (const auto& [k, v] : in->second) shard[k] = v;
      const uint64_t n = in->second.size();
      if (n > 1) {
        fabric_->ms(ms).ChargeMemoryThread(
            static_cast<sim::SimTime>(n - 1) *
            fabric_->config().rpc_service_ns / 4);
      }
      mput_in_.erase(in);
      return n;
    }
    default:
      SHERMAN_CHECK_MSG(false, "unknown RpcIndex opcode %llu",
                        static_cast<unsigned long long>(opcode));
      return 0;
  }
}

sim::Task<Status> RpcIndexClient::Insert(uint64_t key, uint64_t value,
                                         OpStats* stats) {
  SHERMAN_CHECK(value != 0);  // 0 is the "absent" sentinel
  const int ms = index_->ShardFor(key);
  co_await index_->fabric()->qp(cs_id_, ms).Rpc(RpcIndex::kOpPut, key, value);
  if (stats != nullptr) stats->round_trips++;
  co_return Status::OK();
}

sim::Task<Status> RpcIndexClient::Lookup(uint64_t key, uint64_t* value,
                                         OpStats* stats) {
  const int ms = index_->ShardFor(key);
  const uint64_t r =
      co_await index_->fabric()->qp(cs_id_, ms).Rpc(RpcIndex::kOpGet, key);
  if (stats != nullptr) stats->round_trips++;
  if (r == 0) co_return Status::NotFound();
  *value = r;
  co_return Status::OK();
}

sim::Task<Status> RpcIndexClient::Delete(uint64_t key, OpStats* stats) {
  const int ms = index_->ShardFor(key);
  const uint64_t r =
      co_await index_->fabric()->qp(cs_id_, ms).Rpc(RpcIndex::kOpDelete, key);
  if (stats != nullptr) stats->round_trips++;
  co_return r ? Status::OK() : Status::NotFound();
}

namespace {
sim::Task<void> ScanShard(rdma::Qp* qp, uint64_t opcode, uint64_t from,
                          uint64_t packed, sim::CountdownLatch* latch) {
  co_await qp->Rpc(opcode, from, packed);
  latch->Arrive();
}
}  // namespace

sim::Task<Status> RpcIndexClient::RangeQuery(
    uint64_t from, uint32_t count,
    std::vector<std::pair<uint64_t, uint64_t>>* out, OpStats* stats) {
  out->clear();
  if (count == 0) co_return Status::OK();
  if (count >= (1u << 16)) {  // count rides in 16 bits of the RPC payload
    co_return Status::InvalidArgument("scan count exceeds 65535");
  }
  const uint64_t token = index_->NewScanToken();
  const uint64_t packed = (token << 16) | count;
  const int num_ms = index_->fabric()->num_memory_servers();
  // Keys are hash-sharded, so every MS holds part of the range; ask them
  // all concurrently (a real client posts the SENDs back to back).
  sim::CountdownLatch latch(num_ms);
  for (int ms = 0; ms < num_ms; ms++) {
    sim::Spawn(ScanShard(&index_->fabric()->qp(cs_id_, ms), RpcIndex::kOpScan,
                         from, packed, &latch));
    if (stats != nullptr) stats->round_trips++;
  }
  co_await latch.Wait();
  auto it = index_->scan_out_.find(token);
  if (it != index_->scan_out_.end()) {
    *out = std::move(it->second);
    index_->scan_out_.erase(it);
    std::sort(out->begin(), out->end());
    if (out->size() > count) out->resize(count);
  }
  co_return Status::OK();
}

sim::Task<void> RpcIndexClient::MultiGetShard(int ms, uint64_t token,
                                              std::vector<uint64_t> keys,
                                              std::vector<size_t> idxs,
                                              std::vector<MultiGetResult>* out,
                                              OpStats* stats,
                                              sim::CountdownLatch* latch) {
  index_->mget_in_[token] = keys;
  co_await index_->fabric()->qp(cs_id_, ms).Rpc(RpcIndex::kOpMultiGet, token);
  if (stats != nullptr) stats->round_trips++;
  auto it = index_->mget_out_.find(token);
  SHERMAN_CHECK(it != index_->mget_out_.end() &&
                it->second.size() == idxs.size());
  for (size_t j = 0; j < idxs.size(); j++) {
    const uint64_t v = it->second[j];
    (*out)[idxs[j]].status = v == 0 ? Status::NotFound() : Status::OK();
    (*out)[idxs[j]].value = v;
  }
  index_->mget_out_.erase(it);
  latch->Arrive();
}

sim::Task<Status> RpcIndexClient::MultiGet(std::vector<uint64_t> keys,
                                           std::vector<MultiGetResult>* out,
                                           OpStats* stats) {
  out->assign(keys.size(), MultiGetResult{});
  if (keys.empty()) co_return Status::OK();
  // One coalesced RPC per shard, all shards asked concurrently.
  std::map<int, std::pair<std::vector<uint64_t>, std::vector<size_t>>> by_ms;
  for (size_t i = 0; i < keys.size(); i++) {
    auto& [ks, idxs] = by_ms[index_->ShardFor(keys[i])];
    ks.push_back(keys[i]);
    idxs.push_back(i);
  }
  sim::CountdownLatch latch(by_ms.size());
  for (auto& [ms, group] : by_ms) {
    sim::Spawn(MultiGetShard(ms, index_->NewScanToken(),
                             std::move(group.first), std::move(group.second),
                             out, stats, &latch));
  }
  co_await latch.Wait();
  co_return Status::OK();
}

sim::Task<void> RpcIndexClient::MultiInsertShard(
    int ms, uint64_t token, std::vector<std::pair<uint64_t, uint64_t>> kvs,
    OpStats* stats, sim::CountdownLatch* latch) {
  const uint64_t n = kvs.size();
  index_->mput_in_[token] = std::move(kvs);
  const uint64_t r =
      co_await index_->fabric()->qp(cs_id_, ms).Rpc(RpcIndex::kOpMultiPut,
                                                    token);
  if (stats != nullptr) stats->round_trips++;
  SHERMAN_CHECK(r == n);
  latch->Arrive();
}

sim::Task<Status> RpcIndexClient::MultiInsert(
    std::vector<std::pair<uint64_t, uint64_t>> kvs, OpStats* stats) {
  if (kvs.empty()) co_return Status::OK();
  std::map<int, std::vector<std::pair<uint64_t, uint64_t>>> by_ms;
  for (const auto& [k, v] : kvs) {
    SHERMAN_CHECK(v != 0);  // 0 is the "absent" sentinel
    by_ms[index_->ShardFor(k)].emplace_back(k, v);
  }
  sim::CountdownLatch latch(by_ms.size());
  for (auto& [ms, group] : by_ms) {
    sim::Spawn(MultiInsertShard(ms, index_->NewScanToken(), std::move(group),
                                stats, &latch));
  }
  co_await latch.Wait();
  co_return Status::OK();
}

}  // namespace sherman::ext

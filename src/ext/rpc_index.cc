#include "ext/rpc_index.h"

#include <algorithm>
#include <string>
#include <utility>

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
        [this, ms](uint64_t opcode, uint64_t arg, uint64_t arg2,
                   std::string* body) {
          return HandleRpc(ms, opcode, arg, arg2, body);
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

uint64_t RpcIndex::HandleRpc(int ms, uint64_t opcode, uint64_t arg,
                             uint64_t arg2, std::string* body) {
  std::map<uint64_t, uint64_t>& shard = shards_[ms];
  switch (opcode) {
    case kOpPut:
      shard[arg] = arg2;
      return 1;
    case kOpGet: {
      auto it = shard.find(arg);
      // Encode found/value: callers reserve value 0 as "absent".
      return it == shard.end() ? 0 : it->second;
    }
    case kOpDelete:
      return shard.erase(arg);
    case kOpScan: {
      // (arg, arg2) = (from, count). The memory thread returns this
      // shard's first `count` pairs >= from in the body and their number
      // in the word; the client merges across shards.
      rdma::RpcWriter out(body);
      uint64_t got = 0;
      for (auto it = shard.lower_bound(arg); it != shard.end() && got < arg2;
           ++it, ++got) {
        out.Put(it->first);
        out.Put(it->second);
      }
      return got;
    }
    case kOpMultiGet: {
      // arg = key count; the body holds the keys and the response body one
      // value per key (0 = absent). One RPC slot covers the first key; each
      // additional map probe costs the wimpy core a quarter slot, charged
      // so batches show up in the FIFO backlog without erasing the
      // coalescing win.
      rdma::RpcReader in(std::move(*body));
      rdma::RpcWriter out(body);
      uint64_t found = 0;
      for (uint64_t i = 0; i < arg; i++) {
        auto it = shard.find(in.Get<uint64_t>());
        out.Put(it == shard.end() ? uint64_t{0} : it->second);
        if (it != shard.end()) found++;
      }
      if (arg > 1) {
        fabric_->ms(ms).ChargeMemoryThread(static_cast<sim::SimTime>(arg - 1) *
                                           fabric_->config().rpc_service_ns /
                                           4);
      }
      return found;
    }
    case kOpMultiPut: {
      // arg = pair count; the body holds the pairs. Charged like MultiGet.
      rdma::RpcReader in(std::exchange(*body, std::string()));
      for (uint64_t i = 0; i < arg; i++) {
        const uint64_t k = in.Get<uint64_t>();
        shard[k] = in.Get<uint64_t>();
      }
      if (arg > 1) {
        fabric_->ms(ms).ChargeMemoryThread(static_cast<sim::SimTime>(arg - 1) *
                                           fabric_->config().rpc_service_ns /
                                           4);
      }
      return arg;
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

sim::Task<void> RpcIndexClient::ScanShard(
    int ms, uint64_t from, uint32_t count,
    std::vector<std::pair<uint64_t, uint64_t>>* out,
    sim::CountdownLatch* latch) {
  std::string body;
  const uint64_t got = co_await index_->fabric()->qp(cs_id_, ms).Rpc(
      RpcIndex::kOpScan, from, count, &body);
  rdma::RpcReader in(std::move(body));
  for (uint64_t i = 0; i < got; i++) {
    const uint64_t k = in.Get<uint64_t>();
    out->emplace_back(k, in.Get<uint64_t>());
  }
  latch->Arrive();
}

sim::Task<Status> RpcIndexClient::RangeQuery(
    uint64_t from, uint32_t count,
    std::vector<std::pair<uint64_t, uint64_t>>* out, OpStats* stats) {
  out->clear();
  if (count == 0) co_return Status::OK();
  const int num_ms = index_->fabric()->num_memory_servers();
  // Keys are hash-sharded, so every MS holds part of the range; ask them
  // all concurrently (a real client posts the SENDs back to back).
  sim::CountdownLatch latch(num_ms);
  for (int ms = 0; ms < num_ms; ms++) {
    sim::Spawn(ScanShard(ms, from, count, out, &latch));
    if (stats != nullptr) stats->round_trips++;
  }
  co_await latch.Wait();
  std::sort(out->begin(), out->end());
  if (out->size() > count) out->resize(count);
  co_return Status::OK();
}

sim::Task<void> RpcIndexClient::MultiGetShard(int ms,
                                              std::vector<uint64_t> keys,
                                              std::vector<size_t> idxs,
                                              std::vector<MultiGetResult>* out,
                                              OpStats* stats,
                                              sim::CountdownLatch* latch) {
  std::string body;
  rdma::RpcWriter w(&body);
  for (uint64_t k : keys) w.Put(k);
  co_await index_->fabric()->qp(cs_id_, ms).Rpc(RpcIndex::kOpMultiGet,
                                                keys.size(), 0, &body);
  if (stats != nullptr) stats->round_trips++;
  rdma::RpcReader in(std::move(body));
  for (size_t idx : idxs) {
    const uint64_t v = in.Get<uint64_t>();
    (*out)[idx].status = v == 0 ? Status::NotFound() : Status::OK();
    (*out)[idx].value = v;
  }
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
    sim::Spawn(MultiGetShard(ms, std::move(group.first),
                             std::move(group.second), out, stats, &latch));
  }
  co_await latch.Wait();
  co_return Status::OK();
}

sim::Task<void> RpcIndexClient::MultiInsertShard(
    int ms, std::vector<std::pair<uint64_t, uint64_t>> kvs, OpStats* stats,
    sim::CountdownLatch* latch) {
  std::string body;
  rdma::RpcWriter w(&body);
  for (const auto& [k, v] : kvs) {
    w.Put(k);
    w.Put(v);
  }
  const uint64_t r = co_await index_->fabric()->qp(cs_id_, ms).Rpc(
      RpcIndex::kOpMultiPut, kvs.size(), 0, &body);
  if (stats != nullptr) stats->round_trips++;
  SHERMAN_CHECK(r == kvs.size());
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
    sim::Spawn(MultiInsertShard(ms, std::move(group), stats, &latch));
  }
  co_await latch.Wait();
  co_return Status::OK();
}

}  // namespace sherman::ext

#include "route/hybrid_client.h"

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "combine/rdwc.h"
#include "util/logging.h"

namespace sherman::route {

namespace {

// Detached workers the batch paths fan out to; parameters ride by value in
// the coroutine frames.
sim::Task<void> RpcMgetShard(TreeRpcClient* rpc, uint16_t ms,
                             std::vector<Key> keys,
                             std::vector<MultiGetResult>* res, OpStats* stats,
                             sim::CountdownLatch* latch) {
  Status st = co_await rpc->MultiGet(ms, std::move(keys), res, stats);
  SHERMAN_CHECK(st.ok());
  latch->Arrive();
}

sim::Task<void> OsMget(TreeClient* tree, std::vector<Key> keys,
                       std::vector<MultiGetResult>* res, Status* overall,
                       OpStats* stats, sim::CountdownLatch* latch) {
  *overall = co_await tree->MultiGet(std::move(keys), res, stats);
  latch->Arrive();
}

sim::Task<void> RpcMinsShard(TreeRpcClient* rpc, uint16_t ms,
                             std::vector<std::pair<Key, uint64_t>> kvs,
                             std::vector<Status>* per_key, OpStats* stats,
                             sim::CountdownLatch* latch) {
  Status st = co_await rpc->MultiInsert(ms, std::move(kvs), per_key, stats);
  SHERMAN_CHECK(st.ok());
  latch->Arrive();
}

sim::Task<void> OsMins(TreeClient* tree,
                       std::vector<std::pair<Key, uint64_t>> kvs,
                       Status* overall, OpStats* stats,
                       sim::CountdownLatch* latch) {
  *overall = co_await tree->MultiInsert(std::move(kvs), stats);
  latch->Arrive();
}

sim::Task<void> RpcMdelShard(TreeRpcClient* rpc, uint16_t ms,
                             std::vector<Key> keys,
                             std::vector<Status>* per_key, OpStats* stats,
                             sim::CountdownLatch* latch) {
  Status st = co_await rpc->MultiDelete(ms, std::move(keys), per_key, stats);
  SHERMAN_CHECK(st.ok());
  latch->Arrive();
}

sim::Task<void> OsMdel(TreeClient* tree, std::vector<Key> keys,
                       std::vector<Status>* per_key, Status* overall,
                       OpStats* stats, sim::CountdownLatch* latch) {
  *overall = co_await tree->MultiDelete(std::move(keys), per_key, stats);
  latch->Arrive();
}

sim::Task<void> RpcMvgetShard(TreeRpcClient* rpc, uint16_t ms,
                              std::vector<std::string> keys,
                              std::vector<VarGetResult>* res, OpStats* stats,
                              sim::CountdownLatch* latch) {
  Status st = co_await rpc->MultiGetVar(ms, std::move(keys), res, stats);
  SHERMAN_CHECK(st.ok());
  latch->Arrive();
}

sim::Task<void> OsMvget(TreeClient* tree, std::vector<std::string> keys,
                        std::vector<VarGetResult>* res, Status* overall,
                        OpStats* stats, sim::CountdownLatch* latch) {
  *overall = co_await tree->MultiGetVar(std::move(keys), res, stats);
  latch->Arrive();
}

sim::Task<void> RpcMvinsShard(
    TreeRpcClient* rpc, uint16_t ms,
    std::vector<std::pair<std::string, std::string>> kvs,
    std::vector<Status>* per_key, OpStats* stats, sim::CountdownLatch* latch) {
  Status st = co_await rpc->MultiInsertVar(ms, std::move(kvs), per_key, stats);
  SHERMAN_CHECK(st.ok());
  latch->Arrive();
}

sim::Task<void> OsMvins(TreeClient* tree,
                        std::vector<std::pair<std::string, std::string>> kvs,
                        Status* overall, OpStats* stats,
                        sim::CountdownLatch* latch) {
  *overall = co_await tree->MultiInsertVar(std::move(kvs), stats);
  latch->Arrive();
}

void FoldStats(const OpStats& local, OpStats* stats) {
  if (stats == nullptr) return;
  stats->round_trips += local.round_trips;
  stats->read_retries += local.read_retries;
  stats->lock_retries += local.lock_retries;
  stats->bytes_written += local.bytes_written;
  stats->used_handover |= local.used_handover;
  stats->cache_hits += local.cache_hits;
  stats->cache_misses += local.cache_misses;
}

}  // namespace

void HybridClient::Finish(int shard, Path path, bool is_write,
                          const OpStats& local, bool fallback,
                          sim::SimTime start, OpStats* stats) {
  tracker_->Record(shard, path, is_write, local, fallback,
                   sim_->now() - start);
  FoldStats(local, stats);
}

void HybridClient::RecordBatch(const std::vector<SlotView>& slots,
                               const std::vector<int>& shard_of,
                               const std::vector<uint8_t>& is_fb,
                               const std::vector<size_t>& os_idx,
                               const OpStats& os_local,
                               const OpStats& fb_local, bool is_write,
                               uint64_t per_key_ns, OpStats* stats) {
  bool first_fb = true;
  for (const SlotView& slot : slots) {
    bool first = true;
    for (size_t i : *slot.idxs) {
      OpStats local;
      if (first) FoldStats(*slot.local, &local);
      if (is_fb[i] && first_fb) {
        FoldStats(fb_local, &local);
        first_fb = false;
      }
      tracker_->Record(shard_of[i], is_fb[i] ? Path::kOneSided : Path::kRpc,
                       is_write, local, is_fb[i], per_key_ns);
      first = false;
    }
    FoldStats(*slot.local, stats);
  }
  bool first_os = true;
  for (size_t i : os_idx) {
    tracker_->Record(shard_of[i], Path::kOneSided, is_write,
                     first_os ? os_local : OpStats{}, false, per_key_ns);
    first_os = false;
  }
  FoldStats(os_local, stats);
  FoldStats(fb_local, stats);
}

sim::Task<Status> HybridClient::InsertDirect(Key key, uint64_t value,
                                             OpStats* stats) {
  return Dispatch(
      key, /*is_write=*/true,
      [this, key, value](uint16_t ms, OpStats* s) {
        return rpc_.Insert(ms, key, value, s);
      },
      [this, key, value](OpStats* s) { return tree_->Insert(key, value, s); },
      stats);
}

sim::Task<Status> HybridClient::LookupDirect(Key key, uint64_t* value,
                                             OpStats* stats) {
  return Dispatch(
      key, /*is_write=*/false,
      [this, key, value](uint16_t ms, OpStats* s) {
        return rpc_.Lookup(ms, key, value, s);
      },
      [this, key, value](OpStats* s) { return tree_->Lookup(key, value, s); },
      stats);
}

sim::Task<Status> HybridClient::Insert(Key key, uint64_t value,
                                       OpStats* stats) {
  if (rdwc_ != nullptr) {
    combine::RdwcEntry* e = rdwc_->Admit(key);
    if (e != nullptr) {
      return rdwc_->RunWindow(this, e, key, /*is_put=*/true, value,
                              /*get_value=*/nullptr, stats);
    }
  }
  return InsertDirect(key, value, stats);
}

sim::Task<Status> HybridClient::Lookup(Key key, uint64_t* value,
                                       OpStats* stats) {
  if (rdwc_ != nullptr) {
    combine::RdwcEntry* e = rdwc_->Admit(key);
    if (e != nullptr) {
      return rdwc_->RunWindow(this, e, key, /*is_put=*/false, 0, value, stats);
    }
  }
  return LookupDirect(key, value, stats);
}

void HybridClient::RecordAbsorbed(Key key, bool is_write, sim::SimTime start,
                                  OpStats* stats) {
  Finish(router_->ShardFor(key), Path::kOneSided, is_write, OpStats{},
         /*fallback=*/false, start, stats);
}

sim::Task<Status> HybridClient::Delete(Key key, OpStats* stats) {
  return Dispatch(
      key, /*is_write=*/true,
      [this, key](uint16_t ms, OpStats* s) { return rpc_.Delete(ms, key, s); },
      [this, key](OpStats* s) { return tree_->Delete(key, s); }, stats);
}

sim::Task<Status> HybridClient::RangeQuery(
    Key from, uint32_t count, std::vector<std::pair<Key, uint64_t>>* out,
    OpStats* stats) {
  return Dispatch(
      from, /*is_write=*/false,
      [this, from, count, out](uint16_t ms, OpStats* s) {
        return rpc_.RangeQuery(ms, from, count, out, s);
      },
      [this, from, count, out](OpStats* s) {
        return tree_->RangeQuery(from, count, out, s);
      },
      stats);
}

sim::Task<Status> HybridClient::MultiGet(std::vector<Key> keys,
                                         std::vector<MultiGetResult>* out,
                                         OpStats* stats) {
  // Plan-time dedupe: serve each distinct key once, fan the result to
  // every instance (see the header's duplicate-key semantics).
  std::map<Key, size_t> first_of;
  for (Key k : keys) first_of.try_emplace(k, first_of.size());
  if (first_of.size() != keys.size()) {
    std::vector<Key> uniq(first_of.size());
    for (const auto& [k, slot] : first_of) uniq[slot] = k;
    std::vector<MultiGetResult> uniq_out;
    Status st = co_await MultiGet(std::move(uniq), &uniq_out, stats);
    out->assign(keys.size(), MultiGetResult{});
    for (size_t i = 0; i < keys.size(); i++) {
      (*out)[i] = uniq_out[first_of[keys[i]]];
    }
    co_return st;
  }

  const size_t n = keys.size();
  out->assign(n, MultiGetResult{});
  if (n == 0) co_return Status::OK();
  const sim::SimTime start = sim_->now();

  // Split by logical shard; RPC-path shards each get one coalesced
  // request, one-sided keys pool into a single doorbell-batched MultiGet.
  std::vector<int> shard_of(n);
  std::map<int, std::vector<size_t>> rpc_groups;
  std::vector<size_t> os_idx;
  for (size_t i = 0; i < n; i++) {
    shard_of[i] = router_->ShardFor(keys[i]);
    if (router_->PathOfShard(shard_of[i]) == Path::kRpc) {
      rpc_groups[shard_of[i]].push_back(i);
    } else {
      os_idx.push_back(i);
    }
  }

  struct RpcSlot {
    int shard = 0;
    std::vector<size_t> idxs;
    std::vector<MultiGetResult> res;
    OpStats local;
  };
  std::vector<RpcSlot> slots;
  slots.reserve(rpc_groups.size());
  for (auto& [shard, idxs] : rpc_groups) {
    slots.push_back(RpcSlot{shard, std::move(idxs), {}, {}});
  }

  std::vector<MultiGetResult> os_res;
  OpStats os_local;
  Status os_st = Status::OK();
  {
    sim::CountdownLatch latch(slots.size() + (os_idx.empty() ? 0 : 1));
    for (RpcSlot& slot : slots) {
      std::vector<Key> ks;
      ks.reserve(slot.idxs.size());
      for (size_t i : slot.idxs) ks.push_back(keys[i]);
      sim::Spawn(RpcMgetShard(&rpc_, router_->HomeMsFor(slot.shard),
                              std::move(ks), &slot.res, &slot.local, &latch));
    }
    if (!os_idx.empty()) {
      std::vector<Key> ks;
      ks.reserve(os_idx.size());
      for (size_t i : os_idx) ks.push_back(keys[i]);
      sim::Spawn(
          OsMget(tree_, std::move(ks), &os_res, &os_st, &os_local, &latch));
    }
    co_await latch.Wait();
  }

  // Scatter; MS-declined keys fall back to one more one-sided batch.
  std::vector<size_t> fb_idx;
  for (const RpcSlot& slot : slots) {
    for (size_t j = 0; j < slot.idxs.size(); j++) {
      if (slot.res[j].status.IsRetry()) {
        fb_idx.push_back(slot.idxs[j]);
      } else {
        (*out)[slot.idxs[j]] = slot.res[j];
      }
    }
  }
  for (size_t j = 0; j < os_idx.size(); j++) (*out)[os_idx[j]] = os_res[j];

  OpStats fb_local;
  Status fb_st = Status::OK();
  std::vector<uint8_t> is_fb(n, 0);
  if (!fb_idx.empty()) {
    std::vector<Key> ks;
    std::vector<MultiGetResult> fb_res;
    ks.reserve(fb_idx.size());
    for (size_t i : fb_idx) {
      ks.push_back(keys[i]);
      is_fb[i] = 1;
    }
    fb_st = co_await tree_->MultiGet(std::move(ks), &fb_res, &fb_local);
    for (size_t j = 0; j < fb_idx.size(); j++) (*out)[fb_idx[j]] = fb_res[j];
  }

  std::vector<SlotView> views;
  views.reserve(slots.size());
  for (const RpcSlot& s : slots) {
    views.push_back(SlotView{&s.idxs, &s.local});
  }
  RecordBatch(views, shard_of, is_fb, os_idx, os_local, fb_local,
              /*is_write=*/false, (sim_->now() - start) / n, stats);

  if (!os_st.ok()) co_return os_st;
  co_return fb_st;
}

sim::Task<Status> HybridClient::MultiInsert(
    std::vector<std::pair<Key, uint64_t>> kvs, OpStats* stats) {
  // Plan-time dedupe, last-writer-wins: keep one instance per key (in
  // first-occurrence position) carrying the LAST instance's value. This
  // pins the duplicate order BEFORE the batch fans out, so a declined
  // earlier instance can never be re-applied by the fallback batch after
  // a later instance already landed at the MS.
  {
    std::map<Key, size_t> slot_of;
    std::vector<std::pair<Key, uint64_t>> uniq;
    uniq.reserve(kvs.size());
    for (const auto& kv : kvs) {
      auto [it, inserted] = slot_of.try_emplace(kv.first, uniq.size());
      if (inserted) {
        uniq.push_back(kv);
      } else {
        uniq[it->second].second = kv.second;
      }
    }
    if (uniq.size() != kvs.size()) {
      co_return co_await MultiInsert(std::move(uniq), stats);
    }
  }

  const size_t n = kvs.size();
  if (n == 0) co_return Status::OK();
  const sim::SimTime start = sim_->now();

  std::vector<int> shard_of(n);
  std::map<int, std::vector<size_t>> rpc_groups;
  std::vector<size_t> os_idx;
  for (size_t i = 0; i < n; i++) {
    shard_of[i] = router_->ShardFor(kvs[i].first);
    if (router_->PathOfShard(shard_of[i]) == Path::kRpc) {
      rpc_groups[shard_of[i]].push_back(i);
    } else {
      os_idx.push_back(i);
    }
  }

  struct RpcSlot {
    int shard = 0;
    std::vector<size_t> idxs;
    std::vector<Status> per_key;
    OpStats local;
  };
  std::vector<RpcSlot> slots;
  slots.reserve(rpc_groups.size());
  for (auto& [shard, idxs] : rpc_groups) {
    slots.push_back(RpcSlot{shard, std::move(idxs), {}, {}});
  }

  OpStats os_local;
  Status os_st = Status::OK();
  {
    sim::CountdownLatch latch(slots.size() + (os_idx.empty() ? 0 : 1));
    for (RpcSlot& slot : slots) {
      std::vector<std::pair<Key, uint64_t>> group;
      group.reserve(slot.idxs.size());
      for (size_t i : slot.idxs) group.push_back(kvs[i]);
      sim::Spawn(RpcMinsShard(&rpc_, router_->HomeMsFor(slot.shard),
                              std::move(group), &slot.per_key, &slot.local,
                              &latch));
    }
    if (!os_idx.empty()) {
      std::vector<std::pair<Key, uint64_t>> group;
      group.reserve(os_idx.size());
      for (size_t i : os_idx) group.push_back(kvs[i]);
      sim::Spawn(OsMins(tree_, std::move(group), &os_st, &os_local, &latch));
    }
    co_await latch.Wait();
  }

  // MS-declined keys (locked leaf, split needed) fall back one-sided.
  std::vector<size_t> fb_idx;
  std::vector<uint8_t> is_fb(n, 0);
  for (const RpcSlot& slot : slots) {
    for (size_t j = 0; j < slot.idxs.size(); j++) {
      if (slot.per_key[j].IsRetry()) {
        fb_idx.push_back(slot.idxs[j]);
        is_fb[slot.idxs[j]] = 1;
      }
    }
  }
  OpStats fb_local;
  Status fb_st = Status::OK();
  if (!fb_idx.empty()) {
    std::vector<std::pair<Key, uint64_t>> group;
    group.reserve(fb_idx.size());
    for (size_t i : fb_idx) group.push_back(kvs[i]);
    fb_st = co_await tree_->MultiInsert(std::move(group), &fb_local);
  }

  std::vector<SlotView> views;
  views.reserve(slots.size());
  for (const RpcSlot& s : slots) {
    views.push_back(SlotView{&s.idxs, &s.local});
  }
  RecordBatch(views, shard_of, is_fb, os_idx, os_local, fb_local,
              /*is_write=*/true, (sim_->now() - start) / n, stats);

  if (!os_st.ok()) co_return os_st;
  co_return fb_st;
}

sim::Task<Status> HybridClient::MultiDelete(std::vector<Key> keys,
                                            std::vector<Status>* out,
                                            OpStats* stats) {
  // Plan-time dedupe, first-delete-wins: the first instance of each key
  // gets the real status; later instances of the same key in one batch
  // report NotFound (the key is already gone within the batch).
  std::map<Key, size_t> first_of;
  for (Key k : keys) first_of.try_emplace(k, first_of.size());
  if (first_of.size() != keys.size()) {
    std::vector<Key> uniq(first_of.size());
    for (const auto& [k, slot] : first_of) uniq[slot] = k;
    std::vector<Status> uniq_out;
    Status st = co_await MultiDelete(std::move(uniq), &uniq_out, stats);
    out->assign(keys.size(), Status::NotFound());
    std::vector<uint8_t> claimed(uniq_out.size(), 0);
    for (size_t i = 0; i < keys.size(); i++) {
      const size_t slot = first_of[keys[i]];
      if (claimed[slot] == 0) {
        (*out)[i] = uniq_out[slot];
        claimed[slot] = 1;
      }
    }
    co_return st;
  }

  const size_t n = keys.size();
  out->assign(n, Status::NotFound());
  if (n == 0) co_return Status::OK();
  const sim::SimTime start = sim_->now();

  // Split by logical shard; RPC-path shards each get one coalesced
  // request, one-sided keys pool into a single doorbell-batched
  // MultiDelete — the same shape as MultiGet/MultiInsert (before this,
  // batched deletes silently fell back to op-at-a-time dispatch).
  std::vector<int> shard_of(n);
  std::map<int, std::vector<size_t>> rpc_groups;
  std::vector<size_t> os_idx;
  for (size_t i = 0; i < n; i++) {
    shard_of[i] = router_->ShardFor(keys[i]);
    if (router_->PathOfShard(shard_of[i]) == Path::kRpc) {
      rpc_groups[shard_of[i]].push_back(i);
    } else {
      os_idx.push_back(i);
    }
  }

  struct RpcSlot {
    int shard = 0;
    std::vector<size_t> idxs;
    std::vector<Status> per_key;
    OpStats local;
  };
  std::vector<RpcSlot> slots;
  slots.reserve(rpc_groups.size());
  for (auto& [shard, idxs] : rpc_groups) {
    slots.push_back(RpcSlot{shard, std::move(idxs), {}, {}});
  }

  std::vector<Status> os_res;
  OpStats os_local;
  Status os_st = Status::OK();
  {
    sim::CountdownLatch latch(slots.size() + (os_idx.empty() ? 0 : 1));
    for (RpcSlot& slot : slots) {
      std::vector<Key> ks;
      ks.reserve(slot.idxs.size());
      for (size_t i : slot.idxs) ks.push_back(keys[i]);
      sim::Spawn(RpcMdelShard(&rpc_, router_->HomeMsFor(slot.shard),
                              std::move(ks), &slot.per_key, &slot.local,
                              &latch));
    }
    if (!os_idx.empty()) {
      std::vector<Key> ks;
      ks.reserve(os_idx.size());
      for (size_t i : os_idx) ks.push_back(keys[i]);
      sim::Spawn(
          OsMdel(tree_, std::move(ks), &os_res, &os_st, &os_local, &latch));
    }
    co_await latch.Wait();
  }

  // MS-declined keys (locked leaf) fall back to one one-sided batch.
  std::vector<size_t> fb_idx;
  std::vector<uint8_t> is_fb(n, 0);
  for (const RpcSlot& slot : slots) {
    for (size_t j = 0; j < slot.idxs.size(); j++) {
      if (slot.per_key[j].IsRetry()) {
        fb_idx.push_back(slot.idxs[j]);
        is_fb[slot.idxs[j]] = 1;
      } else {
        (*out)[slot.idxs[j]] = slot.per_key[j];
      }
    }
  }
  for (size_t j = 0; j < os_idx.size(); j++) (*out)[os_idx[j]] = os_res[j];

  OpStats fb_local;
  Status fb_st = Status::OK();
  if (!fb_idx.empty()) {
    std::vector<Key> ks;
    std::vector<Status> fb_res;
    ks.reserve(fb_idx.size());
    for (size_t i : fb_idx) ks.push_back(keys[i]);
    fb_st = co_await tree_->MultiDelete(std::move(ks), &fb_res, &fb_local);
    for (size_t j = 0; j < fb_idx.size(); j++) (*out)[fb_idx[j]] = fb_res[j];
  }

  std::vector<SlotView> views;
  views.reserve(slots.size());
  for (const RpcSlot& s : slots) {
    views.push_back(SlotView{&s.idxs, &s.local});
  }
  RecordBatch(views, shard_of, is_fb, os_idx, os_local, fb_local,
              /*is_write=*/true, (sim_->now() - start) / n, stats);

  if (!os_st.ok()) co_return os_st;
  co_return fb_st;
}

// --- varlen dispatch --------------------------------------------------------
// These own string copies of their operands in the coroutine frame so the
// Dispatch lambdas (and the inner coroutines their Slices point into) stay
// valid across suspension.

sim::Task<Status> HybridClient::InsertVarDirect(const Slice& key,
                                                const Slice& value,
                                                OpStats* stats) {
  const std::string k(key.data(), key.size());
  const std::string v(value.data(), value.size());
  const Slice ks(k);
  const Slice vs(v);
  co_return co_await Dispatch(
      RoutingKeyFor(ks), /*is_write=*/true,
      [this, &ks, &vs](uint16_t ms, OpStats* s) {
        return rpc_.InsertVar(ms, ks, vs, s);
      },
      [this, &ks, &vs](OpStats* s) { return tree_->InsertVar(ks, vs, s); },
      stats);
}

sim::Task<Status> HybridClient::LookupVarDirect(const Slice& key,
                                                std::string* value,
                                                OpStats* stats) {
  const std::string k(key.data(), key.size());
  const Slice ks(k);
  co_return co_await Dispatch(
      RoutingKeyFor(ks), /*is_write=*/false,
      [this, &ks, value](uint16_t ms, OpStats* s) {
        return rpc_.LookupVar(ms, ks, value, s);
      },
      [this, &ks, value](OpStats* s) { return tree_->LookupVar(ks, value, s); },
      stats);
}

sim::Task<Status> HybridClient::InsertVar(const Slice& key, const Slice& value,
                                          OpStats* stats) {
  if (rdwc_ != nullptr) {
    const Key rk = RoutingKeyFor(key);
    combine::RdwcEntry* e = rdwc_->Admit(rk);
    if (e != nullptr) {
      // Own copies: RunWindowVar holds references across suspension.
      const std::string k(key.data(), key.size());
      const std::string v(value.data(), value.size());
      co_return co_await rdwc_->RunWindowVar(this, e, rk, k, /*is_put=*/true,
                                             v, /*get_value=*/nullptr, stats);
    }
  }
  co_return co_await InsertVarDirect(key, value, stats);
}

sim::Task<Status> HybridClient::LookupVar(const Slice& key, std::string* value,
                                          OpStats* stats) {
  if (rdwc_ != nullptr) {
    const Key rk = RoutingKeyFor(key);
    combine::RdwcEntry* e = rdwc_->Admit(rk);
    if (e != nullptr) {
      const std::string k(key.data(), key.size());
      static const std::string kNoPut;
      co_return co_await rdwc_->RunWindowVar(this, e, rk, k, /*is_put=*/false,
                                             kNoPut, value, stats);
    }
  }
  co_return co_await LookupVarDirect(key, value, stats);
}

sim::Task<Status> HybridClient::DeleteVar(const Slice& key, OpStats* stats) {
  const std::string k(key.data(), key.size());
  const Slice ks(k);
  co_return co_await Dispatch(
      RoutingKeyFor(ks), /*is_write=*/true,
      [this, &ks](uint16_t ms, OpStats* s) {
        return rpc_.DeleteVar(ms, ks, s);
      },
      [this, &ks](OpStats* s) { return tree_->DeleteVar(ks, s); }, stats);
}

sim::Task<Status> HybridClient::ScanVar(
    const Slice& from, uint32_t count,
    std::vector<std::pair<std::string, std::string>>* out, OpStats* stats) {
  const std::string f(from.data(), from.size());
  const Slice fs(f);
  co_return co_await Dispatch(
      RoutingKeyFor(fs), /*is_write=*/false,
      [this, &fs, count, out](uint16_t ms, OpStats* s) {
        return rpc_.ScanVar(ms, fs, count, out, s);
      },
      [this, &fs, count, out](OpStats* s) {
        return tree_->ScanVar(fs, count, out, s);
      },
      stats);
}

sim::Task<Status> HybridClient::MultiGetVar(std::vector<std::string> keys,
                                            std::vector<VarGetResult>* out,
                                            OpStats* stats) {
  // Plan-time dedupe on the FULL byte key (routing keys may collide
  // without the keys being equal): serve each distinct key once, fan out.
  std::map<std::string, size_t> first_of;
  for (const std::string& k : keys) first_of.try_emplace(k, first_of.size());
  if (first_of.size() != keys.size()) {
    std::vector<std::string> uniq(first_of.size());
    for (const auto& [k, slot] : first_of) uniq[slot] = k;
    std::vector<VarGetResult> uniq_out;
    Status st = co_await MultiGetVar(std::move(uniq), &uniq_out, stats);
    out->assign(keys.size(), VarGetResult{});
    for (size_t i = 0; i < keys.size(); i++) {
      (*out)[i] = uniq_out[first_of[keys[i]]];
    }
    co_return st;
  }

  const size_t n = keys.size();
  out->assign(n, VarGetResult{});
  if (n == 0) co_return Status::OK();
  const sim::SimTime start = sim_->now();

  std::vector<int> shard_of(n);
  std::map<int, std::vector<size_t>> rpc_groups;
  std::vector<size_t> os_idx;
  for (size_t i = 0; i < n; i++) {
    shard_of[i] = router_->ShardFor(RoutingKeyFor(keys[i]));
    if (router_->PathOfShard(shard_of[i]) == Path::kRpc) {
      rpc_groups[shard_of[i]].push_back(i);
    } else {
      os_idx.push_back(i);
    }
  }

  struct RpcSlot {
    int shard = 0;
    std::vector<size_t> idxs;
    std::vector<VarGetResult> res;
    OpStats local;
  };
  std::vector<RpcSlot> slots;
  slots.reserve(rpc_groups.size());
  for (auto& [shard, idxs] : rpc_groups) {
    slots.push_back(RpcSlot{shard, std::move(idxs), {}, {}});
  }

  std::vector<VarGetResult> os_res;
  OpStats os_local;
  Status os_st = Status::OK();
  {
    sim::CountdownLatch latch(slots.size() + (os_idx.empty() ? 0 : 1));
    for (RpcSlot& slot : slots) {
      std::vector<std::string> ks;
      ks.reserve(slot.idxs.size());
      for (size_t i : slot.idxs) ks.push_back(keys[i]);
      sim::Spawn(RpcMvgetShard(&rpc_, router_->HomeMsFor(slot.shard),
                               std::move(ks), &slot.res, &slot.local, &latch));
    }
    if (!os_idx.empty()) {
      std::vector<std::string> ks;
      ks.reserve(os_idx.size());
      for (size_t i : os_idx) ks.push_back(keys[i]);
      sim::Spawn(
          OsMvget(tree_, std::move(ks), &os_res, &os_st, &os_local, &latch));
    }
    co_await latch.Wait();
  }

  // Scatter; MS-declined keys (foreign extent, structural anomaly) fall
  // back to one one-sided batch.
  std::vector<size_t> fb_idx;
  for (const RpcSlot& slot : slots) {
    for (size_t j = 0; j < slot.idxs.size(); j++) {
      if (slot.res[j].status.IsRetry()) {
        fb_idx.push_back(slot.idxs[j]);
      } else {
        (*out)[slot.idxs[j]] = slot.res[j];
      }
    }
  }
  for (size_t j = 0; j < os_idx.size(); j++) (*out)[os_idx[j]] = os_res[j];

  OpStats fb_local;
  Status fb_st = Status::OK();
  std::vector<uint8_t> is_fb(n, 0);
  if (!fb_idx.empty()) {
    std::vector<std::string> ks;
    std::vector<VarGetResult> fb_res;
    ks.reserve(fb_idx.size());
    for (size_t i : fb_idx) {
      ks.push_back(keys[i]);
      is_fb[i] = 1;
    }
    fb_st = co_await tree_->MultiGetVar(std::move(ks), &fb_res, &fb_local);
    for (size_t j = 0; j < fb_idx.size(); j++) {
      (*out)[fb_idx[j]] = fb_res[j];
    }
  }

  std::vector<SlotView> views;
  views.reserve(slots.size());
  for (const RpcSlot& s : slots) {
    views.push_back(SlotView{&s.idxs, &s.local});
  }
  RecordBatch(views, shard_of, is_fb, os_idx, os_local, fb_local,
              /*is_write=*/false, (sim_->now() - start) / n, stats);

  if (!os_st.ok()) co_return os_st;
  co_return fb_st;
}

sim::Task<Status> HybridClient::MultiInsertVar(
    std::vector<std::pair<std::string, std::string>> kvs, OpStats* stats) {
  // Plan-time dedupe, last-writer-wins on the FULL byte key (same rule as
  // the fixed batch).
  {
    std::map<std::string, size_t> slot_of;
    std::vector<std::pair<std::string, std::string>> uniq;
    uniq.reserve(kvs.size());
    for (auto& kv : kvs) {
      auto [it, inserted] = slot_of.try_emplace(kv.first, uniq.size());
      if (inserted) {
        uniq.push_back(std::move(kv));
      } else {
        uniq[it->second].second = std::move(kv.second);
      }
    }
    if (uniq.size() != kvs.size()) {
      co_return co_await MultiInsertVar(std::move(uniq), stats);
    }
    kvs = std::move(uniq);
  }

  const size_t n = kvs.size();
  if (n == 0) co_return Status::OK();
  const sim::SimTime start = sim_->now();

  std::vector<int> shard_of(n);
  std::map<int, std::vector<size_t>> rpc_groups;
  std::vector<size_t> os_idx;
  for (size_t i = 0; i < n; i++) {
    shard_of[i] = router_->ShardFor(RoutingKeyFor(kvs[i].first));
    if (router_->PathOfShard(shard_of[i]) == Path::kRpc) {
      rpc_groups[shard_of[i]].push_back(i);
    } else {
      os_idx.push_back(i);
    }
  }

  struct RpcSlot {
    int shard = 0;
    std::vector<size_t> idxs;
    std::vector<Status> per_key;
    OpStats local;
  };
  std::vector<RpcSlot> slots;
  slots.reserve(rpc_groups.size());
  for (auto& [shard, idxs] : rpc_groups) {
    slots.push_back(RpcSlot{shard, std::move(idxs), {}, {}});
  }

  OpStats os_local;
  Status os_st = Status::OK();
  {
    sim::CountdownLatch latch(slots.size() + (os_idx.empty() ? 0 : 1));
    for (RpcSlot& slot : slots) {
      std::vector<std::pair<std::string, std::string>> group;
      group.reserve(slot.idxs.size());
      for (size_t i : slot.idxs) group.push_back(kvs[i]);
      sim::Spawn(RpcMvinsShard(&rpc_, router_->HomeMsFor(slot.shard),
                               std::move(group), &slot.per_key, &slot.local,
                               &latch));
    }
    if (!os_idx.empty()) {
      std::vector<std::pair<std::string, std::string>> group;
      group.reserve(os_idx.size());
      for (size_t i : os_idx) group.push_back(kvs[i]);
      sim::Spawn(OsMvins(tree_, std::move(group), &os_st, &os_local, &latch));
    }
    co_await latch.Wait();
  }

  // MS-declined keys (locked/full leaf, outline value or slot) fall back
  // one-sided.
  std::vector<size_t> fb_idx;
  std::vector<uint8_t> is_fb(n, 0);
  for (const RpcSlot& slot : slots) {
    for (size_t j = 0; j < slot.idxs.size(); j++) {
      if (slot.per_key[j].IsRetry()) {
        fb_idx.push_back(slot.idxs[j]);
        is_fb[slot.idxs[j]] = 1;
      }
    }
  }
  OpStats fb_local;
  Status fb_st = Status::OK();
  if (!fb_idx.empty()) {
    std::vector<std::pair<std::string, std::string>> group;
    group.reserve(fb_idx.size());
    for (size_t i : fb_idx) group.push_back(kvs[i]);
    fb_st = co_await tree_->MultiInsertVar(std::move(group), &fb_local);
  }

  std::vector<SlotView> views;
  views.reserve(slots.size());
  for (const RpcSlot& s : slots) {
    views.push_back(SlotView{&s.idxs, &s.local});
  }
  RecordBatch(views, shard_of, is_fb, os_idx, os_local, fb_local,
              /*is_write=*/true, (sim_->now() - start) / n, stats);

  if (!os_st.ok()) co_return os_st;
  co_return fb_st;
}

}  // namespace sherman::route

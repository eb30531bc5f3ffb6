// Variable-length record operations of TreeClient (shape.varlen mode):
// string-keyed point/batch/scan ops over slotted-page leaves, the
// pointer-swizzle read fast path, and the value-log GC driver.
//
// The fixed-size ops live in core/btree.cc. This file keeps only what the
// slotted layout does differently — its leaf codec, the value-log
// append/retire around each write, and the byte-budget split point — and
// runs them through btree.cc's op skeletons (LockLeafFor, ReadLeafFor, the
// batch plan/fetch/group phases, CommitSplitAndUnlock), so varlen trees pay
// the same simulated round trips and recover through the same machinery.
// Routing is unchanged u64 B-link traversal on RoutingKeyFor(key): keys
// sharing a routing key always share a leaf, so internal nodes, fences,
// the index cache, and the recoverer never see a byte string.
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/btree.h"
#include "util/logging.h"
#include "vlog/vlog.h"

namespace sherman {

namespace {
// Swizzle-hint map bound; overflow clears (hints are speculative and
// re-validated against the leaf on every use, so losing them only costs
// the second round trip they would have saved).
constexpr size_t kVptrCacheCap = 4096;
}  // namespace

Status TreeClient::CheckVarKey(const Slice& key, Key* rk) const {
  const TreeShape& shape = opt().shape;
  SHERMAN_CHECK_MSG(shape.varlen, "var op on a fixed-size tree");
  if (key.empty() || key.size() > shape.max_key_len) {
    return Status::InvalidArgument("varlen key length out of range");
  }
  const Key r = RoutingKeyFor(key);
  // kNullKey / kMaxKey are fence sentinels in the routing tree; a key whose
  // first 8 bytes are all-zero or all-0xff would be unroutable.
  if (r == kNullKey || r == kMaxKey) {
    return Status::InvalidArgument("key routes to a reserved sentinel");
  }
  *rk = r;
  return Status::OK();
}

void TreeClient::RememberVptr(const Slice& key, uint64_t ptr,
                              uint16_t vlen) {
  const std::string_view k(key.data(), key.size());
  auto it = vptr_cache_.find(k);
  if (it != vptr_cache_.end()) {
    it->second = VptrHint{ptr, vlen};
    return;
  }
  if (vptr_cache_.size() >= kVptrCacheCap) vptr_cache_.clear();
  vptr_cache_.emplace(k, VptrHint{ptr, vlen});
}

void TreeClient::ForgetVptr(const Slice& key) {
  auto it = vptr_cache_.find(std::string_view(key.data(), key.size()));
  if (it != vptr_cache_.end()) vptr_cache_.erase(it);
}

// --- InsertVar --------------------------------------------------------------

sim::Task<bool> TreeClient::StageVarPut(NodeView& view, Slice key,
                                        Slice value, uint64_t vptr,
                                        LeafEdit* edit, uint64_t* old_ptr) {
  const rdma::FabricConfig& f = system_->fabric_.config();
  co_await system_->fabric_.simulator().Delay(f.cpu_node_search_ns);
  // An update replacing an out-of-line value must retire the old extent —
  // but only AFTER the repointed leaf has published (readers holding the
  // old pointer are epoch-pinned); the caller owns that.
  const uint32_t at = view.VarFind(key);
  *old_ptr = at != UINT32_MAX && view.VarOutline(at) ? view.VarVlogPtr(at) : 0;
  uint8_t ptr_buf[8];
  std::memcpy(ptr_buf, &vptr, 8);
  const bool outline = vptr != 0;
  if (!view.VarInsert(key,
                      outline ? ptr_buf
                              : reinterpret_cast<const uint8_t*>(value.data()),
                      outline ? 8 : static_cast<uint32_t>(value.size()),
                      static_cast<uint16_t>(value.size()), outline)) {
    co_return false;
  }
  edit->whole_node = true;
  co_return true;
}

sim::Task<Status> TreeClient::InsertVar(const Slice& key, const Slice& value,
                                        OpStats* stats) {
  Key rk = 0;
  Status st = CheckVarKey(key, &rk);
  if (!st.ok()) co_return st;
  const TreeOptions& o = opt();
  if (value.size() > 0xffff) {
    co_return Status::InvalidArgument("value exceeds the u16 length field");
  }
  const bool outline = value.size() > o.inline_threshold;
  if (outline && vlog::VlogClient::RecordBytes(key, value) >
                     (vlog::kMinExtentBytes << (vlog::kNumClasses - 1))) {
    co_return Status::InvalidArgument("value too large for the value log");
  }
  const rdma::FabricConfig& f = system_->fabric_.config();
  EpochPin pin(&system_->reclaim_, cs_id_);
  co_await system_->fabric_.simulator().Delay(f.cpu_op_overhead_ns);

  // Out-of-line values append BEFORE the leaf lock: the extent is private
  // until a leaf slot points at it, so a failed insert just retires it and
  // the append's round trip stays outside the lock hold time.
  uint64_t vptr = 0;
  if (outline) {
    StatusOr<uint64_t> p = co_await vlog_->Append(
        key, value, NodeView::VarFingerprint(key), stats);
    if (!p.ok()) co_return p.status();
    vptr = *p;
  }

  std::vector<uint8_t> buf(node_size());
  StatusOr<Locked> locked = co_await LockLeafFor(rk, buf.data(), stats);
  uint64_t old_ptr = 0;
  if (!locked.ok()) {
    st = locked.status();
  } else {
    NodeView view(buf.data(), &o.shape);
    LeafEdit edit;
    if (co_await StageVarPut(view, key, value, vptr, &edit, &old_ptr)) {
      co_await WriteBackAndUnlock(*locked, buf.data(), std::move(edit), stats);
      st = Status::OK();
    } else {
      st = co_await SplitVarLeafAndUnlock(*locked, std::move(buf), key, value,
                                          vptr, stats);
    }
  }
  if (!st.ok()) {
    if (outline) co_await vlog_->Retire(vptr, stats);  // never referenced
    co_return st;
  }
  if (old_ptr != 0) co_await vlog_->Retire(old_ptr, stats);
  if (outline) {
    RememberVptr(key, vptr, static_cast<uint16_t>(value.size()));
  } else {
    ForgetVptr(key);
  }
  co_return Status::OK();
}

sim::Task<Status> TreeClient::SplitVarLeafAndUnlock(
    Locked locked, std::vector<uint8_t> buf, const Slice& key,
    const Slice& value, uint64_t vptr, OpStats* stats) {
  SHERMAN_TEVENT(stats != nullptr ? stats->trace : nullptr, "tree.split_leaf");
  const TreeOptions& o = opt();
  const rdma::FabricConfig& f = system_->fabric_.config();
  NodeView view(buf.data(), &o.shape);
  co_await system_->fabric_.simulator().Delay(f.cpu_node_sort_ns);

  // The live entries plus the pending insert (replace or sorted insert) —
  // mirrors the fixed split's collect step. Both halves are rewritten
  // below, so the entries are read from a copy of the page.
  std::vector<uint8_t> page(buf);
  const NodeView old(page.data(), &o.shape);
  std::vector<VarSpan> entries;
  entries.reserve(old.count() + 1);
  AppendVarSpans(old, &entries);
  uint8_t ptr_buf[8];
  std::memcpy(ptr_buf, &vptr, 8);
  const VarSpan pending{
      Slice(), key,
      vptr != 0 ? Slice(reinterpret_cast<const char*>(ptr_buf), 8) : value,
      static_cast<uint16_t>(value.size()), vptr != 0};
  const uint32_t at = old.VarLowerBound(key);
  if (at < old.count() && old.VarKeyIs(at, key)) {
    entries[at] = pending;
  } else {
    entries.insert(entries.begin() + at, pending);
  }

  // Pick the cut: only a ROUTING-KEY boundary is legal (the u64 fences
  // cannot separate keys sharing a routing key), both halves must fit
  // under their own maximal prefix, and among legal cuts we take the most
  // byte-balanced one. Per-candidate byte costs come from prefix sums:
  // half bytes = slots + (raw key+payload bytes - n*prefix) + prefix.
  const size_t n = entries.size();
  std::vector<uint64_t> raw(n + 1, 0);  // cumulative key+payload bytes
  for (size_t i = 0; i < n; i++) {
    raw[i + 1] = raw[i] + entries[i].key_size() + entries[i].payload.size();
  }
  const uint64_t budget = o.shape.var_usable_bytes();
  size_t cut = 0;
  uint64_t best = UINT64_MAX;
  Key rk_prev = VarSpanRoutingKey(entries[0]);
  for (size_t i = 1; i < n; i++) {
    const Key rk_i = VarSpanRoutingKey(entries[i]);
    const bool boundary = rk_i != rk_prev;
    rk_prev = rk_i;
    if (!boundary) continue;
    const uint64_t pl = VarKeyLcp(entries[0], entries[i - 1]);
    const uint64_t pr = VarKeyLcp(entries[i], entries[n - 1]);
    const uint64_t left =
        i * kVarSlotSize + (raw[i] - i * pl) + pl;
    const uint64_t right =
        (n - i) * kVarSlotSize + (raw[n] - raw[i] - (n - i) * pr) + pr;
    if (left > budget || right > budget) continue;
    const uint64_t diff = left > right ? left - right : right - left;
    if (diff < best) {
      best = diff;
      cut = i;
    }
  }
  if (cut == 0) {
    // Either every key routes identically, or the one legal boundary
    // leaves an oversize half. Validate() guarantees two maximal entries
    // fit, so this takes max-length keys differing only past byte 8 — a
    // clean error beats a wedged retry loop.
    co_await hocl_.Unlock(locked.guard, {}, o.combine_commands, stats);
    co_return Status::InvalidArgument(
        "keys sharing one routing key exceed leaf capacity");
  }

  // Upper part -> the new right node, lower part stays here.
  const std::span<const VarSpan> all(entries);
  const Key split_key = VarSpanRoutingKey(entries[cut]);
  std::vector<uint8_t> right_buf(node_size());
  NodeView right(right_buf.data(), &o.shape);
  right.InitLeaf(split_key, view.hi_fence(), view.sibling());
  SHERMAN_CHECK(WriteVarLeaf(&right, all.subspan(cut),
                             VarKeyLcp(entries[cut], entries[n - 1])));
  const uint8_t old_version = view.front_version();
  view.InitLeaf(view.lo_fence(), split_key, rdma::kNullAddress);
  SHERMAN_CHECK(WriteVarLeaf(&view, all.first(cut),
                             VarKeyLcp(entries[0], entries[cut - 1])));
  co_return co_await CommitSplitAndUnlock(locked, buf.data(), right_buf.data(),
                                          old_version, stats);
}

// --- LookupVar --------------------------------------------------------------

sim::Task<Status> TreeClient::ResolveVarValue(const NodeView& view, uint32_t i,
                                              const Slice& key,
                                              std::string* value,
                                              OpStats* stats) {
  if (!view.VarOutline(i)) {
    const Slice v = view.VarInlineValue(i);
    value->assign(v.data(), v.size());
    co_return Status::OK();
  }
  const uint64_t ptr = view.VarVlogPtr(i);
  const uint16_t vlen = view.VarVlen(i);
  Status st = co_await vlog_->Read(ptr, key, vlen, value, stats);
  if (st.ok()) RememberVptr(key, ptr, vlen);
  co_return st;
}

sim::Task<Status> TreeClient::LookupVar(const Slice& key, std::string* value,
                                        OpStats* stats) {
  Key rk = 0;
  Status st = CheckVarKey(key, &rk);
  if (!st.ok()) co_return st;
  const TreeOptions& o = opt();
  const rdma::FabricConfig& f = system_->fabric_.config();
  EpochPin pin(&system_->reclaim_, cs_id_);
  co_await system_->fabric_.simulator().Delay(f.cpu_op_overhead_ns);
  const std::string_view hint_key(key.data(), key.size());

  std::vector<uint8_t> buf(node_size());

  // Swizzle fast path: with a cached leaf translation AND a cached value
  // pointer, the leaf READ and the value READ go out together (one
  // doorbell when same-MS, concurrent posts otherwise) and the fetched
  // leaf validates the speculation — collapsing the two dependent round
  // trips of an out-of-line read into one. The EpochPin makes the
  // speculative extent READ safe even against a concurrent retire.
  if (o.enable_cache && vptr_cache_.contains(hint_key)) {
    co_await system_->fabric_.simulator().Delay(f.cpu_cache_lookup_ns);
    const ParsedInternal* p = cache_.LookupLevel1(rk);
    // Read the hint after the delay: other ops of this client may have
    // updated or dropped it meanwhile.
    auto hint_it = vptr_cache_.find(hint_key);
    const bool hinted = hint_it != vptr_cache_.end();
    const VptrHint hint = hinted ? hint_it->second : VptrHint{};
    const uint32_t rec_len = vlog::kRecordHeader +
                             static_cast<uint32_t>(key.size()) + hint.vlen;
    if (p != nullptr && hinted &&
        rec_len <= vlog::VlogPtr::ExtentBytes(hint.ptr)) {
      const rdma::GlobalAddress leaf_addr = p->ChildFor(rk);
      const rdma::GlobalAddress vaddr = vlog::VlogPtr::Addr(hint.ptr);
      std::vector<uint8_t> vbuf(rec_len);
      if (stats != nullptr) stats->cache_hits++;
      if (vaddr.node == leaf_addr.node) {
        std::vector<rdma::WorkRequest> wrs;
        wrs.push_back(
            rdma::WorkRequest::Read(leaf_addr, buf.data(), node_size()));
        wrs.push_back(rdma::WorkRequest::Read(vaddr, vbuf.data(), rec_len));
        rdma::RdmaResult r =
            co_await QpFor(leaf_addr).PostReadBatch(std::move(wrs));
        SHERMAN_CHECK(r.status.ok());
        if (stats != nullptr) stats->round_trips++;
      } else {
        sim::CountdownLatch latch(2);
        sim::Spawn(ReadInto(leaf_addr, buf.data(), node_size(), &latch));
        sim::Spawn(ReadInto(vaddr, vbuf.data(), rec_len, &latch));
        co_await latch.Wait();
        if (stats != nullptr) stats->round_trips++;
      }
      NodeView view(buf.data(), &o.shape);
      if (NodeConsistent(buf.data()) && !view.is_free() && view.is_leaf() &&
          view.InFence(rk)) {
        co_await system_->fabric_.simulator().Delay(f.cpu_node_search_ns);
        const uint32_t at = view.VarFind(key);
        if (at == UINT32_MAX) {
          ForgetVptr(key);
          co_return Status::NotFound();
        }
        if (!view.VarOutline(at)) {
          ForgetVptr(key);
          const Slice v = view.VarInlineValue(at);
          value->assign(v.data(), v.size());
          co_return Status::OK();
        }
        if (view.VarVlogPtr(at) == hint.ptr && view.VarVlen(at) == hint.vlen) {
          // Speculation confirmed by the leaf: parse the record fetched
          // alongside. A header/key mismatch means our extent READ raced
          // the append that published this pointer — resolve freshly.
          uint16_t klen = 0;
          uint16_t got_vlen = 0;
          std::memcpy(&klen, vbuf.data(), 2);
          std::memcpy(&got_vlen, vbuf.data() + 2, 2);
          if (klen == key.size() && got_vlen == hint.vlen &&
              std::memcmp(vbuf.data() + vlog::kRecordHeader, key.data(),
                          klen) == 0) {
            value->assign(reinterpret_cast<const char*>(vbuf.data()) +
                              vlog::kRecordHeader + klen,
                          got_vlen);
            co_return Status::OK();
          }
        }
        // Pointer moved since the hint (update or GC relocation): the
        // fetched leaf is valid, so resolve from it.
        ForgetVptr(key);
        st = co_await ResolveVarValue(view, at, key, value, stats);
        if (!st.IsCorruption()) co_return st;
        // Relocated between leaf and value read; take the slow loop.
      }
      if (stats != nullptr) stats->read_retries++;
    }
  }

  co_return co_await ReadLeafFor(
      rk, buf.data(), stats,
      [&](const NodeView& view) -> sim::Task<Status> {
        co_await system_->fabric_.simulator().Delay(f.cpu_node_search_ns);
        const uint32_t at = view.VarFind(key);
        if (at == UINT32_MAX) co_return Status::NotFound();
        // Corruption: the extent moved between the leaf read and the value
        // read (an update or GC); the re-read leaf has the fresh pointer.
        Status rst = co_await ResolveVarValue(view, at, key, value, stats);
        co_return rst.IsCorruption() ? Status::Retry("value relocated") : rst;
      });
}

// --- DeleteVar --------------------------------------------------------------

sim::Task<Status> TreeClient::DeleteVar(const Slice& key, OpStats* stats) {
  Key rk = 0;
  Status st = CheckVarKey(key, &rk);
  if (!st.ok()) co_return st;
  const TreeOptions& o = opt();
  const rdma::FabricConfig& f = system_->fabric_.config();
  EpochPin pin(&system_->reclaim_, cs_id_);
  co_await system_->fabric_.simulator().Delay(f.cpu_op_overhead_ns);

  std::vector<uint8_t> buf(node_size());
  StatusOr<Locked> locked = co_await LockLeafFor(rk, buf.data(), stats);
  if (!locked.ok()) co_return locked.status();
  NodeView view(buf.data(), &o.shape);
  co_await system_->fabric_.simulator().Delay(f.cpu_node_search_ns);
  const uint32_t at = view.VarFind(key);
  if (at == UINT32_MAX) {
    co_await hocl_.Unlock(locked->guard, {}, o.combine_commands, stats);
    co_return Status::NotFound();
  }
  const uint64_t old_ptr = view.VarOutline(at) ? view.VarVlogPtr(at) : 0;
  view.VarRemoveAt(at);
  LeafEdit edit;
  edit.whole_node = true;
  edit.removed = 1;
  co_await WriteBackAndUnlock(*locked, buf.data(), std::move(edit), stats,
                              /*deletes=*/true);
  // Retire only after the delete (or merge) published: readers that
  // fetched the old leaf meanwhile finish under their epoch pin.
  ForgetVptr(key);
  if (old_ptr != 0) co_await vlog_->Retire(old_ptr, stats);
  co_return Status::OK();
}

// --- ScanVar ----------------------------------------------------------------

sim::Task<Status> TreeClient::ScanVar(
    const Slice& from, uint32_t count,
    std::vector<std::pair<std::string, std::string>>* out, OpStats* stats) {
  const TreeOptions& o = opt();
  SHERMAN_CHECK_MSG(o.shape.varlen, "var op on a fixed-size tree");
  const rdma::FabricConfig& f = system_->fabric_.config();
  out->clear();
  if (count == 0) co_return Status::OK();
  if (from.size() > o.shape.max_key_len) {
    co_return Status::InvalidArgument("scan start key too long");
  }
  EpochPin pin(&system_->reclaim_, cs_id_);
  co_await system_->fabric_.simulator().Delay(f.cpu_op_overhead_ns);

  std::vector<uint8_t> buf(node_size());
  // Byte cursor: the start key until a row is emitted, then the last
  // emitted key (exclusive), so emitted keys never repeat across leaves,
  // re-reads and restarts — RangeQuery's cursor discipline. It is read at
  // those boundaries only; rows inside a leaf follow in slot order.
  const std::string start(from.data(), from.size());
  auto cursor = [&start, out]() {
    return out->empty() ? Slice(start) : Slice(out->back().first);
  };
  rdma::GlobalAddress probe_addr;
  for (uint32_t attempt = 0; attempt < o.max_restarts; attempt++) {
    if (!probe_addr.is_null() && attempt > 0 && (attempt & 7) == 0) {
      co_await ProbeLockForRecovery(probe_addr, stats);
      probe_addr = rdma::GlobalAddress();
    }
    Key rk = RoutingKeyFor(cursor());
    if (rk == kMaxKey) co_return Status::OK();  // nothing can sort >= cursor
    StatusOr<LeafRef> leaf_r =
        co_await FindLeafAddr(rk, stats, /*allow_hint=*/attempt == 0);
    if (!leaf_r.ok()) co_return leaf_r.status();
    rdma::GlobalAddress addr = leaf_r->addr;

    bool restart = false;
    uint32_t entry_retries = 0;
    for (int chase = 0; chase < kMaxSiblingChase && !restart; chase++) {
      Status st = co_await ReadNodeChecked(addr, buf.data(), stats);
      if (!st.ok()) co_return st;
      NodeView view(buf.data(), &o.shape);
      if (view.is_free() || !view.is_leaf() || rk < view.lo_fence()) {
        cache_.InvalidateLevel1Covering(rk);
        if (view.is_free()) probe_addr = addr;
        if (attempt >= 2) root_known_ = false;
        restart = true;
        break;
      }
      if (rk >= view.hi_fence()) {
        cache_.InvalidateLevel1Covering(rk);
        if (view.sibling().is_null()) {
          restart = true;
          break;
        }
        addr = view.sibling();
        continue;
      }
      co_await system_->fabric_.simulator().Delay(f.cpu_node_search_ns);
      // Emit this leaf's entries past the cursor, resolving out-of-line
      // values as we go; a Corruption (extent relocated under us) re-reads
      // the leaf, and the advancing cursor skips what was already emitted.
      bool reread = false;
      const uint32_t slots = view.count();
      const Slice cur = cursor();
      uint32_t s = view.VarLowerBound(cur);
      if (!out->empty() && s < slots && view.VarKeyIs(s, cur)) s++;
      for (; s < slots && out->size() < count; s++) {
        std::string k = view.VarFullKey(s);
        std::string v;
        Status rst = co_await ResolveVarValue(view, s, Slice(k), &v, stats);
        if (rst.IsCorruption()) {
          reread = true;
          break;
        }
        if (!rst.ok()) co_return rst;
        out->emplace_back(std::move(k), std::move(v));
      }
      if (reread) {
        if (stats != nullptr) stats->read_retries++;
        if (++entry_retries > o.max_read_retries) {
          co_return Status::TimedOut("scan vlog retries exhausted");
        }
        chase--;
        continue;
      }
      if (out->size() >= count || view.hi_fence() == kMaxKey) {
        co_return Status::OK();
      }
      // Next leaf: keys there are > everything emitted; advance the
      // routing cursor to the fence so the chase checks stay coherent.
      rk = view.hi_fence();
      if (view.sibling().is_null()) {
        restart = true;
        break;
      }
      addr = view.sibling();
    }
  }
  co_return Status::Internal("scan restarts exhausted");
}

// --- MultiGetVar ------------------------------------------------------------

sim::Task<void> TreeClient::ResolveVarInto(uint64_t ptr,
                                           const std::string* key,
                                           uint16_t vlen, VarGetResult* out,
                                           OpStats* stats,
                                           sim::CountdownLatch* latch) {
  out->status = co_await vlog_->Read(ptr, *key, vlen, &out->value, stats);
  if (out->status.ok()) RememberVptr(*key, ptr, vlen);
  latch->Arrive();
}

sim::Task<Status> TreeClient::MultiGetVar(std::vector<std::string> keys,
                                          std::vector<VarGetResult>* out,
                                          OpStats* stats) {
  const rdma::FabricConfig& f = system_->fabric_.config();
  sim::Simulator& sim = system_->fabric_.simulator();
  out->assign(keys.size(), VarGetResult{});
  if (keys.empty()) co_return Status::OK();
  EpochPin pin(&system_->reclaim_, cs_id_);
  co_await sim.Delay(f.cpu_op_overhead_ns);

  // Rejected keys keep their error and route nowhere (kNullKey).
  const size_t n = keys.size();
  std::vector<Key> rks(n, kNullKey);
  for (size_t i = 0; i < n; i++) {
    Status st = CheckVarKey(keys[i], &rks[i]);
    if (!st.ok()) (*out)[i].status = st;
  }

  // Plan distinct ROUTING keys (string duplicates and same-routing-group
  // keys share one descent and one leaf fetch), fetch distinct leaves.
  BatchPlan plan;
  co_await PlanBatch(rks, &plan, stats);
  LeafFetch fetch;
  co_await FetchPlannedLeaves(plan, &fetch, stats);

  // Validate; inline values serve locally, out-of-line ones are collected
  // and resolved concurrently (one latch over all vlog READs).
  struct Job {
    size_t idx;
    uint64_t ptr;
    uint16_t vlen;
  };
  std::vector<Job> jobs;
  std::vector<size_t> retry;
  for (size_t i = 0; i < n; i++) {
    if (rks[i] == kNullKey) continue;
    uint8_t* buf = FetchedLeafFor(fetch, i, rks[i], stats);
    if (buf == nullptr) {
      retry.push_back(i);
      continue;
    }
    NodeView view(buf, &opt().shape);
    co_await sim.Delay(f.cpu_node_search_ns);
    const uint32_t at = view.VarFind(keys[i]);
    if (at == UINT32_MAX) {
      (*out)[i].status = Status::NotFound();
      continue;
    }
    if (!view.VarOutline(at)) {
      const Slice v = view.VarInlineValue(at);
      (*out)[i].status = Status::OK();
      (*out)[i].value.assign(v.data(), v.size());
      continue;
    }
    jobs.push_back(Job{i, view.VarVlogPtr(at), view.VarVlen(at)});
  }
  if (!jobs.empty()) {
    SHERMAN_TSPAN(stats != nullptr ? stats->trace : nullptr,
                  "multiget.vlog_fetch", jobs.size());
    sim::CountdownLatch latch(jobs.size());
    for (const Job& j : jobs) {
      sim::Spawn(ResolveVarInto(j.ptr, &keys[j.idx], j.vlen, &(*out)[j.idx],
                                stats, &latch));
    }
    co_await latch.Wait();
    for (const Job& j : jobs) {
      // Relocated mid-flight: the singleton path re-reads leaf + value.
      if ((*out)[j.idx].status.IsCorruption()) retry.push_back(j.idx);
    }
  }

  // Re-serve stragglers op-at-a-time.
  SHERMAN_TSPAN(stats != nullptr ? stats->trace : nullptr,
                "multiget.fallback", retry.size());
  Status overall = Status::OK();
  for (size_t i : retry) {
    std::string v;
    Status st = co_await LookupVar(keys[i], &v, stats);
    (*out)[i].status = st;
    if (st.ok()) {
      (*out)[i].value = std::move(v);
    } else if (!st.IsNotFound() && overall.ok()) {
      overall = st;
    }
  }
  co_return overall;
}

// --- MultiInsertVar ---------------------------------------------------------

sim::Task<Status> TreeClient::MultiInsertVar(
    std::vector<std::pair<std::string, std::string>> kvs, OpStats* stats) {
  const TreeOptions& o = opt();
  const rdma::FabricConfig& f = system_->fabric_.config();
  if (kvs.empty()) co_return Status::OK();
  const size_t n = kvs.size();
  std::vector<Key> rks(n, 0);
  for (size_t i = 0; i < n; i++) {
    Status st = CheckVarKey(kvs[i].first, &rks[i]);
    if (!st.ok()) co_return st;
    if (kvs[i].second.size() > 0xffff) {
      co_return Status::InvalidArgument("value exceeds the u16 length field");
    }
    if (kvs[i].second.size() > o.inline_threshold &&
        vlog::VlogClient::RecordBytes(kvs[i].first, kvs[i].second) >
            (vlog::kMinExtentBytes << (vlog::kNumClasses - 1))) {
      co_return Status::InvalidArgument("value too large for the value log");
    }
  }
  EpochPin pin(&system_->reclaim_, cs_id_);
  co_await system_->fabric_.simulator().Delay(f.cpu_op_overhead_ns);

  // Append every out-of-line value up front; extents stay private until a
  // leaf slot points at them. SEQUENTIAL on purpose: Append mutates the
  // per-class open segment between awaits, and two concurrent rotations
  // of one class would leak a segment.
  std::vector<uint64_t> vptrs(n, 0);
  for (size_t i = 0; i < n; i++) {
    if (kvs[i].second.size() <= o.inline_threshold) continue;
    StatusOr<uint64_t> p = co_await vlog_->Append(
        kvs[i].first, kvs[i].second, NodeView::VarFingerprint(kvs[i].first),
        stats);
    if (!p.ok()) co_return p.status();
    vptrs[i] = *p;
  }

  // Plan distinct routing keys, then one lock + whole-node write per leaf
  // group. Duplicate keys stay in one group (same routing plan), applied in
  // batch order: a later duplicate replaces the earlier one in the staged
  // leaf and queues the superseded extent on `retired`.
  BatchPlan plan;
  co_await PlanBatch(std::move(rks), &plan, stats);
  std::vector<uint8_t> defer(n, 0);
  std::vector<uint64_t> retired;
  co_await ApplyGroups(
      plan, &defer, stats,
      [&](Locked locked, uint8_t* buf,
          std::vector<size_t> idxs) -> sim::Task<void> {
        NodeView view(buf, &o.shape);
        LeafEdit edit;
        for (size_t idx : idxs) {
          const std::string& key = kvs[idx].first;
          const std::string& value = kvs[idx].second;
          uint64_t old_ptr = 0;
          if (!co_await StageVarPut(view, key, value, vptrs[idx], &edit,
                                    &old_ptr)) {
            defer[idx] = 1;  // full: the split goes through InsertVar()
            continue;
          }
          if (old_ptr != 0) retired.push_back(old_ptr);
          if (vptrs[idx] != 0) {
            RememberVptr(key, vptrs[idx], static_cast<uint16_t>(value.size()));
          } else {
            ForgetVptr(key);
          }
        }
        co_await WriteBackAndUnlock(locked, buf, std::move(edit), stats);
      });
  // Old extents replaced by the group applies: retire once every group's
  // write-back (publish) has landed.
  for (uint64_t p : retired) co_await vlog_->Retire(p, stats);

  // Deferred keys. A deferred OUT-OF-LINE value already has a private
  // extent; InsertVar appends its own copy, so retire the orphan and let
  // the singleton path own the value end to end.
  for (size_t i = 0; i < n; i++) {
    if (!defer[i]) continue;
    if (vptrs[i] != 0) co_await vlog_->Retire(vptrs[i], stats);
    Status st = co_await InsertVar(kvs[i].first, kvs[i].second, stats);
    if (!st.ok()) co_return st;
  }
  co_return Status::OK();
}

// --- Value-log GC -----------------------------------------------------------

sim::Task<Status> TreeClient::VlogGcOnce(uint64_t* relocated, OpStats* stats) {
  const TreeOptions& o = opt();
  SHERMAN_CHECK_MSG(o.shape.varlen, "vlog GC on a fixed-size tree");
  EpochPin pin(&system_->reclaim_, cs_id_);
  // Open segments are invisible to victim selection; seal them so this
  // pass sees the current generation.
  co_await vlog_->SealOpen(stats);
  uint64_t moved = 0;
  Status overall = Status::OK();
  for (int ms = 0; ms < system_->fabric_.num_memory_servers(); ms++) {
    const uint64_t v = co_await system_->fabric_.qp(cs_id_, ms)
                           .Rpc(kRpcVlogVictim, o.vlog_gc_dead_permille, 0);
    if (stats != nullptr) stats->round_trips++;
    if (v == 0) continue;
    const uint64_t base = v & ((1ull << 40) - 1);
    const uint32_t used = static_cast<uint32_t>((v >> 40) & 0xffff);
    const uint32_t cls = static_cast<uint32_t>(v >> 56);
    Status st = co_await GcVictimSegment(static_cast<uint16_t>(ms), base, cls,
                                         used, &moved, stats);
    if (!st.ok() && overall.ok()) overall = st;
  }
  vlog_->mutable_stats().gc_passes++;
  if (relocated != nullptr) *relocated = moved;
  co_return overall;
}

sim::Task<Status> TreeClient::GcVictimSegment(uint16_t ms, uint64_t base,
                                              uint32_t cls, uint32_t used,
                                              uint64_t* relocated,
                                              OpStats* stats) {
  const TreeOptions& o = opt();
  const uint32_t extent = vlog::kMinExtentBytes << cls;
  rdma::Qp& qp = system_->fabric_.qp(cs_id_, ms);

  // Dead-bitmap snapshot. Concurrent retires only ADD dead bits, so a bit
  // set after this read just means one extra stale-relocation check below
  // (the leaf pointer comparison catches it).
  std::vector<uint64_t> mask((used + 63) / 64, 0);
  for (uint32_t w = 0; w < mask.size(); w++) {
    mask[w] = co_await qp.Rpc(kRpcVlogMask, base, w);
    if (stats != nullptr) stats->round_trips++;
  }

  std::vector<uint8_t> rec_buf(extent);
  std::vector<uint8_t> leaf_buf(node_size());
  for (uint32_t slot = 0; slot < used; slot++) {
    if ((mask[slot / 64] >> (slot % 64)) & 1) continue;  // already dead
    const uint64_t off = base + static_cast<uint64_t>(slot) * extent;
    const uint64_t old_ptr = vlog::VlogPtr::Pack(0, static_cast<uint8_t>(cls),
                                                 ms, off);
    Status st = co_await ReadRaw(rdma::GlobalAddress(ms, off), rec_buf.data(),
                                 extent, stats);
    SHERMAN_CHECK(st.ok());
    uint16_t klen = 0;
    uint16_t vlen = 0;
    std::memcpy(&klen, rec_buf.data(), 2);
    std::memcpy(&vlen, rec_buf.data() + 2, 2);
    if (klen == 0 || klen > o.shape.max_key_len ||
        vlog::kRecordHeader + klen + vlen > extent) {
      // Unparseable (the owner died mid-append): no leaf can reference it;
      // retire so the segment can drain.
      co_await vlog_->Retire(old_ptr, stats);
      vlog_->mutable_stats().gc_stale++;
      continue;
    }
    const std::string key(
        reinterpret_cast<const char*>(rec_buf.data()) + vlog::kRecordHeader,
        klen);
    const Slice value(
        reinterpret_cast<const char*>(rec_buf.data()) + vlog::kRecordHeader +
            klen,
        vlen);
    const Key rk = RoutingKeyFor(key);

    // Tree-guided relocation, copy-then-flip under the leaf lock.
    StatusOr<Locked> locked =
        co_await LockLeafFor(rk, leaf_buf.data(), stats);
    if (!locked.ok()) co_return locked.status();
    NodeView view(leaf_buf.data(), &o.shape);
    const uint32_t at = view.VarFind(key);
    const uint64_t cur =
        (at != UINT32_MAX && view.VarOutline(at)) ? view.VarVlogPtr(at) : 0;
    if (cur == 0 || vlog::VlogPtr::Cls(cur) != cls ||
        vlog::VlogPtr::Ms(cur) != ms || vlog::VlogPtr::Off(cur) != off) {
      // The leaf no longer references this extent (deleted, updated, or
      // retired after the bitmap snapshot).
      co_await hocl_.Unlock(locked->guard, {}, o.combine_commands, stats);
      vlog_->mutable_stats().gc_stale++;
    } else {
      // Copy: append the fresh record (lands in a new open segment, never
      // this sealed victim). Flip: repoint the slot and publish the node.
      StatusOr<uint64_t> fresh = co_await vlog_->Append(
          key, value, NodeView::VarFingerprint(key), stats);
      if (!fresh.ok()) {
        co_await hocl_.Unlock(locked->guard, {}, o.combine_commands, stats);
        co_return fresh.status();
      }
      view.VarSetVlogPtr(at, *fresh);
      LeafEdit edit;
      edit.whole_node = true;
      co_await WriteBackAndUnlock(*locked, leaf_buf.data(), std::move(edit),
                                  stats);
      RememberVptr(key, *fresh, vlen);
      vlog_->mutable_stats().gc_relocated++;
      (*relocated)++;
    }
    // Retire AFTER the repoint (or the staleness proof) published; pinned
    // readers of the old extent drain under the grace epoch.
    co_await vlog_->Retire(old_ptr, stats);
  }
  co_return Status::OK();
}

}  // namespace sherman

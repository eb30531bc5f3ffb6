#include "route/tree_rpc.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "alloc/layout.h"
#include "vlog/vlog.h"
#include "lock/lock_table.h"
#include "obs/trace.h"
#include "sanitizer/dmsan.h"
#include "util/logging.h"

namespace sherman::route {

namespace {
// Bound on sibling chases / levels during a direct walk; anything deeper is
// a structural anomaly and the op declines to the one-sided path.
constexpr int kMaxHops = 64;
// Leaves an MS-side scan may walk before declining the remainder.
constexpr uint32_t kMaxScanLeaves = 64;

// Marks a host-side mutated node consistent for lock-free readers — the
// MS-side executor's counterpart of TreeClient::SealNode.
void SealHostNode(NodeView* node, const TreeOptions& o) {
  if (o.consistency == TreeOptions::Consistency::kChecksum) {
    node->UpdateChecksum();
  } else {
    node->BumpNodeVersions();
  }
}

// A writable view of host node `node`, which the MS-side executor is about
// to mutate in place (the one-sided READs already moving its bytes keep
// them, see Fabric::HostMutable). Feeds DMSan: the executor only reaches
// this point after NodeLocked declined held lanes, so a shadow-held lane
// here is a genuine executor-vs-one-sided race.
NodeView MutateHostNode(ShermanSystem* system, rdma::GlobalAddress node) {
  if (dmsan::Active()) {
    if (dmsan::Checker* c = system->dmsan_checker()) {
      c->OnRpcMutate(node.node, node);
    }
  }
  const TreeShape& shape = system->options().shape;
  return NodeView(system->fabric().HostMutable(node, shape.node_size), &shape);
}

// --- op message bodies -------------------------------------------------------
// Bodies are built from u64 keys/values, byte strings, statuses (code byte
// plus message) and per-key results, nested in pairs and u32-counted lists.

using KeyValues = std::vector<std::pair<Key, uint64_t>>;
using VarKeyValues = std::vector<std::pair<std::string, std::string>>;

template <typename T>
void Put(rdma::RpcWriter* w, const std::vector<T>& v);
template <typename T>
void Get(rdma::RpcReader* r, std::vector<T>* v);

void Put(rdma::RpcWriter* w, uint64_t v) { w->Put(v); }
void Put(rdma::RpcWriter* w, const Slice& s) { w->PutBytes(s); }
void Put(rdma::RpcWriter* w, const Status& s) {
  w->Put(static_cast<uint8_t>(s.code()));
  w->PutBytes(s.message());
}
void Put(rdma::RpcWriter* w, const MultiGetResult& r) {
  Put(w, r.status);
  Put(w, r.value);
}
void Put(rdma::RpcWriter* w, const VarGetResult& r) {
  Put(w, r.status);
  Put(w, r.value);
}
template <typename A, typename B>
void Put(rdma::RpcWriter* w, const std::pair<A, B>& p) {
  Put(w, p.first);
  Put(w, p.second);
}
template <typename T>
void Put(rdma::RpcWriter* w, const std::vector<T>& v) {
  w->Put(static_cast<uint32_t>(v.size()));
  for (const T& x : v) Put(w, x);
}

void Get(rdma::RpcReader* r, uint64_t* v) { *v = r->Get<uint64_t>(); }
void Get(rdma::RpcReader* r, std::string* s) { *s = r->GetBytes(); }
void Get(rdma::RpcReader* r, Status* s) {
  const auto code = static_cast<Status::Code>(r->Get<uint8_t>());
  *s = Status::FromCode(code, r->GetBytes());
}
void Get(rdma::RpcReader* r, MultiGetResult* m) {
  Get(r, &m->status);
  Get(r, &m->value);
}
void Get(rdma::RpcReader* r, VarGetResult* m) {
  Get(r, &m->status);
  Get(r, &m->value);
}
template <typename A, typename B>
void Get(rdma::RpcReader* r, std::pair<A, B>* p) {
  Get(r, &p->first);
  Get(r, &p->second);
}
template <typename T>
void Get(rdma::RpcReader* r, std::vector<T>* v) {
  v->resize(r->Get<uint32_t>());
  for (T& x : *v) Get(r, &x);
}

template <typename... F>
std::string Encode(const F&... fields) {
  std::string body;
  rdma::RpcWriter w(&body);
  (Put(&w, fields), ...);
  return body;
}
// Decodes a whole body as one T; leftover bytes abort.
template <typename T>
T Decode(std::string body) {
  rdma::RpcReader r(std::move(body));
  T v{};
  Get(&r, &v);
  return v;
}
}  // namespace

TreeRpcService::TreeRpcService(ShermanSystem* system) : system_(system) {
  const int num_ms = system->fabric().num_memory_servers();
  for (int ms = 0; ms < num_ms; ms++) InstallOn(ms);
}

void TreeRpcService::InstallOn(int ms) {
  system_->fabric().ms(ms).ChainRpcHandler(
      kOpScan, kOpMultiVarInsert,
      [this, ms](uint64_t opcode, uint64_t a, uint64_t b, std::string* body) {
        Handle(ms, opcode, a, b, body);
        return uint64_t{0};
      });
}

void TreeRpcService::Handle(int ms, uint64_t opcode, uint64_t a, uint64_t b,
                            std::string* body) {
  // The handler runs atomically at one simulated instant, so a frame-local
  // mutating scope on the executor's own ring is interleaving-safe.
  [[maybe_unused]] obs::TraceCtx trace = obs::TraceCtx::For(
      &system_->tracer(), obs::RingId::RpcExecutor(static_cast<uint16_t>(ms)));
  SHERMAN_TSPAN(&trace, "rpc.execute", opcode, a);
  const auto count = static_cast<uint32_t>(b);
  switch (opcode) {
    case kOpScan: {
      KeyValues got;
      const Status st = DoScan(ms, a, count, &got);
      *body = Encode(st, got);
      return;
    }
    case kOpMultiGet:
      *body =
          Encode(DoMultiGet(ms, Decode<std::vector<Key>>(std::move(*body))));
      return;
    case kOpMultiInsert:
      *body = Encode(DoMultiInsert(ms, Decode<KeyValues>(std::move(*body))));
      return;
    case kOpMultiDelete:
      *body =
          Encode(DoMultiDelete(ms, Decode<std::vector<Key>>(std::move(*body))));
      return;
    case kOpVarDelete:
      *body = Encode(DoVarDelete(ms, Decode<std::string>(std::move(*body))));
      return;
    case kOpVarScan: {
      VarKeyValues got;
      const Status st =
          DoVarScan(ms, Decode<std::string>(std::move(*body)), count, &got);
      *body = Encode(st, got);
      return;
    }
    case kOpMultiVarGet:
      *body = Encode(DoMultiVarGet(
          ms, Decode<std::vector<std::string>>(std::move(*body))));
      return;
    case kOpMultiVarInsert:
      *body =
          Encode(DoMultiVarInsert(ms, Decode<VarKeyValues>(std::move(*body))));
      return;
    default:
      SHERMAN_CHECK(false);
  }
}

void TreeRpcService::ChargeWalks(int ms, size_t walks) {
  if (walks <= 1) return;
  rdma::Fabric& fabric = system_->fabric();
  fabric.ms(ms).ChargeMemoryThread(static_cast<sim::SimTime>(walks - 1) *
                                   fabric.config().rpc_service_ns / 2);
}

rdma::GlobalAddress TreeRpcService::FindNode(Key key, uint8_t level) const {
  rdma::Fabric& fabric = system_->fabric();
  const TreeShape& shape = system_->options().shape;

  uint64_t packed = 0;
  std::memcpy(&packed, fabric.ms(0).host().raw(kRootPointerOffset), 8);
  rdma::GlobalAddress addr = rdma::GlobalAddress::FromU64(packed);
  if (addr.is_null()) return rdma::kNullAddress;

  for (int hop = 0; hop < kMaxHops; hop++) {
    const NodeView view = NodeView::Reader(fabric.HostRaw(addr), &shape);
    if (view.is_free() || view.level() < level || key < view.lo_fence()) {
      return rdma::kNullAddress;
    }
    if (key >= view.hi_fence()) {
      addr = view.sibling();
      if (addr.is_null()) return rdma::kNullAddress;
      continue;
    }
    if (view.level() == level) return addr;
    addr = view.InternalChildFor(key);
    if (addr.is_null()) return rdma::kNullAddress;
  }
  return rdma::kNullAddress;
}

bool TreeRpcService::NodeLocked(rdma::GlobalAddress addr) const {
  const bool onchip = system_->options().lock.onchip;
  const GlobalLockRef ref = LockFor(addr, onchip);
  rdma::MemoryServer& ms = system_->fabric().ms(ref.ms);
  rdma::MemoryRegion& region =
      ref.space == rdma::MemorySpace::kDevice ? ms.device() : ms.host();
  uint16_t lane = 0;
  std::memcpy(&lane, region.raw(ref.lane_offset()), sizeof(lane));
  return lane != 0;
}

void TreeRpcService::TryMergeHost(rdma::GlobalAddress leaf) {
  const TreeOptions& o = system_->options();
  if (o.merge_threshold <= 0) return;
  rdma::Fabric& fabric = system_->fabric();
  const NodeView view = NodeView::Reader(fabric.HostRaw(leaf), &o.shape);
  if (!view.is_leaf() || view.is_free()) return;
  const Key lo = view.lo_fence();
  const Key hi = view.hi_fence();
  if (lo == 0) return;  // no left sibling (root leaf / leftmost leaf)

  const uint32_t cap = o.shape.leaf_capacity();
  const uint32_t live = view.LiveLeafEntries(o.two_level_versions);
  if (static_cast<double>(live) >=
      o.merge_threshold * static_cast<double>(cap)) {
    return;
  }

  // Resolve parent + left sibling through host memory; skip unless the
  // leaf appears as an explicit (lo -> leaf) entry (a leftmost child's
  // separator lives a level up).
  const rdma::GlobalAddress paddr = FindNode(lo, /*level=*/1);
  if (paddr.is_null()) return;
  const NodeView pview = NodeView::Reader(fabric.HostRaw(paddr), &o.shape);
  const uint32_t pn = pview.count();
  uint32_t ei = UINT32_MAX;
  for (uint32_t i = 0; i < pn; i++) {
    if (pview.InternalKey(i) == lo && pview.InternalChild(i) == leaf) {
      ei = i;
      break;
    }
  }
  if (ei == UINT32_MAX) return;
  const rdma::GlobalAddress saddr =
      ei == 0 ? pview.leftmost_child() : pview.InternalChild(ei - 1);
  if (saddr.is_null()) return;
  const NodeView sview = NodeView::Reader(fabric.HostRaw(saddr), &o.shape);
  if (!sview.is_leaf() || sview.is_free() || sview.hi_fence() != lo ||
      sview.sibling() != leaf) {
    return;
  }
  // One-sided writers hold their HOCL lock from read to write-back; a held
  // lane on any involved node means a mutation is in flight — skip (the
  // merge is opportunistic; the next underflowing delete retries).
  if (NodeLocked(leaf) || NodeLocked(saddr) || NodeLocked(paddr)) return;

  const uint32_t s_live = sview.LiveLeafEntries(o.two_level_versions);
  if (s_live + live > 3 * cap / 4) return;  // anti-thrash headroom

  NodeView leaf_w = MutateHostNode(system_, leaf);
  NodeView sibling_w = MutateHostNode(system_, saddr);
  NodeView parent_w = MutateHostNode(system_, paddr);
  // Move survivors, widen the sibling, drop the parent entry, tombstone.
  MoveLeafEntries(&sibling_w, leaf_w, o.two_level_versions);
  sibling_w.set_hi_fence(hi);
  sibling_w.set_sibling(leaf_w.sibling());
  SealHostNode(&sibling_w, o);
  SHERMAN_CHECK(parent_w.InternalRemove(lo, leaf));
  SealHostNode(&parent_w, o);
  leaf_w.set_free(true);
  SealHostNode(&leaf_w, o);
  system_->chunk_manager(leaf.node)
      .FreeNode(leaf.offset, o.shape.node_size);
  leaf_merges_++;
}

Status TreeRpcService::DoScan(int ms, Key from, uint32_t count,
                              KeyValues* out) {
  rdma::GlobalAddress addr = FindLeaf(from);
  if (addr.is_null() || count == 0) {
    declined_++;
    return Status::Retry("ms-side scan declined");
  }
  const TreeOptions& o = system_->options();
  rdma::Fabric& fabric = system_->fabric();

  uint32_t leaves = 0;
  bool end_of_tree = false;
  bool anomaly = false;
  while (!addr.is_null() && out->size() < count && leaves < kMaxScanLeaves) {
    const NodeView view = NodeView::Reader(fabric.HostRaw(addr), &o.shape);
    if (view.is_free() || !view.is_leaf()) {
      anomaly = true;
      break;
    }
    leaves++;
    KeyValues got;
    if (o.two_level_versions) {
      const uint32_t cap = o.shape.leaf_capacity();
      for (uint32_t i = 0; i < cap; i++) {
        const Key k = view.LeafKey(i);
        if (k != kNullKey && k >= from) got.emplace_back(k, view.LeafValue(i));
      }
    } else {
      const uint32_t n = view.count();
      for (uint32_t i = 0; i < n; i++) {
        const Key k = view.LeafKey(i);
        if (k >= from) got.emplace_back(k, view.LeafValue(i));
      }
    }
    std::sort(got.begin(), got.end());
    for (const auto& kv : got) {
      if (out->size() >= count) break;
      out->push_back(kv);
    }
    if (view.hi_fence() == kMaxKey) {
      end_of_tree = true;
      break;
    }
    addr = view.sibling();
    if (addr.is_null()) {
      end_of_tree = true;
      break;
    }
  }

  // Walking extra leaves costs the wimpy core more than one service slot,
  // so hot scans show up in the FIFO backlog the router watches.
  ChargeWalks(ms, leaves);

  // A partial result that is not genuine end-of-data (leaf-budget cap hit,
  // structural anomaly) must decline so the caller retries one-sided —
  // otherwise the same query would return different result sets depending
  // on the router's current assignment.
  if (out->size() < count && (anomaly || !end_of_tree)) {
    out->clear();
    declined_++;
    return Status::Retry("ms-side scan declined");
  }
  served_++;
  return Status::OK();
}

std::vector<MultiGetResult> TreeRpcService::DoMultiGet(
    int ms, const std::vector<Key>& keys) {
  const TreeOptions& o = system_->options();
  std::vector<MultiGetResult> out;
  out.reserve(keys.size());
  for (Key key : keys) {
    MultiGetResult r;
    const rdma::GlobalAddress leaf = FindLeaf(key);
    if (leaf.is_null()) {
      declined_++;
      r.status = Status::Retry("ms-side multi-get declined");
    } else {
      served_++;
      const NodeView view =
          NodeView::Reader(system_->fabric().HostRaw(leaf), &o.shape);
      uint32_t i = o.two_level_versions ? view.FindLeafSlot(key).match
                                        : view.SortedLeafFind(key);
      if (i == UINT32_MAX) {
        r.status = Status::NotFound();
      } else {
        r.status = Status::OK();
        r.value = view.LeafValue(i);
      }
    }
    out.push_back(r);
  }
  // Each key beyond the first walks root-to-leaf on the wimpy core.
  ChargeWalks(ms, keys.size());
  return out;
}

std::vector<Status> TreeRpcService::DoMultiInsert(int ms,
                                                  const KeyValues& kvs) {
  const TreeOptions& o = system_->options();
  std::vector<Status> out;
  out.reserve(kvs.size());
  for (const auto& [key, value] : kvs) {
    const rdma::GlobalAddress leaf = FindLeaf(key);
    if (leaf.is_null() || NodeLocked(leaf)) {
      declined_++;
      out.push_back(Status::Retry("ms-side multi-insert declined"));
      continue;
    }
    NodeView view = MutateHostNode(system_, leaf);
    if (o.two_level_versions) {
      const NodeView::SlotResult slot = view.FindLeafSlot(key);
      const uint32_t i = slot.match != UINT32_MAX ? slot.match : slot.empty;
      if (i == UINT32_MAX) {  // leaf full: split must go one-sided
        declined_++;
        out.push_back(Status::Retry("ms-side multi-insert: leaf full"));
        continue;
      }
      view.SetLeafEntry(i, key, value);
    } else {
      if (!view.SortedLeafInsert(key, value)) {
        declined_++;
        out.push_back(Status::Retry("ms-side multi-insert: leaf full"));
        continue;
      }
      SealHostNode(&view, o);
    }
    served_++;
    out.push_back(Status::OK());
  }
  ChargeWalks(ms, kvs.size());
  return out;
}

std::vector<Status> TreeRpcService::DoMultiDelete(
    int ms, const std::vector<Key>& keys) {
  const TreeOptions& o = system_->options();
  std::vector<Status> out;
  out.reserve(keys.size());
  for (Key key : keys) {
    const rdma::GlobalAddress leaf = FindLeaf(key);
    if (leaf.is_null() || NodeLocked(leaf)) {
      declined_++;
      out.push_back(Status::Retry("ms-side multi-delete declined"));
      continue;
    }
    NodeView view = MutateHostNode(system_, leaf);
    bool removed = false;
    if (o.two_level_versions) {
      const NodeView::SlotResult slot = view.FindLeafSlot(key);
      if (slot.match != UINT32_MAX) {
        view.SetLeafEntry(slot.match, kNullKey, 0);
        removed = true;
      }
    } else {
      removed = view.SortedLeafRemove(key);
      if (removed) {
        SealHostNode(&view, o);
      }
    }
    served_++;
    if (removed) {
      TryMergeHost(leaf);
      out.push_back(Status::OK());
    } else {
      out.push_back(Status::NotFound());
    }
  }
  ChargeWalks(ms, keys.size());
  return out;
}

// --- varlen executors -------------------------------------------------------

bool TreeRpcService::HostVarValue(int ms, const NodeView& view, uint32_t i,
                                  const std::string& key,
                                  std::string* value) const {
  if (!view.VarOutline(i)) {
    const Slice v = view.VarInlineValue(i);
    value->assign(v.data(), v.size());
    return true;
  }
  const uint64_t ptr = view.VarVlogPtr(i);
  // Near-memory means THIS server's memory: a record whose extent lives on
  // a foreign MS would need a remote read the wimpy core doesn't have.
  if (vlog::VlogPtr::Ms(ptr) != ms) return false;
  const uint8_t* rec = system_->fabric().HostRaw(vlog::VlogPtr::Addr(ptr));
  uint16_t klen = 0;
  uint16_t vlen = 0;
  std::memcpy(&klen, rec, 2);
  std::memcpy(&vlen, rec + 2, 2);
  // The handler runs atomically at one simulated instant and the slot
  // references this extent, so the record must parse back to the key.
  SHERMAN_CHECK(klen == key.size() &&
                std::memcmp(rec + vlog::kRecordHeader, key.data(), klen) == 0);
  value->assign(reinterpret_cast<const char*>(rec) + vlog::kRecordHeader +
                    klen,
                vlen);
  return true;
}

Status TreeRpcService::HostVarLookup(int ms, const std::string& key,
                                     std::string* value) {
  const rdma::GlobalAddress leaf = FindLeaf(RoutingKeyFor(key));
  if (leaf.is_null()) return Status::Retry("ms-side var lookup declined");
  const NodeView view = NodeView::Reader(system_->fabric().HostRaw(leaf),
                                         &system_->options().shape);
  const uint32_t i = view.VarFind(key);
  if (i == UINT32_MAX) return Status::NotFound();
  if (!HostVarValue(ms, view, i, key, value)) {
    return Status::Retry("ms-side var lookup: foreign extent");
  }
  return Status::OK();
}

Status TreeRpcService::HostVarInsert(const std::string& key,
                                     const std::string& value) {
  const TreeOptions& o = system_->options();
  // Values above the threshold need the client's value-log appender.
  if (value.size() > o.inline_threshold) {
    return Status::Retry("ms-side var insert: outline value");
  }
  const rdma::GlobalAddress leaf = FindLeaf(RoutingKeyFor(key));
  if (leaf.is_null() || NodeLocked(leaf)) {
    return Status::Retry("ms-side var insert declined");
  }
  {
    // Replacing an out-of-line record retires its extent — possibly on a
    // foreign MS, and always a liveness transition the client's vlog path
    // owns. Decline; the one-sided insert handles it.
    const NodeView peek =
        NodeView::Reader(system_->fabric().HostRaw(leaf), &o.shape);
    const uint32_t at = peek.VarFind(key);
    if (at != UINT32_MAX && peek.VarOutline(at)) {
      return Status::Retry("ms-side var insert: outline slot");
    }
  }
  NodeView view = MutateHostNode(system_, leaf);
  if (!view.VarInsert(key, reinterpret_cast<const uint8_t*>(value.data()),
                      static_cast<uint32_t>(value.size()),
                      static_cast<uint16_t>(value.size()),
                      /*outline=*/false)) {
    return Status::Retry("ms-side var insert: leaf full");
  }
  SealHostNode(&view, o);
  return Status::OK();
}

Status TreeRpcService::DoVarDelete(int ms, const std::string& key) {
  const rdma::GlobalAddress leaf = FindLeaf(RoutingKeyFor(key));
  if (leaf.is_null() || NodeLocked(leaf)) {
    declined_++;
    return Status::Retry("ms-side var delete declined");
  }
  const TreeOptions& o = system_->options();
  const NodeView view =
      NodeView::Reader(system_->fabric().HostRaw(leaf), &o.shape);
  const uint32_t at = view.VarFind(key);
  if (at == UINT32_MAX) {
    served_++;
    return Status::NotFound();
  }
  uint64_t ptr = 0;
  if (view.VarOutline(at)) {
    ptr = view.VarVlogPtr(at);
    if (vlog::VlogPtr::Ms(ptr) != ms) {
      // The extent's dead-bit lives on another MS; retiring it here would
      // be a remote call. One-sided delete owns that.
      declined_++;
      return Status::Retry("ms-side var delete: foreign extent");
    }
  }
  NodeView leaf_w = MutateHostNode(system_, leaf);
  leaf_w.VarRemoveAt(at);
  SealHostNode(&leaf_w, o);
  if (ptr != 0) {
    system_->chunk_manager(ms).VlogRetire(vlog::VlogPtr::Off(ptr));
  }
  // No MS-side merge for slotted leaves: byte-budget merges run through
  // the one-sided delete path's locked three-node protocol.
  served_++;
  return Status::OK();
}

Status TreeRpcService::DoVarScan(int ms, const std::string& from,
                                 uint32_t count, VarKeyValues* out) {
  rdma::GlobalAddress addr = FindLeaf(RoutingKeyFor(from));
  if (addr.is_null() || count == 0) {
    declined_++;
    return Status::Retry("ms-side var scan declined");
  }
  const TreeOptions& o = system_->options();
  rdma::Fabric& fabric = system_->fabric();

  uint32_t leaves = 0;
  bool end_of_tree = false;
  bool anomaly = false;
  while (!addr.is_null() && out->size() < count && leaves < kMaxScanLeaves) {
    const NodeView view = NodeView::Reader(fabric.HostRaw(addr), &o.shape);
    if (view.is_free() || !view.is_leaf()) {
      anomaly = true;
      break;
    }
    leaves++;
    const uint32_t n = view.count();
    for (uint32_t i = 0; i < n && out->size() < count; i++) {
      std::string k = view.VarFullKey(i);
      if (k < from) continue;
      std::string v;
      if (!HostVarValue(ms, view, i, k, &v)) {
        // Foreign extent: the remainder must resolve one-sided; partial
        // results decline below.
        anomaly = true;
        break;
      }
      out->emplace_back(std::move(k), std::move(v));
    }
    if (anomaly) break;
    if (view.hi_fence() == kMaxKey) {
      end_of_tree = true;
      break;
    }
    addr = view.sibling();
    if (addr.is_null()) {
      end_of_tree = true;
      break;
    }
  }

  ChargeWalks(ms, leaves);
  if (out->size() < count && (anomaly || !end_of_tree)) {
    out->clear();
    declined_++;
    return Status::Retry("ms-side var scan declined");
  }
  served_++;
  return Status::OK();
}

std::vector<VarGetResult> TreeRpcService::DoMultiVarGet(
    int ms, const std::vector<std::string>& keys) {
  std::vector<VarGetResult> out;
  out.reserve(keys.size());
  for (const std::string& key : keys) {
    VarGetResult r;
    r.status = HostVarLookup(ms, key, &r.value);
    if (r.status.IsRetry()) {
      declined_++;
    } else {
      served_++;
    }
    out.push_back(std::move(r));
  }
  ChargeWalks(ms, keys.size());
  return out;
}

std::vector<Status> TreeRpcService::DoMultiVarInsert(int ms,
                                                     const VarKeyValues& kvs) {
  std::vector<Status> out;
  out.reserve(kvs.size());
  for (const auto& [key, value] : kvs) {
    Status st = HostVarInsert(key, value);
    if (st.IsRetry()) {
      declined_++;
    } else {
      served_++;
    }
    out.push_back(std::move(st));
  }
  ChargeWalks(ms, kvs.size());
  return out;
}

// --- client stub -----------------------------------------------------------

sim::Task<std::string> TreeRpcClient::Call(uint16_t ms, uint64_t opcode,
                                           uint64_t a, uint64_t b,
                                           std::string body, OpStats* stats) {
  co_await service_->system()->fabric().qp(cs_id_, ms).Rpc(opcode, a, b,
                                                           &body);
  if (stats != nullptr) stats->round_trips++;
  co_return body;
}

sim::Task<Status> TreeRpcClient::Insert(uint16_t ms, Key key, uint64_t value,
                                        OpStats* stats) {
  std::vector<Status> per_key;
  co_await MultiInsert(ms, KeyValues(1, std::make_pair(key, value)), &per_key,
                       stats);
  co_return per_key[0];
}

sim::Task<Status> TreeRpcClient::Lookup(uint16_t ms, Key key, uint64_t* value,
                                        OpStats* stats) {
  std::vector<MultiGetResult> got;
  co_await MultiGet(ms, std::vector<Key>(1, key), &got, stats);
  if (got[0].status.ok()) *value = got[0].value;
  co_return got[0].status;
}

sim::Task<Status> TreeRpcClient::Delete(uint16_t ms, Key key, OpStats* stats) {
  std::vector<Status> per_key;
  co_await MultiDelete(ms, std::vector<Key>(1, key), &per_key, stats);
  co_return per_key[0];
}

sim::Task<Status> TreeRpcClient::RangeQuery(uint16_t ms, Key from,
                                            uint32_t count, KeyValues* out,
                                            OpStats* stats) {
  SHERMAN_CHECK(from != kNullKey && from != kMaxKey);
  out->clear();
  if (count == 0) co_return Status::OK();
  if (count >= (1u << 16)) {
    // A scan this long needs more leaves than the executor's walk budget
    // (kMaxScanLeaves = 64 leaves, each under 1K entries at node sizes up
    // to 16 KB), so the executor would decline it unless the tree ended
    // first. Serve it one-sided without the round trip.
    co_return Status::Retry("scan too large for ms-side execution");
  }
  auto [st, got] = Decode<std::pair<Status, KeyValues>>(
      co_await Call(ms, TreeRpcService::kOpScan, from, count, {}, stats));
  *out = std::move(got);
  co_return st;
}

sim::Task<Status> TreeRpcClient::MultiGet(uint16_t ms, std::vector<Key> keys,
                                          std::vector<MultiGetResult>* out,
                                          OpStats* stats) {
  out->assign(keys.size(), MultiGetResult{});
  if (keys.empty()) co_return Status::OK();
  for (Key k : keys) SHERMAN_CHECK(k != kNullKey && k != kMaxKey);
  *out = Decode<std::vector<MultiGetResult>>(co_await Call(
      ms, TreeRpcService::kOpMultiGet, 0, 0, Encode(keys), stats));
  SHERMAN_CHECK(out->size() == keys.size());
  co_return Status::OK();
}

sim::Task<Status> TreeRpcClient::MultiInsert(uint16_t ms, KeyValues kvs,
                                             std::vector<Status>* per_key,
                                             OpStats* stats) {
  per_key->assign(kvs.size(), Status::OK());
  if (kvs.empty()) co_return Status::OK();
  for (const auto& [k, v] : kvs) SHERMAN_CHECK(k != kNullKey && k != kMaxKey);
  *per_key = Decode<std::vector<Status>>(co_await Call(
      ms, TreeRpcService::kOpMultiInsert, 0, 0, Encode(kvs), stats));
  SHERMAN_CHECK(per_key->size() == kvs.size());
  co_return Status::OK();
}

sim::Task<Status> TreeRpcClient::MultiDelete(uint16_t ms,
                                             std::vector<Key> keys,
                                             std::vector<Status>* per_key,
                                             OpStats* stats) {
  per_key->assign(keys.size(), Status::NotFound());
  if (keys.empty()) co_return Status::OK();
  for (Key k : keys) SHERMAN_CHECK(k != kNullKey && k != kMaxKey);
  *per_key = Decode<std::vector<Status>>(co_await Call(
      ms, TreeRpcService::kOpMultiDelete, 0, 0, Encode(keys), stats));
  SHERMAN_CHECK(per_key->size() == keys.size());
  co_return Status::OK();
}

sim::Task<Status> TreeRpcClient::InsertVar(uint16_t ms, const Slice& key,
                                           const Slice& value,
                                           OpStats* stats) {
  std::vector<Status> per_key;
  co_await MultiInsertVar(
      ms, VarKeyValues(1, std::make_pair(key.ToString(), value.ToString())),
      &per_key, stats);
  co_return per_key[0];
}

sim::Task<Status> TreeRpcClient::LookupVar(uint16_t ms, const Slice& key,
                                           std::string* value,
                                           OpStats* stats) {
  std::vector<VarGetResult> got;
  co_await MultiGetVar(ms, std::vector<std::string>(1, key.ToString()), &got,
                      stats);
  if (got[0].status.ok()) *value = std::move(got[0].value);
  co_return got[0].status;
}

sim::Task<Status> TreeRpcClient::DeleteVar(uint16_t ms, const Slice& key,
                                           OpStats* stats) {
  co_return Decode<Status>(co_await Call(
      ms, TreeRpcService::kOpVarDelete, 0, 0, Encode(key), stats));
}

sim::Task<Status> TreeRpcClient::ScanVar(uint16_t ms, const Slice& from,
                                         uint32_t count, VarKeyValues* out,
                                         OpStats* stats) {
  out->clear();
  if (count == 0) co_return Status::OK();
  auto [st, got] = Decode<std::pair<Status, VarKeyValues>>(co_await Call(
      ms, TreeRpcService::kOpVarScan, 0, count, Encode(from), stats));
  *out = std::move(got);
  co_return st;
}

sim::Task<Status> TreeRpcClient::MultiGetVar(uint16_t ms,
                                             std::vector<std::string> keys,
                                             std::vector<VarGetResult>* out,
                                             OpStats* stats) {
  out->assign(keys.size(), VarGetResult{});
  if (keys.empty()) co_return Status::OK();
  *out = Decode<std::vector<VarGetResult>>(co_await Call(
      ms, TreeRpcService::kOpMultiVarGet, 0, 0, Encode(keys), stats));
  SHERMAN_CHECK(out->size() == keys.size());
  co_return Status::OK();
}

sim::Task<Status> TreeRpcClient::MultiInsertVar(uint16_t ms, VarKeyValues kvs,
                                                std::vector<Status>* per_key,
                                                OpStats* stats) {
  per_key->assign(kvs.size(), Status::OK());
  if (kvs.empty()) co_return Status::OK();
  *per_key = Decode<std::vector<Status>>(co_await Call(
      ms, TreeRpcService::kOpMultiVarInsert, 0, 0, Encode(kvs), stats));
  SHERMAN_CHECK(per_key->size() == kvs.size());
  co_return Status::OK();
}

}  // namespace sherman::route

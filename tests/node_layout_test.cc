// Unit tests for the node formats of Figure 8: headers, version pairs,
// checksums, sorted/unsorted leaves, internal nodes, parsing — plus the
// slotted-leaf writer, the varlen bulk loader and ScanVar, checked against
// a reference layout and packer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/btree.h"
#include "core/node_layout.h"
#include "workload/workload.h"

namespace sherman {
namespace {

TreeShape DefaultShape() { return TreeShape{1024, 8, 8}; }

std::vector<uint8_t> Buf(const TreeShape& s) {
  return std::vector<uint8_t>(s.node_size, 0);
}

TEST(TreeShapeTest, CapacitiesMatchPaperScale) {
  const TreeShape s = DefaultShape();
  EXPECT_EQ(s.leaf_entry_size(), 18u);  // 1 + 8 + 8 + 1 (paper packs 17)
  // 1 KB node, 8/8 keys: dozens of entries per node.
  EXPECT_GE(s.leaf_capacity(), 50u);
  EXPECT_GE(s.internal_capacity(), 55u);
}

TEST(TreeShapeTest, WideKeysShrinkCapacity) {
  TreeShape s{1024, 128, 8};
  EXPECT_LT(s.leaf_capacity(), 8u);
  EXPECT_GE(s.leaf_capacity(), 2u);
}

TEST(NodeViewTest, HeaderRoundTrip) {
  const TreeShape s = DefaultShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitLeaf(100, 200, rdma::GlobalAddress(3, 4096));
  EXPECT_TRUE(v.is_leaf());
  EXPECT_FALSE(v.is_free());
  EXPECT_EQ(v.level(), 0);
  EXPECT_EQ(v.lo_fence(), 100u);
  EXPECT_EQ(v.hi_fence(), 200u);
  EXPECT_EQ(v.sibling(), rdma::GlobalAddress(3, 4096));
  EXPECT_TRUE(v.InFence(100));
  EXPECT_TRUE(v.InFence(199));
  EXPECT_FALSE(v.InFence(200));
  EXPECT_FALSE(v.InFence(99));
  v.set_free(true);
  EXPECT_TRUE(v.is_free());
  v.set_free(false);
  EXPECT_FALSE(v.is_free());
}

TEST(NodeViewTest, NodeVersionsBumpTogetherAndWrap) {
  const TreeShape s = DefaultShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitLeaf(0, kMaxKey, rdma::kNullAddress);
  EXPECT_TRUE(v.NodeVersionsMatch());
  for (int i = 0; i < 20; i++) {
    v.BumpNodeVersions();
    EXPECT_TRUE(v.NodeVersionsMatch());
    EXPECT_EQ(v.front_version(), (i + 1) & 0xf) << "4-bit wraparound";
  }
  // A torn state (only front bumped) must be detectable.
  buf[kOffFnv] = (v.front_version() + 1) & 0xf;
  EXPECT_FALSE(v.NodeVersionsMatch());
}

TEST(NodeViewTest, ChecksumDetectsCorruption) {
  const TreeShape s = DefaultShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitLeaf(0, kMaxKey, rdma::kNullAddress);
  v.SetLeafEntryRaw(0, 42, 4242);
  v.UpdateChecksum();
  EXPECT_TRUE(v.VerifyChecksum());
  buf[500] ^= 0xff;
  EXPECT_FALSE(v.VerifyChecksum());
  buf[500] ^= 0xff;
  EXPECT_TRUE(v.VerifyChecksum());
}

TEST(NodeViewTest, LeafEntryVersionsBumpOnSet) {
  const TreeShape s = DefaultShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitLeaf(0, kMaxKey, rdma::kNullAddress);
  EXPECT_TRUE(v.LeafEntryVersionsMatch(3));
  v.SetLeafEntry(3, 77, 770);
  EXPECT_EQ(v.LeafKey(3), 77u);
  EXPECT_EQ(v.LeafValue(3), 770u);
  EXPECT_EQ(v.LeafFrontVersion(3), 1);
  EXPECT_EQ(v.LeafRearVersion(3), 1);
  EXPECT_TRUE(v.LeafEntryVersionsMatch(3));
  // Raw set does not touch versions (bulk load).
  v.SetLeafEntryRaw(4, 88, 880);
  EXPECT_EQ(v.LeafFrontVersion(4), 0);
}

TEST(NodeViewTest, TornEntryDetectable) {
  const TreeShape s = DefaultShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitLeaf(0, kMaxKey, rdma::kNullAddress);
  v.SetLeafEntry(0, 1, 10);
  // Simulate a torn write: front version advanced, rear still old.
  buf[v.LeafEntryOffset(0)] = 2;
  EXPECT_FALSE(v.LeafEntryVersionsMatch(0));
}

TEST(NodeViewTest, FindLeafSlotMatchEmptyFull) {
  const TreeShape s = DefaultShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitLeaf(0, kMaxKey, rdma::kNullAddress);
  // Empty leaf: no match, slot 0 empty.
  auto r = v.FindLeafSlot(5);
  EXPECT_EQ(r.match, UINT32_MAX);
  EXPECT_EQ(r.empty, 0u);
  // Fill slots 0..2; key 6 in slot 1.
  v.SetLeafEntry(0, 4, 40);
  v.SetLeafEntry(1, 6, 60);
  v.SetLeafEntry(2, 8, 80);
  r = v.FindLeafSlot(6);
  EXPECT_EQ(r.match, 1u);
  r = v.FindLeafSlot(5);
  EXPECT_EQ(r.match, UINT32_MAX);
  EXPECT_EQ(r.empty, 3u);
  // Full leaf: neither match nor empty.
  for (uint32_t i = 0; i < s.leaf_capacity(); i++) {
    v.SetLeafEntry(i, 1000 + i, i);
  }
  r = v.FindLeafSlot(5);
  EXPECT_EQ(r.match, UINT32_MAX);
  EXPECT_EQ(r.empty, UINT32_MAX);
}

TEST(NodeViewTest, DeletedSlotIsReusable) {
  const TreeShape s = DefaultShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitLeaf(0, kMaxKey, rdma::kNullAddress);
  v.SetLeafEntry(0, 10, 1);
  v.SetLeafEntry(1, 20, 2);
  v.SetLeafEntry(1, kNullKey, 0);  // delete clears the key
  auto r = v.FindLeafSlot(30);
  EXPECT_EQ(r.empty, 1u);
}

TEST(NodeViewTest, SortedLeafInsertKeepsOrderAndShifts) {
  const TreeShape s = DefaultShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitLeaf(0, kMaxKey, rdma::kNullAddress);
  EXPECT_TRUE(v.SortedLeafInsert(20, 200));
  EXPECT_TRUE(v.SortedLeafInsert(10, 100));
  EXPECT_TRUE(v.SortedLeafInsert(30, 300));
  EXPECT_TRUE(v.SortedLeafInsert(15, 150));
  EXPECT_EQ(v.count(), 4u);
  const Key expect[] = {10, 15, 20, 30};
  for (int i = 0; i < 4; i++) EXPECT_EQ(v.LeafKey(i), expect[i]);
  // Update in place.
  EXPECT_TRUE(v.SortedLeafInsert(15, 155));
  EXPECT_EQ(v.count(), 4u);
  EXPECT_EQ(v.LeafValue(1), 155u);
}

TEST(NodeViewTest, SortedLeafInsertFullFails) {
  const TreeShape s = DefaultShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitLeaf(0, kMaxKey, rdma::kNullAddress);
  for (uint32_t i = 0; i < s.leaf_capacity(); i++) {
    ASSERT_TRUE(v.SortedLeafInsert(10 + i * 2, i));
  }
  EXPECT_FALSE(v.SortedLeafInsert(11, 0));
  EXPECT_TRUE(v.SortedLeafInsert(10, 999));  // updates still fine
}

TEST(NodeViewTest, SortedLeafFindAndRemove) {
  const TreeShape s = DefaultShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitLeaf(0, kMaxKey, rdma::kNullAddress);
  for (Key k : {10, 20, 30, 40}) v.SortedLeafInsert(k, k * 10);
  EXPECT_EQ(v.SortedLeafFind(30), 2u);
  EXPECT_EQ(v.SortedLeafFind(31), UINT32_MAX);
  EXPECT_TRUE(v.SortedLeafRemove(20));
  EXPECT_FALSE(v.SortedLeafRemove(20));
  EXPECT_EQ(v.count(), 3u);
  EXPECT_EQ(v.LeafKey(1), 30u);
  EXPECT_EQ(v.LeafValue(1), 300u);
}

TEST(NodeViewTest, InternalChildForRouting) {
  const TreeShape s = DefaultShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  const rdma::GlobalAddress lm(1, 4096), c1(1, 8192), c2(1, 12288);
  v.InitInternal(1, 0, kMaxKey, rdma::kNullAddress, lm);
  EXPECT_TRUE(v.InternalInsert(100, c1));
  EXPECT_TRUE(v.InternalInsert(200, c2));
  EXPECT_EQ(v.InternalChildFor(50), lm);
  EXPECT_EQ(v.InternalChildFor(100), c1);
  EXPECT_EQ(v.InternalChildFor(150), c1);
  EXPECT_EQ(v.InternalChildFor(200), c2);
  EXPECT_EQ(v.InternalChildFor(1'000'000), c2);
}

TEST(NodeViewTest, InternalInsertSortedWithShift) {
  const TreeShape s = DefaultShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitInternal(1, 0, kMaxKey, rdma::kNullAddress, rdma::GlobalAddress(0, 64));
  EXPECT_TRUE(v.InternalInsert(30, rdma::GlobalAddress(0, 3000)));
  EXPECT_TRUE(v.InternalInsert(10, rdma::GlobalAddress(0, 1000)));
  EXPECT_TRUE(v.InternalInsert(20, rdma::GlobalAddress(0, 2000)));
  EXPECT_EQ(v.count(), 3u);
  EXPECT_EQ(v.InternalKey(0), 10u);
  EXPECT_EQ(v.InternalKey(1), 20u);
  EXPECT_EQ(v.InternalKey(2), 30u);
  EXPECT_EQ(v.InternalChild(1), rdma::GlobalAddress(0, 2000));
  // Duplicate separator: idempotent overwrite.
  EXPECT_TRUE(v.InternalInsert(20, rdma::GlobalAddress(0, 2222)));
  EXPECT_EQ(v.count(), 3u);
  EXPECT_EQ(v.InternalChild(1), rdma::GlobalAddress(0, 2222));
}

TEST(NodeViewTest, InternalInsertFullFails) {
  const TreeShape s = DefaultShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitInternal(1, 0, kMaxKey, rdma::kNullAddress, rdma::GlobalAddress(0, 64));
  for (uint32_t i = 0; i < s.internal_capacity(); i++) {
    ASSERT_TRUE(v.InternalInsert(10 + i, rdma::GlobalAddress(0, 4096 + i)));
  }
  EXPECT_FALSE(v.InternalInsert(5, rdma::GlobalAddress(0, 99)));
}

// --- ParsedInternal / ParseInternal ---

TEST(ParseInternalTest, RoundTrip) {
  const TreeShape s = DefaultShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  const rdma::GlobalAddress self(2, 4096);
  v.InitInternal(2, 100, 900, rdma::GlobalAddress(2, 8192),
                 rdma::GlobalAddress(0, 64));
  v.InternalInsert(300, rdma::GlobalAddress(0, 3000));
  v.InternalInsert(600, rdma::GlobalAddress(0, 6000));
  ParsedInternal p;
  ASSERT_TRUE(ParseInternal(buf.data(), s, self, &p).ok());
  EXPECT_EQ(p.self, self);
  EXPECT_EQ(p.level, 2);
  EXPECT_EQ(p.lo, 100u);
  EXPECT_EQ(p.hi, 900u);
  EXPECT_EQ(p.entries.size(), 2u);
  EXPECT_EQ(p.ChildFor(150), p.leftmost);
  EXPECT_EQ(p.ChildFor(450), rdma::GlobalAddress(0, 3000));
  EXPECT_EQ(p.ChildFor(600), rdma::GlobalAddress(0, 6000));
}

TEST(ParseInternalTest, ChildAfterForPrefetch) {
  ParsedInternal p;
  p.lo = 0;
  p.hi = kMaxKey;
  p.leftmost = rdma::GlobalAddress(0, 100);
  p.entries = {{10, rdma::GlobalAddress(0, 200)},
               {20, rdma::GlobalAddress(0, 300)}};
  EXPECT_EQ(p.ChildAfter(5, 0), rdma::GlobalAddress(0, 100));
  EXPECT_EQ(p.ChildAfter(5, 1), rdma::GlobalAddress(0, 200));
  EXPECT_EQ(p.ChildAfter(5, 2), rdma::GlobalAddress(0, 300));
  EXPECT_EQ(p.ChildAfter(5, 3), rdma::kNullAddress);
  EXPECT_EQ(p.ChildAfter(15, 0), rdma::GlobalAddress(0, 200));
  EXPECT_EQ(p.ChildAfter(15, 1), rdma::GlobalAddress(0, 300));
}

TEST(ParseInternalTest, RejectsTornNode) {
  const TreeShape s = DefaultShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitInternal(1, 0, kMaxKey, rdma::kNullAddress, rdma::GlobalAddress(0, 64));
  buf[kOffFnv] = 3;  // front != rear
  ParsedInternal p;
  EXPECT_TRUE(ParseInternal(buf.data(), s, {}, &p).IsRetry());
}

TEST(ParseInternalTest, RejectsLeaf) {
  const TreeShape s = DefaultShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitLeaf(0, kMaxKey, rdma::kNullAddress);
  ParsedInternal p;
  EXPECT_TRUE(ParseInternal(buf.data(), s, {}, &p).IsCorruption());
}

TEST(ParseInternalTest, RejectsFreedNode) {
  const TreeShape s = DefaultShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitInternal(1, 0, kMaxKey, rdma::kNullAddress, rdma::GlobalAddress(0, 64));
  v.set_free(true);
  ParsedInternal p;
  EXPECT_TRUE(ParseInternal(buf.data(), s, {}, &p).IsRetry());
}

TEST(ParseInternalTest, RejectsGarbageCount) {
  const TreeShape s = DefaultShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitInternal(1, 0, kMaxKey, rdma::kNullAddress, rdma::GlobalAddress(0, 64));
  v.set_count(60'000);
  ParsedInternal p;
  EXPECT_TRUE(ParseInternal(buf.data(), s, {}, &p).IsCorruption());
}

TEST(ParseInternalTest, RejectsUnorderedKeys) {
  const TreeShape s = DefaultShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitInternal(1, 0, kMaxKey, rdma::kNullAddress, rdma::GlobalAddress(0, 64));
  v.SetInternalEntry(0, 50, rdma::GlobalAddress(0, 1));
  v.SetInternalEntry(1, 20, rdma::GlobalAddress(0, 2));  // out of order
  v.set_count(2);
  ParsedInternal p;
  EXPECT_TRUE(ParseInternal(buf.data(), s, {}, &p).IsRetry());
}

// Parameterized sweep: layouts behave across node geometries.
struct ShapeParam {
  uint32_t node_size;
  uint32_t key_size;
};

class ShapeSweepTest : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(ShapeSweepTest, LeafEntriesRoundTripAtEveryIndex) {
  const TreeShape s{GetParam().node_size, GetParam().key_size, 8};
  ASSERT_GE(s.leaf_capacity(), 2u);
  std::vector<uint8_t> buf(s.node_size, 0);
  NodeView v(buf.data(), &s);
  v.InitLeaf(0, kMaxKey, rdma::kNullAddress);
  for (uint32_t i = 0; i < s.leaf_capacity(); i++) {
    v.SetLeafEntry(i, 1'000'000 + i, 7'000'000 + i);
  }
  for (uint32_t i = 0; i < s.leaf_capacity(); i++) {
    EXPECT_EQ(v.LeafKey(i), 1'000'000 + i);
    EXPECT_EQ(v.LeafValue(i), 7'000'000 + i);
    EXPECT_TRUE(v.LeafEntryVersionsMatch(i));
  }
  // Entries stay inside the node (rear version byte untouched).
  EXPECT_LE(v.LeafEntryOffset(s.leaf_capacity() - 1) + s.leaf_entry_size(),
            s.node_size - 1);
}

TEST_P(ShapeSweepTest, InternalEntriesStayInBounds) {
  const TreeShape s{GetParam().node_size, GetParam().key_size, 8};
  ASSERT_GE(s.internal_capacity(), 3u);
  std::vector<uint8_t> buf(s.node_size, 0);
  NodeView v(buf.data(), &s);
  v.InitInternal(1, 0, kMaxKey, rdma::kNullAddress, rdma::GlobalAddress(0, 64));
  for (uint32_t i = 0; i < s.internal_capacity(); i++) {
    ASSERT_TRUE(v.InternalInsert(100 + i, rdma::GlobalAddress(0, 4096 + i)));
  }
  EXPECT_LE(v.InternalEntryOffset(s.internal_capacity() - 1) +
                s.internal_entry_size(),
            s.node_size - 1);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ShapeSweepTest,
    ::testing::Values(ShapeParam{256, 8}, ShapeParam{512, 8},
                      ShapeParam{1024, 8}, ShapeParam{4096, 8},
                      ShapeParam{1024, 16}, ShapeParam{1024, 32},
                      ShapeParam{2048, 64}, ShapeParam{4096, 128}),
    [](const auto& info) {
      return "node" + std::to_string(info.param.node_size) + "_key" +
             std::to_string(info.param.key_size);
    });

// --- varlen slotted leaves ---

TreeShape VarShape(uint32_t node_size = 1024) {
  TreeShape s{node_size, 8, 8};
  s.varlen = true;
  return s;
}

const uint8_t* Bytes(const std::string& s) {
  return reinterpret_cast<const uint8_t*>(s.data());
}

bool VarInsertInline(NodeView* v, const std::string& key,
                     const std::string& value) {
  return v->VarInsert(key, Bytes(value),
                      static_cast<uint32_t>(value.size()),
                      static_cast<uint16_t>(value.size()),
                      /*outline=*/false);
}

TEST(RoutingKeyTest, LexMonotoneOverByteKeys) {
  const std::string keys[] = {"a", "ab", "abc", "abd", "b",
                              "longer-than-8-bytes-1",
                              "longer-than-8-bytes-2", "zzzzzzzzz"};
  for (size_t i = 0; i + 1 < std::size(keys); i++) {
    EXPECT_LE(RoutingKeyFor(keys[i]), RoutingKeyFor(keys[i + 1]))
        << keys[i] << " vs " << keys[i + 1];
  }
  // Keys sharing their first 8 bytes share a routing key.
  EXPECT_EQ(RoutingKeyFor("longer-than-8-bytes-1"),
            RoutingKeyFor("longer-than-8-bytes-2"));
  EXPECT_NE(RoutingKeyFor("abc"), RoutingKeyFor("abd"));
}

TEST(VarLeafTest, InsertFindRemoveRoundTrip) {
  const TreeShape s = VarShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitLeaf(0, kMaxKey, rdma::kNullAddress);
  ASSERT_TRUE(VarInsertInline(&v, "bravo", "BB"));
  ASSERT_TRUE(VarInsertInline(&v, "alpha", "A"));
  ASSERT_TRUE(VarInsertInline(&v, "charlie", "CCC"));
  EXPECT_EQ(v.count(), 3u);
  // Slots sort by full key.
  EXPECT_EQ(v.VarFullKey(0), "alpha");
  EXPECT_EQ(v.VarFullKey(1), "bravo");
  EXPECT_EQ(v.VarFullKey(2), "charlie");
  const uint32_t i = v.VarFind("bravo");
  ASSERT_NE(i, UINT32_MAX);
  EXPECT_EQ(v.VarInlineValue(i).ToString(), "BB");
  EXPECT_EQ(v.VarFind("delta"), UINT32_MAX);
  // Update in place (shorter value): same slot count, new bytes.
  ASSERT_TRUE(VarInsertInline(&v, "bravo", "x"));
  EXPECT_EQ(v.count(), 3u);
  EXPECT_EQ(v.VarInlineValue(v.VarFind("bravo")).ToString(), "x");
  v.VarRemoveAt(v.VarFind("bravo"));
  EXPECT_EQ(v.count(), 2u);
  EXPECT_EQ(v.VarFind("bravo"), UINT32_MAX);
  EXPECT_GT(v.dead_bytes(), 0u);
  v.VarCompact();
  EXPECT_EQ(v.dead_bytes(), 0u);
  EXPECT_EQ(v.VarFullKey(0), "alpha");
  EXPECT_EQ(v.VarInlineValue(v.VarFind("charlie")).ToString(), "CCC");
}

TEST(VarLeafTest, ZeroLengthValueRoundTrips) {
  const TreeShape s = VarShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitLeaf(0, kMaxKey, rdma::kNullAddress);
  ASSERT_TRUE(VarInsertInline(&v, "empty-value-key", ""));
  const uint32_t i = v.VarFind("empty-value-key");
  ASSERT_NE(i, UINT32_MAX);
  EXPECT_EQ(v.VarVlen(i), 0u);
  EXPECT_FALSE(v.VarOutline(i));
  EXPECT_EQ(v.VarInlineValue(i).size(), 0u);
  // A zero-length value next to a real one: neither bleeds into the other.
  ASSERT_TRUE(VarInsertInline(&v, "empty-value-kez", "neighbor"));
  EXPECT_EQ(v.VarInlineValue(v.VarFind("empty-value-key")).size(), 0u);
  EXPECT_EQ(v.VarInlineValue(v.VarFind("empty-value-kez")).ToString(),
            "neighbor");
}

TEST(VarLeafTest, MaxKeyLengthRoundTrips) {
  const TreeShape s = VarShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitLeaf(0, kMaxKey, rdma::kNullAddress);
  std::string k(s.max_key_len, 'k');
  k[0] = 'a';  // keep the routing key off the sentinels
  ASSERT_TRUE(VarInsertInline(&v, k, "v"));
  const uint32_t i = v.VarFind(k);
  ASSERT_NE(i, UINT32_MAX);
  EXPECT_EQ(v.VarFullKey(i), k);
  EXPECT_EQ(v.VarInlineValue(i).ToString(), "v");
}

TEST(VarLeafTest, HeapExhaustsBeforeSlotCapacity) {
  const TreeShape s = VarShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitLeaf(0, kMaxKey, rdma::kNullAddress);
  // 200-byte inline values: the byte budget (< node_size) admits only a
  // handful of entries even though the slot array alone could hold dozens.
  const std::string big(200, 'v');
  uint32_t n = 0;
  while (VarInsertInline(&v, "key-" + std::to_string(n), big)) n++;
  EXPECT_GE(n, 2u);
  EXPECT_LT(n, 6u) << "byte budget should bound far below slot capacity";
  // The failed insert must leave the page intact.
  EXPECT_EQ(v.count(), n);
  for (uint32_t i = 0; i < n; i++) {
    EXPECT_EQ(v.VarInlineValue(i).size(), big.size());
  }
  // A small entry still fits (the reject was about the BIG payload).
  EXPECT_TRUE(VarInsertInline(&v, "tiny", "t"));
}

TEST(VarLeafTest, TornReadDetectableAcrossVariableRegion) {
  const TreeShape s = VarShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitLeaf(0, kMaxKey, rdma::kNullAddress);
  ASSERT_TRUE(VarInsertInline(&v, "shared/prefix/aaa", "111"));
  ASSERT_TRUE(VarInsertInline(&v, "shared/prefix/bbb", "222"));
  v.UpdateChecksum();
  ASSERT_TRUE(v.VerifyChecksum());
  // Flip one heap byte (the variable region grows down from the tail):
  // the whole-node checksum must catch it.
  buf[v.heap_watermark() + 1] ^= 0xff;
  EXPECT_FALSE(v.VerifyChecksum());
  buf[v.heap_watermark() + 1] ^= 0xff;
  EXPECT_TRUE(v.VerifyChecksum());
  // A torn whole-node write (front version bumped, rear stale) is caught
  // by the node version pair, exactly as in fixed sorted mode.
  buf[kOffFnv] = (v.front_version() + 1) & 0xf;
  EXPECT_FALSE(v.NodeVersionsMatch());
}

TEST(VarLeafTest, PrefixShrinksWhenDivergentKeyArrives) {
  const TreeShape s = VarShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitLeaf(0, kMaxKey, rdma::kNullAddress);
  std::vector<VarSpan> entries;
  for (const char* k : {"app/metrics/cpu", "app/metrics/mem"}) {
    entries.push_back(VarSpan{Slice(), Slice(k), Slice("v"), 1, false});
  }
  ASSERT_TRUE(
      WriteVarLeaf(&v, entries, VarKeyLcp(entries.front(), entries.back())));
  EXPECT_GT(v.prefix_len(), 0u);  // "app/metrics/" shared
  // Diverging key: the page prefix must shrink and old keys survive.
  ASSERT_TRUE(VarInsertInline(&v, "app/logs/x", "L"));
  EXPECT_EQ(v.VarFullKey(v.VarFind("app/metrics/cpu")), "app/metrics/cpu");
  EXPECT_EQ(v.VarInlineValue(v.VarFind("app/logs/x")).ToString(), "L");
  EXPECT_LE(v.prefix_len(), 4u);
}

TEST(VarLeafTest, OutlinePointerRoundTrip) {
  const TreeShape s = VarShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitLeaf(0, kMaxKey, rdma::kNullAddress);
  const uint64_t ptr = 0xabcdef0123456789ull;
  uint8_t payload[8];
  std::memcpy(payload, &ptr, 8);
  ASSERT_TRUE(v.VarInsert("outlined", payload, 8, /*vlen=*/4096,
                          /*outline=*/true));
  const uint32_t i = v.VarFind("outlined");
  ASSERT_NE(i, UINT32_MAX);
  EXPECT_TRUE(v.VarOutline(i));
  EXPECT_EQ(v.VarVlen(i), 4096u);
  EXPECT_EQ(v.VarVlogPtr(i), ptr);
  v.VarSetVlogPtr(i, ptr + 1);  // GC repoint: in place, no heap motion
  EXPECT_EQ(v.VarVlogPtr(i), ptr + 1);
  EXPECT_EQ(v.VarEntryBytes(i), 8u + 8u);  // suffix + pointer, not vlen
}

TEST(VarLeafTest, BuildExtractMoveRoundTrip) {
  const TreeShape s = VarShape();
  auto lbuf = Buf(s), rbuf = Buf(s);
  NodeView left(lbuf.data(), &s), right(rbuf.data(), &s);
  left.InitLeaf(0, 1000, rdma::kNullAddress);
  right.InitLeaf(1000, kMaxKey, rdma::kNullAddress);
  ASSERT_TRUE(VarInsertInline(&left, "m-aaa", "1"));
  ASSERT_TRUE(VarInsertInline(&left, "m-bbb", "2"));
  ASSERT_TRUE(VarInsertInline(&right, "m-ccc", "3"));
  std::vector<VarSpan> before;
  AppendVarSpans(left, &before);
  ASSERT_EQ(before.size(), 2u);
  EXPECT_EQ(before[0].head.ToString() + before[0].tail.ToString(), "m-aaa");
  EXPECT_EQ(before[1].payload.ToString(), "2");
  ASSERT_TRUE(VarLeafFits(left, right));
  MoveVarLeafEntries(&left, right);
  EXPECT_EQ(left.count(), 3u);
  EXPECT_EQ(left.VarFullKey(2), "m-ccc");
  EXPECT_EQ(left.VarInlineValue(left.VarFind("m-ccc")).ToString(), "3");
}

// --- one slotted-leaf writer: reference layout, bulk load, split/merge ---

// A reference copy of the slotted-leaf layout and of the quadratic greedy
// packer BulkLoadVar used before it planned cuts from prefix sums. The
// production writer and loader must reproduce their bytes exactly.
struct RefEntry {
  std::string key;
  std::string payload;  // inline value or 8-byte vlog pointer
  uint16_t vlen = 0;
  bool outline = false;
};

uint32_t RefPrefix(const std::vector<RefEntry>& es) {
  if (es.empty()) return 0;
  const std::string& a = es.front().key;
  const std::string& b = es.back().key;
  uint32_t p = 0;
  while (p < a.size() && p < b.size() && a[p] == b[p]) p++;
  return std::min(p, 255u);
}

uint64_t RefBytes(const std::vector<RefEntry>& es, uint32_t p) {
  uint64_t bytes = p;
  for (const RefEntry& e : es) {
    bytes += kVarSlotSize + e.key.size() - p + e.payload.size();
  }
  return bytes;
}

// The old layout loop: prefix bytes at the top, heap growing down in slot
// order, one 8-byte slot per entry.
void RefWriteLeaf(NodeView* v, const std::vector<RefEntry>& es, uint32_t p) {
  const uint32_t top = v->shape().node_size - 1 - p;
  if (p > 0) std::memcpy(v->data() + top, es.front().key.data(), p);
  uint32_t w = top;
  for (uint32_t i = 0; i < es.size(); i++) {
    const RefEntry& e = es[i];
    const uint32_t slen = static_cast<uint32_t>(e.key.size()) - p;
    w -= slen + static_cast<uint32_t>(e.payload.size());
    std::memcpy(v->data() + w, e.key.data() + p, slen);
    std::memcpy(v->data() + w + slen, e.payload.data(), e.payload.size());
    uint8_t* slot = v->data() + v->VarSlotOffset(i);
    const uint16_t off16 = static_cast<uint16_t>(w);
    std::memcpy(slot, &off16, 2);
    slot[2] = static_cast<uint8_t>(slen);
    slot[3] = NodeView::VarFingerprint(e.key);
    std::memcpy(slot + 4, &e.vlen, 2);
    slot[6] = e.outline ? kVarFlagOutline : 0;
    slot[7] = 0;
  }
  v->set_prefix_len(static_cast<uint8_t>(p));
  v->set_dead_bytes(0);
  v->set_count(static_cast<uint16_t>(es.size()));
  v->set_heap_watermark(static_cast<uint16_t>(w));
}

std::vector<RefEntry> RefEntries(const NodeView& v) {
  std::vector<RefEntry> out;
  for (uint32_t i = 0; i < v.count(); i++) {
    const uint32_t slen = v.VarSuffixLen(i);
    const char* heap =
        reinterpret_cast<const char*>(v.data() + v.VarEntryOff(i));
    out.push_back(RefEntry{v.VarFullKey(i),
                           std::string(heap + slen, v.VarEntryBytes(i) - slen),
                           v.VarVlen(i), v.VarOutline(i)});
  }
  return out;
}

using KvList = std::vector<std::pair<std::string, std::string>>;

// The old greedy: re-measures the whole candidate leaf for every routing
// group it tries to add.
std::vector<std::vector<RefEntry>> RefGreedy(const KvList& kvs,
                                             const TreeShape& shape,
                                             double fill) {
  const uint64_t budget = shape.var_usable_bytes();
  const uint64_t target = std::max<uint64_t>(
      1, static_cast<uint64_t>(static_cast<double>(budget) * fill));
  std::vector<std::vector<RefEntry>> leaves;
  std::vector<RefEntry> cur;
  size_t i = 0;
  while (i < kvs.size()) {
    size_t j = i;
    const Key rk = RoutingKeyFor(kvs[i].first);
    while (j < kvs.size() && RoutingKeyFor(kvs[j].first) == rk) j++;
    std::vector<RefEntry> cand = cur;
    for (size_t k = i; k < j; k++) {
      cand.push_back(RefEntry{kvs[k].first, kvs[k].second,
                              static_cast<uint16_t>(kvs[k].second.size()),
                              false});
    }
    const uint64_t need = RefBytes(cand, RefPrefix(cand));
    if (!cur.empty() && need > target) {
      leaves.push_back(std::move(cur));
      cur.clear();
      continue;
    }
    EXPECT_LE(need, budget);
    cur = std::move(cand);
    i = j;
  }
  if (!cur.empty() || leaves.empty()) leaves.push_back(std::move(cur));
  return leaves;
}

rdma::FabricConfig LoadFabric() {
  rdma::FabricConfig f;
  f.num_memory_servers = 2;
  f.num_compute_servers = 1;
  f.ms_memory_bytes = 32ull << 20;
  return f;
}

TreeOptions VarTreeOptions(uint32_t node_size) {
  TreeOptions t;
  t.two_level_versions = false;  // varlen requires sorted leaves
  t.shape.varlen = true;
  t.shape.node_size = node_size;
  return t;
}

rdma::GlobalAddress LeftmostLeaf(ShermanSystem& system) {
  rdma::GlobalAddress addr = system.DebugRootAddr();
  while (true) {
    const NodeView view =
        NodeView::Reader(system.fabric().HostRaw(addr),
                         &system.options().shape);
    if (view.is_leaf()) return addr;
    addr = view.leftmost_child();
  }
}

// BulkLoadVar's leaves must equal, byte for byte and cut for cut, what the
// reference greedy and layout produce for the same records.
void ExpectLoadMatchesReference(const KvList& kvs, double fill,
                                uint32_t node_size = 512) {
  const TreeOptions topt = VarTreeOptions(node_size);
  ShermanSystem system(LoadFabric(), topt);
  system.BulkLoadVar(kvs, fill);
  system.DebugCheckInvariants();
  const std::vector<std::vector<RefEntry>> ref =
      RefGreedy(kvs, topt.shape, fill);

  const TreeShape& shape = system.options().shape;
  std::vector<uint8_t> want(shape.node_size);
  rdma::GlobalAddress addr = LeftmostLeaf(system);
  size_t l = 0;
  for (; !addr.is_null(); l++) {
    const NodeView got =
        NodeView::Reader(system.fabric().HostRaw(addr), &shape);
    ASSERT_LT(l, ref.size()) << "more leaves than the reference";
    const Key lo = l == 0 ? 0 : RoutingKeyFor(ref[l].front().key);
    const Key hi =
        l + 1 == ref.size() ? kMaxKey : RoutingKeyFor(ref[l + 1].front().key);
    NodeView w(want.data(), &shape);
    w.InitLeaf(lo, hi, got.sibling());
    RefWriteLeaf(&w, ref[l], RefPrefix(ref[l]));
    ASSERT_EQ(std::memcmp(got.data(), want.data(), shape.node_size), 0)
        << "leaf " << l << " of " << ref.size() << " differs";
    addr = got.sibling();
  }
  EXPECT_EQ(l, ref.size());
  EXPECT_EQ(system.DebugScanLeavesVar(), kvs);
}

void SortUnique(KvList* kvs) {
  std::sort(kvs->begin(), kvs->end());
  kvs->erase(std::unique(kvs->begin(), kvs->end(),
                         [](const auto& a, const auto& b) {
                           return a.first == b.first;
                         }),
             kvs->end());
}

// perfbench-style records: 16-40 byte hex keys, short values.
KvList StringKvs(uint64_t n) {
  KvList kvs;
  for (uint64_t r = 1; r <= n; r++) {
    std::string k = WorkloadGenerator::StringKeyFor(r, 16, 40);
    std::string v = "L" + k.substr(0, 7);
    kvs.emplace_back(std::move(k), std::move(v));
  }
  SortUnique(&kvs);
  return kvs;
}

// Routing-key groups (keys sharing the 8-byte head "g" + 7 digits) of 1 to
// `max_group` keys, each key the head + `stem` + an index, values of
// `vlen` bytes.
KvList GroupedKvs(uint32_t groups, uint32_t max_group, const std::string& stem,
                  uint32_t vlen) {
  KvList kvs;
  for (uint32_t g = 0; g < groups; g++) {
    char head[16];
    std::snprintf(head, sizeof(head), "g%07u", g * 7 + 1);
    const uint32_t size = 1 + (g * 5 + g / 3) % max_group;
    for (uint32_t k = 0; k < size; k++) {
      kvs.emplace_back(std::string(head) + stem + std::to_string(k),
                       std::string(vlen, static_cast<char>('a' + g % 26)));
    }
  }
  SortUnique(&kvs);
  return kvs;
}

TEST(VarBulkLoadTest, EmptyLoadIsOneEmptyLeaf) {
  ExpectLoadMatchesReference({}, 0.8);
}

TEST(VarBulkLoadTest, MatchesReferenceAcrossFills) {
  const KvList kvs = StringKvs(4000);
  for (double fill : {0.5, 0.8, 1.0}) {
    SCOPED_TRACE(fill);
    ExpectLoadMatchesReference(kvs, fill);
  }
}

TEST(VarBulkLoadTest, MatchesReferenceOnRoutingGroups) {
  // Groups of 1 to 9 keys; short stems keep several groups per leaf.
  for (double fill : {0.5, 0.8, 1.0}) {
    SCOPED_TRACE(fill);
    ExpectLoadMatchesReference(GroupedKvs(600, 9, "/", 12), fill);
  }
}

TEST(VarBulkLoadTest, MatchesReferenceOnLongSharedPrefixes) {
  // A 40-byte stem shared within each group: single-group leaves carry
  // page prefixes far past the 8-byte routing head.
  const std::string stem = "/" + std::string(39, 'p');
  for (double fill : {0.5, 0.8, 1.0}) {
    SCOPED_TRACE(fill);
    ExpectLoadMatchesReference(GroupedKvs(300, 6, stem, 8), fill, 1024);
  }
}

TEST(VarBulkLoadTest, MatchesReferenceAtInlineThreshold) {
  const uint32_t threshold = VarTreeOptions(1024).inline_threshold;
  for (double fill : {0.5, 1.0}) {
    SCOPED_TRACE(fill);
    ExpectLoadMatchesReference(GroupedKvs(300, 4, "#", threshold), fill,
                               1024);
  }
}

TEST(VarBulkLoadTest, GroupJustUnderTheByteBudget) {
  // One routing group sized to land 1 byte under the leaf budget, between
  // single-key neighbours: the packer must close the open leaf before it
  // and give it a leaf of its own.
  const TreeShape shape = VarTreeOptions(512).shape;
  const uint64_t budget = shape.var_usable_bytes();
  KvList kvs;
  kvs.emplace_back("a0000001", "left");
  std::vector<RefEntry> group;
  for (int k = 0; RefBytes(group, RefPrefix(group)) + 8 + 10 + 40 < budget;
       k++) {
    const std::string key =
        "b0000001" + std::string(k < 10 ? "0" : "") + std::to_string(k);
    group.push_back(RefEntry{key, std::string(40, 'v'), 40, false});
  }
  // Pad the last value so the group needs budget - 1 bytes.
  const uint64_t short_by = budget - 1 - RefBytes(group, RefPrefix(group));
  group.back().payload.append(short_by, 'w');
  ASSERT_LE(group.back().payload.size(), 64u);
  ASSERT_EQ(RefBytes(group, RefPrefix(group)), budget - 1);
  for (const RefEntry& e : group) kvs.emplace_back(e.key, e.payload);
  kvs.emplace_back("c0000001", "right");
  for (double fill : {0.5, 0.8, 1.0}) {
    SCOPED_TRACE(fill);
    ExpectLoadMatchesReference(kvs, fill);
  }
}

// A page with dead heap bytes, an out-of-line entry and a shared prefix.
void FillMixedPage(NodeView* v) {
  v->InitLeaf(0, kMaxKey, rdma::kNullAddress);
  for (int k = 0; k < 12; k++) {
    ASSERT_TRUE(VarInsertInline(v, "page/key-" + std::to_string(10 + k),
                                std::string(3 + k % 5, 'x')));
  }
  const uint64_t ptr = 0x0102030405060708ull;
  uint8_t payload[8];
  std::memcpy(payload, &ptr, 8);
  ASSERT_TRUE(v->VarInsert("page/key-15x", payload, 8, /*vlen=*/2000,
                           /*outline=*/true));
  v->VarRemoveAt(v->VarFind("page/key-13"));
  ASSERT_TRUE(VarInsertInline(v, "page/key-17", "updated-longer"));
  ASSERT_GT(v->dead_bytes(), 0u);
}

TEST(VarWriterTest, CompactRoundTripsThroughTheWriter) {
  const TreeShape s = VarShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  FillMixedPage(&v);
  const std::vector<RefEntry> before = RefEntries(v);
  auto want = buf;
  NodeView w(want.data(), &s);
  RefWriteLeaf(&w, before, v.prefix_len());
  v.VarCompact();
  EXPECT_EQ(v.dead_bytes(), 0u);
  EXPECT_EQ(buf, want);
  const std::vector<RefEntry> after = RefEntries(v);
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < after.size(); i++) {
    EXPECT_EQ(after[i].key, before[i].key);
    EXPECT_EQ(after[i].payload, before[i].payload);
    EXPECT_EQ(after[i].vlen, before[i].vlen);
    EXPECT_EQ(after[i].outline, before[i].outline);
  }
}

TEST(VarWriterTest, SplitHalvesRoundTripThroughTheWriter) {
  // The leaf split's use of the writer: spans read off a copy of the page,
  // each half rewritten under its own maximal prefix.
  const TreeShape s = VarShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  FillMixedPage(&v);
  const std::vector<RefEntry> all = RefEntries(v);
  std::vector<uint8_t> page = buf;
  std::vector<VarSpan> spans;
  AppendVarSpans(NodeView(page.data(), &s), &spans);
  ASSERT_EQ(spans.size(), all.size());
  for (size_t cut = 1; cut < spans.size(); cut++) {
    SCOPED_TRACE(cut);
    const std::span<const VarSpan> both(spans);
    auto lbuf = Buf(s), rbuf = Buf(s);
    NodeView left(lbuf.data(), &s), right(rbuf.data(), &s);
    left.InitLeaf(0, 500, rdma::kNullAddress);
    right.InitLeaf(500, kMaxKey, rdma::kNullAddress);
    ASSERT_TRUE(WriteVarLeaf(&left, both.first(cut),
                             VarKeyLcp(spans[0], spans[cut - 1])));
    ASSERT_TRUE(WriteVarLeaf(&right, both.subspan(cut),
                             VarKeyLcp(spans[cut], spans.back())));
    const std::vector<RefEntry> lo(all.begin(), all.begin() + cut);
    const std::vector<RefEntry> hi(all.begin() + cut, all.end());
    auto lwant = Buf(s), rwant = Buf(s);
    NodeView lw(lwant.data(), &s), rw(rwant.data(), &s);
    lw.InitLeaf(0, 500, rdma::kNullAddress);
    rw.InitLeaf(500, kMaxKey, rdma::kNullAddress);
    RefWriteLeaf(&lw, lo, RefPrefix(lo));
    RefWriteLeaf(&rw, hi, RefPrefix(hi));
    EXPECT_EQ(lbuf, lwant);
    EXPECT_EQ(rbuf, rwant);
    EXPECT_EQ(left.count() + right.count(), all.size());
  }
}

TEST(VarWriterTest, MergeRoundTripsThroughTheWriter) {
  const TreeShape s = VarShape();
  auto lbuf = Buf(s), rbuf = Buf(s);
  NodeView left(lbuf.data(), &s), right(rbuf.data(), &s);
  left.InitLeaf(0, 1000, rdma::kNullAddress);
  right.InitLeaf(1000, kMaxKey, rdma::kNullAddress);
  for (int k = 0; k < 6; k++) {
    ASSERT_TRUE(VarInsertInline(&left, "merge/left-" + std::to_string(k),
                                std::string(k, 'l')));
    ASSERT_TRUE(VarInsertInline(&right, "merge/right-" + std::to_string(k),
                                std::string(k + 1, 'r')));
  }
  left.VarRemoveAt(2);  // dead bytes in dst must not survive the merge
  std::vector<RefEntry> merged = RefEntries(left);
  for (const RefEntry& e : RefEntries(right)) merged.push_back(e);
  auto want = lbuf;
  NodeView w(want.data(), &s);
  RefWriteLeaf(&w, merged, RefPrefix(merged));
  ASSERT_TRUE(VarLeafFits(left, right));
  MoveVarLeafEntries(&left, right);
  EXPECT_EQ(lbuf, want);
  EXPECT_EQ(left.count(), merged.size());
  EXPECT_EQ(left.VarFullKey(left.count() - 1), "merge/right-5");
}

TEST(VarWriterTest, RejectsOverBudgetAndLeavesPageUnchanged) {
  const TreeShape s = VarShape(256);
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitLeaf(0, kMaxKey, rdma::kNullAddress);
  const std::string big(100, 'v');
  std::vector<VarSpan> spans;
  const std::string keys[] = {"k1", "k2", "k3"};
  for (const std::string& k : keys) {
    spans.push_back(VarSpan{Slice(), Slice(k), Slice(big), 100, false});
  }
  const auto before = buf;
  EXPECT_FALSE(WriteVarLeaf(&v, spans, 1));
  EXPECT_EQ(buf, before);
}

// --- ScanVar over a bulk-loaded tree ---

class VarScanTest : public ::testing::Test {
 protected:
  VarScanTest() : system_(LoadFabric(), VarTreeOptions(512)) {
    kvs_ = GroupedKvs(400, 5, "/item-", 6);
    system_.BulkLoadVar(kvs_, 0.8);
  }

  // ScanVar(from, count) must return the next `count` records >= from.
  void ExpectScan(const std::string& from, uint32_t count) {
    KvList want;
    auto it = std::lower_bound(
        kvs_.begin(), kvs_.end(), from,
        [](const auto& kv, const std::string& k) { return kv.first < k; });
    for (; it != kvs_.end() && want.size() < count; ++it) want.push_back(*it);
    KvList got;
    bool done = false;
    sim::Spawn([](TreeClient* c, const std::string* from, uint32_t count,
                  KvList* out, bool* flag) -> sim::Task<void> {
      Status st = co_await c->ScanVar(Slice(*from), count, out);
      EXPECT_TRUE(st.ok()) << st.ToString();
      *flag = true;
    }(&system_.client(0), &from, count, &got, &done));
    system_.simulator().Run();
    ASSERT_TRUE(done);
    EXPECT_EQ(got, want) << "scan from '" << from << "'";
  }

  ShermanSystem system_;
  KvList kvs_;
};

TEST_F(VarScanTest, StartBetweenTwoStoredKeys) {
  // "<head>/item-0" < "<head>/item-00" < "<head>/item-1".
  const std::string& k = kvs_[kvs_.size() / 2].first;
  const std::string head = k.substr(0, 8);
  ExpectScan(head + "/item-00", 7);
  ExpectScan(kvs_[10].first + "\x01", 3);
}

TEST_F(VarScanTest, StartSharesPartOfThePagePrefix) {
  // Find a leaf whose page prefix is at least 3 bytes and start scans that
  // agree with only the first bytes of it, sorting below and above the
  // whole page.
  const TreeShape& shape = system_.options().shape;
  rdma::GlobalAddress addr = LeftmostLeaf(system_);
  std::string prefix;
  while (!addr.is_null()) {
    const NodeView view =
        NodeView::Reader(system_.fabric().HostRaw(addr), &shape);
    addr = view.sibling();
    if (view.prefix_len() >= 3 && !addr.is_null()) {
      prefix = view.VarPrefix().ToString();
      break;
    }
  }
  ASSERT_GE(prefix.size(), 3u);
  std::string below = prefix.substr(0, prefix.size() - 1);
  below.push_back(static_cast<char>(prefix.back() - 1));
  below += "zzzz";
  std::string above = prefix.substr(0, prefix.size() - 1);
  above.push_back(static_cast<char>(prefix.back() + 1));
  ExpectScan(below, 12);
  ExpectScan(above, 12);
  ExpectScan(prefix.substr(0, 2), 5);
}

TEST_F(VarScanTest, ScanCrossesLeaves) {
  ASSERT_GT(system_.DebugCountLeaves(), 10u);
  ExpectScan(kvs_[3].first, 250);
  ExpectScan(kvs_[kvs_.size() - 40].first, 100);  // runs off the end
  ExpectScan("a", 1);
}

}  // namespace
}  // namespace sherman

#include "ext/hash_table.h"

#include <cstring>

#include "alloc/layout.h"
#include "util/logging.h"

namespace sherman::ext {

namespace {
// Stafford's Mix13 finalizer: key -> home bucket.
uint64_t MixKey(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}
}  // namespace

HoclHashTable::HoclHashTable(rdma::Fabric* fabric, HashTableOptions options)
    : fabric_(fabric), options_(options) {
  SHERMAN_CHECK(options_.num_buckets > 0);
  SHERMAN_CHECK(options_.slots_per_bucket > 0);
  SHERMAN_CHECK(options_.max_probe >= 1);
  // Place each MS's shard of the bucket array right after the GLT region.
  // A production system would allocate chunks; a flat shard keeps bucket
  // addressing O(1) and is how RACE-style tables lay out directories.
  const int num_ms = fabric->num_memory_servers();
  const uint64_t per_ms =
      (options_.num_buckets + num_ms - 1) / num_ms * options_.bucket_bytes();
  base_offsets_.resize(num_ms);
  for (int ms = 0; ms < num_ms; ms++) {
    SHERMAN_CHECK_MSG(kChunkAreaOffset + per_ms <=
                          fabric->ms(ms).host().size(),
                      "MS %d too small for hash table shard", ms);
    base_offsets_[ms] = kChunkAreaOffset;
    // Zero the shard (all slots empty).
    const rdma::GlobalAddress shard(static_cast<uint16_t>(ms),
                                    kChunkAreaOffset);
    // protocol-ok: table set-up, before any client posts a READ
    std::memset(fabric->HostMutable(shard, per_ms), 0, per_ms);
  }
}

uint64_t HoclHashTable::BucketFor(uint64_t key) const {
  return MixKey(key) % options_.num_buckets;
}

rdma::GlobalAddress HoclHashTable::BucketAddress(uint64_t index) const {
  const int num_ms = fabric_->num_memory_servers();
  const int ms = static_cast<int>(index % num_ms);
  const uint64_t slot = index / num_ms;
  return rdma::GlobalAddress(
      static_cast<uint16_t>(ms),
      base_offsets_[ms] + slot * options_.bucket_bytes());
}

uint64_t HoclHashTable::DebugCount() const {
  uint64_t count = 0;
  auto* self = const_cast<HoclHashTable*>(this);
  for (uint64_t b = 0; b < options_.num_buckets; b++) {
    const rdma::GlobalAddress addr = BucketAddress(b);
    const uint8_t* raw = self->fabric_->ms(addr.node).host().raw(addr.offset);
    for (uint32_t i = 0; i < options_.slots_per_bucket; i++) {
      uint64_t key;
      std::memcpy(&key, raw + i * options_.entry_size() + 1, 8);
      if (key != 0) count++;
    }
  }
  return count;
}

HashTableClient::HashTableClient(HoclHashTable* table, int cs_id)
    : table_(table),
      cs_id_(cs_id),
      hocl_(table->fabric(), cs_id, table->options().lock) {}

HashTableClient::Slot HashTableClient::DecodeSlot(const uint8_t* bucket,
                                                  uint32_t i) const {
  const uint32_t off = i * table_->options().entry_size();
  Slot s;
  s.fev = bucket[off] & 0xf;
  std::memcpy(&s.key, bucket + off + 1, 8);
  std::memcpy(&s.value, bucket + off + 9, 8);
  s.rev = bucket[off + 17] & 0xf;
  return s;
}

void HashTableClient::EncodeSlot(uint8_t* bucket, uint32_t i, uint64_t key,
                                 uint64_t value) {
  const uint32_t off = i * table_->options().entry_size();
  bucket[off] = (bucket[off] + 1) & 0xf;
  std::memcpy(bucket + off + 1, &key, 8);
  std::memcpy(bucket + off + 9, &value, 8);
  bucket[off + 17] = (bucket[off + 17] + 1) & 0xf;
}

sim::Task<Status> HashTableClient::ReadBucket(uint64_t index, uint8_t* buf,
                                              OpStats* stats) {
  const rdma::GlobalAddress addr = table_->BucketAddress(index);
  rdma::RdmaResult r =
      co_await table_->fabric()->qp(cs_id_, addr.node).Post(
          rdma::WorkRequest::Read(addr, buf, table_->options().bucket_bytes()));
  if (stats != nullptr) stats->round_trips++;
  co_return r.status;
}

sim::Task<Status> HashTableClient::Put(uint64_t key, uint64_t value,
                                       OpStats* stats) {
  SHERMAN_CHECK(key != 0);
  const HashTableOptions& o = table_->options();
  const uint64_t home = table_->BucketFor(key);
  std::vector<uint8_t> buf(o.bucket_bytes());

  for (uint32_t probe = 0; probe < o.max_probe; probe++) {
    const uint64_t index = (home + probe) % o.num_buckets;
    const rdma::GlobalAddress addr = table_->BucketAddress(index);

    // Lock the bucket, read it, modify the matching/empty slot, write back
    // the single entry combined with the lock release — the tree's write
    // path, transplanted.
    LockGuard guard = co_await hocl_.Lock(addr, stats);
    Status st = co_await ReadBucket(index, buf.data(), stats);
    SHERMAN_CHECK(st.ok());

    uint32_t target = UINT32_MAX;
    for (uint32_t i = 0; i < o.slots_per_bucket; i++) {
      const Slot s = DecodeSlot(buf.data(), i);
      if (s.key == key) {
        target = i;
        break;
      }
      if (s.key == 0 && target == UINT32_MAX) target = i;
    }
    if (target == UINT32_MAX) {
      // Bucket full: release and probe the next one.
      co_await hocl_.Unlock(guard, {}, o.combine_commands, stats);
      continue;
    }
    EncodeSlot(buf.data(), target, key, value);
    const uint32_t off = target * o.entry_size();
    if (stats != nullptr) stats->bytes_written += o.entry_size();
    std::vector<rdma::WorkRequest> wrs;
    wrs.push_back(rdma::WorkRequest::Write(addr.Plus(off), buf.data() + off,
                                           o.entry_size()));
    co_await hocl_.Unlock(guard, std::move(wrs), o.combine_commands, stats);
    co_return Status::OK();
  }
  co_return Status::OutOfMemory("probe window full");
}

sim::Task<Status> HashTableClient::Get(uint64_t key, uint64_t* value,
                                       OpStats* stats) {
  SHERMAN_CHECK(key != 0);
  const HashTableOptions& o = table_->options();
  const uint64_t home = table_->BucketFor(key);
  std::vector<uint8_t> buf(o.bucket_bytes());

  for (uint32_t probe = 0; probe < o.max_probe; probe++) {
    const uint64_t index = (home + probe) % o.num_buckets;
    for (int retry = 0; retry < 1024; retry++) {
      Status st = co_await ReadBucket(index, buf.data(), stats);
      if (!st.ok()) co_return st;
      bool torn = false;
      bool found_empty = false;
      for (uint32_t i = 0; i < o.slots_per_bucket; i++) {
        const Slot s = DecodeSlot(buf.data(), i);
        if (s.key == 0) {
          found_empty = true;
          continue;
        }
        if (s.key != key) continue;
        if (s.fev != s.rev) {
          torn = true;  // concurrent write: re-read the bucket
          break;
        }
        *value = s.value;
        co_return Status::OK();
      }
      if (torn) {
        if (stats != nullptr) stats->read_retries++;
        continue;
      }
      // Not in this bucket. An empty slot means no later probe can hold
      // the key (inserts fill the first free slot in the window).
      if (found_empty) co_return Status::NotFound();
      break;  // bucket full: key may have overflowed to the next
    }
  }
  co_return Status::NotFound();
}

sim::Task<Status> HashTableClient::Delete(uint64_t key, OpStats* stats) {
  SHERMAN_CHECK(key != 0);
  const HashTableOptions& o = table_->options();
  const uint64_t home = table_->BucketFor(key);
  std::vector<uint8_t> buf(o.bucket_bytes());

  for (uint32_t probe = 0; probe < o.max_probe; probe++) {
    const uint64_t index = (home + probe) % o.num_buckets;
    const rdma::GlobalAddress addr = table_->BucketAddress(index);
    LockGuard guard = co_await hocl_.Lock(addr, stats);
    Status st = co_await ReadBucket(index, buf.data(), stats);
    SHERMAN_CHECK(st.ok());

    for (uint32_t i = 0; i < o.slots_per_bucket; i++) {
      const Slot s = DecodeSlot(buf.data(), i);
      if (s.key != key) continue;
      EncodeSlot(buf.data(), i, 0, 0);
      const uint32_t off = i * o.entry_size();
      if (stats != nullptr) stats->bytes_written += o.entry_size();
      std::vector<rdma::WorkRequest> wrs;
      wrs.push_back(rdma::WorkRequest::Write(addr.Plus(off), buf.data() + off,
                                             o.entry_size()));
      co_await hocl_.Unlock(guard, std::move(wrs), o.combine_commands, stats);
      co_return Status::OK();
    }
    co_await hocl_.Unlock(guard, {}, o.combine_commands, stats);
  }
  co_return Status::NotFound();
}

}  // namespace sherman::ext

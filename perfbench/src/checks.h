// Output checks of the repository benchmark.
//
// The oracle remembers what the benchmark itself sent: every (key,
// value) pair a put sent, how many puts to a key completed, and how many
// deletes were sent. Keys and values are reduced to 64-bit ids (the u64
// key/value of a fixed-layout tree, a hash of the bytes of a varlen one).
//
// A GET or scan result is valid when the value is the key's bulk-load
// value or one the benchmark sent to that key. A GET may answer NotFound
// only for a key that may legitimately be absent: not bulk-loaded and not
// yet put, or one a delete was sent for.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/slice.h"

namespace perfbench {

// A 64-bit hash of the bytes: the id of a varlen key or value.
uint64_t BytesId(const sherman::Slice& s);

class Oracle {
 public:
  // Records a put of value `value_id` to `key_id` as it is sent. Returns
  // true when this is the first put ever sent to a key that was not
  // bulk-loaded (a fresh insert).
  bool RecordPut(uint64_t key_id, uint64_t value_id, bool loaded);
  void RecordPutDone(uint64_t key_id);
  void RecordDelete(uint64_t key_id);

  // True when `value_id` may be read for `key_id`: it is the bulk-load
  // value of a loaded key or a value some put sent to this key.
  bool ValidValue(uint64_t key_id, bool loaded, uint64_t load_value_id,
                  uint64_t value_id) const;

  // True when the key must be present: it was bulk-loaded or a put to it
  // completed, and no delete was ever sent for it. A GET that answers
  // NotFound is wrong when this held both when it started and when it
  // ended.
  bool MustExist(uint64_t key_id, bool loaded) const;

 private:
  struct KeyState {
    uint32_t puts_sent = 0;
    uint32_t puts_done = 0;
    uint32_t deletes_sent = 0;
  };
  std::unordered_map<uint64_t, KeyState> keys_;
  std::unordered_set<uint64_t> sent_;  // PairId(key_id, value_id)
};

// Checks one scan answer: at most `count` pairs, keys strictly ascending
// and >= `from`, every pair accepted by `valid(key, value)`. Returns the
// number of violations (0 = the scan is correct).
template <typename K, typename V, typename ValidFn>
uint64_t CheckScan(const K& from, uint32_t count,
                   const std::vector<std::pair<K, V>>& out, ValidFn valid) {
  uint64_t bad = out.size() > count ? 1 : 0;
  for (size_t i = 0; i < out.size(); i++) {
    const K& k = out[i].first;
    if (k < from || (i > 0 && !(out[i - 1].first < k))) bad++;
    if (!valid(k, out[i].second)) bad++;
  }
  return bad;
}

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_

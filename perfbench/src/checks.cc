#include "checks.h"

#include <functional>
#include <string_view>

#include "util/random.h"

namespace perfbench {

namespace {

uint64_t PairId(uint64_t key_id, uint64_t value_id) {
  return sherman::SplitMix64(key_id ^ sherman::SplitMix64(value_id));
}

}  // namespace

uint64_t BytesId(const sherman::Slice& s) {
  return std::hash<std::string_view>()(std::string_view(s.data(), s.size()));
}

bool Oracle::RecordPut(uint64_t key_id, uint64_t value_id, bool loaded) {
  sent_.insert(PairId(key_id, value_id));
  KeyState& k = keys_[key_id];
  return !loaded && k.puts_sent++ == 0;
}

void Oracle::RecordPutDone(uint64_t key_id) { keys_[key_id].puts_done++; }

void Oracle::RecordDelete(uint64_t key_id) {
  keys_[key_id].deletes_sent++;
}

bool Oracle::ValidValue(uint64_t key_id, bool loaded, uint64_t load_value_id,
                        uint64_t value_id) const {
  if (loaded && value_id == load_value_id) return true;
  return sent_.count(PairId(key_id, value_id)) != 0;
}

bool Oracle::MustExist(uint64_t key_id, bool loaded) const {
  auto it = keys_.find(key_id);
  if (it == keys_.end()) return loaded;
  return (loaded || it->second.puts_done > 0) &&
         it->second.deletes_sent == 0;
}

}  // namespace perfbench

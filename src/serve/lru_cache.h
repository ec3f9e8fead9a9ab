// Size-aware LRU map for the serving engine's exact-result memo.
//
// The InferenceEngine memoizes only exact full-query values, so eviction
// is always safe: a dropped entry recomputes to the bit-identical value
// through the deterministic sampler. That lets the cache bound MEMORY, not
// correctness — entries are charged by their key bytes plus a fixed
// per-entry overhead, and the least-recently-used entries are evicted as
// soon as a byte budget is exceeded.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <string>
#include <string_view>
#include <unordered_map>

namespace naru {

/// An LRU-evicting map from canonical cache-key bytes to exact results,
/// charged by size in bytes rather than entry count.
///
/// Not internally synchronized: the serving engine guards each instance
/// with its cache mutex. Keys are stored once (the index is a
/// `string_view` into the entry's own storage).
class LruResultCache {
 public:
  /// Approximate fixed cost per entry beyond the key bytes: list node,
  /// hash-table slot and bookkeeping. Deliberately conservative so the
  /// configured budget bounds true memory from above, not below.
  static constexpr size_t kEntryOverheadBytes = 96;

  /// Bytes charged for an entry with this key.
  static size_t EntryBytes(std::string_view key) {
    return key.size() + kEntryOverheadBytes;
  }

  /// Looks `key` up; on a hit stores the value in *value, marks the entry
  /// most-recently-used, and returns true.
  bool Lookup(std::string_view key, double* value);

  /// Inserts (or refreshes) `key -> value` as the most-recently-used
  /// entry, then evicts least-recently-used entries until total charged
  /// bytes fit `budget_bytes`. Returns how many entries were evicted.
  /// A single entry larger than the whole budget is evicted immediately
  /// (the budget is honored unconditionally).
  size_t Insert(std::string_view key, double value, size_t budget_bytes);

  size_t entries() const { return map_.size(); }
  size_t bytes() const { return bytes_; }
  /// Cumulative evictions since construction / Clear().
  uint64_t evictions() const { return evictions_; }

  void Clear();

 private:
  struct Entry {
    std::string key;
    double value;
  };
  /// Front = most recently used. std::list keeps entries (and therefore
  /// the string_view keys of map_) stable across splices and erasures.
  std::list<Entry> order_;
  std::unordered_map<std::string_view, std::list<Entry>::iterator> map_;
  size_t bytes_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace naru

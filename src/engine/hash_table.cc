#include "engine/hash_table.h"

namespace pdw {

namespace {

/// Smallest power of two >= max(16, 2 * n): load factor stays <= 0.5.
uint64_t SlotCountFor(size_t n) {
  uint64_t cap = 16;
  while (cap < 2 * static_cast<uint64_t>(n)) cap <<= 1;
  return cap;
}

}  // namespace

uint64_t HashKeyColumns(const std::vector<const ColumnVector*>& keys,
                        size_t row) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const ColumnVector* col : keys) {
    uint64_t x = col->HashAt(row);
    h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

bool KeyColumnsEqual(const std::vector<const ColumnVector*>& a, size_t arow,
                     const std::vector<const ColumnVector*>& b, size_t brow) {
  for (size_t c = 0; c < a.size(); ++c) {
    if (CompareAt(*a[c], arow, *b[c], brow) != 0) return false;
  }
  return true;
}

GroupTable::GroupTable(std::vector<TypeId> key_types) {
  key_cols_.reserve(key_types.size());
  for (TypeId t : key_types) key_cols_.emplace_back(t);
  key_view_.reserve(key_cols_.size());
  for (const ColumnVector& c : key_cols_) key_view_.push_back(&c);
  mask_ = 16 - 1;
  slots_.assign(16, -1);
}

void GroupTable::Grow() {
  uint64_t cap = (mask_ + 1) * 2;
  slots_.assign(cap, -1);
  mask_ = cap - 1;
  for (size_t g = 0; g < group_hashes_.size(); ++g) {
    uint64_t slot = group_hashes_[g] & mask_;
    while (slots_[slot] != -1) slot = (slot + 1) & mask_;
    slots_[slot] = static_cast<int32_t>(g);
  }
}

size_t GroupTable::FindOrInsert(const std::vector<const ColumnVector*>& keys,
                                size_t row) {
  uint64_t h = HashKeyColumns(keys, row);
  uint64_t slot = h & mask_;
  while (slots_[slot] != -1) {
    size_t g = static_cast<size_t>(slots_[slot]);
    if (group_hashes_[g] == h && KeyColumnsEqual(key_view_, g, keys, row)) {
      return g;
    }
    slot = (slot + 1) & mask_;
  }
  size_t g = group_hashes_.size();
  for (size_t c = 0; c < key_cols_.size(); ++c) {
    key_cols_[c].AppendFrom(*keys[c], row);
  }
  group_hashes_.push_back(h);
  slots_[slot] = static_cast<int32_t>(g);
  if (2 * group_hashes_.size() > mask_ + 1) Grow();
  return g;
}

int64_t GroupTable::Find(const std::vector<const ColumnVector*>& keys,
                         size_t row) const {
  uint64_t h = HashKeyColumns(keys, row);
  uint64_t slot = h & mask_;
  while (slots_[slot] != -1) {
    size_t g = static_cast<size_t>(slots_[slot]);
    if (group_hashes_[g] == h && KeyColumnsEqual(key_view_, g, keys, row)) {
      return static_cast<int64_t>(g);
    }
    slot = (slot + 1) & mask_;
  }
  return -1;
}

void JoinHashTable::Build(std::vector<ColumnVector> keys) {
  key_cols_ = std::move(keys);
  key_view_.clear();
  key_view_.reserve(key_cols_.size());
  for (const ColumnVector& c : key_cols_) key_view_.push_back(&c);

  size_t n = key_cols_.empty() ? 0 : key_cols_[0].size();
  uint64_t cap = SlotCountFor(n);
  mask_ = cap - 1;
  heads_.assign(cap, -1);
  slot_hashes_.assign(cap, 0);
  next_.assign(n, -1);
  row_hashes_.assign(n, 0);

  for (size_t r = 0; r < n; ++r) {
    bool has_null = false;
    for (const ColumnVector* c : key_view_) {
      if (c->IsNull(r)) {
        has_null = true;
        break;
      }
    }
    if (has_null) continue;  // NULL keys never match any probe.
    uint64_t h = HashKeyColumns(key_view_, r);
    row_hashes_[r] = h;
    uint64_t slot = h & mask_;
    while (heads_[slot] != -1) {
      size_t head = static_cast<size_t>(heads_[slot]);
      if (slot_hashes_[slot] == h &&
          KeyColumnsEqual(key_view_, head, key_view_, r)) {
        break;  // same key: prepend to this chain
      }
      slot = (slot + 1) & mask_;
    }
    next_[r] = heads_[slot];
    heads_[slot] = static_cast<int32_t>(r);
    slot_hashes_[slot] = h;
  }
}

int32_t JoinHashTable::FindFirst(
    const std::vector<const ColumnVector*>& probe_keys,
    size_t probe_row) const {
  if (key_cols_.empty() || heads_.empty()) return -1;
  uint64_t h = HashKeyColumns(probe_keys, probe_row);
  uint64_t slot = h & mask_;
  while (heads_[slot] != -1) {
    size_t head = static_cast<size_t>(heads_[slot]);
    if (slot_hashes_[slot] == h &&
        KeyColumnsEqual(key_view_, head, probe_keys, probe_row)) {
      return heads_[slot];
    }
    slot = (slot + 1) & mask_;
  }
  return -1;
}

}  // namespace pdw

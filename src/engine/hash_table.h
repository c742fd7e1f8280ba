#ifndef PDW_ENGINE_HASH_TABLE_H_
#define PDW_ENGINE_HASH_TABLE_H_

#include <cstdint>
#include <vector>

#include "engine/batch.h"

namespace pdw {

/// Hash of the key tuple formed by `keys[*][row]`, combined exactly like
/// HashRowColumns so batch-side hashing agrees with every Datum-level
/// consumer (per-column hashes already mirror Datum::Hash).
uint64_t HashKeyColumns(const std::vector<const ColumnVector*>& keys,
                        size_t row);

/// True when the two key tuples are equal under Datum::Compare semantics
/// (NULLs equal each other — the grouping rule; join probes must reject
/// NULL keys before calling this).
bool KeyColumnsEqual(const std::vector<const ColumnVector*>& a, size_t arow,
                     const std::vector<const ColumnVector*>& b, size_t brow);

/// Flat open-addressing map from a key tuple to a dense group index in
/// first-seen order — the spine of hash aggregation and DISTINCT. Keys are
/// copied into per-table key columns on first sight, so group finalization
/// reads them back without touching the input. Power-of-two capacity,
/// linear probing, cached full hashes, load factor <= 0.5.
class GroupTable {
 public:
  explicit GroupTable(std::vector<TypeId> key_types);

  /// Group index of the key at `row` of `keys`, inserting a new group on
  /// first sight. NULL keys are valid and group together.
  size_t FindOrInsert(const std::vector<const ColumnVector*>& keys,
                      size_t row);

  /// Group index or -1 when the key was never inserted.
  int64_t Find(const std::vector<const ColumnVector*>& keys,
               size_t row) const;

  size_t num_groups() const { return group_hashes_.size(); }

  /// Key columns, dense in group-index (first-seen) order.
  const std::vector<ColumnVector>& group_keys() const { return key_cols_; }

 private:
  void Grow();

  std::vector<ColumnVector> key_cols_;
  /// Pointer view over key_cols_ (stable: the outer vector never grows).
  std::vector<const ColumnVector*> key_view_;
  std::vector<uint64_t> group_hashes_;  ///< Cached hash per group.
  std::vector<int32_t> slots_;          ///< Group index per slot; -1 empty.
  uint64_t mask_ = 0;
};

/// Flat open-addressing multimap from a key tuple to the build rows that
/// carry it: each slot heads a chain through `next` over equal-key rows.
/// Built once from dense, precomputed key columns; probes walk the chain.
/// Build rows with any NULL key are never inserted (SQL equality cannot
/// match them), and probes with NULL keys must not be issued.
class JoinHashTable {
 public:
  /// Indexes build rows [0, n) where n is the length of `keys`, which the
  /// table keeps as its key columns (sharing the build side's payloads).
  void Build(std::vector<ColumnVector> keys);

  /// First build row whose key equals the probe key, or -1. Later matches
  /// follow via Next (chains run newest-to-oldest build row).
  int32_t FindFirst(const std::vector<const ColumnVector*>& probe_keys,
                    size_t probe_row) const;

  int32_t Next(int32_t build_row) const {
    return next_[static_cast<size_t>(build_row)];
  }

  const std::vector<ColumnVector>& keys() const { return key_cols_; }

 private:
  std::vector<ColumnVector> key_cols_;
  std::vector<const ColumnVector*> key_view_;
  std::vector<uint64_t> row_hashes_;  ///< Hash per build row (0 if skipped).
  std::vector<uint64_t> slot_hashes_;
  std::vector<int32_t> heads_;  ///< Chain head per slot; -1 empty.
  std::vector<int32_t> next_;   ///< Chain link per build row.
  uint64_t mask_ = 0;
};

}  // namespace pdw

#endif  // PDW_ENGINE_HASH_TABLE_H_

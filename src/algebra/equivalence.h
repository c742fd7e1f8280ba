#ifndef PDW_ALGEBRA_EQUIVALENCE_H_
#define PDW_ALGEBRA_EQUIVALENCE_H_

#include <map>
#include <set>
#include <vector>

#include "algebra/column.h"

namespace pdw {

/// Union-find over ColumnIds, built from equi-join predicates. Used for
/// join-transitivity closure in the normalizer and for distribution
/// compatibility in the PDW optimizer (a stream hash-distributed on
/// o_custkey satisfies a requirement on c_custkey once the join predicate
/// equates them — paper §3.2).
class ColumnEquivalence {
 public:
  /// Records a = b.
  void AddEquality(ColumnId a, ColumnId b);

  /// Representative id of the class containing `id` (id itself if never
  /// seen). Representatives are stable within one instance.
  ColumnId Find(ColumnId id) const;

  bool AreEquivalent(ColumnId a, ColumnId b) const;

  /// All members of the class containing `id` (including `id`).
  std::set<ColumnId> ClassOf(ColumnId id) const;

  /// All equivalence classes with at least two members.
  std::vector<std::set<ColumnId>> NonTrivialClasses() const;

 private:
  /// Read-only root walk: const lookups never mutate, so a built
  /// equivalence can be read from any thread. AddEquality (the build
  /// phase) compresses instead.
  ColumnId FindRoot(ColumnId id) const;
  /// Root walk with path compression, for use during construction only.
  ColumnId FindRootCompress(ColumnId id);

  std::map<ColumnId, ColumnId> parent_;
};

}  // namespace pdw

#endif  // PDW_ALGEBRA_EQUIVALENCE_H_

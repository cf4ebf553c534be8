#ifndef KOJAK_DB_SQL_PLAN_HPP
#define KOJAK_DB_SQL_PLAN_HPP

#include <cstddef>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "db/sql/ast.hpp"
#include "db/sql/expr_vm.hpp"
#include "db/value.hpp"

namespace kojak::db::sql {

/// Hot-plan annotation behind `SelectStmt::fused_group_plan`: the
/// structural analysis of an aggregate over one columnar table — `GROUP BY
/// <scalar exprs>`, or a global aggregate as the zero-key case (the
/// dominant whole-condition shape: the per-partition `part<K>` CTE body the
/// partition-union rewrite emits). Built once per statement by the
/// executor, reused by every later execution of the same statement
/// (prepared statements, plan-cache hits, monitor re-evaluation);
/// everything value-dependent — partition pruning, parameter and subquery
/// constants — is re-derived per execution. Expression pointers reference
/// the owning statement's AST, so the annotation must never outlive or
/// migrate off its statement — `SelectStmt::clone()` carries it by
/// remapping every pointer onto the cloned expression tree (see remap_onto
/// below).
struct FusedGroupPlan {
  std::string table;                    // base table the statement scans
  std::vector<ValueType> column_types;  // schema snapshot, validated on reuse

  /// Whole-WHERE program (null without WHERE): its boolean output lanes AND
  /// into the selection bitmap with NULL-as-false semantics.
  std::shared_ptr<const ExprProgram> where_program;

  /// GROUP BY key programs in GROUP BY order; empty for a global aggregate.
  std::vector<std::shared_ptr<const ExprProgram>> group_keys;

  /// Output-side nodes (in items / HAVING / ORDER BY) equal to a group key:
  /// evaluated as that key's per-group value via EvalCtx pinning.
  std::vector<std::pair<const Expr*, std::size_t>> key_refs;

  /// One aggregate call: its argument program's output lanes feed the
  /// kernels (program == nullptr for COUNT(*)). Collected in
  /// run_aggregation's order (items, HAVING, ORDER BY) so finalized values
  /// map back onto the same Expr nodes.
  struct Aggregate {
    const Expr* expr = nullptr;
    std::shared_ptr<const ExprProgram> program;
  };
  std::vector<Aggregate> aggregates;
};

/// Re-targets a plan's expression pointers through `map`. Returns nullptr if
/// any pointer is missing from the map — a carried plan must never dangle, so
/// an incomplete map silently degrades to "re-analyze on first execution".
[[nodiscard]] std::shared_ptr<const FusedGroupPlan> remap_onto(
    const FusedGroupPlan& plan, const ExprRemap& map);

}  // namespace kojak::db::sql

#endif  // KOJAK_DB_SQL_PLAN_HPP

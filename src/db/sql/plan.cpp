#include "db/sql/plan.hpp"

namespace kojak::db::sql {

namespace {

/// nullptr-preserving program carry: compiled programs hold `const Expr*`
/// runtime-constant slots (params, scalar subqueries) that must follow the
/// clone exactly like the plan's own pointers.
bool remap_program(std::shared_ptr<const ExprProgram>& program,
                   const ExprRemap& map) {
  if (program == nullptr) return true;
  program = program->remapped(map);
  return program != nullptr;
}

/// Pointer translation; false on a miss so the caller can abandon the whole
/// carry instead of shipping a dangling plan.
bool translate(const Expr*& expr, const ExprRemap& map) {
  const auto it = map.find(expr);
  if (it == map.end()) return false;
  expr = it->second;
  return true;
}

}  // namespace

std::shared_ptr<const FusedGroupPlan> remap_onto(const FusedGroupPlan& plan,
                                                 const ExprRemap& map) {
  auto out = std::make_shared<FusedGroupPlan>(plan);
  if (!remap_program(out->where_program, map)) return nullptr;
  for (auto& key : out->group_keys) {
    if (!remap_program(key, map)) return nullptr;
  }
  for (auto& [node, index] : out->key_refs) {
    if (!translate(node, map)) return nullptr;
  }
  for (auto& a : out->aggregates) {
    if (!translate(a.expr, map) || !remap_program(a.program, map)) {
      return nullptr;
    }
  }
  return out;
}

}  // namespace kojak::db::sql

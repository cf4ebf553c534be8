#include "db/sql/ast.hpp"

#include "db/sql/plan.hpp"
#include "support/str.hpp"

namespace kojak::db::sql {

std::string_view to_string(BinOp op) {
  switch (op) {
    case BinOp::kEq: return "=";
    case BinOp::kNe: return "<>";
    case BinOp::kLt: return "<";
    case BinOp::kLe: return "<=";
    case BinOp::kGt: return ">";
    case BinOp::kGe: return ">=";
    case BinOp::kAdd: return "+";
    case BinOp::kSub: return "-";
    case BinOp::kMul: return "*";
    case BinOp::kDiv: return "/";
    case BinOp::kMod: return "%";
    case BinOp::kAnd: return "AND";
    case BinOp::kOr: return "OR";
  }
  return "?";
}

namespace {

ExprPtr make_node(Expr::Kind kind) {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  return e;
}

}  // namespace

ExprPtr make_literal(Value value) {
  ExprPtr e = make_node(Expr::Kind::kLiteral);
  e->literal = std::move(value);
  return e;
}

ExprPtr make_column(std::string table, std::string column) {
  ExprPtr e = make_node(Expr::Kind::kColumnRef);
  e->table = std::move(table);
  e->column = std::move(column);
  return e;
}

ExprPtr make_param(std::size_t index) {
  ExprPtr e = make_node(Expr::Kind::kParam);
  e->param_index = index;
  return e;
}

ExprPtr make_unary(UnOp op, ExprPtr operand) {
  ExprPtr e = make_node(Expr::Kind::kUnary);
  e->un_op = op;
  e->lhs = std::move(operand);
  return e;
}

ExprPtr make_binary(BinOp op, ExprPtr lhs, ExprPtr rhs) {
  ExprPtr e = make_node(Expr::Kind::kBinary);
  e->bin_op = op;
  e->lhs = std::move(lhs);
  e->rhs = std::move(rhs);
  return e;
}

ExprPtr make_is_null(ExprPtr operand, bool negated) {
  ExprPtr e = make_node(Expr::Kind::kIsNull);
  e->lhs = std::move(operand);
  e->negated = negated;
  return e;
}

ExprPtr make_subquery(std::unique_ptr<SelectStmt> select) {
  ExprPtr e = make_node(Expr::Kind::kSubquery);
  e->subquery = std::move(select);
  return e;
}

namespace {

// The clone walk records every (source node → copy) pair in `remap` (when
// given) so plan annotations — which hold `const Expr*` into the source
// tree — can be carried onto the copy (or back-propagated through the
// inverted map).

std::unique_ptr<SelectStmt> clone_select(const SelectStmt& s, ExprRemap* remap);

ExprPtr clone_expr(const Expr& e, ExprRemap* remap) {
  auto out = std::make_unique<Expr>();
  out->kind = e.kind;
  out->literal = e.literal;
  out->table = e.table;
  out->column = e.column;
  out->resolved_slot = e.resolved_slot;
  out->param_index = e.param_index;
  out->un_op = e.un_op;
  out->bin_op = e.bin_op;
  if (e.lhs) out->lhs = clone_expr(*e.lhs, remap);
  if (e.rhs) out->rhs = clone_expr(*e.rhs, remap);
  out->func = e.func;
  for (const auto& a : e.args) out->args.push_back(clone_expr(*a, remap));
  out->star_arg = e.star_arg;
  out->distinct_arg = e.distinct_arg;
  out->negated = e.negated;
  if (e.subquery) out->subquery = clone_select(*e.subquery, remap);
  out->alias_index = e.alias_index;
  if (remap != nullptr) (*remap)[&e] = out.get();
  return out;
}

std::unique_ptr<SelectStmt> clone_select(const SelectStmt& s,
                                         ExprRemap* remap) {
  // A hot-plan annotation is carried through the node map of its subtree.
  ExprRemap local;
  if (remap == nullptr && s.fused_group_plan) remap = &local;
  auto out = std::make_unique<SelectStmt>();
  for (const auto& cte : s.ctes) {
    out->ctes.push_back({cte.name, clone_select(*cte.select, remap), cte.loc});
  }
  out->distinct = s.distinct;
  for (const auto& item : s.items) {
    SelectItem copy;
    if (item.expr) copy.expr = clone_expr(*item.expr, remap);
    copy.alias = item.alias;
    copy.star = item.star;
    copy.star_table = item.star_table;
    out->items.push_back(std::move(copy));
  }
  out->from = s.from;
  for (const auto& join : s.joins) {
    Join copy;
    copy.table = join.table;
    if (join.on) copy.on = clone_expr(*join.on, remap);
    out->joins.push_back(std::move(copy));
  }
  if (s.where) out->where = clone_expr(*s.where, remap);
  for (const auto& g : s.group_by)
    out->group_by.push_back(clone_expr(*g, remap));
  if (s.having) out->having = clone_expr(*s.having, remap);
  for (const auto& k : s.order_by) {
    out->order_by.push_back({clone_expr(*k.expr, remap), k.descending});
  }
  out->limit = s.limit;
  out->offset = s.offset;
  // Carry the hot-plan annotation: re-target its expression pointers onto
  // the freshly cloned tree. remap_onto degrades to nullptr (re-analyze) if
  // a pointer is not covered; a negative verdict is pointer-free and always
  // carries.
  if (s.fused_group_plan) {
    out->fused_group_plan = remap_onto(*s.fused_group_plan, *remap);
  }
  out->fused_rejected = s.fused_rejected;
  return out;
}

}  // namespace

ExprPtr Expr::clone() const { return clone_expr(*this, nullptr); }

namespace {

void walk_refs(const SelectStmt& s,
               const std::function<void(const TableRef&)>& fn);

void walk_refs(const Expr& e, const std::function<void(const TableRef&)>& fn) {
  if (e.subquery) walk_refs(*e.subquery, fn);
  if (e.lhs) walk_refs(*e.lhs, fn);
  if (e.rhs) walk_refs(*e.rhs, fn);
  for (const auto& arg : e.args) walk_refs(*arg, fn);
}

void walk_refs(const SelectStmt& s,
               const std::function<void(const TableRef&)>& fn) {
  if (s.from) fn(*s.from);
  for (const Join& join : s.joins) {
    fn(join.table);
    if (join.on) walk_refs(*join.on, fn);
  }
  for (const auto& item : s.items) {
    if (item.expr) walk_refs(*item.expr, fn);
  }
  if (s.where) walk_refs(*s.where, fn);
  for (const auto& g : s.group_by) walk_refs(*g, fn);
  if (s.having) walk_refs(*s.having, fn);
  for (const auto& key : s.order_by) walk_refs(*key.expr, fn);
}

}  // namespace

void for_each_table_ref(const SelectStmt& stmt,
                        const std::function<void(const TableRef&)>& fn) {
  walk_refs(stmt, fn);
}

std::unique_ptr<SelectStmt> SelectStmt::clone() const {
  return clone_select(*this, nullptr);
}

std::unique_ptr<SelectStmt> SelectStmt::clone(
    std::unordered_map<const Expr*, const Expr*>* remap) const {
  return clone_select(*this, remap);
}

std::string Expr::to_string() const {
  using support::cat;
  switch (kind) {
    case Kind::kLiteral:
      return literal.to_display();
    case Kind::kColumnRef:
      return table.empty() ? column : cat(table, ".", column);
    case Kind::kParam:
      return "?";
    case Kind::kUnary:
      return cat(un_op == UnOp::kNeg ? "-" : "NOT ", lhs ? lhs->to_string() : "");
    case Kind::kBinary:
      return cat("(", lhs ? lhs->to_string() : "", " ", sql::to_string(bin_op),
                 " ", rhs ? rhs->to_string() : "", ")");
    case Kind::kFuncCall: {
      std::string out = func;
      out += '(';
      if (star_arg) {
        out += '*';
      } else {
        if (distinct_arg) out += "DISTINCT ";
        for (std::size_t i = 0; i < args.size(); ++i) {
          if (i > 0) out += ", ";
          out += args[i]->to_string();
        }
      }
      out += ')';
      return out;
    }
    case Kind::kIsNull:
      return cat(lhs ? lhs->to_string() : "", negated ? " IS NOT NULL" : " IS NULL");
    case Kind::kInList: {
      std::string out = lhs ? lhs->to_string() : "";
      out += negated ? " NOT IN (" : " IN (";
      for (std::size_t i = 0; i < args.size(); ++i) {
        if (i > 0) out += ", ";
        out += args[i]->to_string();
      }
      out += ')';
      return out;
    }
    case Kind::kLike:
      return cat(lhs ? lhs->to_string() : "", negated ? " NOT LIKE " : " LIKE ",
                 rhs ? rhs->to_string() : "");
    case Kind::kSubquery:
      return "(SELECT ...)";
    case Kind::kAliasRef:
      return cat("@", alias_index);
  }
  return "?";
}

}  // namespace kojak::db::sql

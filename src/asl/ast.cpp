#include "asl/ast.hpp"

namespace kojak::asl::ast {

std::string_view to_string(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return "+";
    case BinOp::kSub: return "-";
    case BinOp::kMul: return "*";
    case BinOp::kDiv: return "/";
    case BinOp::kEq: return "==";
    case BinOp::kNe: return "!=";
    case BinOp::kLt: return "<";
    case BinOp::kLe: return "<=";
    case BinOp::kGt: return ">";
    case BinOp::kGe: return ">=";
    case BinOp::kAnd: return "AND";
    case BinOp::kOr: return "OR";
  }
  return "?";
}

std::string_view to_string(AggKind kind) {
  switch (kind) {
    case AggKind::kMin: return "MIN";
    case AggKind::kMax: return "MAX";
    case AggKind::kSum: return "SUM";
    case AggKind::kAvg: return "AVG";
    case AggKind::kCount: return "COUNT";
  }
  return "?";
}

ExprPtr make_expr(Expr::Kind kind, support::SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->loc = loc;
  return e;
}

ExprPtr Expr::clone() const {
  auto out = std::make_unique<Expr>();
  out->kind = kind;
  out->loc = loc;
  out->int_value = int_value;
  out->float_value = float_value;
  out->bool_value = bool_value;
  out->string_value = string_value;
  out->name = name;
  if (base) out->base = base->clone();
  if (lhs) out->lhs = lhs->clone();
  if (rhs) out->rhs = rhs->clone();
  for (const auto& a : args) out->args.push_back(a->clone());
  out->un_op = un_op;
  out->bin_op = bin_op;
  out->agg_kind = agg_kind;
  if (agg_value) out->agg_value = agg_value->clone();
  if (filter) out->filter = filter->clone();
  out->type = type;
  return out;
}

}  // namespace kojak::asl::ast

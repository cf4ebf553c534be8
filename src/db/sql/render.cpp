#include "db/sql/render.hpp"

#include <cmath>
#include <cstdio>
#include <string_view>

#include "support/str.hpp"

namespace kojak::db::sql {

// Placeholders are emitted as `?` and the original (absolute) param_index
// of each is recorded in emission order — a re-parse numbers placeholders
// sequentially in exactly that order.

namespace {

bool render_select(const sql::SelectStmt& s, std::string& out,
                   std::vector<std::size_t>& params);

bool render_literal(const Value& v, std::string& out) {
  switch (v.type()) {
    case ValueType::kNull:
      out += "NULL";
      return true;
    case ValueType::kBool:
      out += v.as_bool() ? "TRUE" : "FALSE";
      return true;
    case ValueType::kInt:
      out += std::to_string(v.as_int());
      return true;
    case ValueType::kDouble: {
      const double d = v.as_double();
      if (!std::isfinite(d)) return false;
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", d);
      out += buf;
      // Force a float re-parse: "0" alone would come back as an integer
      // literal and change arithmetic typing downstream.
      if (std::string_view(buf).find_first_of(".eE") ==
          std::string_view::npos) {
        out += ".0";
      }
      return true;
    }
    case ValueType::kString:
      out += '\'';
      for (const char c : v.as_string()) {
        out += c;
        if (c == '\'') out += '\'';
      }
      out += '\'';
      return true;
    case ValueType::kDateTime:
      out += support::cat("DATETIME '", format_datetime(v.as_datetime()), "'");
      return true;
  }
  return false;
}

bool render_expr(const sql::Expr& e, std::string& out,
                 std::vector<std::size_t>& params) {
  using Kind = sql::Expr::Kind;
  switch (e.kind) {
    case Kind::kLiteral:
      return render_literal(e.literal, out);
    case Kind::kColumnRef:
      if (!e.table.empty()) out += support::cat(e.table, ".");
      out += e.column;
      return true;
    case Kind::kParam:
      out += '?';
      params.push_back(e.param_index);
      return true;
    case Kind::kUnary:
      out += '(';
      out += e.un_op == sql::UnOp::kNeg ? "-" : "NOT ";
      if (e.lhs == nullptr || !render_expr(*e.lhs, out, params)) return false;
      out += ')';
      return true;
    case Kind::kBinary:
      out += '(';
      if (e.lhs == nullptr || !render_expr(*e.lhs, out, params)) return false;
      out += support::cat(" ", sql::to_string(e.bin_op), " ");
      if (e.rhs == nullptr || !render_expr(*e.rhs, out, params)) return false;
      out += ')';
      return true;
    case Kind::kFuncCall:
      out += e.func;
      out += '(';
      if (e.star_arg) {
        out += "*)";
        return true;
      }
      if (e.distinct_arg) out += "DISTINCT ";
      for (std::size_t i = 0; i < e.args.size(); ++i) {
        if (i > 0) out += ", ";
        if (!render_expr(*e.args[i], out, params)) return false;
      }
      out += ')';
      return true;
    case Kind::kIsNull:
      out += '(';
      if (e.lhs == nullptr || !render_expr(*e.lhs, out, params)) return false;
      out += e.negated ? " IS NOT NULL)" : " IS NULL)";
      return true;
    case Kind::kInList:
      out += '(';
      if (e.lhs == nullptr || !render_expr(*e.lhs, out, params)) return false;
      out += e.negated ? " NOT IN (" : " IN (";
      for (std::size_t i = 0; i < e.args.size(); ++i) {
        if (i > 0) out += ", ";
        if (!render_expr(*e.args[i], out, params)) return false;
      }
      out += "))";
      return true;
    case Kind::kLike:
      out += '(';
      if (e.lhs == nullptr || !render_expr(*e.lhs, out, params)) return false;
      out += e.negated ? " NOT LIKE " : " LIKE ";
      if (e.rhs == nullptr || !render_expr(*e.rhs, out, params)) return false;
      out += ')';
      return true;
    case Kind::kSubquery:
      if (e.subquery == nullptr) return false;
      out += '(';
      if (!render_select(*e.subquery, out, params)) return false;
      out += ')';
      return true;
    case Kind::kAliasRef:
      return false;  // no textual spelling survives parsing
  }
  return false;
}

void render_table_ref(const sql::TableRef& ref, std::string& out) {
  out += ref.table;
  if (ref.partition) out += support::cat(" PARTITION (", *ref.partition, ")");
  if (!ref.alias.empty()) out += support::cat(" ", ref.alias);
}

bool render_select(const sql::SelectStmt& s, std::string& out,
                   std::vector<std::size_t>& params) {
  if (!s.ctes.empty()) return false;  // shard bodies are CTE-free
  out += "SELECT ";
  if (s.distinct) out += "DISTINCT ";
  for (std::size_t i = 0; i < s.items.size(); ++i) {
    if (i > 0) out += ", ";
    const sql::SelectItem& item = s.items[i];
    if (item.star) {
      if (!item.star_table.empty()) out += support::cat(item.star_table, ".");
      out += '*';
      continue;
    }
    if (item.expr == nullptr || !render_expr(*item.expr, out, params)) {
      return false;
    }
    if (!item.alias.empty()) out += support::cat(" AS ", item.alias);
  }
  if (s.from) {
    out += " FROM ";
    render_table_ref(*s.from, out);
  }
  for (const sql::Join& join : s.joins) {
    if (join.on == nullptr) {
      out += " CROSS JOIN ";
      render_table_ref(join.table, out);
      continue;
    }
    out += " JOIN ";
    render_table_ref(join.table, out);
    out += " ON ";
    if (!render_expr(*join.on, out, params)) return false;
  }
  if (s.where) {
    out += " WHERE ";
    if (!render_expr(*s.where, out, params)) return false;
  }
  for (std::size_t i = 0; i < s.group_by.size(); ++i) {
    out += i == 0 ? " GROUP BY " : ", ";
    if (!render_expr(*s.group_by[i], out, params)) return false;
  }
  if (s.having) {
    out += " HAVING ";
    if (!render_expr(*s.having, out, params)) return false;
  }
  for (std::size_t i = 0; i < s.order_by.size(); ++i) {
    out += i == 0 ? " ORDER BY " : ", ";
    if (!render_expr(*s.order_by[i].expr, out, params)) return false;
    if (s.order_by[i].descending) out += " DESC";
  }
  if (s.limit) out += support::cat(" LIMIT ", *s.limit);
  if (s.offset) out += support::cat(" OFFSET ", *s.offset);
  return true;
}

}  // namespace

bool render_select_sql(const sql::SelectStmt& stmt, std::string& out,
                       std::vector<std::size_t>& param_order) {
  std::string text;
  std::vector<std::size_t> order;
  if (!render_select(stmt, text, order)) return false;
  out = std::move(text);
  param_order = std::move(order);
  return true;
}

}  // namespace kojak::db::sql

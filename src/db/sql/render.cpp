#include "db/sql/render.hpp"

#include <cmath>

#include "support/str.hpp"

namespace kojak::db::sql {

namespace {

// Parentheses are emitted only where the parser's precedence climbing
// (OR < AND < NOT < comparison/IS/IN/LIKE < + - < * / % < unary minus <
// primary) would otherwise group the text differently, so the text reads
// like hand-written SQL and parses back to the same tree.
enum Precedence : int {
  kTop,
  kOr,
  kAnd,
  kNot,
  kComparison,
  kAdditive,
  kMultiplicative,
  kNegation,
  kPrimary,
};

bool negative_number(const Value& v) {
  return (v.type() == ValueType::kInt && v.as_int() < 0) ||
         (v.type() == ValueType::kDouble && std::signbit(v.as_double()));
}

int precedence(const Expr& e) {
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      // A negative number spells with a leading minus, like a negation.
      return negative_number(e.literal) ? kNegation : kPrimary;
    case Expr::Kind::kUnary:
      return e.un_op == UnOp::kNot ? kNot : kNegation;
    case Expr::Kind::kBinary:
      switch (e.bin_op) {
        case BinOp::kOr: return kOr;
        case BinOp::kAnd: return kAnd;
        case BinOp::kAdd:
        case BinOp::kSub: return kAdditive;
        case BinOp::kMul:
        case BinOp::kDiv:
        case BinOp::kMod: return kMultiplicative;
        default: return kComparison;
      }
    case Expr::Kind::kIsNull:
    case Expr::Kind::kInList:
    case Expr::Kind::kLike:
      return kComparison;
    default:
      return kPrimary;
  }
}

/// One rendering pass over a tree, recording each `?` node in text order in
/// `params` when given (a parse numbers placeholders sequentially in exactly
/// that order). In key mode every node has a spelling, none of which the
/// SQL text has: a placeholder shows its index (`?3`), an alias reference
/// its item (`@1`), a non-finite double its display form, a negative
/// literal is parenthesized so it cannot read as a negation, and so is
/// every composite operand.
class Renderer {
 public:
  Renderer(std::string& out, bool key,
           std::vector<const Expr*>* params = nullptr)
      : out_(out), key_(key), params_(params) {}

  bool select(const SelectStmt& s) {
    for (std::size_t i = 0; i < s.ctes.size(); ++i) {
      out_ += support::cat(i == 0 ? "WITH " : ", ", s.ctes[i].name, " AS (");
      if (s.ctes[i].select == nullptr || !select(*s.ctes[i].select)) {
        return false;
      }
      out_ += ')';
    }
    if (!s.ctes.empty()) out_ += ' ';
    out_ += s.distinct ? "SELECT DISTINCT " : "SELECT ";
    for (std::size_t i = 0; i < s.items.size(); ++i) {
      if (i > 0) out_ += ", ";
      const SelectItem& item = s.items[i];
      if (item.star) {
        if (!item.star_table.empty()) out_ += item.star_table + ".";
        out_ += '*';
        continue;
      }
      if (!operand(item.expr, kTop)) return false;
      if (!item.alias.empty()) {
        out_ += " AS ";
        out_ += item.alias;
      }
    }
    if (s.from) {
      out_ += " FROM ";
      table_ref(*s.from);
    }
    for (const Join& join : s.joins) {
      out_ += join.on == nullptr ? " CROSS JOIN " : " JOIN ";
      table_ref(join.table);
      if (join.on != nullptr && !clause(" ON ", join.on)) return false;
    }
    if ((s.where && !clause(" WHERE ", s.where)) ||
        (!s.group_by.empty() && !list(" GROUP BY ", s.group_by, "")) ||
        (s.having && !clause(" HAVING ", s.having))) {
      return false;
    }
    for (std::size_t i = 0; i < s.order_by.size(); ++i) {
      out_ += i == 0 ? " ORDER BY " : ", ";
      if (!operand(s.order_by[i].expr, kTop)) return false;
      if (s.order_by[i].descending) out_ += " DESC";
    }
    if (s.limit) out_ += support::cat(" LIMIT ", *s.limit);
    if (s.offset) out_ += support::cat(" OFFSET ", *s.offset);
    return true;
  }

  bool expr(const Expr& e, int min_precedence) {
    const int own = precedence(e);
    // A key parenthesizes every composite operand: its structure must not
    // rest on the precedence rules that the text's round trip checks.
    if (key_ ? min_precedence > kTop && own < kPrimary : own < min_precedence) {
      out_ += '(';
      if (!expr(e, kTop)) return false;
      out_ += ')';
      return true;
    }
    switch (e.kind) {
      case Expr::Kind::kLiteral:
        return literal(e.literal);
      case Expr::Kind::kColumnRef:
        if (!e.table.empty()) {
          out_ += e.table;
          out_ += '.';
        }
        out_ += e.column;
        return true;
      case Expr::Kind::kParam:
        out_ += '?';
        if (key_) out_ += std::to_string(e.param_index);
        if (params_ != nullptr) params_->push_back(&e);
        return true;
      case Expr::Kind::kUnary:
        // A negated operand is parenthesized whole: "--" opens a comment.
        out_ += e.un_op == UnOp::kNeg ? "-" : "NOT ";
        return operand(e.lhs, e.un_op == UnOp::kNeg ? kPrimary : kNot);
      case Expr::Kind::kBinary:
        // Left-associative, except that comparisons do not chain at all.
        if (!operand(e.lhs, own == kComparison ? own + 1 : own)) return false;
        out_ += ' ';
        out_ += to_string(e.bin_op);
        out_ += ' ';
        return operand(e.rhs, own + 1);
      case Expr::Kind::kFuncCall:
        out_ += e.func;
        if (e.star_arg) {
          out_ += "(*)";
          return true;
        }
        return list(e.distinct_arg ? "(DISTINCT " : "(", e.args, ")");
      case Expr::Kind::kIsNull:
        if (!operand(e.lhs, kAdditive)) return false;
        out_ += e.negated ? " IS NOT NULL" : " IS NULL";
        return true;
      case Expr::Kind::kInList:
        if (!operand(e.lhs, kAdditive)) return false;
        return list(e.negated ? " NOT IN (" : " IN (", e.args, ")");
      case Expr::Kind::kLike:
        if (!operand(e.lhs, kAdditive)) return false;
        out_ += e.negated ? " NOT LIKE " : " LIKE ";
        return operand(e.rhs, kAdditive);
      case Expr::Kind::kSubquery:
        if (e.subquery == nullptr) return false;
        out_ += '(';
        if (!select(*e.subquery)) return false;
        out_ += ')';
        return true;
      case Expr::Kind::kAliasRef:
        // The binder's reference to a select item has no text spelling.
        if (key_) out_ += support::cat("@", e.alias_index);
        return key_;
    }
    return false;
  }

 private:
  /// An operand that must bind at least as tightly as `min_precedence`.
  bool operand(const ExprPtr& e, int min_precedence) {
    return e != nullptr && expr(*e, min_precedence);
  }

  bool clause(std::string_view keyword, const ExprPtr& e) {
    out_ += keyword;
    return operand(e, kTop);
  }

  /// `open`, the comma-separated expressions, `close`.
  bool list(std::string_view open, const std::vector<ExprPtr>& exprs,
            std::string_view close) {
    out_ += open;
    for (std::size_t i = 0; i < exprs.size(); ++i) {
      if (i > 0) out_ += ", ";
      if (!operand(exprs[i], kTop)) return false;
    }
    out_ += close;
    return true;
  }

  bool literal(const Value& v) {
    if (v.type() == ValueType::kDouble && !std::isfinite(v.as_double())) {
      // NaN and infinities have no literal the lexer reads back.
      if (key_) out_ += v.to_display();
      return key_;
    }
    const bool wrap = key_ && negative_number(v);
    out_ += wrap ? support::cat("(", v.to_sql_literal(), ")")
                 : v.to_sql_literal();
    return true;
  }

  void table_ref(const TableRef& ref) {
    out_ += ref.table;
    if (ref.partition) {
      out_ += support::cat(" PARTITION (", *ref.partition, ")");
    }
    if (!ref.alias.empty()) {
      out_ += ' ';
      out_ += ref.alias;
    }
  }

  std::string& out_;
  bool key_;
  std::vector<const Expr*>* params_;
};

}  // namespace

bool render_select_sql(const SelectStmt& stmt, std::string& out,
                       std::vector<std::size_t>& param_order) {
  std::string text;
  std::vector<const Expr*> params;
  if (!Renderer(text, /*key=*/false, &params).select(stmt)) return false;
  out = std::move(text);
  param_order.clear();
  for (const Expr* node : params) {
    param_order.push_back(node->param_index);
  }
  return true;
}

std::vector<std::size_t> renumber_params(SelectStmt& stmt, std::string* text) {
  std::string key;
  std::vector<const Expr*> params;
  // Key mode visits every node; text mode stops where the text would fail.
  Renderer renderer(text != nullptr ? *text : key, /*key=*/text == nullptr,
                    &params);
  if (!renderer.select(stmt) && text != nullptr) text->clear();
  std::vector<std::size_t> previous;
  for (const Expr* node : params) {
    previous.push_back(node->param_index);
    // The nodes belong to `stmt`, which the caller handed over mutable.
    const_cast<Expr*>(node)->param_index = previous.size() - 1;
  }
  return previous;
}

void structural_key(const Expr& e, std::string& out) {
  (void)Renderer(out, /*key=*/true).expr(e, kTop);
}

void structural_key(const SelectStmt& s, std::string& out) {
  (void)Renderer(out, /*key=*/true).select(s);
}

std::string structural_key(const SelectStmt& s) {
  std::string out;
  structural_key(s, out);
  return out;
}

}  // namespace kojak::db::sql

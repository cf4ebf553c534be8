#include "db/sql/parser.hpp"

#include <algorithm>

#include "db/sql/lexer.hpp"
#include "support/error.hpp"
#include "support/str.hpp"

namespace kojak::db::sql {

using support::ParseError;

namespace {

class Parser {
 public:
  explicit Parser(std::string_view source) : tokens_(lex_sql(source)) {}

  std::vector<Statement> parse_script() {
    std::vector<Statement> out;
    while (!at_end()) {
      if (accept_symbol(";")) continue;
      out.push_back(parse_statement());
      if (!at_end()) expect_symbol(";");
    }
    return out;
  }

  /// Exactly one statement, then end of input. Anything after the trailing
  /// `;` is an error anchored at the offending token, so a prepare() of a
  /// multi-statement script fails loudly instead of silently picking one.
  Statement parse_one() {
    while (accept_symbol(";")) {}
    Statement stmt = parse_statement();
    while (accept_symbol(";")) {}
    if (!at_end()) {
      throw ParseError(
          support::cat("expected end of input after the first statement, got '",
                       peek().text,
                       "' (prepare() takes exactly one statement; run scripts "
                       "through Database::execute)"),
          peek().loc);
    }
    return stmt;
  }

 private:
  // --- token plumbing -------------------------------------------------
  [[nodiscard]] const Token& peek(std::size_t ahead = 0) const {
    const std::size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& advance() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }
  [[nodiscard]] bool at_end() const { return peek().kind == TokenKind::kEnd; }

  bool accept_symbol(std::string_view s) {
    if (peek().is_symbol(s)) {
      advance();
      return true;
    }
    return false;
  }
  void expect_symbol(std::string_view s) {
    if (!accept_symbol(s)) {
      throw ParseError(support::cat("expected '", s, "', got '", peek().text, "'"),
                       peek().loc);
    }
  }
  bool accept_keyword(std::string_view kw) {
    if (peek().is_keyword(kw)) {
      advance();
      return true;
    }
    return false;
  }
  void expect_keyword(std::string_view kw) {
    if (!accept_keyword(kw)) {
      throw ParseError(support::cat("expected ", kw, ", got '", peek().text, "'"),
                       peek().loc);
    }
  }
  std::string expect_ident(std::string_view what) {
    if (peek().kind != TokenKind::kIdent) {
      throw ParseError(support::cat("expected ", what, ", got '", peek().text, "'"),
                       peek().loc);
    }
    return advance().text;
  }

  // --- statements ------------------------------------------------------
  Statement parse_statement() {
    if (peek().is_keyword("WITH")) return parse_with_select();
    if (peek().is_keyword("SELECT")) return parse_select();
    if (peek().is_keyword("CREATE")) return parse_create();
    if (peek().is_keyword("INSERT")) return parse_insert();
    if (peek().is_keyword("UPDATE")) return parse_update();
    if (peek().is_keyword("DELETE")) return parse_delete();
    if (peek().is_keyword("DROP")) return parse_drop();
    throw ParseError(support::cat("expected a statement, got '", peek().text, "'"),
                     peek().loc);
  }

  /// `WITH name AS (SELECT ...), ... SELECT ...` — non-recursive common
  /// table expressions. Each body may reference only the CTEs defined
  /// before it; duplicates, self references, and forward references are
  /// rejected here with a diagnostic instead of surfacing as an "unknown
  /// table" at execution time.
  SelectStmt parse_with_select() {
    expect_keyword("WITH");
    if (peek().is_keyword("RECURSIVE")) {
      throw ParseError("recursive CTEs are not supported (WITH is "
                       "non-recursive in this engine)",
                       peek().loc);
    }
    std::vector<CommonTableExpr> ctes;
    do {
      CommonTableExpr cte;
      cte.loc = peek().loc;
      cte.name = expect_ident("CTE name");
      for (const CommonTableExpr& prior : ctes) {
        if (support::iequals(prior.name, cte.name)) {
          throw ParseError(support::cat("duplicate CTE name '", cte.name, "'"),
                           cte.loc);
        }
      }
      expect_keyword("AS");
      expect_symbol("(");
      cte.select = std::make_unique<SelectStmt>(parse_select());
      expect_symbol(")");
      ctes.push_back(std::move(cte));
    } while (accept_symbol(","));
    if (!peek().is_keyword("SELECT")) {
      throw ParseError(support::cat("expected SELECT after WITH clause, got '",
                                    peek().text, "'"),
                       peek().loc);
    }
    SelectStmt stmt = parse_select();
    for (std::size_t i = 0; i < ctes.size(); ++i) {
      check_cte_references(*ctes[i].select, ctes, i);
    }
    // PARTITION selectors apply to catalog tables only: a CTE is a
    // materialized temp result with no partitions, so `FROM cte PARTITION
    // (k)` is a located diagnostic here instead of a misleading "unknown
    // partition" surprise at execution time. Bodies are checked too — an
    // earlier CTE is just as partition-free as the final result.
    check_partition_selectors(stmt, ctes);
    for (const CommonTableExpr& cte : ctes) {
      check_partition_selectors(*cte.select, ctes);
    }
    stmt.ctes = std::move(ctes);
    return stmt;
  }

  /// Rejects `PARTITION (k)` selectors on names that resolve to a CTE of
  /// this statement's WITH clause (anywhere in the select: FROM, JOINs, and
  /// subqueries, recursively).
  static void check_partition_selectors(
      const SelectStmt& select, const std::vector<CommonTableExpr>& ctes) {
    for_each_table_ref(select, [&](const TableRef& ref) {
      if (!ref.partition) return;
      for (const CommonTableExpr& cte : ctes) {
        if (support::iequals(ref.table, cte.name)) {
          throw ParseError(
              support::cat("PARTITION selector on CTE '", ref.table,
                           "' (partition selection applies to partitioned "
                           "catalog tables, not temp results)"),
              ref.loc);
        }
      }
    });
  }

  /// Walks every table reference of the `index`-th CTE's body (FROM, JOINs,
  /// and subqueries, recursively) and rejects references to itself
  /// (recursive) or to a CTE defined after it (forward reference).
  /// References to real tables pass through untouched — the executor
  /// resolves those against the catalog. Deliberately conservative: the
  /// parser has no catalog, so a body naming a base table that a LATER
  /// CTE shadows is indistinguishable from a forward reference and is
  /// rejected too — renaming the CTE resolves the ambiguity, and a clear
  /// parse error beats a silently catalog-dependent meaning.
  static void check_cte_references(const SelectStmt& body,
                                   const std::vector<CommonTableExpr>& ctes,
                                   std::size_t index) {
    for_each_table_ref(body, [&](const TableRef& ref) {
      for (std::size_t j = 0; j < ctes.size(); ++j) {
        if (!support::iequals(ref.table, ctes[j].name)) continue;
        if (j == index) {
          throw ParseError(
              support::cat("CTE '", ctes[index].name,
                           "' references itself; recursive CTEs are not "
                           "supported"),
              ref.loc);
        }
        if (j > index) {
          throw ParseError(
              support::cat("CTE '", ctes[index].name,
                           "' references '", ctes[j].name,
                           "' before it is defined (CTEs may only reference "
                           "earlier entries of the WITH clause)"),
              ref.loc);
        }
      }
    });
  }

  SelectStmt parse_select() {
    expect_keyword("SELECT");
    SelectStmt stmt;
    if (accept_keyword("DISTINCT")) stmt.distinct = true;

    do {
      SelectItem item;
      if (accept_symbol("*")) {
        item.star = true;
      } else if (peek().kind == TokenKind::kIdent && peek(1).is_symbol(".") &&
                 peek(2).is_symbol("*")) {
        item.star = true;
        item.star_table = advance().text;
        advance();  // .
        advance();  // *
      } else {
        item.expr = parse_expr();
        if (accept_keyword("AS")) {
          item.alias = expect_ident("alias");
        } else if (peek().kind == TokenKind::kIdent && !is_clause_keyword(peek())) {
          item.alias = advance().text;
        }
      }
      stmt.items.push_back(std::move(item));
    } while (accept_symbol(","));

    if (accept_keyword("FROM")) {
      stmt.from = parse_table_ref();
      while (true) {
        if (accept_keyword("JOIN") ||
            (peek().is_keyword("INNER") && peek(1).is_keyword("JOIN") &&
             (advance(), accept_keyword("JOIN")))) {
          Join join;
          join.table = parse_table_ref();
          expect_keyword("ON");
          join.on = parse_expr();
          stmt.joins.push_back(std::move(join));
        } else if (peek().is_keyword("CROSS") && peek(1).is_keyword("JOIN")) {
          advance();
          advance();
          Join join;
          join.table = parse_table_ref();
          stmt.joins.push_back(std::move(join));
        } else {
          break;
        }
      }
    }
    if (accept_keyword("WHERE")) stmt.where = parse_expr();
    if (peek().is_keyword("GROUP")) {
      advance();
      expect_keyword("BY");
      do {
        stmt.group_by.push_back(parse_expr());
      } while (accept_symbol(","));
    }
    if (accept_keyword("HAVING")) stmt.having = parse_expr();
    if (peek().is_keyword("ORDER")) {
      advance();
      expect_keyword("BY");
      do {
        OrderKey key;
        key.expr = parse_expr();
        if (accept_keyword("DESC")) {
          key.descending = true;
        } else {
          accept_keyword("ASC");
        }
        stmt.order_by.push_back(std::move(key));
      } while (accept_symbol(","));
    }
    if (accept_keyword("LIMIT")) {
      stmt.limit = parse_count("LIMIT");
      if (accept_keyword("OFFSET")) stmt.offset = parse_count("OFFSET");
    }
    return stmt;
  }

  std::size_t parse_count(std::string_view what) {
    if (peek().kind != TokenKind::kIntLit || peek().int_value < 0) {
      throw ParseError(support::cat(what, " expects a non-negative integer"),
                       peek().loc);
    }
    return static_cast<std::size_t>(advance().int_value);
  }

  [[nodiscard]] static bool is_clause_keyword(const Token& tok) {
    for (const char* kw :
         {"FROM", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "OFFSET", "JOIN",
          "INNER", "CROSS", "ON", "AS", "ASC", "DESC", "AND", "OR", "NOT",
          "UNION", "SET", "VALUES"}) {
      if (tok.is_keyword(kw)) return true;
    }
    return false;
  }

  TableRef parse_table_ref() {
    TableRef ref;
    ref.loc = peek().loc;
    ref.table = expect_ident("table name");
    // `t PARTITION (k)` pins the scan to one partition of a partitioned
    // catalog table (the per-partition CTEs of the partition-union rewrite
    // are built from exactly this form). Plain `t PARTITION` stays a legal
    // alias, so the selector only engages when a parenthesis follows.
    if (peek().is_keyword("PARTITION") && peek(1).is_symbol("(")) {
      advance();  // PARTITION
      expect_symbol("(");
      const Token& index_tok = peek();
      if (index_tok.kind != TokenKind::kIntLit || index_tok.int_value < 0) {
        throw ParseError("PARTITION selector expects a non-negative "
                         "partition index",
                         index_tok.loc);
      }
      ref.partition = static_cast<std::size_t>(advance().int_value);
      expect_symbol(")");
    }
    if (accept_keyword("AS")) {
      ref.alias = expect_ident("table alias");
    } else if (peek().kind == TokenKind::kIdent && !is_clause_keyword(peek())) {
      ref.alias = advance().text;
    }
    return ref;
  }

  Statement parse_create() {
    expect_keyword("CREATE");
    if (accept_keyword("TABLE")) {
      CreateTableStmt stmt;
      if (accept_keyword("IF")) {
        expect_keyword("NOT");
        expect_keyword("EXISTS");
        stmt.if_not_exists = true;
      }
      std::string name = expect_ident("table name");
      expect_symbol("(");
      std::vector<ColumnDef> columns;
      do {
        ColumnDef col;
        col.name = expect_ident("column name");
        const Token& type_tok = peek();
        const std::string type_name = expect_ident("type name");
        const auto type = parse_type_name(type_name);
        if (!type) {
          throw ParseError(support::cat("unknown type '", type_name, "'"),
                           type_tok.loc);
        }
        col.type = *type;
        while (true) {
          if (accept_keyword("PRIMARY")) {
            expect_keyword("KEY");
            col.primary_key = true;
            col.nullable = false;
          } else if (accept_keyword("NOT")) {
            expect_keyword("NULL");
            col.nullable = false;
          } else {
            break;
          }
        }
        columns.push_back(std::move(col));
      } while (accept_symbol(","));
      expect_symbol(")");
      std::optional<PartitionSpec> partition;
      if (accept_keyword("PARTITION")) {
        partition = parse_partition_clause(columns);
      }
      // `STORAGE COLUMNAR` (or the explicit default, `STORAGE ROW`) selects
      // the partition layout: columnar tables maintain typed column vectors
      // next to the row heap, which the executor's vectorized kernels scan.
      StorageMode storage = StorageMode::kRow;
      if (accept_keyword("STORAGE")) {
        const Token& mode_tok = peek();
        if (accept_keyword("COLUMNAR")) {
          storage = StorageMode::kColumnar;
        } else if (!accept_keyword("ROW")) {
          throw ParseError(support::cat("expected COLUMNAR or ROW after "
                                        "STORAGE, got '",
                                        mode_tok.text, "'"),
                           mode_tok.loc);
        }
      }
      stmt.schema = TableSchema(std::move(name), std::move(columns));
      if (partition) stmt.schema.set_partition(std::move(*partition));
      stmt.schema.set_storage(storage);
      return stmt;
    }
    bool ordered = false;
    if (accept_keyword("ORDERED")) ordered = true;
    expect_keyword("INDEX");
    CreateIndexStmt stmt;
    stmt.ordered = ordered;
    stmt.index_name = expect_ident("index name");
    expect_keyword("ON");
    stmt.table = expect_ident("table name");
    expect_symbol("(");
    stmt.column = expect_ident("column name");
    expect_symbol(")");
    return stmt;
  }

  /// `PARTITION BY HASH(col) PARTITIONS n` or
  /// `PARTITION BY RANGE(col) VALUES (b1, b2, ...)`, after the column list.
  /// Every mistake is a located diagnostic here — an unknown partition
  /// column or a descending bound list must not surface later as an
  /// execution-time surprise.
  PartitionSpec parse_partition_clause(const std::vector<ColumnDef>& columns) {
    expect_keyword("BY");
    PartitionSpec spec;
    const Token& method_tok = peek();
    if (accept_keyword("HASH")) {
      spec.method = PartitionSpec::Method::kHash;
    } else if (accept_keyword("RANGE")) {
      spec.method = PartitionSpec::Method::kRange;
    } else {
      throw ParseError(support::cat("expected HASH or RANGE after PARTITION "
                                    "BY, got '",
                                    method_tok.text, "'"),
                       method_tok.loc);
    }
    expect_symbol("(");
    const Token& column_tok = peek();
    spec.column = expect_ident("partition column");
    expect_symbol(")");
    const bool known = std::any_of(
        columns.begin(), columns.end(), [&](const ColumnDef& col) {
          return support::iequals(col.name, spec.column);
        });
    if (!known) {
      throw ParseError(support::cat("unknown partition column '", spec.column,
                                    "'"),
                       column_tok.loc);
    }
    if (spec.method == PartitionSpec::Method::kHash) {
      expect_keyword("PARTITIONS");
      const Token& count_tok = peek();
      if (count_tok.kind != TokenKind::kIntLit || count_tok.int_value < 1) {
        throw ParseError("PARTITIONS expects a positive integer",
                         count_tok.loc);
      }
      if (count_tok.int_value >
          static_cast<std::int64_t>(kMaxTablePartitions)) {
        throw ParseError(support::cat("at most ", kMaxTablePartitions,
                                      " partitions are supported"),
                         count_tok.loc);
      }
      spec.partitions = static_cast<std::size_t>(advance().int_value);
      return spec;
    }
    expect_keyword("VALUES");
    expect_symbol("(");
    do {
      const Token& bound_tok = peek();
      spec.range_bounds.push_back(parse_partition_bound());
      if (spec.range_bounds.size() > 1 &&
          Value::compare_total(spec.range_bounds[spec.range_bounds.size() - 2],
                               spec.range_bounds.back()) >= 0) {
        throw ParseError("range partition bounds must be strictly ascending",
                         bound_tok.loc);
      }
    } while (accept_symbol(","));
    expect_symbol(")");
    spec.partitions = spec.range_bounds.size() + 1;
    if (spec.partitions > kMaxTablePartitions) {
      throw ParseError(support::cat("at most ", kMaxTablePartitions,
                                    " partitions are supported"),
                       method_tok.loc);
    }
    return spec;
  }

  /// One literal range bound: a (possibly negated) number or a string.
  Value parse_partition_bound() {
    bool negative = false;
    if (accept_symbol("-")) negative = true;
    const Token& tok = peek();
    switch (tok.kind) {
      case TokenKind::kIntLit:
        return Value::integer(negative ? -advance().int_value
                                       : advance().int_value);
      case TokenKind::kFloatLit:
        return Value::real(negative ? -advance().float_value
                                    : advance().float_value);
      case TokenKind::kStringLit:
        if (negative) break;
        return Value::text(advance().text);
      default:
        break;
    }
    throw ParseError(support::cat("range partition bound must be a numeric or "
                                  "string literal, got '",
                                  tok.text, "'"),
                     tok.loc);
  }

  Statement parse_insert() {
    expect_keyword("INSERT");
    expect_keyword("INTO");
    InsertStmt stmt;
    stmt.table = expect_ident("table name");
    if (accept_symbol("(")) {
      do {
        stmt.columns.push_back(expect_ident("column name"));
      } while (accept_symbol(","));
      expect_symbol(")");
    }
    expect_keyword("VALUES");
    do {
      expect_symbol("(");
      std::vector<ExprPtr> row;
      do {
        row.push_back(parse_expr());
      } while (accept_symbol(","));
      expect_symbol(")");
      stmt.rows.push_back(std::move(row));
    } while (accept_symbol(","));
    return stmt;
  }

  Statement parse_update() {
    expect_keyword("UPDATE");
    UpdateStmt stmt;
    stmt.table = expect_ident("table name");
    expect_keyword("SET");
    do {
      std::string col = expect_ident("column name");
      expect_symbol("=");
      stmt.assignments.emplace_back(std::move(col), parse_expr());
    } while (accept_symbol(","));
    if (accept_keyword("WHERE")) stmt.where = parse_expr();
    return stmt;
  }

  Statement parse_delete() {
    expect_keyword("DELETE");
    expect_keyword("FROM");
    DeleteStmt stmt;
    stmt.table = expect_ident("table name");
    if (accept_keyword("WHERE")) stmt.where = parse_expr();
    return stmt;
  }

  Statement parse_drop() {
    expect_keyword("DROP");
    expect_keyword("TABLE");
    DropTableStmt stmt;
    if (accept_keyword("IF")) {
      expect_keyword("EXISTS");
      stmt.if_exists = true;
    }
    stmt.table = expect_ident("table name");
    return stmt;
  }

  // --- expressions (precedence climbing) -------------------------------
  ExprPtr parse_expr() { return parse_or(); }

  ExprPtr parse_or() {
    ExprPtr lhs = parse_and();
    while (peek().is_keyword("OR")) {
      advance();
      lhs = make_binary(BinOp::kOr, std::move(lhs), parse_and());
    }
    return lhs;
  }

  ExprPtr parse_and() {
    ExprPtr lhs = parse_not();
    while (peek().is_keyword("AND")) {
      advance();
      lhs = make_binary(BinOp::kAnd, std::move(lhs), parse_not());
    }
    return lhs;
  }

  ExprPtr parse_not() {
    if (peek().is_keyword("NOT")) {
      advance();
      return make_unary(UnOp::kNot, parse_not());
    }
    return parse_comparison();
  }

  ExprPtr parse_comparison() {
    ExprPtr lhs = parse_additive();
    // IS [NOT] NULL / [NOT] IN / [NOT] LIKE postfix forms.
    if (peek().is_keyword("IS")) {
      advance();
      const bool is_not = accept_keyword("NOT");
      expect_keyword("NULL");
      return make_is_null(std::move(lhs), is_not);
    }
    bool negated = false;
    if (peek().is_keyword("NOT") &&
        (peek(1).is_keyword("IN") || peek(1).is_keyword("LIKE"))) {
      advance();
      negated = true;
    }
    if (peek().is_keyword("IN")) {
      advance();
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::kInList;
      e->negated = negated;
      e->lhs = std::move(lhs);
      expect_symbol("(");
      do {
        e->args.push_back(parse_expr());
      } while (accept_symbol(","));
      expect_symbol(")");
      return e;
    }
    if (peek().is_keyword("LIKE")) {
      advance();
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::kLike;
      e->negated = negated;
      e->lhs = std::move(lhs);
      e->rhs = parse_additive();
      return e;
    }
    if (negated) {
      throw ParseError("expected IN or LIKE after NOT", peek().loc);
    }

    struct OpMap {
      const char* sym;
      BinOp op;
    };
    static constexpr OpMap kOps[] = {
        {"=", BinOp::kEq},  {"<>", BinOp::kNe}, {"!=", BinOp::kNe},
        {"<=", BinOp::kLe}, {">=", BinOp::kGe}, {"<", BinOp::kLt},
        {">", BinOp::kGt},
    };
    for (const auto& [sym, op] : kOps) {
      if (peek().is_symbol(sym)) {
        advance();
        return make_binary(op, std::move(lhs), parse_additive());
      }
    }
    return lhs;
  }

  ExprPtr parse_additive() {
    ExprPtr lhs = parse_multiplicative();
    while (peek().is_symbol("+") || peek().is_symbol("-")) {
      const BinOp op = peek().is_symbol("+") ? BinOp::kAdd : BinOp::kSub;
      advance();
      lhs = make_binary(op, std::move(lhs), parse_multiplicative());
    }
    return lhs;
  }

  ExprPtr parse_multiplicative() {
    ExprPtr lhs = parse_unary();
    while (peek().is_symbol("*") || peek().is_symbol("/") || peek().is_symbol("%")) {
      BinOp op = BinOp::kMul;
      if (peek().is_symbol("/")) op = BinOp::kDiv;
      if (peek().is_symbol("%")) op = BinOp::kMod;
      advance();
      lhs = make_binary(op, std::move(lhs), parse_unary());
    }
    return lhs;
  }

  ExprPtr parse_unary() {
    if (peek().is_symbol("-")) {
      advance();
      return make_unary(UnOp::kNeg, parse_unary());
    }
    if (peek().is_symbol("+")) {
      advance();
      return parse_unary();
    }
    return parse_primary();
  }

  ExprPtr parse_primary() {
    const Token& tok = peek();
    auto e = std::make_unique<Expr>();

    switch (tok.kind) {
      case TokenKind::kIntLit:
        return make_literal(Value::integer(advance().int_value));
      case TokenKind::kFloatLit:
        return make_literal(Value::real(advance().float_value));
      case TokenKind::kStringLit:
        return make_literal(Value::text(advance().text));
      case TokenKind::kSymbol:
        if (tok.is_symbol("?")) {
          advance();
          return make_param(next_param_++);
        }
        if (tok.is_symbol("(")) {
          advance();
          if (peek().is_keyword("SELECT")) {
            e->kind = Expr::Kind::kSubquery;
            e->subquery = std::make_unique<SelectStmt>(parse_select());
            expect_symbol(")");
            return e;
          }
          ExprPtr inner = parse_expr();
          expect_symbol(")");
          return inner;
        }
        break;
      case TokenKind::kIdent: {
        if (tok.is_keyword("NULL")) {
          advance();
          return make_literal(Value::null());
        }
        if (tok.is_keyword("TRUE") || tok.is_keyword("FALSE")) {
          return make_literal(Value::boolean(advance().is_keyword("TRUE")));
        }
        if (tok.is_keyword("DATETIME") && peek(1).kind == TokenKind::kStringLit) {
          advance();
          const Token& lit = advance();
          const auto parsed = parse_datetime(lit.text);
          if (!parsed) {
            throw ParseError(support::cat("malformed DATETIME literal '",
                                          lit.text, "'"),
                             lit.loc);
          }
          return make_literal(Value::datetime(*parsed));
        }
        // Reserved words cannot start a primary expression; catching them
        // here turns "SELECT a, FROM t" into a syntax error instead of a
        // column named FROM.
        for (const char* reserved :
             {"FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT",
              "OFFSET", "JOIN", "INNER", "CROSS", "ON", "SELECT", "INSERT",
              "INTO", "VALUES", "UPDATE", "SET", "DELETE", "CREATE", "DROP",
              "TABLE", "INDEX", "AS", "ASC", "DESC", "UNION", "PRIMARY"}) {
          if (tok.is_keyword(reserved)) {
            throw ParseError(support::cat("unexpected keyword '", tok.text, "'"),
                             tok.loc);
          }
        }
        std::string name = advance().text;
        if (accept_symbol("(")) {
          e->kind = Expr::Kind::kFuncCall;
          e->func = support::to_upper(name);
          if (accept_symbol("*")) {
            e->star_arg = true;
            expect_symbol(")");
            return e;
          }
          if (accept_keyword("DISTINCT")) e->distinct_arg = true;
          if (!accept_symbol(")")) {
            do {
              e->args.push_back(parse_expr());
            } while (accept_symbol(","));
            expect_symbol(")");
          }
          return e;
        }
        return accept_symbol(".")
                   ? make_column(std::move(name), expect_ident("column name"))
                   : make_column({}, std::move(name));
      }
      default:
        break;
    }
    throw ParseError(support::cat("unexpected token '", tok.text, "'"), tok.loc);
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  std::size_t next_param_ = 0;
};

}  // namespace

std::vector<Statement> parse_sql(std::string_view source) {
  return Parser(source).parse_script();
}

Statement parse_single(std::string_view source) {
  return Parser(source).parse_one();
}

}  // namespace kojak::db::sql

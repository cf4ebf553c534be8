#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <variant>
#include <vector>

#include "asl/model.hpp"
#include "cosy/schema_gen.hpp"
#include "cosy/specs.hpp"
#include "cosy/sql_eval.hpp"
#include "db/connection.hpp"
#include "db/database.hpp"
#include "db/sql/lexer.hpp"
#include "db/sql/parser.hpp"
#include "db/sql/render.hpp"
#include "support/error.hpp"

namespace cosy = kojak::cosy;
namespace db = kojak::db;
namespace sql = kojak::db::sql;
using kojak::support::ParseError;

// ---------------------------------------------------------------------------
// Lexer

TEST(SqlLexer, BasicTokens) {
  const auto tokens = sql::lex_sql("SELECT a, 42 FROM t WHERE x >= 1.5;");
  ASSERT_GE(tokens.size(), 10u);
  EXPECT_TRUE(tokens[0].is_keyword("select"));
  EXPECT_EQ(tokens[1].text, "a");
  EXPECT_TRUE(tokens[2].is_symbol(","));
  EXPECT_EQ(tokens[3].int_value, 42);
  EXPECT_TRUE(tokens.back().kind == sql::TokenKind::kEnd);
}

TEST(SqlLexer, StringEscapes) {
  const auto tokens = sql::lex_sql("'it''s'");
  EXPECT_EQ(tokens[0].kind, sql::TokenKind::kStringLit);
  EXPECT_EQ(tokens[0].text, "it's");
}

TEST(SqlLexer, Comments) {
  const auto tokens = sql::lex_sql("SELECT 1 -- trailing comment\n+ 2");
  // 'SELECT', '1', '+', '2', EOF
  EXPECT_EQ(tokens.size(), 5u);
}

TEST(SqlLexer, FloatForms) {
  EXPECT_DOUBLE_EQ(sql::lex_sql("1.25")[0].float_value, 1.25);
  EXPECT_DOUBLE_EQ(sql::lex_sql("1e3")[0].float_value, 1000.0);
  EXPECT_DOUBLE_EQ(sql::lex_sql("2.5E-1")[0].float_value, 0.25);
  // '1.' without digits is int then dot.
  const auto tokens = sql::lex_sql("1 .x");
  EXPECT_EQ(tokens[0].kind, sql::TokenKind::kIntLit);
}

TEST(SqlLexer, TwoCharOperators) {
  const auto tokens = sql::lex_sql("<> <= >= != =");
  EXPECT_TRUE(tokens[0].is_symbol("<>"));
  EXPECT_TRUE(tokens[1].is_symbol("<="));
  EXPECT_TRUE(tokens[2].is_symbol(">="));
  EXPECT_TRUE(tokens[3].is_symbol("!="));
  EXPECT_TRUE(tokens[4].is_symbol("="));
}

TEST(SqlLexer, ErrorsCarryLocation) {
  try {
    (void)sql::lex_sql("SELECT 'unterminated");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.loc().line, 1u);
  }
  EXPECT_THROW((void)sql::lex_sql("SELECT @"), ParseError);
}

// ---------------------------------------------------------------------------
// Parser: statements

TEST(SqlParser, SelectShape) {
  const auto stmt = sql::parse_single(
      "SELECT a, b AS bee, t.c FROM tab t JOIN u ON t.id = u.id "
      "WHERE a > 1 GROUP BY a HAVING COUNT(*) > 2 ORDER BY bee DESC LIMIT 5 "
      "OFFSET 2");
  const auto& select = std::get<sql::SelectStmt>(stmt);
  EXPECT_EQ(select.items.size(), 3u);
  EXPECT_EQ(select.items[1].alias, "bee");
  ASSERT_TRUE(select.from.has_value());
  EXPECT_EQ(select.from->table, "tab");
  EXPECT_EQ(select.from->alias, "t");
  ASSERT_EQ(select.joins.size(), 1u);
  EXPECT_NE(select.where, nullptr);
  EXPECT_EQ(select.group_by.size(), 1u);
  EXPECT_NE(select.having, nullptr);
  ASSERT_EQ(select.order_by.size(), 1u);
  EXPECT_TRUE(select.order_by[0].descending);
  EXPECT_EQ(select.limit, 5u);
  EXPECT_EQ(select.offset, 2u);
}

TEST(SqlParser, SelectStarForms) {
  const auto stmt = sql::parse_single("SELECT *, t.* FROM t");
  const auto& select = std::get<sql::SelectStmt>(stmt);
  ASSERT_EQ(select.items.size(), 2u);
  EXPECT_TRUE(select.items[0].star);
  EXPECT_TRUE(select.items[1].star);
  EXPECT_EQ(select.items[1].star_table, "t");
}

TEST(SqlParser, SelectWithoutFrom) {
  const auto stmt = sql::parse_single("SELECT 1 + 2 * 3");
  const auto& select = std::get<sql::SelectStmt>(stmt);
  EXPECT_FALSE(select.from.has_value());
  // Precedence: 1 + (2 * 3)
  const sql::Expr& e = *select.items[0].expr;
  EXPECT_EQ(e.bin_op, sql::BinOp::kAdd);
  EXPECT_EQ(e.rhs->bin_op, sql::BinOp::kMul);
}

TEST(SqlParser, CreateTable) {
  const auto stmt = sql::parse_single(
      "CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT NOT NULL, "
      "score DOUBLE, at DATETIME)");
  const auto& create = std::get<sql::CreateTableStmt>(stmt);
  EXPECT_EQ(create.schema.name(), "t");
  ASSERT_EQ(create.schema.column_count(), 4u);
  EXPECT_TRUE(create.schema.column(0).primary_key);
  EXPECT_FALSE(create.schema.column(0).nullable);
  EXPECT_FALSE(create.schema.column(1).nullable);
  EXPECT_TRUE(create.schema.column(2).nullable);
  EXPECT_EQ(create.schema.column(3).type, kojak::db::ValueType::kDateTime);
}

TEST(SqlParser, CreateTableIfNotExists) {
  const auto stmt =
      sql::parse_single("CREATE TABLE IF NOT EXISTS t (x INTEGER)");
  EXPECT_TRUE(std::get<sql::CreateTableStmt>(stmt).if_not_exists);
}

TEST(SqlParser, CreateIndex) {
  const auto hash = sql::parse_single("CREATE INDEX i1 ON t (col)");
  EXPECT_FALSE(std::get<sql::CreateIndexStmt>(hash).ordered);
  const auto ordered = sql::parse_single("CREATE ORDERED INDEX i2 ON t (col)");
  EXPECT_TRUE(std::get<sql::CreateIndexStmt>(ordered).ordered);
}

TEST(SqlParser, InsertForms) {
  const auto stmt = sql::parse_single(
      "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')");
  const auto& insert = std::get<sql::InsertStmt>(stmt);
  EXPECT_EQ(insert.columns, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(insert.rows.size(), 2u);

  const auto bare = sql::parse_single("INSERT INTO t VALUES (?, ?)");
  EXPECT_TRUE(std::get<sql::InsertStmt>(bare).columns.empty());
}

TEST(SqlParser, UpdateDeleteDrop) {
  const auto update =
      sql::parse_single("UPDATE t SET a = a + 1, b = 2 WHERE id = 3");
  EXPECT_EQ(std::get<sql::UpdateStmt>(update).assignments.size(), 2u);

  const auto del = sql::parse_single("DELETE FROM t WHERE x IS NULL");
  EXPECT_NE(std::get<sql::DeleteStmt>(del).where, nullptr);

  const auto drop = sql::parse_single("DROP TABLE IF EXISTS t");
  EXPECT_TRUE(std::get<sql::DropTableStmt>(drop).if_exists);
}

TEST(SqlParser, MultiStatementScript) {
  const auto stmts = sql::parse_sql(
      "CREATE TABLE t (x INTEGER); INSERT INTO t VALUES (1); SELECT * FROM t;");
  EXPECT_EQ(stmts.size(), 3u);
}

// ---------------------------------------------------------------------------
// Parser: WITH (non-recursive common table expressions)

TEST(SqlParser, WithClauseShape) {
  const auto stmt = sql::parse_single(
      "WITH a AS (SELECT 1 x), b AS (SELECT x FROM a) "
      "SELECT (SELECT x FROM b), (SELECT x FROM a)");
  const auto& select = std::get<sql::SelectStmt>(stmt);
  ASSERT_EQ(select.ctes.size(), 2u);
  EXPECT_EQ(select.ctes[0].name, "a");
  EXPECT_EQ(select.ctes[1].name, "b");
  ASSERT_NE(select.ctes[1].select, nullptr);
  EXPECT_TRUE(select.ctes[1].select->from.has_value());
  EXPECT_EQ(select.items.size(), 2u);
}

TEST(SqlParser, WithCloneDeepCopies) {
  const auto stmt = sql::parse_single(
      "WITH a AS (SELECT COUNT(*) v FROM t) SELECT (SELECT v FROM a)");
  const auto& select = std::get<sql::SelectStmt>(stmt);
  const auto copy = select.clone();
  ASSERT_EQ(copy->ctes.size(), 1u);
  EXPECT_EQ(copy->ctes[0].name, "a");
  EXPECT_NE(copy->ctes[0].select.get(), select.ctes[0].select.get());
}

TEST(SqlParser, WithDuplicateNamesRejectedWithDiagnostic) {
  try {
    (void)sql::parse_sql(
        "WITH a AS (SELECT 1), a AS (SELECT 2) SELECT 3");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate CTE name 'a'"),
              std::string::npos)
        << e.what();
  }
  // Case-insensitive, like every other name in the engine.
  EXPECT_THROW(
      (void)sql::parse_sql("WITH a AS (SELECT 1), A AS (SELECT 2) SELECT 3"),
      ParseError);
}

TEST(SqlParser, WithSelfReferenceRejectedAsRecursive) {
  try {
    (void)sql::parse_sql("WITH a AS (SELECT x FROM a) SELECT 1");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("recursive"), std::string::npos)
        << e.what();
  }
  // Self-reference buried in a subquery is caught too.
  EXPECT_THROW((void)sql::parse_sql(
                   "WITH a AS (SELECT (SELECT COUNT(*) FROM a)) SELECT 1"),
               ParseError);
  // The explicit RECURSIVE keyword gets its own diagnostic.
  try {
    (void)sql::parse_sql(
        "WITH RECURSIVE a AS (SELECT 1) SELECT 1");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("recursive CTEs are not supported"),
              std::string::npos)
        << e.what();
  }
}

TEST(SqlParser, WithForwardReferenceRejectedWithDiagnostic) {
  try {
    (void)sql::parse_sql(
        "WITH a AS (SELECT x FROM b), b AS (SELECT 1 x) SELECT 1");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("before it is defined"),
              std::string::npos)
        << e.what();
  }
  // Backward references are exactly what WITH is for.
  EXPECT_NO_THROW((void)sql::parse_sql(
      "WITH b AS (SELECT 1 x), a AS (SELECT x FROM b) SELECT 1"));
}

TEST(SqlParser, WithRequiresSelectAfterClause) {
  EXPECT_THROW((void)sql::parse_sql("WITH a AS (SELECT 1)"), ParseError);
  EXPECT_THROW((void)sql::parse_sql("WITH a AS (SELECT 1) INSERT INTO t "
                                    "VALUES (1)"),
               ParseError);
  EXPECT_THROW((void)sql::parse_sql("WITH a (SELECT 1) SELECT 1"), ParseError);
}

// ---------------------------------------------------------------------------
// Parser: expressions

TEST(SqlParser, ExpressionKinds) {
  const auto stmt = sql::parse_single(
      "SELECT x IN (1, 2), y NOT LIKE 'a%', z IS NOT NULL, NOT (a AND b), "
      "COUNT(DISTINCT c), COALESCE(a, b, 0), (SELECT 1)");
  const auto& items = std::get<sql::SelectStmt>(stmt).items;
  EXPECT_EQ(items[0].expr->kind, sql::Expr::Kind::kInList);
  EXPECT_EQ(items[1].expr->kind, sql::Expr::Kind::kLike);
  EXPECT_TRUE(items[1].expr->negated);
  EXPECT_EQ(items[2].expr->kind, sql::Expr::Kind::kIsNull);
  EXPECT_TRUE(items[2].expr->negated);
  EXPECT_EQ(items[3].expr->kind, sql::Expr::Kind::kUnary);
  EXPECT_TRUE(items[4].expr->distinct_arg);
  EXPECT_EQ(items[5].expr->args.size(), 3u);
  EXPECT_EQ(items[6].expr->kind, sql::Expr::Kind::kSubquery);
}

TEST(SqlParser, DateTimeLiteral) {
  const auto stmt = sql::parse_single("SELECT DATETIME '1999-11-05 13:00:00'");
  const auto& e = *std::get<sql::SelectStmt>(stmt).items[0].expr;
  EXPECT_EQ(e.kind, sql::Expr::Kind::kLiteral);
  EXPECT_EQ(e.literal.as_datetime(), 941806800);
}

TEST(SqlParser, ParamNumbering) {
  const auto stmt = sql::parse_single("SELECT ? + ?, ?");
  const auto& items = std::get<sql::SelectStmt>(stmt).items;
  EXPECT_EQ(items[0].expr->lhs->param_index, 0u);
  EXPECT_EQ(items[0].expr->rhs->param_index, 1u);
  EXPECT_EQ(items[1].expr->param_index, 2u);
}

TEST(SqlParser, PrecedenceAndOr) {
  // a OR b AND c parses as a OR (b AND c)
  const auto stmt = sql::parse_single("SELECT a OR b AND c");
  const auto& e = *std::get<sql::SelectStmt>(stmt).items[0].expr;
  EXPECT_EQ(e.bin_op, sql::BinOp::kOr);
  EXPECT_EQ(e.rhs->bin_op, sql::BinOp::kAnd);
}

TEST(SqlParser, CloneDeepCopies) {
  const auto stmt = sql::parse_single("SELECT a + 1 FROM t WHERE b = 2");
  const auto& select = std::get<sql::SelectStmt>(stmt);
  const auto copy = select.clone();
  EXPECT_EQ(copy->items.size(), select.items.size());
  EXPECT_NE(copy->items[0].expr.get(), select.items[0].expr.get());
  EXPECT_EQ(copy->items[0].expr->to_string(), select.items[0].expr->to_string());
}

TEST(SqlParser, ToStringStable) {
  const auto stmt = sql::parse_single("SELECT (a + b) * 2 FROM t");
  EXPECT_EQ(std::get<sql::SelectStmt>(stmt).items[0].expr->to_string(),
            "((a + b) * 2)");
}

// ---------------------------------------------------------------------------
// Parser: errors

struct BadSql {
  const char* label;
  const char* text;
};

class SqlParserError : public ::testing::TestWithParam<BadSql> {};

TEST_P(SqlParserError, Throws) {
  EXPECT_THROW((void)sql::parse_sql(GetParam().text), ParseError);
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, SqlParserError,
    ::testing::Values(
        BadSql{"missing_from_table", "SELECT * FROM"},
        BadSql{"trailing_comma", "SELECT a, FROM t"},
        BadSql{"unclosed_paren", "SELECT (1 + 2"},
        BadSql{"bad_statement", "EXPLAIN SELECT 1"},
        BadSql{"create_missing_type", "CREATE TABLE t (x)"},
        BadSql{"create_unknown_type", "CREATE TABLE t (x BLOB)"},
        BadSql{"insert_no_values", "INSERT INTO t"},
        BadSql{"negative_limit", "SELECT 1 LIMIT -1"},
        BadSql{"lone_not", "SELECT a NOT b"},
        BadSql{"join_without_on", "SELECT * FROM a JOIN b WHERE 1 = 1"},
        BadSql{"two_statements_no_semi", "SELECT 1 SELECT 2"}),
    [](const auto& info) { return info.param.label; });

// ---------------------------------------------------------------------------
// Partitioned-table DDL

TEST(SqlParser, PartitionByHashClause) {
  const auto stmt = sql::parse_single(
      "CREATE TABLE t (a INTEGER, b TEXT) PARTITION BY HASH(b) PARTITIONS 8");
  const auto& create = std::get<sql::CreateTableStmt>(stmt);
  ASSERT_TRUE(create.schema.partition().has_value());
  const kojak::db::PartitionSpec& spec = *create.schema.partition();
  EXPECT_EQ(spec.method, kojak::db::PartitionSpec::Method::kHash);
  EXPECT_EQ(spec.column, "b");
  EXPECT_EQ(spec.partitions, 8u);
}

TEST(SqlParser, PartitionByRangeClause) {
  const auto stmt = sql::parse_single(
      "CREATE TABLE t (a INTEGER, b TEXT) "
      "PARTITION BY RANGE(a) VALUES (-5, 2.5, 10)");
  const auto& create = std::get<sql::CreateTableStmt>(stmt);
  ASSERT_TRUE(create.schema.partition().has_value());
  const kojak::db::PartitionSpec& spec = *create.schema.partition();
  EXPECT_EQ(spec.method, kojak::db::PartitionSpec::Method::kRange);
  EXPECT_EQ(spec.column, "a");
  EXPECT_EQ(spec.partitions, 4u);  // 3 bounds + overflow
  ASSERT_EQ(spec.range_bounds.size(), 3u);
  EXPECT_EQ(spec.range_bounds[0].as_int(), -5);
  EXPECT_DOUBLE_EQ(spec.range_bounds[1].as_double(), 2.5);
}

TEST(SqlParser, PartitionClauseDiagnostics) {
  // Unknown partition column, located at the column token.
  try {
    (void)sql::parse_single(
        "CREATE TABLE t (a INTEGER) PARTITION BY HASH(nope) PARTITIONS 4");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown partition column 'nope'"),
              std::string::npos)
        << e.what();
    EXPECT_EQ(e.loc().line, 1u);
  }
  // Count must be a positive integer within the supported cap.
  EXPECT_THROW((void)sql::parse_single(
                   "CREATE TABLE t (a INTEGER) PARTITION BY HASH(a) "
                   "PARTITIONS 0"),
               ParseError);
  EXPECT_THROW((void)sql::parse_single(
                   "CREATE TABLE t (a INTEGER) PARTITION BY HASH(a) "
                   "PARTITIONS 99999"),
               ParseError);
  // Only HASH and RANGE methods exist.
  EXPECT_THROW((void)sql::parse_single(
                   "CREATE TABLE t (a INTEGER) PARTITION BY LIST(a) "
                   "PARTITIONS 2"),
               ParseError);
  // Range bounds: literals only, strictly ascending.
  EXPECT_THROW((void)sql::parse_single(
                   "CREATE TABLE t (a INTEGER) PARTITION BY RANGE(a) "
                   "VALUES (20, 10)"),
               ParseError);
  EXPECT_THROW((void)sql::parse_single(
                   "CREATE TABLE t (a INTEGER) PARTITION BY RANGE(a) "
                   "VALUES (5, 5)"),
               ParseError);
  EXPECT_THROW((void)sql::parse_single(
                   "CREATE TABLE t (a INTEGER) PARTITION BY RANGE(a) "
                   "VALUES (a + 1)"),
               ParseError);
}

TEST(SqlParser, PartitionSelectorOnTableRefs) {
  // `FROM t PARTITION (k)` pins the scan to one partition; alias forms and
  // JOIN positions all accept it.
  const auto stmt = sql::parse_single(
      "SELECT x.a FROM t PARTITION (2) x JOIN u PARTITION (0) ON u.id = x.a");
  const auto& select = std::get<sql::SelectStmt>(stmt);
  ASSERT_TRUE(select.from.has_value());
  ASSERT_TRUE(select.from->partition.has_value());
  EXPECT_EQ(*select.from->partition, 2u);
  EXPECT_EQ(select.from->alias, "x");
  ASSERT_EQ(select.joins.size(), 1u);
  ASSERT_TRUE(select.joins[0].table.partition.has_value());
  EXPECT_EQ(*select.joins[0].table.partition, 0u);

  // A bare `PARTITION` without parentheses stays a legal alias.
  const auto aliased = sql::parse_single("SELECT 1 FROM t PARTITION");
  EXPECT_EQ(std::get<sql::SelectStmt>(aliased).from->alias, "PARTITION");
  EXPECT_FALSE(std::get<sql::SelectStmt>(aliased).from->partition.has_value());

  // The selector survives statement cloning (subquery materialization
  // executes clones).
  const auto cloned = std::get<sql::SelectStmt>(stmt).clone();
  ASSERT_TRUE(cloned->from->partition.has_value());
  EXPECT_EQ(*cloned->from->partition, 2u);

  // Selector index must be a non-negative integer literal.
  EXPECT_THROW((void)sql::parse_single("SELECT 1 FROM t PARTITION (x)"),
               ParseError);
  EXPECT_THROW((void)sql::parse_single("SELECT 1 FROM t PARTITION (-1)"),
               ParseError);
}

TEST(SqlParser, PartitionSelectorOnCteIsALocatedDiagnostic) {
  // CTEs are temp results without partitions: selecting a partition of one
  // must fail at parse time, anchored at the offending reference —
  // previously only catalog tables were validated and the mistake
  // surfaced (if at all) at execution time.
  try {
    (void)sql::parse_single(
        "WITH tmp AS (SELECT 1 AS v)\n"
        "SELECT v FROM tmp PARTITION (0)");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("PARTITION selector on CTE 'tmp'"),
              std::string::npos)
        << e.what();
    EXPECT_EQ(e.loc().line, 2u);
    EXPECT_EQ(e.loc().column, 15u);  // anchored at the table reference
  }
  // The same inside a later CTE body or a nested subquery.
  EXPECT_THROW((void)sql::parse_single(
                   "WITH a AS (SELECT 1 AS v), "
                   "b AS (SELECT v FROM a PARTITION (1)) SELECT v FROM b"),
               ParseError);
  EXPECT_THROW((void)sql::parse_single(
                   "WITH a AS (SELECT 1 AS v) "
                   "SELECT (SELECT v FROM a PARTITION (0))"),
               ParseError);
  // Catalog-table selectors inside a WITH statement stay legal (the
  // rewrite's shard CTEs are exactly this shape).
  EXPECT_NO_THROW((void)sql::parse_single(
      "WITH s0 AS (SELECT COUNT(*) AS v FROM t PARTITION (0)) "
      "SELECT (SELECT v FROM s0)"));
}

// ---------------------------------------------------------------------------
// parse_single: exactly one statement

TEST(SqlParser, ParseSingleRejectsMultiStatementScripts) {
  // Silently taking the first (or last) statement of a script is how
  // prepare() bugs hide; the second statement must be a located error.
  try {
    (void)sql::parse_single("SELECT 1; SELECT 2");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("exactly one statement"),
              std::string::npos)
        << e.what();
    EXPECT_EQ(e.loc().line, 1u);
    EXPECT_EQ(e.loc().column, 11u);  // anchored at the second SELECT
  }
  // Leading/trailing semicolons around ONE statement stay legal.
  EXPECT_NO_THROW((void)sql::parse_single("SELECT 1;"));
  EXPECT_NO_THROW((void)sql::parse_single(";;SELECT 1;;"));
  EXPECT_THROW((void)sql::parse_single(""), ParseError);
  EXPECT_THROW((void)sql::parse_single(";"), ParseError);
}

// ---------------------------------------------------------------------------
// render_select_sql: SELECT -> text with `?` placeholders in text order

namespace {

std::string render_rows(const db::QueryResult& result) {
  std::string out;
  for (const db::Row& row : result.rows) {
    for (const db::Value& value : row) out += value.to_display() + "|";
    out += "\n";
  }
  return out;
}

}  // namespace

TEST(SqlRender, ShardRenderingRoundTripsTextAndParamOrder) {
  db::Database db;
  db.execute("CREATE TABLE t (a INTEGER, b DOUBLE)");
  db::PreparedStatement stmt = db.prepare(
      "SELECT COALESCE(SUM(b), 0.0) AS s FROM t WHERE a > ? AND b < ?");
  auto* select = std::get_if<sql::SelectStmt>(&stmt.ast());
  ASSERT_NE(select, nullptr);
  std::string text;
  std::vector<std::size_t> order;
  ASSERT_TRUE(sql::render_select_sql(*select, text, order));
  // The rendered text re-parses and the placeholders keep their order.
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1}));
  db.execute("INSERT INTO t VALUES (5, 1.5)");
  const std::vector<db::Value> params = {db::Value::integer(1),
                                         db::Value::real(9.0)};
  EXPECT_EQ(render_rows(db.execute(text, params)),
            render_rows(db.execute(stmt, params)));
}

// The shard cache keys every partition-pinned CTE on its rendered text, and
// a body that fails to render silently stays uncacheable. Pin the renderer
// over every such body of the COSY suite on the monitoring layout (timing
// junctions member-partitioned, so the partition-union rewrite fires): each
// renders, the text re-parses, and rendering the re-parsed body reproduces
// the text with its placeholders numbered in text order — a fixed point.
TEST(SqlRender, CosyShardCteBodiesRenderToAFixedPoint) {
  const kojak::asl::Model model = cosy::load_cosy_model();
  db::Database database;
  cosy::SchemaOptions schema;
  schema.junction_partitions.push_back({"Region", "TotTimes", "member", 8});
  schema.junction_partitions.push_back({"Region", "TypTimes", "member", 8});
  cosy::create_schema(database, model, schema);
  db::Connection conn(database, db::ConnectionProfile::in_memory());
  cosy::SqlEvaluator eval(model, conn, cosy::SqlEvalMode::kWholeCondition);

  std::size_t bodies = 0;
  for (const kojak::asl::PropertyInfo& prop : model.properties()) {
    const sql::Statement parsed =
        sql::parse_single(eval.explain_whole_condition(prop));
    const auto& statement = std::get<sql::SelectStmt>(parsed);
    // The shard cache's structural rule: no nested CTEs, catalog tables
    // only, at least one partition-pinned scan.
    for (const sql::CommonTableExpr& cte : statement.ctes) {
      const sql::SelectStmt& body = *cte.select;
      if (!body.ctes.empty()) continue;
      bool catalog_only = true;
      bool pinned = false;
      sql::for_each_table_ref(body, [&](const sql::TableRef& ref) {
        if (database.find_table(ref.table) == nullptr) catalog_only = false;
        if (ref.partition) pinned = true;
      });
      if (!catalog_only || !pinned) continue;
      ++bodies;
      SCOPED_TRACE(prop.name + " / " + cte.name);

      std::string text;
      std::vector<std::size_t> order;
      ASSERT_TRUE(sql::render_select_sql(body, text, order));
      const sql::Statement reparsed = sql::parse_single(text);
      std::string again;
      std::vector<std::size_t> again_order;
      ASSERT_TRUE(sql::render_select_sql(std::get<sql::SelectStmt>(reparsed),
                                         again, again_order));
      EXPECT_EQ(again, text);
      // A re-parse numbers `?` sequentially, so the fixed point of `order`
      // is the identity over the same number of placeholders.
      std::vector<std::size_t> sequential(order.size());
      std::iota(sequential.begin(), sequential.end(), std::size_t{0});
      EXPECT_EQ(again_order, sequential);
    }
  }
  EXPECT_GT(bodies, 0u);
}

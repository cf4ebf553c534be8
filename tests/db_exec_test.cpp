#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "db/database.hpp"
#include "db/sql/parser.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/str.hpp"

namespace kdb = kojak::db;
using kdb::Database;
using kdb::QueryResult;
using kdb::Value;
using kojak::support::EvalError;

namespace {

/// Fresh database with a small, representative population.
Database make_db() {
  Database db;
  db.execute(
      "CREATE TABLE emp (id INTEGER PRIMARY KEY, name TEXT, dept INTEGER, "
      "salary DOUBLE, hired DATETIME);"
      "CREATE TABLE dept (id INTEGER PRIMARY KEY, name TEXT);"
      "INSERT INTO dept VALUES (1, 'dev'), (2, 'ops'), (3, 'empty');"
      "INSERT INTO emp VALUES "
      "(1, 'ada', 1, 100.0, DATETIME '1999-01-01'),"
      "(2, 'bob', 1, 80.0, DATETIME '1999-02-01'),"
      "(3, 'cyd', 2, 120.0, DATETIME '1999-03-01'),"
      "(4, 'dee', 2, 120.0, DATETIME '1999-04-01'),"
      "(5, 'eve', NULL, NULL, NULL);");
  return db;
}

}  // namespace

TEST(Exec, SelectAllColumnsAndNames) {
  Database db = make_db();
  const QueryResult result = db.execute("SELECT * FROM emp");
  EXPECT_EQ(result.row_count(), 5u);
  ASSERT_EQ(result.columns.size(), 5u);
  EXPECT_EQ(result.columns[0], "id");
  EXPECT_EQ(result.column_index("SALARY"), 3u);  // case-insensitive
}

TEST(Exec, SelectExpressionsWithoutFrom) {
  Database db;
  const QueryResult result = db.execute("SELECT 1 + 2 AS three, 'x', TRUE");
  ASSERT_EQ(result.row_count(), 1u);
  EXPECT_EQ(result.at(0, 0).as_int(), 3);
  EXPECT_EQ(result.columns[0], "three");
  EXPECT_EQ(result.at(0, 1).as_string(), "x");
  EXPECT_TRUE(result.at(0, 2).as_bool());
}

TEST(Exec, WhereFilters) {
  Database db = make_db();
  EXPECT_EQ(db.execute("SELECT id FROM emp WHERE salary > 90").row_count(), 3u);
  EXPECT_EQ(db.execute("SELECT id FROM emp WHERE dept = 1 AND salary >= 100")
                .row_count(),
            1u);
  EXPECT_EQ(db.execute("SELECT id FROM emp WHERE name LIKE '%e%'").row_count(),
            2u);  // dee, eve
  EXPECT_EQ(
      db.execute("SELECT id FROM emp WHERE hired >= DATETIME '1999-03-01'")
          .row_count(),
      2u);
}

TEST(Exec, NullSemantics) {
  Database db = make_db();
  // NULL comparisons are unknown -> filtered out.
  EXPECT_EQ(db.execute("SELECT id FROM emp WHERE salary > 0").row_count(), 4u);
  EXPECT_EQ(db.execute("SELECT id FROM emp WHERE salary IS NULL").row_count(), 1u);
  EXPECT_EQ(db.execute("SELECT id FROM emp WHERE salary IS NOT NULL").row_count(),
            4u);
  // FALSE AND NULL is FALSE; TRUE OR NULL is TRUE (three-valued logic).
  EXPECT_EQ(db.execute("SELECT id FROM emp WHERE salary > 1e9 AND dept = 1")
                .row_count(),
            0u);
  EXPECT_EQ(db.execute("SELECT id FROM emp WHERE id = 5 AND (id = 5 OR salary > 0)")
                .row_count(),
            1u);
  // IN with NULL needle yields unknown.
  EXPECT_EQ(db.execute("SELECT id FROM emp WHERE salary IN (100.0)").row_count(),
            1u);
}

TEST(Exec, ScalarFunctions) {
  Database db;
  const QueryResult result = db.execute(
      "SELECT ABS(-3), SQRT(9.0), FLOOR(2.7), CEIL(2.1), ROUND(2.456, 2), "
      "LENGTH('abc'), UPPER('aB'), LOWER('aB'), COALESCE(NULL, NULL, 7), "
      "IIF(1 < 2, 'yes', 'no'), NULLIF(3, 3)");
  EXPECT_EQ(result.at(0, 0).as_int(), 3);
  EXPECT_DOUBLE_EQ(result.at(0, 1).as_double(), 3.0);
  EXPECT_DOUBLE_EQ(result.at(0, 2).as_double(), 2.0);
  EXPECT_DOUBLE_EQ(result.at(0, 3).as_double(), 3.0);
  EXPECT_DOUBLE_EQ(result.at(0, 4).as_double(), 2.46);
  EXPECT_EQ(result.at(0, 5).as_int(), 3);
  EXPECT_EQ(result.at(0, 6).as_string(), "AB");
  EXPECT_EQ(result.at(0, 7).as_string(), "ab");
  EXPECT_EQ(result.at(0, 8).as_int(), 7);
  EXPECT_EQ(result.at(0, 9).as_string(), "yes");
  EXPECT_TRUE(result.at(0, 10).is_null());
}

TEST(Exec, LikePatterns) {
  Database db;
  const auto like = [&](const char* text, const char* pattern) {
    return db
        .execute(kojak::support::cat("SELECT ", kojak::support::sql_quote(text),
                                     " LIKE ",
                                     kojak::support::sql_quote(pattern)))
        .at(0, 0)
        .as_bool();
  };
  EXPECT_TRUE(like("hello", "h%o"));
  EXPECT_TRUE(like("hello", "_ello"));
  EXPECT_TRUE(like("hello", "%"));
  EXPECT_FALSE(like("hello", "h_o"));
  EXPECT_TRUE(like("", "%"));
  EXPECT_FALSE(like("", "_"));
  EXPECT_TRUE(like("a%b", "a%b"));
}

TEST(Exec, Joins) {
  Database db = make_db();
  const QueryResult result = db.execute(
      "SELECT e.name, d.name FROM emp e JOIN dept d ON e.dept = d.id "
      "ORDER BY e.id");
  ASSERT_EQ(result.row_count(), 4u);  // eve has NULL dept
  EXPECT_EQ(result.at(0, 1).as_string(), "dev");
  EXPECT_EQ(result.at(2, 1).as_string(), "ops");
}

TEST(Exec, JoinHashEqualsNestedLoop) {
  Database db = make_db();
  // Same join expressed as equi-join (hash path) and via CROSS + WHERE
  // (nested path) must agree.
  const QueryResult hash = db.execute(
      "SELECT e.id, d.id FROM emp e JOIN dept d ON e.dept = d.id ORDER BY 1, 2");
  const QueryResult cross = db.execute(
      "SELECT e.id, d.id FROM emp e CROSS JOIN dept d WHERE e.dept = d.id "
      "ORDER BY 1, 2");
  ASSERT_EQ(hash.row_count(), cross.row_count());
  for (std::size_t r = 0; r < hash.row_count(); ++r) {
    EXPECT_EQ(hash.at(r, 0).as_int(), cross.at(r, 0).as_int());
    EXPECT_EQ(hash.at(r, 1).as_int(), cross.at(r, 1).as_int());
  }
}

TEST(Exec, JoinWithExtraConjunct) {
  Database db = make_db();
  const QueryResult result = db.execute(
      "SELECT e.id FROM emp e JOIN dept d ON e.dept = d.id AND d.name = 'ops' "
      "ORDER BY 1");
  ASSERT_EQ(result.row_count(), 2u);
  EXPECT_EQ(result.at(0, 0).as_int(), 3);
}

TEST(Exec, ThreeWayJoin) {
  Database db = make_db();
  db.execute(
      "CREATE TABLE badge (emp INTEGER, code TEXT);"
      "INSERT INTO badge VALUES (1, 'A'), (3, 'B'), (3, 'C')");
  const QueryResult result = db.execute(
      "SELECT e.name, d.name, b.code FROM emp e JOIN dept d ON e.dept = d.id "
      "JOIN badge b ON b.emp = e.id ORDER BY b.code");
  ASSERT_EQ(result.row_count(), 3u);
  EXPECT_EQ(result.at(2, 2).as_string(), "C");
}

TEST(Exec, GroupByAggregates) {
  Database db = make_db();
  const QueryResult result = db.execute(
      "SELECT dept, COUNT(*), SUM(salary), AVG(salary), MIN(salary), "
      "MAX(salary) FROM emp WHERE dept IS NOT NULL GROUP BY dept ORDER BY dept");
  ASSERT_EQ(result.row_count(), 2u);
  EXPECT_EQ(result.at(0, 1).as_int(), 2);
  EXPECT_DOUBLE_EQ(result.at(0, 2).as_double(), 180.0);
  EXPECT_DOUBLE_EQ(result.at(0, 3).as_double(), 90.0);
  EXPECT_DOUBLE_EQ(result.at(1, 4).as_double(), 120.0);
  EXPECT_DOUBLE_EQ(result.at(1, 5).as_double(), 120.0);
}

TEST(Exec, AggregatesSkipNulls) {
  Database db = make_db();
  const QueryResult result =
      db.execute("SELECT COUNT(*), COUNT(salary), AVG(salary) FROM emp");
  EXPECT_EQ(result.at(0, 0).as_int(), 5);
  EXPECT_EQ(result.at(0, 1).as_int(), 4);
  EXPECT_DOUBLE_EQ(result.at(0, 2).as_double(), 105.0);
}

TEST(Exec, GlobalAggregateOverEmptyInput) {
  Database db = make_db();
  const QueryResult result = db.execute(
      "SELECT COUNT(*), SUM(salary), MIN(salary) FROM emp WHERE id > 100");
  ASSERT_EQ(result.row_count(), 1u);
  EXPECT_EQ(result.at(0, 0).as_int(), 0);
  EXPECT_TRUE(result.at(0, 1).is_null());
  EXPECT_TRUE(result.at(0, 2).is_null());
}

TEST(Exec, StddevMatchesSampleFormula) {
  Database db = make_db();
  const QueryResult result = db.execute(
      "SELECT STDDEV(salary), VARIANCE(salary) FROM emp WHERE dept = 2");
  // Two equal values: zero spread.
  EXPECT_DOUBLE_EQ(result.at(0, 0).as_double(), 0.0);
  const QueryResult spread =
      db.execute("SELECT STDDEV(salary) FROM emp WHERE dept = 1");
  // {100, 80}: sample stddev = sqrt(200) ~ 14.1421
  EXPECT_NEAR(spread.at(0, 0).as_double(), 14.142135623730951, 1e-9);
}

TEST(Exec, CountDistinct) {
  Database db = make_db();
  const QueryResult result =
      db.execute("SELECT COUNT(DISTINCT salary) FROM emp");
  EXPECT_EQ(result.at(0, 0).as_int(), 3);  // 100, 80, 120 (NULL skipped)
}

TEST(Exec, Having) {
  Database db = make_db();
  const QueryResult result = db.execute(
      "SELECT dept, COUNT(*) AS n FROM emp WHERE dept IS NOT NULL "
      "GROUP BY dept HAVING SUM(salary) > 200 ORDER BY dept");
  ASSERT_EQ(result.row_count(), 1u);
  EXPECT_EQ(result.at(0, 0).as_int(), 2);
}

TEST(Exec, AggregateExpressionArithmetic) {
  Database db = make_db();
  const QueryResult result = db.execute(
      "SELECT SUM(salary) / COUNT(salary) FROM emp WHERE dept IS NOT NULL");
  EXPECT_DOUBLE_EQ(result.at(0, 0).as_double(), 105.0);
}

TEST(Exec, Distinct) {
  Database db = make_db();
  EXPECT_EQ(db.execute("SELECT DISTINCT salary FROM emp").row_count(), 4u);
  EXPECT_EQ(db.execute("SELECT DISTINCT dept FROM emp").row_count(), 3u);
}

TEST(Exec, OrderByVariants) {
  Database db = make_db();
  // By alias.
  QueryResult result =
      db.execute("SELECT name AS n FROM emp ORDER BY n DESC LIMIT 1");
  EXPECT_EQ(result.at(0, 0).as_string(), "eve");
  // By ordinal.
  result = db.execute("SELECT salary, name FROM emp ORDER BY 1 DESC, 2 LIMIT 2");
  EXPECT_EQ(result.at(0, 1).as_string(), "cyd");
  EXPECT_EQ(result.at(1, 1).as_string(), "dee");
  // NULLs sort first under the total order.
  result = db.execute("SELECT salary FROM emp ORDER BY salary");
  EXPECT_TRUE(result.at(0, 0).is_null());
  // By expression not in the select list.
  result = db.execute("SELECT name FROM emp ORDER BY id DESC LIMIT 1");
  EXPECT_EQ(result.at(0, 0).as_string(), "eve");
}

TEST(Exec, OrderByAggregate) {
  Database db = make_db();
  const QueryResult result = db.execute(
      "SELECT dept FROM emp WHERE dept IS NOT NULL GROUP BY dept "
      "ORDER BY SUM(salary) DESC");
  EXPECT_EQ(result.at(0, 0).as_int(), 2);
}

TEST(Exec, LimitOffset) {
  Database db = make_db();
  const QueryResult result =
      db.execute("SELECT id FROM emp ORDER BY id LIMIT 2 OFFSET 1");
  ASSERT_EQ(result.row_count(), 2u);
  EXPECT_EQ(result.at(0, 0).as_int(), 2);
  EXPECT_EQ(result.at(1, 0).as_int(), 3);
  EXPECT_EQ(db.execute("SELECT id FROM emp LIMIT 0").row_count(), 0u);
  EXPECT_EQ(db.execute("SELECT id FROM emp LIMIT 99 OFFSET 10").row_count(), 0u);
}

TEST(Exec, UpdateAndDelete) {
  Database db = make_db();
  QueryResult result = db.execute("UPDATE emp SET salary = salary * 2 WHERE dept = 1");
  EXPECT_EQ(result.affected_rows, 2u);
  EXPECT_DOUBLE_EQ(
      db.execute("SELECT salary FROM emp WHERE id = 1").at(0, 0).as_double(),
      200.0);
  result = db.execute("DELETE FROM emp WHERE dept = 2");
  EXPECT_EQ(result.affected_rows, 2u);
  EXPECT_EQ(db.execute("SELECT COUNT(*) FROM emp").at(0, 0).as_int(), 3);
}

TEST(Exec, PreparedStatementWithParams) {
  Database db = make_db();
  kdb::PreparedStatement stmt =
      db.prepare("SELECT name FROM emp WHERE dept = ? AND salary >= ?");
  const std::vector<Value> params = {Value::integer(2), Value::real(100.0)};
  const QueryResult result = db.execute(stmt, params);
  EXPECT_EQ(result.row_count(), 2u);
  // Re-execution with different params.
  const std::vector<Value> params2 = {Value::integer(1), Value::real(90.0)};
  EXPECT_EQ(db.execute(stmt, params2).row_count(), 1u);
}

TEST(Exec, MissingParamThrows) {
  Database db = make_db();
  EXPECT_THROW(db.execute("SELECT * FROM emp WHERE id = ?"), EvalError);
}

TEST(Exec, ScalarSubquery) {
  Database db = make_db();
  const QueryResult result = db.execute(
      "SELECT name FROM emp WHERE salary = (SELECT MAX(salary) FROM emp) "
      "ORDER BY id");
  ASSERT_EQ(result.row_count(), 2u);
  EXPECT_EQ(result.at(0, 0).as_string(), "cyd");
}

TEST(Exec, SubqueryEmptyIsNull) {
  Database db = make_db();
  const QueryResult result =
      db.execute("SELECT (SELECT id FROM emp WHERE id > 100)");
  EXPECT_TRUE(result.at(0, 0).is_null());
}

TEST(Exec, SubqueryMultiRowThrows) {
  Database db = make_db();
  EXPECT_THROW(db.execute("SELECT (SELECT id FROM emp)"), EvalError);
}

TEST(Exec, UncorrelatedSubqueryMemoizedWithinOneExecution) {
  // Structurally identical uncorrelated subqueries execute once per
  // statement execution; later occurrences come from the per-statement
  // memo. Distinct shapes still execute separately.
  Database db = make_db();
  const auto before = db.exec_stats();
  const QueryResult result = db.execute(
      "SELECT (SELECT MAX(salary) FROM emp) + (SELECT MAX(salary) FROM emp), "
      "(SELECT MIN(salary) FROM emp)");
  const auto after = db.exec_stats();
  EXPECT_DOUBLE_EQ(result.at(0, 0).as_double(), 240.0);
  EXPECT_EQ(after.subquery_executions - before.subquery_executions, 2u);
  EXPECT_EQ(after.subquery_memo_hits - before.subquery_memo_hits, 1u);

  // The memo is per execution, not per statement object: running the text
  // again re-executes both distinct shapes.
  db.execute(
      "SELECT (SELECT MAX(salary) FROM emp) + (SELECT MAX(salary) FROM emp), "
      "(SELECT MIN(salary) FROM emp)");
  const auto again = db.exec_stats();
  EXPECT_EQ(again.subquery_executions - after.subquery_executions, 2u);
}

TEST(Exec, SubqueriesWithDifferentParamsAreNotShared) {
  Database db = make_db();
  const std::vector<Value> params = {Value::integer(1), Value::integer(2)};
  const auto before = db.exec_stats();
  const QueryResult result = db.execute(
      "SELECT (SELECT COUNT(*) FROM emp WHERE dept = ?), "
      "(SELECT COUNT(*) FROM emp WHERE dept = ?)",
      params);
  const auto after = db.exec_stats();
  EXPECT_EQ(result.at(0, 0).as_int(), 2);
  EXPECT_EQ(result.at(0, 1).as_int(), 2);
  // Different parameter indices -> different shapes -> no memo sharing.
  EXPECT_EQ(after.subquery_executions - before.subquery_executions, 2u);
  EXPECT_EQ(after.subquery_memo_hits - before.subquery_memo_hits, 0u);
}

// ---------------------------------------------------------------------------
// WITH / common table expressions

TEST(Exec, CteMaterializesOncePerExecution) {
  Database db = make_db();
  const auto before = db.exec_stats();
  const QueryResult result = db.execute(
      "WITH top AS (SELECT MAX(salary) AS v FROM emp) "
      "SELECT (SELECT v FROM top) + (SELECT v FROM top), (SELECT v FROM top)");
  const auto after = db.exec_stats();
  EXPECT_DOUBLE_EQ(result.at(0, 0).as_double(), 240.0);
  EXPECT_DOUBLE_EQ(result.at(0, 1).as_double(), 120.0);
  // The CTE body ran exactly once; the three references scanned the
  // materialized row (one real reference scan + two memo hits).
  EXPECT_EQ(after.cte_materializations - before.cte_materializations, 1u);
  EXPECT_EQ(after.subquery_executions - before.subquery_executions, 1u);
  EXPECT_EQ(after.subquery_memo_hits - before.subquery_memo_hits, 2u);
}

TEST(Exec, CteUsableInFromAndJoins) {
  Database db = make_db();
  const QueryResult from_cte = db.execute(
      "WITH rich AS (SELECT id, name, salary FROM emp WHERE salary > 90) "
      "SELECT name FROM rich ORDER BY id");
  ASSERT_EQ(from_cte.row_count(), 3u);
  EXPECT_EQ(from_cte.at(0, 0).as_string(), "ada");

  const QueryResult joined = db.execute(
      "WITH rich AS (SELECT id, name, dept FROM emp WHERE salary > 90) "
      "SELECT rich.name, dept.name FROM rich JOIN dept ON dept.id = rich.dept "
      "ORDER BY rich.id");
  ASSERT_EQ(joined.row_count(), 3u);
  EXPECT_EQ(joined.at(0, 1).as_string(), "dev");

  // SELECT * over a CTE expands the CTE's column list.
  const QueryResult star = db.execute(
      "WITH two AS (SELECT id, name FROM emp WHERE dept = 2) "
      "SELECT * FROM two ORDER BY id");
  ASSERT_EQ(star.columns.size(), 2u);
  EXPECT_EQ(star.columns[1], "name");
  EXPECT_EQ(star.row_count(), 2u);
}

TEST(Exec, CteChainsReferenceEarlierEntries) {
  Database db = make_db();
  const QueryResult result = db.execute(
      "WITH per_dept AS (SELECT dept, SUM(salary) AS total FROM emp "
      "WHERE dept IS NOT NULL GROUP BY dept), "
      "best AS (SELECT MAX(total) AS v FROM per_dept) "
      "SELECT (SELECT v FROM best)");
  EXPECT_DOUBLE_EQ(result.at(0, 0).as_double(), 240.0);
}

TEST(Exec, CteShadowsTableOfTheSameName) {
  Database db = make_db();
  const QueryResult result = db.execute(
      "WITH emp AS (SELECT 42 AS id) SELECT id FROM emp");
  ASSERT_EQ(result.row_count(), 1u);
  EXPECT_EQ(result.at(0, 0).as_int(), 42);
}

TEST(Exec, CteAggregationOverDerivedRows) {
  Database db = make_db();
  const QueryResult result = db.execute(
      "WITH rich AS (SELECT salary FROM emp WHERE salary > 90) "
      "SELECT COUNT(*), AVG(salary) FROM rich");
  EXPECT_EQ(result.at(0, 0).as_int(), 3);
  EXPECT_DOUBLE_EQ(result.at(0, 1).as_double(), (100.0 + 120.0 + 120.0) / 3);
}

TEST(Exec, CteScalarReferenceKeepsCardinalityRules) {
  Database db = make_db();
  // The CTE itself may hold many rows; a scalar reference to it enforces
  // the one-row rule exactly like any scalar subquery.
  EXPECT_THROW(db.execute("WITH all_ids AS (SELECT id FROM emp) "
                          "SELECT (SELECT id FROM all_ids)"),
               EvalError);
  const QueryResult empty = db.execute(
      "WITH none AS (SELECT id FROM emp WHERE id > 100) "
      "SELECT (SELECT id FROM none)");
  EXPECT_TRUE(empty.at(0, 0).is_null());
}

TEST(Exec, PrimaryKeyUniqueness) {
  Database db = make_db();
  EXPECT_THROW(db.execute("INSERT INTO dept VALUES (1, 'dup')"), EvalError);
  // NOT NULL enforcement on the key.
  EXPECT_THROW(db.execute("INSERT INTO dept VALUES (NULL, 'x')"), EvalError);
}

TEST(Exec, InsertColumnSubset) {
  Database db = make_db();
  db.execute("INSERT INTO emp (id, name) VALUES (9, 'zed')");
  const QueryResult result =
      db.execute("SELECT dept, salary FROM emp WHERE id = 9");
  EXPECT_TRUE(result.at(0, 0).is_null());
  EXPECT_TRUE(result.at(0, 1).is_null());
}

TEST(Exec, DropTableSemantics) {
  Database db = make_db();
  db.execute("DROP TABLE dept");
  EXPECT_THROW(db.execute("SELECT * FROM dept"), EvalError);
  db.execute("DROP TABLE IF EXISTS dept");  // no-op
  EXPECT_THROW(db.execute("DROP TABLE dept"), EvalError);
}

// ---------------------------------------------------------------------------
// Index correctness: indexed access path must agree with full scans.

class IndexEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(IndexEquivalence, IndexedQueriesMatchScans) {
  kojak::support::Rng rng(GetParam());
  Database with_index, without_index;
  for (Database* db : {&with_index, &without_index}) {
    db->execute("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, v DOUBLE)");
  }
  with_index.execute("CREATE INDEX idx_k ON t (k)");

  for (int i = 0; i < 500; ++i) {
    const std::string insert = kojak::support::cat(
        "INSERT INTO t VALUES (", i, ", ", rng.uniform_int(0, 20), ", ",
        kojak::support::format_double(rng.uniform(0, 100)), ")");
    with_index.execute(insert);
    without_index.execute(insert);
  }
  // Mutate both: deletes and updates must keep indexes in sync.
  for (const char* mutation :
       {"DELETE FROM t WHERE k = 3", "UPDATE t SET k = 7 WHERE k = 5"}) {
    with_index.execute(mutation);
    without_index.execute(mutation);
  }

  for (int key = 0; key <= 21; ++key) {
    const std::string q = kojak::support::cat(
        "SELECT id, v FROM t WHERE k = ", key, " ORDER BY id");
    const QueryResult a = with_index.execute(q);
    const QueryResult b = without_index.execute(q);
    ASSERT_EQ(a.row_count(), b.row_count()) << q;
    for (std::size_t r = 0; r < a.row_count(); ++r) {
      EXPECT_EQ(a.at(r, 0).as_int(), b.at(r, 0).as_int());
      EXPECT_DOUBLE_EQ(a.at(r, 1).as_double(), b.at(r, 1).as_double());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexEquivalence, ::testing::Values(1, 2, 3, 7));

// ---------------------------------------------------------------------------
// Errors

TEST(ExecErrors, UnknownEntities) {
  Database db = make_db();
  EXPECT_THROW(db.execute("SELECT * FROM nope"), EvalError);
  EXPECT_THROW(db.execute("SELECT nope FROM emp"), EvalError);
  EXPECT_THROW(db.execute("SELECT x.name FROM emp"), EvalError);
  EXPECT_THROW(db.execute("INSERT INTO emp (nope) VALUES (1)"), EvalError);
  EXPECT_THROW(db.execute("CREATE INDEX i ON emp (nope)"), EvalError);
}

TEST(ExecErrors, AmbiguousColumn) {
  Database db = make_db();
  EXPECT_THROW(
      db.execute("SELECT name FROM emp e JOIN dept d ON e.dept = d.id"),
      EvalError);
}

TEST(ExecErrors, AggregateInWhere) {
  Database db = make_db();
  EXPECT_THROW(db.execute("SELECT id FROM emp WHERE SUM(salary) > 0"),
               EvalError);
}

TEST(ExecErrors, NestedAggregate) {
  Database db = make_db();
  EXPECT_THROW(db.execute("SELECT SUM(MAX(salary)) FROM emp"), EvalError);
}

TEST(ExecErrors, DuplicateAlias) {
  Database db = make_db();
  EXPECT_THROW(
      db.execute("SELECT 1 FROM emp e JOIN dept e ON 1 = 1"), EvalError);
}

TEST(ExecErrors, ArityMismatch) {
  Database db = make_db();
  EXPECT_THROW(db.execute("INSERT INTO dept VALUES (10)"), EvalError);
  EXPECT_THROW(db.execute("SELECT ABS(1, 2)"), EvalError);
  EXPECT_THROW(db.execute("SELECT NOPEFN(1)"), EvalError);
}

TEST(ExecErrors, OrderByOrdinalOutOfRange) {
  Database db = make_db();
  EXPECT_THROW(db.execute("SELECT id FROM emp ORDER BY 2"), EvalError);
}

TEST(Exec, TotalRowsBookkeeping) {
  Database db = make_db();
  EXPECT_EQ(db.total_rows(), 8u);
  db.execute("DELETE FROM emp WHERE id = 1");
  EXPECT_EQ(db.total_rows(), 7u);
  EXPECT_EQ(db.table_names().size(), 2u);
}

// ---------------------------------------------------------------------------
// Partitioned tables: pruning, parallel scans, exec_stats counters

namespace {

/// Hash-partitioned table without an index on the partition column, so the
/// planner's pruning (not an index probe) is what routes the scans.
Database make_partitioned_db(std::size_t partitions, int rows) {
  Database db;
  db.execute(kojak::support::cat(
      "CREATE TABLE pt (k INTEGER, v INTEGER) PARTITION BY HASH(k) "
      "PARTITIONS ",
      partitions));
  for (int i = 0; i < rows; ++i) {
    db.execute(kojak::support::cat("INSERT INTO pt VALUES (", i, ", ",
                                   i * 3, ")"));
  }
  return db;
}

}  // namespace

TEST(Partitioned, FullScanCountsEveryPartition) {
  Database db = make_partitioned_db(4, 50);
  const auto before = db.exec_stats();
  EXPECT_EQ(db.execute("SELECT COUNT(*) FROM pt").scalar().as_int(), 50);
  const auto after = db.exec_stats();
  EXPECT_EQ(after.partition_scans - before.partition_scans, 4u);
  EXPECT_EQ(after.partitions_pruned - before.partitions_pruned, 0u);
}

TEST(Partitioned, EqualityOnPartitionColumnPrunes) {
  Database db = make_partitioned_db(4, 50);
  const auto before = db.exec_stats();
  const QueryResult result = db.execute("SELECT v FROM pt WHERE k = 7");
  const auto after = db.exec_stats();
  ASSERT_EQ(result.row_count(), 1u);
  EXPECT_EQ(result.at(0, 0).as_int(), 21);
  // One partition scanned, three skipped by routing.
  EXPECT_EQ(after.partition_scans - before.partition_scans, 1u);
  EXPECT_EQ(after.partitions_pruned - before.partitions_pruned, 3u);
  // Equality on a non-partition column cannot prune.
  const auto b2 = db.exec_stats();
  db.execute("SELECT k FROM pt WHERE v = 21");
  const auto a2 = db.exec_stats();
  EXPECT_EQ(a2.partition_scans - b2.partition_scans, 4u);
  EXPECT_EQ(a2.partitions_pruned - b2.partitions_pruned, 0u);
}

TEST(Partitioned, ParallelScanMatchesSerialByteForByte) {
  Database db = make_partitioned_db(8, 400);
  // No ORDER BY on purpose: the partition-order merge itself must be
  // deterministic, so serial and parallel scans yield the same row stream.
  const char* query = "SELECT k, v FROM pt WHERE v % 7 = 0";

  db.set_scan_config({.threads = 1, .min_parallel_rows = 0});
  const auto serial_before = db.exec_stats();
  const QueryResult serial = db.execute(query);
  const auto serial_after = db.exec_stats();
  EXPECT_EQ(serial_after.parallel_scan_batches -
                serial_before.parallel_scan_batches,
            0u);

  db.set_scan_config({.threads = 4, .min_parallel_rows = 1});
  const auto par_before = db.exec_stats();
  const QueryResult parallel = db.execute(query);
  const auto par_after = db.exec_stats();
  EXPECT_GE(par_after.parallel_scan_batches - par_before.parallel_scan_batches,
            1u);
  EXPECT_EQ(par_after.partition_scans - par_before.partition_scans, 8u);

  ASSERT_EQ(serial.row_count(), parallel.row_count());
  ASSERT_GT(serial.row_count(), 0u);
  for (std::size_t r = 0; r < serial.row_count(); ++r) {
    EXPECT_EQ(serial.at(r, 0).as_int(), parallel.at(r, 0).as_int());
    EXPECT_EQ(serial.at(r, 1).as_int(), parallel.at(r, 1).as_int());
  }

  // The row threshold gates dispatch: a tiny scan stays serial even with
  // parallel workers configured.
  db.set_scan_config({.threads = 4, .min_parallel_rows = 1000000});
  const auto gated_before = db.exec_stats();
  db.execute(query);
  const auto gated_after = db.exec_stats();
  EXPECT_EQ(gated_after.parallel_scan_batches -
                gated_before.parallel_scan_batches,
            0u);
}

TEST(Partitioned, QueriesAgreeWithUnpartitionedTable) {
  Database flat = make_partitioned_db(1, 300);
  Database sharded = make_partitioned_db(8, 300);
  sharded.set_scan_config({.threads = 4, .min_parallel_rows = 1});
  const char* queries[] = {
      "SELECT COUNT(*) FROM pt",
      "SELECT SUM(v) FROM pt WHERE k % 2 = 0",
      "SELECT k, v FROM pt WHERE v > 60 AND v < 300 ORDER BY k",
      "SELECT COUNT(*) FROM pt WHERE k = 123",
      "SELECT MIN(v), MAX(v) FROM pt WHERE k >= 100",
  };
  for (const char* query : queries) {
    const QueryResult a = flat.execute(query);
    const QueryResult b = sharded.execute(query);
    ASSERT_EQ(a.row_count(), b.row_count()) << query;
    for (std::size_t r = 0; r < a.row_count(); ++r) {
      for (std::size_t c = 0; c < a.column_count(); ++c) {
        const Value& va = a.at(r, c);
        const Value& vb = b.at(r, c);
        if (va.type() == kdb::ValueType::kDouble) {
          // Incremental aggregates accumulate in scan order; a full-table
          // scan's order legitimately differs across layouts, so double
          // aggregates agree to rounding, not bit for bit. (Per-owner index
          // probes — what the analysis backends issue — preserve order
          // exactly; the cosy_partition differential pins that.)
          EXPECT_NEAR(va.as_double(), vb.as_double(),
                      1e-9 * std::max(1.0, std::abs(va.as_double())))
              << query << " row " << r << " col " << c;
        } else {
          EXPECT_TRUE(va.equals_total(vb))
              << query << " row " << r << " col " << c;
        }
      }
    }
  }
}

TEST(Partitioned, SkewedFanoutGatesOnLivePartitions) {
  // All rows hash to one shard: the fan-out gate counts partitions with
  // live rows, not configured partitions, so a fully skewed table never
  // pays pool dispatch for seven empty heaps.
  Database db;
  db.execute(
      "CREATE TABLE pt (k INTEGER, v INTEGER) PARTITION BY HASH(k) "
      "PARTITIONS 8");
  for (int i = 0; i < 400; ++i) {
    db.execute(kojak::support::cat("INSERT INTO pt VALUES (5, ", i, ")"));
  }
  db.set_scan_config({.threads = 4, .min_parallel_rows = 1});
  const auto before = db.exec_stats();
  const QueryResult result = db.execute("SELECT k, v FROM pt WHERE v % 7 = 0");
  const auto after = db.exec_stats();
  EXPECT_EQ(result.row_count(), 58u);
  EXPECT_EQ(after.parallel_scan_batches - before.parallel_scan_batches, 0u);
  EXPECT_EQ(after.partition_scans - before.partition_scans, 8u);
}

// ---------------------------------------------------------------------------
// Columnar storage: vectorized scan counters and fused-plan accounting

namespace {

Database make_columnar_db(std::size_t partitions, int rows) {
  Database db;
  db.execute(kojak::support::cat(
      "CREATE TABLE ct (k INTEGER, v INTEGER) PARTITION BY HASH(k) "
      "PARTITIONS ",
      partitions, " STORAGE COLUMNAR"));
  for (int i = 0; i < rows; ++i) {
    db.execute(
        kojak::support::cat("INSERT INTO ct VALUES (", i, ", ", i * 3, ")"));
  }
  return db;
}

}  // namespace

TEST(Columnar, VectorizedCountersPinned) {
  Database db = make_columnar_db(4, 50);
  // Count nonempty shards up front (batch accounting is per nonempty
  // partition); these probes bump counters, so snapshot after them.
  std::size_t nonempty = 0;
  for (int p = 0; p < 4; ++p) {
    if (db.execute(kojak::support::cat("SELECT COUNT(*) FROM ct PARTITION (",
                                       p, ")"))
            .scalar()
            .as_int() > 0) {
      ++nonempty;
    }
  }

  // Identical data in a row-storage table: the vectorized kernels must
  // reproduce the row path's incremental accumulation bit for bit (same
  // routing, same partition-major scan order).
  Database row_db = make_partitioned_db(4, 50);
  const QueryResult row_result =
      row_db.execute("SELECT COUNT(*), SUM(v) FROM pt WHERE v >= 30");

  const auto before = db.exec_stats();
  const QueryResult result =
      db.execute("SELECT COUNT(*), SUM(v) FROM ct WHERE v >= 30");
  const auto after = db.exec_stats();
  EXPECT_EQ(result.at(0, 0).as_int(), 40);
  EXPECT_EQ(result.at(0, 1).as_double(), row_result.at(0, 1).as_double());
  EXPECT_EQ(after.columnar_scans - before.columnar_scans, 4u);
  EXPECT_EQ(after.partition_scans - before.partition_scans, 4u);
  EXPECT_EQ(after.vectorized_batches - before.vectorized_batches, nonempty);
  // 10 live rows (v < 30) were filtered by the selection bitmap before any
  // aggregate kernel ran.
  EXPECT_EQ(after.rows_skipped_by_bitmap - before.rows_skipped_by_bitmap, 10u);

  // Partition pruning composes: equality on the partition column routes the
  // vectorized scan to one shard.
  const auto b2 = db.exec_stats();
  EXPECT_EQ(
      db.execute("SELECT SUM(v) FROM ct WHERE k = 7").scalar().as_double(),
      21.0);
  const auto a2 = db.exec_stats();
  EXPECT_EQ(a2.columnar_scans - b2.columnar_scans, 1u);
  EXPECT_EQ(a2.partitions_pruned - b2.partitions_pruned, 3u);

  // Row-storage tables never take the vectorized path.
  const auto rb = row_db.exec_stats();
  row_db.execute("SELECT COUNT(*), SUM(v) FROM pt WHERE v >= 30");
  const auto ra = row_db.exec_stats();
  EXPECT_EQ(ra.columnar_scans - rb.columnar_scans, 0u);
  EXPECT_EQ(ra.vectorized_batches - rb.vectorized_batches, 0u);
  EXPECT_EQ(ra.rows_skipped_by_bitmap - rb.rows_skipped_by_bitmap, 0u);
}

TEST(Columnar, FusedPlanReuseCountsOnlyCacheHits) {
  Database db = make_columnar_db(4, 50);
  kdb::PreparedStatement stmt =
      db.prepare("SELECT COUNT(*) FROM ct WHERE v >= ?");

  // First execution analyzes the statement and caches the fused plan — the
  // counter pins *reuse*, so it must not move yet.
  const auto b1 = db.exec_stats();
  EXPECT_EQ(db.execute(stmt, std::vector<Value>{Value::integer(30)}).scalar().as_int(), 40);
  const auto a1 = db.exec_stats();
  EXPECT_EQ(a1.fused_plan_evals - b1.fused_plan_evals, 0u);
  EXPECT_EQ(a1.columnar_scans - b1.columnar_scans, 4u);

  // Re-execution with different params reuses the cached structural plan.
  EXPECT_EQ(db.execute(stmt, std::vector<Value>{Value::integer(60)}).scalar().as_int(), 30);
  EXPECT_EQ(db.execute(stmt, std::vector<Value>{Value::integer(90)}).scalar().as_int(), 20);
  const auto a2 = db.exec_stats();
  EXPECT_EQ(a2.fused_plan_evals - a1.fused_plan_evals, 2u);
}

TEST(Columnar, GroupedVectorizedCountersPinned) {
  Database db = make_columnar_db(4, 50);

  // v = 3k, so v >= 30 keeps k = 10..49: 40 groups of one row each, emitted
  // in ascending key order like the row path's std::map.
  const auto before = db.exec_stats();
  const QueryResult result = db.execute(
      "SELECT k, COUNT(*), SUM(v) FROM ct WHERE v >= 30 GROUP BY k");
  const auto after = db.exec_stats();
  EXPECT_EQ(result.row_count(), 40u);
  EXPECT_EQ(result.at(0, 0).as_int(), 10);
  EXPECT_EQ(result.at(39, 0).as_int(), 49);
  EXPECT_EQ(result.at(0, 1).as_int(), 1);
  EXPECT_EQ(result.at(0, 2).as_double(), 30.0);
  EXPECT_EQ(after.grouped_vector_evals - before.grouped_vector_evals, 1u);
  EXPECT_EQ(after.groups_built - before.groups_built, 40u);
  EXPECT_EQ(after.columnar_scans - before.columnar_scans, 4u);
  EXPECT_EQ(after.rows_skipped_by_bitmap - before.rows_skipped_by_bitmap, 10u);

  // Row storage: same rows, no kernel counters.
  Database row_db = make_partitioned_db(4, 50);
  const auto rb = row_db.exec_stats();
  const QueryResult row_result = row_db.execute(
      "SELECT k, COUNT(*), SUM(v) FROM pt WHERE v >= 30 GROUP BY k");
  const auto ra = row_db.exec_stats();
  ASSERT_EQ(row_result.row_count(), 40u);
  for (std::size_t r = 0; r < 40; ++r) {
    EXPECT_EQ(result.at(r, 0).as_int(), row_result.at(r, 0).as_int());
    EXPECT_EQ(result.at(r, 2).as_double(), row_result.at(r, 2).as_double());
  }
  EXPECT_EQ(ra.grouped_vector_evals - rb.grouped_vector_evals, 0u);
  EXPECT_EQ(ra.groups_built - rb.groups_built, 0u);
}

TEST(Columnar, FusedPlanSurvivesClone) {
  Database db = make_columnar_db(4, 50);

  // First execution analyzes the statement and caches the plan on its AST.
  kdb::sql::Statement parsed =
      kdb::sql::parse_single("SELECT COUNT(*) FROM ct WHERE v >= 30");
  auto& sel = std::get<kdb::sql::SelectStmt>(parsed);
  EXPECT_EQ(db.execute(parsed).scalar().as_int(), 40);
  ASSERT_NE(sel.fused_group_plan, nullptr);

  // clone() carries the plan by remapping its expression pointers onto the
  // copied tree, so the clone's first execution is already a cache hit.
  std::unique_ptr<kdb::sql::SelectStmt> copy = sel.clone();
  ASSERT_NE(copy->fused_group_plan, nullptr);
  kdb::sql::Statement cloned{std::move(*copy)};
  const auto before = db.exec_stats();
  EXPECT_EQ(db.execute(cloned).scalar().as_int(), 40);
  const auto after = db.exec_stats();
  EXPECT_EQ(after.fused_plan_evals - before.fused_plan_evals, 1u);
}

TEST(Columnar, ScalarSubqueryPlanBackPropagates) {
  Database db = make_columnar_db(4, 50);

  // Scalar subqueries execute on a clone of their AST; the verdict the
  // clone's execution produced must flow back to the prepared statement so
  // the second execution's clone starts pre-analyzed.
  kdb::PreparedStatement stmt =
      db.prepare("SELECT (SELECT COUNT(*) FROM ct WHERE v >= 30)");
  const auto b1 = db.exec_stats();
  EXPECT_EQ(db.execute(stmt).scalar().as_int(), 40);
  const auto a1 = db.exec_stats();
  EXPECT_EQ(a1.fused_plan_evals - b1.fused_plan_evals, 0u);
  EXPECT_EQ(db.execute(stmt).scalar().as_int(), 40);
  const auto a2 = db.exec_stats();
  EXPECT_EQ(a2.fused_plan_evals - a1.fused_plan_evals, 1u);
}

TEST(Partitioned, PartitionSelectorPinsTheScan) {
  Database db = make_partitioned_db(4, 50);

  // The selected shards tile the table: per-partition counts sum to the
  // full count, and each selector scan touches exactly one partition heap.
  std::int64_t total = 0;
  for (int k = 0; k < 4; ++k) {
    const auto before = db.exec_stats();
    total += db.execute(kojak::support::cat(
                            "SELECT COUNT(*) FROM pt PARTITION (", k, ")"))
                 .scalar()
                 .as_int();
    const auto after = db.exec_stats();
    EXPECT_EQ(after.partition_scans - before.partition_scans, 1u);
    EXPECT_EQ(after.partitions_pruned - before.partitions_pruned, 3u);
  }
  EXPECT_EQ(total, 50);

  // Selector + agreeing equality on the partition column: the row is in
  // its shard. Disagreeing: provably empty, nothing scanned.
  const std::size_t home = db.table("pt").route(Value::integer(7));
  EXPECT_EQ(db.execute(kojak::support::cat(
                           "SELECT COUNT(*) FROM pt PARTITION (", home,
                           ") WHERE k = 7"))
                .scalar()
                .as_int(),
            1);
  const std::size_t away = (home + 1) % 4;
  const auto before = db.exec_stats();
  EXPECT_EQ(db.execute(kojak::support::cat(
                           "SELECT COUNT(*) FROM pt PARTITION (", away,
                           ") WHERE k = 7"))
                .scalar()
                .as_int(),
            0);
  const auto after = db.exec_stats();
  EXPECT_EQ(after.partition_scans - before.partition_scans, 0u);
  EXPECT_EQ(after.partitions_pruned - before.partitions_pruned, 4u);

  // Joins accept a selector on the inner table too.
  db.execute("CREATE TABLE names (k INTEGER, label TEXT)");
  db.execute("INSERT INTO names VALUES (7, 'seven'), (8, 'eight')");
  const QueryResult joined = db.execute(kojak::support::cat(
      "SELECT names.label FROM names JOIN pt PARTITION (", home,
      ") p ON p.k = names.k"));
  ASSERT_EQ(joined.row_count(),
            home == db.table("pt").route(Value::integer(8)) ? 2u
                                                                       : 1u);
  EXPECT_EQ(joined.at(0, 0).as_string(), "seven");

  // With an index on a non-partition column, a selector keeps the index
  // probe and filters the resulting ids by partition bits — no shard heap
  // walk (partition_scans stays flat), results respect the selector.
  db.execute("CREATE INDEX idx_pt_v ON pt (v)");
  const auto probe_before = db.exec_stats();
  EXPECT_EQ(db.execute(kojak::support::cat(
                           "SELECT COUNT(*) FROM pt PARTITION (", home,
                           ") WHERE v = 21"))
                .scalar()
                .as_int(),
            1);
  EXPECT_EQ(db.execute(kojak::support::cat(
                           "SELECT COUNT(*) FROM pt PARTITION (", away,
                           ") WHERE v = 21"))
                .scalar()
                .as_int(),
            0);
  const auto probe_after = db.exec_stats();
  EXPECT_EQ(probe_after.partition_scans - probe_before.partition_scans, 0u);

  // Out-of-range selectors are a diagnostic, not partition 0.
  EXPECT_THROW(db.execute("SELECT COUNT(*) FROM pt PARTITION (4)"), EvalError);
}

TEST(Exec, LeastGreatestSkipNulls) {
  Database db = make_db();
  EXPECT_EQ(db.execute("SELECT LEAST(3, 1, 2)").scalar().as_int(), 1);
  EXPECT_EQ(db.execute("SELECT GREATEST(3, 1, 2)").scalar().as_int(), 3);
  // NULL arguments are skipped (aggregate-MIN/MAX semantics): the rewrite
  // folds per-partition extrema where an empty shard yields NULL.
  EXPECT_EQ(db.execute("SELECT LEAST(NULL, 5, NULL)").scalar().as_int(), 5);
  EXPECT_DOUBLE_EQ(
      db.execute("SELECT GREATEST(NULL, 1.5, 2.5, NULL)").scalar().as_double(),
      2.5);
  EXPECT_TRUE(db.execute("SELECT LEAST(NULL, NULL)").scalar().is_null());
  EXPECT_THROW(db.execute("SELECT LEAST(1)"), EvalError);
}

TEST(Exec, IndependentCtesMaterializeInParallel) {
  Database db = make_partitioned_db(4, 400);
  const char* query =
      "WITH s0 AS (SELECT COUNT(*) AS v FROM pt PARTITION (0)), "
      "s1 AS (SELECT COUNT(*) AS v FROM pt PARTITION (1)), "
      "s2 AS (SELECT COUNT(*) AS v FROM pt PARTITION (2)), "
      "s3 AS (SELECT COUNT(*) AS v FROM pt PARTITION (3)), "
      "total AS (SELECT (SELECT v FROM s0) + (SELECT v FROM s1) + "
      "(SELECT v FROM s2) + (SELECT v FROM s3) AS v) "
      "SELECT (SELECT v FROM total)";

  // Serial configuration: all five CTEs materialize, none on the pool.
  db.set_scan_config({.threads = 1, .min_parallel_rows = 1});
  const auto serial_before = db.exec_stats();
  EXPECT_EQ(db.execute(query).scalar().as_int(), 400);
  const auto serial_after = db.exec_stats();
  EXPECT_EQ(serial_after.cte_materializations -
                serial_before.cte_materializations,
            5u);
  EXPECT_EQ(serial_after.cte_parallel_materializations -
                serial_before.cte_parallel_materializations,
            0u);

  // Parallel configuration: the four independent shard CTEs run as one
  // scan-pool wave; `total` depends on all of them and runs after. The
  // result is identical.
  db.set_scan_config({.threads = 4, .min_parallel_rows = 1});
  const auto par_before = db.exec_stats();
  EXPECT_EQ(db.execute(query).scalar().as_int(), 400);
  const auto par_after = db.exec_stats();
  EXPECT_EQ(par_after.cte_materializations - par_before.cte_materializations,
            5u);
  EXPECT_EQ(par_after.cte_parallel_materializations -
                par_before.cte_parallel_materializations,
            4u);

  // The row threshold gates the wave dispatch exactly like heap scans.
  db.set_scan_config({.threads = 4, .min_parallel_rows = 1000000});
  const auto gated_before = db.exec_stats();
  EXPECT_EQ(db.execute(query).scalar().as_int(), 400);
  const auto gated_after = db.exec_stats();
  EXPECT_EQ(gated_after.cte_parallel_materializations -
                gated_before.cte_parallel_materializations,
            0u);
}

TEST(Exec, PartitionUnionStatementOverOwnerHashedTimingTable) {
  // The acceptance shape end-to-end at the engine level: a timing table
  // partitioned HASH(owner) PARTITIONS 4, whose whole-table aggregate runs
  // as ONE WITH part0..part3 union statement with the shard CTEs
  // materialized in parallel — and agrees with the flat aggregate.
  Database db;
  db.execute(
      "CREATE TABLE timing (owner INTEGER NOT NULL, t DOUBLE) "
      "PARTITION BY HASH(owner) PARTITIONS 4");
  for (int i = 0; i < 200; ++i) {
    db.execute(kojak::support::cat("INSERT INTO timing VALUES (", i % 37,
                                   ", ", (i % 8) * 0.25, ")"));
  }
  db.set_scan_config({.threads = 4, .min_parallel_rows = 1});

  const double flat =
      db.execute("SELECT COALESCE(SUM(t), 0.0) FROM timing").scalar().as_double();
  const char* union_stmt =
      "WITH part0 AS (SELECT COALESCE(SUM(t), 0.0) AS v FROM timing PARTITION (0)), "
      "part1 AS (SELECT COALESCE(SUM(t), 0.0) AS v FROM timing PARTITION (1)), "
      "part2 AS (SELECT COALESCE(SUM(t), 0.0) AS v FROM timing PARTITION (2)), "
      "part3 AS (SELECT COALESCE(SUM(t), 0.0) AS v FROM timing PARTITION (3)) "
      "SELECT (SELECT v FROM part0) + (SELECT v FROM part1) + "
      "(SELECT v FROM part2) + (SELECT v FROM part3)";
  const auto before = db.exec_stats();
  const double unioned = db.execute(union_stmt).scalar().as_double();
  const auto after = db.exec_stats();
  EXPECT_DOUBLE_EQ(unioned, flat);
  EXPECT_EQ(after.cte_materializations - before.cte_materializations, 4u);
  EXPECT_EQ(after.cte_parallel_materializations -
                before.cte_parallel_materializations,
            4u);
  // Each shard CTE scanned its own partition and pruned the other three.
  EXPECT_EQ(after.partition_scans - before.partition_scans, 4u);
  EXPECT_EQ(after.partitions_pruned - before.partitions_pruned, 12u);
}

TEST(Exec, ParallelCtesKeepDeterministicResults) {
  Database db = make_partitioned_db(8, 600);
  // Four independent CTEs with ORDER-sensitive bodies, consumed in FROM
  // position: the parallel schedule must not change any row stream.
  const char* query =
      "WITH a AS (SELECT k, v FROM pt PARTITION (0)), "
      "b AS (SELECT k, v FROM pt PARTITION (3)), "
      "c AS (SELECT MIN(v) AS m FROM pt PARTITION (5)), "
      "d AS (SELECT MAX(v) AS m FROM pt PARTITION (6)) "
      "SELECT a.k, b.k, (SELECT m FROM c), (SELECT m FROM d) "
      "FROM a JOIN b ON b.k = a.k + 1";
  db.set_scan_config({.threads = 1, .min_parallel_rows = 1});
  const QueryResult serial = db.execute(query);
  db.set_scan_config({.threads = 8, .min_parallel_rows = 1});
  const QueryResult parallel = db.execute(query);
  ASSERT_EQ(serial.row_count(), parallel.row_count());
  for (std::size_t r = 0; r < serial.row_count(); ++r) {
    for (std::size_t c = 0; c < serial.column_count(); ++c) {
      EXPECT_TRUE(serial.at(r, c).equals_total(parallel.at(r, c)))
          << r << "," << c;
    }
  }
}

TEST(Exec, ParallelCteBodiesScanInline) {
  // Nested fan-out: every body of a parallel CTE wave full-scans an
  // 8-partition table. The bodies already run on scan-pool workers, so
  // their scans stay on the worker that runs them (no parallel scan batch)
  // instead of blocking on the pool they occupy.
  Database db = make_partitioned_db(8, 400);
  const char* query =
      "WITH a AS (SELECT k, v FROM pt WHERE v % 3 = 0), "
      "b AS (SELECT k, v FROM pt WHERE k % 5 = 1), "
      "c AS (SELECT COUNT(*) AS n, SUM(v) AS s FROM pt) "
      "SELECT a.k, b.v, (SELECT n FROM c), (SELECT s FROM c) "
      "FROM a JOIN b ON b.k = a.k";
  db.set_scan_config({.threads = 1, .min_parallel_rows = 1});
  const QueryResult serial = db.execute(query);

  db.set_scan_config({.threads = 4, .min_parallel_rows = 1});
  const auto before = db.exec_stats();
  const QueryResult parallel = db.execute(query);
  const auto after = db.exec_stats();
  EXPECT_EQ(after.cte_parallel_materializations -
                before.cte_parallel_materializations,
            3u);
  EXPECT_EQ(after.parallel_scan_batches - before.parallel_scan_batches, 0u);
  EXPECT_EQ(after.partition_scans - before.partition_scans, 24u);

  ASSERT_GT(serial.row_count(), 0u);
  ASSERT_EQ(serial.row_count(), parallel.row_count());
  for (std::size_t r = 0; r < serial.row_count(); ++r) {
    for (std::size_t c = 0; c < serial.column_count(); ++c) {
      EXPECT_TRUE(serial.at(r, c).equals_total(parallel.at(r, c)))
          << r << "," << c;
    }
  }
}

namespace {

/// 8-partition table `et (k, v, a, b)` whose predicate
/// `SQRT(a) + v / b > 0` raises in exactly two partitions: partition 1's
/// rows carry a = -1 (SQRT of negative value), partition 6's rows carry
/// b = 0 (division by zero). A serial scan reaches partition 1 first.
Database make_failing_db(bool columnar) {
  Database db;
  db.execute(kojak::support::cat(
      "CREATE TABLE et (k INTEGER, v INTEGER, a INTEGER, b INTEGER) "
      "PARTITION BY HASH(k) PARTITIONS 8",
      columnar ? " STORAGE COLUMNAR" : ""));
  for (int i = 0; i < 400; ++i) {
    db.execute(kojak::support::cat("INSERT INTO et VALUES (", i, ", ", i,
                                   ", 1, 1)"));
  }
  const auto poison = [&](int partition, const char* assignment) {
    const QueryResult keys = db.execute(kojak::support::cat(
        "SELECT k FROM et PARTITION (", partition, ")"));
    ASSERT_GT(keys.row_count(), 0u);
    for (std::size_t r = 0; r < keys.row_count(); ++r) {
      db.execute(kojak::support::cat("UPDATE et SET ", assignment,
                                     " WHERE k = ", keys.at(r, 0).as_int()));
    }
  };
  poison(1, "a = -1");
  poison(6, "b = 0");
  return db;
}

/// The message `query` raises, or "" when it succeeds.
std::string error_of(Database& db, const std::string& query) {
  try {
    db.execute(query);
  } catch (const EvalError& error) {
    return error.what();
  }
  return "";
}

}  // namespace

TEST(Exec, ParallelErrorsMatchTheSerialError) {
  // Two partitions fail with different errors. Whatever the schedule, a
  // parallel scan, VM selection pass or CTE wave reports the error of the
  // lowest failing partition, the one the serial loop raises, and the
  // database keeps answering afterwards.
  std::string waves = "WITH ";
  for (int p = 0; p < 8; ++p) {
    waves += kojak::support::cat(
        p == 0 ? "" : ", ", "c", p, " AS (SELECT COUNT(*) AS n FROM et ",
        "PARTITION (", p, ") WHERE SQRT(a) + v / b > 0)");
  }
  waves += " SELECT (SELECT n FROM c0) + (SELECT n FROM c7)";
  const struct {
    const char* path;
    bool columnar;
    std::string query;
  } cases[] = {
      {"heap scan", false, "SELECT k FROM et WHERE SQRT(a) + v / b > 0"},
      {"selection bitmaps", true,
       "SELECT COUNT(*) FROM et WHERE SQRT(a) + v / b > 0"},
      {"CTE wave", false, waves},
  };
  for (const auto& c : cases) {
    Database db = make_failing_db(c.columnar);
    db.set_scan_config({.threads = 1, .min_parallel_rows = 1});
    const std::string serial = error_of(db, c.query);
    EXPECT_NE(serial.find("SQRT of negative value"), std::string::npos)
        << c.path << ": " << serial;
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      db.set_scan_config({.threads = threads, .min_parallel_rows = 1});
      for (int repeat = 0; repeat < 20; ++repeat) {
        ASSERT_EQ(error_of(db, c.query), serial)
            << c.path << " at " << threads << " threads, run " << repeat;
      }
      EXPECT_EQ(db.execute("SELECT COUNT(*) FROM et").scalar().as_int(), 400)
          << c.path;
    }
  }
}

TEST(Partitioned, DmlRoundTripUnderPartitioning) {
  Database db = make_partitioned_db(4, 60);
  // UPDATE of the partition column moves rows between partitions under the
  // SQL surface; counts and contents must stay coherent.
  EXPECT_EQ(db.execute("UPDATE pt SET k = k + 1 WHERE v = 30").affected_rows,
            1u);
  EXPECT_EQ(db.execute("SELECT COUNT(*) FROM pt").scalar().as_int(), 60);
  EXPECT_EQ(db.execute("SELECT v FROM pt WHERE k = 11").row_count(), 2u);
  EXPECT_EQ(db.execute("DELETE FROM pt WHERE k % 2 = 0").affected_rows, 29u);
  EXPECT_EQ(db.execute("SELECT COUNT(*) FROM pt").scalar().as_int(), 31);
}

TEST(Exec, PrepareRejectsMultiStatementScripts) {
  Database db = make_db();
  // More than one statement at prepare time is a diagnostic, not a silent
  // first/last-statement surprise.
  try {
    (void)db.prepare("SELECT 1; SELECT 2");
    FAIL() << "expected ParseError";
  } catch (const kojak::support::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("exactly one statement"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)db.prepare("DELETE FROM emp; DELETE FROM dept"),
               kojak::support::ParseError);
  // One statement with a trailing semicolon stays preparable.
  kdb::PreparedStatement stmt = db.prepare("SELECT COUNT(*) FROM emp;");
  EXPECT_EQ(db.execute(stmt).scalar().as_int(), 5);
}

// Every exec_stats() counter is wired to exactly one snapshot field: bumping
// counter i by i + 1 moves that field by exactly i + 1 and no other, and a
// moved Database carries the counters along unchanged. A swapped entry in
// the snapshot load list or the move copy list fails here.
TEST(Exec, ExecStatsCountersWiredOneToOne) {
  using Snapshot = Database::ExecStatsSnapshot;
  struct Counter {
    const char* name;
    std::uint64_t Snapshot::*field;
    void (*bump)(Database&, std::uint64_t);
  };
  // clang-format off
#define KOJAK_COUNTER(field)        \
  Counter{#field, &Snapshot::field, \
          [](Database& db, std::uint64_t n) { db.count_##field(n); }}
  const std::vector<Counter> counters = {
      KOJAK_COUNTER(subquery_executions),
      KOJAK_COUNTER(subquery_memo_hits),
      KOJAK_COUNTER(cte_materializations),
      KOJAK_COUNTER(partition_scans),
      KOJAK_COUNTER(partitions_pruned),
      KOJAK_COUNTER(parallel_scan_batches),
      KOJAK_COUNTER(cte_parallel_materializations),
      KOJAK_COUNTER(partition_union_rewrites),
      KOJAK_COUNTER(shard_cache_hits),
      KOJAK_COUNTER(shard_cache_misses),
      KOJAK_COUNTER(dirty_partitions_recomputed),
      KOJAK_COUNTER(statements_memoized),
      KOJAK_COUNTER(columnar_scans),
      KOJAK_COUNTER(vectorized_batches),
      KOJAK_COUNTER(rows_skipped_by_bitmap),
      KOJAK_COUNTER(fused_plan_evals),
      KOJAK_COUNTER(grouped_vector_evals),
      KOJAK_COUNTER(groups_built),
      KOJAK_COUNTER(hash_join_builds),
      KOJAK_COUNTER(join_lanes_probed),
      KOJAK_COUNTER(expr_programs_compiled),
      KOJAK_COUNTER(expr_program_evals),
      KOJAK_COUNTER(expr_vm_batches),
      KOJAK_COUNTER(expr_vm_lanes),
  };
  // clang-format on
#undef KOJAK_COUNTER
  // A counter added to the snapshot but not to this table fails here.
  ASSERT_EQ(counters.size(), 24u);
  ASSERT_EQ(sizeof(Snapshot), counters.size() * sizeof(std::uint64_t));

  Database db;
  for (std::size_t i = 0; i < counters.size(); ++i) {
    const Snapshot before = db.exec_stats();
    counters[i].bump(db, i + 1);
    const Snapshot after = db.exec_stats();
    for (std::size_t j = 0; j < counters.size(); ++j) {
      const auto field = counters[j].field;
      EXPECT_EQ(after.*field - before.*field, j == i ? i + 1 : 0)
          << "bumped " << counters[i].name << ", read " << counters[j].name;
    }
  }

  const Snapshot before_move = db.exec_stats();
  const Database moved(std::move(db));
  const Snapshot after_move = moved.exec_stats();
  for (std::size_t j = 0; j < counters.size(); ++j) {
    const auto field = counters[j].field;
    EXPECT_EQ(after_move.*field, before_move.*field) << counters[j].name;
    EXPECT_EQ(after_move.*field, j + 1) << counters[j].name;
  }
}

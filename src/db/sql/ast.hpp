#ifndef KOJAK_DB_SQL_AST_HPP
#define KOJAK_DB_SQL_AST_HPP

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "db/schema.hpp"
#include "db/value.hpp"
#include "support/source_location.hpp"

namespace kojak::db::sql {

/// Argument cap of the variadic scalar functions (COALESCE, LEAST,
/// GREATEST) in the executor's binder — the single definition query
/// compilers consult too: a MIN/MAX partition-union fold with more shards
/// than this would fail at bind time, so the rewrite declines beyond it.
inline constexpr std::size_t kMaxScalarFnArgs = 64;

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;
struct SelectStmt;

enum class BinOp : std::uint8_t {
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAdd, kSub, kMul, kDiv, kMod,
  kAnd, kOr,
};
enum class UnOp : std::uint8_t { kNeg, kNot };

[[nodiscard]] std::string_view to_string(BinOp op);

/// SQL expression node. A single struct with a kind discriminator keeps the
/// binder/executor simple; unused fields stay empty.
struct Expr {
  enum class Kind : std::uint8_t {
    kLiteral,    // literal
    kColumnRef,  // [table.]column  (resolved_slot filled by the binder)
    kParam,      // ? placeholder, 0-based param_index
    kUnary,      // un_op lhs
    kBinary,     // lhs bin_op rhs
    kFuncCall,   // func(args...) — scalar or aggregate; star_arg for COUNT(*)
    kIsNull,     // lhs IS [NOT] NULL
    kInList,     // lhs IN (args...)
    kLike,       // lhs LIKE rhs (negated supports NOT LIKE)
    kSubquery,   // scalar subquery (uncorrelated)
    kAliasRef,   // ORDER BY / HAVING reference to a select item (alias_index)
  };

  Kind kind = Kind::kLiteral;
  support::SourceLoc loc;

  Value literal;

  std::string table;   // optional qualifier of a column ref
  std::string column;
  /// Filled by the binder: slot in the flattened scan row; SIZE_MAX until bound.
  std::size_t resolved_slot = static_cast<std::size_t>(-1);

  std::size_t param_index = 0;

  UnOp un_op = UnOp::kNeg;
  BinOp bin_op = BinOp::kAnd;
  ExprPtr lhs;
  ExprPtr rhs;

  std::string func;
  std::vector<ExprPtr> args;
  bool star_arg = false;
  bool distinct_arg = false;  // COUNT(DISTINCT x)

  bool negated = false;  // IS NOT NULL / NOT IN / NOT LIKE

  std::unique_ptr<SelectStmt> subquery;

  std::size_t alias_index = 0;

  /// Structural deep copy (used when ORDER BY aliases expand to items).
  [[nodiscard]] ExprPtr clone() const;
  /// Debug / display rendering, also used to derive result column names.
  [[nodiscard]] std::string to_string() const;
};

struct SelectItem {
  ExprPtr expr;          // null when star
  std::string alias;     // empty when none
  bool star = false;     // SELECT * or t.*
  std::string star_table;
};

struct TableRef {
  std::string table;
  std::string alias;  // empty -> table name is the qualifier
  /// `FROM t PARTITION (k) [alias]`: restrict the scan to partition k of a
  /// partitioned catalog table. Only valid on catalog tables — the parser
  /// rejects selectors on CTE names, the executor on any derived source —
  /// and out-of-range selectors are an execution-time diagnostic. This is
  /// the scan predicate the partition-union rewrite compiles per-partition
  /// CTEs with.
  std::optional<std::size_t> partition;
  support::SourceLoc loc;

  [[nodiscard]] const std::string& qualifier() const noexcept {
    return alias.empty() ? table : alias;
  }
};

struct Join {
  TableRef table;
  ExprPtr on;  // may be null for CROSS JOIN
};

struct OrderKey {
  ExprPtr expr;
  bool descending = false;
};

/// One `name AS (SELECT ...)` entry of a statement-level WITH clause.
/// Non-recursive: a CTE body may reference only CTEs defined before it
/// (the parser rejects self and forward references with a diagnostic).
/// The executor materializes each CTE exactly once per statement execution;
/// every scalar subquery or FROM that names it scans the materialized rows.
struct CommonTableExpr {
  std::string name;
  std::unique_ptr<SelectStmt> select;
  support::SourceLoc loc;
};

/// Executor-side hot-plan annotation (defined in db/sql/plan.hpp): the
/// structural analysis behind the fused columnar aggregate evaluator.
/// Opaque here so the AST header stays free of plan details; ast.cpp and
/// the executor include plan.hpp.
struct FusedGroupPlan;

struct SelectStmt {
  std::vector<CommonTableExpr> ctes;  // statement-level WITH, in order
  bool distinct = false;
  std::vector<SelectItem> items;
  std::optional<TableRef> from;
  std::vector<Join> joins;
  ExprPtr where;
  std::vector<ExprPtr> group_by;
  ExprPtr having;
  std::vector<OrderKey> order_by;
  std::optional<std::size_t> limit;
  std::optional<std::size_t> offset;

  /// Hot-plan annotation, filled lazily by the executor the first time this
  /// statement proves eligible for the fused columnar aggregate evaluator
  /// (a global aggregate is the zero-key case of GROUP BY). Structural
  /// analysis only — per-execution decisions such as partition pruning are
  /// recomputed every run. `fused_rejected` caches a negative verdict so
  /// ineligible statements are analyzed once. Mutable because execution
  /// works on const statements; safe under the executor's concurrency
  /// contract (concurrent execution only of DISTINCT prepared statements).
  /// The plan holds pointers into this statement's expression tree; clone()
  /// carries it by remapping every pointer onto the cloned tree, so
  /// PlanCache-cloned statements start hot instead of re-analyzing.
  mutable std::shared_ptr<const FusedGroupPlan> fused_group_plan;
  mutable bool fused_rejected = false;

  /// Structural deep copy (subquery materialization executes a copy so the
  /// original statement stays reusable). Carries the fused-plan annotation
  /// across the copy (expression pointers remapped onto the cloned tree).
  /// The overload additionally reports the old-node → new-node map of every
  /// cloned Expr, letting callers translate plan annotations in the other
  /// direction — the executor back-propagates a plan built while running a
  /// subquery clone onto the original statement through the inverted map.
  [[nodiscard]] std::unique_ptr<SelectStmt> clone() const;
  [[nodiscard]] std::unique_ptr<SelectStmt> clone(
      std::unordered_map<const Expr*, const Expr*>* remap) const;
};

/// Visits every TableRef of one SELECT — FROM, every JOIN, and every
/// expression position (WHERE, items, GROUP BY, HAVING, ORDER BY, join
/// conditions), recursing into scalar subqueries. Does NOT descend into
/// `stmt.ctes`: CTE bodies are separate scopes and every caller (the
/// parser's reference/selector validation, the executor's dependency
/// analysis) walks them individually. The one traversal all of them share —
/// so a new expression-bearing clause is added here once, not in three
/// hand-rolled copies.
void for_each_table_ref(const SelectStmt& stmt,
                        const std::function<void(const TableRef&)>& fn);

struct CreateTableStmt {
  TableSchema schema;
  bool if_not_exists = false;
};

struct CreateIndexStmt {
  std::string index_name;
  std::string table;
  std::string column;
  bool ordered = false;  // CREATE [ORDERED] INDEX (hash is the default)
};

struct InsertStmt {
  std::string table;
  std::vector<std::string> columns;  // empty -> full row order
  std::vector<std::vector<ExprPtr>> rows;
};

struct UpdateStmt {
  std::string table;
  std::vector<std::pair<std::string, ExprPtr>> assignments;
  ExprPtr where;
};

struct DeleteStmt {
  std::string table;
  ExprPtr where;
};

struct DropTableStmt {
  std::string table;
  bool if_exists = false;
};

using Statement = std::variant<SelectStmt, CreateTableStmt, CreateIndexStmt,
                               InsertStmt, UpdateStmt, DeleteStmt, DropTableStmt>;

}  // namespace kojak::db::sql

#endif  // KOJAK_DB_SQL_AST_HPP

// Volcano-lite executor for the SQL subset: scans with index selection,
// (hash/indexed) equi-joins, filters, grouped aggregation, HAVING, DISTINCT,
// ORDER BY, LIMIT/OFFSET, and the DML statements. Lives behind
// Database::execute; there is no separate physical-plan IR — the statement
// AST plus binder annotations *is* the plan, which is adequate for the data
// volumes COSY manages (10^4..10^6 rows).

#include <algorithm>
#include <cctype>
#include <cmath>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>

#include "db/database.hpp"
#include "db/sql/parser.hpp"
#include "db/sql/plan.hpp"
#include "db/sql/render.hpp"
#include "support/error.hpp"
#include "support/stats.hpp"
#include "support/str.hpp"
#include "support/thread_pool.hpp"

// The hot-plan annotation behind SelectStmt::fused_group_plan
// (sql::FusedGroupPlan) lives in db/sql/plan.hpp so the clone machinery in
// ast.cpp can carry it across statement copies.

namespace kojak::db {

using sql::BinOp;
using sql::Expr;
using sql::UnOp;
using support::EvalError;

namespace {

// ---------------------------------------------------------------------------
// Parallel partition scans

/// Process-wide pool for partition scans and parallel CTE materialization,
/// sized to the hardware. Statements issued from other pools' workers (the
/// analyzer's context fan-out, the batch engine) wait on it without
/// starving those pools. Executions already on a scan-pool worker (parallel
/// CTE bodies) run their scans inline: see scan_workers().
support::ThreadPool& scan_pool() {
  static support::ThreadPool pool;
  return pool;
}

// ---------------------------------------------------------------------------
// CTE machinery

/// Materialized WITH entries visible to a statement, chained so subqueries
/// see the enclosing statement's CTEs. `entries` grows as the WITH clause
/// materializes left to right, which gives each CTE body exactly the
/// earlier siblings the parser validated against.
struct CteScope {
  const CteScope* parent = nullptr;
  std::vector<std::pair<std::string, const QueryResult*>> entries;

  [[nodiscard]] const QueryResult* find(std::string_view name) const {
    for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
      if (support::iequals(it->first, name)) return it->second;
    }
    return parent == nullptr ? nullptr : parent->find(name);
  }
  /// Entries visible through the whole chain; part of the subquery-memo key
  /// (a name can mean a table before a shadowing CTE materializes and the
  /// CTE afterwards — the count disambiguates the two moments).
  [[nodiscard]] std::size_t visible_count() const {
    return entries.size() +
           (parent == nullptr ? 0 : parent->visible_count());
  }
};

/// Per-top-level-statement execution state shared by every nested
/// execution: the uncorrelated-subquery memo. Structurally identical scalar
/// subqueries execute once per statement execution; later occurrences are
/// served from here (tests pin this via Database::exec_stats).
struct ExecEnv {
  std::unordered_map<std::string, Value> subquery_memo;
};

// ---------------------------------------------------------------------------
// Name resolution

/// One FROM/JOIN source: a base table or a materialized CTE ("derived").
struct ScanSource {
  const Table* table = nullptr;          // base table, or
  const QueryResult* derived = nullptr;  // materialized CTE rows
  /// Validated `PARTITION (k)` selector: scans and probes of this source
  /// touch only partition k.
  std::optional<std::size_t> partition;
  std::string qualifier;
  std::size_t base_slot = 0;

  [[nodiscard]] std::size_t column_count() const {
    return table != nullptr ? table->schema().column_count()
                            : derived->column_count();
  }
  [[nodiscard]] std::optional<std::size_t> find_column(
      std::string_view name) const {
    if (table != nullptr) return table->schema().find_column(name);
    for (std::size_t i = 0; i < derived->columns.size(); ++i) {
      if (support::iequals(derived->columns[i], name)) return i;
    }
    return std::nullopt;
  }
  [[nodiscard]] std::string column_name(std::size_t i) const {
    return table != nullptr ? table->schema().column(i).name
                            : derived->columns[i];
  }
};

class Binder {
 public:
  Binder(Database& db, std::span<const Value> params) : db_(db), params_(params) {}

  std::vector<ScanSource> bind_sources(const sql::SelectStmt& stmt,
                                       const CteScope* ctes) {
    std::vector<ScanSource> sources;
    std::size_t slot = 0;
    const auto add = [&](const sql::TableRef& ref) {
      ScanSource source;
      // A CTE shadows a catalog table of the same name (standard scoping).
      if (const QueryResult* derived =
              ctes == nullptr ? nullptr : ctes->find(ref.table)) {
        if (ref.partition) {
          // Backstop for CTEs reaching here from an *enclosing* statement's
          // scope — same-statement selectors are already a parse error.
          throw EvalError(support::cat(
              "PARTITION selector on CTE '", ref.table,
              "' (partition selection applies to partitioned catalog "
              "tables, not temp results)"));
        }
        source.derived = derived;
      } else {
        source.table = db_.find_table(ref.table);
        if (source.table == nullptr) {
          throw EvalError(support::cat("unknown table '", ref.table, "'"));
        }
        if (ref.partition) {
          if (*ref.partition >= source.table->partition_count()) {
            throw EvalError(support::cat(
                "PARTITION selector ", *ref.partition, " out of range: table '",
                ref.table, "' has ", source.table->partition_count(),
                " partition(s)"));
          }
          source.partition = ref.partition;
        }
      }
      for (const ScanSource& s : sources) {
        if (support::iequals(s.qualifier, ref.qualifier())) {
          throw EvalError(support::cat("duplicate table alias '",
                                       ref.qualifier(), "'"));
        }
      }
      source.qualifier = ref.qualifier();
      source.base_slot = slot;
      slot += source.column_count();
      sources.push_back(std::move(source));
    };
    if (stmt.from) add(*stmt.from);
    for (const sql::Join& join : stmt.joins) add(join.table);
    return sources;
  }

  /// Resolves column refs to slots; validates functions and aggregate
  /// placement. `allow_aggregates` is false inside WHERE and ON.
  void bind_expr(Expr& e, const std::vector<ScanSource>& sources,
                 bool allow_aggregates, bool inside_aggregate = false) {
    switch (e.kind) {
      case Expr::Kind::kLiteral:
      case Expr::Kind::kAliasRef:
        return;
      case Expr::Kind::kParam:
        if (e.param_index >= params_.size()) {
          throw EvalError(support::cat("statement needs parameter #",
                                       e.param_index + 1, " but only ",
                                       params_.size(), " given"));
        }
        return;
      case Expr::Kind::kColumnRef: {
        resolve_column(e, sources);
        return;
      }
      case Expr::Kind::kUnary:
        bind_expr(*e.lhs, sources, allow_aggregates, inside_aggregate);
        return;
      case Expr::Kind::kBinary:
        bind_expr(*e.lhs, sources, allow_aggregates, inside_aggregate);
        bind_expr(*e.rhs, sources, allow_aggregates, inside_aggregate);
        return;
      case Expr::Kind::kIsNull:
        bind_expr(*e.lhs, sources, allow_aggregates, inside_aggregate);
        return;
      case Expr::Kind::kLike:
        bind_expr(*e.lhs, sources, allow_aggregates, inside_aggregate);
        bind_expr(*e.rhs, sources, allow_aggregates, inside_aggregate);
        return;
      case Expr::Kind::kInList:
        bind_expr(*e.lhs, sources, allow_aggregates, inside_aggregate);
        for (auto& arg : e.args) {
          bind_expr(*arg, sources, allow_aggregates, inside_aggregate);
        }
        return;
      case Expr::Kind::kSubquery:
        return;  // bound independently when materialized
      case Expr::Kind::kFuncCall: {
        if (is_aggregate_name(e.func)) {
          if (!allow_aggregates) {
            throw EvalError(support::cat("aggregate ", e.func,
                                         " not allowed in this clause"));
          }
          if (inside_aggregate) {
            throw EvalError("nested aggregates are not allowed");
          }
          if (!e.star_arg && e.args.size() != 1) {
            throw EvalError(support::cat(e.func, " expects exactly one argument"));
          }
          if (e.star_arg && e.func != "COUNT") {
            throw EvalError(support::cat(e.func, "(*) is not valid"));
          }
          for (auto& arg : e.args) {
            bind_expr(*arg, sources, allow_aggregates, /*inside_aggregate=*/true);
          }
          return;
        }
        validate_scalar_function(e);
        for (auto& arg : e.args) {
          bind_expr(*arg, sources, allow_aggregates, inside_aggregate);
        }
        return;
      }
    }
  }

  [[nodiscard]] static bool is_aggregate_name(std::string_view name) {
    return name == "COUNT" || name == "SUM" || name == "AVG" || name == "MIN" ||
           name == "MAX" || name == "STDDEV" || name == "VARIANCE";
  }

  static void validate_scalar_function(const Expr& e) {
    struct Fn {
      const char* name;
      std::size_t min_args;
      std::size_t max_args;
    };
    static constexpr Fn kFns[] = {
        {"ABS", 1, 1},    {"SQRT", 1, 1},   {"FLOOR", 1, 1}, {"CEIL", 1, 1},
        {"ROUND", 1, 2},  {"LENGTH", 1, 1}, {"UPPER", 1, 1}, {"LOWER", 1, 1},
        {"COALESCE", 1, sql::kMaxScalarFnArgs}, {"IIF", 3, 3},
        {"NULLIF", 2, 2}, {"LEAST", 2, sql::kMaxScalarFnArgs},
        {"GREATEST", 2, sql::kMaxScalarFnArgs},
    };
    for (const Fn& fn : kFns) {
      if (e.func == fn.name) {
        if (e.args.size() < fn.min_args || e.args.size() > fn.max_args) {
          throw EvalError(support::cat(e.func, " expects between ", fn.min_args,
                                       " and ", fn.max_args, " arguments"));
        }
        return;
      }
    }
    throw EvalError(support::cat("unknown function ", e.func));
  }

 private:
  void resolve_column(Expr& e, const std::vector<ScanSource>& sources) {
    std::size_t found_slot = static_cast<std::size_t>(-1);
    for (const ScanSource& s : sources) {
      if (!e.table.empty() && !support::iequals(e.table, s.qualifier)) continue;
      const auto col = s.find_column(e.column);
      if (!col) continue;
      if (found_slot != static_cast<std::size_t>(-1)) {
        throw EvalError(support::cat("ambiguous column '", e.column, "'"));
      }
      found_slot = s.base_slot + *col;
    }
    if (found_slot == static_cast<std::size_t>(-1)) {
      throw EvalError(support::cat("unknown column '",
                                   e.table.empty()
                                       ? e.column
                                       : e.table + "." + e.column,
                                   "'"));
    }
    e.resolved_slot = found_slot;
  }

  Database& db_;
  std::span<const Value> params_;
};

// ---------------------------------------------------------------------------
// Expression evaluation

struct EvalCtx {
  const Row* row = nullptr;
  std::span<const Value> params;
  const std::unordered_map<const Expr*, Value>* aggregates = nullptr;
  const std::unordered_map<const Expr*, Value>* subqueries = nullptr;
  const Row* output_row = nullptr;  // for kAliasRef in ORDER BY
  /// Values pinned onto specific expression nodes, consulted before ordinary
  /// evaluation: the fused evaluator pins each output node equal to a GROUP
  /// BY key to that key's per-group value (it has no representative row).
  const std::unordered_map<const Expr*, Value>* pinned = nullptr;
};

using sql::like_match;  // one matcher shared with the batch VM (expr_vm.cpp)

Value eval_expr(const Expr& e, const EvalCtx& ctx);

Value eval_scalar_function(const Expr& e, const EvalCtx& ctx) {
  const auto arg = [&](std::size_t i) { return eval_expr(*e.args[i], ctx); };
  if (e.func == "COALESCE") {
    for (const auto& a : e.args) {
      Value v = eval_expr(*a, ctx);
      if (!v.is_null()) return v;
    }
    return Value::null();
  }
  if (e.func == "IIF") {
    const Value cond = arg(0);
    return (!cond.is_null() && cond.as_bool()) ? arg(1) : arg(2);
  }
  if (e.func == "NULLIF") {
    const Value a = arg(0);
    const Value b = arg(1);
    const auto cmp = Value::compare_sql(a, b);
    return (cmp && *cmp == 0) ? Value::null() : a;
  }
  if (e.func == "LEAST" || e.func == "GREATEST") {
    // NULL-skipping extrema (aggregate-MIN/MAX semantics, not the
    // NULL-poisoning variant some engines use): the partition-union rewrite
    // combines per-partition MIN/MAX shards with these, and an empty
    // partition's NULL must not erase the other shards' extremum. All-NULL
    // arguments yield NULL, exactly like MIN/MAX over an empty set.
    const bool want_min = e.func == "LEAST";
    Value best = Value::null();
    for (const auto& a : e.args) {
      const Value v = eval_expr(*a, ctx);
      if (v.is_null()) continue;
      if (best.is_null()) {
        best = v;
        continue;
      }
      const auto cmp = Value::compare_sql(v, best);
      if (cmp && (want_min ? *cmp < 0 : *cmp > 0)) best = v;
    }
    return best;
  }

  const Value v = arg(0);
  if (v.is_null()) return Value::null();
  if (e.func == "ABS") {
    return v.type() == ValueType::kInt ? Value::integer(std::llabs(v.as_int()))
                                       : Value::real(std::fabs(v.as_double()));
  }
  if (e.func == "SQRT") {
    const double x = v.as_double();
    if (x < 0) throw EvalError("SQRT of negative value");
    return Value::real(std::sqrt(x));
  }
  if (e.func == "FLOOR") return Value::real(std::floor(v.as_double()));
  if (e.func == "CEIL") return Value::real(std::ceil(v.as_double()));
  if (e.func == "ROUND") {
    const double digits = e.args.size() > 1 ? eval_expr(*e.args[1], ctx).as_double() : 0;
    const double scale = std::pow(10.0, digits);
    return Value::real(std::round(v.as_double() * scale) / scale);
  }
  if (e.func == "LENGTH") {
    return Value::integer(static_cast<std::int64_t>(v.as_string().size()));
  }
  if (e.func == "UPPER") return Value::text(support::to_upper(v.as_string()));
  if (e.func == "LOWER") return Value::text(support::to_lower(v.as_string()));
  throw EvalError(support::cat("unknown function ", e.func));
}

Value eval_expr(const Expr& e, const EvalCtx& ctx) {
  if (ctx.pinned != nullptr) {
    const auto it = ctx.pinned->find(&e);
    if (it != ctx.pinned->end()) return it->second;
  }
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      return e.literal;
    case Expr::Kind::kParam:
      return ctx.params[e.param_index];
    case Expr::Kind::kColumnRef:
      if (ctx.row == nullptr || e.resolved_slot >= ctx.row->size()) {
        throw EvalError(support::cat("column '", e.column,
                                     "' not available in this context"));
      }
      return (*ctx.row)[e.resolved_slot];
    case Expr::Kind::kAliasRef:
      if (ctx.output_row == nullptr || e.alias_index >= ctx.output_row->size()) {
        throw EvalError("alias reference outside ORDER BY");
      }
      return (*ctx.output_row)[e.alias_index];
    case Expr::Kind::kSubquery: {
      if (ctx.subqueries == nullptr) throw EvalError("unexpected subquery");
      const auto it = ctx.subqueries->find(&e);
      if (it == ctx.subqueries->end()) throw EvalError("subquery not materialized");
      return it->second;
    }
    case Expr::Kind::kUnary: {
      const Value v = eval_expr(*e.lhs, ctx);
      if (v.is_null()) return Value::null();
      if (e.un_op == UnOp::kNot) return Value::boolean(!v.as_bool());
      if (v.type() == ValueType::kInt) return Value::integer(-v.as_int());
      return Value::real(-v.as_double());
    }
    case Expr::Kind::kIsNull: {
      const bool null = eval_expr(*e.lhs, ctx).is_null();
      return Value::boolean(e.negated ? !null : null);
    }
    case Expr::Kind::kLike: {
      const Value text = eval_expr(*e.lhs, ctx);
      const Value pattern = eval_expr(*e.rhs, ctx);
      if (text.is_null() || pattern.is_null()) return Value::null();
      const bool m = like_match(text.as_string(), pattern.as_string());
      return Value::boolean(e.negated ? !m : m);
    }
    case Expr::Kind::kInList: {
      const Value needle = eval_expr(*e.lhs, ctx);
      if (needle.is_null()) return Value::null();
      bool saw_null = false;
      for (const auto& arg : e.args) {
        const Value v = eval_expr(*arg, ctx);
        if (v.is_null()) {
          saw_null = true;
          continue;
        }
        const auto cmp = Value::compare_sql(needle, v);
        if (cmp && *cmp == 0) return Value::boolean(!e.negated);
      }
      if (saw_null) return Value::null();
      return Value::boolean(e.negated);
    }
    case Expr::Kind::kFuncCall: {
      if (Binder::is_aggregate_name(e.func)) {
        if (ctx.aggregates == nullptr) {
          throw EvalError(support::cat("aggregate ", e.func,
                                       " outside aggregation context"));
        }
        const auto it = ctx.aggregates->find(&e);
        if (it == ctx.aggregates->end()) {
          throw EvalError("aggregate not computed for this expression");
        }
        return it->second;
      }
      return eval_scalar_function(e, ctx);
    }
    case Expr::Kind::kBinary: {
      switch (e.bin_op) {
        case BinOp::kAnd: {
          // Three-valued logic: FALSE dominates NULL.
          const Value a = eval_expr(*e.lhs, ctx);
          if (!a.is_null() && !a.as_bool()) return Value::boolean(false);
          const Value b = eval_expr(*e.rhs, ctx);
          if (!b.is_null() && !b.as_bool()) return Value::boolean(false);
          if (a.is_null() || b.is_null()) return Value::null();
          return Value::boolean(true);
        }
        case BinOp::kOr: {
          const Value a = eval_expr(*e.lhs, ctx);
          if (!a.is_null() && a.as_bool()) return Value::boolean(true);
          const Value b = eval_expr(*e.rhs, ctx);
          if (!b.is_null() && b.as_bool()) return Value::boolean(true);
          if (a.is_null() || b.is_null()) return Value::null();
          return Value::boolean(false);
        }
        case BinOp::kAdd:
        case BinOp::kSub:
        case BinOp::kMul:
        case BinOp::kDiv:
        case BinOp::kMod: {
          const char op = "+-*/%"[static_cast<int>(e.bin_op) -
                                  static_cast<int>(BinOp::kAdd)];
          return numeric_binop(op, eval_expr(*e.lhs, ctx), eval_expr(*e.rhs, ctx));
        }
        default: {
          const auto cmp =
              Value::compare_sql(eval_expr(*e.lhs, ctx), eval_expr(*e.rhs, ctx));
          if (!cmp) return Value::null();
          switch (e.bin_op) {
            case BinOp::kEq: return Value::boolean(*cmp == 0);
            case BinOp::kNe: return Value::boolean(*cmp != 0);
            case BinOp::kLt: return Value::boolean(*cmp < 0);
            case BinOp::kLe: return Value::boolean(*cmp <= 0);
            case BinOp::kGt: return Value::boolean(*cmp > 0);
            case BinOp::kGe: return Value::boolean(*cmp >= 0);
            default: throw EvalError("bad comparison operator");
          }
        }
      }
    }
  }
  throw EvalError("unhandled expression kind");
}

/// WHERE/ON/HAVING truthiness: NULL counts as false.
bool eval_predicate(const Expr& e, const EvalCtx& ctx) {
  const Value v = eval_expr(e, ctx);
  return !v.is_null() && v.as_bool();
}

// ---------------------------------------------------------------------------
// Aggregation machinery

struct AggState {
  std::size_t count = 0;           // COUNT
  support::RunningStats stats;     // SUM/AVG/STDDEV/VARIANCE
  Value min_value;                 // MIN/MAX under SQL comparison
  Value max_value;
  bool has_minmax = false;
  std::set<Value, bool (*)(const Value&, const Value&)> distinct{
      +[](const Value& a, const Value& b) {
        return Value::compare_total(a, b) < 0;
      }};
};

void agg_accumulate(const Expr& agg, AggState& state, const EvalCtx& ctx) {
  if (agg.star_arg) {
    ++state.count;
    return;
  }
  const Value v = eval_expr(*agg.args[0], ctx);
  if (v.is_null()) return;
  if (agg.distinct_arg) {
    if (!state.distinct.insert(v).second) return;
  }
  ++state.count;
  if (agg.func == "MIN" || agg.func == "MAX") {
    if (!state.has_minmax) {
      state.min_value = state.max_value = v;
      state.has_minmax = true;
    } else {
      const auto cmin = Value::compare_sql(v, state.min_value);
      if (cmin && *cmin < 0) state.min_value = v;
      const auto cmax = Value::compare_sql(v, state.max_value);
      if (cmax && *cmax > 0) state.max_value = v;
    }
    return;
  }
  if (agg.func != "COUNT") state.stats.push(v.as_double());
}

Value agg_finalize(const Expr& agg, const AggState& state) {
  if (agg.func == "COUNT") {
    return Value::integer(static_cast<std::int64_t>(state.count));
  }
  if (state.count == 0) return Value::null();
  if (agg.func == "SUM") return Value::real(state.stats.sum());
  if (agg.func == "AVG") return Value::real(state.stats.mean());
  if (agg.func == "MIN") return state.min_value;
  if (agg.func == "MAX") return state.max_value;
  if (agg.func == "STDDEV") return Value::real(state.stats.stddev_sample());
  if (agg.func == "VARIANCE") return Value::real(state.stats.variance_sample());
  throw EvalError(support::cat("unknown aggregate ", agg.func));
}

void collect_aggregates(const Expr& e, std::vector<const Expr*>& out) {
  if (e.kind == Expr::Kind::kFuncCall && Binder::is_aggregate_name(e.func)) {
    out.push_back(&e);
    return;  // arguments evaluate per input row, not per group
  }
  if (e.lhs) collect_aggregates(*e.lhs, out);
  if (e.rhs) collect_aggregates(*e.rhs, out);
  for (const auto& arg : e.args) collect_aggregates(*arg, out);
}

// ---------------------------------------------------------------------------
// Vectorized columnar aggregation kernels
//
// Batch-at-a-time execution over STORAGE COLUMNAR partitions. The WHERE
// clause, every aggregate argument and every GROUP BY key is an ExprProgram
// (a plain column reference is a one-instruction zero-copy load): the WHERE
// program's boolean lanes AND into a per-partition selection bitmap, each
// selected lane maps to a group id (always group 0 without GROUP BY), and
// each aggregate runs a tight kernel over its argument program's output
// lanes — no Row is ever materialized. Byte-identity with the row path is
// load-bearing: every kernel visits lanes in heap order (partition-major,
// local offset within), pushes the exact doubles agg_accumulate would have
// pushed into the same RunningStats, and keeps first-attained MIN/MAX
// ties. Shapes the VM declines stay on the row path, which raises the
// interpreter's usual diagnostics.

constexpr std::size_t kVectorBatch = 1024;

/// Which kernel loop serves an aggregate call.
enum class AggKernel : std::uint8_t {
  kCountStar,     // COUNT(*)
  kCountColumn,   // COUNT(col)
  kNumericStats,  // SUM/AVG/STDDEV/VARIANCE: count + RunningStats pushes
  kMinMax,        // MIN/MAX: typed first-attained extremes
};

/// Typed running extremes for a MIN/MAX kernel, mirroring agg_accumulate's
/// first-attained rule (strict compare; ties and NaN keep the incumbent).
/// Only the member matching the column's lane type is meaningful; both the
/// low and the high side track, exactly as agg_accumulate updates both
/// min_value and max_value from one state.
struct MinMaxAcc {
  bool has = false;
  std::int64_t lo_i = 0;
  std::int64_t hi_i = 0;
  double lo_d = 0;
  double hi_d = 0;
  std::string lo_s;
  std::string hi_s;
};

/// Rebuilds the Value agg_finalize expects from a typed extreme.
Value minmax_value(ValueType col_type, const MinMaxAcc& acc, bool max_side) {
  switch (col_type) {
    case ValueType::kInt:
      return Value::integer(max_side ? acc.hi_i : acc.lo_i);
    case ValueType::kBool:
      return Value::boolean((max_side ? acc.hi_i : acc.lo_i) != 0);
    case ValueType::kDateTime:
      return Value::datetime(max_side ? acc.hi_i : acc.lo_i);
    case ValueType::kDouble:
      return Value::real(max_side ? acc.hi_d : acc.lo_d);
    default:
      return Value::text(max_side ? acc.hi_s : acc.lo_s);
  }
}

/// Kernel selection for one supported aggregate call.
AggKernel agg_kernel_of(const Expr& agg) {
  if (agg.star_arg) return AggKernel::kCountStar;
  if (agg.func == "COUNT") return AggKernel::kCountColumn;
  if (agg.func == "MIN" || agg.func == "MAX") return AggKernel::kMinMax;
  return AggKernel::kNumericStats;
}

// ---------------------------------------------------------------------------
// Grouped vectorized kernels
//
// Each selected lane is mapped to a group id through a hash over the GROUP
// BY key lanes, and the aggregate kernels index per-group state with that
// id. Group equality must mirror Value::compare_total for same-column
// pairs — the numeric class compares int lanes through double, every other
// class is declared-type-exact — so groups split exactly where the row
// path's std::map keys would.

/// Hash of one group-key lane; lanes that group_lane_equals treats as equal
/// hash equal (ints through double; ±0.0 normalized for the double lanes).
std::size_t group_lane_hash(ValueType type, const Table::ColumnSlice& slice,
                            std::size_t lane) {
  constexpr std::size_t kNullHash = 0x517cc1b727220a95ULL;
  if (slice.valid[lane] == 0) return kNullHash;
  switch (type) {
    case ValueType::kBool:
      return slice.ints[lane] != 0 ? 2 : 1;
    case ValueType::kInt:
      return std::hash<double>{}(static_cast<double>(slice.ints[lane]));
    case ValueType::kDateTime:
      return std::hash<std::int64_t>{}(slice.ints[lane]);
    case ValueType::kDouble: {
      const double d = slice.reals[lane];
      return std::hash<double>{}(d == 0.0 ? 0.0 : d);
    }
    case ValueType::kString:
      return std::hash<std::string>{}(slice.strs[lane]);
    default:
      return 0;
  }
}

/// One group-key lane against a stored key Value of the same column:
/// replicates Value::compare_total == 0 (NULL equals NULL and nothing else).
bool group_lane_equals(ValueType type, const Table::ColumnSlice& slice,
                       std::size_t lane, const Value& key) {
  if (slice.valid[lane] == 0) return key.is_null();
  if (key.is_null()) return false;
  switch (type) {
    case ValueType::kBool:
      return (slice.ints[lane] != 0) == key.as_bool();
    case ValueType::kInt:
      // compare_total's numeric class compares through as_double.
      return static_cast<double>(slice.ints[lane]) == key.as_double();
    case ValueType::kDateTime:
      return slice.ints[lane] == key.as_datetime();
    case ValueType::kDouble:
      return slice.reals[lane] == key.as_double();
    case ValueType::kString:
      return slice.strs[lane] == key.as_string();
    default:
      return false;
  }
}

/// Rebuilds the Value a group-key lane denotes — the same mapping the row
/// path's eval of the GROUP BY column ref produces from the stored cell.
Value group_lane_value(ValueType type, const Table::ColumnSlice& slice,
                       std::size_t lane) {
  if (slice.valid[lane] == 0) return Value::null();
  switch (type) {
    case ValueType::kBool:
      return Value::boolean(slice.ints[lane] != 0);
    case ValueType::kInt:
      return Value::integer(slice.ints[lane]);
    case ValueType::kDateTime:
      return Value::datetime(slice.ints[lane]);
    case ValueType::kDouble:
      return Value::real(slice.reals[lane]);
    default:
      return Value::text(slice.strs[lane]);
  }
}

/// Accumulates one batch of `n` lanes into per-group aggregate state: each
/// selected lane (`sel[i]`) lands in the state of group `group_of(i)`,
/// reading the argument lanes of `slice` (unused for COUNT(*)). Every lane,
/// selected or not, must map to an existing group: the count kernels add
/// `sel[i]` branch-free. A global aggregate passes a constant group 0, which
/// the compiler folds so the loops vectorize like a single accumulator.
/// Lanes are visited in heap order, so every group's push sequence is
/// exactly the subsequence the row path feeds it.
template <typename GroupOf>
void accumulate_grouped_batch(AggKernel kernel, ValueType col_type,
                              const Table::ColumnSlice& slice, std::size_t n,
                              const std::uint8_t* sel, GroupOf group_of,
                              std::vector<AggState>& states,
                              std::vector<MinMaxAcc>& minmax) {
  switch (kernel) {
    case AggKernel::kCountStar:
      for (std::size_t i = 0; i < n; ++i) states[group_of(i)].count += sel[i];
      return;
    case AggKernel::kCountColumn:
      for (std::size_t i = 0; i < n; ++i) {
        states[group_of(i)].count += sel[i] & slice.valid[i];
      }
      return;
    case AggKernel::kNumericStats:
      if (col_type == ValueType::kInt) {
        for (std::size_t i = 0; i < n; ++i) {
          if (sel[i] && slice.valid[i]) {
            AggState& state = states[group_of(i)];
            ++state.count;
            state.stats.push(static_cast<double>(slice.ints[i]));
          }
        }
      } else {
        for (std::size_t i = 0; i < n; ++i) {
          if (sel[i] && slice.valid[i]) {
            AggState& state = states[group_of(i)];
            ++state.count;
            state.stats.push(slice.reals[i]);
          }
        }
      }
      return;
    case AggKernel::kMinMax:
      switch (col_type) {
        case ValueType::kInt:
          // compare_sql compares ints via double; replicate the cast so
          // > 2^53 collisions keep the first-attained value.
          for (std::size_t i = 0; i < n; ++i) {
            if (!(sel[i] && slice.valid[i])) continue;
            ++states[group_of(i)].count;
            MinMaxAcc& acc = minmax[group_of(i)];
            const std::int64_t x = slice.ints[i];
            if (!acc.has) {
              acc.has = true;
              acc.lo_i = acc.hi_i = x;
              continue;
            }
            const auto xd = static_cast<double>(x);
            if (xd < static_cast<double>(acc.lo_i)) acc.lo_i = x;
            if (xd > static_cast<double>(acc.hi_i)) acc.hi_i = x;
          }
          return;
        case ValueType::kBool:
        case ValueType::kDateTime:
          for (std::size_t i = 0; i < n; ++i) {
            if (!(sel[i] && slice.valid[i])) continue;
            ++states[group_of(i)].count;
            MinMaxAcc& acc = minmax[group_of(i)];
            const std::int64_t x = slice.ints[i];
            if (!acc.has) {
              acc.has = true;
              acc.lo_i = acc.hi_i = x;
              continue;
            }
            if (x < acc.lo_i) acc.lo_i = x;
            if (x > acc.hi_i) acc.hi_i = x;
          }
          return;
        case ValueType::kDouble:
          for (std::size_t i = 0; i < n; ++i) {
            if (!(sel[i] && slice.valid[i])) continue;
            ++states[group_of(i)].count;
            MinMaxAcc& acc = minmax[group_of(i)];
            const double x = slice.reals[i];
            if (!acc.has) {
              acc.has = true;
              acc.lo_d = acc.hi_d = x;
              continue;
            }
            if (x < acc.lo_d) acc.lo_d = x;
            if (x > acc.hi_d) acc.hi_d = x;
          }
          return;
        case ValueType::kString:
          for (std::size_t i = 0; i < n; ++i) {
            if (!(sel[i] && slice.valid[i])) continue;
            ++states[group_of(i)].count;
            MinMaxAcc& acc = minmax[group_of(i)];
            const std::string& x = slice.strs[i];
            if (!acc.has) {
              acc.has = true;
              acc.lo_s = acc.hi_s = x;
              continue;
            }
            if (x.compare(acc.lo_s) < 0) acc.lo_s = x;
            if (x.compare(acc.hi_s) > 0) acc.hi_s = x;
          }
          return;
        default:
          return;
      }
  }
}

// ---------------------------------------------------------------------------
// Columnar hash equi-join kernels

/// Key category of a columnar equi-join. Lane equality must mirror
/// ValueEqTotal: the numeric class joins INTEGER and DOUBLE lanes through
/// double; every other class requires the same declared type on both sides.
/// Cross-class pairs return nullopt — ValueEqTotal never matches them, so
/// the (cheap, empty) row path keeps that behavior.
enum class JoinKeyKind : std::uint8_t { kNumeric, kBool, kDateTime, kString };

std::optional<JoinKeyKind> join_key_kind(ValueType a, ValueType b) {
  const auto numeric = [](ValueType t) {
    return t == ValueType::kInt || t == ValueType::kDouble;
  };
  if (numeric(a) && numeric(b)) return JoinKeyKind::kNumeric;
  if (a != b) return std::nullopt;
  switch (a) {
    case ValueType::kBool:
      return JoinKeyKind::kBool;
    case ValueType::kDateTime:
      return JoinKeyKind::kDateTime;
    case ValueType::kString:
      return JoinKeyKind::kString;
    default:
      return std::nullopt;
  }
}

/// Build-and-probe over masked key slices: inserts every usable (live,
/// non-NULL) build lane's row id keyed by `key_of(slice, lane)`, then probes
/// with the other side's usable lanes and collects surviving
/// (outer id, inner id) pairs. Per-key id lists keep insertion (= build scan)
/// order, so when the build side is the inner table the pair stream is
/// already the row path's emission order. NULL lanes never participate: SQL
/// equality cannot match them, and the ON re-evaluation during row assembly
/// would discard such a pair anyway.
template <typename Key, typename KeyOf>
std::vector<std::pair<std::size_t, std::size_t>> columnar_join_pairs(
    const std::vector<Table::KeySlice>& build,
    const std::vector<Table::KeySlice>& probe, bool build_is_outer,
    std::uint64_t& lanes_probed, KeyOf&& key_of) {
  std::unordered_map<Key, std::vector<std::size_t>> table;
  for (const Table::KeySlice& s : build) {
    for (std::size_t i = 0; i < s.column.size; ++i) {
      if (s.usable(i)) {
        table[key_of(s.column, i)].push_back(make_row_id(s.partition, i));
      }
    }
  }
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (const Table::KeySlice& s : probe) {
    for (std::size_t i = 0; i < s.column.size; ++i) {
      if (!s.usable(i)) continue;
      ++lanes_probed;
      const auto it = table.find(key_of(s.column, i));
      if (it == table.end()) continue;
      const std::size_t probe_id = make_row_id(s.partition, i);
      for (const std::size_t build_id : it->second) {
        pairs.emplace_back(build_is_outer ? build_id : probe_id,
                           build_is_outer ? probe_id : build_id);
      }
    }
  }
  return pairs;
}

/// One partition's VM-computed join key lanes, owned (the VM scratch is
/// reused across batches); exposed to columnar_join_pairs as a KeySlice.
struct KeyLanes {
  std::vector<std::int64_t> ints;
  std::vector<double> reals;
  std::vector<std::string> strs;
  std::vector<std::uint8_t> valid;
};

// ---------------------------------------------------------------------------
// SELECT execution

class SelectExec {
 public:
  /// `enclosing` is the CTE scope of the statement this execution nests in
  /// (null at top level); `env` is the shared per-top-level-statement state
  /// (null at top level — one is created locally). `injected` optionally
  /// names externally-materialized results: WITH entries matching an
  /// injected name are not executed, their names resolve to the injected
  /// rows (the shard-result cache's injection path).
  SelectExec(Database& db, sql::SelectStmt& stmt, std::span<const Value> params,
             const CteScope* enclosing = nullptr, ExecEnv* env = nullptr,
             const CteScope* injected = nullptr)
      : db_(db), stmt_(stmt), params_(params), scope_{enclosing, {}},
        env_(env), injected_(injected) {}

  QueryResult run() {
    ExecEnv local_env;
    if (env_ == nullptr) env_ = &local_env;

    if (!stmt_.ctes.empty()) materialize_ctes();

    Binder binder(db_, params_);
    sources_ = binder.bind_sources(stmt_, &scope_);
    expand_stars();
    bind_all(binder);
    materialize_subqueries();

    QueryResult result;
    result.columns = output_names();

    std::vector<std::pair<Row, Row>> out;  // (output row, order keys)
    std::optional<std::vector<std::pair<Row, Row>>> fused;
    const bool aggregation = needs_aggregation();
    if (aggregation) fused = try_grouped_vectorized();
    if (fused) {
      // Fused single-pass columnar evaluator: scan, WHERE, and aggregation
      // already happened batch-at-a-time over the column vectors.
      out = std::move(*fused);
    } else {
      std::vector<Row> rows = scan_and_join();
      if (stmt_.where && !where_applied_) {
        std::vector<Row> kept;
        kept.reserve(rows.size());
        for (Row& row : rows) {
          EvalCtx ctx{&row, params_, nullptr, &subquery_values_, nullptr};
          if (eval_predicate(*stmt_.where, ctx)) kept.push_back(std::move(row));
        }
        rows = std::move(kept);
      }

      if (aggregation) {
        out = run_aggregation(rows);
      } else {
        out.reserve(rows.size());
        for (const Row& row : rows) {
          EvalCtx ctx{&row, params_, nullptr, &subquery_values_, nullptr};
          Row output;
          output.reserve(stmt_.items.size());
          for (const auto& item : stmt_.items) {
            output.push_back(eval_expr(*item.expr, ctx));
          }
          Row keys = eval_order_keys(ctx, output);
          out.emplace_back(std::move(output), std::move(keys));
        }
      }
    }

    if (stmt_.distinct) {
      std::set<Row, bool (*)(const Row&, const Row&)> seen(+[](const Row& a,
                                                               const Row& b) {
        for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
          const int c = Value::compare_total(a[i], b[i]);
          if (c != 0) return c < 0;
        }
        return a.size() < b.size();
      });
      std::vector<std::pair<Row, Row>> deduped;
      for (auto& pair : out) {
        if (seen.insert(pair.first).second) deduped.push_back(std::move(pair));
      }
      out = std::move(deduped);
    }

    if (!stmt_.order_by.empty()) {
      std::stable_sort(out.begin(), out.end(), [&](const auto& a, const auto& b) {
        for (std::size_t i = 0; i < stmt_.order_by.size(); ++i) {
          int c = Value::compare_total(a.second[i], b.second[i]);
          if (stmt_.order_by[i].descending) c = -c;
          if (c != 0) return c < 0;
        }
        return false;
      });
    }

    const std::size_t offset = stmt_.offset.value_or(0);
    const std::size_t limit = stmt_.limit.value_or(out.size());
    for (std::size_t i = offset; i < out.size() && i - offset < limit; ++i) {
      result.rows.push_back(std::move(out[i].first));
    }
    return result;
  }

  /// Analysis-only companion to run() for Database::explain_fused: binds
  /// the statement exactly like run() but materializes nothing (CTE bodies
  /// are explained separately by the caller; a FROM naming one fails to
  /// bind here, which the caller reports as row path), then reports which
  /// evaluator the fused analysis picks. Any program compiled here is
  /// discarded with the caller's throwaway parse tree and never counted
  /// (count_compiles_ off) — explain must not move the pinned counters.
  [[nodiscard]] std::string explain_verdict() {
    ExecEnv local_env;
    if (env_ == nullptr) env_ = &local_env;
    count_compiles_ = false;
    // CTE names bind against an empty derived result — enough for the
    // verdict, since derived sources always stay on the row path.
    static const QueryResult kEmptyDerived;
    for (const auto& cte : stmt_.ctes) {
      scope_.entries.emplace_back(cte.name, &kEmptyDerived);
    }
    Binder binder(db_, params_);
    sources_ = binder.bind_sources(stmt_, &scope_);
    expand_stars();
    bind_all(binder);
    if (!needs_aggregation()) return "row path (no aggregation)";
    if (sources_.size() != 1 || sources_[0].table == nullptr ||
        !sources_[0].table->columnar()) {
      return "row path (not a single columnar base table)";
    }
    const bool keyed = !stmt_.group_by.empty();
    if (analyze_grouped(sources_[0]) != nullptr) {
      return keyed ? "fused grouped (vectorized)"
                   : "fused global aggregate (vectorized)";
    }
    return keyed ? "row path (grouped shape unsupported)"
                 : "row path (shape unsupported)";
  }

 private:
  /// Declaration indices of earlier CTEs the `index`-th body references
  /// (FROM, JOINs, and subqueries, recursively). The parser already rejects
  /// self and forward references, so dependencies only point backwards.
  [[nodiscard]] std::vector<std::size_t> cte_dependencies(
      std::size_t index) const {
    std::vector<std::size_t> deps;
    sql::for_each_table_ref(
        *stmt_.ctes[index].select, [&](const sql::TableRef& ref) {
          for (std::size_t j = 0; j < index; ++j) {
            if (support::iequals(ref.table, stmt_.ctes[j].name)) {
              deps.push_back(j);
              return;
            }
          }
        });
    return deps;
  }

  /// Live rows the `index`-th CTE's base scan would touch (0 when the body
  /// is FROM-less or reads a derived source) — the dispatch-threshold
  /// estimate for parallel materialization.
  [[nodiscard]] std::size_t cte_scan_estimate(std::size_t index) const {
    const sql::SelectStmt& body = *stmt_.ctes[index].select;
    if (!body.from) return 0;
    if (scope_.find(body.from->table) != nullptr) return 0;  // derived
    const Table* table = db_.find_table(body.from->table);
    if (table == nullptr) return 0;  // surfaces as a bind error later
    if (body.from->partition && *body.from->partition < table->partition_count()) {
      return table->partition_live_count(*body.from->partition);
    }
    return table->live_row_count();
  }

  /// Materializes the WITH entries exactly once per execution. Entries are
  /// scheduled in dependency waves: every CTE whose (strictly earlier)
  /// references are already materialized is ready, and a ready wave of two
  /// or more bodies runs concurrently on the scan pool when the scan config
  /// allows it — this is what lets a partition-union statement scan its
  /// `part<K>` CTEs in parallel inside ONE statement execution. Results
  /// land in declaration-indexed slots and scope entries are appended in
  /// declaration order, so the visible row streams are byte-identical to
  /// the serial left-to-right materialization.
  void materialize_ctes() {
    const std::size_t n = stmt_.ctes.size();
    cte_results_.resize(n);
    std::vector<std::vector<std::size_t>> deps(n);
    for (std::size_t i = 0; i < n; ++i) deps[i] = cte_dependencies(i);

    std::vector<bool> done(n, false);
    std::size_t materialized = 0;
    if (injected_ != nullptr) {
      // Pre-materialized entries (shard-cache hits): mark them done so no
      // wave executes their bodies, and expose the injected rows under the
      // declared names. Declaration order is preserved ahead of every wave,
      // so lookup shadowing behaves as in the serial materialization.
      for (std::size_t i = 0; i < n; ++i) {
        const QueryResult* pre = injected_->find(stmt_.ctes[i].name);
        if (pre == nullptr) continue;
        done[i] = true;
        scope_.entries.emplace_back(stmt_.ctes[i].name, pre);
        ++materialized;
      }
    }
    while (materialized < n) {
      std::vector<std::size_t> wave;
      for (std::size_t i = 0; i < n; ++i) {
        if (done[i]) continue;
        const bool ready = std::all_of(deps[i].begin(), deps[i].end(),
                                       [&](std::size_t j) { return done[j]; });
        if (ready) wave.push_back(i);
      }
      // The dependency graph is acyclic (parser-enforced), so progress is
      // guaranteed: at least the lowest unfinished index is ready.

      std::size_t estimate = 0;
      for (const std::size_t i : wave) estimate += cte_scan_estimate(i);
      const std::size_t workers = scan_workers(wave.size(), estimate);
      // Parallel bodies each get a private ExecEnv seeded with the
      // statement's memo (bodies on the pool must not share a mutable map);
      // fresh entries merge back in declaration order, so the surviving
      // memo is deterministic. Serial bodies share the statement's env.
      std::vector<ExecEnv> envs(workers > 1 ? wave.size() : 0);
      for (ExecEnv& env : envs) env.subquery_memo = env_->subquery_memo;
      const auto materialize = [&](std::size_t i, std::size_t) {
        SelectExec body(db_, *stmt_.ctes[wave[i]].select, params_, &scope_,
                        envs.empty() ? env_ : &envs[i]);
        cte_results_[wave[i]] = body.run();
        db_.count_cte_materializations();
      };
      scan_pool().parallel_for(wave.size(), workers, materialize);
      if (workers > 1) db_.count_cte_parallel_materializations(wave.size());
      for (ExecEnv& env : envs) {
        for (auto& [key, value] : env.subquery_memo) {
          env_->subquery_memo.try_emplace(key, value);
        }
      }
      for (const std::size_t i : wave) {
        done[i] = true;
        scope_.entries.emplace_back(stmt_.ctes[i].name, &cte_results_[i]);
        ++materialized;
      }
    }
  }

  void expand_stars() {
    std::vector<sql::SelectItem> expanded;
    for (auto& item : stmt_.items) {
      if (!item.star) {
        expanded.push_back(std::move(item));
        continue;
      }
      bool matched = false;
      for (const ScanSource& s : sources_) {
        if (!item.star_table.empty() &&
            !support::iequals(item.star_table, s.qualifier)) {
          continue;
        }
        matched = true;
        for (std::size_t c = 0; c < s.column_count(); ++c) {
          sql::SelectItem col;
          col.expr = std::make_unique<Expr>();
          col.expr->kind = Expr::Kind::kColumnRef;
          col.expr->table = s.qualifier;
          col.expr->column = s.column_name(c);
          expanded.push_back(std::move(col));
        }
      }
      if (!matched) {
        throw EvalError(item.star_table.empty()
                            ? std::string("SELECT * without FROM")
                            : support::cat("unknown table '", item.star_table,
                                           "' in ", item.star_table, ".*"));
      }
    }
    if (expanded.empty()) throw EvalError("empty select list");
    stmt_.items = std::move(expanded);
  }

  void bind_all(Binder& binder) {
    for (auto& item : stmt_.items) {
      binder.bind_expr(*item.expr, sources_, /*allow_aggregates=*/true);
    }
    if (stmt_.where) {
      binder.bind_expr(*stmt_.where, sources_, /*allow_aggregates=*/false);
    }
    for (auto& join : stmt_.joins) {
      if (join.on) binder.bind_expr(*join.on, sources_, /*allow_aggregates=*/false);
    }
    for (auto& g : stmt_.group_by) {
      binder.bind_expr(*g, sources_, /*allow_aggregates=*/false);
    }
    if (stmt_.having) {
      binder.bind_expr(*stmt_.having, sources_, /*allow_aggregates=*/true);
    }
    for (auto& key : stmt_.order_by) {
      // ORDER BY <ordinal> and ORDER BY <alias> resolve to select items.
      if (key.expr->kind == Expr::Kind::kLiteral &&
          key.expr->literal.type() == ValueType::kInt) {
        const std::int64_t ordinal = key.expr->literal.as_int();
        if (ordinal < 1 ||
            ordinal > static_cast<std::int64_t>(stmt_.items.size())) {
          throw EvalError(support::cat("ORDER BY position ", ordinal,
                                       " out of range"));
        }
        key.expr->kind = Expr::Kind::kAliasRef;
        key.expr->alias_index = static_cast<std::size_t>(ordinal - 1);
        continue;
      }
      if (key.expr->kind == Expr::Kind::kColumnRef && key.expr->table.empty()) {
        bool is_alias = false;
        for (std::size_t i = 0; i < stmt_.items.size(); ++i) {
          if (!stmt_.items[i].alias.empty() &&
              support::iequals(stmt_.items[i].alias, key.expr->column)) {
            key.expr->kind = Expr::Kind::kAliasRef;
            key.expr->alias_index = i;
            is_alias = true;
            break;
          }
        }
        if (is_alias) continue;
      }
      binder.bind_expr(*key.expr, sources_, /*allow_aggregates=*/true);
    }
  }

  void materialize_one(const Expr& e) {
    if (e.kind == Expr::Kind::kSubquery) {
      // Memo key: structural rendering plus the number of CTE entries
      // visible right now — a name can resolve to a table before a
      // shadowing CTE materializes and to the CTE afterwards, and the
      // count tells those two moments apart.
      std::string key = support::cat(scope_.visible_count(), ':');
      sql::structural_key(*e.subquery, key);
      const auto hit = env_->subquery_memo.find(key);
      if (hit != env_->subquery_memo.end()) {
        db_.count_subquery_memo_hits();
        subquery_values_[&e] = hit->second;
        return;
      }
      // Execute a clone so the original statement stays reusable; the memo
      // makes this a once-per-distinct-shape cost instead of once per
      // occurrence.
      sql::ExprRemap remap;
      std::unique_ptr<sql::SelectStmt> sub = e.subquery->clone(&remap);
      SelectExec exec(db_, *sub, params_, &scope_, env_);
      QueryResult sub_result = exec.run();
      db_.count_subquery_executions();
      // Back-propagate plan verdicts the clone's execution produced onto
      // the original subquery (mutable annotation members), so the next
      // execution of the enclosing prepared statement clones a
      // pre-analyzed tree instead of re-deriving the verdict.
      if (sub->fused_rejected && !e.subquery->fused_rejected) {
        e.subquery->fused_rejected = true;
      }
      if (sub->fused_group_plan && !e.subquery->fused_group_plan) {
        sql::ExprRemap inverse;
        inverse.reserve(remap.size());
        for (const auto& [original, copy] : remap) inverse[copy] = original;
        e.subquery->fused_group_plan =
            sql::remap_onto(*sub->fused_group_plan, inverse);
      }
      if (sub_result.column_count() != 1) {
        throw EvalError("scalar subquery must produce one column");
      }
      if (sub_result.row_count() > 1) {
        throw EvalError("scalar subquery produced more than one row");
      }
      const Value scalar = sub_result.scalar();
      env_->subquery_memo.emplace(std::move(key), scalar);
      subquery_values_[&e] = scalar;
      return;
    }
    if (e.lhs) materialize_one(*e.lhs);
    if (e.rhs) materialize_one(*e.rhs);
    for (const auto& arg : e.args) materialize_one(*arg);
  }

  void materialize_subqueries() {
    for (const auto& item : stmt_.items) materialize_one(*item.expr);
    if (stmt_.where) materialize_one(*stmt_.where);
    for (const auto& join : stmt_.joins) {
      if (join.on) materialize_one(*join.on);
    }
    for (const auto& g : stmt_.group_by) materialize_one(*g);
    if (stmt_.having) materialize_one(*stmt_.having);
    for (const auto& key : stmt_.order_by) materialize_one(*key.expr);
  }

  /// Access path chosen for the base scan from indexable WHERE conjuncts.
  struct BaseScanPlan {
    enum class Kind { kFullScan, kEquality, kRange };
    Kind kind = Kind::kFullScan;
    const Index* index = nullptr;
    Value key;                 // kEquality
    std::optional<Value> lo;   // kRange (inclusive; strictness re-filtered)
    std::optional<Value> hi;
    /// Partition pruning: an equality conjunct on the table's partition
    /// column routes a heap scan to this single partition. Only full scans
    /// carry it — index paths route internally, shard by shard.
    std::optional<std::size_t> partition;
    /// An explicit `PARTITION (k)` selector conflicts with the partition an
    /// equality conjunct routes to: the scan provably yields nothing.
    bool empty = false;
  };

  /// Collects `column op constant` conjuncts over the given source and
  /// picks an index access path: equality probes win; otherwise range
  /// bounds on an ordered-indexed column. The full WHERE clause is applied
  /// afterwards regardless, so inclusive range bounds are always safe.
  /// Equality conjuncts on the partition column additionally record the
  /// scan's target partition for heap-scan pruning.
  [[nodiscard]] BaseScanPlan plan_base_scan(const Expr* predicate,
                                            const ScanSource& source) {
    BaseScanPlan plan;
    if (source.table == nullptr) return plan;  // derived rows: full scan
    std::map<std::size_t, BaseScanPlan> ranges;  // column -> partial bounds

    const auto constant_of = [&](const Expr& e) -> std::optional<Value> {
      if (e.kind != Expr::Kind::kLiteral && e.kind != Expr::Kind::kParam &&
          e.kind != Expr::Kind::kSubquery) {
        return std::nullopt;
      }
      EvalCtx ctx{nullptr, params_, nullptr, &subquery_values_, nullptr};
      return eval_expr(e, ctx);
    };
    const auto column_of = [&](const Expr& e) -> std::optional<std::size_t> {
      if (e.kind != Expr::Kind::kColumnRef) return std::nullopt;
      if (e.resolved_slot < source.base_slot ||
          e.resolved_slot >= source.base_slot + source.column_count()) {
        return std::nullopt;
      }
      return e.resolved_slot - source.base_slot;
    };

    const auto visit = [&](auto&& self, const Expr* e) -> void {
      if (e == nullptr || plan.kind == BaseScanPlan::Kind::kEquality) return;
      if (e->kind == Expr::Kind::kBinary && e->bin_op == BinOp::kAnd) {
        self(self, e->lhs.get());
        self(self, e->rhs.get());
        return;
      }
      if (e->kind != Expr::Kind::kBinary) return;
      // Normalize to column-op-constant.
      auto column = column_of(*e->lhs);
      auto constant = column ? constant_of(*e->rhs) : std::nullopt;
      BinOp op = e->bin_op;
      if (!column || !constant) {
        column = column_of(*e->rhs);
        constant = column ? constant_of(*e->lhs) : std::nullopt;
        switch (op) {  // mirror the comparison
          case BinOp::kLt: op = BinOp::kGt; break;
          case BinOp::kLe: op = BinOp::kGe; break;
          case BinOp::kGt: op = BinOp::kLt; break;
          case BinOp::kGe: op = BinOp::kLe; break;
          default: break;
        }
      }
      if (!column || !constant || constant->is_null()) return;
      if (op == BinOp::kEq && !plan.partition &&
          source.table->partition_count() > 1 &&
          source.table->partition_column() == *column) {
        plan.partition = source.table->route(*constant);
      }
      const Index* index = source.table->find_index_on(*column);
      if (index == nullptr) return;

      if (op == BinOp::kEq) {
        plan.kind = BaseScanPlan::Kind::kEquality;
        plan.index = index;
        plan.key = *constant;
        return;
      }
      if (index->kind() != Index::Kind::kOrdered) return;
      BaseScanPlan& range = ranges[*column];
      range.kind = BaseScanPlan::Kind::kRange;
      range.index = index;
      if (op == BinOp::kGt || op == BinOp::kGe) {
        if (!range.lo || Value::compare_total(*constant, *range.lo) > 0) {
          range.lo = *constant;
        }
      } else if (op == BinOp::kLt || op == BinOp::kLe) {
        if (!range.hi || Value::compare_total(*constant, *range.hi) < 0) {
          range.hi = *constant;
        }
      }
    };
    visit(visit, predicate);
    if (source.partition && plan.partition &&
        *plan.partition != *source.partition) {
      // The explicit selector and an equality conjunct's routing disagree:
      // the scan is provably empty and touches nothing.
      BaseScanPlan empty;
      empty.empty = true;
      empty.partition = source.partition;
      return empty;
    }
    // One access-path cascade for pinned and unpinned scans alike:
    // equality probe, else the first bounded range, else full scan. A
    // selector then pins whichever path won — index paths stay worth
    // taking (their row ids are filtered by the row-id partition bits), so
    // a shard CTE whose body keeps an indexed equality (the rewritten
    // per-owner aggregates) probes instead of walking its partition heap.
    BaseScanPlan chosen = std::move(plan);
    if (chosen.kind != BaseScanPlan::Kind::kEquality) {
      for (auto& [column, range] : ranges) {
        if (range.lo || range.hi) {
          chosen = std::move(range);
          break;
        }
      }
    }
    if (source.partition) chosen.partition = source.partition;
    return chosen;
  }

  /// Schema snapshot validated on plan reuse (table may have been dropped
  /// and re-created with another layout since the plan was built).
  [[nodiscard]] static std::vector<ValueType> column_type_snapshot(
      const Table& table) {
    std::vector<ValueType> types;
    types.reserve(table.schema().column_count());
    for (const ColumnDef& col : table.schema().columns()) {
      types.push_back(col.type);
    }
    return types;
  }

  /// Compiles `e` into a batch program over the given source's base table.
  /// Params and already-materialized scalar subqueries resolve to their
  /// current values at compile time (re-validated per execution by
  /// bind_constants); anything unresolvable compiles as a NULL-typed slot.
  /// nullptr = the shape falls outside the VM (row-path fallback).
  [[nodiscard]] std::shared_ptr<const sql::ExprProgram> compile_program(
      const Expr& e, const ScanSource& source,
      const std::vector<ValueType>& column_types) const {
    const auto constant_value = [this](const Expr& c) -> std::optional<Value> {
      EvalCtx ctx{nullptr, params_, nullptr, &subquery_values_, nullptr};
      try {
        return eval_expr(c, ctx);
      } catch (const EvalError&) {
        return std::nullopt;  // dry-run analysis (explain): type unknown
      }
    };
    auto program = sql::ExprProgram::compile(
        e, source.base_slot, std::span(column_types), constant_value);
    if (program != nullptr && count_compiles_) {
      db_.count_expr_programs_compiled();
    }
    return program;
  }

  /// Binds one program's runtime-constant slots for this execution; no-op
  /// (true) for null programs. False = a param or subquery re-evaluated to a
  /// different type than at compile time, so this execution declines to the
  /// row path.
  [[nodiscard]] bool bind_program(const sql::ExprProgram* program,
                                  sql::ExprProgram::Bound& out,
                                  std::size_t& evals) {
    if (program == nullptr) return true;
    EvalCtx ctx{nullptr, params_, nullptr, &subquery_values_, nullptr};
    auto bound = program->bind_constants(
        [&](const Expr& e) { return eval_expr(e, ctx); });
    if (!bound) return false;
    out = std::move(*bound);
    ++evals;
    return true;
  }

  /// Runs one compiled program over a batch, bumping the VM counters.
  sql::ExprProgram::Result run_program(const sql::ExprProgram& program,
                                       sql::ExprProgram::Scratch& scratch,
                                       const sql::ExprProgram::Bound& bound,
                                       std::span<const Table::ColumnSlice> cols,
                                       const std::uint8_t* demand,
                                       std::size_t begin, std::size_t end) {
    db_.count_expr_vm_batches();
    db_.count_expr_vm_lanes(end - begin);
    return program.run(scratch, bound, cols, demand, begin, end);
  }

  /// Collects run_aggregation's aggregate list (items, HAVING, ORDER BY
  /// order, so finalized values land on the same Expr nodes eval_expr will
  /// look up) as kernel descriptors: COUNT(*) needs no input, every other
  /// argument compiles to a batch program whose output lanes feed the
  /// kernels (a plain column is a zero-copy load). False when a call falls
  /// outside them: DISTINCT, an uncompilable argument, or a numeric-only
  /// aggregate (SUM/AVG/STDDEV/VARIANCE) over a non-numeric input — the row
  /// path raises as_double's diagnostic for that one.
  [[nodiscard]] bool collect_kernel_aggregates(
      const ScanSource& base, const std::vector<ValueType>& column_types,
      std::vector<sql::FusedGroupPlan::Aggregate>& out) const {
    std::vector<const Expr*> agg_exprs;
    for (const auto& item : stmt_.items) {
      collect_aggregates(*item.expr, agg_exprs);
    }
    if (stmt_.having) collect_aggregates(*stmt_.having, agg_exprs);
    for (const auto& key : stmt_.order_by) {
      collect_aggregates(*key.expr, agg_exprs);
    }
    for (const Expr* agg : agg_exprs) {
      if (agg->distinct_arg) return false;
      sql::FusedGroupPlan::Aggregate entry;
      entry.expr = agg;
      if (!agg->star_arg) {
        if (agg->args.empty()) return false;
        entry.program = compile_program(*agg->args[0], base, column_types);
        if (entry.program == nullptr) return false;
        const bool numeric_only = agg->func == "SUM" || agg->func == "AVG" ||
                                  agg->func == "STDDEV" ||
                                  agg->func == "VARIANCE";
        const ValueType type = entry.program->result_type();
        // An all-NULL program result is fine for any kernel: no lane is
        // ever valid, so the aggregate sees the empty input.
        if (numeric_only && type != ValueType::kInt &&
            type != ValueType::kDouble && type != ValueType::kNull) {
          return false;
        }
      }
      out.push_back(entry);
    }
    return true;
  }

  /// WHERE analysis: the whole clause compiles to one program whose boolean
  /// lanes AND into the selection bitmap. False when it doesn't compile.
  [[nodiscard]] bool analyze_where(
      const ScanSource& base, const std::vector<ValueType>& column_types,
      std::shared_ptr<const sql::ExprProgram>& where_program) const {
    if (!stmt_.where) return true;
    where_program = compile_program(*stmt_.where, base, column_types);
    if (where_program == nullptr) return false;
    const ValueType type = where_program->result_type();
    return type == ValueType::kBool || type == ValueType::kNull;
  }

  /// True when every bare (non-aggregate-argument) node of `e` has a
  /// per-group value on the vectorized path: aggregate calls take their
  /// finalized values, and nodes equal to a GROUP BY key expression take
  /// that key's value (recorded in plan.key_refs for EvalCtx pinning) — a
  /// column reference equals a column key resolving to the same slot, any
  /// other node must match a key's structural rendering (`key_strs`). With
  /// no keys, any bare column reference fails: a global aggregate has no
  /// representative row.
  [[nodiscard]] bool grouped_refs_covered(
      const Expr& e, sql::FusedGroupPlan& plan,
      const std::vector<std::string>& key_strs) const {
    if (e.kind == Expr::Kind::kFuncCall && Binder::is_aggregate_name(e.func)) {
      return true;  // argument columns feed the kernels, not the output row
    }
    std::string rendered;
    for (std::size_t k = 0; k < key_strs.size(); ++k) {
      const Expr& key = *stmt_.group_by[k];
      bool same = false;
      if (e.kind == Expr::Kind::kColumnRef) {
        same = key.kind == Expr::Kind::kColumnRef &&
               key.resolved_slot == e.resolved_slot;
      } else {
        if (rendered.empty()) sql::structural_key(e, rendered);
        same = rendered == key_strs[k];
      }
      if (same) {
        plan.key_refs.emplace_back(&e, k);
        return true;
      }
    }
    if (e.kind == Expr::Kind::kColumnRef) return false;
    if (e.lhs && !grouped_refs_covered(*e.lhs, plan, key_strs)) return false;
    if (e.rhs && !grouped_refs_covered(*e.rhs, plan, key_strs)) return false;
    for (const auto& arg : e.args) {
      if (!grouped_refs_covered(*arg, plan, key_strs)) return false;
    }
    return true;
  }

  /// Structural analysis for the fused columnar evaluator. Eligible shape:
  /// single columnar base table, no joins, every GROUP BY expression (none
  /// for a global aggregate) and every aggregate argument a VM-compilable
  /// program, supported aggregates per collect_kernel_aggregates (zero
  /// aggregates is fine with keys — pure key deduplication), every bare
  /// column reference outside aggregate arguments covered per
  /// grouped_refs_covered, and a WHERE clause the VM compiles. Returns null
  /// when the statement doesn't fit.
  [[nodiscard]] std::shared_ptr<const sql::FusedGroupPlan> analyze_grouped(
      const ScanSource& base) const {
    if (!stmt_.joins.empty()) return nullptr;
    const Table& table = *base.table;
    if (!table.columnar()) return nullptr;

    auto plan = std::make_shared<sql::FusedGroupPlan>();
    plan->table = table.schema().name();
    plan->column_types = column_type_snapshot(table);

    std::vector<std::string> key_strs;
    for (const auto& g : stmt_.group_by) {
      auto key = compile_program(*g, base, plan->column_types);
      if (key == nullptr) return nullptr;
      plan->group_keys.push_back(std::move(key));
      sql::structural_key(*g, key_strs.emplace_back());
    }

    if (!collect_kernel_aggregates(base, plan->column_types,
                                   plan->aggregates)) {
      return nullptr;
    }
    for (const auto& item : stmt_.items) {
      if (!grouped_refs_covered(*item.expr, *plan, key_strs)) return nullptr;
    }
    if (stmt_.having &&
        !grouped_refs_covered(*stmt_.having, *plan, key_strs)) {
      return nullptr;
    }
    for (const auto& key : stmt_.order_by) {
      if (key.expr->kind != Expr::Kind::kAliasRef &&
          !grouped_refs_covered(*key.expr, *plan, key_strs)) {
        return nullptr;
      }
    }

    if (!analyze_where(base, plan->column_types, plan->where_program)) {
      return nullptr;
    }
    return plan;
  }

  /// Entry point of the fused evaluator: returns the (output row, order
  /// keys) pairs the scan + WHERE + run_aggregation pipeline would have
  /// produced, or nullopt to fall back to it. The structural verdict is
  /// cached on the statement (fused_group_plan / fused_rejected); everything
  /// value-dependent is re-derived here per execution.
  std::optional<std::vector<std::pair<Row, Row>>> try_grouped_vectorized() {
    if (stmt_.fused_rejected) return std::nullopt;
    if (sources_.size() != 1) return std::nullopt;
    const ScanSource& base = sources_[0];
    if (base.table == nullptr) return std::nullopt;
    const Table& table = *base.table;

    const sql::FusedGroupPlan* plan = stmt_.fused_group_plan.get();
    const bool reused = plan != nullptr;
    if (plan == nullptr) {
      auto built = analyze_grouped(base);
      if (built == nullptr) {
        stmt_.fused_rejected = true;
        return std::nullopt;
      }
      stmt_.fused_group_plan = std::move(built);
      plan = stmt_.fused_group_plan.get();
    } else {
      // Validate the cached annotation against this execution's catalog:
      // the table may have been dropped and re-created with another layout
      // since the plan was built.
      if (!support::iequals(table.schema().name(), plan->table) ||
          !table.columnar() ||
          table.schema().column_count() != plan->column_types.size()) {
        return std::nullopt;
      }
      for (std::size_t i = 0; i < plan->column_types.size(); ++i) {
        if (table.schema().column(i).type != plan->column_types[i]) {
          return std::nullopt;
        }
      }
    }

    // Index probes beat a columnar partition walk when the planner found
    // one; the fused path only replaces full scans.
    const BaseScanPlan scan = plan_base_scan(stmt_.where.get(), base);
    if (scan.kind != BaseScanPlan::Kind::kFullScan) return std::nullopt;

    // Parameters and subquery results change run to run: every program
    // re-binds its runtime-constant slots, and a type drift since
    // compilation declines this execution.
    std::size_t program_evals = 0;
    sql::ExprProgram::Bound where_bound;
    if (!bind_program(plan->where_program.get(), where_bound, program_evals)) {
      return std::nullopt;
    }
    std::vector<sql::ExprProgram::Bound> key_bounds(plan->group_keys.size());
    for (std::size_t k = 0; k < plan->group_keys.size(); ++k) {
      if (!bind_program(plan->group_keys[k].get(), key_bounds[k],
                        program_evals)) {
        return std::nullopt;
      }
    }
    std::vector<sql::ExprProgram::Bound> agg_bounds(plan->aggregates.size());
    for (std::size_t a = 0; a < plan->aggregates.size(); ++a) {
      if (!bind_program(plan->aggregates[a].program.get(), agg_bounds[a],
                        program_evals)) {
        return std::nullopt;
      }
    }
    if (program_evals > 0) db_.count_expr_program_evals(program_evals);

    if (reused) db_.count_fused_plan_evals();
    return run_columnar_grouped(table, *plan, where_bound, key_bounds,
                                agg_bounds, scan);
  }

  /// Selection bitmaps for partitions [first, first + count): one bitmap
  /// per partition, seeded from the live bits (tombstones never select) and
  /// narrowed batch-at-a-time by the compiled WHERE program's boolean lanes
  /// (NULL-as-false; the live-seeded bitmap doubles as the program's demand
  /// mask, so `/`, `%` and SQRT raise exactly where the row path would have
  /// evaluated them). The filter stage fans out across the scan pool under
  /// the same gate as run_heap_scan; each worker owns a VM scratch. `live`
  /// and `nonempty` are the live-row and nonempty-partition totals over the
  /// same range (callers already have them for their own counters).
  std::vector<std::vector<std::uint8_t>> build_selection_bitmaps(
      const Table& table, const sql::ExprProgram* where_program,
      const sql::ExprProgram::Bound& where_bound,
      const std::vector<ValueType>& column_types, std::size_t first,
      std::size_t count, std::size_t live, std::size_t nonempty) {
    std::vector<std::vector<std::uint8_t>> sels(count);
    const std::size_t workers = scan_workers(nonempty, live);
    std::vector<sql::ExprProgram::Scratch> scratch(workers);
    const auto filter_partition = [&](std::size_t index, std::size_t worker) {
      const std::size_t p = first + index;
      const std::size_t lanes = table.partition_heap_size(p);
      std::vector<std::uint8_t>& sel = sels[index];
      const std::uint8_t* live_bits = table.live_bits(p);
      sel.assign(live_bits, live_bits + lanes);
      if (lanes == 0 || where_program == nullptr) return;
      std::vector<Table::ColumnSlice> columns(column_types.size());
      for (const std::size_t c : where_program->used_columns()) {
        columns[c] = table.column_slice(p, c);
      }
      for (std::size_t b = 0; b < lanes; b += kVectorBatch) {
        const std::size_t e = std::min(lanes, b + kVectorBatch);
        const sql::ExprProgram::Result res =
            run_program(*where_program, scratch[worker], where_bound, columns,
                        sel.data(), b, e);
        // Result lanes are batch-relative; undemanded lanes hold
        // unspecified values, so AND through the incoming bitmap.
        for (std::size_t i = b; i < e; ++i) {
          sel[i] &= static_cast<std::uint8_t>(res.valid[i - b] != 0 &&
                                              res.ints[i - b] != 0);
        }
      }
    };

    scan_pool().parallel_for(count, workers, filter_partition);
    if (workers > 1) db_.count_parallel_scan_batches();
    return sels;
  }

  /// The fused evaluator proper: selection bitmaps, then a hash group table
  /// keyed on the GROUP BY key lanes, with per-group aggregate state fed by
  /// the batch kernels. Without GROUP BY every selected lane is group 0,
  /// the hash table is skipped, and that one group is emitted even when no
  /// lane is selected (a global aggregate over nothing is still one row).
  /// Group ids are assigned in first-seen (heap) order and accumulation
  /// stays serial in partition order, so every per-group push sequence is
  /// exactly the row path's subsequence; output replays run_aggregation's
  /// std::map order by sorting the groups with the same key comparator.
  std::vector<std::pair<Row, Row>> run_columnar_grouped(
      const Table& table, const sql::FusedGroupPlan& plan,
      const sql::ExprProgram::Bound& where_bound,
      const std::vector<sql::ExprProgram::Bound>& key_bounds,
      const std::vector<sql::ExprProgram::Bound>& agg_bounds,
      const BaseScanPlan& scan) {
    const std::size_t nparts = table.partition_count();
    std::size_t first = 0;
    std::size_t count = nparts;
    if (scan.empty) {
      db_.count_partitions_pruned(nparts);
      count = 0;
    } else if (scan.partition && nparts > 1) {
      first = *scan.partition;
      count = 1;
      db_.count_partitions_pruned(nparts - 1);
    }
    db_.count_partition_scans(count);
    db_.count_columnar_scans(count);
    const std::size_t nkeys = plan.group_keys.size();
    if (nkeys > 0) db_.count_grouped_vector_evals();

    std::size_t live = 0;
    std::size_t nonempty = 0;
    for (std::size_t p = first; p < first + count; ++p) {
      const std::size_t rows_in_partition = table.partition_live_count(p);
      live += rows_in_partition;
      if (rows_in_partition > 0) ++nonempty;
    }

    std::vector<std::vector<std::uint8_t>> sels = build_selection_bitmaps(
        table, plan.where_program.get(), where_bound, plan.column_types,
        first, count, live, nonempty);

    const std::size_t naggs = plan.aggregates.size();
    std::vector<AggKernel> kernels(naggs);
    std::vector<sql::ExprProgram::Scratch> agg_scratches(naggs);
    for (std::size_t a = 0; a < naggs; ++a) {
      kernels[a] = agg_kernel_of(*plan.aggregates[a].expr);
    }
    std::vector<ValueType> key_types(nkeys);
    std::vector<sql::ExprProgram::Scratch> key_scratches(nkeys);
    for (std::size_t k = 0; k < nkeys; ++k) {
      key_types[k] = plan.group_keys[k]->result_type();
    }

    // Group table: keys[gid] is the materialized GROUP BY tuple, the index
    // maps key hash → candidate gids, and aggregate state is column-major
    // per aggregate so accumulate_grouped_batch indexes states[gid]
    // directly.
    std::vector<Row> keys;
    std::unordered_multimap<std::size_t, std::uint32_t> group_index;
    std::vector<std::vector<AggState>> states(naggs);
    std::vector<std::vector<MinMaxAcc>> minmax(naggs);
    const auto add_group = [&](Row key) {
      keys.push_back(std::move(key));
      for (std::size_t a = 0; a < naggs; ++a) {
        states[a].emplace_back();
        minmax[a].emplace_back();
      }
    };
    if (nkeys == 0) add_group(Row{});

    std::uint64_t batches = 0;
    std::size_t selected = 0;
    std::vector<std::uint32_t> gids(kVectorBatch, 0);  // batch-relative
    std::vector<Table::ColumnSlice> key_lanes(nkeys);  // batch-relative
    const auto group_of = [&](std::size_t lane) -> std::uint32_t {
      std::size_t h = 1469598103934665603ULL;  // FNV-1a offset basis
      for (std::size_t k = 0; k < nkeys; ++k) {
        h = (h * 1099511628211ULL) ^
            group_lane_hash(key_types[k], key_lanes[k], lane);
      }
      const auto [lo, hi] = group_index.equal_range(h);
      for (auto it = lo; it != hi; ++it) {
        const Row& key = keys[it->second];
        bool match = true;
        for (std::size_t k = 0; k < nkeys && match; ++k) {
          match = group_lane_equals(key_types[k], key_lanes[k], lane, key[k]);
        }
        if (match) return it->second;
      }
      const auto gid = static_cast<std::uint32_t>(keys.size());
      Row key;
      key.reserve(nkeys);
      for (std::size_t k = 0; k < nkeys; ++k) {
        key.push_back(group_lane_value(key_types[k], key_lanes[k], lane));
      }
      add_group(std::move(key));
      group_index.emplace(h, gid);
      return gid;
    };
    for (std::size_t index = 0; index < count; ++index) {
      const std::size_t p = first + index;
      const std::size_t lanes = table.partition_heap_size(p);
      if (lanes == 0) continue;
      const std::uint8_t* sel = sels[index].data();
      std::vector<Table::ColumnSlice> columns(plan.column_types.size());
      const auto load_used = [&](const sql::ExprProgram* program) {
        if (program == nullptr) return;
        for (const std::size_t c : program->used_columns()) {
          columns[c] = table.column_slice(p, c);
        }
      };
      for (const auto& key : plan.group_keys) load_used(key.get());
      for (const auto& agg : plan.aggregates) load_used(agg.program.get());
      for (std::size_t b = 0; b < lanes; b += kVectorBatch) {
        const std::size_t e = std::min(lanes, b + kVectorBatch);
        for (std::size_t k = 0; k < nkeys; ++k) {
          key_lanes[k] = run_program(*plan.group_keys[k], key_scratches[k],
                                     key_bounds[k], columns, sel, b, e)
                             .as_slice(e - b);
        }
        for (std::size_t i = b; i < e; ++i) selected += sel[i];
        if (nkeys > 0) {
          for (std::size_t i = b; i < e; ++i) {
            gids[i - b] = sel[i] != 0 ? group_of(i - b) : 0;
          }
        }
        ++batches;
        // Unselected lanes sit in group 0, which exists once any lane was
        // selected; before that there is nothing to accumulate.
        if (keys.empty()) continue;
        for (std::size_t a = 0; a < naggs; ++a) {
          // The selection bitmap doubles as the demand mask: the row path
          // evaluates aggregate arguments only for rows passing WHERE.
          // Result lanes are batch-relative, so the kernel runs over the
          // shifted selection pointer.
          Table::ColumnSlice input;  // COUNT(*) reads no argument lanes
          ValueType type = ValueType::kNull;
          if (const auto& program = plan.aggregates[a].program) {
            const sql::ExprProgram::Result res = run_program(
                *program, agg_scratches[a], agg_bounds[a], columns, sel, b, e);
            input = res.as_slice(e - b);
            type = res.type;
          }
          const auto accumulate = [&](auto group) {
            accumulate_grouped_batch(kernels[a], type, input, e - b, sel + b,
                                     group, states[a], minmax[a]);
          };
          if (nkeys == 0) {
            accumulate([](std::size_t) { return std::uint32_t{0}; });
          } else {
            accumulate([&](std::size_t i) { return gids[i]; });
          }
        }
      }
    }
    db_.count_vectorized_batches(batches);
    db_.count_rows_skipped_by_bitmap(live - selected);
    if (nkeys > 0) db_.count_groups_built(keys.size());

    for (std::size_t a = 0; a < naggs; ++a) {
      if (kernels[a] != AggKernel::kMinMax) continue;
      const ValueType type = plan.aggregates[a].program->result_type();
      for (std::size_t g = 0; g < keys.size(); ++g) {
        if (states[a][g].count == 0) continue;
        states[a][g].min_value =
            minmax_value(type, minmax[a][g], /*max_side=*/false);
        states[a][g].max_value =
            minmax_value(type, minmax[a][g], /*max_side=*/true);
        states[a][g].has_minmax = true;
      }
    }

    // run_aggregation's std::map iterates groups in ascending key order;
    // replay that by sorting the group ids with the same lexicographic
    // comparator.
    std::vector<std::uint32_t> order(keys.size());
    for (std::size_t g = 0; g < order.size(); ++g) {
      order[g] = static_cast<std::uint32_t>(g);
    }
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                const Row& x = keys[a];
                const Row& y = keys[b];
                for (std::size_t i = 0; i < x.size(); ++i) {
                  const int c = Value::compare_total(x[i], y[i]);
                  if (c != 0) return c < 0;
                }
                return false;
              });

    std::vector<std::pair<Row, Row>> out;
    out.reserve(order.size());
    // Bare refs were proven covered at analysis time: key expressions pin
    // their per-group values onto the nodes key_refs recorded, so the
    // representative row is never read.
    const Row no_row;
    for (const std::uint32_t g : order) {
      std::unordered_map<const Expr*, Value> agg_values;
      for (std::size_t a = 0; a < naggs; ++a) {
        agg_values[plan.aggregates[a].expr] =
            agg_finalize(*plan.aggregates[a].expr, states[a][g]);
      }
      std::unordered_map<const Expr*, Value> pinned;
      for (const auto& [node, k] : plan.key_refs) pinned[node] = keys[g][k];
      EvalCtx ctx{&no_row, params_, &agg_values, &subquery_values_, nullptr,
                  plan.key_refs.empty() ? nullptr : &pinned};
      if (stmt_.having && !eval_predicate(*stmt_.having, ctx)) continue;
      Row output;
      output.reserve(stmt_.items.size());
      for (const auto& item : stmt_.items) {
        output.push_back(eval_expr(*item.expr, ctx));
      }
      Row ord = eval_order_keys(ctx, output);
      out.emplace_back(std::move(output), std::move(ord));
    }
    return out;
  }

  /// The one gate for scan-pool fan-out (heap scans, selection bitmaps, CTE
  /// waves): the worker count for a parallel_for over `units` work-bearing
  /// units (nonempty partitions, CTE bodies) reading about `rows` live
  /// rows. 1 means stay serial on the caller: the config or the units
  /// leave one worker (a range of mostly empty partitions gains nothing
  /// from the pool), `rows` is under the dispatch threshold, or this
  /// execution already runs on a scan-pool worker — parallel CTE bodies
  /// scan inline, and the counters report no parallel batch for them.
  [[nodiscard]] std::size_t scan_workers(std::size_t units,
                                         std::size_t rows) const {
    const Database::ScanConfig& config = db_.scan_config();
    const std::size_t workers = std::min(
        config.threads == 0 ? scan_pool().size() : config.threads, units);
    if (workers <= 1 || rows < config.min_parallel_rows ||
        scan_pool().owns_current_thread()) {
      return 1;
    }
    return workers;
  }

  /// Heap scan of a base table: every partition the plan did not prune, in
  /// partition order, heap order within each. Single-table statements fold
  /// the WHERE clause into the scan itself (the hot path stops producing
  /// rows a later pass would discard), and multi-partition scans above the
  /// configured row threshold fan out across the scan pool — each worker
  /// owns whole partitions, buckets merge in partition order, so the
  /// parallel row stream is byte-identical to the serial one.
  std::vector<Row> run_heap_scan(const Table& table, const BaseScanPlan& plan) {
    const std::size_t nparts = table.partition_count();
    std::size_t first = 0;
    std::size_t count = nparts;
    if (plan.empty) {
      // Selector and equality routing disagree: nothing can match.
      db_.count_partitions_pruned(nparts);
      if (stmt_.joins.empty() && stmt_.where) where_applied_ = true;
      return {};
    }
    if (plan.partition && nparts > 1) {
      first = *plan.partition;
      count = 1;
      db_.count_partitions_pruned(nparts - 1);
    }
    db_.count_partition_scans(count);

    const Expr* filter =
        stmt_.joins.empty() && stmt_.where ? stmt_.where.get() : nullptr;
    const auto scan_partition = [&](std::size_t p, std::vector<Row>& out) {
      table.for_each_live_row_in(p, [&](std::size_t, const Row& row) {
        if (filter != nullptr) {
          EvalCtx ctx{&row, params_, nullptr, &subquery_values_, nullptr};
          if (!eval_predicate(*filter, ctx)) return;
        }
        out.push_back(row);
      });
    };

    std::size_t live = 0;
    std::size_t nonempty = 0;
    for (std::size_t p = first; p < first + count; ++p) {
      const std::size_t rows_in_partition = table.partition_live_count(p);
      live += rows_in_partition;
      if (rows_in_partition > 0) ++nonempty;
    }

    const std::size_t workers = scan_workers(nonempty, live);
    std::vector<Row> rows;
    if (workers > 1) {
      std::vector<std::vector<Row>> buckets(count);
      scan_pool().parallel_for(count, workers, [&](std::size_t i, std::size_t) {
        scan_partition(first + i, buckets[i]);
      });
      db_.count_parallel_scan_batches();
      std::size_t total = 0;
      for (const std::vector<Row>& bucket : buckets) total += bucket.size();
      rows.reserve(total);
      for (std::vector<Row>& bucket : buckets) {
        for (Row& row : bucket) rows.push_back(std::move(row));
      }
    } else {
      rows.reserve(live);
      for (std::size_t p = first; p < first + count; ++p) {
        scan_partition(p, rows);
      }
    }
    if (filter != nullptr) where_applied_ = true;
    return rows;
  }

  /// Finds an equi-join conjunct between earlier slots and the new table;
  /// returns (outer slot, inner column within new table).
  [[nodiscard]] static std::optional<std::pair<std::size_t, std::size_t>>
  equi_join_key(const Expr* on, const ScanSource& inner) {
    if (on == nullptr) return std::nullopt;
    if (on->kind == Expr::Kind::kBinary && on->bin_op == BinOp::kAnd) {
      if (auto lhs = equi_join_key(on->lhs.get(), inner)) return lhs;
      return equi_join_key(on->rhs.get(), inner);
    }
    if (on->kind != Expr::Kind::kBinary || on->bin_op != BinOp::kEq) {
      return std::nullopt;
    }
    const Expr& a = *on->lhs;
    const Expr& b = *on->rhs;
    if (a.kind != Expr::Kind::kColumnRef || b.kind != Expr::Kind::kColumnRef) {
      return std::nullopt;
    }
    const std::size_t inner_begin = inner.base_slot;
    const std::size_t inner_end = inner.base_slot + inner.column_count();
    const bool a_inner = a.resolved_slot >= inner_begin && a.resolved_slot < inner_end;
    const bool b_inner = b.resolved_slot >= inner_begin && b.resolved_slot < inner_end;
    if (a_inner == b_inner) return std::nullopt;
    if (b_inner) return std::make_pair(a.resolved_slot, b.resolved_slot - inner_begin);
    return std::make_pair(b.resolved_slot, a.resolved_slot - inner_begin);
  }

  /// A columnar hash join's key: the ON conjunct it came from and its two
  /// sides compiled over the outer and the inner table.
  struct JoinKeys {
    const Expr* conjunct = nullptr;
    std::shared_ptr<const sql::ExprProgram> outer;
    std::shared_ptr<const sql::ExprProgram> inner;
  };

  /// The first equality conjunct of the ON tree (left to right) whose two
  /// sides compile to programs over opposite tables, each side loading at
  /// least one column of its own table.
  [[nodiscard]] std::optional<JoinKeys> join_key_programs(
      const Expr* e, const ScanSource& base, const ScanSource& inner,
      const std::vector<ValueType>& outer_types,
      const std::vector<ValueType>& inner_types) const {
    if (e == nullptr || e->kind != Expr::Kind::kBinary) return std::nullopt;
    if (e->bin_op == BinOp::kAnd) {
      if (auto lhs = join_key_programs(e->lhs.get(), base, inner, outer_types,
                                       inner_types)) {
        return lhs;
      }
      return join_key_programs(e->rhs.get(), base, inner, outer_types,
                               inner_types);
    }
    if (e->bin_op != BinOp::kEq) return std::nullopt;
    for (const bool mirrored : {false, true}) {
      const Expr& outer_side = mirrored ? *e->rhs : *e->lhs;
      const Expr& inner_side = mirrored ? *e->lhs : *e->rhs;
      auto outer_key = compile_program(outer_side, base, outer_types);
      if (outer_key == nullptr || outer_key->used_columns().empty()) continue;
      auto inner_key = compile_program(inner_side, inner, inner_types);
      if (inner_key == nullptr || inner_key->used_columns().empty()) continue;
      return JoinKeys{e, std::move(outer_key), std::move(inner_key)};
    }
    return std::nullopt;
  }

  /// One side's key lanes over partitions [first, first + count) as
  /// KeySlices: a plain column key views its column in place, any other
  /// program is run by the VM into `owned` buffers with the live bitmap as
  /// the demand mask (a dead lane's key is never read — usable() filters by
  /// live). False: a live valid double key lane holds NaN.
  bool key_slices_of(const Table& table, const sql::ExprProgram& program,
                     const sql::ExprProgram::Bound& bound, std::size_t first,
                     std::size_t count, std::vector<KeyLanes>& owned,
                     std::vector<Table::KeySlice>& out) {
    const ValueType type = program.result_type();
    const auto column = program.single_column();
    sql::ExprProgram::Scratch scratch;
    std::vector<Table::ColumnSlice> columns(table.schema().column_count());
    owned.resize(column ? 0 : count);
    for (std::size_t index = 0; index < count; ++index) {
      const std::size_t p = first + index;
      if (column) {
        out.push_back(table.key_slice(p, *column));
      } else {
        const std::size_t lanes = table.partition_heap_size(p);
        KeyLanes& dst = owned[index];
        dst.valid.resize(lanes);
        if (type == ValueType::kString) {
          dst.strs.resize(lanes);
        } else if (type == ValueType::kDouble) {
          dst.reals.resize(lanes);
        } else {
          dst.ints.resize(lanes);
        }
        for (const std::size_t c : program.used_columns()) {
          columns[c] = table.column_slice(p, c);
        }
        const std::uint8_t* live = table.live_bits(p);
        for (std::size_t b = 0; b < lanes; b += kVectorBatch) {
          const std::size_t e = std::min(lanes, b + kVectorBatch);
          const auto res =
              run_program(program, scratch, bound, columns, live, b, e);
          std::copy(res.valid, res.valid + (e - b), dst.valid.begin() + b);
          if (type == ValueType::kString) {
            std::copy(res.strs, res.strs + (e - b), dst.strs.begin() + b);
          } else if (type == ValueType::kDouble) {
            std::copy(res.reals, res.reals + (e - b), dst.reals.begin() + b);
          } else {
            std::copy(res.ints, res.ints + (e - b), dst.ints.begin() + b);
          }
        }
        Table::KeySlice ks;
        if (type == ValueType::kString) {
          ks.column.strs = dst.strs.data();
        } else if (type == ValueType::kDouble) {
          ks.column.reals = dst.reals.data();
        } else {
          ks.column.ints = dst.ints.data();
        }
        ks.column.valid = dst.valid.data();
        ks.column.size = lanes;
        ks.live = live;
        ks.partition = p;
        out.push_back(ks);
      }
      if (type != ValueType::kDouble) continue;
      const Table::KeySlice& ks = out.back();
      for (std::size_t i = 0; i < ks.column.size; ++i) {
        if (ks.usable(i) && std::isnan(ks.column.reals[i])) return false;
      }
    }
    return true;
  }

  /// Columnar hash equi-join over the base table and the first join. The
  /// key is join_key_programs' conjunct; the hash table is built from the
  /// smaller side's usable (live, non-NULL) key lanes and probed with the
  /// other side's, and rows are assembled only for surviving lane pairs,
  /// with ON re-evaluated on each. Emission is outer-scan-major with
  /// inner-scan order within each outer row — byte-identical to the row
  /// path's joins. Returns nullopt to fall back when either side isn't
  /// columnar, no conjunct fits, a key side can raise while other conjuncts
  /// surround it (the nested loop evaluates such a side for only some
  /// pairs), the key types have no kernel, an inner index on a plain column
  /// key makes the indexed nested loop cheaper, a bind re-types a constant,
  /// or a live double key lane holds NaN (compare_sql treats NaN as equal to
  /// everything; a hash probe can't reproduce that).
  std::optional<std::vector<Row>> try_columnar_hash_join(
      const ScanSource& base, const BaseScanPlan& plan) {
    if (base.table == nullptr || !base.table->columnar()) return std::nullopt;
    const sql::Join& join = stmt_.joins[0];
    const ScanSource& inner = sources_[1];
    if (inner.table == nullptr || !inner.table->columnar()) {
      return std::nullopt;
    }
    const auto keys = join_key_programs(join.on.get(), base, inner,
                                        column_type_snapshot(*base.table),
                                        column_type_snapshot(*inner.table));
    if (!keys) return std::nullopt;
    const auto& [conjunct, outer_key, inner_key] = *keys;
    if (conjunct != join.on.get() &&
        (outer_key->may_raise() || inner_key->may_raise())) {
      return std::nullopt;
    }
    const auto inner_column = inner_key->single_column();
    if (inner_column && inner.table->find_index_on(*inner_column) != nullptr) {
      return std::nullopt;  // the indexed nested loop wins
    }
    const auto kind =
        join_key_kind(outer_key->result_type(), inner_key->result_type());
    if (!kind) return std::nullopt;

    std::size_t program_evals = 0;
    sql::ExprProgram::Bound outer_bound;
    sql::ExprProgram::Bound inner_bound;
    if (!bind_program(outer_key.get(), outer_bound, program_evals) ||
        !bind_program(inner_key.get(), inner_bound, program_evals)) {
      return std::nullopt;
    }

    // Outer-side pruning, mirroring run_heap_scan.
    const std::size_t nparts = base.table->partition_count();
    if (plan.empty) {
      db_.count_partitions_pruned(nparts);
      return std::vector<Row>{};
    }
    std::size_t outer_first = 0;
    std::size_t outer_count = nparts;
    std::size_t pruned = 0;
    if (plan.partition && nparts > 1) {
      outer_first = *plan.partition;
      outer_count = 1;
      pruned = nparts - 1;
    }
    const std::size_t inner_first = inner.partition ? *inner.partition : 0;
    const std::size_t inner_count =
        inner.partition ? 1 : inner.table->partition_count();

    std::size_t outer_live = 0;
    for (std::size_t p = outer_first; p < outer_first + outer_count; ++p) {
      outer_live += base.table->partition_live_count(p);
    }
    std::size_t inner_live = 0;
    for (std::size_t p = inner_first; p < inner_first + inner_count; ++p) {
      inner_live += inner.table->partition_live_count(p);
    }
    const auto count_scans = [&] {
      if (pruned > 0) db_.count_partitions_pruned(pruned);
      db_.count_partition_scans(outer_count);
      db_.count_columnar_scans(outer_count + inner_count);
    };
    if (outer_live == 0 || inner_live == 0) {
      // The row path's nested loop never evaluates ON over an empty cross
      // product; skip the programs so key-expression errors match.
      count_scans();
      return std::vector<Row>{};
    }

    std::vector<KeyLanes> outer_owned;
    std::vector<KeyLanes> inner_owned;
    std::vector<Table::KeySlice> outer_slices;
    std::vector<Table::KeySlice> inner_slices;
    if (!key_slices_of(*base.table, *outer_key, outer_bound, outer_first,
                       outer_count, outer_owned, outer_slices) ||
        !key_slices_of(*inner.table, *inner_key, inner_bound, inner_first,
                       inner_count, inner_owned, inner_slices)) {
      return std::nullopt;  // NaN key: the nested loop matches it, we can't
    }
    // Committed to the columnar path — count only now, so a NaN decline
    // leaves the row path's counters untouched.
    db_.count_expr_program_evals(program_evals);
    count_scans();

    // Build from the smaller side; ties build from the inner source (the
    // row hash join's only choice).
    const bool build_is_outer = outer_live < inner_live;
    const std::vector<Table::KeySlice>& build =
        build_is_outer ? outer_slices : inner_slices;
    const std::vector<Table::KeySlice>& probe =
        build_is_outer ? inner_slices : outer_slices;

    std::uint64_t probed = 0;
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    switch (*kind) {
      case JoinKeyKind::kNumeric:
        // Ints compare through double (the compare_total class) and ±0.0
        // collapses so hash equality matches value equality.
        pairs = columnar_join_pairs<double>(
            build, probe, build_is_outer, probed,
            [](const Table::ColumnSlice& s, std::size_t i) {
              const double d = s.ints != nullptr
                                   ? static_cast<double>(s.ints[i])
                                   : s.reals[i];
              return d == 0.0 ? 0.0 : d;
            });
        break;
      case JoinKeyKind::kBool:
      case JoinKeyKind::kDateTime:
        pairs = columnar_join_pairs<std::int64_t>(
            build, probe, build_is_outer, probed,
            [](const Table::ColumnSlice& s, std::size_t i) {
              return s.ints[i];
            });
        break;
      case JoinKeyKind::kString:
        // Views into the column vectors / owned key buffers: stable for
        // this statement's lifetime (DDL/DML never interleaves with an
        // executing SELECT).
        pairs = columnar_join_pairs<std::string_view>(
            build, probe, build_is_outer, probed,
            [](const Table::ColumnSlice& s, std::size_t i) {
              return std::string_view(s.strs[i]);
            });
        break;
    }
    db_.count_hash_join_builds();
    db_.count_join_lanes_probed(probed);

    // Build-from-inner already emits outer-major (probe order) with
    // insertion (= inner scan) order per key. Build-from-outer emits
    // probe-major; row-id numeric order is scan order, so one sort
    // restores the row path's emission order.
    if (build_is_outer) std::sort(pairs.begin(), pairs.end());

    std::vector<Row> joined;
    joined.reserve(pairs.size());
    for (const auto& [outer_id, inner_id] : pairs) {
      Row combined = base.table->row(outer_id);
      const Row& inner_row = inner.table->row(inner_id);
      combined.insert(combined.end(), inner_row.begin(), inner_row.end());
      EvalCtx ctx{&combined, params_, nullptr, &subquery_values_, nullptr};
      if (eval_predicate(*join.on, ctx)) {
        joined.push_back(std::move(combined));
      }
    }
    return joined;
  }

  std::vector<Row> scan_and_join() {
    std::vector<Row> rows;
    if (!stmt_.from) {
      rows.emplace_back();  // one empty row: SELECT 1+1
      return rows;
    }

    // Base scan, optionally via index (equality probe or ordered range);
    // derived (CTE) sources have no indexes and copy their rows directly.
    // When both sides of the first join are columnar and the ON clause has
    // an equality conjunct, the columnar hash join consumes the base scan
    // and the first join together (first_join skips it below).
    const ScanSource& base = sources_[0];
    std::size_t first_join = 0;
    bool base_scanned = false;
    if (base.derived != nullptr) {
      rows = base.derived->rows;
      base_scanned = true;
    } else {
      const BaseScanPlan plan = plan_base_scan(stmt_.where.get(), base);
      if (plan.kind == BaseScanPlan::Kind::kFullScan && !stmt_.joins.empty()) {
        if (auto joined = try_columnar_hash_join(base, plan)) {
          rows = std::move(*joined);
          base_scanned = true;
          first_join = 1;
        }
      }
      if (!base_scanned) {
        switch (plan.kind) {
          case BaseScanPlan::Kind::kEquality:
          case BaseScanPlan::Kind::kRange: {
            const std::vector<std::size_t> base_row_ids =
                plan.kind == BaseScanPlan::Kind::kEquality
                    ? plan.index->equal_range(plan.key)
                    : plan.index->range_open(plan.lo ? &*plan.lo : nullptr,
                                             plan.hi ? &*plan.hi : nullptr);
            rows.reserve(base_row_ids.size());
            for (const std::size_t id : base_row_ids) {
              if (!base.table->is_live(id)) continue;
              // A PARTITION (k) selector keeps the probe but drops foreign
              // shards' ids (probes aggregate across shards).
              if (plan.partition && row_id_partition(id) != *plan.partition) {
                continue;
              }
              rows.push_back(base.table->row(id));
            }
            break;
          }
          case BaseScanPlan::Kind::kFullScan:
            rows = run_heap_scan(*base.table, plan);
            break;
        }
      }
    }

    for (std::size_t j = first_join; j < stmt_.joins.size(); ++j) {
      const sql::Join& join = stmt_.joins[j];
      const ScanSource& inner = sources_[j + 1];
      std::vector<Row> joined;

      // Iterates the inner source's rows regardless of kind (zero-copy: the
      // visitor walks the partition heaps without materializing an id list).
      // A `PARTITION (k)` selector restricts the walk to that partition.
      const auto each_inner_row = [&inner](auto&& fn) {
        if (inner.table != nullptr) {
          if (inner.partition) {
            inner.table->for_each_live_row_in(
                *inner.partition,
                [&fn](std::size_t, const Row& row) { fn(row); });
          } else {
            inner.table->for_each_live_row(
                [&fn](std::size_t, const Row& row) { fn(row); });
          }
        } else {
          for (const Row& row : inner.derived->rows) fn(row);
        }
      };

      const auto key = equi_join_key(join.on.get(), inner);
      const Index* inner_index =
          key && inner.table != nullptr ? inner.table->find_index_on(key->second)
                                        : nullptr;
      if (key && inner_index != nullptr) {
        // Indexed nested-loop join: probe the inner index per outer row —
        // O(|outer|) probes; the pushdown evaluator's per-context queries
        // rely on this staying cheap when the inner table is large.
        for (const Row& outer : rows) {
          for (const std::size_t id : inner_index->equal_range(outer[key->first])) {
            if (!inner.table->is_live(id)) continue;
            // The probe aggregates shards; honor an explicit selector.
            if (inner.partition && row_id_partition(id) != *inner.partition) {
              continue;
            }
            Row combined = outer;
            const Row& inner_row = inner.table->row(id);
            combined.insert(combined.end(), inner_row.begin(), inner_row.end());
            EvalCtx ctx{&combined, params_, nullptr, &subquery_values_, nullptr};
            if (!join.on || eval_predicate(*join.on, ctx)) {
              joined.push_back(std::move(combined));
            }
          }
        }
      } else if (key) {
        // Hash join: build on the inner source, probe with outer rows. Each
        // key's matches are kept in inner-scan order (a multimap's
        // equal_range order is unspecified), so emission is outer-major
        // with inner-scan order within — the order the columnar hash join
        // reproduces.
        std::unordered_map<Value, std::vector<const Row*>, ValueHash,
                           ValueEqTotal>
            built;
        each_inner_row([&](const Row& inner_row) {
          built[inner_row[key->second]].push_back(&inner_row);
        });
        for (const Row& outer : rows) {
          const auto it = built.find(outer[key->first]);
          if (it == built.end()) continue;
          for (const Row* match : it->second) {
            Row combined = outer;
            combined.insert(combined.end(), match->begin(), match->end());
            EvalCtx ctx{&combined, params_, nullptr, &subquery_values_, nullptr};
            if (!join.on || eval_predicate(*join.on, ctx)) {
              joined.push_back(std::move(combined));
            }
          }
        }
      } else {
        for (const Row& outer : rows) {
          each_inner_row([&](const Row& inner_row) {
            Row combined = outer;
            combined.insert(combined.end(), inner_row.begin(), inner_row.end());
            EvalCtx ctx{&combined, params_, nullptr, &subquery_values_, nullptr};
            if (!join.on || eval_predicate(*join.on, ctx)) {
              joined.push_back(std::move(combined));
            }
          });
        }
      }
      rows = std::move(joined);
    }
    return rows;
  }

  [[nodiscard]] bool needs_aggregation() const {
    if (!stmt_.group_by.empty()) return true;
    std::vector<const Expr*> aggs;
    for (const auto& item : stmt_.items) collect_aggregates(*item.expr, aggs);
    if (stmt_.having) collect_aggregates(*stmt_.having, aggs);
    for (const auto& key : stmt_.order_by) collect_aggregates(*key.expr, aggs);
    return !aggs.empty();
  }

  std::vector<std::pair<Row, Row>> run_aggregation(const std::vector<Row>& rows) {
    std::vector<const Expr*> agg_exprs;
    for (const auto& item : stmt_.items) collect_aggregates(*item.expr, agg_exprs);
    if (stmt_.having) collect_aggregates(*stmt_.having, agg_exprs);
    for (const auto& key : stmt_.order_by) collect_aggregates(*key.expr, agg_exprs);

    struct Group {
      Row representative;
      bool has_rows = false;
      std::vector<AggState> states;
    };
    struct RowLess {
      bool operator()(const Row& a, const Row& b) const {
        for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
          const int c = Value::compare_total(a[i], b[i]);
          if (c != 0) return c < 0;
        }
        return a.size() < b.size();
      }
    };
    std::map<Row, Group, RowLess> groups;

    for (const Row& row : rows) {
      EvalCtx ctx{&row, params_, nullptr, &subquery_values_, nullptr};
      Row key;
      key.reserve(stmt_.group_by.size());
      for (const auto& g : stmt_.group_by) key.push_back(eval_expr(*g, ctx));
      Group& group = groups[key];
      if (!group.has_rows) {
        group.representative = row;
        group.has_rows = true;
        group.states.resize(agg_exprs.size());
      }
      for (std::size_t i = 0; i < agg_exprs.size(); ++i) {
        agg_accumulate(*agg_exprs[i], group.states[i], ctx);
      }
    }
    // Global aggregation over an empty input still yields one group.
    if (groups.empty() && stmt_.group_by.empty()) {
      Group& group = groups[Row{}];
      group.states.resize(agg_exprs.size());
      group.has_rows = false;
    }

    std::vector<std::pair<Row, Row>> out;
    for (auto& [key, group] : groups) {
      std::unordered_map<const Expr*, Value> agg_values;
      for (std::size_t i = 0; i < agg_exprs.size(); ++i) {
        agg_values[agg_exprs[i]] = agg_finalize(*agg_exprs[i], group.states[i]);
      }
      const Row* rep = group.has_rows ? &group.representative : nullptr;
      Row empty_row;
      EvalCtx ctx{rep ? rep : &empty_row, params_, &agg_values,
                  &subquery_values_, nullptr};
      if (stmt_.having && !eval_predicate(*stmt_.having, ctx)) continue;
      Row output;
      output.reserve(stmt_.items.size());
      for (const auto& item : stmt_.items) {
        output.push_back(eval_expr(*item.expr, ctx));
      }
      Row keys = eval_order_keys(ctx, output);
      out.emplace_back(std::move(output), std::move(keys));
    }
    return out;
  }

  Row eval_order_keys(EvalCtx ctx, const Row& output) {
    Row keys;
    keys.reserve(stmt_.order_by.size());
    ctx.output_row = &output;
    for (const auto& key : stmt_.order_by) {
      keys.push_back(eval_expr(*key.expr, ctx));
    }
    return keys;
  }

  [[nodiscard]] std::vector<std::string> output_names() const {
    std::vector<std::string> names;
    names.reserve(stmt_.items.size());
    for (const auto& item : stmt_.items) {
      if (!item.alias.empty()) {
        names.push_back(item.alias);
      } else if (item.expr->kind == Expr::Kind::kColumnRef) {
        names.push_back(item.expr->column);
      } else {
        names.push_back(item.expr->to_string());
      }
    }
    return names;
  }

  Database& db_;
  sql::SelectStmt& stmt_;
  std::span<const Value> params_;
  /// This statement's CTE scope: chained to the enclosing statement's and
  /// filled as the WITH clause materializes. Deque keeps result addresses
  /// stable while entries accumulate.
  CteScope scope_;
  std::deque<QueryResult> cte_results_;
  ExecEnv* env_;
  /// Externally-materialized CTE results (shard-cache injection); null for
  /// ordinary executions.
  const CteScope* injected_ = nullptr;
  std::vector<ScanSource> sources_;
  std::unordered_map<const Expr*, Value> subquery_values_;
  /// Set when the base heap scan already applied the WHERE clause
  /// (single-table statements); run() must not filter twice.
  bool where_applied_ = false;
  /// Off in the explain_verdict path: analysis-only compiles are discarded
  /// with the throwaway parse tree and must not move expr_programs_compiled.
  bool count_compiles_ = true;
};

// ---------------------------------------------------------------------------
// DML / DDL execution

QueryResult exec_create_table(Database& db, const sql::CreateTableStmt& stmt) {
  if (stmt.if_not_exists && db.find_table(stmt.schema.name()) != nullptr) {
    return {};
  }
  db.create_table(stmt.schema);
  return {};
}

QueryResult exec_create_index(Database& db, const sql::CreateIndexStmt& stmt) {
  Table& table = db.table(stmt.table);
  const auto col = table.schema().find_column(stmt.column);
  if (!col) {
    throw EvalError(support::cat("unknown column '", stmt.column, "' in table ",
                                 stmt.table));
  }
  table.create_index(stmt.index_name, *col,
                     stmt.ordered ? Index::Kind::kOrdered : Index::Kind::kHash);
  return {};
}

QueryResult exec_insert(Database& db, const sql::InsertStmt& stmt,
                        std::span<const Value> params) {
  Table& table = db.table(stmt.table);
  const TableSchema& schema = table.schema();

  std::vector<std::size_t> positions;
  if (stmt.columns.empty()) {
    positions.resize(schema.column_count());
    for (std::size_t i = 0; i < positions.size(); ++i) positions[i] = i;
  } else {
    for (const std::string& name : stmt.columns) {
      const auto col = schema.find_column(name);
      if (!col) {
        throw EvalError(support::cat("unknown column '", name, "' in table ",
                                     stmt.table));
      }
      positions.push_back(*col);
    }
  }

  QueryResult result;
  EvalCtx ctx{nullptr, params, nullptr, nullptr, nullptr};
  for (const auto& exprs : stmt.rows) {
    if (exprs.size() != positions.size()) {
      throw EvalError(support::cat("INSERT expects ", positions.size(),
                                   " values, got ", exprs.size()));
    }
    Row row(schema.column_count(), Value::null());
    for (std::size_t i = 0; i < exprs.size(); ++i) {
      row[positions[i]] = eval_expr(*exprs[i], ctx);
    }
    table.insert(std::move(row));
    ++result.affected_rows;
  }
  return result;
}

QueryResult exec_update(Database& db, sql::UpdateStmt& stmt,
                        std::span<const Value> params) {
  Table& table = db.table(stmt.table);
  Binder binder(db, params);
  std::vector<ScanSource> sources{
      {&table, nullptr, std::nullopt, table.schema().name(), 0}};
  std::vector<std::pair<std::size_t, Expr*>> sets;
  for (auto& [name, expr] : stmt.assignments) {
    const auto col = table.schema().find_column(name);
    if (!col) {
      throw EvalError(support::cat("unknown column '", name, "' in table ",
                                   stmt.table));
    }
    binder.bind_expr(*expr, sources, /*allow_aggregates=*/false);
    sets.emplace_back(*col, expr.get());
  }
  if (stmt.where) {
    binder.bind_expr(*stmt.where, sources, /*allow_aggregates=*/false);
  }

  QueryResult result;
  for (const std::size_t id : table.live_rows()) {
    const Row& row = table.row(id);
    EvalCtx ctx{&row, params, nullptr, nullptr, nullptr};
    if (stmt.where && !eval_predicate(*stmt.where, ctx)) continue;
    Row updated = row;
    for (const auto& [col, expr] : sets) {
      updated[col] = eval_expr(*expr, ctx);
    }
    table.update(id, std::move(updated));
    ++result.affected_rows;
  }
  return result;
}

QueryResult exec_delete(Database& db, sql::DeleteStmt& stmt,
                        std::span<const Value> params) {
  Table& table = db.table(stmt.table);
  Binder binder(db, params);
  std::vector<ScanSource> sources{
      {&table, nullptr, std::nullopt, table.schema().name(), 0}};
  if (stmt.where) {
    binder.bind_expr(*stmt.where, sources, /*allow_aggregates=*/false);
  }
  QueryResult result;
  for (const std::size_t id : table.live_rows()) {
    const Row& row = table.row(id);
    EvalCtx ctx{&row, params, nullptr, nullptr, nullptr};
    if (stmt.where && !eval_predicate(*stmt.where, ctx)) continue;
    table.erase(id);
    ++result.affected_rows;
  }
  return result;
}

QueryResult exec_drop(Database& db, const sql::DropTableStmt& stmt) {
  if (!db.drop_table(stmt.table) && !stmt.if_exists) {
    throw EvalError(support::cat("unknown table '", stmt.table, "'"));
  }
  return {};
}

}  // namespace

// ---------------------------------------------------------------------------
// QueryResult helpers

std::size_t QueryResult::column_index(std::string_view name) const {
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (support::iequals(columns[i], name)) return i;
  }
  throw support::EvalError(support::cat("no column named '", name, "'"));
}

std::string QueryResult::to_table() const {
  std::string out;
  for (std::size_t c = 0; c < columns.size(); ++c) {
    if (c > 0) out += " | ";
    out += columns[c];
  }
  out += '\n';
  for (const Row& row : rows) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out += " | ";
      out += row[c].to_display();
    }
    out += '\n';
  }
  return out;
}

// ---------------------------------------------------------------------------
// Database facade

bool Database::CaseInsensitiveLess::operator()(const std::string& a,
                                               const std::string& b) const {
  return support::to_lower(a) < support::to_lower(b);
}

Table& Database::create_table(TableSchema schema) {
  const std::string name = schema.name();
  if (tables_.contains(name)) {
    throw EvalError(support::cat("table '", name, "' already exists"));
  }
  auto [it, inserted] =
      tables_.emplace(name, std::make_unique<Table>(std::move(schema)));
  ++catalog_generation_;  // invalidates the layout-fingerprint memo
  return *it->second;
}

bool Database::drop_table(std::string_view name) {
  const bool dropped = tables_.erase(std::string(name)) > 0;
  if (dropped) ++catalog_generation_;
  return dropped;
}

Table* Database::find_table(std::string_view name) {
  const auto it = tables_.find(std::string(name));
  return it == tables_.end() ? nullptr : it->second.get();
}

const Table* Database::find_table(std::string_view name) const {
  const auto it = tables_.find(std::string(name));
  return it == tables_.end() ? nullptr : it->second.get();
}

Table& Database::table(std::string_view name) {
  Table* t = find_table(name);
  if (t == nullptr) throw EvalError(support::cat("unknown table '", name, "'"));
  return *t;
}

const Table& Database::table(std::string_view name) const {
  const Table* t = find_table(name);
  if (t == nullptr) throw EvalError(support::cat("unknown table '", name, "'"));
  return *t;
}

std::vector<std::string> Database::table_names() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

namespace {

Database::TableLayout layout_of(const Table& table) {
  Database::TableLayout layout;
  layout.table = table.schema().name();
  layout.partition = table.schema().partition();
  layout.partitions = table.partition_count();
  if (layout.partition) layout.partition_column = layout.partition->column;
  return layout;
}

void hash_mix(std::uint64_t& h, std::string_view text) {
  // FNV-1a over the lowercased text (the catalog is case-insensitive, so
  // two spellings of one layout must fingerprint identically).
  for (const char c : text) {
    h ^= static_cast<std::uint64_t>(
        std::tolower(static_cast<unsigned char>(c)));
    h *= 0x100000001b3ULL;
  }
  h ^= 0x1f;
  h *= 0x100000001b3ULL;
}

}  // namespace

std::optional<Database::TableLayout> Database::table_layout(
    std::string_view name) const {
  const Table* table = find_table(name);
  if (table == nullptr) return std::nullopt;
  return layout_of(*table);
}

std::vector<Database::TableLayout> Database::table_layouts() const {
  std::vector<TableLayout> layouts;
  layouts.reserve(tables_.size());
  for (const auto& [name, table] : tables_) layouts.push_back(layout_of(*table));
  return layouts;
}

std::uint64_t Database::layout_fingerprint() const {
  if (layout_memo_.generation.load(std::memory_order_acquire) ==
      catalog_generation_) {
    return layout_memo_.fingerprint.load(std::memory_order_relaxed);
  }
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV offset basis
  for (const auto& [name, table] : tables_) {
    hash_mix(h, table->schema().name());
    const auto& spec = table->schema().partition();
    if (!spec) {
      hash_mix(h, "-");
      continue;
    }
    hash_mix(h, spec->method == PartitionSpec::Method::kHash ? "hash" : "range");
    hash_mix(h, spec->column);
    hash_mix(h, std::to_string(spec->partitions));
    for (const Value& bound : spec->range_bounds) {
      hash_mix(h, bound.to_display());
    }
  }
  layout_memo_.fingerprint.store(h, std::memory_order_relaxed);
  layout_memo_.generation.store(catalog_generation_, std::memory_order_release);
  return h;
}

QueryResult Database::execute(std::string_view sql_text,
                              std::span<const Value> params) {
  std::vector<sql::Statement> stmts = sql::parse_sql(sql_text);
  if (stmts.empty()) return {};
  QueryResult result;
  for (sql::Statement& stmt : stmts) {
    result = execute(stmt, params);
  }
  return result;
}

QueryResult Database::execute(sql::Statement& stmt, std::span<const Value> params) {
  return std::visit(
      [&](auto& s) -> QueryResult {
        using T = std::decay_t<decltype(s)>;
        if constexpr (std::is_same_v<T, sql::SelectStmt>) {
          return SelectExec(*this, s, params).run();
        } else if constexpr (std::is_same_v<T, sql::CreateTableStmt>) {
          return exec_create_table(*this, s);
        } else if constexpr (std::is_same_v<T, sql::CreateIndexStmt>) {
          return exec_create_index(*this, s);
        } else if constexpr (std::is_same_v<T, sql::InsertStmt>) {
          return exec_insert(*this, s, params);
        } else if constexpr (std::is_same_v<T, sql::UpdateStmt>) {
          return exec_update(*this, s, params);
        } else if constexpr (std::is_same_v<T, sql::DeleteStmt>) {
          return exec_delete(*this, s, params);
        } else {
          return exec_drop(*this, s);
        }
      },
      stmt);
}

PreparedStatement Database::prepare(std::string_view sql_text) const {
  return PreparedStatement(sql::parse_single(sql_text));
}

QueryResult Database::execute(PreparedStatement& stmt,
                              std::span<const Value> params) {
  return execute(stmt.ast(), params);
}

QueryResult Database::execute_select_with(sql::SelectStmt& stmt,
                                          std::span<const Value> params,
                                          std::span<const InjectedCte> injected) {
  CteScope pre;
  pre.entries.reserve(injected.size());
  for (const InjectedCte& cte : injected) {
    pre.entries.emplace_back(std::string(cte.name), cte.rows);
  }
  return SelectExec(*this, stmt, params, nullptr, nullptr, &pre).run();
}

namespace {

/// One SELECT's analysis-only verdict. Binds a throwaway clone (binding
/// mutates the tree: star expansion, alias rewrites) with all-NULL
/// parameters; bind failures — including FROM naming a CTE, which explain
/// never materializes — report as row path with the diagnostic.
std::string fused_verdict(Database& db, const sql::SelectStmt& stmt,
                          std::span<const Value> params) {
  const std::unique_ptr<sql::SelectStmt> copy = stmt.clone();
  try {
    return SelectExec(db, *copy, params).explain_verdict();
  } catch (const EvalError& e) {
    return support::cat("row path (", e.what(), ")");
  }
}

}  // namespace

std::vector<Database::FusedExplain> Database::explain_fused(
    std::string_view sql_text) {
  std::vector<FusedExplain> out;
  std::vector<sql::Statement> stmts = sql::parse_sql(sql_text);
  for (std::size_t s = 0; s < stmts.size(); ++s) {
    const std::string prefix =
        stmts.size() > 1 ? support::cat("stmt", s + 1, " ") : std::string();
    auto* select = std::get_if<sql::SelectStmt>(&stmts[s]);
    if (select == nullptr) {
      out.push_back({support::cat(prefix, "main"), "not a SELECT"});
      continue;
    }
    // One NULL per `?` (the parse already numbered them in text order, so
    // renumbering only counts them).
    const std::vector<Value> params(sql::renumber_params(*select).size());
    for (const auto& cte : select->ctes) {
      out.push_back({support::cat(prefix, cte.name),
                     fused_verdict(*this, *cte.select, params)});
    }
    out.push_back(
        {support::cat(prefix, "main"), fused_verdict(*this, *select, params)});
  }
  return out;
}

std::size_t Database::total_rows() const {
  std::size_t total = 0;
  for (const auto& [name, table] : tables_) total += table->live_row_count();
  return total;
}

}  // namespace kojak::db

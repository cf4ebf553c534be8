#include "cosy/sql_eval.hpp"

#include <algorithm>
#include <deque>
#include <optional>
#include <set>
#include <span>
#include <unordered_map>

#include "cosy/db_import.hpp"
#include "cosy/shard_cache.hpp"
#include "cosy/schema_gen.hpp"
#include "db/sql/render.hpp"
#include "support/error.hpp"
#include "support/str.hpp"

namespace kojak::cosy {

using asl::ast::AggKind;
using asl::ast::Expr;
using asl::ObjectId;
using asl::PropertyResult;
using asl::RtValue;
using asl::Type;
using asl::TypeKind;
using support::CompileLimit;
using support::EvalError;
using SqlExpr = db::sql::ExprPtr;
using SqlBinOp = db::sql::BinOp;

namespace {

/// PlanCache kinds of whole-condition plans. The site-wise plans encode
/// SiteKind * 2 + mode (values 2..11); whole plans are keyed on the
/// PropertyInfo itself under these distinct codes (one per CSE setting —
/// the two compilations have different text and parameter layouts).
constexpr int kWholeConditionCsePlanKind = 12;
constexpr int kWholeConditionPlainPlanKind = 13;

// --- db::sql tree builders ---------------------------------------------------
// Both translators build the engine's SQL tree directly; statement text is
// always db::sql::render_select_sql of the tree.

using db::sql::make_binary;
using db::sql::make_column;
using db::sql::make_is_null;
using db::sql::make_literal;
using db::sql::make_param;
using db::sql::make_subquery;
using db::sql::make_unary;

template <typename... Args>
SqlExpr sql_call(std::string func, Args... args) {
  auto e = std::make_unique<db::sql::Expr>();
  e->kind = db::sql::Expr::Kind::kFuncCall;
  e->func = std::move(func);
  (e->args.push_back(std::move(args)), ...);
  return e;
}

SqlExpr sql_count_star() {
  SqlExpr e = sql_call("COUNT");
  e->star_arg = true;
  return e;
}

db::sql::TableRef sql_table(std::string table, std::string alias) {
  return {std::move(table), std::move(alias), std::nullopt, {}};
}

/// `SELECT <item> [FROM <table>] [WHERE <where>]`.
std::unique_ptr<db::sql::SelectStmt> sql_select(SqlExpr item,
                                                std::string table,
                                                SqlExpr where) {
  auto s = std::make_unique<db::sql::SelectStmt>();
  s->items.push_back({std::move(item), {}, false, {}});
  if (!table.empty()) s->from = sql_table(std::move(table), {});
  s->where = std::move(where);
  return s;
}

/// `(SELECT <column> FROM <cte>)`: a scalar read of a generated CTE.
SqlExpr sql_cte_read(const std::string& column, const std::string& cte) {
  return make_subquery(sql_select(make_column({}, column), cte, nullptr));
}

/// True when `e` mentions `name` outside a shadowing comprehension or
/// aggregate binder of the same name: the binder-correlation test of both
/// SQL translators.
bool mentions_name(const Expr& e,  // NOLINT(misc-no-recursion)
                   const std::string& name) {
  if (e.kind == Expr::Kind::kIdent && e.name == name) return true;
  // A nested binder of the same name shadows the outer one.
  if ((e.kind == Expr::Kind::kComprehension ||
       e.kind == Expr::Kind::kAggregate) &&
      e.name == name) {
    return e.base && mentions_name(*e.base, name);
  }
  if (e.base && mentions_name(*e.base, name)) return true;
  if (e.lhs && mentions_name(*e.lhs, name)) return true;
  if (e.rhs && mentions_name(*e.rhs, name)) return true;
  if (e.agg_value && mentions_name(*e.agg_value, name)) return true;
  if (e.filter && mentions_name(*e.filter, name)) return true;
  for (const auto& arg : e.args) {
    if (mentions_name(*arg, name)) return true;
  }
  return false;
}

/// The SQL operator of an ASL unary operator.
db::sql::UnOp sql_operator(asl::ast::UnOp op) {
  return op == asl::ast::UnOp::kNot ? db::sql::UnOp::kNot : db::sql::UnOp::kNeg;
}

/// The SQL operator of an ASL binary operator.
SqlBinOp sql_operator(asl::ast::BinOp op) {
  using asl::ast::BinOp;
  switch (op) {
    case BinOp::kAdd: return SqlBinOp::kAdd;
    case BinOp::kSub: return SqlBinOp::kSub;
    case BinOp::kMul: return SqlBinOp::kMul;
    case BinOp::kDiv: return SqlBinOp::kDiv;
    case BinOp::kEq: return SqlBinOp::kEq;
    case BinOp::kNe: return SqlBinOp::kNe;
    case BinOp::kLt: return SqlBinOp::kLt;
    case BinOp::kLe: return SqlBinOp::kLe;
    case BinOp::kGt: return SqlBinOp::kGt;
    case BinOp::kGe: return SqlBinOp::kGe;
    case BinOp::kAnd: return SqlBinOp::kAnd;
    case BinOp::kOr: return SqlBinOp::kOr;
  }
  throw EvalError("unknown binary operator");
}

/// ASL's total equality for two operands that may both be legal nulls
/// (RtValue::equals: null equals null, and nothing else).
SqlExpr total_equality(SqlExpr lhs, SqlExpr rhs) {
  SqlExpr both_null = make_binary(SqlBinOp::kAnd, make_is_null(lhs->clone()),
                                 make_is_null(rhs->clone()));
  return make_binary(
      SqlBinOp::kOr,
      sql_call("COALESCE",
               make_binary(SqlBinOp::kEq, std::move(lhs), std::move(rhs)),
               make_literal(db::Value::boolean(false))),
      std::move(both_null));
}

/// Unrolls the member chain `root.a.b` into `chain` (base-most first) and
/// returns its root.
const Expr* unroll_member_chain(const Expr& e,
                                std::vector<const Expr*>& chain) {
  const Expr* root = &e;
  while (root->kind == Expr::Kind::kMember) {
    chain.push_back(root);
    root = root->base.get();
  }
  std::reverse(chain.begin(), chain.end());
  return root;
}

/// A NULL column of a whole-condition row the property contract consults:
/// the context is not applicable. (A column of the wrong type is an
/// EvalError instead, which sends the context site-wise.)
class DataGap final : public support::Error {
 public:
  using Error::Error;
};

/// Accumulates parameters while a plan is being recorded. `params` and
/// `values` align index-by-index in emission order (kAssertNull entries
/// carry a dummy value); a `?` node's param_index points into them until
/// finalize() renumbers the tree in text order.
struct PlanBuild {
  std::vector<CompiledPlan::Param> params;
  std::vector<db::Value> values;

  std::size_t add(CompiledPlan::Param param, db::Value value) {
    params.push_back(std::move(param));
    values.push_back(std::move(value));
    return params.size() - 1;
  }
};

/// What a site's compile callback produces.
struct Compiled {
  std::unique_ptr<db::sql::SelectStmt> select;
  std::uint32_t elem_class = 0;
};

/// Statement text of a compiled tree: what explain shows, and what the CSE
/// pass orders its CTEs by.
std::string render(const db::sql::SelectStmt& select) {
  std::string text;
  std::vector<std::size_t> order;
  if (!db::sql::render_select_sql(select, text, order)) {
    throw EvalError("compiled SQL has no text form");
  }
  return text;
}

/// Renumbers the tree's placeholders in text order (so it is exactly what
/// parsing its rendered text yields), orders params and values to match,
/// and renders the text.
CompiledPlan finalize(Compiled compiled, PlanBuild&& build,
                      std::vector<db::Value>& ordered_values) {
  CompiledPlan plan;
  plan.elem_class = compiled.elem_class;
  ordered_values.clear();
  for (const std::size_t id :
       db::sql::renumber_params(*compiled.select, &plan.sql)) {
    plan.params.push_back(build.params.at(id));
    ordered_values.push_back(build.values.at(id));
  }
  if (plan.sql.empty()) throw EvalError("compiled SQL has no text form");
  for (const CompiledPlan::Param& param : build.params) {
    if (param.slot == CompiledPlan::Slot::kAssertNull) {
      plan.params.push_back(param);
    }
  }
  plan.tree = std::move(compiled.select);
  return plan;
}

struct EnvFrame;

/// A name visible during whole-condition compilation: a property argument
/// (becomes a `?` parameter) or an expression alias (LET binding or inlined
/// function parameter, compiled on reference in the scope it was written
/// in).
struct Binding {
  enum class Kind { kArg, kExpr };
  std::string_view name;
  Kind kind = Kind::kArg;
  std::size_t arg_index = 0;          // kArg
  const Expr* expr = nullptr;         // kExpr
  const EnvFrame* def_env = nullptr;  // scope the expr was written in
};
struct EnvFrame {
  Binding binding;
  const EnvFrame* parent = nullptr;
};

/// One set query under construction: the base table, one JOIN per object
/// hop and the WHERE conjuncts, with the set's members bound to alias `b`.
struct SetSpec {
  std::string binder;  // empty until a comprehension/aggregate names one
  std::uint32_t elem_class = 0;
  /// Catalog table and alias of the base scan — what the partition-union
  /// rewrite checks against the layout metadata.
  db::sql::TableRef from;
  std::vector<db::sql::Join> joins;
  std::vector<SqlExpr> conjuncts;
  int alias_counter = 0;
  /// Whole-condition scope the set expression was written in: where its
  /// uncorrelated subexpressions compile. The site-wise translator
  /// evaluates them in the interpreter's environment and leaves this null.
  const EnvFrame* env = nullptr;

  /// `SELECT <item> FROM ... WHERE c1 AND c2 ...` made of the set (no
  /// item when `item` is null); consumes the spec.
  [[nodiscard]] std::unique_ptr<db::sql::SelectStmt> select(SqlExpr item) && {
    auto s = std::make_unique<db::sql::SelectStmt>();
    if (item) s->items.push_back({std::move(item), {}, false, {}});
    s->from = std::move(from);
    s->joins = std::move(joins);
    for (SqlExpr& conjunct : conjuncts) {
      s->where = s->where ? make_binary(SqlBinOp::kAnd, std::move(s->where),
                                        std::move(conjunct))
                          : std::move(conjunct);
    }
    return s;
  }
};

/// A set-filter operand, with what ASL equality needs to know about its
/// nulls.
struct FilterSql {
  enum class Null {
    kNever,  ///< never a legal null at run time
    kLegal,  ///< may be a legal null (an unset attribute)
    kIs,     ///< null in this compilation (the null literal, or a value
             ///< that is null in the compiling context)
  };
  SqlExpr sql;
  Null null = Null::kNever;
};

/// ASL equality inside a set filter. A side that is null here turns it into
/// IS [NOT] NULL of the other side; two sides that may both be legal nulls
/// compare with the total equality; a legal null differs from any value.
/// Where one side may be a legal null, `=` stays three-valued only in a
/// `positive` position (reached from WHERE through AND/OR alone, where
/// NULL filters like FALSE); anywhere else — under NOT, say — it is made
/// two-valued so an unset attribute compares false, as in the interpreter.
SqlExpr filter_equality(asl::ast::BinOp op, FilterSql lhs, FilterSql rhs,
                        bool positive) {
  using Null = FilterSql::Null;
  const bool eq = op == asl::ast::BinOp::kEq;
  if (lhs.null == Null::kIs || rhs.null == Null::kIs) {
    SqlExpr tested = rhs.null == Null::kIs ? std::move(lhs.sql)
                                           : std::move(rhs.sql);
    return make_is_null(std::move(tested), !eq);
  }
  if (lhs.null == Null::kLegal && rhs.null == Null::kLegal) {
    SqlExpr equal = total_equality(std::move(lhs.sql), std::move(rhs.sql));
    return eq ? std::move(equal)
              : make_unary(db::sql::UnOp::kNot, std::move(equal));
  }
  const bool legal = lhs.null == Null::kLegal || rhs.null == Null::kLegal;
  SqlExpr plain = make_binary(eq ? SqlBinOp::kEq : SqlBinOp::kNe,
                             std::move(lhs.sql), std::move(rhs.sql));
  if (!legal || (eq && positive)) return plain;
  return sql_call("COALESCE", std::move(plain),
                  make_literal(db::Value::boolean(!eq)));
}

/// The set translation both SQL translators share: a setof attribute chain
/// (or a comprehension over one) becomes FROM/JOIN/WHERE, a member path
/// rooted at the binder becomes one JOIN per object hop, and a set filter
/// becomes a WHERE conjunct. Each translator supplies its own leaf rules:
/// the owner of a setof access, and a filter subexpression that does not
/// mention the binder.
class SetTranslator {
 public:
  /// A setof attribute chain or a comprehension over one; `env` is the
  /// whole-condition scope the set is written in.
  SetSpec compile_set(const Expr& e,  // NOLINT(misc-no-recursion)
                      const EnvFrame* env) {
    if (e.kind == Expr::Kind::kComprehension) {
      return filtered_set(*e.base, e.name, e.filter.get(), env);
    }
    if (e.kind != Expr::Kind::kMember) {
      throw not_compilable(
          e,
          "set expression must be a setof attribute chain or a "
          "comprehension over one");
    }
    SetSpec sq;
    sq.env = env;
    auto [owner, owner_class] = set_owner(*e.base, sq);
    const asl::ClassInfo& cls = model_->class_info(owner_class);
    const auto attr = cls.find_attr(e.name);
    if (!attr || cls.attrs[*attr].type.kind != TypeKind::kSet) {
      throw not_compilable(e, support::cat("'", e.name,
                                           "' is not a setof attribute of ",
                                           cls.name));
    }
    sq.elem_class = cls.attrs[*attr].type.id;
    sq.from = sql_table(junction_table(cls.name, e.name), "j");
    sq.joins.push_back(
        {sql_table(model_->class_info(sq.elem_class).name, "b"),
         make_binary(SqlBinOp::kEq, make_column("b", "id"),
                    make_column("j", "member"))});
    sq.conjuncts.push_back(make_binary(SqlBinOp::kEq, make_column("j", "owner"),
                                      std::move(owner)));
    return sq;
  }

  /// The set `base` with `binder` naming its members and `filter` (if any)
  /// compiled into the WHERE clause: a comprehension, or an aggregate's
  /// range.
  SetSpec filtered_set(const Expr& base,  // NOLINT(misc-no-recursion)
                       const std::string& binder, const Expr* filter,
                       const EnvFrame* env) {
    SetSpec sq = compile_set(base, env);
    sq.binder = binder;
    if (filter != nullptr) {
      sq.conjuncts.push_back(over_binder(*filter, sq, /*positive=*/true).sql);
    }
    return sq;
  }

  /// Filter or aggregate-value expression with the set's binder in scope.
  /// Subexpressions not touching the binder go to the translator's leaf
  /// rule; subexpressions that do are limited to member chains and scalar
  /// glue — the engine's scalar subqueries cannot be correlated with an
  /// enclosing row. `positive`: `e` is reached from WHERE through AND/OR
  /// alone (see filter_equality).
  FilterSql over_binder(const Expr& e,  // NOLINT(misc-no-recursion)
                        SetSpec& sq, bool positive) {
    using Kind = Expr::Kind;
    if (e.kind == Kind::kNullLit) {
      return {make_literal(db::Value::null()), FilterSql::Null::kIs};
    }
    if (!sq.binder.empty() && !mentions_name(e, sq.binder)) {
      return filter_leaf(e, sq);
    }
    switch (e.kind) {
      case Kind::kIdent:
        if (e.name == sq.binder) return {make_column("b", "id")};
        break;  // unreachable: non-binder idents hit the leaf rule
      case Kind::kMember: {
        std::vector<const Expr*> chain;
        const Expr* root = unroll_member_chain(e, chain);
        if (root->kind != Kind::kIdent || root->name != sq.binder) {
          throw not_compilable(
              e, "member path in a set filter must be rooted at the binder");
        }
        return {join_path(sq, "b", sq.elem_class, chain),
                FilterSql::Null::kLegal};
      }
      case Kind::kUnary:
        return {make_unary(sql_operator(e.un_op),
                           over_binder(*e.lhs, sq, false).sql)};
      case Kind::kBinary: {
        // Sequence the sides explicitly: both may emit parameters, and the
        // recording order must be deterministic.
        const bool logical = e.bin_op == asl::ast::BinOp::kAnd ||
                             e.bin_op == asl::ast::BinOp::kOr;
        FilterSql lhs = over_binder(*e.lhs, sq, positive && logical);
        FilterSql rhs = over_binder(*e.rhs, sq, positive && logical);
        if (e.bin_op == asl::ast::BinOp::kEq ||
            e.bin_op == asl::ast::BinOp::kNe) {
          return {filter_equality(e.bin_op, std::move(lhs), std::move(rhs),
                                  positive)};
        }
        return {make_binary(sql_operator(e.bin_op), std::move(lhs.sql),
                           std::move(rhs.sql))};
      }
      default:
        break;
    }
    throw not_compilable(
        e, support::cat("expression correlated with binder '", sq.binder,
                        "' is not compilable (aggregates/calls over the "
                        "binder are not supported)"));
  }

  /// Walks `chain` starting from `alias` (an instance of `cls_id`), adding
  /// one JOIN per intermediate object reference; returns the final column.
  SqlExpr join_path(SetSpec& sq, std::string alias, std::uint32_t cls_id,
                    std::span<const Expr* const> chain) {
    for (std::size_t i = 0; i < chain.size(); ++i) {
      const asl::ClassInfo& cls = model_->class_info(cls_id);
      const auto attr = cls.find_attr(chain[i]->name);
      if (!attr) {
        throw not_compilable(*chain[i],
                             support::cat("class ", cls.name,
                                          " has no attribute '",
                                          chain[i]->name, "'"));
      }
      const Type& attr_type = cls.attrs[*attr].type;
      if (i + 1 == chain.size()) {
        if (attr_type.kind == TypeKind::kSet) {
          throw not_compilable(*chain[i],
                               support::cat("set-valued attribute '",
                                            chain[i]->name,
                                            "' in scalar position"));
        }
        return make_column(alias, chain[i]->name);
      }
      if (attr_type.kind != TypeKind::kClass) {
        throw not_compilable(*chain[i],
                             support::cat("'.", chain[i]->name,
                                          "' must be an object reference"));
      }
      std::string next = support::cat("t", sq.alias_counter++);
      sq.joins.push_back(
          {sql_table(model_->class_info(attr_type.id).name, next),
           make_binary(SqlBinOp::kEq, make_column(next, "id"),
                      make_column(alias, chain[i]->name))});
      alias = std::move(next);
      cls_id = attr_type.id;
    }
    throw EvalError("empty member path");
  }

 protected:
  /// `prefix` names the translator in its errors; `prop` (may be null) is
  /// the property being compiled.
  SetTranslator(const asl::Model& model, const asl::PropertyInfo* prop,
                std::string_view prefix)
      : model_(&model), prop_(prop), prefix_(prefix) {}
  ~SetTranslator() = default;

  /// The owner of a setof access, and its class.
  virtual std::pair<SqlExpr, std::uint32_t> set_owner(const Expr& e,
                                                      const SetSpec& sq) = 0;
  /// A filter subexpression that does not mention the binder.
  virtual FilterSql filter_leaf(const Expr& e, const SetSpec& sq) = 0;
  /// The error for a construct this translator cannot compile, located at
  /// `at` in the specification.
  [[nodiscard]] CompileLimit not_compilable(const Expr& at,
                                            std::string_view what) const {
    return CompileLimit(support::cat(
        prefix_, what, " (",
        prop_ != nullptr ? support::cat("property ", prop_->name, ", ") : "",
        "at ", at.loc.to_string(), ")"));
  }

  const asl::Model* model_;
  const asl::PropertyInfo* prop_;

 private:
  std::string_view prefix_;
};

}  // namespace

PlanCache::PlanCache(const asl::Model& model)
    : model_(&model), fingerprint_(model.fingerprint()) {}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

std::size_t PlanCache::size() const {
  std::lock_guard lock(mutex_);
  return plans_.size();
}

std::vector<std::shared_ptr<const CompiledPlan>> PlanCache::plans() const {
  std::lock_guard lock(mutex_);
  std::vector<std::shared_ptr<const CompiledPlan>> out;
  out.reserve(plans_.size());
  for (const auto& [key, plan] : plans_) out.push_back(plan);
  return out;
}

std::shared_ptr<const CompiledPlan> PlanCache::find(std::string_view property,
                                                    const void* site, int kind,
                                                    std::uint64_t layout) const {
  std::lock_guard lock(mutex_);
  const auto it = plans_.find(Key{std::string(property), site, kind, layout});
  return it == plans_.end() ? nullptr : it->second;
}

std::shared_ptr<const CompiledPlan> PlanCache::insert(
    std::string_view property, const void* site, int kind,
    std::uint64_t layout, std::shared_ptr<const CompiledPlan> plan) {
  std::lock_guard lock(mutex_);
  // A racing worker may have compiled the same site; the first plan in
  // stays canonical so every evaluator converges on one instance.
  return plans_
      .emplace(Key{std::string(property), site, kind, layout}, std::move(plan))
      .first->second;
}

void PlanCache::record(bool hit) {
  std::lock_guard lock(mutex_);
  if (hit) {
    ++stats_.hits;
  } else {
    ++stats_.misses;
  }
}

/// The data of the site-wise SQL evaluators (paper §5): asl::Interpreter
/// walks the property, and this source answers its member reads with SQL
/// component fetches and, under pushdown, its set nodes with set queries.
/// Client-fetch answers no set node, so the interpreter loops over fetched
/// members itself: the paper's slow path. Statements go through the owning
/// SqlEvaluator's connection and plan cache.
class SqlExprEval final : public SetTranslator, public asl::DataSource {
 public:
  explicit SqlExprEval(SqlEvaluator& owner,
                       const asl::PropertyInfo* prop = nullptr)
      : SetTranslator(*owner.model_, prop, "SQL strategy: "), owner_(owner),
        interp_(*owner.model_, *this) {}
  SqlExprEval(const SqlExprEval&) = delete;  // interp_ reads through `this`
  SqlExprEval& operator=(const SqlExprEval&) = delete;

  [[nodiscard]] const asl::Interpreter& interpreter() const { return interp_; }

  /// The SQL of a set expression in `env` with its values inline (the
  /// explain flows): recorded like a plan, then every `?` replaced by the
  /// literal it binds. Site-wise statements hold no subqueries.
  std::string explain(const Expr& set_expr, asl::Env& env) {
    const EnvScope scope(*this, env);
    PlanBuild build;
    build_ = &build;
    std::unique_ptr<db::sql::SelectStmt> select =
        compile_set(set_expr, nullptr).select(make_column("b", "id"));
    build_ = nullptr;
    const auto inline_values = [&](const auto& self, SqlExpr& e) -> void {
      if (e->kind == db::sql::Expr::Kind::kParam) {
        e = make_literal(build.values[e->param_index]);
        return;
      }
      if (e->lhs) self(self, e->lhs);
      if (e->rhs) self(self, e->rhs);
      for (SqlExpr& arg : e->args) self(self, arg);
    };
    for (db::sql::SelectItem& item : select->items) {
      inline_values(inline_values, item.expr);
    }
    for (db::sql::Join& join : select->joins) {
      inline_values(inline_values, join.on);
    }
    if (select->where) inline_values(inline_values, select->where);
    return render(*select);
  }

  // --- the interpreter's data ------------------------------------------------

  /// One attribute record (kAttrFetch), or the member ids of a setof
  /// attribute (kJunctionIds).
  RtValue read_member(ObjectId id, const Expr& e) override {
    if (e.base->type.kind != TypeKind::kClass) {
      throw EvalError(support::cat("SQL strategy: '.", e.name,
                                   "' on an expression sema did not type"));
    }
    const asl::ClassInfo& cls = model_->class_info(e.base->type.id);
    const auto attr = cls.find_attr(e.name);
    if (!attr) {
      throw EvalError(support::cat("class ", cls.name, " has no attribute '",
                                   e.name, "'"));
    }
    const Type& type = cls.attrs[*attr].type;
    const db::Value key = db::Value::integer(static_cast<std::int64_t>(id));
    const std::span<const db::Value> provided(&key, 1);
    if (type.kind == TypeKind::kSet) {
      const SiteResult site =
          run_site(e, SiteKind::kJunctionIds, provided, [&]() -> Compiled {
            return {sql_select(make_column({}, "member"),
                               junction_table(cls.name, e.name),
                               make_binary(SqlBinOp::kEq,
                                           make_column({}, "owner"),
                                           emit_provided(0, key))),
                    type.id};
          });
      return RtValue::of_set(member_ids(site.result));
    }
    const SiteResult site =
        run_site(e, SiteKind::kAttrFetch, provided, [&]() -> Compiled {
          return {sql_select(make_column({}, e.name), cls.name,
                             make_binary(SqlBinOp::kEq, make_column({}, "id"),
                                         emit_provided(0, key))),
                  0};
        });
    if (site.result.row_count() != 1) {
      throw EvalError(support::cat("object ", id, " not found in table ",
                                   cls.name));
    }
    return to_rt_value(site.result.rows[0][0], type);
  }

  /// Pushdown answers every set node with one set query; client-fetch
  /// declines.
  std::optional<RtValue> eval_set(const Expr& e, asl::Env& env) override {
    if (client_side()) return std::nullopt;
    const EnvScope scope(*this, env);
    switch (e.kind) {
      case Expr::Kind::kComprehension:
        return RtValue::of_set(member_ids(set_ids(e, e).result));
      case Expr::Kind::kUnique: {
        const SiteResult site = set_ids(e, *e.base);
        if (site.result.row_count() != 1) {
          throw EvalError(support::cat("UNIQUE over a set of size ",
                                       site.result.row_count()));
        }
        return RtValue::of_object(
            static_cast<ObjectId>(site.result.rows[0][0].as_int()));
      }
      case Expr::Kind::kExists:
      case Expr::Kind::kSize: {
        const SiteResult site =
            run_site(e, SiteKind::kSetCount, {}, [&]() -> Compiled {
              SetSpec sq = compile_set(*e.base, nullptr);
              return {std::move(sq).select(sql_count_star()), sq.elem_class};
            });
        const std::int64_t n = site.result.scalar().as_int();
        return e.kind == Expr::Kind::kExists ? RtValue::of_bool(n > 0)
                                             : RtValue::of_int(n);
      }
      default:  // kAggregate over a set
        return aggregate(e);
    }
  }

 private:
  /// Points the leaf rules and bind_plan at the environment of the set node
  /// being answered, restoring the enclosing one on exit (a leaf may
  /// evaluate a nested set node in a function's own environment).
  struct EnvScope {
    EnvScope(SqlExprEval& self, asl::Env& env) : self(self), saved(self.env_) {
      self.env_ = &env;
    }
    ~EnvScope() { self.env_ = saved; }
    EnvScope(const EnvScope&) = delete;
    EnvScope& operator=(const EnvScope&) = delete;
    SqlExprEval& self;
    asl::Env* saved;
  };

  // --- plan cache machinery --------------------------------------------------

  /// Which SELECT a site compiles to; part of the cache key so one AST node
  /// may own distinct plans per role (and per evaluation mode).
  enum class SiteKind : int {
    kSetIds = 1,       // SELECT b.id <set>            (comprehension, UNIQUE)
    kSetCount = 2,     // SELECT COUNT(*) <set>        (EXISTS, SIZE)
    kSetAgg = 3,       // SELECT AGG(expr) <set>       (aggregates)
    kAttrFetch = 4,    // SELECT attr FROM cls WHERE id = ?
    kJunctionIds = 5,  // SELECT member FROM junction WHERE owner = ?
  };

  struct SiteResult {
    db::QueryResult result;
    std::uint32_t elem_class = 0;
  };

  /// Emits a context-dependent scalar into the plan being recorded: a bound
  /// parameter, or a NULL literal guarded to stay null.
  SqlExpr emit_scalar(const Expr* origin, const RtValue& value) {
    if (value.is_null()) {
      build_->add({origin, CompiledPlan::Slot::kAssertNull, 0, {}},
                  db::Value::null());
      return make_literal(db::Value::null());
    }
    return make_param(build_->add({origin, CompiledPlan::Slot::kValue, 0, {}},
                                  to_db_value(value, origin->type)));
  }

  /// Emits an object id whose expression is re-evaluated at bind time.
  SqlExpr emit_object(const Expr* origin, ObjectId id,
                      std::string null_error) {
    return make_param(build_->add(
        {origin, CompiledPlan::Slot::kObjectId, 0, std::move(null_error)},
        db::Value::integer(static_cast<std::int64_t>(id))));
  }

  /// Emits a value the caller computed before entering the site (and will
  /// pass again, at the same index, on every later bind).
  SqlExpr emit_provided(std::size_t index, const db::Value& value) {
    return make_param(build_->add(
        {nullptr, CompiledPlan::Slot::kProvided, index, {}}, value));
  }

  /// Evaluates a cached plan's parameters for the current context. Returns
  /// false when a nullability assumption baked into the SQL no longer holds
  /// (the context needs a differently-shaped statement).
  bool bind_plan(const CompiledPlan& plan, std::span<const db::Value> provided,
                 std::vector<db::Value>& values) {
    values.clear();
    values.reserve(plan.params.size());
    for (const CompiledPlan::Param& param : plan.params) {
      if (param.slot == CompiledPlan::Slot::kProvided) {
        values.push_back(provided[param.provided_index]);
        continue;
      }
      const RtValue value = interp_.eval(*param.expr, *env_);
      switch (param.slot) {
        case CompiledPlan::Slot::kObjectId:
          if (value.is_null()) throw EvalError(param.null_error);
          values.push_back(
              db::Value::integer(static_cast<std::int64_t>(value.as_object())));
          break;
        case CompiledPlan::Slot::kValue:
          if (value.is_null()) return false;
          values.push_back(to_db_value(value, param.expr->type));
          break;
        default:  // kAssertNull
          if (!value.is_null()) return false;
          break;
      }
    }
    return true;
  }

  db::QueryResult execute(db::PreparedStatement& stmt,
                          std::span<const db::Value> values) {
    ++owner_.stats_.sql_queries;
    return owner_.conn_->execute(stmt, values);
  }

  /// Runs one translation site. A cached plan binds this context's values
  /// and runs the evaluator's prepared clone. Otherwise the site compiles
  /// into a plan that runs with the values recorded while compiling, and
  /// is cached unless it is a one-off: the site has no property to key it
  /// under (explain_set's nested aggregates), or a nullability guard of the
  /// cached plan failed (this context needs a differently-shaped statement;
  /// the cached plan stays).
  template <typename F>
  SiteResult run_site(const Expr& site, SiteKind kind,
                      std::span<const db::Value> provided, F&& compile) {
    // Params of this site never leak into an enclosing recording (a nested
    // uncorrelated aggregate executes *during* an outer compile; it becomes
    // one bound scalar of the outer plan, not part of its text).
    struct Restore {
      SqlExprEval& self;
      PlanBuild* saved;
      ~Restore() { self.build_ = saved; }
    } restore{*this, build_};
    build_ = nullptr;

    PlanCache& cache = *owner_.cache_;
    const int k = static_cast<int>(kind) * 2 +
                  (client_side() ? 1 : 0);  // mode disambiguates shared nodes
    const std::shared_ptr<const CompiledPlan> cached =
        prop_ == nullptr ? nullptr
                         : cache.find(prop_->name, &site, k, owner_.layout_);
    std::vector<db::Value> values;
    if (cached != nullptr) {
      const bool bound = bind_plan(*cached, provided, values);
      ++(bound ? owner_.stats_.plan_cache_hits
               : owner_.stats_.plan_cache_misses);
      cache.record(bound);
      if (bound) {
        return {execute(owner_.entry_for(cached).stmt, values),
                cached->elem_class};
      }
    }
    PlanBuild build;
    build_ = &build;
    Compiled compiled = compile();
    build_ = nullptr;
    if (prop_ == nullptr || cached != nullptr) {
      // A one-off: its own tree runs once, with the values just recorded.
      values.clear();
      for (const std::size_t id : db::sql::renumber_params(*compiled.select)) {
        values.push_back(build.values[id]);
      }
      db::PreparedStatement stmt(
          db::sql::Statement(std::move(*compiled.select)));
      return {execute(stmt, values), compiled.elem_class};
    }
    // A racing worker may have compiled the same site meanwhile; converge
    // on the canonical plan (the values bind either — same template).
    const std::shared_ptr<const CompiledPlan> plan =
        cache.insert(prop_->name, &site, k, owner_.layout_,
                     std::make_shared<CompiledPlan>(finalize(
                         std::move(compiled), std::move(build), values)));
    ++owner_.stats_.plan_cache_misses;
    cache.record(false);
    return {execute(owner_.entry_for(plan).stmt, values), plan->elem_class};
  }

  // --- set compilation: the site-wise leaf rules --------------------------

  std::pair<SqlExpr, std::uint32_t> set_owner(const Expr& e,
                                              const SetSpec&) override {
    if (e.type.kind != TypeKind::kClass) {
      throw not_compilable(e, "set base must be an object");
    }
    const RtValue base = interp_.eval(e, *env_);
    if (base.is_null()) {
      throw EvalError("SQL strategy: set access on null object");
    }
    return {emit_object(&e, base.as_object(),
                        "SQL strategy: set access on null object"),
            e.type.id};
  }

  /// Evaluates the subexpression now and binds its value: uncorrelated
  /// nested aggregates become scalar constants of the query. A non-null
  /// value is bound under a kValue guard, so it is never null when the
  /// plan runs.
  FilterSql filter_leaf(const Expr& e, const SetSpec&) override {
    const RtValue value = interp_.eval(e, *env_);
    return {emit_scalar(&e, value),
            value.is_null() ? FilterSql::Null::kIs : FilterSql::Null::kNever};
  }

  [[nodiscard]] bool client_side() const {
    return owner_.mode_ == SqlEvalMode::kClientSide;
  }

  static asl::SetPtr member_ids(const db::QueryResult& result) {
    auto ids = std::make_shared<std::vector<ObjectId>>();
    ids->reserve(result.row_count());
    for (const db::Row& row : result.rows) {
      ids->push_back(static_cast<ObjectId>(row[0].as_int()));
    }
    return ids;
  }

  /// The kSetIds site of `site`: the member ids of `set`.
  SiteResult set_ids(const Expr& site, const Expr& set) {
    return run_site(site, SiteKind::kSetIds, {}, [&]() -> Compiled {
      SetSpec sq = compile_set(set, nullptr);
      return {std::move(sq).select(make_column("b", "id")), sq.elem_class};
    });
  }

  RtValue aggregate(const Expr& e) {
    const SiteResult site =
        run_site(e, SiteKind::kSetAgg, {}, [&]() -> Compiled {
          SetSpec sq = filtered_set(*e.base, e.name, e.filter.get(), nullptr);
          SqlExpr select =
              e.agg_kind == AggKind::kCount
                  ? sql_count_star()
                  : sql_call(std::string(asl::ast::to_string(e.agg_kind)),
                             over_binder(*e.agg_value, sq, false).sql);
          return {std::move(sq).select(std::move(select)), sq.elem_class};
        });
    const db::Value scalar = site.result.scalar();
    if (e.agg_kind == AggKind::kCount) return RtValue::of_int(scalar.as_int());
    if (scalar.is_null()) {
      if (e.agg_kind == AggKind::kSum) return RtValue::of_float(0.0);
      throw EvalError(support::cat(asl::ast::to_string(e.agg_kind),
                                   " over an empty set"));
    }
    if (scalar.type() == db::ValueType::kInt) {
      return RtValue::of_int(scalar.as_int());
    }
    return RtValue::of_float(scalar.as_double());
  }

  SqlEvaluator& owner_;
  asl::Interpreter interp_;
  PlanBuild* build_ = nullptr;
  asl::Env* env_ = nullptr;  ///< environment of the set node being answered
};

namespace {

/// Compiles a property's complete surface into ONE parameterized FROM-less
/// SELECT (paper §6: "translate the conditions of performance properties
/// entirely into SQL queries"). Column layout, in order:
///
///   [one probe per LET | one per condition | confidence arms | severity arms]
///
/// Every set site becomes an uncorrelated scalar subquery; LET bindings and
/// specification functions are inlined symbolically (the statement is
/// context-free); the only context dependence is the property-argument
/// tuple, emitted as kProvided `?` parameters indexed by argument position.
/// The LET probes reproduce the interpreter's *eager* LET semantics: a LET
/// whose value is a data gap surfaces as a NULL column and the whole
/// context becomes not-applicable, exactly as the interpreter's thrown
/// EvalError would have.
///
/// Anything outside the compilable subset throws EvalError naming the first
/// blocker; the evaluator then falls back to site-wise evaluation.
class WholeConditionCompiler final : public SetTranslator {
 public:
  /// With `cse` on, the compiler additionally
  ///   * reuses one parameter per property argument, so structurally
  ///     identical subexpressions compile to identical subtrees, and
  ///   * hoists scalar subqueries that occur more than once into named
  ///     CTEs (`WITH cse0 AS (SELECT ... AS v FROM ...) ...`), each
  ///     occurrence becoming a cheap `(SELECT v FROM cse0)` reference.
  /// The engine materializes each CTE exactly once per statement execution,
  /// so every shared subexpression runs once per (property, context).
  ///
  /// With `catalog` attached (and `cse` on), the compiler is additionally
  /// layout-aware: a full-table aggregate subquery whose base table is
  /// partitioned — and not pinned to one partition by an equality conjunct
  /// on the partition column — compiles into one `part<K>` CTE per
  /// partition (each scan pinned via `PARTITION (K)`) combined by a
  /// coordinator expression: SUM-of-SUMs, COUNT-of-COUNTs, AVG re-derived
  /// from per-partition SUM/COUNT, LEAST/GREATEST over per-partition
  /// MIN/MAX. The executor materializes independent CTEs of one statement
  /// concurrently, so the one-statement-per-(property, context) contract
  /// holds while the engine parallelizes inside the statement. Without
  /// `catalog` (or with `cse` off — the ablation baseline) compilation is
  /// layout-blind, exactly as before.
  /// `count_rewrites` is off for diagnostic-only compilations (explain):
  /// Database::exec_stats().partition_union_rewrites must track plans
  /// compiled for execution, not every time someone looks at the SQL.
  WholeConditionCompiler(const asl::Model& model, const asl::PropertyInfo& prop,
                         bool cse = true, db::Database* catalog = nullptr,
                         bool count_rewrites = true)
      : SetTranslator(model, &prop, "whole-condition: "), cse_(cse),
        catalog_(catalog), count_rewrites_(count_rewrites) {}

  /// The context-free plan; evaluate_whole binds the arguments per context.
  CompiledPlan compile() {
    const EnvFrame* env = nullptr;
    for (std::size_t i = 0; i < prop_->params.size(); ++i) {
      env = push(env, Binding{prop_->params[i].first, Binding::Kind::kArg, i,
                              nullptr, nullptr});
    }
    std::vector<const EnvFrame*> let_envs;  // scope visible to each LET init
    for (const asl::LetInfo& let : prop_->lets) {
      let_envs.push_back(env);
      env = push(env,
                 Binding{let.name, Binding::Kind::kExpr, 0, let.init, env});
    }

    auto select = std::make_unique<db::sql::SelectStmt>();
    const auto add = [&](SqlExpr column) {
      select->items.push_back({std::move(column), {}, false, {}});
    };
    // Probe the LETs whose evaluation can only yield NULL through a data
    // gap the interpreter would have thrown on (UNIQUE over a non-singleton
    // set, an aggregate over an empty one, ...). Raw attribute reads are
    // NOT probed: an unset attribute is a legal null value in ASL, not an
    // error. (Residual corner: a LET that is referenced nowhere and whose
    // member chain breaks mid-way stays undetected — the interpreter would
    // report not-applicable; acceptable for a binding nothing consumes.)
    std::size_t probes = 0;
    for (std::size_t i = 0; i < prop_->lets.size(); ++i) {
      if (may_be_null(*prop_->lets[i].init, let_envs[i], 0)) continue;
      add(scalar(*prop_->lets[i].init, let_envs[i]));
      ++probes;
    }
    for (const asl::ConditionInfo& cond : prop_->conditions) {
      add(scalar(*cond.pred, env));
    }
    for (const asl::GuardedInfo& arm : prop_->confidence) {
      add(scalar(*arm.expr, env));
    }
    for (const asl::GuardedInfo& arm : prop_->severity) {
      add(scalar(*arm.expr, env));
    }
    if (cse_) eliminate_common_subexpressions(*select);

    // elem_class is unused by whole plans; it carries the probe-column
    // count so the glue can locate the condition columns.
    std::vector<db::Value> unbound;
    return finalize(Compiled{std::move(select),
                             static_cast<std::uint32_t>(probes)},
                    std::move(build_), unbound);
  }

 private:
  struct DepthGuard {
    DepthGuard(WholeConditionCompiler& self, const Expr& at) : self_(self) {
      if (++self_.depth_ > kMaxInlineDepth) {
        throw self_.not_compilable(at, "aliases or functions inline too deep");
      }
    }
    ~DepthGuard() { --self_.depth_; }
    DepthGuard(const DepthGuard&) = delete;
    DepthGuard& operator=(const DepthGuard&) = delete;
    WholeConditionCompiler& self_;
  };

  const EnvFrame* push(const EnvFrame* parent, Binding binding) {
    frames_.push_back(EnvFrame{binding, parent});
    return &frames_.back();
  }
  [[nodiscard]] static const Binding* lookup(std::string_view name,
                                             const EnvFrame* env) {
    for (; env != nullptr; env = env->parent) {
      if (env->binding.name == name) return &env->binding;
    }
    return nullptr;
  }

  std::pair<SqlExpr, std::uint32_t> set_owner(const Expr& e,
                                              const SetSpec& sq) override {
    if (e.type.kind != TypeKind::kClass) {
      throw not_compilable(e, "set base is not an object");
    }
    return {scalar(e, sq.env), e.type.id};
  }

  /// Compiles the subexpression symbolically; filter_null() says how
  /// equality treats its NULL.
  FilterSql filter_leaf(const Expr& e, const SetSpec& sq) override {
    return {scalar(e, sq.env), filter_null(e, sq.env)};
  }

  /// A property argument is never null here: a context whose argument is
  /// null goes site-wise (see evaluate_whole). The NULL of a member chain
  /// rooted at UNIQUE may be a data gap (an empty UNIQUE, which the
  /// interpreter throws on), so it compares plainly and matches no member.
  /// Anything else may_be_null() admits is a legal null.
  FilterSql::Null filter_null(const Expr& e, const EnvFrame* env) {
    const Expr* value = &e;
    const EnvFrame* value_env = env;
    resolve(value, value_env);
    if (value->kind == Expr::Kind::kIdent &&
        lookup(value->name, value_env) != nullptr) {
      return FilterSql::Null::kNever;  // resolved to a property argument
    }
    if (value->kind == Expr::Kind::kMember) {
      std::vector<const Expr*> chain;
      const Expr* root = unroll_member_chain(*value, chain);
      resolve(root, value_env);
      if (root->kind == Expr::Kind::kUnique) return FilterSql::Null::kNever;
    }
    return may_be_null(e, env, 0) ? FilterSql::Null::kLegal
                                  : FilterSql::Null::kNever;
  }

  /// True when the interpreter can evaluate `e` to a raw null *without
  /// throwing*: the null literal, any attribute read (unset attributes are
  /// legal nulls), or an alias/function that resolves to one of those.
  /// Everything else either throws on a data gap (UNIQUE, aggregates,
  /// arithmetic on null) or cannot be null (literals) — those are the LETs
  /// worth probing.
  bool may_be_null(const Expr& e, const EnvFrame* env,  // NOLINT(misc-no-recursion)
                   int depth) {
    if (depth > kMaxInlineDepth) return true;  // give up: skip the probe
    switch (e.kind) {
      case Expr::Kind::kNullLit:
      case Expr::Kind::kMember:
        return true;
      case Expr::Kind::kIdent: {
        if (const Binding* bound = lookup(e.name, env)) {
          if (bound->kind == Binding::Kind::kArg) return true;
          return may_be_null(*bound->expr, bound->def_env, depth + 1);
        }
        if (const asl::ConstInfo* cst = model_->find_constant(e.name)) {
          return may_be_null(*cst->value, nullptr, depth + 1);
        }
        return false;
      }
      case Expr::Kind::kCall: {
        const asl::FunctionInfo* fn = model_->find_function(e.name);
        if (fn == nullptr || e.args.size() != fn->params.size()) return false;
        return may_be_null(*fn->body, call_env(*fn, e, env), depth + 1);
      }
      default:
        return false;
    }
  }

  /// The scope a call's body compiles in: the function's parameters, each
  /// bound to its argument expression in the caller's scope `env`.
  const EnvFrame* call_env(const asl::FunctionInfo& fn, const Expr& call,
                           const EnvFrame* env) {
    const EnvFrame* fn_env = nullptr;
    for (std::size_t i = 0; i < call.args.size(); ++i) {
      fn_env = push(fn_env, Binding{fn.params[i].first, Binding::Kind::kExpr, 0,
                                    call.args[i].get(), env});
    }
    return fn_env;
  }

  /// A `?` bound to property argument `arg_index`. With CSE on, every
  /// reference to one argument shares one recorded parameter, so equal
  /// subexpressions are equal subtrees; finalize() still gives each
  /// placeholder left in the statement its own `?`.
  SqlExpr arg_param(std::size_t arg_index) {
    if (cse_) {
      const auto it = arg_params_.find(arg_index);
      if (it != arg_params_.end()) return make_param(it->second);
    }
    const std::size_t id =
        build_.add({nullptr, CompiledPlan::Slot::kProvided, arg_index, {}},
                   db::Value::null());
    if (cse_) arg_params_.emplace(arg_index, id);
    return make_param(id);
  }

  /// Name of a generated CTE (`cse<i>` for hoisted shared subqueries,
  /// `part<k>` for partition-union shards). The base name is kept unless
  /// the model declares a class (or junction table) of that name —
  /// bind_sources resolves CTE names before the catalog, so a collision
  /// would silently shadow the base table inside the rewritten statement.
  /// Underscore-prefixing until the name is free keeps the choice
  /// deterministic per model.
  [[nodiscard]] std::string cte_name(std::string base) const {
    const auto taken = [&](std::string_view candidate) {
      for (const asl::ClassInfo& cls : model_->classes()) {
        if (support::iequals(cls.name, candidate)) return true;
        for (const asl::AttrInfo& attr : cls.attrs) {
          if (attr.type.kind == TypeKind::kSet &&
              support::iequals(junction_table(cls.name, attr.name),
                               candidate)) {
            return true;
          }
        }
      }
      return false;
    };
    while (taken(base)) base.insert(0, "_");
    return base;
  }

  [[nodiscard]] static SqlExpr flat_aggregate(AggKind op, SqlExpr arg) {
    if (op == AggKind::kCount) return sql_count_star();
    // ASL's SUM of an empty set is 0 (no barrier records means zero barrier
    // time, not a data gap), so the NULL of SQL's empty SUM must not
    // propagate.
    if (op == AggKind::kSum) {
      return sql_call("COALESCE", sql_call("SUM", std::move(arg)),
                      make_literal(db::Value::real(0.0)));
    }
    return sql_call(std::string(asl::ast::to_string(op)), std::move(arg));
  }

  /// Complete aggregate subquery over `sq`: the partition-union rewrite
  /// when the layout rewards it, the flat single-scan subquery otherwise.
  SqlExpr aggregate_scalar(AggKind op, SqlExpr arg, SetSpec& sq) {
    if (SqlExpr rewritten = partition_union(op, arg, sq)) return rewritten;
    return make_subquery(
        std::move(sq).select(flat_aggregate(op, std::move(arg))));
  }

  /// The partition-union rewrite: a full-table aggregate over a partitioned
  /// base table compiles to one `part<K>` CTE per partition — the scan of
  /// shard K pinned with `PARTITION (K)` — combined by a coordinator
  /// expression (SUM-of-SUMs / COUNT-of-COUNTs, AVG re-derived from
  /// per-partition SUM and COUNT, LEAST/GREATEST over per-partition
  /// MIN/MAX, each of which skips the NULL an empty shard yields). Returns
  /// null when the rewrite does not apply: no catalog attached, CSE off
  /// (the layout-blind ablation baseline), the base table unpartitioned, or
  /// the scan already pinned to one partition by an equality conjunct on
  /// the partition column — per-owner probes stay ONE flat subquery the
  /// executor prunes at bind time, because a union of one live shard plus
  /// N-1 provably empty ones would only add wire and parse cost.
  SqlExpr partition_union(AggKind op, const SqlExpr& arg, SetSpec& sq) {
    if (!cse_ || catalog_ == nullptr) return nullptr;
    const auto layout = catalog_->table_layout(sq.from.table);
    if (!layout || layout->partitions <= 1) return nullptr;
    if ((op == AggKind::kMin || op == AggKind::kMax) &&
        layout->partitions > kMaxFoldArgs) {
      // LEAST/GREATEST accept at most 64 arguments (the scalar-function
      // binder's cap); beyond that the statement would fail at bind time
      // and silently demote every context to the sitewise path — strictly
      // worse than staying flat. (The +-chain coordinators have no arity
      // cap, so SUM/COUNT/AVG still rewrite at any partition count.)
      return nullptr;
    }
    // The first conjunct pins the base scan (`j.owner = ...`, `a0.id = ...`);
    // filters constrain the joined aliases only.
    if (support::iequals(sq.conjuncts.front()->lhs->column,
                         layout->partition_column)) {
      return nullptr;  // pruned probe: one partition at bind time
    }

    // One part<K> group per distinct FROM/WHERE shape, shared by every
    // aggregate operator over it: the group's CTEs carry one output column
    // per distinct fold fragment (SUM and AVG share the COALESCE(SUM)
    // column, for instance), so each partition is scanned ONCE per
    // statement no matter how many operators fold the same set.
    std::unique_ptr<db::sql::SelectStmt> shape = std::move(sq).select(nullptr);
    auto [it, inserted] =
        partition_groups_.try_emplace(db::sql::structural_key(*shape));
    PartitionGroup& group = it->second;
    if (inserted) {
      group.shape = std::move(shape);
      for (std::size_t k = 0; k < layout->partitions; ++k) {
        group.names.push_back(cte_name(support::cat("part", part_counter_++)));
        part_names_.insert(group.names.back());
      }
      group_order_.push_back(&group);
    }
    // Every shard's read of the output column computing `fragment`.
    const auto shard_reads = [&group](SqlExpr fragment) {
      std::string key;
      db::sql::structural_key(*fragment, key);
      auto column = std::find_if(
          group.columns.begin(), group.columns.end(),
          [&](const PartitionGroup::Column& c) { return c.key == key; });
      if (column == group.columns.end()) {
        group.columns.push_back({support::cat("v", group.columns.size()),
                                 std::move(key), std::move(fragment)});
        column = std::prev(group.columns.end());
      }
      std::vector<SqlExpr> reads;
      for (const std::string& name : group.names) {
        reads.push_back(sql_cte_read(column->alias, name));
      }
      return reads;
    };
    const auto sum = [](std::vector<SqlExpr> reads) {  // left-deep `+` chain
      SqlExpr out = std::move(reads.front());
      for (std::size_t k = 1; k < reads.size(); ++k) {
        out = make_binary(SqlBinOp::kAdd, std::move(out), std::move(reads[k]));
      }
      return out;
    };
    const auto arg_copy = [&arg] { return arg ? arg->clone() : nullptr; };
    SqlExpr coordinator;
    switch (op) {
      case AggKind::kCount:
      case AggKind::kSum:
        coordinator = sum(shard_reads(flat_aggregate(op, arg_copy())));
        break;
      case AggKind::kAvg: {
        // AVG re-derives from per-partition SUM and COUNT. Empty-set AVG
        // must stay NULL (a data gap upstream); the engine's IIF evaluates
        // only the taken branch, so the division is guarded.
        SqlExpr total =
            sum(shard_reads(flat_aggregate(AggKind::kSum, arg_copy())));
        SqlExpr count = sum(shard_reads(sql_call("COUNT", arg_copy())));
        SqlExpr empty = make_binary(SqlBinOp::kEq, count->clone(),
                                   make_literal(db::Value::integer(0)));
        coordinator = sql_call(
            "IIF", std::move(empty), make_literal(db::Value::null()),
            make_binary(SqlBinOp::kDiv, std::move(total), std::move(count)));
        break;
      }
      case AggKind::kMin:
      case AggKind::kMax:
        coordinator = sql_call(op == AggKind::kMin ? "LEAST" : "GREATEST");
        coordinator->args = shard_reads(flat_aggregate(op, arg_copy()));
        break;
    }
    // Telemetry: one count per distinct rewritten aggregate (repeated
    // occurrences through LET inlining produce the same coordinator and
    // count once); diagnostic-only compilations never count.
    std::string key;
    db::sql::structural_key(*coordinator, key);
    if (count_rewrites_ && counted_rewrites_.insert(std::move(key)).second) {
      catalog_->count_partition_union_rewrites();
    }
    // The coordinator is a FROM-less scalar subquery like any other, so the
    // CSE pass dedupes a shared rewritten aggregate into a cse CTE whose
    // body references the part<K> shards defined before it.
    return make_subquery(sql_select(std::move(coordinator), {}, nullptr));
  }

  /// Calls `fn(slot)` on every subquery slot of `s`'s clauses, outermost
  /// first (a compiled SELECT has items, joins and WHERE only); `fn` may
  /// replace the slot and returns whether to descend into the subquery.
  template <typename F>
  static void visit_subqueries(db::sql::SelectStmt& s, F& fn) {
    const auto walk = [&fn](const auto& self, SqlExpr& e) -> void {
      if (e->kind == db::sql::Expr::Kind::kSubquery) {
        if (fn(e)) visit_subqueries(*e->subquery, fn);
        return;
      }
      if (e->lhs) self(self, e->lhs);
      if (e->rhs) self(self, e->rhs);
      for (SqlExpr& arg : e->args) self(self, arg);
    };
    for (db::sql::SelectItem& item : s.items) walk(walk, item.expr);
    for (db::sql::Join& join : s.joins) walk(walk, join.on);
    if (s.where) walk(walk, s.where);
  }

  /// The CSE pass: any subquery that occurs more than once in the statement
  /// (compile-time sharing via LET inlining, or duplication from the
  /// IIF/COALESCE null glue) is hoisted into a named CTE; reads of
  /// `part<K>` shards are not candidates. The statement and every CTE body
  /// read the outermost hoisted subqueries they contain. CTEs are defined
  /// shortest-rendered-first, and a contained subquery renders shorter than
  /// its container, so the parser's no-forward-reference rule holds by
  /// construction.
  ///
  /// Partition-union shards come first in the WITH clause: coordinator
  /// expressions (inline or hoisted into a cse CTE) reference the `part<K>`
  /// names. Shard bodies are already deduplicated by shape, and each keeps
  /// its own `PARTITION (K)` scan.
  void eliminate_common_subexpressions(db::sql::SelectStmt& stmt) {
    struct Shared {
      std::size_t count = 0;
      db::sql::SelectStmt* first = nullptr;  // into `stmt`
      std::string text;
    };
    std::unordered_map<const db::sql::Expr*, std::string> keys;
    std::map<std::string, Shared> seen;
    const auto count = [&](SqlExpr& e) {
      const auto& from = e->subquery->from;
      if (!from || part_names_.count(from->table) == 0) {
        std::string& key = keys[e.get()];
        db::sql::structural_key(*e->subquery, key);
        Shared& entry = seen[key];
        if (entry.count++ == 0) entry.first = e->subquery.get();
      }
      return true;
    };
    visit_subqueries(stmt, count);
    std::vector<std::pair<const std::string*, Shared*>> shared;
    for (auto& [key, entry] : seen) {
      if (entry.count < 2) continue;
      entry.text = render(*entry.first);
      shared.emplace_back(&key, &entry);
    }
    if (shared.empty() && group_order_.empty()) return;
    std::sort(shared.begin(), shared.end(), [](const auto& a, const auto& b) {
      const std::string& x = a.second->text;
      const std::string& y = b.second->text;
      return x.size() != y.size() ? x.size() < y.size() : x < y;
    });
    std::map<std::string, std::string> names;  // key -> CTE name
    for (std::size_t i = 0; i < shared.size(); ++i) {
      names.emplace(*shared[i].first, cte_name(support::cat("cse", i)));
    }
    const auto key_of = [&keys](const SqlExpr& e) {
      const auto cached = keys.find(e.get());
      return cached != keys.end() ? cached->second
                                  : db::sql::structural_key(*e->subquery);
    };
    // Reads the CTE in place of each outermost hoisted subquery of `s`: one
    // nested in a bigger hoisted subquery disappears with the bigger one.
    const auto read_ctes = [&](db::sql::SelectStmt& s) {
      const auto read = [&](SqlExpr& e) {
        const auto cte = names.find(key_of(e));
        if (cte == names.end()) return true;
        e = sql_cte_read("v", cte->second);
        return false;
      };
      visit_subqueries(s, read);
    };

    for (const PartitionGroup* group : group_order_) {
      for (std::size_t k = 0; k < group->names.size(); ++k) {
        std::unique_ptr<db::sql::SelectStmt> body = group->shape->clone();
        body->from->partition = k;
        for (const PartitionGroup::Column& column : group->columns) {
          body->items.push_back({column.fragment->clone(), column.alias,
                                 false, {}});
        }
        stmt.ctes.push_back({group->names[k], std::move(body), {}});
      }
    }
    // Bodies first, while every `first` still points into the unchanged
    // statement: the subquery with its single output column aliased.
    for (const auto& [key, entry] : shared) {
      std::unique_ptr<db::sql::SelectStmt> body = entry->first->clone();
      body->items.front().alias = "v";
      read_ctes(*body);
      stmt.ctes.push_back({names.at(*key), std::move(body), {}});
    }
    read_ctes(stmt);
  }

  // --- scalar position (no set binder in scope) ----------------------------

  SqlExpr scalar(const Expr& e,  // NOLINT(misc-no-recursion)
                 const EnvFrame* env) {
    using Kind = Expr::Kind;
    switch (e.kind) {
      case Kind::kIntLit:
        return make_literal(db::Value::integer(e.int_value));
      case Kind::kFloatLit:
        return make_literal(db::Value::real(e.float_value));
      case Kind::kBoolLit:
        return make_literal(db::Value::boolean(e.bool_value));
      case Kind::kStringLit:
        return make_literal(db::Value::text(e.string_value));
      case Kind::kNullLit:
        return make_literal(db::Value::null());

      case Kind::kIdent: {
        if (const Binding* bound = lookup(e.name, env)) {
          if (bound->kind == Binding::Kind::kArg) {
            return arg_param(bound->arg_index);
          }
          const DepthGuard guard(*this, e);
          return scalar(*bound->expr, bound->def_env);
        }
        if (const asl::ConstInfo* cst = model_->find_constant(e.name)) {
          return scalar(*cst->value, nullptr);
        }
        if (const auto member = model_->find_enum_member(e.name)) {
          return make_literal(db::Value::integer(member->second));
        }
        throw not_compilable(e, support::cat("unknown name '", e.name, "'"));
      }

      case Kind::kMember:
        return member_chain(e, env);

      case Kind::kCall:
        return inline_call(e, env);

      case Kind::kUnary:
        return make_unary(sql_operator(e.un_op), scalar(*e.lhs, env));

      case Kind::kBinary:
        return binary(e, env);

      case Kind::kAggregate: {
        if (!e.base) return scalar(*e.agg_value, env);  // identity form
        SetSpec sq = filtered_set(*e.base, e.name, e.filter.get(), env);
        const bool count = e.agg_kind == AggKind::kCount;
        // The value expression may add JOINs to sq; compile it before the
        // subquery is assembled.
        SqlExpr arg =
            count ? nullptr : over_binder(*e.agg_value, sq, false).sql;
        return aggregate_scalar(e.agg_kind, std::move(arg), sq);
      }

      case Kind::kUnique: {
        // As a bare scalar, UNIQUE yields the member's object id; the
        // engine's scalar-subquery cardinality rule enforces "exactly one"
        // (several members abort the statement, zero yields NULL — both
        // surface as not-applicable, as the interpreter's throw would).
        SetSpec sq = compile_set(*e.base, env);
        return make_subquery(std::move(sq).select(make_column("b", "id")));
      }
      case Kind::kExists: {
        SetSpec sq = compile_set(*e.base, env);
        return make_binary(SqlBinOp::kGt,
                           aggregate_scalar(AggKind::kCount, nullptr, sq),
                           make_literal(db::Value::integer(0)));
      }
      case Kind::kSize: {
        SetSpec sq = compile_set(*e.base, env);
        return aggregate_scalar(AggKind::kCount, nullptr, sq);
      }

      case Kind::kComprehension:
        throw not_compilable(e, "set comprehension in scalar position");
    }
    throw not_compilable(e, "unhandled expression kind");
  }

  SqlExpr binary(const Expr& e,  // NOLINT(misc-no-recursion)
                 const EnvFrame* env) {
    using asl::ast::BinOp;
    if (e.bin_op == BinOp::kEq || e.bin_op == BinOp::kNe) {
      // ASL equality is total over *legal* nulls (RtValue::equals: an unset
      // attribute equals only null, never an error), but a NULL produced by
      // a data gap — an empty UNIQUE/AVG/MIN/MAX subquery — marks a context
      // the interpreter would have thrown on. may_be_null() tells the two
      // apart per operand at compile time: legal-null operands get the
      // total-equality treatment, gap-only operands poison the result when
      // NULL. (Member chains conflate a mid-chain gap with a legally-unset
      // final attribute; they are treated as legal, the same residual
      // corner the LET probes document.) A repeated operand subtree binds
      // the same parameter at every position.
      const bool lhs_nulllit = e.lhs->kind == Expr::Kind::kNullLit;
      const bool rhs_nulllit = e.rhs->kind == Expr::Kind::kNullLit;
      SqlExpr equal;
      if (lhs_nulllit && rhs_nulllit) {
        equal = make_literal(db::Value::boolean(true));
      } else if (lhs_nulllit || rhs_nulllit) {
        const Expr& tested = lhs_nulllit ? *e.rhs : *e.lhs;
        SqlExpr tested_sql = scalar(tested, env);
        if (may_be_null(tested, env, 0)) {
          equal = make_is_null(std::move(tested_sql));
        } else {
          // NULL here is a gap, not a match for the null literal.
          equal = sql_call("IIF", make_is_null(std::move(tested_sql)),
                           make_literal(db::Value::null()),
                           make_literal(db::Value::boolean(false)));
        }
      } else {
        const bool lhs_legal = may_be_null(*e.lhs, env, 0);
        const bool rhs_legal = may_be_null(*e.rhs, env, 0);
        SqlExpr lhs = scalar(*e.lhs, env);
        SqlExpr rhs = scalar(*e.rhs, env);
        if (lhs_legal && rhs_legal) {
          equal = total_equality(std::move(lhs), std::move(rhs));
        } else if (!lhs_legal && !rhs_legal) {
          // NULL only arises from gaps: propagate it.
          equal = make_binary(SqlBinOp::kEq, std::move(lhs), std::move(rhs));
        } else {
          SqlExpr gap = (lhs_legal ? rhs : lhs)->clone();
          equal = sql_call(
              "IIF", make_is_null(std::move(gap)),
              make_literal(db::Value::null()),
              sql_call("COALESCE",
                       make_binary(SqlBinOp::kEq, std::move(lhs),
                                  std::move(rhs)),
                       make_literal(db::Value::boolean(false))));
        }
      }
      if (e.bin_op == BinOp::kNe) {
        equal = make_unary(db::sql::UnOp::kNot, std::move(equal));
      }
      return equal;
    }
    SqlExpr lhs = scalar(*e.lhs, env);
    SqlExpr rhs = scalar(*e.rhs, env);
    if (e.bin_op == BinOp::kAnd || e.bin_op == BinOp::kOr) {
      // ASL short-circuits left to right: a null (data-gap) LEFT operand is
      // an evaluation error, while the right operand is only consulted when
      // the left doesn't decide. SQL's three-valued logic would instead let
      // a dominating right operand absorb the gap (NULL OR TRUE = TRUE), so
      // a NULL left operand must poison the result explicitly.
      SqlExpr tested = make_is_null(lhs->clone());
      return sql_call("IIF", std::move(tested),
                      make_literal(db::Value::null()),
                      make_binary(sql_operator(e.bin_op), std::move(lhs),
                                  std::move(rhs)));
    }
    return make_binary(sql_operator(e.bin_op), std::move(lhs), std::move(rhs));
  }

  SqlExpr inline_call(const Expr& e,  // NOLINT(misc-no-recursion)
                      const EnvFrame* env) {
    const asl::FunctionInfo* fn = model_->find_function(e.name);
    if (fn == nullptr) {
      throw not_compilable(e, support::cat("unknown function '", e.name, "'"));
    }
    if (e.args.size() != fn->params.size()) {
      throw not_compilable(e, support::cat("function ", fn->name, " expects ",
                                           fn->params.size(), " arguments"));
    }
    const DepthGuard guard(*this, e);
    // The body sees only the parameters; each argument expression compiles
    // (where referenced) in the caller's scope.
    return scalar(*fn->body, call_env(*fn, e, env));
  }

  /// Follows LET/parameter aliases and inlines specification functions
  /// until `e` is neither; updates `e` and its scope `env` in place.
  void resolve(const Expr*& e, const EnvFrame*& env) {
    for (int hops = 1;; ++hops) {
      if (hops > kMaxInlineDepth) {
        throw not_compilable(*e, "alias chain too deep");
      }
      if (e->kind == Expr::Kind::kIdent) {
        const Binding* bound = lookup(e->name, env);
        if (bound == nullptr || bound->kind != Binding::Kind::kExpr) return;
        e = bound->expr;
        env = bound->def_env;
        continue;
      }
      if (e->kind != Expr::Kind::kCall) return;
      const asl::FunctionInfo* fn = model_->find_function(e->name);
      if (fn == nullptr || e->args.size() != fn->params.size()) {
        throw not_compilable(*e,
                             support::cat("unresolvable call '", e->name, "'"));
      }
      env = call_env(*fn, *e, env);
      e = fn->body;
    }
  }

  /// Member chain in scalar position. The root is resolved through LET
  /// aliases and function inlining; a UNIQUE root fuses into one subquery
  /// (`Summary(r,t).Incl` becomes `SELECT b.Incl FROM <set> WHERE ...`),
  /// any other object-valued root anchors a fresh per-class subquery.
  SqlExpr member_chain(const Expr& e,  // NOLINT(misc-no-recursion)
                       const EnvFrame* env) {
    std::vector<const Expr*> chain;
    const Expr* root = unroll_member_chain(e, chain);

    const EnvFrame* root_env = env;
    resolve(root, root_env);

    if (root->kind == Expr::Kind::kUnique) {
      SetSpec sq = compile_set(*root->base, root_env);
      SqlExpr column = join_path(sq, "b", sq.elem_class, chain);
      return make_subquery(std::move(sq).select(std::move(column)));
    }

    SqlExpr base = scalar(*root, root_env);
    if (root->type.kind != TypeKind::kClass) {
      throw not_compilable(e, support::cat("attribute access '.",
                                           chain.front()->name,
                                           "' on a non-object expression"));
    }
    SetSpec sq;
    sq.env = root_env;
    sq.from = sql_table(model_->class_info(root->type.id).name, "a0");
    sq.conjuncts.push_back(make_binary(SqlBinOp::kEq, make_column("a0", "id"),
                                      std::move(base)));
    SqlExpr column = join_path(sq, "a0", root->type.id, chain);
    return make_subquery(std::move(sq).select(std::move(column)));
  }

  static constexpr int kMaxInlineDepth = 16;
  /// Engine cap on LEAST/GREATEST arguments; MIN/MAX coordinators fold at
  /// most this many shards.
  static constexpr std::size_t kMaxFoldArgs = db::sql::kMaxScalarFnArgs;

  bool cse_;
  /// Layout metadata source (and rewrite telemetry sink) of the partition-
  /// union rewrite; null compiles layout-blind.
  db::Database* catalog_ = nullptr;
  bool count_rewrites_ = true;
  PlanBuild build_;
  std::deque<EnvFrame> frames_;
  int depth_ = 0;
  /// CSE bookkeeping: one recorded parameter per argument index.
  std::map<std::size_t, std::size_t> arg_params_;
  /// One shard group per distinct FROM/WHERE shape (keyed structurally):
  /// the shape, its `part<K>` CTE names, and the output columns every
  /// aggregate operator over the shape registered.
  struct PartitionGroup {
    struct Column {
      std::string alias;
      std::string key;  ///< structural key of `fragment`
      SqlExpr fragment;
    };
    std::unique_ptr<db::sql::SelectStmt> shape;  ///< FROM/WHERE, no items
    std::vector<std::string> names;
    std::vector<Column> columns;
  };
  std::map<std::string, PartitionGroup> partition_groups_;
  std::vector<const PartitionGroup*> group_order_;  // WITH-clause order
  std::set<std::string> part_names_;
  std::size_t part_counter_ = 0;
  std::set<std::string> counted_rewrites_;  // telemetry dedup by coordinator
};

}  // namespace

SqlEvaluator::SqlEvaluator(const asl::Model& model, db::Connection& conn,
                           SqlEvalMode mode, PlanCache* plan_cache,
                           bool common_subexpr)
    : model_(&model), conn_(&conn), mode_(mode),
      own_cache_(plan_cache == nullptr ? std::make_unique<PlanCache>(model)
                                       : nullptr),
      cache_(plan_cache == nullptr ? own_cache_.get() : plan_cache),
      cse_(common_subexpr), layout_(conn.layout_fingerprint()) {
  for (const asl::ClassInfo& cls : model.classes()) {
    if (cls.base) {
      throw EvalError(
          "the SQL strategy requires an inheritance-free data model "
          "(concrete class tables)");
    }
  }
  if (&cache_->model() != &model) {
    throw EvalError(
        "plan cache was compiled against a different model instance; plans "
        "hold pointers into that model's AST, so a cache is only valid for "
        "the exact Model object it was built from (reloading the same spec "
        "produces an equal fingerprint but a different AST)");
  }
}

SqlEvaluator::StatementEntry& SqlEvaluator::entry_for(
    const std::shared_ptr<const CompiledPlan>& plan) {
  auto it = statements_.find(plan.get());
  if (it == statements_.end()) {
    // The evaluator's own copy of the tree: execution annotates it, so
    // evaluators sharing a plan never share a statement.
    db::PreparedStatement stmt(
        db::sql::Statement(std::move(*plan->tree->clone())));
    it = statements_
             .emplace(plan.get(), StatementEntry{plan, std::move(stmt), {}})
             .first;
  }
  return it->second;
}

void SqlEvaluator::ensure_shard_analysis(db::PreparedStatement& stmt,
                                         ShardCteAnalysis& analysis) {
  if (analysis.done && analysis.layout == layout_) return;
  analysis = {};
  analysis.done = true;
  analysis.layout = layout_;
  auto* select = std::get_if<db::sql::SelectStmt>(&stmt.ast());
  if (select == nullptr) return;
  db::Database& db = conn_->database();

  // Whole-statement memo refs: every SELECT in the statement (outer + CTE
  // bodies, recursively) and every CTE name — a ref that matches a CTE is
  // derived data whose inputs are covered by walking that CTE's own body.
  std::vector<const db::sql::SelectStmt*> selects{select};
  std::vector<const std::string*> cte_names;
  for (std::size_t i = 0; i < selects.size(); ++i) {
    for (const db::sql::CommonTableExpr& cte : selects[i]->ctes) {
      cte_names.push_back(&cte.name);
      selects.push_back(cte.select.get());
    }
  }
  const auto is_cte_name = [&](const std::string& table) {
    for (const std::string* name : cte_names) {
      if (support::iequals(*name, table)) return true;
    }
    return false;
  };
  bool memoable = true;
  std::vector<const db::Table*> memo_refs;
  for (const db::sql::SelectStmt* s : selects) {
    db::sql::for_each_table_ref(*s, [&](const db::sql::TableRef& ref) {
      if (!memoable || is_cte_name(ref.table)) return;
      const db::Table* table = db.find_table(ref.table);
      if (table == nullptr) {
        memoable = false;  // a ref we can't pin to data: never memoize
        return;
      }
      memo_refs.push_back(table);
    });
  }
  if (memoable) analysis.memo_refs = std::move(memo_refs);

  // Cacheable CTEs: no nested CTEs, catalog tables only, at least one
  // partition-pinned scan, and the body renders back to SQL text (the
  // text is the fingerprint stem below).
  for (db::sql::CommonTableExpr& cte : select->ctes) {
    db::sql::SelectStmt& body = *cte.select;
    if (!body.ctes.empty()) continue;
    bool catalog_only = true;
    std::optional<std::size_t> pinned;
    std::vector<ShardCteAnalysis::Ref> refs;
    db::sql::for_each_table_ref(body, [&](const db::sql::TableRef& ref) {
      if (is_cte_name(ref.table)) {
        catalog_only = false;  // sibling-CTE input: not a pure catalog read
        return;
      }
      const db::Table* table = db.find_table(ref.table);
      if (table == nullptr) {
        catalog_only = false;
        return;
      }
      if (ref.partition) {
        if (!pinned) pinned = ref.partition;
        refs.push_back({table, ref.partition});
      } else {
        refs.push_back({table, std::nullopt});
      }
    });
    if (!catalog_only || !pinned) continue;
    ShardCteAnalysis::Cte entry;
    std::string text;
    if (!db::sql::render_select_sql(body, text, entry.order)) continue;
    // Fingerprint stem = database identity + layout + body text, fixed for
    // the analysis lifetime (both invalidate it). The identity term scopes
    // entries to one store; the layout term retires entries cleanly across
    // DDL re-partitioning. Per pass only the bound-value tail is appended.
    entry.stem = support::cat(reinterpret_cast<std::uintptr_t>(&db), "|",
                              layout_, "|", text);
    entry.body = &body;
    entry.name = &cte.name;
    entry.pinned = *pinned;
    entry.refs = std::move(refs);
    analysis.ctes.push_back(std::move(entry));
  }
}

bool SqlEvaluator::statement_memo_token(db::PreparedStatement& stmt,
                                        ShardCteAnalysis& analysis,
                                        std::string_view sql_text,
                                        const std::vector<db::Value>& values,
                                        std::string& fp,
                                        std::uint64_t& version) {
  ensure_shard_analysis(stmt, analysis);
  if (!analysis.memo_refs) return false;
  std::uint64_t token = 0;
  for (const db::Table* table : *analysis.memo_refs) {
    token += table->table_version();
  }
  if (analysis.memo_stem.empty()) {
    analysis.memo_stem =
        support::cat(reinterpret_cast<std::uintptr_t>(&conn_->database()), "|",
                     layout_, "|", sql_text);
  }
  fp = analysis.memo_stem;
  for (const db::Value& value : values) {
    fp += '|';
    fp += value.to_display();
  }
  version = token;
  return true;
}

std::optional<db::QueryResult> SqlEvaluator::try_execute_with_shard_cache(
    db::PreparedStatement& stmt, ShardCteAnalysis& analysis,
    const std::vector<db::Value>& values) {
  auto* select = std::get_if<db::sql::SelectStmt>(&stmt.ast());
  if (select == nullptr || select->ctes.empty()) return std::nullopt;
  db::Database& db = conn_->database();

  // The structural work — which CTEs are cacheable, their rendered text and
  // version references — is done once per statement (ensure_shard_analysis)
  // and reused every pass; only version tokens and the bound-value tail of
  // the fingerprint are per-pass.
  ensure_shard_analysis(stmt, analysis);
  if (analysis.ctes.empty()) return std::nullopt;

  struct Resolved {
    std::string_view name;
    std::shared_ptr<const db::QueryResult> rows;
  };
  std::vector<Resolved> resolved;
  resolved.reserve(analysis.ctes.size());
  std::uint64_t hits = 0;
  // Bound values render once per statement, not once per CTE — every CTE of
  // the statement binds from the same value vector (value formatting is the
  // expensive part of fingerprint assembly).
  std::vector<std::string> rendered(values.size());
  std::vector<bool> rendered_done(values.size(), false);
  std::string fp;
  for (const ShardCteAnalysis::Cte& cte : analysis.ctes) {
    // Version token of the data the body reads: the pinned partition's
    // version for `PARTITION (k)` scans, the whole-table version for every
    // other referenced table (a join side like Probe has no pinned
    // partition, so ANY change to it must invalidate the entry). Versions
    // are monotonic, so the sum moves whenever any component does.
    std::uint64_t version = 0;
    for (const ShardCteAnalysis::Ref& ref : cte.refs) {
      version += ref.partition ? ref.table->partition_version(*ref.partition)
                               : ref.table->table_version();
    }
    // Fingerprint = precomputed stem (database identity, layout, body text)
    // + bound values in text order.
    fp.assign(cte.stem);
    bool params_ok = true;
    for (const std::size_t index : cte.order) {
      if (index >= values.size()) {
        params_ok = false;
        break;
      }
      if (!rendered_done[index]) {
        rendered[index] = values[index].to_display();
        rendered_done[index] = true;
      }
      fp += '|';
      fp += rendered[index];
    }
    if (!params_ok) continue;
    ShardResultCache::Probe probe = shard_cache_->probe(fp, cte.pinned, version);
    std::shared_ptr<const db::QueryResult> rows = std::move(probe.rows);
    if (rows != nullptr) {
      ++hits;
    } else {
      db.count_shard_cache_misses();
      if (probe.stale) db.count_dirty_partitions_recomputed();
      rows = shard_cache_->store(fp, cte.pinned, version,
                                 db.execute_select_with(*cte.body, values, {}));
    }
    resolved.push_back({*cte.name, std::move(rows)});
  }
  if (resolved.empty()) return std::nullopt;
  if (hits > 0) db.count_shard_cache_hits(hits);

  // The residual merge executes with the resolved rows injected — one
  // charged statement, byte-identical to materializing the CTEs inline.
  std::vector<db::Database::InjectedCte> injected;
  injected.reserve(resolved.size());
  for (const Resolved& r : resolved) injected.push_back({r.name, r.rows.get()});
  return conn_->execute_with_ctes(*select, values, injected);
}

PropertyResult SqlEvaluator::evaluate_property(const asl::PropertyInfo& prop,
                                               std::vector<RtValue> args) {
  if (args.size() != prop.params.size()) {
    throw EvalError(support::cat("property ", prop.name, " expects ",
                                 prop.params.size(), " arguments, got ",
                                 args.size()));
  }
  // Re-read the layout per evaluation: compilation reads the LIVE catalog,
  // so the cache key must describe the same moment — a DDL re-partition
  // between evaluations must not label a partition-aware plan with the
  // construction-time fingerprint (and thereby replay it against a
  // different layout from another evaluator).
  layout_ = conn_->layout_fingerprint();
  if (mode_ == SqlEvalMode::kWholeCondition) {
    try {
      return evaluate_whole(prop, args);
    } catch (const EvalError&) {
      // The property does not compile into one statement, or the statement
      // failed structurally (e.g. a UNIQUE set with several members aborts
      // the scalar subquery). Re-evaluate site by site: that path is the
      // interpreter over SQL data, so results stay identical — only the
      // statement count grows for this context.
      ++stats_.whole_fallbacks;
    }
  }
  return evaluate_sitewise(prop, std::move(args));
}

PropertyResult SqlEvaluator::evaluate_whole(const asl::PropertyInfo& prop,
                                            const std::vector<RtValue>& args) {
  const int kind =
      cse_ ? kWholeConditionCsePlanKind : kWholeConditionPlainPlanKind;
  std::shared_ptr<const CompiledPlan> plan =
      cache_->find(prop.name, &prop, kind, layout_);
  if (plan != nullptr) {
    ++stats_.plan_cache_hits;
    cache_->record(true);
  } else {
    // The catalog makes the compiler layout-aware (partition-union
    // rewrite); the plain ablation compiles layout-blind on purpose.
    WholeConditionCompiler compiler(*model_, prop, cse_,
                                    cse_ ? &conn_->database() : nullptr);
    plan = cache_->insert(prop.name, &prop, kind, layout_,
                          std::make_shared<CompiledPlan>(compiler.compile()));
    ++stats_.plan_cache_misses;
    cache_->record(false);
  }

  // Bind: whole-condition parameters are all caller-provided property
  // arguments, so binding is a straight table lookup per context. The
  // compiled text assumes no argument is null (a set filter compares an
  // argument with a plain `=`), so a null argument goes site-wise.
  std::vector<db::Value> values;
  values.reserve(plan->params.size());
  for (const CompiledPlan::Param& param : plan->params) {
    if (param.slot != CompiledPlan::Slot::kProvided) {
      throw EvalError("whole-condition plan has a non-provided parameter");
    }
    if (args[param.provided_index].is_null()) {
      throw EvalError("whole-condition: null property argument");
    }
    values.push_back(to_db_value(args[param.provided_index],
                                 prop.params[param.provided_index].second));
  }

  ++stats_.sql_queries;
  const db::QueryResult result = [&] {
    StatementEntry& entry = entry_for(plan);
    // Incremental path: with a shard cache attached, the statement-level
    // memo is consulted first — when every table the statement reads is at
    // the version it last ran against, the stored result is returned and
    // the statement never executes. Otherwise partition-pinned CTEs resolve
    // through the cache (only dirty partitions recompute) and the merged
    // result refreshes the memo. Falls through to the plain path when the
    // statement has nothing cacheable.
    if (shard_cache_ != nullptr) {
      std::string memo_fp;
      std::uint64_t memo_version = 0;
      const bool memoable =
          statement_memo_token(entry.stmt, entry.shard, plan->sql, values,
                               memo_fp, memo_version);
      if (memoable) {
        if (std::shared_ptr<const db::QueryResult> rows =
                shard_cache_->probe_statement(memo_fp, memo_version)) {
          conn_->database().count_statements_memoized();
          return db::QueryResult(*rows);
        }
      }
      std::optional<db::QueryResult> cached =
          try_execute_with_shard_cache(entry.stmt, entry.shard, values);
      db::QueryResult merged =
          cached ? std::move(*cached) : conn_->execute(entry.stmt, values);
      if (memoable) {
        shard_cache_->store_statement(memo_fp, memo_version,
                                      db::QueryResult(merged));
      }
      return merged;
    }
    return conn_->execute(entry.stmt, values);
  }();

  // Glue: map the one result row back onto the property contract. Column
  // layout is [LET probes | conditions | confidence arms | severity arms],
  // with the probe count carried in the plan (only LETs whose null could
  // never be a legal value are probed).
  if (result.row_count() != 1) {
    throw EvalError("whole-condition statement must yield exactly one row");
  }
  const db::Row& row = result.rows.front();
  const std::size_t lets = plan->elem_class;
  const std::size_t conds = prop.conditions.size();
  const std::size_t confs = prop.confidence.size();
  if (row.size() != lets + conds + confs + prop.severity.size()) {
    throw EvalError("whole-condition column layout mismatch");
  }

  // A NULL LET probe is a data gap: the interpreter's eager LET evaluation
  // would have thrown before looking at any condition.
  for (std::size_t i = 0; i < lets; ++i) {
    if (row[i].is_null()) {
      return PropertyResult::not_applicable(
          "whole-condition: a LET binding hit a data gap");
    }
  }
  // A NULL in a considered arm is a data gap; NULLs in skipped arms never
  // matter — exactly the arms the interpreter would (not) have evaluated.
  try {
    return asl::decide_property(
        prop,
        [&](std::size_t i) {
          const db::Value& v = row[lets + i];
          if (v.is_null()) {
            throw DataGap(support::cat("whole-condition: condition ",
                                       asl::condition_label(prop, i),
                                       " hit a data gap"));
          }
          return v.as_bool();
        },
        [&](bool severity, std::size_t i) {
          const db::Value& v = row[lets + conds + (severity ? confs : 0) + i];
          if (v.is_null()) {
            throw DataGap(support::cat("whole-condition: a ",
                                       severity ? "severity" : "confidence",
                                       " arm hit a data gap"));
          }
          return v.as_double();
        });
  } catch (const DataGap& gap) {
    return PropertyResult::not_applicable(gap.what());
  }
}

std::string SqlEvaluator::explain_whole_condition(
    const asl::PropertyInfo& prop) {
  // Diagnostic-only compilation: layout-aware (the shown SQL must match
  // what evaluation would run) but without rewrite telemetry.
  WholeConditionCompiler compiler(*model_, prop, cse_,
                                  cse_ ? &conn_->database() : nullptr,
                                  /*count_rewrites=*/false);
  std::string sql = compiler.compile().sql;
  // Fused-eligibility notes per statement (and per WITH entry): which parts
  // of the compiled SQL the columnar fused evaluator — including the
  // expression VM's compiled WHERE/aggregate programs — would take, and why
  // the rest stays on the row path. Analysis only; placeholders are
  // assumed NULL.
  for (const auto& note : conn_->database().explain_fused(sql)) {
    sql += support::cat("\n-- fused: ", note.statement, ": ", note.verdict);
  }
  return sql;
}

PropertyResult SqlEvaluator::evaluate_sitewise(const asl::PropertyInfo& prop,
                                               std::vector<RtValue> args) {
  SqlExprEval data(*this, &prop);
  return data.interpreter().evaluate_property(prop, std::move(args));
}

std::string SqlEvaluator::explain_set(const Expr& set_expr,
                                      const asl::PropertyInfo& prop,
                                      const std::vector<RtValue>& args) {
  SqlExprEval data(*this);  // no property context: plans stay untouched
  asl::Env env;
  for (std::size_t i = 0; i < args.size() && i < prop.params.size(); ++i) {
    env.push(prop.params[i].first, args[i]);
  }
  return data.explain(set_expr, env);
}

}  // namespace kojak::cosy

#ifndef KOJAK_COSY_SQL_EVAL_HPP
#define KOJAK_COSY_SQL_EVAL_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "asl/interp.hpp"
#include "asl/model.hpp"
#include "cosy/eval_stats.hpp"
#include "db/connection.hpp"

namespace kojak::cosy {

class ShardResultCache;

/// How database-backed property evaluation distributes work (§5):
///  * kPushdown       — set operations compile to SQL; the database filters
///                      and aggregates, the client sees a handful of scalars;
///  * kClientSide     — the paper's slow path: the client fetches every data
///                      component (junction ids, then each attribute record
///                      by record) and evaluates all filters and aggregates
///                      itself;
///  * kWholeCondition — the paper's §6 future work: the *entire* property
///                      surface (LETs, every condition, every confidence and
///                      severity arm) compiles into one parameterized
///                      FROM-less SELECT of scalar subqueries, cutting the
///                      per-context round trips to a single statement.
/// Prefer naming an evaluation path through the EvalBackend registry
/// (eval_backend.hpp); this enum is the evaluator-internal selector.
enum class SqlEvalMode { kPushdown, kClientSide, kWholeCondition };

/// One ASL set-expression site translated to a reusable SELECT: the engine's
/// SQL tree with `?` placeholders numbered in text order, its rendered text,
/// plus the binding recipe for each placeholder. Context-dependent scalars
/// (property arguments, LET values, uncorrelated nested aggregates) become
/// bound parameters instead of inline literals, so the translation happens
/// once per property instead of once per (run, context).
struct CompiledPlan {
  enum class Slot : std::uint8_t {
    kValue,     ///< re-evaluate `expr`, bind its value to a `?`
    kObjectId,  ///< like kValue but an object reference; null throws
    kProvided,  ///< caller-supplied value (already computed), bound to a `?`
    kAssertNull,  ///< no placeholder: compiled into an IS [NOT] NULL / NULL
                  ///< form; `expr` must still be null at bind time
  };
  struct Param {
    const asl::ast::Expr* expr = nullptr;  ///< null for kProvided
    Slot slot = Slot::kValue;
    std::size_t provided_index = 0;  ///< kProvided: index into caller values
    std::string null_error;          ///< kObjectId: message when null
  };
  /// The statement, exactly the parse of `sql`; evaluators execute clones.
  std::unique_ptr<const db::sql::SelectStmt> tree;
  std::string sql;  ///< render_select_sql of `tree` (explain, memo key)
  std::vector<Param> params;  ///< placeholder params first, in text order
  /// Element class of set-returning plans (drives result typing on hits).
  std::uint32_t elem_class = 0;
};

/// Thread-safe cache of compiled plans, keyed on (property, site) within
/// one model. Share one instance across the evaluators of a batch (they run
/// concurrently on pooled connections); the per-property translation then
/// happens once for the whole batch. Plans hold pointers into the model's
/// AST, so the cache is pinned to the Model *instance* it was built from
/// and must not outlive it: attaching an evaluator over any other Model
/// object is rejected — even one reloaded from the same documents, whose
/// content fingerprint would match but whose AST lives elsewhere.
///
/// The cache has no cap and needs none: a plan is keyed (property, AST
/// site, kind, layout), so the model and the table layouts seen fix how
/// many plans there can be.
class PlanCache {
 public:
  explicit PlanCache(const asl::Model& model);

  [[nodiscard]] const asl::Model& model() const noexcept { return *model_; }
  /// Content hash of the model the plans were compiled against (telemetry
  /// and cross-process comparisons; instance identity is what's enforced).
  [[nodiscard]] std::uint64_t model_fingerprint() const noexcept {
    return fingerprint_;
  }

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    [[nodiscard]] double hit_rate() const noexcept {
      const double total = static_cast<double>(hits + misses);
      return total == 0 ? 0.0 : static_cast<double>(hits) / total;
    }
  };
  [[nodiscard]] Stats stats() const;
  /// Number of distinct compiled plans.
  [[nodiscard]] std::size_t size() const;
  /// The plans, in key order (tests and explain flows).
  [[nodiscard]] std::vector<std::shared_ptr<const CompiledPlan>> plans() const;

  // Internal API used by SqlEvaluator. `layout` is the
  // db::Database::layout_fingerprint() of the database the plan was (or
  // will be) compiled against: compiled SQL is layout-dependent (the
  // partition-union rewrite reads partition specs), so a plan compiled for
  // one physical layout must never be replayed against another — changing
  // SchemaOptions::region_timing_partitions invalidates by key, not by
  // luck.
  [[nodiscard]] std::shared_ptr<const CompiledPlan> find(
      std::string_view property, const void* site, int kind,
      std::uint64_t layout) const;
  /// Inserts unless the site is already cached; returns the canonical plan
  /// (the first one in wins, so racing workers converge on one instance).
  [[nodiscard]] std::shared_ptr<const CompiledPlan> insert(
      std::string_view property, const void* site, int kind,
      std::uint64_t layout, std::shared_ptr<const CompiledPlan> plan);
  void record(bool hit);

 private:
  struct Key {
    std::string property;
    const void* site = nullptr;
    int kind = 0;
    std::uint64_t layout = 0;  ///< table-layout fingerprint of the database
    friend bool operator<(const Key& a, const Key& b) {
      if (a.property != b.property) return a.property < b.property;
      if (a.site != b.site) return a.site < b.site;
      if (a.kind != b.kind) return a.kind < b.kind;
      return a.layout < b.layout;
    }
  };

  const asl::Model* model_;
  std::uint64_t fingerprint_;
  mutable std::mutex mutex_;
  std::map<Key, std::shared_ptr<const CompiledPlan>> plans_;
  Stats stats_;
};

/// Database-backed evaluator of ASL properties. In kPushdown mode this is
/// the paper's §5 claim made executable — "translate the conditions of
/// performance properties entirely into SQL queries instead of first
/// accessing the data components and evaluating the expressions in the
/// analysis tool" — and its automation is the §6 future-work item. In
/// kClientSide mode it is exactly that slow alternative, kept as the
/// measured baseline of experiment T3.
///
/// Both site-wise modes run asl::Interpreter, the one ASL evaluator, over
/// data read with SQL: each member read is an attribute or junction fetch,
/// and in kPushdown each set node (comprehension, aggregate over a set,
/// UNIQUE, EXISTS, SIZE) is one set query. kClientSide answers no set node,
/// so the interpreter loops over the fetched members itself.
/// kWholeCondition compiles the whole property into one statement and
/// re-evaluates a context site-wise when that statement cannot serve it.
///
/// Restrictions (checked):
///  * the data model must be inheritance-free (concrete tables per class;
///    the constructor throws EvalError),
///  * in kPushdown, set expressions must be syntactic member chains or
///    comprehensions over one, and expressions over a set's binder are
///    limited to member chains and scalar glue: any other site throws a
///    located support::CompileLimit, never a not-applicable result.
/// The COSY model and property suites satisfy both.
///
/// An evaluator instance is not thread-safe (it owns a connection and its
/// prepared statements); run one evaluator per worker. Every evaluator
/// caches its plans: in the PlanCache it is given, which *is* shared across
/// workers, or else in one of its own.
class SqlEvaluator {
 public:
  /// `common_subexpr` (kWholeCondition only): run the common-subexpression
  /// pass over the compiled statement — structurally identical scalar
  /// subqueries are hoisted into named CTEs (`WITH cse0 AS (...) SELECT
  /// ...`) referenced once each, and repeated argument parameters collapse
  /// into one `?` per occurrence in the deduplicated statement. Off reproduces
  /// the plain one-statement compilation (the bench ablation baseline).
  /// Without `plan_cache` the evaluator keeps its plans in a cache of its
  /// own.
  SqlEvaluator(const asl::Model& model, db::Connection& conn,
               SqlEvalMode mode = SqlEvalMode::kPushdown,
               PlanCache* plan_cache = nullptr, bool common_subexpr = true);

  /// Evaluates a property for a context; arguments are RtValues whose
  /// object references are database ids. Site-wise this is
  /// asl::Interpreter::evaluate_property over SQL data; whole-condition maps
  /// its one result row through the same asl::decide_property contract
  /// (differential tests pin every mode to the store-backed interpreter).
  [[nodiscard]] asl::PropertyResult evaluate_property(
      const asl::PropertyInfo& prop, std::vector<asl::RtValue> args);

  /// This evaluator's accounting so far: SQL statements issued, plan-cache
  /// traffic and, kWholeCondition only, contexts that could not run as one
  /// statement and were re-evaluated site-by-site (results stay
  /// interpreter-identical; the COSY suites compile without fallbacks,
  /// which tests assert).
  [[nodiscard]] EvalStats stats() const noexcept { return stats_; }
  /// Table-layout fingerprint the evaluator is currently keying plans
  /// under: snapshotted at construction and refreshed at the start of every
  /// evaluate_property (compilation reads the live catalog, so the key must
  /// describe the same moment even if DDL re-partitioned a table since
  /// construction).
  [[nodiscard]] std::uint64_t layout_fingerprint() const noexcept {
    return layout_;
  }

  /// Attaches an incremental shard-result cache: whole-condition statements
  /// resolve their partition-pinned `part<K>` CTEs through the cache,
  /// recomputing only partitions whose version token moved since the last
  /// pass, and the residual merge executes with the cached rows injected
  /// (byte-identical to a cold run; still one charged statement). The cache
  /// must be used against a single Database and must outlive the evaluator.
  void set_shard_cache(ShardResultCache* cache) noexcept {
    shard_cache_ = cache;
  }

  /// Compiles a property's entire condition/confidence/severity surface into
  /// the single whole-condition statement without executing it (tests and
  /// --explain flows). Throws EvalError naming the first blocker when the
  /// property is not compilable: the compiler is the one judge of that.
  [[nodiscard]] std::string explain_whole_condition(
      const asl::PropertyInfo& prop);

  /// Compiles the given set expression to its SQL text without executing it
  /// (exposed for tests and the --explain flows of the examples).
  [[nodiscard]] std::string explain_set(const asl::ast::Expr& set_expr,
                                        const asl::PropertyInfo& prop,
                                        const std::vector<asl::RtValue>& args);

 private:
  friend class SqlExprEval;

  /// Once-per-statement analysis for the incremental (shard cache) path:
  /// which CTE bodies are cacheable, their rendered text, parameter order,
  /// pinned partition and version references — everything about the probe
  /// that does not change between passes. Rebuilt when the database layout
  /// fingerprint moves (a DDL re-partition invalidates pinned indices and
  /// cached Table pointers).
  struct ShardCteAnalysis {
    bool done = false;
    std::uint64_t layout = 0;
    struct Ref {
      const db::Table* table = nullptr;
      std::optional<std::size_t> partition;  ///< pinned scan, else whole-table
    };
    struct Cte {
      db::sql::SelectStmt* body = nullptr;
      const std::string* name = nullptr;  ///< points into the statement AST
      std::string stem;  ///< fingerprint prefix: db identity|layout|body text
      std::vector<std::size_t> order;  ///< param indices in text order
      std::size_t pinned = 0;
      std::vector<Ref> refs;
    };
    std::vector<Cte> ctes;  ///< cacheable CTEs only
    /// Whole-statement memo: every catalog table the statement reads
    /// (nullopt when some ref cannot be pinned to data — never memoize).
    std::optional<std::vector<const db::Table*>> memo_refs;
    /// Memo fingerprint prefix (db identity|layout|statement text), built on
    /// first use — the statement text never changes for a given analysis.
    std::string memo_stem;
  };

  struct StatementEntry {
    std::shared_ptr<const CompiledPlan> plan;  // keeps the key alive
    db::PreparedStatement stmt;
    ShardCteAnalysis shard;
  };

  /// Prepared statement for a cached plan, cloned from its tree once per
  /// evaluator (the engine allows concurrent execution of *distinct*
  /// prepared statements, so statements are per-evaluator, plans shared).
  StatementEntry& entry_for(const std::shared_ptr<const CompiledPlan>& plan);

  /// The interpreter over this evaluator's SQL data (pushdown /
  /// client-side), also the fallback of the whole-condition mode.
  [[nodiscard]] asl::PropertyResult evaluate_sitewise(
      const asl::PropertyInfo& prop, std::vector<asl::RtValue> args);
  /// One-statement whole-condition evaluation; throws EvalError when the
  /// property does not compile or the statement fails structurally.
  [[nodiscard]] asl::PropertyResult evaluate_whole(
      const asl::PropertyInfo& prop, const std::vector<asl::RtValue>& args);
  /// Incremental execution of a whole-condition statement through the
  /// attached ShardResultCache: partition-pinned `part<K>` CTEs are served
  /// from cache when their version token is unchanged, recomputed (and
  /// re-cached) when dirty, and the residual merge runs with the rows
  /// injected. Returns nullopt when the statement has no cacheable CTE —
  /// the caller then executes it on the plain path.
  [[nodiscard]] std::optional<db::QueryResult> try_execute_with_shard_cache(
      db::PreparedStatement& stmt, ShardCteAnalysis& analysis,
      const std::vector<db::Value>& values);
  /// (Re)builds `analysis` for the statement when absent or compiled against
  /// a different layout fingerprint.
  void ensure_shard_analysis(db::PreparedStatement& stmt,
                             ShardCteAnalysis& analysis);
  /// Whole-statement memo token: true when every table the statement reads
  /// (outer select, every CTE body, recursively) resolves in the catalog.
  /// `fp` then identifies the computation (database identity, layout,
  /// statement text, bound values) and `version` sums the whole-table
  /// versions of everything read — unchanged token means the stored result
  /// is still exact and the statement need not run at all.
  [[nodiscard]] bool statement_memo_token(db::PreparedStatement& stmt,
                                          ShardCteAnalysis& analysis,
                                          std::string_view sql_text,
                                          const std::vector<db::Value>& values,
                                          std::string& fp,
                                          std::uint64_t& version);

  const asl::Model* model_;
  db::Connection* conn_;
  ShardResultCache* shard_cache_ = nullptr;
  SqlEvalMode mode_;
  std::unique_ptr<PlanCache> own_cache_;  ///< set when none was given
  PlanCache* cache_;                      ///< never null
  bool cse_;
  std::uint64_t layout_ = 0;  ///< database layout fingerprint (plan keying)
  EvalStats stats_;
  std::map<const CompiledPlan*, StatementEntry> statements_;
};

}  // namespace kojak::cosy

#endif  // KOJAK_COSY_SQL_EVAL_HPP

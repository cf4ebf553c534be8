#include "cosy/eval_backend.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "cosy/db_import.hpp"
#include "cosy/sql_eval.hpp"
#include "db/connection.hpp"
#include "db/connection_pool.hpp"
#include "support/error.hpp"
#include "support/str.hpp"
#include "support/thread_pool.hpp"

namespace kojak::cosy {

using support::EvalError;

void EvalBackend::prepare(const asl::Model& model, asl::ObjectId run) {
  (void)run;
  if (&model != deps_.model) {
    throw EvalError(support::cat(
        "backend '", name(),
        "' was created for a different model instance; create one backend "
        "per (model, analysis)"));
  }
}

void EvalBackend::evaluate_all(std::span<const EvalRequest> requests,
                               std::span<asl::PropertyResult> results) {
  for (std::size_t i = 0; i < requests.size(); ++i) {
    results[i] = evaluate(*requests[i].property, *requests[i].args);
  }
}

namespace {

// ---------------------------------------------------------------------------
// Interpreter family

class InterpreterBackend : public EvalBackend {
 public:
  explicit InterpreterBackend(const EvalBackendDeps& deps)
      : EvalBackend(deps), interp_(*deps.model, *deps.store) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "interpreter";
  }

  [[nodiscard]] asl::PropertyResult evaluate(
      const asl::PropertyInfo& property,
      const std::vector<asl::RtValue>& args) override {
    return interp_.evaluate_property(property, args);
  }

 protected:
  const asl::Interpreter interp_;
};

/// Runs body(i, worker) for i in [0, n) on a private pool of
/// min(workers, n) threads, spawned only when that is more than one;
/// otherwise the indices run inline on the caller.
void sharded_for(
    std::size_t n, std::size_t workers,
    const std::function<void(std::size_t, std::size_t)>& body) {
  workers = std::min(workers, n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i, 0);
    return;
  }
  support::ThreadPool pool(workers);
  pool.parallel_for(n, workers, body);
}

/// The interpreter with the ROADMAP's intra-run parallelism: workers claim
/// the contexts of one huge run one at a time, and each writes its result
/// into the request's slot. The reduction order is the request order
/// regardless of scheduling, so reports are byte-identical for any thread
/// count.
class ShardedInterpreterBackend final : public InterpreterBackend {
 public:
  explicit ShardedInterpreterBackend(const EvalBackendDeps& deps)
      : InterpreterBackend(deps), threads_(deps.threads) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "interpreter-sharded";
  }

  void evaluate_all(std::span<const EvalRequest> requests,
                    std::span<asl::PropertyResult> results) override {
    const auto evaluate_one = [&](std::size_t i, std::size_t) {
      results[i] = interp_.evaluate_property(*requests[i].property,
                                             *requests[i].args);
    };
    if (threads_ == 0) {
      // No explicit worker count: shard on the long-lived process pool
      // instead of spawning threads per analysis.
      support::global_pool().parallel_for(requests.size(), 0, evaluate_one);
    } else {
      // An explicit count gets its own pool: tests (and callers embedding
      // the backend under an already-saturated scheduler) rely on exactly
      // this many workers, which the hardware-sized global pool cannot
      // promise.
      sharded_for(requests.size(), threads_, evaluate_one);
    }
  }

 private:
  std::size_t threads_;
};

// ---------------------------------------------------------------------------
// SQL family

class SqlBackend final : public EvalBackend {
 public:
  SqlBackend(std::string_view name, SqlEvalMode mode,
             const EvalBackendDeps& deps, bool common_subexpr = true)
      : EvalBackend(deps),
        name_(name),
        eval_(*deps.model, *deps.conn, mode, deps.plan_cache, common_subexpr) {
    eval_.set_shard_cache(deps.shard_cache);
  }

  [[nodiscard]] std::string_view name() const noexcept override {
    return name_;
  }

  [[nodiscard]] asl::PropertyResult evaluate(
      const asl::PropertyInfo& property,
      const std::vector<asl::RtValue>& args) override {
    return eval_.evaluate_property(property, args);
  }

  [[nodiscard]] EvalStats stats() const override { return eval_.stats(); }

 private:
  std::string_view name_;  // points at the registry key (stable)
  SqlEvaluator eval_;
};

/// The ROADMAP's sharded *SQL* backend: workers claim one run's contexts
/// one at a time, and each worker leases its own session from the
/// db::ConnectionPool and drives a whole-condition (+CSE) SqlEvaluator over
/// the contexts it claims. Without a pool it runs serially on `conn`.
/// Results land in their request slots, so the reduction is the same
/// deterministic index order `interpreter-sharded` uses — reports are
/// byte-identical to `sql-whole-condition` for any thread count. The shared
/// PlanCache (when supplied) means each property still compiles once per
/// analysis, not once per shard.
class ShardedSqlBackend final : public EvalBackend {
 public:
  explicit ShardedSqlBackend(const EvalBackendDeps& deps)
      : EvalBackend(deps), threads_(deps.threads) {
    if (deps.plan_cache != nullptr &&
        &deps.plan_cache->model() != deps.model) {
      // Same instance-pinning guard SqlEvaluator enforces, surfaced at
      // creation instead of first shard evaluation.
      throw EvalError(
          "plan cache was compiled against a different model instance; "
          "plans hold pointers into that model's AST");
    }
  }

  [[nodiscard]] std::string_view name() const noexcept override {
    return "sql-sharded";
  }

  [[nodiscard]] asl::PropertyResult evaluate(
      const asl::PropertyInfo& property,
      const std::vector<asl::RtValue>& args) override {
    const EvalRequest request{&property, &args};
    asl::PropertyResult result;
    evaluate_all({&request, 1}, {&result, 1});
    return result;
  }

  void evaluate_all(std::span<const EvalRequest> requests,
                    std::span<asl::PropertyResult> results) override {
    const std::size_t n = requests.size();
    if (deps().pool == nullptr) {
      for (std::size_t i = 0; i < n; ++i) {
        results[i] = primary().evaluate_property(*requests[i].property,
                                                 *requests[i].args);
      }
      return;
    }
    // Never ask for more leases than the pool can hand out at once: a
    // worker holds its session until the join, so oversubscription would
    // serialize on acquire() without buying anything.
    const std::size_t workers = std::min(
        {threads_ != 0 ? threads_
                       : std::max<std::size_t>(
                             1, std::thread::hardware_concurrency()),
         deps().pool->capacity(), n});
    // Each worker leases its session and builds its evaluator at its first
    // claimed index. Evaluators are declared after the leases, so they are
    // destroyed before their sessions return to the pool.
    std::vector<db::ConnectionPool::Lease> leases(workers);
    std::vector<std::optional<SqlEvaluator>> evals(workers);
    sharded_for(n, workers, [&](std::size_t i, std::size_t worker) {
      std::optional<SqlEvaluator>& eval = evals[worker];
      if (!eval) {
        leases[worker] = deps().pool->acquire();
        eval.emplace(*deps().model, *leases[worker],
                     SqlEvalMode::kWholeCondition, deps().plan_cache);
        eval->set_shard_cache(deps().shard_cache);
      }
      results[i] = eval->evaluate_property(*requests[i].property,
                                           *requests[i].args);
    });
    for (const std::optional<SqlEvaluator>& eval : evals) {
      if (eval) stats_ += eval->stats();
    }
  }

  [[nodiscard]] EvalStats stats() const override {
    EvalStats out = stats_;
    if (primary_) out += primary_->stats();
    return out;
  }

 private:
  SqlEvaluator& primary() {
    if (!primary_) {
      primary_.emplace(*deps().model, *deps().conn,
                       SqlEvalMode::kWholeCondition, deps().plan_cache);
      primary_->set_shard_cache(deps().shard_cache);
    }
    return *primary_;
  }

  std::size_t threads_;
  std::optional<SqlEvaluator> primary_;  // deps().conn-backed, serial path
  EvalStats stats_;  // summed from the pooled evaluators after each join
};

/// One bulk transfer of every table in prepare(), then in-memory
/// interpretation (the batch ablation point of the strategy comparison).
class BulkFetchBackend final : public EvalBackend {
 public:
  explicit BulkFetchBackend(const EvalBackendDeps& deps) : EvalBackend(deps) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "bulk-fetch";
  }

  void prepare(const asl::Model& model, asl::ObjectId run) override {
    EvalBackend::prepare(model, run);
    db::Connection& conn = *deps().conn;
    const std::uint64_t before = conn.statements_executed();
    fetched_.emplace(rebuild_store(conn, model));
    queries_ = conn.statements_executed() - before;
    interp_.emplace(model, *fetched_);
  }

  [[nodiscard]] asl::PropertyResult evaluate(
      const asl::PropertyInfo& property,
      const std::vector<asl::RtValue>& args) override {
    if (!interp_) {
      throw EvalError("bulk-fetch backend evaluated before prepare()");
    }
    return interp_->evaluate_property(property, args);
  }

  [[nodiscard]] EvalStats stats() const override {
    return {.sql_queries = queries_};
  }

 private:
  std::optional<asl::ObjectStore> fetched_;
  std::optional<asl::Interpreter> interp_;
  std::uint64_t queries_ = 0;
};

// ---------------------------------------------------------------------------
// Registry

struct Registry {
  std::mutex mutex;
  std::map<std::string, EvalBackend::Registration, std::less<>> entries;
};

Registry& registry() {
  static Registry instance;
  static const bool initialized = [] {
    Registry& r = instance;
    const auto add = [&r](EvalBackend::Registration reg) {
      std::string key = reg.name;
      r.entries.emplace(std::move(key), std::move(reg));
    };
    add({"interpreter", "tree-walking evaluation over the in-memory store",
         /*needs_store=*/true, /*needs_connection=*/false,
         [](const EvalBackendDeps& deps) {
           return std::make_unique<InterpreterBackend>(deps);
         }});
    add({"interpreter-sharded",
         "interpreter with the context list sharded across a thread pool "
         "(deterministic reduction order)",
         /*needs_store=*/true, /*needs_connection=*/false,
         [](const EvalBackendDeps& deps) {
           return std::make_unique<ShardedInterpreterBackend>(deps);
         }});
    add({"sql-pushdown",
         "set operations compile to SQL; scalar glue stays client-side",
         /*needs_store=*/false, /*needs_connection=*/true,
         [](const EvalBackendDeps& deps) {
           return std::make_unique<SqlBackend>(
               "sql-pushdown", SqlEvalMode::kPushdown, deps);
         }});
    add({"sql-whole-condition",
         "entire condition + confidence + severity compile into one "
         "parameterized statement per (property, context) with common "
         "subexpressions hoisted into CTEs and full-table aggregates over "
         "partitioned tables rewritten into per-partition CTE unions the "
         "engine materializes in parallel — paper §6",
         /*needs_store=*/false, /*needs_connection=*/true,
         [](const EvalBackendDeps& deps) {
           return std::make_unique<SqlBackend>(
               "sql-whole-condition", SqlEvalMode::kWholeCondition, deps);
         }});
    add({"sql-whole-condition-plain",
         "whole-condition compilation without the CSE/CTE pass (every "
         "repeated subexpression re-executes) and layout-blind (no "
         "partition-union rewrite); the ablation baseline",
         /*needs_store=*/false, /*needs_connection=*/true,
         [](const EvalBackendDeps& deps) {
           return std::make_unique<SqlBackend>(
               "sql-whole-condition-plain", SqlEvalMode::kWholeCondition,
               deps, /*common_subexpr=*/false);
         }});
    add({"sql-sharded",
         "whole-condition evaluation (incl. the partition-union rewrite) "
         "with one run's context list sharded across ConnectionPool "
         "sessions (deterministic reduction)",
         /*needs_store=*/false, /*needs_connection=*/true,
         [](const EvalBackendDeps& deps) {
           return std::make_unique<ShardedSqlBackend>(deps);
         },
         /*pool_satisfies_connection=*/true});
    add({"client-fetch",
         "record-at-a-time component fetching with all evaluation in the "
         "tool (the paper's §5 slow path)",
         /*needs_store=*/false, /*needs_connection=*/true,
         [](const EvalBackendDeps& deps) {
           return std::make_unique<SqlBackend>(
               "client-fetch", SqlEvalMode::kClientSide, deps);
         }});
    add({"bulk-fetch",
         "one bulk transfer per table, then in-memory interpretation",
         /*needs_store=*/false, /*needs_connection=*/true,
         [](const EvalBackendDeps& deps) {
           return std::make_unique<BulkFetchBackend>(deps);
         }});
    return true;
  }();
  (void)initialized;
  return instance;
}

const EvalBackend::Registration& find_registration(std::string_view name) {
  Registry& r = registry();
  const auto it = r.entries.find(name);
  if (it == r.entries.end()) {
    std::string available;
    for (const auto& [known, reg] : r.entries) {
      if (!available.empty()) available += ", ";
      available += known;
    }
    throw EvalError(support::cat("unknown evaluation backend '", name,
                                 "' (available: ", available, ")"));
  }
  return it->second;
}

}  // namespace

std::unique_ptr<EvalBackend> EvalBackend::create(std::string_view name,
                                                 const EvalBackendDeps& deps) {
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  const Registration& reg = find_registration(name);
  if (deps.model == nullptr) {
    throw EvalError(support::cat("backend '", name, "' needs a model"));
  }
  if (reg.needs_store && deps.store == nullptr) {
    throw EvalError(support::cat("backend '", name,
                                 "' needs an in-memory object store"));
  }
  if (reg.needs_connection && deps.conn == nullptr &&
      !(reg.pool_satisfies_connection && deps.pool != nullptr)) {
    throw EvalError(support::cat(
        "backend '", name, "' needs a database ",
        reg.pool_satisfies_connection ? "connection or connection pool"
                                      : "connection"));
  }
  return reg.factory(deps);
}

std::vector<std::string> EvalBackend::names() {
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  std::vector<std::string> out;
  out.reserve(r.entries.size());
  for (const auto& [name, reg] : r.entries) out.push_back(name);
  return out;
}

bool EvalBackend::exists(std::string_view name) {
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  return r.entries.find(name) != r.entries.end();
}

std::string EvalBackend::describe(std::string_view name) {
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  return find_registration(name).description;
}

bool EvalBackend::requires_connection(std::string_view name) {
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  return find_registration(name).needs_connection;
}

void EvalBackend::register_backend(Registration registration) {
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  r.entries.insert_or_assign(registration.name, std::move(registration));
}

}  // namespace kojak::cosy

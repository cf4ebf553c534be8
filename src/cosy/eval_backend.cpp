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

namespace {

// ---------------------------------------------------------------------------
// Interpreter

class InterpreterBackend final : public EvalBackend {
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

 private:
  const asl::Interpreter interp_;
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
  if (reg.needs_connection && deps.conn == nullptr) {
    throw EvalError(
        support::cat("backend '", name, "' needs a database connection"));
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

EvalStats evaluate_contexts(std::string_view backend,
                            const EvalBackendDeps& deps,
                            db::ConnectionPool* pool, std::size_t threads,
                            asl::ObjectId run,
                            std::span<const EvalRequest> requests,
                            std::span<asl::PropertyResult> results) {
  const bool needs_connection = EvalBackend::requires_connection(backend);
  if (needs_connection && deps.conn == nullptr && pool == nullptr) {
    throw EvalError(support::cat("backend '", backend,
                                 "' needs a database connection or a "
                                 "connection pool"));
  }
  std::size_t workers =
      threads != 0
          ? threads
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  if (needs_connection) {
    // A worker holds its session until the join, so more workers than
    // sessions would only queue on acquire().
    workers = pool != nullptr ? std::min(workers, pool->capacity()) : 1;
  }
  workers = std::min(workers, requests.size());

  // One worker uses deps.conn when it has one; several lease a session each.
  const bool lease_sessions =
      needs_connection && (workers > 1 || deps.conn == nullptr);
  // Each worker's backend is declared after its lease, so it is destroyed
  // before the session returns to the pool.
  struct Worker {
    db::ConnectionPool::Lease lease;
    std::unique_ptr<EvalBackend> engine;
  };
  std::vector<Worker> slots(std::max<std::size_t>(workers, 1));
  const auto open = [&](Worker& slot) {
    EvalBackendDeps own = deps;
    if (lease_sessions) {
      slot.lease = pool->acquire();
      own.conn = slot.lease.get();
    }
    slot.engine = EvalBackend::create(backend, own);
    slot.engine->prepare(*deps.model, run);
  };
  const auto evaluate_one = [&](std::size_t i, std::size_t worker) {
    Worker& slot = slots[worker];
    if (slot.engine == nullptr) open(slot);
    results[i] =
        slot.engine->evaluate(*requests[i].property, *requests[i].args);
  };
  if (workers <= 1) {
    // The serial loop prepares its backend even for a run without contexts.
    open(slots[0]);
    for (std::size_t i = 0; i < requests.size(); ++i) evaluate_one(i, 0);
  } else {
    support::ThreadPool(workers).parallel_for(requests.size(), workers,
                                              evaluate_one);
  }
  EvalStats total;
  for (const Worker& slot : slots) {
    if (slot.engine != nullptr) total += slot.engine->stats();
  }
  return total;
}

}  // namespace kojak::cosy

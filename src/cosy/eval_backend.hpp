#ifndef KOJAK_COSY_EVAL_BACKEND_HPP
#define KOJAK_COSY_EVAL_BACKEND_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "asl/interp.hpp"
#include "asl/model.hpp"
#include "cosy/eval_stats.hpp"

namespace kojak::db {
class Connection;
class ConnectionPool;
}

namespace kojak::cosy {

class PlanCache;
class ShardResultCache;

/// One (property, context) evaluation request: the property plus its
/// argument tuple, both owned by the caller for the duration of the call.
struct EvalRequest {
  const asl::PropertyInfo* property = nullptr;
  const std::vector<asl::RtValue>* args = nullptr;
};

/// Everything a backend may need, supplied by the analyzer. Which fields
/// must be non-null depends on the backend: the interpreter family needs
/// `store`, the SQL family needs `conn` (the registry checks and throws a
/// descriptive EvalError otherwise).
struct EvalBackendDeps {
  const asl::Model* model = nullptr;
  const asl::ObjectStore* store = nullptr;
  db::Connection* conn = nullptr;
  PlanCache* plan_cache = nullptr;
  /// Incremental shard-result cache for the whole-condition SQL family
  /// (cosy::Monitor supplies one that lives across epochs): partition-pinned
  /// `part<K>` CTE results are served from cache and only dirty partitions
  /// recompute. Null: every pass recomputes everything (the cold behavior).
  /// Thread-safe, so evaluate_contexts' workers share it.
  ShardResultCache* shard_cache = nullptr;
};

/// A property-evaluation engine behind a narrow, uniform contract:
///
///   prepare(model, run)  — once per analyzed run, before any evaluation;
///   evaluate(prop, args) — one (property, context) pair;
///   stats()              — the backend's accounting for the analysis.
///
/// Backends are named, listable, and constructible from config/CLI strings
/// through the registry (`EvalBackend::create`). Built-ins:
///
///   interpreter          — in-memory object store, the semantic reference;
///   sql-pushdown         — set operations compile to SQL, scalars client-side;
///   sql-whole-condition  — the paper-§6 path: the entire condition +
///                          confidence + severity surface compiles into ONE
///                          parameterized statement per (property, context),
///                          with common subexpressions hoisted into CTEs
///                          (each shared subquery runs once per context);
///   sql-whole-condition-plain — the same without the CSE/CTE pass (the
///                          bench ablation baseline);
///   client-fetch         — the §5 slow path, record-at-a-time fetching;
///   bulk-fetch           — one bulk transfer per table, then interpretation.
///
/// A backend says where a property is evaluated, not how many threads
/// evaluate it: an instance is single-analysis and single-thread, and
/// evaluate_contexts spreads one run's contexts over workers that each own
/// an instance. The analyzer creates backends per analyze() call, so stats
/// stay per-report.
class EvalBackend {
 public:
  virtual ~EvalBackend() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Called once before evaluation of a run's contexts. `model` must be the
  /// instance the backend was created against.
  virtual void prepare(const asl::Model& model, asl::ObjectId run);

  [[nodiscard]] virtual asl::PropertyResult evaluate(
      const asl::PropertyInfo& property,
      const std::vector<asl::RtValue>& args) = 0;

  [[nodiscard]] virtual EvalStats stats() const { return {}; }

  // --- registry ------------------------------------------------------------

  using Factory =
      std::function<std::unique_ptr<EvalBackend>(const EvalBackendDeps&)>;

  struct Registration {
    std::string name;
    std::string description;
    bool needs_store = false;
    bool needs_connection = false;
    Factory factory;
  };

  /// Constructs the named backend. Throws support::EvalError for unknown
  /// names (the message lists what is available) and for missing deps.
  [[nodiscard]] static std::unique_ptr<EvalBackend> create(
      std::string_view name, const EvalBackendDeps& deps);

  /// Registered names, sorted; the registry is process-wide.
  [[nodiscard]] static std::vector<std::string> names();
  [[nodiscard]] static bool exists(std::string_view name);
  /// One-line description of a named backend (throws for unknown names).
  [[nodiscard]] static std::string describe(std::string_view name);
  /// Whether the named backend needs a database connection (drives pool
  /// acquisition in the batch engine; throws for unknown names).
  [[nodiscard]] static bool requires_connection(std::string_view name);

  /// Adds a backend to the registry (tools and tests can plug their own
  /// engines in). Re-registering an existing name replaces it.
  static void register_backend(Registration registration);

 protected:
  explicit EvalBackend(const EvalBackendDeps& deps) : deps_(deps) {}

  [[nodiscard]] const EvalBackendDeps& deps() const noexcept { return deps_; }

 private:
  EvalBackendDeps deps_;
};

/// Evaluates `requests[i]` into `results[i]` for every i with the named
/// backend on w = min(threads, requests.size()) workers (a thread count of
/// 0 means the hardware's). A backend that needs a connection runs on one
/// worker without `pool` and on at most the pool's capacity with it. Each
/// worker creates its own backend from `deps` at its first claimed index
/// (leasing its session from `pool` when the backend needs one), prepares
/// it for `run`, and evaluates every index it claims; results land in their
/// request slots, so reports are identical for any worker count. One worker
/// is the serial loop: one backend on `deps.conn` (or on one leased session
/// when only a pool is given), no thread. Errors are the serial loop's: the
/// lowest failing index's is rethrown. Returns the workers' summed stats.
[[nodiscard]] EvalStats evaluate_contexts(
    std::string_view backend, const EvalBackendDeps& deps,
    db::ConnectionPool* pool, std::size_t threads, asl::ObjectId run,
    std::span<const EvalRequest> requests,
    std::span<asl::PropertyResult> results);

}  // namespace kojak::cosy

#endif  // KOJAK_COSY_EVAL_BACKEND_HPP

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
  /// Session pool for backends that fan one run's context list out across
  /// multiple database sessions (sql-sharded). Backends that accept a pool
  /// fall back to `conn` when it is null (and vice versa).
  db::ConnectionPool* pool = nullptr;
  PlanCache* plan_cache = nullptr;
  /// Worker count for intra-run sharding backends; 0 means hardware.
  std::size_t threads = 0;
  /// Incremental shard-result cache for the whole-condition SQL family
  /// (cosy::Monitor supplies one that lives across epochs): partition-pinned
  /// `part<K>` CTE results are served from cache and only dirty partitions
  /// recompute. Null: every pass recomputes everything (the cold behavior).
  /// Thread-safe, so the sharded backend shares it across its sessions.
  ShardResultCache* shard_cache = nullptr;
};

/// A property-evaluation engine behind a narrow, uniform contract:
///
///   prepare(model, run)  — once per analyzed run, before any evaluation;
///   evaluate(prop, args) — one (property, context) pair;
///   evaluate_all(...)    — a whole context list (overridable for intra-run
///                          parallelism; results are indexed by request, so
///                          any schedule reduces deterministically);
///   stats()              — the backend's accounting for the analysis.
///
/// Backends are named, listable, and constructible from config/CLI strings
/// through the registry (`EvalBackend::create`). Built-ins:
///
///   interpreter          — in-memory object store, the semantic reference;
///   interpreter-sharded  — the same, with the context list sharded across
///                          a support::ThreadPool (intra-run parallelism);
///   sql-pushdown         — set operations compile to SQL, scalars client-side;
///   sql-whole-condition  — the paper-§6 path: the entire condition +
///                          confidence + severity surface compiles into ONE
///                          parameterized statement per (property, context),
///                          with common subexpressions hoisted into CTEs
///                          (each shared subquery runs once per context);
///   sql-whole-condition-plain — the same without the CSE/CTE pass (the
///                          bench ablation baseline);
///   sql-sharded          — whole-condition evaluation with one run's
///                          context list sharded across ConnectionPool
///                          sessions (deterministic index-based reduction);
///   client-fetch         — the §5 slow path, record-at-a-time fetching;
///   bulk-fetch           — one bulk transfer per table, then interpretation.
///
/// An instance is single-analysis, single-thread (internal fan-out is the
/// backend's own business); the analyzer creates one per analyze() call so
/// stats stay per-report.
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

  /// Evaluates `requests[i]` into `results[i]` for every i. The base
  /// implementation is a serial loop; sharding backends override it. The
  /// index-based contract keeps reduction order deterministic for any
  /// internal schedule.
  virtual void evaluate_all(std::span<const EvalRequest> requests,
                            std::span<asl::PropertyResult> results);

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
    /// When `needs_connection` is set, a ConnectionPool in the deps also
    /// satisfies the requirement (the backend leases its own sessions —
    /// sql-sharded). Defaults to false: most SQL backends drive exactly one
    /// session and dereference `conn` directly.
    bool pool_satisfies_connection = false;
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

}  // namespace kojak::cosy

#endif  // KOJAK_COSY_EVAL_BACKEND_HPP

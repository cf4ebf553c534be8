#ifndef KOJAK_COSY_BATCH_HPP
#define KOJAK_COSY_BATCH_HPP

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cosy/analyzer.hpp"
#include "cosy/sql_eval.hpp"
#include "db/connection_pool.hpp"

namespace kojak::cosy {

/// A named subset of the model's properties evaluated as one unit. An empty
/// property list means "every property of the model". Suites let one batch
/// answer different questions over the same data (the paper's suite vs. the
/// extended suite, or a user's custom screening set) without reloading
/// anything.
struct PropertySuite {
  std::string name;
  std::vector<std::string> properties;
};

struct BatchConfig {
  /// Evaluation backend by registry name (see eval_backend.hpp). Every
  /// (run, suite) task drives one backend instance of this name.
  std::string backend = "sql-pushdown";
  /// Worker threads (and concurrently leased connections); 0 = hardware.
  std::size_t threads = 0;
  double problem_threshold = 0.05;
  /// Severity basis region; empty -> the main region (per AnalyzerConfig).
  std::string basis_region;
  /// Compiled-plan cache shared by every worker (SQL backends), so each
  /// property's SQL translation happens once instead of once per (run,
  /// context). Null: a per-batch cache. A caller-owned cache survives the
  /// call, so a service analyzing batch after batch keeps its warm plans
  /// (the ROADMAP's "persist PlanCache across experiments"). The summary
  /// reports this batch's traffic on it as a delta.
  PlanCache* plan_cache = nullptr;
  /// Rows kept in the cross-run worst-context summary.
  std::size_t top_contexts = 10;
};

/// One unit of batch work: a (run, suite) pair with its finished report.
struct BatchItem {
  std::size_t run_index = 0;
  std::string suite;
  AnalysisReport report;
};

/// What a severity looks like when it got worse between two analyzed runs
/// of the same suite (a scaling regression: same property, same context,
/// larger share of the basis duration).
struct Regression {
  std::string suite;
  std::string property;
  std::string context;
  std::size_t from_run = 0;
  std::size_t to_run = 0;
  double severity_before = 0.0;
  double severity_after = 0.0;

  [[nodiscard]] double delta() const noexcept {
    return severity_after - severity_before;
  }
};

/// Cross-run aggregation of a batch, plus the engine's own accounting.
struct BatchSummary {
  struct WorstContext {
    std::string suite;
    std::string property;
    std::string context;
    std::size_t run_index = 0;
    int pe_count = 0;
    double severity = 0.0;
  };
  /// The most severe findings across every (run, suite), deterministic
  /// order: severity desc, then suite/property/context/run asc.
  std::vector<WorstContext> worst;
  /// Severity increases between consecutive analyzed runs, worst first.
  std::vector<Regression> regressions;

  std::uint64_t sql_queries = 0;
  std::uint64_t plan_cache_hits = 0;
  std::uint64_t plan_cache_misses = 0;
  [[nodiscard]] double plan_cache_hit_rate() const noexcept {
    const double total =
        static_cast<double>(plan_cache_hits + plan_cache_misses);
    return total == 0 ? 0.0 : static_cast<double>(plan_cache_hits) / total;
  }
  /// Traffic on the batch's shared PlanCache (a delta, so a caller-owned
  /// cache reused across batches reports per-batch numbers) and the
  /// distinct compiled plans resident after the batch. Matches the
  /// evaluator-side counters above unless other analyses share the cache
  /// concurrently.
  PlanCache::Stats shared_cache;
  std::size_t shared_cache_plans = 0;

  double wall_ms = 0.0;  ///< real engine time for the whole batch
  /// Modelled backend time consumed by this batch: `total` is the
  /// serial-equivalent cost, `makespan` the busiest pooled session — their
  /// ratio is the backend-side parallel speedup.
  double backend_total_ms = 0.0;
  double backend_makespan_ms = 0.0;
  db::ConnectionPool::Stats pool;
  /// Distinct pool sessions that served this batch (exact per batch, even
  /// on a caller-owned pool reused across batches).
  std::size_t pooled_connections = 0;

  [[nodiscard]] std::string to_table(std::size_t top_n = 10) const;
};

struct BatchResult {
  /// Suite-major, run-minor; findings are identical in order and content
  /// for any thread count (reports are reduced by task index, never by
  /// completion order). Only the telemetry counters (plan-cache hits and
  /// misses, timings) are scheduling-dependent.
  std::vector<BatchItem> items;
  BatchSummary summary;

  [[nodiscard]] const AnalysisReport* report_for(std::size_t run_index,
                                                 std::string_view suite) const;
};

/// The batch analysis engine: evaluates N test runs × M property suites
/// concurrently on a worker pool, drawing one database session per worker
/// from a ConnectionPool and sharing one compiled-plan cache, then reduces
/// the per-run reports into a deterministic cross-run summary. This is the
/// single-run Analyzer scaled to the ROADMAP's many-runs/many-users shape:
/// the per-run reports are byte-identical to what the sequential loop
/// produces, only the wall (and modelled backend) time changes.
class BatchAnalyzer {
 public:
  /// `pool` supplies sessions for the SQL backends (it must hold the same
  /// imported data as `store`); the interpreter backends need none.
  BatchAnalyzer(const asl::Model& model, const asl::ObjectStore& store,
                const StoreHandles& handles,
                db::ConnectionPool* pool = nullptr);

  /// Analyzes every (run, suite) pair. Runs are run indices into
  /// handles.runs; an empty suite span means one "all" suite.
  [[nodiscard]] BatchResult analyze_runs(std::span<const std::size_t> runs,
                                         std::span<const PropertySuite> suites,
                                         const BatchConfig& config = {});

  /// Every run of the experiment under one "all" suite.
  [[nodiscard]] BatchResult analyze_all(const BatchConfig& config = {});

 private:
  const asl::Model* model_;
  const asl::ObjectStore* store_;
  const StoreHandles* handles_;
  db::ConnectionPool* pool_;
};

}  // namespace kojak::cosy

#endif  // KOJAK_COSY_BATCH_HPP

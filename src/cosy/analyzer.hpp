#ifndef KOJAK_COSY_ANALYZER_HPP
#define KOJAK_COSY_ANALYZER_HPP

#include <optional>
#include <string>
#include <vector>

#include "asl/interp.hpp"
#include "cosy/store_builder.hpp"
#include "db/connection.hpp"

namespace kojak::db {
class ConnectionPool;
}

namespace kojak::cosy {

class PlanCache;
class ShardResultCache;

struct AnalyzerConfig {
  /// Evaluation backend by registry name (e.g. "sql-whole-condition", see
  /// eval_backend.hpp). Unknown names throw, listing what is available.
  std::string backend = "interpreter";
  /// A property is a performance *problem* iff severity > threshold (§4).
  double problem_threshold = 0.05;
  /// Region whose duration normalizes severities; empty -> the main region.
  std::string basis_region;
  /// Workers that share one run's contexts, for every backend (0 =
  /// hardware; see evaluate_contexts). A backend that needs a database
  /// runs on one worker unless the Analyzer has a pool.
  std::size_t threads = 1;
  /// Evaluate only these properties (a "suite"); empty means every property
  /// of the model. Unknown names throw.
  std::vector<std::string> properties;
  /// Shared compiled-plan cache for the SQL backends (see PlanCache);
  /// with null, each evaluator caches its plans for this analysis alone.
  PlanCache* plan_cache = nullptr;
  /// Incremental shard-result cache for the whole-condition SQL backends
  /// (see ShardResultCache): per-partition `part<K>` CTE results persist
  /// across analyze() calls and only dirty partitions recompute.
  /// cosy::Monitor supplies one; null (the default) recomputes everything.
  ShardResultCache* shard_cache = nullptr;
};

/// One evaluated (property, context) pair.
struct Finding {
  std::string property;
  std::string context;  ///< region name or call-site label
  asl::PropertyResult result;

  [[nodiscard]] bool holds() const noexcept { return result.holds(); }
};

/// Ranked outcome of analyzing one test run (paper §3: "performance
/// properties are ranked according to their severity and presented to the
/// application programmer").
struct AnalysisReport {
  std::string program;
  /// Processing elements of the analyzed test run (the data model's NoPe).
  int pe_count = 0;
  double problem_threshold = 0.05;
  /// Properties that hold, sorted by decreasing severity (stable on ties).
  std::vector<Finding> findings;
  /// Contexts where evaluation was not applicable (data gaps), for audit.
  std::vector<Finding> not_applicable;
  std::uint64_t sql_queries = 0;  ///< statements issued (SQL backends)
  /// sql-whole-condition contexts that did not run as one statement and
  /// were re-evaluated site-wise (see EvalStats::whole_fallbacks).
  std::uint64_t whole_fallbacks = 0;
  /// Plan-cache traffic (SQL backends). Telemetry, not
  /// part of the deterministic contract: with a cache shared by concurrent
  /// analyses, racing workers may both compile a cold site, so the split
  /// between hits and misses can vary with scheduling.
  std::uint64_t plan_cache_hits = 0;    ///< SQL sites served by a cached plan
  std::uint64_t plan_cache_misses = 0;  ///< SQL sites compiled from scratch

  /// The unique bottleneck: the most severe property (§4), if any holds.
  [[nodiscard]] const Finding* bottleneck() const {
    return findings.empty() ? nullptr : &findings.front();
  }
  /// Findings whose severity exceeds the problem threshold.
  [[nodiscard]] std::vector<const Finding*> problems() const;
  /// True when the program needs no further tuning (§4: bottleneck is not a
  /// problem).
  [[nodiscard]] bool tuned() const {
    const Finding* top = bottleneck();
    return top == nullptr || top->result.severity <= problem_threshold;
  }

  /// Renders the ranked findings; `top_n == 0` means every finding (a
  /// zero-row cap would silently hide the ranking the report exists for).
  [[nodiscard]] std::string to_table(std::size_t top_n = 20) const;
};

/// One bound property context: the argument tuple plus its display label.
/// What the analyzer evaluates per run — and what cosy::Monitor watches
/// across epochs (cosy_tool --watch builds its watch list from these).
struct PropertyContext {
  const asl::PropertyInfo* property = nullptr;
  std::vector<asl::RtValue> args;
  std::string label;
};

/// Binds `prop`'s parameter list against the analyzed world: the first
/// Region/FunctionCall parameter iterates over the store's instances,
/// TestRun parameters bind `run`, later Region parameters bind `basis`.
/// Throws for parameter shapes the analyzer cannot bind.
[[nodiscard]] std::vector<PropertyContext> enumerate_property_contexts(
    const asl::Model& model, const StoreHandles& handles,
    const asl::PropertyInfo& prop, asl::ObjectId run, asl::ObjectId basis);

/// The COSY analysis engine: enumerates property contexts over one program
/// version and evaluates every property of the model.
class Analyzer {
 public:
  /// `store`/`handles` come from build_store; the SQL backends need `conn`
  /// or `pool`, over a database that holds the same data (see
  /// import_store). With a pool, each of `AnalyzerConfig::threads` workers
  /// leases its own session.
  Analyzer(const asl::Model& model, const asl::ObjectStore& store,
           const StoreHandles& handles, db::Connection* conn = nullptr,
           db::ConnectionPool* pool = nullptr);

  /// Analyzes the test run at `run_index` (into handles.runs).
  [[nodiscard]] AnalysisReport analyze(std::size_t run_index,
                                       const AnalyzerConfig& config = {});

  /// Contexts enumerated per property for one run (bench bookkeeping).
  [[nodiscard]] std::size_t context_count() const;

 private:
  const asl::Model* model_;
  const asl::ObjectStore* store_;
  const StoreHandles* handles_;
  db::Connection* conn_;
  db::ConnectionPool* pool_;
};

}  // namespace kojak::cosy

#endif  // KOJAK_COSY_ANALYZER_HPP

#ifndef KOJAK_COSY_MONITOR_HPP
#define KOJAK_COSY_MONITOR_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "asl/interp.hpp"
#include "asl/model.hpp"
#include "cosy/shard_cache.hpp"
#include "cosy/sql_eval.hpp"
#include "db/connection.hpp"

namespace kojak::cosy {

class EvalBackend;

/// One batch of rows bound for the store: per-table row groups, flattened
/// row-major. Built incrementally by a producer (a trace stream, the --watch
/// replay loop, a test) and handed to Monitor::ingest as a unit — the whole
/// batch lands under one store write gate, so an analyzer snapshot sees all
/// of it or none of it.
class IngestBatch {
 public:
  /// Appends one row. Every row of a table must carry the same width (the
  /// table's full column list, in schema order).
  void add(std::string table, std::vector<db::Value> row);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] bool empty() const noexcept { return rows_ == 0; }
  void clear();

 private:
  friend class Monitor;
  struct Group {
    std::string table;
    std::size_t width = 0;          ///< values per row
    std::vector<db::Value> values;  ///< row-major flattened
    std::size_t rows = 0;
  };
  std::vector<Group> groups_;  // first-seen table order (= apply order)
  std::map<std::string, std::size_t> index_;
  std::size_t rows_ = 0;
};

/// How one watched (property, context) moved between consecutive
/// evaluation passes.
enum class DeltaKind {
  kRaised,           ///< did not hold (or first pass) -> holds
  kCleared,          ///< held -> no longer holds
  kSeverityChanged,  ///< held in both passes with a different severity
};

[[nodiscard]] std::string_view to_string(DeltaKind kind) noexcept;

struct FindingDelta {
  DeltaKind kind = DeltaKind::kRaised;
  std::string property;
  std::string context;
  double severity_before = 0.0;  ///< 0 for kRaised on the first pass
  double severity_after = 0.0;   ///< 0 for kCleared
};

/// One watched context's current verdict (mirrors cosy::Finding without the
/// run-report framing).
struct MonitorFinding {
  std::string property;
  std::string context;
  asl::PropertyResult result;
};

/// The outcome of one Monitor::evaluate pass: the findings at a pinned
/// store epoch, what changed since the previous pass, and the incremental
/// machinery's accounting for exactly this pass.
struct EpochReport {
  std::uint64_t epoch = 0;  ///< Database::store_epoch at evaluation time
  std::size_t pass = 0;     ///< 1-based evaluation pass number
  std::size_t rows_ingested = 0;  ///< rows this monitor ingested since the
                                  ///< previous pass
  /// Watched contexts whose property holds, sorted by severity descending
  /// (registration order breaks ties — deterministic for byte-comparison).
  std::vector<MonitorFinding> findings;
  /// Changes since the previous pass, in watch-registration order. The
  /// first pass reports every holding context as kRaised.
  std::vector<FindingDelta> deltas;
  /// exec_stats deltas over this pass (shard-result cache effectiveness).
  std::uint64_t shard_cache_hits = 0;
  std::uint64_t shard_cache_misses = 0;
  std::uint64_t dirty_partitions_recomputed = 0;
  /// Watched statements whose whole read set was version-unchanged — served
  /// from the statement memo without executing at all.
  std::uint64_t statements_memoized = 0;

  /// Human-readable pass summary plus one line per delta (what
  /// `cosy_tool --watch` prints each epoch).
  [[nodiscard]] std::string to_summary() const;
};

struct MonitorOptions {
  /// Evaluation backend (registry name). Must be a SQL-family backend — the
  /// monitor's world lives in the database, there is no object store. The
  /// shard-result cache makes re-evaluation incremental only for the
  /// whole-condition family; other backends still work, just cold.
  std::string backend = "sql-whole-condition";
  /// Read by nothing: the monitor evaluates its watches serially on one
  /// persistent backend. Kept only because existing callers set it; due
  /// for deletion.
  std::size_t threads = 0;
  /// Rows per multi-row INSERT statement on the ingest path.
  std::size_t ingest_batch_rows = 64;
};

/// The online-monitoring loop: ingest-batch -> incremental re-evaluate ->
/// report delta. A Monitor owns the epoch machinery end to end:
///
///   - `ingest` appends a batch under the store's write gate using multi-row
///     INSERTs (the bulk wire-cost model), bumping exactly the partitions
///     the rows hash into;
///   - `evaluate` re-runs every watched (property, context) under a read
///     snapshot (consistent epoch while a writer thread keeps batching),
///     serving unchanged partitions' `part<K>` CTE rows from an owned
///     ShardResultCache that lives across passes — only partitions the
///     ingest dirtied recompute;
///   - the returned EpochReport carries the findings, the raised / cleared /
///     severity-changed deltas against the previous pass, and the cache's
///     hit/miss/dirty accounting for the pass.
///
/// Thread shape: one Monitor, any number of producer threads calling
/// `ingest`, one analyzer thread calling `evaluate` — the gate/snapshot pair
/// serializes store access, everything else in here is confined to the
/// caller. The connection must outlive the monitor.
class Monitor {
 public:
  Monitor(const asl::Model& model, db::Connection& conn,
          MonitorOptions options = {});
  ~Monitor();

  /// Registers one (property, context) to re-evaluate every pass. `label`
  /// names the context in findings and deltas.
  void watch(const asl::PropertyInfo& property, std::vector<asl::RtValue> args,
             std::string label);
  [[nodiscard]] std::size_t watch_count() const noexcept {
    return watches_.size();
  }

  /// Applies one batch under the store write gate; returns rows inserted.
  std::size_t ingest(const IngestBatch& batch);

  /// One evaluation pass over the watch list at a consistent store epoch.
  [[nodiscard]] EpochReport evaluate();

  [[nodiscard]] std::size_t passes() const noexcept { return passes_; }
  [[nodiscard]] ShardResultCache& shard_cache() noexcept {
    return shard_cache_;
  }

 private:
  struct Watch {
    const asl::PropertyInfo* property;
    std::vector<asl::RtValue> args;
    std::string label;
  };

  const asl::Model* model_;
  db::Connection* conn_;
  MonitorOptions options_;
  PlanCache plan_cache_;
  ShardResultCache shard_cache_;
  /// The evaluation backend lives across passes: its evaluators keep their
  /// prepared statements, so a steady-state pass compiles nothing — it
  /// binds, probes the shard cache, and merges.
  std::unique_ptr<EvalBackend> backend_;
  std::vector<Watch> watches_;
  /// Prepared multi-row INSERTs keyed on "<table>#<rows>" (reused across
  /// batches; at most full-batch + one remainder shape per table).
  std::map<std::string, db::PreparedStatement> insert_cache_;
  /// Previous pass verdict per (property, context label).
  std::map<std::pair<std::string, std::string>, asl::PropertyResult> previous_;
  std::size_t passes_ = 0;
  std::size_t rows_since_eval_ = 0;
};

}  // namespace kojak::cosy

#endif  // KOJAK_COSY_MONITOR_HPP

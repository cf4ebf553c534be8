#ifndef KOJAK_DB_DATABASE_HPP
#define KOJAK_DB_DATABASE_HPP

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "db/result.hpp"
#include "db/sql/ast.hpp"
#include "db/table.hpp"

namespace kojak::db {

/// A statement parsed once and executable many times with different `?`
/// parameters (the import path prepares one INSERT per table).
class PreparedStatement {
 public:
  explicit PreparedStatement(sql::Statement stmt) : stmt_(std::move(stmt)) {}
  [[nodiscard]] const sql::Statement& ast() const noexcept { return stmt_; }
  [[nodiscard]] sql::Statement& ast() noexcept { return stmt_; }

 private:
  sql::Statement stmt_;
};

/// The embedded relational engine: a catalog of tables plus a SQL executor.
/// Not thread-safe for concurrent mutation; concurrent read-only SELECTs of
/// *distinct* prepared statements are safe after a warm-up bind.
class Database {
 public:
  Table& create_table(TableSchema schema);
  /// Returns false when the table does not exist.
  bool drop_table(std::string_view name);
  [[nodiscard]] Table* find_table(std::string_view name);
  [[nodiscard]] const Table* find_table(std::string_view name) const;
  /// Checked lookup; throws support::EvalError when missing.
  [[nodiscard]] Table& table(std::string_view name);
  [[nodiscard]] const Table& table(std::string_view name) const;
  [[nodiscard]] std::vector<std::string> table_names() const;

  /// Physical layout of one catalog table — the stable metadata surface
  /// query compilers plan against (the partition-union rewrite reads the
  /// spec to emit one `PARTITION (k)`-pinned CTE per partition). `partition`
  /// is absent for single-heap tables; `partitions` is always >= 1.
  struct TableLayout {
    std::string table;  ///< declared spelling
    std::optional<PartitionSpec> partition;
    std::size_t partitions = 1;
    /// Declared spelling of the partition column; empty when unpartitioned.
    std::string partition_column;
  };
  /// Layout of `name`, or nullopt when the table does not exist.
  [[nodiscard]] std::optional<TableLayout> table_layout(
      std::string_view name) const;
  /// Layouts of every catalog table, in catalog (case-insensitive name)
  /// order.
  [[nodiscard]] std::vector<TableLayout> table_layouts() const;
  /// Deterministic content hash of the whole catalog layout: table names
  /// plus their partition specs. Two databases with the same tables and the
  /// same partitioning fingerprint equal; re-partitioning any table changes
  /// it. Compiled-plan caches key on this so a plan compiled against one
  /// layout is never replayed against another.
  [[nodiscard]] std::uint64_t layout_fingerprint() const;

  /// Parses and executes a script of `;`-separated statements, returning the
  /// result of the last one.
  QueryResult execute(std::string_view sql_text, std::span<const Value> params = {});

  QueryResult execute(sql::Statement& stmt, std::span<const Value> params = {});

  /// Parses exactly one statement for repeated execution. A script with
  /// more than one `;`-separated statement is a diagnostic error here (a
  /// prepared statement IS one statement; scripts go through execute()).
  [[nodiscard]] PreparedStatement prepare(std::string_view sql_text) const;
  QueryResult execute(PreparedStatement& stmt, std::span<const Value> params = {});

  /// One externally-materialized CTE handed to execute_select_with. The
  /// shard-result cache injects cached `part<K>` rows here; the executor
  /// skips the matching WITH entries and resolves their names to the
  /// injected results instead. `rows` must outlive the call.
  struct InjectedCte {
    std::string_view name;
    const QueryResult* rows = nullptr;
  };
  /// Executes `stmt` with some of its WITH entries pre-materialized. CTEs
  /// whose names are absent from `injected` materialize as usual; names in
  /// `injected` that match no WITH entry are simply additional visible
  /// derived tables. The residual merge expressions (scalar subqueries
  /// over the injected names) execute unchanged, so the result is
  /// byte-identical to a plain execute() of the same statement.
  QueryResult execute_select_with(sql::SelectStmt& stmt,
                                  std::span<const Value> params,
                                  std::span<const InjectedCte> injected);

  /// Fused-eligibility diagnostics: parses `sql_text` and reports, per
  /// SELECT statement and per WITH entry, whether the columnar fused
  /// evaluator (and the expression VM) would take it or why it stays on the
  /// row path. Analysis only — nothing executes, no plan annotation is
  /// cached, parameters are assumed NULL. Non-SELECT statements report
  /// "not a SELECT".
  struct FusedExplain {
    std::string statement;  // CTE name, or "main"
    std::string verdict;
  };
  [[nodiscard]] std::vector<FusedExplain> explain_fused(
      std::string_view sql_text);

  /// Total live rows across all tables (bench bookkeeping).
  [[nodiscard]] std::size_t total_rows() const;

  // --- epochs and snapshots -------------------------------------------------
  // The store epoch is the sum of every catalog table's table_version(): a
  // monotonic data version that advances by >= 1 on any row mutation
  // anywhere in the catalog. Online monitoring pins analysis passes to an
  // epoch: an analyzer holds a ReadSnapshot (shared lock) for a whole pass
  // while an ingest writer takes the WriteGate (exclusive lock) per batch,
  // so readers always see batch-aligned, consistent data. The gate is
  // advisory — the raw execute() paths do not take it — but every monitoring
  // participant (cosy::Monitor, bulk db_import) goes through it.
  [[nodiscard]] std::uint64_t store_epoch() const noexcept {
    std::uint64_t epoch = 0;
    for (const auto& [name, table] : tables_) epoch += table->table_version();
    return epoch;
  }

  /// Shared-reader pin: holds the store gate in shared mode so ingest
  /// batches (which take the exclusive WriteGate) cannot interleave with an
  /// analysis pass. `epoch()` is the store epoch observed at acquisition
  /// and stays valid for the snapshot's lifetime.
  class ReadSnapshot {
   public:
    [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

   private:
    friend class Database;
    ReadSnapshot(std::shared_mutex& gate, const Database& db) : lock_(gate) {
      epoch_ = db.store_epoch();
    }
    std::shared_lock<std::shared_mutex> lock_;
    std::uint64_t epoch_ = 0;
  };
  /// Exclusive-writer pin for one ingest batch; blocks until all snapshots
  /// are released and excludes new ones until destruction.
  class WriteGate {
   public:
   private:
    friend class Database;
    explicit WriteGate(std::shared_mutex& gate) : lock_(gate) {}
    std::unique_lock<std::shared_mutex> lock_;
  };
  [[nodiscard]] ReadSnapshot snapshot() const {
    return ReadSnapshot(*store_gate_, *this);
  }
  [[nodiscard]] WriteGate write_gate() { return WriteGate(*store_gate_); }

  /// Knobs of the parallel partition-scan path. An unpruned full scan of a
  /// table with more than one partition fans its partitions out across a
  /// dedicated scan pool when the partitions hold at least
  /// `min_parallel_rows` live rows; results merge in partition order, so
  /// parallel and serial scans produce identical row streams.
  struct ScanConfig {
    /// Worker cap per scan: 0 = hardware concurrency, 1 = always serial.
    std::size_t threads = 0;
    /// Minimum live rows across the scanned partitions before the scan
    /// pays thread-dispatch overhead.
    std::size_t min_parallel_rows = 4096;
  };
  void set_scan_config(ScanConfig config) noexcept { scan_config_ = config; }
  [[nodiscard]] const ScanConfig& scan_config() const noexcept {
    return scan_config_;
  }

  /// Executor-side accounting, observable across statements. The counters
  /// are atomics (concurrent read-only SELECTs of distinct prepared
  /// statements are allowed) and monotonic; callers snapshot before/after a
  /// statement and diff. Tests pin the single-materialization contract of
  /// CTEs, the uncorrelated-subquery memo, and the partition-scan planner
  /// (pruning + parallel batches) on these.
  ///
  /// KOJAK_EXEC_COUNTERS is the one list of counters, in snapshot order.
  /// Each X(name) entry generates the ExecStatsSnapshot field `name`, its
  /// atomic, its load in exec_stats(), its copy when a Database moves, and
  /// the relaxed bumper `count_<name>(n = 1)`.
  // clang-format off
#define KOJAK_EXEC_COUNTERS(X)                                                \
  X(subquery_executions)           /* scalar-subquery plans run */             \
  X(subquery_memo_hits)            /* served from the per-statement memo */    \
  X(cte_materializations)          /* WITH entries materialized */             \
  X(partition_scans)               /* partition heaps scanned by base scans */ \
  X(partitions_pruned)             /* partitions skipped via routing */        \
  X(parallel_scan_batches)         /* multi-partition scans run on the pool */ \
  /* CTEs materialized concurrently on the scan pool (independent WITH         \
     entries of one statement execution; the serial path never bumps it). */   \
  X(cte_parallel_materializations)                                             \
  /* Full-table aggregate subqueries a compiler rewrote into a                 \
     per-partition CTE union against this database's layout (bumped by         \
     cosy::WholeConditionCompiler at compile time, once per rewritten          \
     aggregate site; plan-cache hits do not recompile and do not recount). */  \
  X(partition_union_rewrites)                                                  \
  /* Incremental re-evaluation accounting, bumped by the whole-condition       \
     pipeline when a cosy::ShardResultCache is attached: per-partition         \
     `part<K>` CTE results served from cache (partition version                \
     unchanged), recomputed because absent or stale, and — of the              \
     misses — those where a prior entry existed at an older version            \
     (the "dirty partition" recomputes an incremental pass pays for). */       \
  X(shard_cache_hits)                                                          \
  X(shard_cache_misses)                                                        \
  X(dirty_partitions_recomputed)                                               \
  /* Whole statements served from the statement-level memo: every table        \
     the statement reads was at the version it last ran against, so the        \
     pass reused the stored result without issuing the statement at all. */    \
  X(statements_memoized)                                                       \
  /* Vectorized columnar accounting: partitions of STORAGE COLUMNAR            \
     tables scanned through the batch kernels instead of the row heap,         \
     fixed-width lane batches those scans processed, and live rows a           \
     selection bitmap filtered out before any aggregate kernel touched         \
     them (pruned partitions and tombstones do not count — only rows the       \
     row path would have materialized and then rejected in WHERE). */          \
  X(columnar_scans)                                                            \
  X(vectorized_batches)                                                        \
  X(rows_skipped_by_bitmap)                                                    \
  /* Statement executions served by a fused single-pass evaluator: the         \
     structural analysis (conjunct + aggregate descriptors) was reused         \
     from the statement's cached plan annotation instead of being              \
     re-derived from the AST. */                                               \
  X(fused_plan_evals)                                                          \
  /* Grouped vectorized accounting: statement executions served by the         \
     vectorized hash GROUP BY evaluator, and distinct groups those             \
     evaluations materialized (summed across partitions and executions). */    \
  X(grouped_vector_evals)                                                      \
  X(groups_built)                                                              \
  /* Columnar hash equi-join accounting: hash tables built from a key          \
     column slice (validity- and tombstone-masked), and live+valid             \
     probe-side lanes fed through them. */                                     \
  X(hash_join_builds)                                                          \
  X(join_lanes_probed)                                                         \
  /* Expression-VM accounting: bytecode programs compiled during fused         \
     plan analysis (WHERE filters, aggregate arguments, group keys, join       \
     keys — cached plans recompile nothing and recount nothing),               \
     program-executions (one per program per statement execution that          \
     took the compiled path), lane batches the VM interpreted, and total       \
     lanes across those batches. */                                            \
  X(expr_programs_compiled)                                                    \
  X(expr_program_evals)                                                        \
  X(expr_vm_batches)                                                           \
  X(expr_vm_lanes)
  // clang-format on

  struct ExecStatsSnapshot {
#define KOJAK_EXEC_FIELD(name) std::uint64_t name = 0;
    KOJAK_EXEC_COUNTERS(KOJAK_EXEC_FIELD)
#undef KOJAK_EXEC_FIELD
  };
  [[nodiscard]] ExecStatsSnapshot exec_stats() const noexcept {
    ExecStatsSnapshot out;
#define KOJAK_EXEC_LOAD(name) \
  out.name = exec_stats_.name.load(std::memory_order_relaxed);
    KOJAK_EXEC_COUNTERS(KOJAK_EXEC_LOAD)
#undef KOJAK_EXEC_LOAD
    return out;
  }

  // Internal: bumped by the executor and the cosy SQL pipeline (relaxed;
  // telemetry only).
#define KOJAK_EXEC_BUMPER(name)                               \
  void count_##name(std::uint64_t n = 1) noexcept {           \
    exec_stats_.name.fetch_add(n, std::memory_order_relaxed); \
  }
  KOJAK_EXEC_COUNTERS(KOJAK_EXEC_BUMPER)
#undef KOJAK_EXEC_BUMPER

 private:
  struct ExecStats {
#define KOJAK_EXEC_ATOMIC(name) std::atomic<std::uint64_t> name{0};
    KOJAK_EXEC_COUNTERS(KOJAK_EXEC_ATOMIC)
#undef KOJAK_EXEC_ATOMIC

    // Snapshot copy/move so Database itself stays movable (nobody may be
    // executing against a Database while it is moved anyway).
    ExecStats() = default;
    ExecStats(const ExecStats& other) { *this = other; }
    ExecStats& operator=(const ExecStats& other) {
#define KOJAK_EXEC_COPY(name)                            \
  name.store(other.name.load(std::memory_order_relaxed), \
             std::memory_order_relaxed);
      KOJAK_EXEC_COUNTERS(KOJAK_EXEC_COPY)
#undef KOJAK_EXEC_COPY
      return *this;
    }
  };
  ExecStats exec_stats_;
  ScanConfig scan_config_;

  struct CaseInsensitiveLess {
    bool operator()(const std::string& a, const std::string& b) const;
  };
  std::map<std::string, std::unique_ptr<Table>, CaseInsensitiveLess> tables_;

  /// Fingerprint memo: the catalog only changes through create/drop (which
  /// bump the generation, under the single-writer contract), so
  /// layout_fingerprint() — called per evaluation by the plan-cache keying —
  /// re-hashes the catalog only after DDL. Atomics because concurrent
  /// read-only sessions may consult the fingerprint simultaneously; the
  /// race is benign (both writers store the same value for a generation).
  /// Snapshot copy/move like ExecStats, so Database itself stays movable.
  struct LayoutMemo {
    std::atomic<std::uint64_t> fingerprint{0};
    std::atomic<std::uint64_t> generation{~std::uint64_t{0}};  // = invalid

    LayoutMemo() = default;
    LayoutMemo(const LayoutMemo& other) { *this = other; }
    LayoutMemo& operator=(const LayoutMemo& other) {
      fingerprint.store(other.fingerprint.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
      generation.store(other.generation.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
      return *this;
    }
  };
  std::uint64_t catalog_generation_ = 0;
  mutable LayoutMemo layout_memo_;

  /// The snapshot/write-gate lock. unique_ptr keeps Database movable (a
  /// moved-from Database is dead weight; nobody holds its gate while it
  /// moves, matching the ExecStats contract above).
  mutable std::unique_ptr<std::shared_mutex> store_gate_ =
      std::make_unique<std::shared_mutex>();
};

}  // namespace kojak::db

#endif  // KOJAK_DB_DATABASE_HPP

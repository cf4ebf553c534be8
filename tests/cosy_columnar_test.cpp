// Columnar-layout differential: STORAGE COLUMNAR keeps per-partition typed
// column vectors + validity bitmaps alongside the row heap and routes
// eligible whole-partition aggregates through the vectorized fused path —
// and none of that may be visible in any report. Every analysis backend
// must render byte-identical reports across flat/partitioned x row/columnar
// layouts and 1/2/8 worker threads, while the engine counters prove the
// columnar twin really scanned column vectors.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "asl/sema.hpp"
#include "cosy/analyzer.hpp"
#include "cosy/db_import.hpp"
#include "cosy/eval_backend.hpp"
#include "cosy/schema_gen.hpp"
#include "cosy/specs.hpp"
#include "cosy/store_builder.hpp"
#include "db/connection_pool.hpp"
#include "perf/simulator.hpp"
#include "perf/workloads.hpp"
#include "support/str.hpp"

namespace asl = kojak::asl;
namespace cosy = kojak::cosy;
namespace db = kojak::db;
namespace perf = kojak::perf;

namespace {

/// One experiment imported four times: {flat, partitioned} x {row, columnar}.
/// The partitioned twins use 8 region-timing shards (as in the partition
/// differential); the columnar twins differ ONLY in storage mode.
struct QuadWorld {
  asl::Model model = cosy::load_cosy_model();
  asl::ObjectStore store{model};
  cosy::StoreHandles handles;
  db::Database row_flat;
  db::Database row_part;
  db::Database col_flat;
  db::Database col_part;

  explicit QuadWorld(const perf::AppSpec& app, std::vector<int> pes,
                     std::uint64_t seed = 1) {
    perf::SimulationOptions options;
    options.seed = seed;
    const perf::ExperimentData data =
        perf::simulate_experiment(app, pes, options);
    handles = cosy::build_store(store, data);
    const auto layout = [](std::size_t partitions, bool columnar) {
      cosy::SchemaOptions schema;
      schema.region_timing_partitions = partitions;
      schema.columnar = columnar;
      return schema;
    };
    cosy::create_schema(row_flat, model, layout(1, false));
    cosy::create_schema(row_part, model, layout(8, false));
    cosy::create_schema(col_flat, model, layout(1, true));
    cosy::create_schema(col_part, model, layout(8, true));
    for (db::Database* database :
         {&row_flat, &row_part, &col_flat, &col_part}) {
      db::Connection conn(*database, db::ConnectionProfile::in_memory());
      cosy::import_store(conn, store);
    }
  }
};

/// Byte-exact report rendering (ranked findings plus not-applicable audits
/// including notes): one backend over different physical layouts promises
/// full identity, prose included.
std::string render_exact(const cosy::AnalysisReport& report) {
  std::string out = report.to_table(0);
  for (const cosy::Finding& f : report.not_applicable) {
    out += kojak::support::cat("NA ", f.property, "@", f.context, "!",
                               f.result.note, "\n");
  }
  return out;
}

/// Analyzes run 2 with `backend` on `threads` workers (0 = hardware). A
/// backend that needs a database gets a pool of `threads` sessions when
/// there are several workers, and one connection otherwise.
cosy::AnalysisReport analyze(QuadWorld& world, db::Database& database,
                             const std::string& backend, std::size_t threads) {
  cosy::AnalyzerConfig config;
  config.backend = backend;
  config.threads = threads;
  if (threads > 1 && cosy::EvalBackend::requires_connection(backend)) {
    db::ConnectionPool pool(database, db::ConnectionProfile::in_memory(),
                            threads);
    cosy::Analyzer analyzer(world.model, world.store, world.handles,
                            /*conn=*/nullptr, &pool);
    return analyzer.analyze(2, config);
  }
  db::Connection conn(database, db::ConnectionProfile::in_memory());
  cosy::Analyzer analyzer(world.model, world.store, world.handles, &conn);
  return analyzer.analyze(2, config);
}

}  // namespace

TEST(ColumnarStore, SchemaEmitsAndRoundTripsStorageColumnar) {
  const asl::Model model = cosy::load_cosy_model();
  cosy::SchemaOptions options;
  options.columnar = true;

  // Every generated CREATE TABLE carries the storage clause.
  for (const std::string& stmt : cosy::generate_ddl(model, options)) {
    if (stmt.rfind("CREATE TABLE", 0) != 0) continue;
    EXPECT_NE(stmt.find(" STORAGE COLUMNAR"), std::string::npos) << stmt;
  }

  db::Database database;
  cosy::create_schema(database, model, options);
  EXPECT_EQ(database.table("Region").schema().storage(),
            db::StorageMode::kColumnar);
  EXPECT_EQ(database.table("Region_TypTimes").schema().storage(),
            db::StorageMode::kColumnar);
  // Columnar composes with partitioning instead of replacing it.
  EXPECT_EQ(database.table("Region_TypTimes").partition_count(), 4u);

  // to_ddl round-trips the mode: replaying the rendered DDL reproduces a
  // columnar partitioned table.
  const std::string ddl = database.table("Region_TypTimes").schema().to_ddl();
  EXPECT_NE(ddl.find("PARTITION BY HASH"), std::string::npos) << ddl;
  EXPECT_NE(ddl.find("STORAGE COLUMNAR"), std::string::npos) << ddl;
  db::Database replay;
  replay.execute(ddl);
  EXPECT_EQ(replay.table("Region_TypTimes").schema().storage(),
            db::StorageMode::kColumnar);

  // The default stays row: no clause, row mode.
  db::Database row;
  cosy::create_schema(row, model);
  EXPECT_EQ(row.table("Region").schema().storage(), db::StorageMode::kRow);
  EXPECT_EQ(row.table("Region").schema().to_ddl().find("STORAGE"),
            std::string::npos);
}

TEST(ColumnarStore, AllBackendsByteIdenticalAcrossLayouts) {
  ASSERT_EQ(cosy::load_cosy_model().properties().size(), 13u);
  QuadWorld world(perf::workloads::imbalanced_ocean(), {1, 4, 16});
  // Parallel engine scans on the partitioned twins so the differential also
  // covers the fan-out path over both storage modes.
  world.row_part.set_scan_config({.threads = 4, .min_parallel_rows = 1});
  world.col_part.set_scan_config({.threads = 4, .min_parallel_rows = 1});

  for (const char* backend :
       {"interpreter", "sql-pushdown", "sql-whole-condition",
        "sql-whole-condition-plain", "client-fetch", "bulk-fetch"}) {
    const std::string reference =
        render_exact(analyze(world, world.row_flat, backend, 0));
    EXPECT_FALSE(reference.empty()) << backend;
    EXPECT_EQ(render_exact(analyze(world, world.col_flat, backend, 0)),
              reference)
        << backend << " col_flat";
    EXPECT_EQ(render_exact(analyze(world, world.row_part, backend, 0)),
              reference)
        << backend << " row_part";
    EXPECT_EQ(render_exact(analyze(world, world.col_part, backend, 0)),
              reference)
        << backend << " col_part";
  }
}

TEST(ColumnarStore, WholeConditionByteIdenticalAtAnyThreadCount) {
  QuadWorld world(perf::workloads::scalable_stencil(), {1, 4, 16}, 2);
  world.row_part.set_scan_config({.threads = 4, .min_parallel_rows = 1});
  world.col_part.set_scan_config({.threads = 4, .min_parallel_rows = 1});

  const std::string backend = "sql-whole-condition";
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const std::string reference =
        render_exact(analyze(world, world.row_flat, backend, threads));
    for (db::Database* database :
         {&world.col_flat, &world.row_part, &world.col_part}) {
      EXPECT_EQ(render_exact(analyze(world, *database, backend, threads)),
                reference)
          << threads << " threads";
    }
  }
}

// ---------------------------------------------------------------------------
// The fused vectorized path under the whole-condition statement shape:
// partition-pinned part<K> CTEs of filter + k aggregates over one table are
// exactly what the hot-plan evaluator specializes. Twin junctions (row vs
// columnar) must produce bit-identical coordinator results at every thread
// count while the columnar twin's counters prove the kernels ran.

namespace {

void fill_junction(db::Database& database, bool columnar) {
  database.execute(kojak::support::cat(
      "CREATE TABLE m (owner INTEGER, member INTEGER, w DOUBLE) "
      "PARTITION BY HASH(member) PARTITIONS 8",
      columnar ? " STORAGE COLUMNAR" : ""));
  for (int i = 0; i < 600; ++i) {
    // Deterministic non-dyadic weights: accumulation order differences would
    // show up in the hexfloat rendering immediately.
    const double w = 0.37 * static_cast<double>((i * 131) % 97) + 0.01;
    database.execute(kojak::support::cat("INSERT INTO m VALUES (", i % 5, ", ",
                                         i, ", ", w, ")"));
  }
}

std::string union_statement() {
  // The whole-condition compiler's partition-union shape, single-table
  // variant: one CTE per partition, each filter + SUM/COUNT over its pinned
  // shard, folded by a coordinator expression.
  std::string sql = "WITH ";
  for (int k = 0; k < 8; ++k) {
    sql += kojak::support::cat(
        "part", k, " AS (SELECT COALESCE(SUM(w), 0.0) AS v0, COUNT(w) AS v1 ",
        "FROM m PARTITION (", k, ") WHERE member >= 120), ");
  }
  sql.resize(sql.size() - 2);
  sql += " SELECT ";
  for (int k = 0; k < 8; ++k) {
    sql += kojak::support::cat("(SELECT v0 FROM part", k, ")",
                               k == 7 ? "" : " + ");
  }
  sql += ", ";
  for (int k = 0; k < 8; ++k) {
    sql += kojak::support::cat("(SELECT v1 FROM part", k, ")",
                               k == 7 ? "" : " + ");
  }
  return sql;
}

std::string render_row(const db::QueryResult& result) {
  char buffer[64];
  std::string out;
  for (std::size_t c = 0; c < result.column_count(); ++c) {
    const db::Value& v = result.at(0, c);
    if (v.type() == db::ValueType::kDouble) {
      std::snprintf(buffer, sizeof buffer, "%a", v.as_double());
      out += buffer;
    } else {
      out += kojak::support::cat(v.as_int());
    }
    out += '|';
  }
  return out;
}

}  // namespace

TEST(ColumnarStore, PartitionUnionCtesTakeTheFusedPathBitIdentically) {
  db::Database row;
  fill_junction(row, /*columnar=*/false);
  db::Database columnar;
  fill_junction(columnar, /*columnar=*/true);
  const std::string sql = union_statement();

  const std::string reference = render_row(row.execute(sql));
  for (const std::size_t threads : {1u, 2u, 8u}) {
    row.set_scan_config({.threads = threads, .min_parallel_rows = 1});
    columnar.set_scan_config({.threads = threads, .min_parallel_rows = 1});

    const auto before = columnar.exec_stats();
    const std::string vectorized = render_row(columnar.execute(sql));
    const auto after = columnar.exec_stats();
    EXPECT_EQ(vectorized, reference) << threads << " threads";
    EXPECT_EQ(render_row(row.execute(sql)), reference) << threads;
    // Each part<K> CTE vector-scanned its pinned shard and pruned the rest.
    EXPECT_EQ(after.columnar_scans - before.columnar_scans, 8u) << threads;
    EXPECT_EQ(after.partitions_pruned - before.partitions_pruned, 56u)
        << threads;
    EXPECT_GE(after.vectorized_batches - before.vectorized_batches, 8u)
        << threads;
    EXPECT_GT(after.rows_skipped_by_bitmap - before.rows_skipped_by_bitmap, 0u)
        << threads;
  }
}

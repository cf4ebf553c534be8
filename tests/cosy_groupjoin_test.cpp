// Grouped-aggregate and hash-join differential: the vectorized hash GROUP
// BY evaluator and the columnar hash equi-join must be invisible in every
// result. Twin tables (row vs columnar storage of the same layout, flat
// and partitioned) must produce byte-identical rows — hexfloat doubles
// included — at every thread count, for grouped statements, HAVING
// filters, NULL group keys, join row streams, and aggregates over joins,
// while the engine counters prove the columnar twins really took the
// kernel paths. (Flat and partitioned layouts scan rows in different
// orders, so double sums legitimately differ in the last ulp *across*
// layouts — the identity promise is per layout, storage-mode- and
// thread-count-invariant.) The analyzer backends ride the same promise
// end to end.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "asl/sema.hpp"
#include "cosy/analyzer.hpp"
#include "cosy/db_import.hpp"
#include "cosy/schema_gen.hpp"
#include "cosy/specs.hpp"
#include "cosy/store_builder.hpp"
#include "db/database.hpp"
#include "perf/simulator.hpp"
#include "perf/workloads.hpp"
#include "support/str.hpp"

namespace asl = kojak::asl;
namespace cosy = kojak::cosy;
namespace db = kojak::db;
namespace perf = kojak::perf;

namespace {

/// Twin pair of tables for the grouped/join statements: j is the fact side
/// (grouped on owner/tag, joined on member), c the dimension side. NULLs
/// land in every role — group key, join key, aggregated column — so the
/// kernels' NULL lanes are exercised, and the weights are non-dyadic so an
/// accumulation-order difference shows up in the hexfloat rendering
/// immediately. No index on c.id: the equi-join must take the hash branch.
void fill_groupjoin(db::Database& database, std::size_t partitions,
                    bool columnar) {
  const char* storage = columnar ? " STORAGE COLUMNAR" : "";
  if (partitions > 1) {
    database.execute(kojak::support::cat(
        "CREATE TABLE j (owner INTEGER, member INTEGER, t DOUBLE, tag TEXT) "
        "PARTITION BY HASH(member) PARTITIONS ",
        partitions, storage));
    database.execute(kojak::support::cat(
        "CREATE TABLE c (id INTEGER, name TEXT, region INTEGER) "
        "PARTITION BY HASH(id) PARTITIONS ",
        partitions / 2, storage));
  } else {
    database.execute(kojak::support::cat(
        "CREATE TABLE j (owner INTEGER, member INTEGER, t DOUBLE, tag TEXT)",
        storage));
    database.execute(kojak::support::cat(
        "CREATE TABLE c (id INTEGER, name TEXT, region INTEGER)", storage));
  }
  for (int i = 0; i < 400; ++i) {
    const std::string owner =
        i % 13 == 0 ? "NULL" : kojak::support::cat(i % 7);
    const std::string member = i % 11 == 0 ? "NULL" : kojak::support::cat(i);
    const std::string t =
        i % 17 == 0
            ? "NULL"
            : kojak::support::cat(0.37 * static_cast<double>((i * 131) % 97) +
                                  0.01);
    const std::string tag =
        i % 19 == 0 ? "NULL" : kojak::support::cat("'g", i % 5, "'");
    database.execute(kojak::support::cat("INSERT INTO j VALUES (", owner, ", ",
                                         member, ", ", t, ", ", tag, ")"));
  }
  for (int i = 0; i < 64; ++i) {
    const std::string id = i % 9 == 0 ? "NULL" : kojak::support::cat(i * 2);
    const std::string name =
        i % 10 == 0 ? "NULL" : kojak::support::cat("'g", i % 5, "'");
    database.execute(kojak::support::cat("INSERT INTO c VALUES (", id, ", ",
                                         name, ", ", i % 3, ")"));
  }
}

/// Byte-exact multi-row rendering: hexfloat doubles, explicit NULL marker,
/// row and column separators — any ordering or accumulation divergence
/// between twins breaks the string.
std::string render_rows(const db::QueryResult& result) {
  char buffer[64];
  std::string out;
  for (std::size_t r = 0; r < result.row_count(); ++r) {
    for (std::size_t c = 0; c < result.column_count(); ++c) {
      const db::Value& v = result.at(r, c);
      if (v.is_null()) {
        out += "NULL";
      } else if (v.type() == db::ValueType::kDouble) {
        std::snprintf(buffer, sizeof buffer, "%a", v.as_double());
        out += buffer;
      } else if (v.type() == db::ValueType::kString) {
        out += v.as_string();
      } else {
        out += kojak::support::cat(v.as_int());
      }
      out += '|';
    }
    out += '\n';
  }
  return out;
}

/// The statement matrix both twins must agree on. Covers: plain grouped
/// aggregation (and its native group output order — no ORDER BY), every
/// kernel aggregate, WHERE conjuncts the bitmap path supports, HAVING over
/// grouped results, NULL group keys, multi-column keys, a WHERE shape the
/// kernels reject (fallback must agree too), integer- and string-keyed
/// equi-joins (row-stream identity without ORDER BY), an ON clause with an
/// extra conjunct, and aggregation over a join.
std::vector<std::string> groupjoin_statements() {
  return {
      "SELECT owner, COUNT(*), SUM(t), AVG(t), MIN(t), MAX(t) FROM j "
      "GROUP BY owner",
      "SELECT owner, COUNT(t), STDDEV(t) FROM j GROUP BY owner ORDER BY owner",
      "SELECT owner, tag, SUM(t) FROM j GROUP BY owner, tag",
      "SELECT owner, COUNT(*) FROM j WHERE t > 5.0 GROUP BY owner",
      "SELECT owner, SUM(t) FROM j WHERE t > 5.0 GROUP BY owner "
      "HAVING SUM(t) > 100.0",
      "SELECT owner, COUNT(*) FROM j WHERE owner + member > 50 GROUP BY owner",
      "SELECT owner, member, t, region FROM j JOIN c ON j.member = c.id",
      "SELECT tag, region, t FROM j JOIN c ON j.tag = c.name "
      "WHERE region > 0",
      "SELECT owner, t, region FROM j JOIN c "
      "ON j.member = c.id AND c.region > 0",
      "SELECT COUNT(*), SUM(t) FROM j JOIN c ON j.member = c.id",
  };
}

}  // namespace

TEST(GroupJoin, TwinsByteIdenticalAcrossLayoutsAndThreads) {
  db::Database row_flat;
  fill_groupjoin(row_flat, 1, /*columnar=*/false);
  db::Database row_part;
  fill_groupjoin(row_part, 8, /*columnar=*/false);
  db::Database col_flat;
  fill_groupjoin(col_flat, 1, /*columnar=*/true);
  db::Database col_part;
  fill_groupjoin(col_part, 8, /*columnar=*/true);

  struct LayoutPair {
    const char* name;
    db::Database* row;
    db::Database* col;
  };
  const LayoutPair layouts[] = {{"flat", &row_flat, &col_flat},
                                {"partitioned", &row_part, &col_part}};

  for (const std::string& sql : groupjoin_statements()) {
    for (const LayoutPair& layout : layouts) {
      layout.row->set_scan_config({.threads = 1, .min_parallel_rows = 1});
      const std::string reference = render_rows(layout.row->execute(sql));
      EXPECT_FALSE(reference.empty()) << sql;
      for (const std::size_t threads : {1u, 2u, 8u}) {
        for (db::Database* database : {layout.row, layout.col}) {
          database->set_scan_config(
              {.threads = threads, .min_parallel_rows = 1});
          EXPECT_EQ(render_rows(database->execute(sql)), reference)
              << sql << " [" << layout.name << "] @" << threads << " threads";
        }
      }
    }
  }
}

TEST(GroupJoin, CountersProveTheColumnarKernelsRan) {
  db::Database row;
  fill_groupjoin(row, 8, /*columnar=*/false);
  db::Database columnar;
  fill_groupjoin(columnar, 8, /*columnar=*/true);

  const std::string grouped =
      "SELECT owner, COUNT(*), SUM(t) FROM j WHERE t > 5.0 GROUP BY owner";
  const std::string join =
      "SELECT COUNT(*), SUM(t) FROM j JOIN c ON j.member = c.id";

  const auto cb = columnar.exec_stats();
  const std::string grouped_cols = render_rows(columnar.execute(grouped));
  const std::string join_cols = render_rows(columnar.execute(join));
  const auto ca = columnar.exec_stats();
  EXPECT_EQ(ca.grouped_vector_evals - cb.grouped_vector_evals, 1u);
  // 7 owner groups plus the NULL-key group.
  EXPECT_EQ(ca.groups_built - cb.groups_built, 8u);
  EXPECT_EQ(ca.hash_join_builds - cb.hash_join_builds, 1u);
  EXPECT_GT(ca.join_lanes_probed - cb.join_lanes_probed, 0u);

  // The row twins agree on every byte and never touch the kernels.
  const auto rb = row.exec_stats();
  EXPECT_EQ(render_rows(row.execute(grouped)), grouped_cols);
  EXPECT_EQ(render_rows(row.execute(join)), join_cols);
  const auto ra = row.exec_stats();
  EXPECT_EQ(ra.grouped_vector_evals - rb.grouped_vector_evals, 0u);
  EXPECT_EQ(ra.groups_built - rb.groups_built, 0u);
  EXPECT_EQ(ra.hash_join_builds - rb.hash_join_builds, 0u);
  EXPECT_EQ(ra.join_lanes_probed - rb.join_lanes_probed, 0u);
}

// ---------------------------------------------------------------------------
// Analyzer backends over the twin layouts: the full report pipeline (whose
// SQL backends emit grouped and joined statements of their own) must stay
// byte-identical, prose included, now that those statements can route
// through the new kernels.

namespace {

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

std::string render_exact(const cosy::AnalysisReport& report) {
  std::string out = report.to_table(0);
  for (const cosy::Finding& f : report.not_applicable) {
    out += kojak::support::cat("NA ", f.property, "@", f.context, "!",
                               f.result.note, "\n");
  }
  return out;
}

cosy::AnalysisReport analyze(QuadWorld& world, db::Database& database,
                             const std::string& backend) {
  cosy::AnalyzerConfig config;
  config.backend = backend;
  db::Connection conn(database, db::ConnectionProfile::in_memory());
  cosy::Analyzer analyzer(world.model, world.store, world.handles, &conn);
  return analyzer.analyze(2, config);
}

}  // namespace

TEST(GroupJoin, AnalyzerBackendsByteIdenticalAcrossLayouts) {
  QuadWorld world(perf::workloads::imbalanced_ocean(), {1, 4, 16});
  world.row_part.set_scan_config({.threads = 4, .min_parallel_rows = 1});
  world.col_part.set_scan_config({.threads = 4, .min_parallel_rows = 1});

  for (const char* backend :
       {"interpreter", "sql-pushdown", "sql-whole-condition"}) {
    const std::string reference =
        render_exact(analyze(world, world.row_flat, backend));
    EXPECT_FALSE(reference.empty()) << backend;
    for (db::Database* database :
         {&world.col_flat, &world.row_part, &world.col_part}) {
      EXPECT_EQ(render_exact(analyze(world, *database, backend)), reference)
          << backend;
    }
  }
}

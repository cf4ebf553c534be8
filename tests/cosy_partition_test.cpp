// Partitioned-store differential: hash-partitioning Region_TotTimes /
// Region_TypTimes by region (cosy::SchemaOptions) must be invisible to every
// analysis backend — byte-identical reports against the unpartitioned seed
// layout across all 13 properties, every backend family, and 1/2/8 worker
// threads — while the engine-side partition counters prove the partitioned
// layout actually scans and prunes differently under the hood.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>

#include "asl/sema.hpp"
#include "cosy/analyzer.hpp"
#include "cosy/db_import.hpp"
#include "cosy/eval_backend.hpp"
#include "cosy/schema_gen.hpp"
#include "cosy/specs.hpp"
#include "cosy/sql_eval.hpp"
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

/// One experiment imported twice: into the seed single-heap layout and into
/// the partitioned layout (8 partitions per region timing junction).
struct TwinWorld {
  asl::Model model = cosy::load_cosy_model();
  asl::ObjectStore store{model};
  cosy::StoreHandles handles;
  db::Database flat;
  db::Database partitioned;

  explicit TwinWorld(const perf::AppSpec& app, std::vector<int> pes,
                     std::uint64_t seed = 1) {
    perf::SimulationOptions options;
    options.seed = seed;
    const perf::ExperimentData data =
        perf::simulate_experiment(app, pes, options);
    handles = cosy::build_store(store, data);
    cosy::create_schema(
        flat, model,
        {.region_timing_partitions = 1, .junction_partitions = {}});
    cosy::create_schema(
        partitioned, model,
        {.region_timing_partitions = 8, .junction_partitions = {}});
    for (db::Database* database : {&flat, &partitioned}) {
      db::Connection conn(*database, db::ConnectionProfile::in_memory());
      cosy::import_store(conn, store);
    }
  }
};

/// Byte-exact report rendering (ranked findings plus not-applicable audits
/// including notes): one backend over two physical layouts promises full
/// identity, prose included.
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
cosy::AnalysisReport analyze(TwinWorld& world, db::Database& database,
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

TEST(PartitionedStore, SchemaPartitionsRegionTimingJunctions) {
  const asl::Model model = cosy::load_cosy_model();
  // Default layout: 4 hash partitions by owner on the region timing
  // junctions, single heaps everywhere else.
  db::Database database;
  cosy::create_schema(database, model);
  EXPECT_EQ(database.table("Region_TypTimes").partition_count(), 4u);
  EXPECT_EQ(database.table("Region_TotTimes").partition_count(), 4u);
  EXPECT_EQ(database.table("Region").partition_count(), 1u);
  EXPECT_EQ(database.table("TypedTiming").partition_count(), 1u);
  const auto& spec = database.table("Region_TypTimes").schema().partition();
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->column, "owner");

  // The knob turns it off (seed layout) or up.
  db::Database flat;
  cosy::create_schema(
      flat, model,
      {.region_timing_partitions = 1, .junction_partitions = {}});
  EXPECT_EQ(flat.table("Region_TypTimes").partition_count(), 1u);
}

TEST(PartitionedStore, ExecCountersSeePartitionedScans) {
  TwinWorld world(perf::workloads::imbalanced_ocean(), {1, 4});
  world.partitioned.set_scan_config({.threads = 4, .min_parallel_rows = 1});

  // A whole-table scan (the modulo filter defeats every index) must touch
  // all 8 partitions and go through the parallel path...
  const char* scan = "SELECT COUNT(*) FROM Region_TypTimes WHERE member % 3 = 0";
  const auto before = world.partitioned.exec_stats();
  const db::QueryResult partitioned = world.partitioned.execute(scan);
  const auto after = world.partitioned.exec_stats();
  EXPECT_EQ(after.partition_scans - before.partition_scans, 8u);
  EXPECT_GE(after.parallel_scan_batches - before.parallel_scan_batches, 1u);
  // ...and still count exactly what the seed layout counts.
  EXPECT_EQ(partitioned.scalar().as_int(),
            world.flat.execute(scan).scalar().as_int());

  // Per-region probes stay single-shard: the owner index routes, so no heap
  // partitions are scanned at all.
  const asl::ObjectId region = world.handles.regions.begin()->second;
  const auto probe_before = world.partitioned.exec_stats();
  world.partitioned.execute(kojak::support::cat(
      "SELECT COUNT(*) FROM Region_TypTimes WHERE owner = ", region));
  const auto probe_after = world.partitioned.exec_stats();
  EXPECT_EQ(probe_after.partition_scans - probe_before.partition_scans, 0u);
}

TEST(PartitionedStore, AllBackendsByteIdenticalAcrossLayouts) {
  ASSERT_EQ(cosy::load_cosy_model().properties().size(), 13u);
  TwinWorld world(perf::workloads::imbalanced_ocean(), {1, 4, 16});
  // Force engine-side parallel scans on the partitioned twin so the
  // differential also covers the parallel merge path.
  world.partitioned.set_scan_config({.threads = 4, .min_parallel_rows = 1});

  for (const char* backend :
       {"interpreter", "sql-pushdown", "sql-whole-condition",
        "sql-whole-condition-plain", "client-fetch", "bulk-fetch"}) {
    const cosy::AnalysisReport flat = analyze(world, world.flat, backend, 0);
    const cosy::AnalysisReport part =
        analyze(world, world.partitioned, backend, 0);
    EXPECT_EQ(render_exact(flat), render_exact(part)) << backend;
    EXPECT_FALSE(flat.findings.empty()) << backend;
  }
}

// ---------------------------------------------------------------------------
// Partition-union rewrite: whole-set aggregates over a junction partitioned
// by MEMBER spread one owner's rows across every partition, so the
// whole-condition compiler must compile them into one part<K> CTE per
// partition (PARTITION (K)-pinned scans) combined by a coordinator
// expression — and the executor must materialize those CTEs in parallel
// inside ONE statement per (property, context).

namespace {

constexpr const char* kFleetSpec = R"(
  class Fleet {
    String Name;
    setof Probe Readings;
  }
  class Probe {
    int Slot;
    float T;
  }

  Property FleetLoad(Fleet f) {
    LET float Total = SUM(p.T WHERE p IN f.Readings);
    IN
    CONDITION: Total > 0;
    CONFIDENCE: 1;
    SEVERITY: Total;
  };

  Property FleetShape(Fleet f) {
    LET int N = COUNT(f.Readings);
        int Low = MIN(p.Slot WHERE p IN f.Readings);
        int High = MAX(p.Slot WHERE p IN f.Readings);
        float Mean = AVG(p.T WHERE p IN f.Readings);
    IN
    CONDITION: High >= Low;
    CONFIDENCE: 1;
    SEVERITY: Mean + N + High - Low;
  };

  Property FleetHot(Fleet f, int Cut) {
    LET int Hot = COUNT(p WHERE p IN f.Readings AND p.Slot >= Cut);
    IN
    CONDITION: EXISTS({p IN f.Readings WITH p.Slot >= Cut});
    CONFIDENCE: 1;
    SEVERITY: Hot;
  };
)";

/// Synthetic world for the rewrite: a handful of fleets, each owning many
/// probes. With `exact_values`, every probe of one fleet carries the same
/// dyadic T, so SUM/AVG are FP-exact in ANY accumulation order and reports
/// can be compared byte-for-byte across physical layouts; without it, T is
/// pseudo-random and comparisons go through a 1e-9 tolerance (incremental
/// aggregates legitimately accumulate in scan order).
struct FleetWorld {
  asl::Model model = asl::load_model({kFleetSpec});
  asl::ObjectStore store{model};
  std::vector<asl::ObjectId> fleets;

  FleetWorld(int fleet_count, int probes_per_fleet, bool exact_values) {
    for (int f = 0; f < fleet_count; ++f) {
      const asl::ObjectId fleet = store.create("Fleet");
      store.set_attr(fleet, "Name",
                     asl::RtValue::of_string(kojak::support::cat("fleet", f)));
      fleets.push_back(fleet);
      const int probes = f == fleet_count - 1 ? 0 : probes_per_fleet;
      for (int i = 0; i < probes; ++i) {
        const asl::ObjectId probe = store.create("Probe");
        store.set_attr(probe, "Slot", asl::RtValue::of_int(i % 11));
        const double t = exact_values
                             ? static_cast<double>(f % 4) * 0.25 + 0.5
                             : 0.37 * static_cast<double>((f * 131 + i * 17) % 97) + 0.01;
        store.set_attr(probe, "T", asl::RtValue::of_float(t));
        store.add_to_set(fleet, "Readings", probe);
      }
    }
  }

  /// Schema with Fleet_Readings hash-partitioned by MEMBER into
  /// `partitions` shards (1 = the flat layout), then the store imported.
  void populate(db::Database& database, std::size_t partitions) const {
    cosy::SchemaOptions options;
    options.junction_partitions.push_back(
        {"Fleet", "Readings", "member", partitions});
    cosy::create_schema(database, model, options);
    db::Connection conn(database, db::ConnectionProfile::in_memory());
    cosy::import_store(conn, store);
  }
};

/// Byte-exact rendering of one result (hexfloat doubles: identical bits or
/// it does not match). `with_note` is off when comparing against the
/// interpreter: not-applicable NOTES legitimately differ between the
/// interpreter ("MIN over an empty set") and the compiled path ("a LET
/// binding hit a data gap") — the verdict mapping is the contract, and the
/// sql backends still pin their notes byte-identically among themselves.
std::string render_result(const asl::PropertyResult& result,
                          bool with_note = true) {
  char confidence[40];
  char severity[40];
  std::snprintf(confidence, sizeof confidence, "%a", result.confidence);
  std::snprintf(severity, sizeof severity, "%a", result.severity);
  return kojak::support::cat(static_cast<int>(result.status), "|",
                             result.matched_condition, "|", confidence, "|",
                             severity, "|", with_note ? result.note : "",
                             "\n");
}

/// Evaluates every (property, fleet) context through `backend` on
/// `threads` workers and renders the whole sweep. Several workers get a
/// pool of that many sessions; one worker runs on one connection.
std::string evaluate_fleet_suite(const FleetWorld& world,
                                 db::Database& database,
                                 const std::string& backend,
                                 std::size_t threads = 1,
                                 bool with_note = true) {
  struct Sweep {
    std::vector<std::vector<asl::RtValue>> args;
    std::vector<cosy::EvalRequest> requests;
  };
  Sweep sweep;
  for (const asl::PropertyInfo& prop : world.model.properties()) {
    for (const asl::ObjectId fleet : world.fleets) {
      std::vector<asl::RtValue> args = {asl::RtValue::of_object(fleet)};
      if (prop.params.size() == 2) args.push_back(asl::RtValue::of_int(5));
      sweep.args.push_back(std::move(args));
    }
  }
  std::size_t slot = 0;
  for (const asl::PropertyInfo& prop : world.model.properties()) {
    for (std::size_t f = 0; f < world.fleets.size(); ++f) {
      sweep.requests.push_back({&prop, &sweep.args[slot++]});
    }
  }

  cosy::EvalBackendDeps deps;
  deps.model = &world.model;
  deps.store = &world.store;

  db::Connection conn(database, db::ConnectionProfile::in_memory());
  std::optional<db::ConnectionPool> pool;
  if (threads > 1) {
    pool.emplace(database, db::ConnectionProfile::in_memory(), threads);
  } else {
    deps.conn = &conn;
  }
  std::vector<asl::PropertyResult> results(sweep.requests.size());
  (void)cosy::evaluate_contexts(backend, deps,
                                pool.has_value() ? &*pool : nullptr, threads,
                                asl::kNullObject, sweep.requests, results);
  std::string rendered;
  for (const asl::PropertyResult& result : results) {
    rendered += render_result(result, with_note);
  }
  return rendered;
}

}  // namespace

TEST(PartitionUnion, WholeSetAggregateCompilesToPartCteUnion) {
  const FleetWorld world(4, 40, /*exact_values=*/true);
  db::Database partitioned;
  world.populate(partitioned, 4);
  db::Database flat;
  world.populate(flat, 1);

  const asl::PropertyInfo* load = world.model.find_property("FleetLoad");
  ASSERT_NE(load, nullptr);

  db::Connection conn(partitioned, db::ConnectionProfile::in_memory());
  cosy::SqlEvaluator whole(world.model, conn,
                           cosy::SqlEvalMode::kWholeCondition);
  const auto before = partitioned.exec_stats();
  const std::string text = whole.explain_whole_condition(*load);
  const auto after = partitioned.exec_stats();
  // Diagnostic-only compilation moves NO execution telemetry.
  EXPECT_EQ(after.partition_union_rewrites - before.partition_union_rewrites,
            0u);

  // The whole-table SUM compiled to WITH part0..part3, each shard pinned to
  // its partition, combined by a SUM-of-SUMs coordinator — and because the
  // LET is referenced by probe, condition, and severity, the coordinator
  // itself dedupes into a cse CTE.
  EXPECT_EQ(text.rfind("WITH part0 AS (SELECT ", 0), 0u) << text;
  for (const char* shard :
       {"part0 AS (SELECT COALESCE(SUM(b.T), 0.0) AS v0 FROM Fleet_Readings "
        "PARTITION (0) j JOIN Probe b ON b.id = j.member WHERE j.owner = ?",
        "Fleet_Readings PARTITION (1) j", "Fleet_Readings PARTITION (2) j",
        "Fleet_Readings PARTITION (3) j"}) {
    EXPECT_NE(text.find(shard), std::string::npos) << shard << "\n" << text;
  }
  EXPECT_EQ(text.find("PARTITION (4)"), std::string::npos) << text;
  EXPECT_NE(
      text.find("(SELECT v0 FROM part0) + (SELECT v0 FROM part1) + "
                "(SELECT v0 FROM part2) + (SELECT v0 FROM part3)"),
      std::string::npos)
      << text;
  // Rewrite telemetry tracks plans compiled for EXECUTION: exactly one
  // aggregate site for FleetLoad.
  const auto eval_before = partitioned.exec_stats();
  (void)whole.evaluate_property(
      *load, {asl::RtValue::of_object(world.fleets[0])});
  const auto eval_after = partitioned.exec_stats();
  EXPECT_EQ(eval_after.partition_union_rewrites -
                eval_before.partition_union_rewrites,
            1u);
  // Still ONE statement.
  EXPECT_EQ(text.find(';'), std::string::npos) << text;

  // The flat layout compiles layout-blind (no shards)...
  db::Connection flat_conn(flat, db::ConnectionProfile::in_memory());
  cosy::SqlEvaluator flat_whole(world.model, flat_conn,
                                cosy::SqlEvalMode::kWholeCondition);
  EXPECT_EQ(flat_whole.explain_whole_condition(*load).find("part0"),
            std::string::npos);
  // ...and so does the ablation baseline on the partitioned layout.
  cosy::SqlEvaluator plain(world.model, conn,
                           cosy::SqlEvalMode::kWholeCondition,
                           /*plan_cache=*/nullptr, /*common_subexpr=*/false);
  const std::string plain_text = plain.explain_whole_condition(*load);
  EXPECT_EQ(plain_text.find("PARTITION ("), std::string::npos) << plain_text;

  // All four FleetShape aggregates fold the same set, so they share ONE
  // shard group — four CTEs total (part0..part3, no part4), each carrying
  // one output column per distinct fold fragment; every partition is
  // scanned once per statement no matter how many operators consume it.
  // MIN/MAX combine through the NULL-skipping LEAST/GREATEST coordinators,
  // AVG re-derives from per-partition SUM and COUNT.
  const asl::PropertyInfo* shape = world.model.find_property("FleetShape");
  ASSERT_NE(shape, nullptr);
  const std::string shape_text = whole.explain_whole_condition(*shape);
  EXPECT_NE(shape_text.find("part3"), std::string::npos) << shape_text;
  EXPECT_EQ(shape_text.find("part4"), std::string::npos) << shape_text;
  EXPECT_NE(shape_text.find("LEAST((SELECT v1 FROM part"), std::string::npos)
      << shape_text;
  EXPECT_NE(shape_text.find("GREATEST((SELECT v2 FROM part"),
            std::string::npos)
      << shape_text;
  EXPECT_NE(shape_text.find("COALESCE(SUM(b.T), 0.0) AS v3, COUNT(b.T) AS v4"),
            std::string::npos)
      << shape_text;
  EXPECT_NE(shape_text.find(" / "), std::string::npos) << shape_text;

  // FleetHot's COUNT LET and its EXISTS condition compile to the same
  // coordinator: one rewrite counted, not two.
  const asl::PropertyInfo* hot = world.model.find_property("FleetHot");
  ASSERT_NE(hot, nullptr);
  const auto hot_before = partitioned.exec_stats();
  (void)whole.evaluate_property(*hot,
                                {asl::RtValue::of_object(world.fleets[0]),
                                 asl::RtValue::of_int(5)});
  const auto hot_after = partitioned.exec_stats();
  EXPECT_EQ(
      hot_after.partition_union_rewrites - hot_before.partition_union_rewrites,
      1u);
}

TEST(PartitionUnion, OneStatementPerContextWithParallelCteMaterialization) {
  const FleetWorld world(4, 64, /*exact_values=*/true);
  db::Database database;
  world.populate(database, 4);
  database.set_scan_config({.threads = 4, .min_parallel_rows = 1});

  db::Connection conn(database, db::ConnectionProfile::in_memory());
  cosy::PlanCache cache(world.model);
  cosy::SqlEvaluator whole(world.model, conn,
                           cosy::SqlEvalMode::kWholeCondition, &cache);
  const asl::PropertyInfo* load = world.model.find_property("FleetLoad");
  ASSERT_NE(load, nullptr);

  // Warm the plan, then pin the per-context contract: ONE statement per
  // (property, context), with the partition CTEs of that one statement
  // materialized concurrently on the scan pool.
  const std::vector<asl::RtValue> args = {
      asl::RtValue::of_object(world.fleets[0])};
  (void)whole.evaluate_property(*load, args);
  for (int i = 0; i < 3; ++i) {
    const std::uint64_t queries_before = whole.stats().sql_queries;
    const auto before = database.exec_stats();
    const asl::PropertyResult result = whole.evaluate_property(*load, args);
    const auto after = database.exec_stats();
    EXPECT_EQ(result.status, asl::PropertyResult::Status::kHolds);
    EXPECT_EQ(whole.stats().sql_queries - queries_before, 1u) << i;
    // All four part<K> shards of the one statement ran on the pool.
    EXPECT_GE(after.cte_parallel_materializations -
                  before.cte_parallel_materializations,
              4u)
        << i;
    // The shard bodies keep their indexed owner equality: each one probes
    // the owner index and filters the ids to its PARTITION (K), so no
    // partition heap is walked at all.
    EXPECT_EQ(after.partition_scans - before.partition_scans, 0u) << i;
  }
  EXPECT_EQ(whole.stats().whole_fallbacks, 0u);

  // Serial scan config: same statement, no parallel CTE batches.
  database.set_scan_config({.threads = 1, .min_parallel_rows = 1});
  const auto serial_before = database.exec_stats();
  (void)whole.evaluate_property(*load, args);
  const auto serial_after = database.exec_stats();
  EXPECT_EQ(serial_after.cte_parallel_materializations -
                serial_before.cte_parallel_materializations,
            0u);
}

TEST(PartitionUnion, RewrittenBackendsByteIdenticalAcrossLayoutsAndThreads) {
  const FleetWorld world(6, 48, /*exact_values=*/true);

  // Reference 1: the serial interpreter over the in-memory store (verdicts
  // and values; NA note text is backend-specific by design).
  std::string interp_reference;
  {
    const asl::Interpreter interp(world.model, world.store);
    for (const asl::PropertyInfo& prop : world.model.properties()) {
      for (const asl::ObjectId fleet : world.fleets) {
        std::vector<asl::RtValue> args = {asl::RtValue::of_object(fleet)};
        if (prop.params.size() == 2) args.push_back(asl::RtValue::of_int(5));
        interp_reference += render_result(interp.evaluate_property(prop, args),
                                          /*with_note=*/false);
      }
    }
  }
  ASSERT_NE(interp_reference.find("2|"), std::string::npos);  // NA covered

  // Reference 2: the full sql-side report (notes included) from the FLAT
  // layout — every rewritten backend must reproduce it byte for byte on
  // every partition layout and thread count.
  std::string sql_reference;
  {
    db::Database flat;
    world.populate(flat, 1);
    sql_reference = evaluate_fleet_suite(world, flat, "sql-whole-condition");
    EXPECT_EQ(
        evaluate_fleet_suite(world, flat, "sql-whole-condition", 1,
                             /*with_note=*/false),
        interp_reference);
  }

  for (const std::size_t partitions : {1u, 4u, 8u}) {
    db::Database database;
    world.populate(database, partitions);
    database.set_scan_config({.threads = 4, .min_parallel_rows = 1});
    for (const char* backend :
         {"sql-whole-condition", "sql-whole-condition-plain"}) {
      EXPECT_EQ(evaluate_fleet_suite(world, database, backend), sql_reference)
          << backend << " @ " << partitions << " partitions";
    }
    for (const std::size_t threads : {2u, 8u}) {
      EXPECT_EQ(evaluate_fleet_suite(world, database, "sql-whole-condition",
                                     threads),
                sql_reference)
          << "sql-whole-condition @ " << partitions << " partitions, "
          << threads << " threads";
    }
  }
}

TEST(PartitionUnion, RandomValuesAgreeWithInterpreterWithinTolerance) {
  const FleetWorld world(5, 40, /*exact_values=*/false);
  const asl::Interpreter interp(world.model, world.store);

  for (const std::size_t partitions : {4u, 8u}) {
    db::Database database;
    world.populate(database, partitions);
    database.set_scan_config({.threads = 4, .min_parallel_rows = 1});
    db::Connection conn(database, db::ConnectionProfile::in_memory());
    cosy::SqlEvaluator whole(world.model, conn,
                             cosy::SqlEvalMode::kWholeCondition);
    for (const asl::PropertyInfo& prop : world.model.properties()) {
      for (const asl::ObjectId fleet : world.fleets) {
        std::vector<asl::RtValue> args = {asl::RtValue::of_object(fleet)};
        if (prop.params.size() == 2) args.push_back(asl::RtValue::of_int(5));
        const asl::PropertyResult a = interp.evaluate_property(prop, args);
        const asl::PropertyResult b = whole.evaluate_property(prop, args);
        EXPECT_EQ(a.status, b.status)
            << prop.name << " fleet " << fleet << " (" << a.note << " vs "
            << b.note << ")";
        if (a.status == asl::PropertyResult::Status::kHolds) {
          EXPECT_EQ(a.matched_condition, b.matched_condition) << prop.name;
          EXPECT_NEAR(a.confidence, b.confidence, 1e-9) << prop.name;
          EXPECT_NEAR(a.severity, b.severity,
                      1e-9 * std::max(1.0, std::abs(a.severity)))
              << prop.name << " fleet " << fleet;
        }
      }
    }
    EXPECT_EQ(whole.stats().whole_fallbacks, 0u) << partitions;
  }
}

TEST(PartitionUnion, MinMaxDeclineBeyondTheFoldArgCap) {
  // LEAST/GREATEST accept at most 64 arguments; on a 65+-partition layout a
  // MIN/MAX coordinator would fail at bind time and demote every context to
  // the sitewise fallback. The compiler must decline the rewrite for those
  // operators (SUM/COUNT/AVG fold with +-chains and still rewrite).
  const FleetWorld world(2, 16, /*exact_values=*/true);
  db::Database database;
  world.populate(database, 65);

  db::Connection conn(database, db::ConnectionProfile::in_memory());
  cosy::SqlEvaluator whole(world.model, conn,
                           cosy::SqlEvalMode::kWholeCondition);
  const asl::PropertyInfo* shape = world.model.find_property("FleetShape");
  ASSERT_NE(shape, nullptr);
  const std::string text = whole.explain_whole_condition(*shape);
  EXPECT_EQ(text.find("LEAST("), std::string::npos) << text;
  EXPECT_EQ(text.find("GREATEST("), std::string::npos) << text;
  // The COUNT and AVG aggregates of the same property still union.
  EXPECT_NE(text.find("PARTITION (64)"), std::string::npos) << text;

  const asl::Interpreter interp(world.model, world.store);
  const std::vector<asl::RtValue> args = {
      asl::RtValue::of_object(world.fleets[0])};
  EXPECT_EQ(render_result(whole.evaluate_property(*shape, args)),
            render_result(interp.evaluate_property(*shape, args)));
  EXPECT_EQ(whole.stats().whole_fallbacks, 0u);
}

TEST(PartitionUnion, OwnerPinnedProbesStayFlat) {
  // The COSY layout partitions the region timing junctions by OWNER, and
  // every property probes per owner: those scans prune to one partition at
  // bind time, so the rewrite must NOT fire — a union of one live shard and
  // N-1 empty ones would only add cost. This is the layout-aware "leave it
  // alone" half of the rewrite.
  TwinWorld world(perf::workloads::imbalanced_ocean(), {1, 4});
  db::Connection conn(world.partitioned, db::ConnectionProfile::in_memory());
  cosy::SqlEvaluator whole(world.model, conn,
                           cosy::SqlEvalMode::kWholeCondition);
  const auto before = world.partitioned.exec_stats();
  for (const asl::PropertyInfo& prop : world.model.properties()) {
    const std::string text = whole.explain_whole_condition(prop);
    EXPECT_EQ(text.find("PARTITION ("), std::string::npos) << prop.name;
  }
  const auto after = world.partitioned.exec_stats();
  EXPECT_EQ(after.partition_union_rewrites - before.partition_union_rewrites,
            0u);
}

TEST(PartitionUnion, PlanCacheKeyedOnLayoutFingerprint) {
  // One shared PlanCache over two physical layouts of the same model: the
  // layout fingerprint in the key keeps the flat-layout plan from being
  // replayed against the partitioned store (and vice versa). Before the
  // layout key, re-partitioning silently reused stale flat SQL.
  const FleetWorld world(3, 24, /*exact_values=*/true);
  db::Database flat;
  world.populate(flat, 1);
  db::Database partitioned;
  world.populate(partitioned, 4);

  db::Connection flat_conn(flat, db::ConnectionProfile::in_memory());
  db::Connection part_conn(partitioned, db::ConnectionProfile::in_memory());
  EXPECT_NE(flat_conn.layout_fingerprint(), part_conn.layout_fingerprint());

  cosy::PlanCache cache(world.model);
  cosy::SqlEvaluator on_flat(world.model, flat_conn,
                             cosy::SqlEvalMode::kWholeCondition, &cache);
  cosy::SqlEvaluator on_partitioned(world.model, part_conn,
                                    cosy::SqlEvalMode::kWholeCondition, &cache);
  EXPECT_NE(on_flat.layout_fingerprint(), on_partitioned.layout_fingerprint());

  const asl::PropertyInfo* load = world.model.find_property("FleetLoad");
  ASSERT_NE(load, nullptr);
  const std::vector<asl::RtValue> args = {
      asl::RtValue::of_object(world.fleets[0])};

  const asl::PropertyResult flat_result =
      on_flat.evaluate_property(*load, args);
  const std::size_t after_flat = cache.size();
  EXPECT_GE(after_flat, 1u);

  // Same property, same cache, different layout: a fresh compilation under
  // the partitioned key — NOT a hit on the flat plan.
  const asl::PropertyResult part_result =
      on_partitioned.evaluate_property(*load, args);
  EXPECT_GT(cache.size(), after_flat);
  EXPECT_EQ(on_partitioned.stats().plan_cache_hits, 0u);
  EXPECT_EQ(render_result(flat_result), render_result(part_result));

  // Re-evaluating on either layout now hits its own plan.
  (void)on_flat.evaluate_property(*load, args);
  (void)on_partitioned.evaluate_property(*load, args);
  EXPECT_EQ(on_flat.stats().plan_cache_hits, 1u);
  EXPECT_EQ(on_partitioned.stats().plan_cache_hits, 1u);
}

TEST(PartitionedStore, FanOutByteIdenticalAtAnyThreadCount) {
  TwinWorld world(perf::workloads::scalable_stencil(), {1, 4, 16}, 2);
  world.partitioned.set_scan_config({.threads = 4, .min_parallel_rows = 1});

  // The reference: the serial interpreter over the in-memory store.
  const std::string reference =
      render_exact(analyze(world, world.flat, "interpreter", 1));

  for (const char* backend : {"interpreter", "sql-whole-condition"}) {
    for (const std::size_t threads : {1u, 2u, 8u}) {
      const std::string flat =
          render_exact(analyze(world, world.flat, backend, threads));
      const std::string part =
          render_exact(analyze(world, world.partitioned, backend, threads));
      EXPECT_EQ(flat, part) << backend << " @ " << threads;
      EXPECT_EQ(flat, reference) << backend << " @ " << threads;
    }
  }
}

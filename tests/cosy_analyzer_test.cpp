#include <gtest/gtest.h>

#include "cosy/analyzer.hpp"
#include "cosy/baseline/earl.hpp"
#include "cosy/baseline/paradyn.hpp"
#include "cosy/db_import.hpp"
#include "cosy/schema_gen.hpp"
#include "cosy/specs.hpp"
#include "perf/simulator.hpp"
#include "perf/workloads.hpp"
#include "support/error.hpp"

namespace asl = kojak::asl;
namespace cosy = kojak::cosy;
namespace db = kojak::db;
namespace perf = kojak::perf;

namespace {

struct World {
  asl::Model model = cosy::load_cosy_model();
  asl::ObjectStore store{model};
  cosy::StoreHandles handles;
  db::Database database;
  db::Connection conn{database, db::ConnectionProfile::in_memory()};
  perf::ExperimentData data;

  explicit World(const perf::AppSpec& app, std::vector<int> pes) {
    data = perf::simulate_experiment(app, pes);
    handles = cosy::build_store(store, data);
    cosy::create_schema(database, model);
    cosy::import_store(conn, store);
  }
};

const cosy::Finding* find(const cosy::AnalysisReport& report,
                          std::string_view property, std::string_view context) {
  for (const cosy::Finding& finding : report.findings) {
    if (finding.property == property && finding.context == context) {
      return &finding;
    }
  }
  return nullptr;
}

}  // namespace

TEST(Analyzer, OceanRankingShape) {
  World world(perf::workloads::imbalanced_ocean(), {1, 16});
  cosy::Analyzer analyzer(world.model, world.store, world.handles, &world.conn);
  const cosy::AnalysisReport report = analyzer.analyze(1);

  ASSERT_FALSE(report.findings.empty());
  // The paper's main property: total cost of the test run, at the program
  // region, ranks first.
  EXPECT_EQ(report.bottleneck()->property, "SublinearSpeedup");
  EXPECT_EQ(report.bottleneck()->context, "main");
  EXPECT_FALSE(report.tuned());

  // Severities are sorted non-increasing.
  for (std::size_t i = 1; i < report.findings.size(); ++i) {
    EXPECT_GE(report.findings[i - 1].result.severity,
              report.findings[i].result.severity);
  }

  // The imbalanced barrier shows up as SyncCost at the step region and as
  // LoadImbalance at the barrier call site (the paper's refinement chain).
  const cosy::Finding* sync = find(report, "SyncCost", "main.time_loop.step");
  ASSERT_NE(sync, nullptr);
  EXPECT_GT(sync->result.severity, 0.01);
  bool load_imbalance_at_barrier = false;
  for (const cosy::Finding& finding : report.findings) {
    if (finding.property == "LoadImbalance" &&
        finding.context.find("barrier @ main.time_loop.step") !=
            std::string::npos) {
      load_imbalance_at_barrier = true;
    }
  }
  EXPECT_TRUE(load_imbalance_at_barrier);

  // MeasuredCost at main explains most of the total cost; UnmeasuredCost
  // covers the (smaller) rest.
  const cosy::Finding* total = find(report, "SublinearSpeedup", "main");
  const cosy::Finding* measured = find(report, "MeasuredCost", "main");
  ASSERT_NE(measured, nullptr);
  EXPECT_GT(measured->result.severity, 0.3 * total->result.severity);
}

TEST(Analyzer, ScalableAppIsTunedAtLowThreshold) {
  World world(perf::workloads::scalable_stencil(), {1, 4});
  cosy::Analyzer analyzer(world.model, world.store, world.handles);
  cosy::AnalyzerConfig config;
  config.problem_threshold = 0.3;
  const cosy::AnalysisReport report = analyzer.analyze(1, config);
  // Properties may hold (there is *some* overhead), but nothing crosses the
  // problem threshold: "the program does not need any further tuning".
  EXPECT_TRUE(report.tuned());
  EXPECT_TRUE(report.problems().empty());
}

TEST(Analyzer, ReferenceRunHasNoSublinearSpeedup) {
  World world(perf::workloads::imbalanced_ocean(), {1, 16});
  cosy::Analyzer analyzer(world.model, world.store, world.handles);
  const cosy::AnalysisReport report = analyzer.analyze(0);  // the 1-PE run
  EXPECT_EQ(find(report, "SublinearSpeedup", "main"), nullptr);
}

TEST(Analyzer, StrategiesAgree) {
  World world(perf::workloads::imbalanced_ocean(), {1, 8});
  cosy::Analyzer analyzer(world.model, world.store, world.handles, &world.conn);

  cosy::AnalyzerConfig interp_config;
  cosy::AnalyzerConfig sql_config;
  sql_config.backend = "sql-pushdown";
  cosy::AnalyzerConfig fetch_config;
  fetch_config.backend = "client-fetch";
  cosy::AnalyzerConfig bulk_config;
  bulk_config.backend = "bulk-fetch";

  const cosy::AnalysisReport a = analyzer.analyze(1, interp_config);
  const cosy::AnalysisReport b = analyzer.analyze(1, sql_config);
  const cosy::AnalysisReport c = analyzer.analyze(1, fetch_config);
  const cosy::AnalysisReport d = analyzer.analyze(1, bulk_config);

  ASSERT_EQ(a.findings.size(), b.findings.size());
  ASSERT_EQ(a.findings.size(), c.findings.size());
  ASSERT_EQ(a.findings.size(), d.findings.size());
  for (std::size_t i = 0; i < a.findings.size(); ++i) {
    EXPECT_EQ(a.findings[i].property, b.findings[i].property);
    EXPECT_EQ(a.findings[i].context, b.findings[i].context);
    EXPECT_NEAR(a.findings[i].result.severity, b.findings[i].result.severity,
                1e-9);
    EXPECT_EQ(a.findings[i].property, c.findings[i].property);
    EXPECT_NEAR(a.findings[i].result.severity, c.findings[i].result.severity,
                1e-9);
    EXPECT_EQ(a.findings[i].property, d.findings[i].property);
    EXPECT_NEAR(a.findings[i].result.severity, d.findings[i].result.severity,
                1e-9);
  }
  // Record-at-a-time client fetch issues the most statements; pushdown
  // compacts them; bulk fetch needs only one scan per table.
  EXPECT_GT(c.sql_queries, b.sql_queries);
  EXPECT_GT(b.sql_queries, d.sql_queries);
  EXPECT_GT(d.sql_queries, 0u);
}

TEST(Analyzer, ParallelEvaluationIsDeterministic) {
  World world(perf::workloads::imbalanced_ocean(), {1, 16});
  cosy::Analyzer analyzer(world.model, world.store, world.handles);
  cosy::AnalyzerConfig serial_config;
  serial_config.threads = 1;
  cosy::AnalyzerConfig parallel_config;
  parallel_config.threads = 0;  // one worker per hardware thread
  const cosy::AnalysisReport a = analyzer.analyze(1, serial_config);
  const cosy::AnalysisReport b = analyzer.analyze(1, parallel_config);
  ASSERT_EQ(a.findings.size(), b.findings.size());
  for (std::size_t i = 0; i < a.findings.size(); ++i) {
    EXPECT_EQ(a.findings[i].property, b.findings[i].property);
    EXPECT_EQ(a.findings[i].context, b.findings[i].context);
    EXPECT_EQ(a.findings[i].result.severity, b.findings[i].result.severity);
  }
  EXPECT_EQ(a.to_table(0), b.to_table(0));
}

TEST(Analyzer, SqlStrategyWithoutConnectionThrows) {
  World world(perf::workloads::scalable_stencil(), {1, 2});
  cosy::Analyzer analyzer(world.model, world.store, world.handles, nullptr);
  cosy::AnalyzerConfig config;
  config.backend = "sql-pushdown";
  EXPECT_THROW((void)analyzer.analyze(1, config), kojak::support::EvalError);
}

TEST(Analyzer, BadRunIndexThrows) {
  World world(perf::workloads::scalable_stencil(), {1, 2});
  cosy::Analyzer analyzer(world.model, world.store, world.handles);
  EXPECT_THROW((void)analyzer.analyze(7), kojak::support::EvalError);
}

TEST(Analyzer, CustomBasisRegion) {
  World world(perf::workloads::imbalanced_ocean(), {1, 16});
  cosy::Analyzer analyzer(world.model, world.store, world.handles);
  cosy::AnalyzerConfig config;
  config.basis_region = "main.time_loop";
  const cosy::AnalysisReport report = analyzer.analyze(1, config);
  // Normalizing by a smaller basis raises severities.
  const cosy::Finding* sync =
      find(report, "SyncCost", "main.time_loop.step");
  ASSERT_NE(sync, nullptr);
  cosy::AnalyzerConfig default_config;
  const cosy::AnalysisReport base = analyzer.analyze(1, default_config);
  const cosy::Finding* base_sync =
      find(base, "SyncCost", "main.time_loop.step");
  ASSERT_NE(base_sync, nullptr);
  EXPECT_GT(sync->result.severity, base_sync->result.severity);
  EXPECT_THROW((void)[&] {
    cosy::AnalyzerConfig bad;
    bad.basis_region = "nope";
    return analyzer.analyze(1, bad);
  }(), kojak::support::EvalError);
}

TEST(Analyzer, ReportRendering) {
  World world(perf::workloads::imbalanced_ocean(), {1, 16});
  cosy::Analyzer analyzer(world.model, world.store, world.handles);
  const cosy::AnalysisReport report = analyzer.analyze(1);
  const std::string table = report.to_table(5);
  EXPECT_NE(table.find("SublinearSpeedup"), std::string::npos);
  EXPECT_NE(table.find("bottleneck:"), std::string::npos);
  EXPECT_NE(table.find("severity"), std::string::npos);
}

TEST(Analyzer, NotApplicableContextsAreAudited) {
  // A store with a region that has no timings at all: UNIQUE gaps must land
  // in not_applicable, not crash the analysis.
  World world(perf::workloads::imbalanced_ocean(), {1, 4});
  const asl::ObjectId ghost = world.store.create("Region");
  world.store.set_attr(ghost, "Name", asl::RtValue::of_string("ghost"));
  world.store.set_attr(ghost, "Kind", asl::RtValue::of_string("Loop"));
  auto handles = world.handles;
  handles.regions["ghost"] = ghost;
  cosy::Analyzer analyzer(world.model, world.store, handles);
  const cosy::AnalysisReport report = analyzer.analyze(1);
  bool ghost_not_applicable = false;
  for (const cosy::Finding& finding : report.not_applicable) {
    if (finding.context == "ghost") ghost_not_applicable = true;
  }
  EXPECT_TRUE(ghost_not_applicable);
}

TEST(Analyzer, ContextCount) {
  World world(perf::workloads::imbalanced_ocean(), {1, 4});
  cosy::Analyzer analyzer(world.model, world.store, world.handles);
  // 11 region properties x 11 regions + 2 call properties x 3 sites.
  EXPECT_EQ(analyzer.context_count(), 11u * 11u + 2u * 3u);
}

// ---------------------------------------------------------------------------
// Paradyn baseline

TEST(Paradyn, FixedHypothesisSet) {
  const auto names = cosy::baseline::ParadynSearch::hypotheses();
  EXPECT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "CPUbound");
}

TEST(Paradyn, FindsSyncOnOcean) {
  World world(perf::workloads::imbalanced_ocean(), {1, 16});
  cosy::baseline::ParadynSearch search;
  const auto findings = search.search(world.data, 1);
  bool sync_found = false;
  for (const auto& finding : findings) {
    if (finding.hypothesis == "ExcessiveSyncWaitingTime") sync_found = true;
    EXPECT_GT(finding.value, finding.threshold);
  }
  EXPECT_TRUE(sync_found);
}

TEST(Paradyn, RefinesIntoRegions) {
  World world(perf::workloads::io_heavy(), {1, 8});
  cosy::baseline::ParadynSearch search;
  const auto findings = search.search(world.data, 1);
  bool refined = false;
  for (const auto& finding : findings) {
    if (finding.hypothesis == "ExcessiveIOBlockingTime" && finding.depth > 0) {
      refined = true;
      EXPECT_NE(finding.focus, "main");
    }
  }
  EXPECT_TRUE(refined);
}

TEST(Paradyn, CpuBoundOnScalableApp) {
  World world(perf::workloads::scalable_stencil(), {1, 2});
  cosy::baseline::ParadynSearch search;
  const auto findings = search.search(world.data, 1);
  bool cpu_bound = false;
  for (const auto& finding : findings) {
    if (finding.hypothesis == "CPUbound" && finding.focus == "main") {
      cpu_bound = true;
    }
  }
  EXPECT_TRUE(cpu_bound);
}

TEST(Paradyn, BadRunIndexThrows) {
  World world(perf::workloads::scalable_stencil(), {1});
  cosy::baseline::ParadynSearch search;
  EXPECT_THROW((void)search.search(world.data, 3), kojak::support::EvalError);
}

// ---------------------------------------------------------------------------
// EARL baseline

TEST(Earl, FindsBarrierImbalanceInTrace) {
  const auto trace =
      perf::generate_trace(perf::workloads::imbalanced_ocean(), 8);
  cosy::baseline::EarlAnalyzer earl;
  const auto results = earl.analyze(trace);
  ASSERT_EQ(results.size(), 3u);
  const auto& barrier = results[0];
  EXPECT_EQ(barrier.pattern, "barrier_imbalance");
  EXPECT_GT(barrier.matches, 0u);
  EXPECT_GT(barrier.total_ms, 0.0);
}

TEST(Earl, IoBlockingDetected) {
  const auto trace = perf::generate_trace(perf::workloads::io_heavy(), 4);
  cosy::baseline::EarlAnalyzer earl;
  const auto results = earl.analyze(trace);
  EXPECT_GT(results[2].matches, 0u);
}

TEST(Earl, EmptyTrace) {
  cosy::baseline::EarlAnalyzer earl;
  const auto results = earl.analyze({});
  for (const auto& result : results) {
    EXPECT_EQ(result.matches, 0u);
    EXPECT_DOUBLE_EQ(result.total_ms, 0.0);
  }
}

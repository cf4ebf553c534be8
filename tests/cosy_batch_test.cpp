// The batch analysis engine and the compiled-plan cache: parallel multi-run
// evaluation must be byte-identical to the sequential per-run loop (for any
// thread count), and the plan cache must trade repeated property->SQL
// translation for cache hits without changing a single finding.

#include <gtest/gtest.h>

#include "asl/sema.hpp"
#include "cosy/analyzer.hpp"
#include "cosy/batch.hpp"
#include "cosy/db_import.hpp"
#include "cosy/schema_gen.hpp"
#include "cosy/specs.hpp"
#include "cosy/sql_eval.hpp"
#include "perf/simulator.hpp"
#include "perf/workloads.hpp"
#include "support/error.hpp"
#include "support/str.hpp"

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

  explicit World(std::vector<int> pes = {1, 4, 16}) {
    const perf::ExperimentData data =
        perf::simulate_experiment(perf::workloads::imbalanced_ocean(), pes);
    handles = cosy::build_store(store, data);
    cosy::create_schema(database, model);
    db::Connection import_conn(database, db::ConnectionProfile::in_memory());
    cosy::import_store(import_conn, store);
  }
};

/// Byte-exact serialization of everything a report says.
std::string render(const cosy::AnalysisReport& report) {
  std::string out = report.to_table(1000);
  for (const cosy::Finding& f : report.not_applicable) {
    out += kojak::support::cat(f.property, "@", f.context, "!", f.result.note,
                               "\n");
  }
  return out;
}

std::string render(const cosy::BatchResult& result) {
  std::string out;
  for (const cosy::BatchItem& item : result.items) {
    out += kojak::support::cat("[", item.suite, "/", item.run_index, "]\n",
                               render(item.report));
  }
  // The analytical part of the summary (worst contexts, regressions) must
  // be deterministic too; engine telemetry (wall ms, session counts) is not
  // part of the contract.
  for (const auto& w : result.summary.worst) {
    out += kojak::support::cat("W ", w.suite, " ", w.property, "@", w.context,
                               " run=", w.run_index, " pe=", w.pe_count, " s=",
                               kojak::support::format_double(w.severity), "\n");
  }
  for (const auto& r : result.summary.regressions) {
    out += kojak::support::cat("R ", r.suite, " ", r.property, "@", r.context,
                               " ", r.from_run, "->", r.to_run, " ",
                               kojak::support::format_double(r.severity_before),
                               "->",
                               kojak::support::format_double(r.severity_after),
                               "\n");
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Plan cache

TEST(PlanCache, CachedAnalysisIsIdenticalAndHits) {
  World world;
  db::Connection conn(world.database, db::ConnectionProfile::in_memory());
  cosy::Analyzer analyzer(world.model, world.store, world.handles, &conn);

  cosy::AnalyzerConfig plain;
  plain.backend = "sql-pushdown";
  const cosy::AnalysisReport base = analyzer.analyze(2, plain);

  cosy::PlanCache cache(world.model);
  cosy::AnalyzerConfig cached = plain;
  cached.plan_cache = &cache;
  const cosy::AnalysisReport first = analyzer.analyze(2, cached);

  // Same findings, byte for byte; every property's translation ran once
  // (misses == distinct plans), everything else was a hit.
  EXPECT_EQ(render(base), render(first));
  EXPECT_GT(first.plan_cache_hits, 0u);
  EXPECT_GT(first.plan_cache_misses, 0u);
  EXPECT_EQ(first.plan_cache_misses, cache.size());
  EXPECT_GT(first.plan_cache_hits, first.plan_cache_misses);
  // Without a shared cache the evaluator caches in its own: the same
  // traffic as a fresh shared cache.
  EXPECT_EQ(base.plan_cache_hits, first.plan_cache_hits);
  EXPECT_EQ(base.plan_cache_misses, first.plan_cache_misses);

  // A second run over warm plans translates nothing at all.
  const cosy::AnalysisReport second = analyzer.analyze(1, cached);
  EXPECT_EQ(second.plan_cache_misses, 0u);
  EXPECT_GT(second.plan_cache_hits, 0u);
  EXPECT_EQ(render(analyzer.analyze(1, plain)), render(second));
  EXPECT_GT(cache.stats().hit_rate(), 0.5);
}

TEST(PlanCache, ClientFetchModeCachesToo) {
  World world;
  db::Connection conn(world.database, db::ConnectionProfile::in_memory());
  cosy::Analyzer analyzer(world.model, world.store, world.handles, &conn);

  cosy::PlanCache cache(world.model);
  cosy::AnalyzerConfig plain;
  plain.backend = "client-fetch";
  cosy::AnalyzerConfig cached = plain;
  cached.plan_cache = &cache;
  EXPECT_EQ(render(analyzer.analyze(1, plain)),
            render(analyzer.analyze(1, cached)));
  EXPECT_GT(cache.stats().hits, 0u);
}

TEST(PlanCache, RejectsForeignModel) {
  World world;
  db::Connection conn(world.database, db::ConnectionProfile::in_memory());
  // A cache built against a structurally different model must not be
  // attachable: its plans point into another AST.
  const asl::Model other = asl::load_model({"class Lone { int X; }"});
  cosy::PlanCache foreign(other);
  EXPECT_THROW(
      cosy::SqlEvaluator(world.model, conn, cosy::SqlEvalMode::kPushdown,
                         &foreign),
      kojak::support::EvalError);
}

TEST(PlanCache, RejectsReloadedModelInstance) {
  // Even a model reloaded from the same documents is rejected: equal
  // fingerprint, but the cached plans point into the *other* instance's
  // AST — accepting it would be a use-after-free waiting to happen.
  World world;
  db::Connection conn(world.database, db::ConnectionProfile::in_memory());
  const asl::Model reloaded = cosy::load_cosy_model();
  ASSERT_EQ(world.model.fingerprint(), reloaded.fingerprint());
  cosy::PlanCache stale(reloaded);
  EXPECT_THROW(
      cosy::SqlEvaluator(world.model, conn, cosy::SqlEvalMode::kPushdown,
                         &stale),
      kojak::support::EvalError);
}

TEST(PlanCache, FingerprintTracksSpecContent) {
  const asl::Model a = cosy::load_cosy_model();
  const asl::Model b = cosy::load_cosy_model();
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  const asl::Model c = cosy::load_cosy_model(/*extended=*/false);
  EXPECT_NE(a.fingerprint(), c.fingerprint());
}

// ---------------------------------------------------------------------------
// Batch engine

TEST(BatchAnalyzer, MatchesSequentialLoopByteForByte) {
  World world;
  db::Connection conn(world.database, db::ConnectionProfile::in_memory());
  cosy::Analyzer sequential(world.model, world.store, world.handles, &conn);
  cosy::AnalyzerConfig seq_config;
  seq_config.backend = "sql-pushdown";

  db::ConnectionPool pool(world.database, db::ConnectionProfile::in_memory(),
                          4);
  cosy::BatchAnalyzer batch(world.model, world.store, world.handles, &pool);
  cosy::BatchConfig config;
  config.threads = 4;
  const cosy::BatchResult result = batch.analyze_all(config);

  ASSERT_EQ(result.items.size(), world.handles.runs.size());
  for (std::size_t run = 0; run < world.handles.runs.size(); ++run) {
    EXPECT_EQ(result.items[run].run_index, run);
    EXPECT_EQ(render(sequential.analyze(run, seq_config)),
              render(result.items[run].report))
        << "run " << run;
  }
  EXPECT_GT(result.summary.plan_cache_hits, 0u);
  EXPECT_GT(result.summary.plan_cache_hit_rate(), 0.5);
}

TEST(BatchAnalyzer, DeterministicAcrossThreadCounts) {
  World world;
  std::string reference;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    db::ConnectionPool pool(world.database, db::ConnectionProfile::postgres(),
                            threads);
    cosy::BatchAnalyzer batch(world.model, world.store, world.handles, &pool);
    cosy::BatchConfig config;
    config.threads = threads;
    const cosy::BatchResult result = batch.analyze_all(config);
    const std::string rendered = render(result);
    if (reference.empty()) {
      reference = rendered;
    } else {
      EXPECT_EQ(reference, rendered) << "threads=" << threads;
    }
  }
}

TEST(BatchAnalyzer, RunsTimesSuitesGrid) {
  World world;
  db::ConnectionPool pool(world.database, db::ConnectionProfile::in_memory(),
                          2);
  cosy::BatchAnalyzer batch(world.model, world.store, world.handles, &pool);

  const std::vector<cosy::PropertySuite> suites = {
      {"paper",
       {"SublinearSpeedup", "MeasuredCost", "UnmeasuredCost", "SyncCost",
        "LoadImbalance"}},
      {"communication", {"MessagePassingCost", "CollectiveCost"}},
  };
  const std::vector<std::size_t> runs = {1, 2};
  cosy::BatchConfig config;
  config.threads = 2;
  const cosy::BatchResult result = batch.analyze_runs(runs, suites, config);

  ASSERT_EQ(result.items.size(), 4u);  // 2 suites x 2 runs
  const cosy::AnalysisReport* paper = result.report_for(1, "paper");
  ASSERT_NE(paper, nullptr);
  const cosy::AnalysisReport* comm = result.report_for(1, "communication");
  ASSERT_NE(comm, nullptr);
  // Suites saw only their own properties.
  for (const cosy::Finding& f : comm->findings) {
    EXPECT_TRUE(f.property == "MessagePassingCost" ||
                f.property == "CollectiveCost")
        << f.property;
  }
  bool paper_has_sls = false;
  for (const cosy::Finding& f : paper->findings) {
    if (f.property == "SublinearSpeedup") paper_has_sls = true;
  }
  EXPECT_TRUE(paper_has_sls);
  EXPECT_EQ(result.report_for(3, "paper"), nullptr);
}

TEST(BatchAnalyzer, UnknownSuitePropertyThrows) {
  World world;
  db::ConnectionPool pool(world.database, db::ConnectionProfile::in_memory(),
                          2);
  cosy::BatchAnalyzer batch(world.model, world.store, world.handles, &pool);
  const std::vector<cosy::PropertySuite> suites = {{"bad", {"NoSuchProp"}}};
  const std::vector<std::size_t> runs = {1};
  EXPECT_THROW((void)batch.analyze_runs(runs, suites, {}),
               kojak::support::EvalError);
}

TEST(BatchAnalyzer, SqlStrategyWithoutPoolThrows) {
  World world;
  cosy::BatchAnalyzer batch(world.model, world.store, world.handles, nullptr);
  EXPECT_THROW((void)batch.analyze_all({}), kojak::support::EvalError);
}

TEST(BatchAnalyzer, InterpreterStrategyNeedsNoPool) {
  World world;
  cosy::BatchAnalyzer batch(world.model, world.store, world.handles, nullptr);
  cosy::BatchConfig config;
  config.backend = "interpreter";
  config.threads = 2;
  const cosy::BatchResult result = batch.analyze_all(config);
  EXPECT_EQ(result.items.size(), world.handles.runs.size());
  EXPECT_EQ(result.summary.sql_queries, 0u);
}

TEST(BatchAnalyzer, SummaryFindsScalingRegressions) {
  // The imbalanced app gets worse with PE count: the cross-run summary must
  // say so, and the worst context must be the flagship bottleneck at the
  // largest run.
  World world({1, 4, 16});
  db::ConnectionPool pool(world.database, db::ConnectionProfile::in_memory(),
                          2);
  cosy::BatchAnalyzer batch(world.model, world.store, world.handles, &pool);
  cosy::BatchConfig config;
  config.threads = 2;
  const cosy::BatchResult result = batch.analyze_all(config);

  ASSERT_FALSE(result.summary.worst.empty());
  EXPECT_EQ(result.summary.worst.front().property, "SublinearSpeedup");
  EXPECT_EQ(result.summary.worst.front().context, "main");
  EXPECT_EQ(result.summary.worst.front().run_index, 2u);
  EXPECT_EQ(result.summary.worst.front().pe_count, 16);

  ASSERT_FALSE(result.summary.regressions.empty());
  bool total_cost_regressed = false;
  for (const cosy::Regression& regression : result.summary.regressions) {
    EXPECT_GT(regression.delta(), 0.0);
    if (regression.property == "SublinearSpeedup" &&
        regression.context == "main") {
      total_cost_regressed = true;
    }
  }
  EXPECT_TRUE(total_cost_regressed);

  const std::string table = result.summary.to_table();
  EXPECT_NE(table.find("worst contexts"), std::string::npos);
  EXPECT_NE(table.find("SublinearSpeedup"), std::string::npos);
  EXPECT_NE(table.find("hit rate"), std::string::npos);
}

TEST(BatchAnalyzer, CallerOwnedPlanCachePersistsAcrossBatches) {
  // The ROADMAP follow-up: a long-lived service hands the batch engine its
  // own PlanCache, and every batch reports its traffic on it (as a delta)
  // in the cross-run summary.
  World world;
  cosy::PlanCache cache(world.model);
  db::ConnectionPool pool(world.database, db::ConnectionProfile::in_memory(),
                          2);
  cosy::BatchAnalyzer batch(world.model, world.store, world.handles, &pool);
  cosy::BatchConfig config;
  config.threads = 2;
  config.plan_cache = &cache;

  const cosy::BatchResult first = batch.analyze_all(config);
  EXPECT_GT(first.summary.shared_cache.misses, 0u);
  EXPECT_GT(first.summary.shared_cache.hits, 0u);
  EXPECT_EQ(first.summary.shared_cache_plans, cache.size());
  EXPECT_GT(first.summary.shared_cache.hit_rate(), 0.5);

  // A second batch over the warm cache compiles nothing: the summary's
  // delta semantics make that visible even though the cache's lifetime
  // counters keep growing.
  const cosy::BatchResult second = batch.analyze_all(config);
  EXPECT_EQ(second.summary.shared_cache.misses, 0u);
  EXPECT_GT(second.summary.shared_cache.hits, 0u);
  EXPECT_EQ(second.summary.plan_cache_misses, 0u);
  EXPECT_EQ(second.summary.shared_cache_plans,
            first.summary.shared_cache_plans);
  EXPECT_EQ(render(first), render(second));

  const std::string table = second.summary.to_table();
  EXPECT_NE(table.find("shared plan cache"), std::string::npos);
  EXPECT_NE(table.find("compiled plans resident"), std::string::npos);
}

TEST(BatchAnalyzer, PoolSessionsAreReusedAcrossTasks) {
  World world({1, 2, 4, 8, 16});
  db::ConnectionPool pool(world.database, db::ConnectionProfile::postgres(),
                          2);
  cosy::BatchAnalyzer batch(world.model, world.store, world.handles, &pool);
  cosy::BatchConfig config;
  config.threads = 2;
  const cosy::BatchResult result = batch.analyze_all(config);
  // 5 tasks over 2 sessions: every task acquired, at most 2 sessions exist.
  EXPECT_EQ(result.summary.pool.acquires, 5u);
  EXPECT_LE(result.summary.pooled_connections, 2u);
  EXPECT_GE(result.summary.pool.reuses, 3u);
  // The makespan of two busy sessions beats the serial-equivalent total.
  EXPECT_LT(result.summary.backend_makespan_ms,
            result.summary.backend_total_ms);
}

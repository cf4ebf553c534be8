// The pluggable evaluation-backend seam: registry behavior, the
// whole-condition backends pinned differentially against the interpreter
// across every connection profile, every backend at 1, 2 and 8 workers, the
// exact one-statement-per-context contract of whole-condition compilation
// (paper §6), and its site-wise fallback path.

#include <gtest/gtest.h>

#include <algorithm>

#include "asl/interp.hpp"
#include "asl/sema.hpp"
#include "cosy/analyzer.hpp"
#include "cosy/batch.hpp"
#include "cosy/db_import.hpp"
#include "cosy/eval_backend.hpp"
#include "cosy/schema_gen.hpp"
#include "cosy/specs.hpp"
#include "cosy/sql_eval.hpp"
#include "cosy/store_builder.hpp"
#include "perf/simulator.hpp"
#include "perf/workloads.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/str.hpp"

namespace asl = kojak::asl;
namespace cosy = kojak::cosy;
namespace db = kojak::db;
namespace perf = kojak::perf;
using asl::PropertyResult;
using asl::RtValue;
using kojak::support::EvalError;

namespace {

struct World {
  asl::Model model = cosy::load_cosy_model();
  asl::ObjectStore store{model};
  cosy::StoreHandles handles;
  db::Database database;

  explicit World(const perf::AppSpec& app, std::vector<int> pes,
                 std::uint64_t seed = 1) {
    perf::SimulationOptions options;
    options.seed = seed;
    const perf::ExperimentData data =
        perf::simulate_experiment(app, pes, options);
    handles = cosy::build_store(store, data);
    cosy::create_schema(database, model);
    db::Connection import_conn(database, db::ConnectionProfile::in_memory());
    cosy::import_store(import_conn, store);
  }
};

/// Deterministic rendering that different backend families must agree on:
/// the full ranked findings table plus the (property, context) set of
/// not-applicable audits. Notes are excluded on purpose — an interpreter
/// explains a data gap differently than a SQL backend, and the contract is
/// about statuses and numbers, not prose.
std::string render_findings(const cosy::AnalysisReport& report) {
  std::string out = report.to_table(0);
  for (const cosy::Finding& f : report.not_applicable) {
    out += kojak::support::cat("NA ", f.property, "@", f.context, "\n");
  }
  return out;
}

/// Byte-exact rendering (including not-applicable notes) for backends that
/// promise full identity, e.g. any backend at any worker count.
std::string render_exact(const cosy::AnalysisReport& report) {
  std::string out = report.to_table(0);
  for (const cosy::Finding& f : report.not_applicable) {
    out += kojak::support::cat("NA ", f.property, "@", f.context, "!",
                               f.result.note, "\n");
  }
  return out;
}

void expect_same(const PropertyResult& a, const PropertyResult& b,
                 const std::string& what) {
  EXPECT_EQ(a.status, b.status) << what << " (a note: " << a.note
                                << ", b note: " << b.note << ")";
  if (a.status == PropertyResult::Status::kHolds &&
      b.status == PropertyResult::Status::kHolds) {
    EXPECT_EQ(a.matched_condition, b.matched_condition) << what;
    EXPECT_NEAR(a.confidence, b.confidence, 1e-9) << what;
    const double tolerance = 1e-9 * std::max(1.0, std::abs(a.severity));
    EXPECT_NEAR(a.severity, b.severity, tolerance) << what;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Registry

TEST(EvalBackendRegistry, ListsAllBuiltins) {
  // The exact built-in set, sorted, with whether each needs a connection:
  // adding or removing a backend must edit this list. Test doubles this
  // binary registers carry a "test-" prefix and are not built-ins.
  const std::vector<std::pair<std::string, bool>> builtins = {
      {"bulk-fetch", true},
      {"client-fetch", true},
      {"interpreter", false},
      {"sql-pushdown", true},
      {"sql-whole-condition", true},
      {"sql-whole-condition-plain", true},
  };
  std::vector<std::string> names = cosy::EvalBackend::names();
  std::erase_if(names, [](const std::string& name) {
    return name.starts_with("test-");
  });
  std::vector<std::string> expected;
  for (const auto& [name, needs_connection] : builtins) {
    expected.push_back(name);
    EXPECT_TRUE(cosy::EvalBackend::exists(name)) << name;
    EXPECT_FALSE(cosy::EvalBackend::describe(name).empty()) << name;
    EXPECT_EQ(cosy::EvalBackend::requires_connection(name), needs_connection)
        << name;
  }
  EXPECT_EQ(names, expected);
}

TEST(EvalBackendRegistry, UnknownNamesThrowListingAvailable) {
  World world(perf::workloads::scalable_stencil(), {1, 2});
  cosy::EvalBackendDeps deps;
  deps.model = &world.model;
  deps.store = &world.store;
  EXPECT_THROW((void)cosy::EvalBackend::create("no-such-backend", deps),
               EvalError);
  try {
    (void)cosy::EvalBackend::create("no-such-backend", deps);
    FAIL() << "expected EvalError";
  } catch (const EvalError& error) {
    // The message must name what *is* available.
    EXPECT_NE(std::string(error.what()).find("sql-whole-condition"),
              std::string::npos)
        << error.what();
  }
  EXPECT_THROW((void)cosy::EvalBackend::requires_connection("nope"),
               EvalError);
  EXPECT_FALSE(cosy::EvalBackend::exists("nope"));

  // Missing dependencies are rejected with the backend's name.
  cosy::EvalBackendDeps no_conn;
  no_conn.model = &world.model;
  EXPECT_THROW((void)cosy::EvalBackend::create("sql-whole-condition", no_conn),
               EvalError);
  cosy::EvalBackendDeps no_store;
  no_store.model = &world.model;
  EXPECT_THROW((void)cosy::EvalBackend::create("interpreter", no_store),
               EvalError);
}

TEST(EvalBackendRegistry, AnalyzerRejectsUnknownBackendString) {
  World world(perf::workloads::scalable_stencil(), {1, 2});
  cosy::Analyzer analyzer(world.model, world.store, world.handles);
  cosy::AnalyzerConfig config;
  config.backend = "definitely-not-registered";
  EXPECT_THROW((void)analyzer.analyze(1, config), EvalError);
}

namespace {

/// A user-registered backend: everything evaluates to "does not hold". The
/// open seam the redesign exists for — no analyzer edits required.
class NothingHoldsBackend final : public cosy::EvalBackend {
 public:
  explicit NothingHoldsBackend(const cosy::EvalBackendDeps& deps)
      : cosy::EvalBackend(deps) {}
  [[nodiscard]] std::string_view name() const noexcept override {
    return "test-nothing-holds";
  }
  [[nodiscard]] PropertyResult evaluate(
      const asl::PropertyInfo&, const std::vector<RtValue>&) override {
    PropertyResult result;
    result.status = PropertyResult::Status::kDoesNotHold;
    return result;
  }
};

}  // namespace

TEST(EvalBackendRegistry, UserBackendsPlugIntoTheAnalyzer) {
  cosy::EvalBackend::register_backend(
      {"test-nothing-holds", "test double: nothing ever holds",
       /*needs_store=*/false, /*needs_connection=*/false,
       [](const cosy::EvalBackendDeps& deps) {
         return std::make_unique<NothingHoldsBackend>(deps);
       }});
  World world(perf::workloads::imbalanced_ocean(), {1, 4});
  cosy::Analyzer analyzer(world.model, world.store, world.handles);
  cosy::AnalyzerConfig config;
  config.backend = "test-nothing-holds";
  const cosy::AnalysisReport report = analyzer.analyze(1, config);
  EXPECT_TRUE(report.findings.empty());
  EXPECT_TRUE(report.not_applicable.empty());
  EXPECT_TRUE(report.tuned());
}

// ---------------------------------------------------------------------------
// Report-surface fixes that ride along with the API redesign.

TEST(AnalysisReport, TableWithZeroCapShowsEveryFinding) {
  World world(perf::workloads::imbalanced_ocean(), {1, 16});
  cosy::Analyzer analyzer(world.model, world.store, world.handles);
  const cosy::AnalysisReport report = analyzer.analyze(1);
  ASSERT_GT(report.findings.size(), 3u);
  const std::string all = report.to_table(0);
  // The last-ranked finding must appear; under the old behavior a 0 cap
  // rendered an empty table.
  EXPECT_NE(all.find(report.findings.back().context), std::string::npos);
  EXPECT_NE(all.find(kojak::support::cat(report.findings.size())),
            std::string::npos);
  // tuned() agrees with the bottleneck it reports (computed once).
  ASSERT_NE(report.bottleneck(), nullptr);
  EXPECT_EQ(report.tuned(),
            report.bottleneck()->result.severity <= report.problem_threshold);
  EXPECT_EQ(report.problems().empty(), report.tuned());
}

// ---------------------------------------------------------------------------
// Whole-condition compilation (paper §6)

TEST(WholeCondition, EveryShippedPropertyIsCompilable) {
  // The whole-condition compiler is the only judge of what compiles:
  // explaining a property runs the compiler and throws its first blocker.
  const asl::Model model = cosy::load_cosy_model();
  db::Database database;
  cosy::create_schema(database, model);
  db::Connection conn(database, db::ConnectionProfile::in_memory());
  cosy::SqlEvaluator whole(model, conn, cosy::SqlEvalMode::kWholeCondition);
  EXPECT_EQ(model.properties().size(), 13u);  // 5 paper + 8 extended
  for (const asl::PropertyInfo& prop : model.properties()) {
    try {
      (void)whole.explain_whole_condition(prop);
    } catch (const EvalError& error) {
      ADD_FAILURE() << prop.name << ": " << error.what();
    }
  }
}

TEST(WholeCondition, ExactlyOneStatementPerContext) {
  World world(perf::workloads::imbalanced_ocean(), {1, 4, 16});
  db::Connection conn(world.database, db::ConnectionProfile::in_memory());
  cosy::Analyzer analyzer(world.model, world.store, world.handles, &conn);

  cosy::PlanCache cache(world.model);
  cosy::AnalyzerConfig config;
  config.backend = "sql-whole-condition";
  config.plan_cache = &cache;

  const std::uint64_t before = conn.statements_executed();
  const cosy::AnalysisReport report = analyzer.analyze(2, config);
  // The §6 contract: one statement per (property, context), no more.
  EXPECT_EQ(report.sql_queries, analyzer.context_count());
  EXPECT_EQ(conn.statements_executed() - before, report.sql_queries);
  // One compiled plan per property, shared across all its contexts.
  EXPECT_EQ(cache.size(), world.model.properties().size());
  EXPECT_EQ(report.plan_cache_misses, cache.size());
  EXPECT_GT(report.plan_cache_hits, report.plan_cache_misses);

  // A warm cache still issues one statement per context, compiling nothing.
  const cosy::AnalysisReport warm = analyzer.analyze(1, config);
  EXPECT_EQ(warm.sql_queries, analyzer.context_count());
  EXPECT_EQ(warm.plan_cache_misses, 0u);
}

TEST(WholeCondition, ExplainProducesOneFromlessSelect) {
  World world(perf::workloads::imbalanced_ocean(), {1, 4});
  db::Connection conn(world.database, db::ConnectionProfile::in_memory());
  cosy::SqlEvaluator plain(world.model, conn,
                           cosy::SqlEvalMode::kWholeCondition,
                           /*plan_cache=*/nullptr, /*common_subexpr=*/false);
  const asl::PropertyInfo* prop = world.model.find_property("SyncCost");
  ASSERT_NE(prop, nullptr);
  const std::string text = plain.explain_whole_condition(*prop);
  EXPECT_EQ(text.rfind("SELECT ", 0), 0u) << text;
  // LET probe + condition + confidence + severity = 4 columns, and the
  // typed-timing set appears as a scalar subquery with bound parameters.
  EXPECT_NE(text.find("COALESCE(SUM("), std::string::npos) << text;
  EXPECT_NE(text.find("FROM Region_TypTimes"), std::string::npos) << text;
  EXPECT_NE(text.find('?'), std::string::npos) << text;
  // No second statement: the whole surface lives in this one SELECT.
  EXPECT_EQ(text.find(';'), std::string::npos) << text;
}

TEST(WholeCondition, ExplainAnnotatesFusedVerdictPerStatement) {
  World world(perf::workloads::imbalanced_ocean(), {1, 4});
  db::Connection conn(world.database, db::ConnectionProfile::in_memory());
  cosy::SqlEvaluator cse(world.model, conn,
                         cosy::SqlEvalMode::kWholeCondition);
  const asl::PropertyInfo* prop = world.model.find_property("SyncCost");
  ASSERT_NE(prop, nullptr);
  const std::string text = cse.explain_whole_condition(*prop);
  // Every statement part carries a fused-eligibility note. The FROM-less
  // coordinator SELECT can never fuse.
  EXPECT_NE(text.find("-- fused: main: row path (no aggregation)"),
            std::string::npos)
      << text;
  // TODO(expr-vm): the dominant COSY shape — an aggregate over a
  // set-membership JOIN (cse0: SUM(b.T) FROM <set> j JOIN <elem> b ON
  // b.id = j.member WHERE j.owner = ?) — still declines, because the fused
  // evaluator takes exactly one base table. Widening eligibility to this
  // two-table membership shape is the named next step for the expression
  // VM; update this pin when that lands.
  EXPECT_NE(
      text.find("-- fused: cse0: row path (not a single columnar base table)"),
      std::string::npos)
      << text;
}

TEST(WholeCondition, CseHoistsSharedSubexpressionsIntoCtes) {
  World world(perf::workloads::imbalanced_ocean(), {1, 4});
  db::Connection conn(world.database, db::ConnectionProfile::in_memory());
  cosy::SqlEvaluator cse(world.model, conn,
                         cosy::SqlEvalMode::kWholeCondition);
  cosy::SqlEvaluator plain(world.model, conn,
                           cosy::SqlEvalMode::kWholeCondition,
                           /*plan_cache=*/nullptr, /*common_subexpr=*/false);
  const asl::PropertyInfo* prop = world.model.find_property("SyncCost");
  ASSERT_NE(prop, nullptr);

  const std::string with_cse = cse.explain_whole_condition(*prop);
  const std::string without = plain.explain_whole_condition(*prop);
  // The shared LET subquery (probe + condition + severity all reference the
  // Barrier SUM) compiles into one named CTE, referenced per occurrence.
  EXPECT_EQ(with_cse.rfind("WITH cse0 AS (SELECT ", 0), 0u) << with_cse;
  EXPECT_NE(with_cse.find("(SELECT v FROM cse0)"), std::string::npos)
      << with_cse;
  // Deduplication is real: shorter text, strictly fewer bound parameters.
  EXPECT_LT(with_cse.size(), without.size());
  const auto params_of = [](const std::string& text) {
    return std::count(text.begin(), text.end(), '?');
  };
  EXPECT_LT(params_of(with_cse), params_of(without)) << with_cse;
  // Still one statement.
  EXPECT_EQ(with_cse.find(';'), std::string::npos) << with_cse;
}

TEST(WholeCondition, CseSharedSubexpressionExecutesOncePerContext) {
  // The tentpole contract, pinned on the executor's own counters: every
  // CSE-hoisted subexpression materializes exactly once per (property,
  // context) evaluation — one CTE materialization per WITH entry, no
  // re-execution per referencing column.
  World world(perf::workloads::imbalanced_ocean(), {1, 4});
  db::Connection conn(world.database, db::ConnectionProfile::in_memory());
  cosy::PlanCache cache(world.model);
  cosy::SqlEvaluator whole(world.model, conn,
                           cosy::SqlEvalMode::kWholeCondition, &cache);
  const asl::PropertyInfo* prop = world.model.find_property("SyncCost");
  ASSERT_NE(prop, nullptr);

  const std::string text = whole.explain_whole_condition(*prop);
  std::size_t ctes = 0;
  for (std::size_t pos = text.find(" AS (SELECT ");
       pos != std::string::npos; pos = text.find(" AS (SELECT ", pos + 1)) {
    ++ctes;
  }
  ASSERT_GE(ctes, 1u) << text;
  // cse0 is referenced more than once — that is why it was hoisted.
  std::size_t refs = 0;
  for (std::size_t pos = text.find("(SELECT v FROM cse0)");
       pos != std::string::npos;
       pos = text.find("(SELECT v FROM cse0)", pos + 1)) {
    ++refs;
  }
  EXPECT_GE(refs, 2u) << text;

  const asl::ObjectId region = world.handles.regions.begin()->second;
  const asl::ObjectId run = world.handles.runs[1];
  const std::vector<RtValue> args = {RtValue::of_object(region),
                                     RtValue::of_object(run),
                                     RtValue::of_object(region)};
  (void)whole.evaluate_property(*prop, args);  // warm plan + statement
  for (int i = 0; i < 3; ++i) {
    const auto before = world.database.exec_stats();
    (void)whole.evaluate_property(*prop, args);
    const auto after = world.database.exec_stats();
    // Exactly one materialization per WITH entry per evaluation: each
    // shared subexpression ran once for this (property, context).
    EXPECT_EQ(after.cte_materializations - before.cte_materializations, ctes)
        << "iteration " << i;
  }
}

TEST(WholeCondition, CseNamesAvoidModelTableCollisions) {
  // A model may legally declare a class named like a generated CTE; the
  // compiler must rename its CTEs (bind_sources resolves CTE names before
  // the catalog, so a collision would shadow the class table) and the
  // results must still match the interpreter without falling back.
  const asl::Model model = asl::load_model({R"(
    class cse0 { float V; }
    class Holder { String Name; setof cse0 Items; }
    Property SharedSum(Holder h) {
      LET float s = SUM(i.V WHERE i IN h.Items);
      IN
      CONDITION: s > 1.0;
      CONFIDENCE: 1;
      SEVERITY: s;
    };
  )"});

  asl::ObjectStore store(model);
  const asl::ObjectId holder = store.create("Holder");
  store.set_attr(holder, "Name", RtValue::of_string("h"));
  for (const double v : {1.5, 2.5}) {
    const asl::ObjectId item = store.create("cse0");
    store.set_attr(item, "V", RtValue::of_float(v));
    store.add_to_set(holder, "Items", item);
  }
  db::Database database;
  cosy::create_schema(database, model);
  db::Connection conn(database, db::ConnectionProfile::in_memory());
  cosy::import_store(conn, store);

  cosy::SqlEvaluator whole(model, conn, cosy::SqlEvalMode::kWholeCondition);
  const asl::PropertyInfo* prop = model.find_property("SharedSum");
  ASSERT_NE(prop, nullptr);
  const std::string text = whole.explain_whole_condition(*prop);
  // The shared SUM is hoisted, but NOT under the colliding name.
  EXPECT_EQ(text.rfind("WITH _cse0 AS (SELECT ", 0), 0u) << text;
  EXPECT_NE(text.find("(SELECT v FROM _cse0)"), std::string::npos) << text;
  EXPECT_NE(text.find("JOIN cse0 b"), std::string::npos) << text;

  const asl::Interpreter interp(model, store);
  const std::vector<RtValue> args = {RtValue::of_object(holder)};
  expect_same(interp.evaluate_property(*prop, args),
              whole.evaluate_property(*prop, args), "SharedSum");
  EXPECT_EQ(whole.stats().whole_fallbacks, 0u);
}

struct ProfileCase {
  const char* name;
  db::ConnectionProfile (*profile)();
};

// The CSE headline, pinned: identical query count, strictly less modelled
// wire/server time than plain whole-condition on the paper's distributed
// profiles (deduplicated subexpressions bind each argument once instead of
// once per occurrence).
TEST(WholeCondition, CseBeatsPlainWholeConditionOnDistributedProfiles) {
  World world(perf::workloads::imbalanced_ocean(), {1, 16});
  for (const ProfileCase& pc :
       {ProfileCase{"oracle7", &db::ConnectionProfile::oracle7},
        ProfileCase{"postgres", &db::ConnectionProfile::postgres}}) {
    double virtual_ms[2] = {0, 0};
    std::uint64_t queries[2] = {0, 0};
    const char* backends[2] = {"sql-whole-condition-plain",
                               "sql-whole-condition"};
    for (int i = 0; i < 2; ++i) {
      db::Connection conn(world.database, pc.profile());
      cosy::Analyzer analyzer(world.model, world.store, world.handles, &conn);
      cosy::PlanCache cache(world.model);
      cosy::AnalyzerConfig config;
      config.backend = backends[i];
      config.plan_cache = &cache;
      const cosy::AnalysisReport report = analyzer.analyze(1, config);
      virtual_ms[i] = conn.clock().now_ms();
      queries[i] = report.sql_queries;
    }
    EXPECT_EQ(queries[1], queries[0]) << pc.name;  // still one stmt/context
    EXPECT_LT(virtual_ms[1], virtual_ms[0]) << pc.name;  // modelled win
  }
}

// Differential: the whole-condition backends (with and without CSE) against
// the interpreter reference — all 13 properties, every connection profile
// of the paper's §5 comparison.
class BackendDifferential : public ::testing::TestWithParam<ProfileCase> {};

TEST_P(BackendDifferential, AgreesWithInterpreterOnAllWorkloads) {
  struct WorkloadCase {
    const char* name;
    perf::AppSpec (*factory)();
    std::uint64_t seed;
  };
  const WorkloadCase workloads[] = {
      {"ocean", &perf::workloads::imbalanced_ocean, 1},
      {"stencil", &perf::workloads::scalable_stencil, 2},
      {"io", &perf::workloads::io_heavy, 5},
  };
  for (const WorkloadCase& wl : workloads) {
    World world(wl.factory(), {1, 4, 16}, wl.seed);
    db::Connection conn(world.database, GetParam().profile());
    cosy::Analyzer analyzer(world.model, world.store, world.handles, &conn);

    cosy::AnalyzerConfig reference;
    reference.backend = "interpreter";
    const std::string expected =
        render_findings(analyzer.analyze(2, reference));

    for (const char* backend :
         {"sql-whole-condition", "sql-whole-condition-plain"}) {
      cosy::AnalyzerConfig config;
      config.backend = backend;
      const cosy::AnalysisReport report = analyzer.analyze(2, config);
      EXPECT_EQ(expected, render_findings(report))
          << wl.name << " / " << backend << " / " << GetParam().name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, BackendDifferential,
    ::testing::Values(
        ProfileCase{"access", &db::ConnectionProfile::access_local},
        ProfileCase{"oracle7", &db::ConnectionProfile::oracle7},
        ProfileCase{"mssql", &db::ConnectionProfile::mssql_server},
        ProfileCase{"postgres", &db::ConnectionProfile::postgres},
        ProfileCase{"inmemory", &db::ConnectionProfile::in_memory}),
    [](const auto& info) { return info.param.name; });

// Randomized stores with UNIQUE data gaps: whole-condition must map NULL
// propagation back onto the interpreter's not-applicable semantics.
class WholeConditionRandomStore : public ::testing::TestWithParam<int> {};

TEST_P(WholeConditionRandomStore, AgreesWithInterpreter) {
  kojak::support::Rng rng(GetParam());

  asl::Model model = cosy::load_cosy_model();
  asl::ObjectStore store(model);
  const auto enum_id = *model.find_enum("TimingType");

  const asl::ObjectId program = store.create("Program");
  store.set_attr(program, "Name", RtValue::of_string("random"));
  const asl::ObjectId version = store.create("ProgVersion");
  store.add_to_set(program, "Versions", version);
  std::vector<asl::ObjectId> runs;
  for (int r = 0; r < 2; ++r) {
    const asl::ObjectId run = store.create("TestRun");
    store.set_attr(run, "NoPe", RtValue::of_int(r == 0 ? 1 : 8));
    store.set_attr(run, "Clockspeed", RtValue::of_int(450));
    store.set_attr(run, "Start", RtValue::of_int(941806800 + r));
    store.add_to_set(version, "Runs", run);
    runs.push_back(run);
  }
  const asl::ObjectId fn = store.create("Function");
  store.set_attr(fn, "Name", RtValue::of_string("main"));
  store.add_to_set(version, "Functions", fn);

  const int region_count = static_cast<int>(rng.uniform_int(2, 8));
  std::vector<asl::ObjectId> regions;
  for (int i = 0; i < region_count; ++i) {
    const asl::ObjectId region = store.create("Region");
    store.set_attr(region, "Name",
                   RtValue::of_string(kojak::support::cat("r", i)));
    store.set_attr(region, "Kind", RtValue::of_string("Loop"));
    store.add_to_set(fn, "Regions", region);
    regions.push_back(region);
    for (const asl::ObjectId run : runs) {
      // Data gaps on purpose: some regions lack timings in some runs, which
      // must surface as not-applicable in both engines.
      if (i > 0 && rng.chance(0.25)) continue;
      const asl::ObjectId total = store.create("TotalTiming");
      store.set_attr(total, "Run", RtValue::of_object(run));
      const double incl = rng.uniform(10, 1000);
      store.set_attr(total, "Incl", RtValue::of_float(incl));
      store.set_attr(total, "Excl",
                     RtValue::of_float(incl * rng.uniform(0.2, 0.9)));
      store.set_attr(total, "Ovhd",
                     RtValue::of_float(incl * rng.uniform(0.0, 0.5)));
      store.add_to_set(region, "TotTimes", total);
      const int typed_count = static_cast<int>(rng.uniform_int(0, 5));
      for (int t = 0; t < typed_count; ++t) {
        const asl::ObjectId typed = store.create("TypedTiming");
        store.set_attr(typed, "Run", RtValue::of_object(run));
        store.set_attr(
            typed, "Type",
            RtValue::of_enum(enum_id,
                             static_cast<std::int32_t>(rng.uniform_int(0, 24))));
        store.set_attr(typed, "Time", RtValue::of_float(rng.uniform(0, 50)));
        store.add_to_set(region, "TypTimes", typed);
      }
    }
  }

  db::Database database;
  cosy::create_schema(database, model);
  db::Connection conn(database, db::ConnectionProfile::in_memory());
  cosy::import_store(conn, store);

  const asl::Interpreter interp(model, store);
  cosy::PlanCache cache(model);
  cosy::SqlEvaluator whole(model, conn, cosy::SqlEvalMode::kWholeCondition,
                           &cache);

  std::size_t checked = 0;
  for (const asl::PropertyInfo& prop : model.properties()) {
    if (prop.params[0].second !=
        asl::Type::class_of(*model.find_class("Region"))) {
      continue;  // no call sites in this synthetic store
    }
    for (const asl::ObjectId region : regions) {
      for (const asl::ObjectId run : runs) {
        const std::vector<RtValue> args = {RtValue::of_object(region),
                                           RtValue::of_object(run),
                                           RtValue::of_object(regions[0])};
        expect_same(interp.evaluate_property(prop, args),
                    whole.evaluate_property(prop, args),
                    kojak::support::cat(prop.name, " region ", region,
                                        " run ", run, " seed ", GetParam()));
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 40u);
  // Data gaps surface as NULL columns, not as statement failures: the
  // single-statement contract holds even on gappy stores.
  EXPECT_EQ(whole.stats().whole_fallbacks, 0u);
  EXPECT_EQ(whole.stats().sql_queries, checked);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WholeConditionRandomStore,
                         ::testing::Range(1, 9));

TEST(WholeCondition, UniqueOverSeveralMembersFallsBackCorrectly) {
  // Two TotalTimings for the same (region, run) make UNIQUE throw in the
  // interpreter; the whole-condition statement aborts in the scalar
  // subquery and the evaluator must recover through the site-wise path
  // with an identical not-applicable verdict.
  asl::Model model = cosy::load_cosy_model();
  asl::ObjectStore store(model);
  const asl::ObjectId program = store.create("Program");
  store.set_attr(program, "Name", RtValue::of_string("dup"));
  const asl::ObjectId run = store.create("TestRun");
  store.set_attr(run, "NoPe", RtValue::of_int(4));
  store.set_attr(run, "Clockspeed", RtValue::of_int(450));
  store.set_attr(run, "Start", RtValue::of_int(941806800));
  const asl::ObjectId region = store.create("Region");
  store.set_attr(region, "Name", RtValue::of_string("main"));
  store.set_attr(region, "Kind", RtValue::of_string("Function"));
  for (int i = 0; i < 2; ++i) {
    const asl::ObjectId total = store.create("TotalTiming");
    store.set_attr(total, "Run", RtValue::of_object(run));
    store.set_attr(total, "Incl", RtValue::of_float(100.0 + i));
    store.set_attr(total, "Excl", RtValue::of_float(50.0));
    store.set_attr(total, "Ovhd", RtValue::of_float(5.0));
    store.add_to_set(region, "TotTimes", total);
  }

  db::Database database;
  cosy::create_schema(database, model);
  db::Connection conn(database, db::ConnectionProfile::in_memory());
  cosy::import_store(conn, store);

  const asl::Interpreter interp(model, store);
  cosy::SqlEvaluator whole(model, conn, cosy::SqlEvalMode::kWholeCondition);
  const asl::PropertyInfo* prop = model.find_property("MeasuredCost");
  ASSERT_NE(prop, nullptr);
  const std::vector<RtValue> args = {RtValue::of_object(region),
                                     RtValue::of_object(run),
                                     RtValue::of_object(region)};
  const PropertyResult a = interp.evaluate_property(*prop, args);
  const PropertyResult b = whole.evaluate_property(*prop, args);
  EXPECT_EQ(a.status, PropertyResult::Status::kNotApplicable);
  expect_same(a, b, "MeasuredCost with duplicate summaries");
  EXPECT_GT(whole.stats().whole_fallbacks, 0u);
}

TEST(WholeCondition, GapNullsInEqualityStayNotApplicable) {
  // The flip side of total null equality: a NULL produced by a data gap
  // (empty AVG here) is an interpreter *error*, not a legal null — it must
  // surface as not-applicable even under ==/!=, and `== null` must not
  // match it. All without fallbacks: the distinction is compiled in.
  const asl::Model model = asl::load_model({R"(
    class Holder { String Name; setof Item Items; }
    class Item { float V; }
    Property AvgIsFive(Holder h) {
      CONDITION: AVG(i.V WHERE i IN h.Items) == 5.0;
      CONFIDENCE: 1;
      SEVERITY: 1;
    };
    Property BigItemIsNull(Holder h) {
      CONDITION: UNIQUE({i IN h.Items WITH i.V > 5.0}) == null;
      CONFIDENCE: 1;
      SEVERITY: 1;
    };
  )"});

  asl::ObjectStore store(model);
  const asl::ObjectId empty = store.create("Holder");
  store.set_attr(empty, "Name", RtValue::of_string("empty"));
  const asl::ObjectId full = store.create("Holder");
  store.set_attr(full, "Name", RtValue::of_string("full"));
  for (const double v : {4.0, 6.0}) {  // AVG = 5.0
    const asl::ObjectId item = store.create("Item");
    store.set_attr(item, "V", RtValue::of_float(v));
    store.add_to_set(full, "Items", item);
  }

  db::Database database;
  cosy::create_schema(database, model);
  db::Connection conn(database, db::ConnectionProfile::in_memory());
  cosy::import_store(conn, store);

  const asl::Interpreter interp(model, store);
  cosy::SqlEvaluator whole(model, conn, cosy::SqlEvalMode::kWholeCondition);

  for (const char* prop_name : {"AvgIsFive", "BigItemIsNull"}) {
    const asl::PropertyInfo* prop = model.find_property(prop_name);
    ASSERT_NE(prop, nullptr) << prop_name;
    for (const asl::ObjectId holder : {empty, full}) {
      const std::vector<RtValue> args = {RtValue::of_object(holder)};
      expect_same(interp.evaluate_property(*prop, args),
                  whole.evaluate_property(*prop, args),
                  kojak::support::cat(prop_name, " holder ", holder));
    }
  }
  const auto on_empty = interp.evaluate_property(
      *model.find_property("AvgIsFive"), {RtValue::of_object(empty)});
  EXPECT_EQ(on_empty.status, PropertyResult::Status::kNotApplicable);
  const auto on_full = interp.evaluate_property(
      *model.find_property("AvgIsFive"), {RtValue::of_object(full)});
  EXPECT_EQ(on_full.status, PropertyResult::Status::kHolds);
  EXPECT_EQ(whole.stats().whole_fallbacks, 0u);
}

TEST(WholeCondition, NonCompilablePropertyFallsBackToSitewise) {
  // An aggregate whose value expression applies SIZE to the binder is
  // correlated — outside the compilable subset. The compiler must name
  // that blocker; the whole-condition evaluator falls back to site-wise,
  // which cannot compile the site either and reports the same located
  // error. A compile limitation is never a not-applicable verdict (that
  // comes only from NULL data).
  const asl::Model model = asl::load_model({R"(
    class Holder { String Name; setof Item Items; }
    class Item { float V; setof Sub Subs; }
    class Sub { float W; }
    Property DeepFanout(Holder h) {
      CONDITION: SUM(SIZE(i.Subs) WHERE i IN h.Items) > 1;
      CONFIDENCE: 1;
      SEVERITY: SUM(i.V WHERE i IN h.Items);
    };
  )"});
  const asl::PropertyInfo* prop = model.find_property("DeepFanout");
  ASSERT_NE(prop, nullptr);

  asl::ObjectStore store(model);
  const asl::ObjectId holder = store.create("Holder");
  store.set_attr(holder, "Name", RtValue::of_string("h"));
  for (int i = 0; i < 3; ++i) {
    const asl::ObjectId item = store.create("Item");
    store.set_attr(item, "V", RtValue::of_float(1.5 * i));
    store.add_to_set(holder, "Items", item);
    for (int s = 0; s <= i; ++s) {
      const asl::ObjectId sub = store.create("Sub");
      store.set_attr(sub, "W", RtValue::of_float(0.25));
      store.add_to_set(item, "Subs", sub);
    }
  }
  db::Database database;
  cosy::create_schema(database, model);
  db::Connection conn(database, db::ConnectionProfile::in_memory());
  cosy::import_store(conn, store);

  cosy::SqlEvaluator whole(model, conn, cosy::SqlEvalMode::kWholeCondition);
  try {
    (void)whole.explain_whole_condition(*prop);
    ADD_FAILURE() << "DeepFanout compiled into one statement";
  } catch (const EvalError& error) {
    EXPECT_NE(std::string(error.what()).find("correlated"), std::string::npos)
        << error.what();
  }

  cosy::SqlEvaluator sitewise(model, conn, cosy::SqlEvalMode::kPushdown);
  const std::vector<RtValue> args = {RtValue::of_object(holder)};
  const auto error_of = [&](cosy::SqlEvaluator& eval) {
    try {
      (void)eval.evaluate_property(*prop, args);
    } catch (const EvalError& error) {
      return std::string(error.what());
    }
    return std::string("no error");
  };
  const std::string sitewise_error = error_of(sitewise);
  EXPECT_NE(sitewise_error.find("correlated with binder 'i'"),
            std::string::npos)
      << sitewise_error;
  EXPECT_NE(sitewise_error.find("property DeepFanout, at 6:22"),
            std::string::npos)
      << sitewise_error;
  EXPECT_EQ(error_of(whole), sitewise_error);
  EXPECT_EQ(whole.stats().whole_fallbacks, 1u);
}

TEST(WholeCondition, NullAttributeSemanticsMatchTheInterpreter) {
  // ASL equality is total (null equals only null, never an error), ASL
  // AND/OR short-circuit left to right, and an unset attribute is a legal
  // null value — none of which SQL's three-valued logic gives for free.
  // Every property must agree with the interpreter WITHOUT falling back to
  // the site-wise path, except where a property argument itself is null.
  // Inside a set filter, two unset references are equal, an unset
  // reference equals a LET alias of another unset one, and an unset
  // reference differs from a set one.
  const asl::Model model = asl::load_model({R"(
    class Node { String Name; bool Flag; Node Link; setof Node Kids; }
    class Item { Item Ref; Item Other; }
    class Holder { Item Pick; setof Item Items; }
    Property RefsAgree(Holder h) {
      CONDITION: SIZE({i IN h.Items WITH i.Ref == i.Other}) > 0;
      CONFIDENCE: 1;
      SEVERITY: 1;
    };
    Property RefIsPick(Holder h) {
      LET Item p = h.Pick;
      IN
      CONDITION: SIZE({i IN h.Items WITH i.Ref == p}) > 0;
      CONFIDENCE: 1;
      SEVERITY: 1;
    };
    Property RefIsNotPick(Holder h) {
      LET Item p = h.Pick;
      IN
      CONDITION: SIZE({i IN h.Items WITH i.Ref != p}) > 0;
      CONFIDENCE: 1;
      SEVERITY: 1;
    };
    Property RefIsArg(Holder h, Item x) {
      CONDITION: SIZE({i IN h.Items WITH i.Ref == x}) > 0;
      CONFIDENCE: 1;
      SEVERITY: 1;
    };
    Property RefIsNotPickNegated(Holder h) {
      LET Item p = h.Pick;
      IN
      CONDITION: SIZE({i IN h.Items WITH NOT (i.Ref == p)}) > 0;
      CONFIDENCE: 1;
      SEVERITY: 1;
    };
    Property RefIsNotArgNegated(Holder h, Item x) {
      CONDITION: SIZE({i IN h.Items WITH NOT (i.Ref == x)}) > 0;
      CONFIDENCE: 1;
      SEVERITY: 1;
    };
    Property LinkIsNull(Node n) {
      LET Node p = n.Link;
      IN
      CONDITION: p == null;
      CONFIDENCE: 1;
      SEVERITY: 1;
    };
    Property LinkIsSet(Node n) {
      CONDITION: n.Link != null;
      CONFIDENCE: 1;
      SEVERITY: 1;
    };
    Property LinksSelf(Node n) {
      CONDITION: n.Link == n;
      CONFIDENCE: 1;
      SEVERITY: 1;
    };
    Property FlagOrName(Node n) {
      CONDITION: n.Flag OR n.Name == "a";
      CONFIDENCE: 1;
      SEVERITY: 1;
    };
  )"});

  asl::ObjectStore store(model);
  const asl::ObjectId unlinked = store.create("Node");
  store.set_attr(unlinked, "Name", RtValue::of_string("a"));
  // Flag and Link stay unset: legal nulls, except where as_bool needs them.
  const asl::ObjectId linked = store.create("Node");
  store.set_attr(linked, "Name", RtValue::of_string("b"));
  store.set_attr(linked, "Flag", RtValue::of_bool(true));
  store.set_attr(linked, "Link", RtValue::of_object(unlinked));
  // `unset`: three items with every reference unset, Pick unset.
  // `set`: Pick = a; a's Ref is a, Other is b; b's Other is a; c's Ref and
  // Other are both b.
  const asl::ObjectId unset = store.create("Holder");
  for (int i = 0; i < 3; ++i) {
    store.add_to_set(unset, "Items", store.create("Item"));
  }
  const asl::ObjectId a = store.create("Item");
  const asl::ObjectId b = store.create("Item");
  store.set_attr(a, "Ref", RtValue::of_object(a));
  store.set_attr(a, "Other", RtValue::of_object(b));
  store.set_attr(b, "Other", RtValue::of_object(a));
  const asl::ObjectId c = store.create("Item");
  store.set_attr(c, "Ref", RtValue::of_object(b));
  store.set_attr(c, "Other", RtValue::of_object(b));
  const asl::ObjectId set = store.create("Holder");
  store.set_attr(set, "Pick", RtValue::of_object(a));
  for (const asl::ObjectId item : {a, b, c}) {
    store.add_to_set(set, "Items", item);
  }
  // `lone`: Pick = a; its one item has every reference unset.
  const asl::ObjectId lone = store.create("Holder");
  store.set_attr(lone, "Pick", RtValue::of_object(a));
  store.add_to_set(lone, "Items", store.create("Item"));

  db::Database database;
  cosy::create_schema(database, model);
  db::Connection conn(database, db::ConnectionProfile::in_memory());
  cosy::import_store(conn, store);

  const asl::Interpreter interp(model, store);
  cosy::PlanCache cache(model);
  cosy::SqlEvaluator whole(model, conn, cosy::SqlEvalMode::kWholeCondition,
                           &cache);
  cosy::SqlEvaluator sitewise(model, conn, cosy::SqlEvalMode::kPushdown,
                              &cache);

  for (const char* prop_name :
       {"LinkIsNull", "LinkIsSet", "LinksSelf", "FlagOrName"}) {
    const asl::PropertyInfo* prop = model.find_property(prop_name);
    ASSERT_NE(prop, nullptr) << prop_name;
    for (const asl::ObjectId node : {unlinked, linked}) {
      const std::vector<RtValue> args = {RtValue::of_object(node)};
      expect_same(interp.evaluate_property(*prop, args),
                  whole.evaluate_property(*prop, args),
                  kojak::support::cat(prop_name, " node ", node));
    }
  }
  const std::vector<std::vector<RtValue>> holder_args = {
      {RtValue::of_object(unset)}, {RtValue::of_object(set)}};
  for (const char* prop_name : {"RefsAgree", "RefIsPick"}) {
    const asl::PropertyInfo* prop = model.find_property(prop_name);
    ASSERT_NE(prop, nullptr) << prop_name;
    for (const std::vector<RtValue>& args : holder_args) {
      const std::string what =
          kojak::support::cat(prop_name, " holder ", args[0].as_object());
      const PropertyResult expected = interp.evaluate_property(*prop, args);
      EXPECT_EQ(expected.status, PropertyResult::Status::kHolds) << what;
      expect_same(expected, whole.evaluate_property(*prop, args), what);
      expect_same(expected, sitewise.evaluate_property(*prop, args),
                  what + " (site-wise)");
    }
  }
  const asl::PropertyInfo* not_pick = model.find_property("RefIsNotPick");
  ASSERT_NE(not_pick, nullptr);
  const std::vector<RtValue> lone_args = {RtValue::of_object(lone)};
  const PropertyResult differs = interp.evaluate_property(*not_pick, lone_args);
  EXPECT_EQ(differs.status, PropertyResult::Status::kHolds);
  expect_same(differs, whole.evaluate_property(*not_pick, lone_args),
              "RefIsNotPick");
  expect_same(differs, sitewise.evaluate_property(*not_pick, lone_args),
              "RefIsNotPick (site-wise)");
  const asl::PropertyInfo* ref_is_arg = model.find_property("RefIsArg");
  ASSERT_NE(ref_is_arg, nullptr);
  const std::vector<RtValue> set_a = {RtValue::of_object(set),
                                      RtValue::of_object(a)};
  expect_same(interp.evaluate_property(*ref_is_arg, set_a),
              whole.evaluate_property(*ref_is_arg, set_a), "RefIsArg a");
  // `==` under NOT: the lone item's unset Ref differs from the pick (a LET)
  // and from the argument, so NOT keeps it — in every evaluator.
  const std::vector<RtValue> lone_a = {RtValue::of_object(lone),
                                       RtValue::of_object(a)};
  for (const auto& [prop_name, args] :
       {std::pair{"RefIsNotPickNegated", lone_args},
        std::pair{"RefIsNotArgNegated", lone_a}}) {
    const asl::PropertyInfo* prop = model.find_property(prop_name);
    ASSERT_NE(prop, nullptr) << prop_name;
    const PropertyResult expected = interp.evaluate_property(*prop, args);
    EXPECT_EQ(expected.status, PropertyResult::Status::kHolds) << prop_name;
    expect_same(expected, whole.evaluate_property(*prop, args), prop_name);
    expect_same(expected, sitewise.evaluate_property(*prop, args),
                std::string(prop_name) + " (site-wise)");
  }
  // Spot-check the interesting verdicts so the comparison can't pass
  // vacuously: a legal null holds `== null`, the unset Flag in an OR is a
  // data gap (interpreter would throw on as_bool), the set Flag decides
  // without consulting the right operand.
  const auto eval_one = [&](const char* name, asl::ObjectId node) {
    return interp.evaluate_property(
        *model.find_property(name), {RtValue::of_object(node)});
  };
  EXPECT_EQ(eval_one("LinkIsNull", unlinked).status,
            PropertyResult::Status::kHolds);
  EXPECT_EQ(eval_one("LinksSelf", unlinked).status,
            PropertyResult::Status::kDoesNotHold);
  EXPECT_EQ(eval_one("FlagOrName", unlinked).status,
            PropertyResult::Status::kNotApplicable);
  EXPECT_EQ(eval_one("FlagOrName", linked).status,
            PropertyResult::Status::kHolds);
  EXPECT_EQ(whole.stats().whole_fallbacks, 0u);

  // A null property argument compared inside a set filter: the context
  // goes site-wise, and the verdict still matches the interpreter.
  const std::vector<RtValue> unset_null = {RtValue::of_object(unset),
                                           RtValue::null()};
  const PropertyResult expected =
      interp.evaluate_property(*ref_is_arg, unset_null);
  EXPECT_EQ(expected.status, PropertyResult::Status::kHolds);
  expect_same(expected, whole.evaluate_property(*ref_is_arg, unset_null),
              "RefIsArg null");
  EXPECT_EQ(whole.stats().whole_fallbacks, 1u);
}

TEST(WholeCondition, PlanCachePinsToTheModelInstance) {
  // A cache built against a reloaded model (equal fingerprint, different
  // AST) must be rejected at backend creation, like the evaluator itself.
  World world(perf::workloads::scalable_stencil(), {1, 2});
  db::Connection conn(world.database, db::ConnectionProfile::in_memory());
  const asl::Model reloaded = cosy::load_cosy_model();
  ASSERT_EQ(world.model.fingerprint(), reloaded.fingerprint());
  cosy::PlanCache stale(reloaded);

  cosy::EvalBackendDeps deps;
  deps.model = &world.model;
  deps.conn = &conn;
  deps.plan_cache = &stale;
  EXPECT_THROW((void)cosy::EvalBackend::create("sql-whole-condition", deps),
               EvalError);
  EXPECT_THROW((void)cosy::EvalBackend::create("sql-pushdown", deps),
               EvalError);

  // The analyzer surfaces the same guard for config-supplied caches.
  cosy::Analyzer analyzer(world.model, world.store, world.handles, &conn);
  cosy::AnalyzerConfig config;
  config.backend = "sql-whole-condition";
  config.plan_cache = &stale;
  EXPECT_THROW((void)analyzer.analyze(1, config), EvalError);
}

// The headline §6 claim, pinned: on distributed profiles the one-statement
// backend spends less modelled wire/server time than the pushdown path.
TEST(WholeCondition, BeatsPushdownOnDistributedProfiles) {
  World world(perf::workloads::imbalanced_ocean(), {1, 16});
  for (const ProfileCase& pc :
       {ProfileCase{"oracle7", &db::ConnectionProfile::oracle7},
        ProfileCase{"postgres", &db::ConnectionProfile::postgres}}) {
    double virtual_ms[2] = {0, 0};
    std::uint64_t queries[2] = {0, 0};
    const char* backends[2] = {"sql-pushdown", "sql-whole-condition"};
    for (int i = 0; i < 2; ++i) {
      db::Connection conn(world.database, pc.profile());
      cosy::Analyzer analyzer(world.model, world.store, world.handles, &conn);
      cosy::PlanCache cache(world.model);
      cosy::AnalyzerConfig config;
      config.backend = backends[i];
      config.plan_cache = &cache;
      const cosy::AnalysisReport report = analyzer.analyze(1, config);
      virtual_ms[i] = conn.clock().now_ms();
      queries[i] = report.sql_queries;
    }
    EXPECT_LT(queries[1], queries[0]) << pc.name;
    EXPECT_LT(virtual_ms[1], virtual_ms[0]) << pc.name;
  }
}

// ---------------------------------------------------------------------------
// Context fan-out: one run's contexts spread over `threads` workers

namespace {

/// One world for every (backend, threads) case: building it dominates.
World& fan_out_world() {
  static World world(perf::workloads::imbalanced_ocean(), {1, 4, 16});
  return world;
}

/// Analyzes `run` with `backend` on `threads` workers through Analyzer. A
/// backend that needs a database gets a pool of `threads` Postgres sessions
/// and no connection of its own.
cosy::AnalysisReport analyze_on_workers(World& world,
                                        const std::string& backend,
                                        std::size_t threads, std::size_t run,
                                        cosy::PlanCache* cache = nullptr) {
  cosy::AnalyzerConfig config;
  config.backend = backend;
  config.threads = threads;
  config.plan_cache = cache;
  if (!cosy::EvalBackend::requires_connection(backend)) {
    cosy::Analyzer analyzer(world.model, world.store, world.handles);
    return analyzer.analyze(run, config);
  }
  db::ConnectionPool pool(world.database, db::ConnectionProfile::postgres(),
                          threads);
  cosy::Analyzer analyzer(world.model, world.store, world.handles,
                          /*conn=*/nullptr, &pool);
  return analyzer.analyze(run, config);
}

struct FanOutCase {
  const char* backend;
  std::size_t threads;
};

}  // namespace

class ContextFanOutDifferential
    : public ::testing::TestWithParam<FanOutCase> {};

TEST_P(ContextFanOutDifferential, ByteIdenticalToTheSerialInterpreter) {
  // Results land in their request slots, so the report — findings,
  // not-applicable audits, notes, everything — is the serial
  // interpreter's at any thread count, and the fan-out issues exactly the
  // statements one worker does.
  World& world = fan_out_world();
  const std::string backend = GetParam().backend;
  const std::size_t threads = GetParam().threads;
  cosy::Analyzer interpreter(world.model, world.store, world.handles);
  db::Connection conn(world.database, db::ConnectionProfile::postgres());
  cosy::Analyzer serial(world.model, world.store, world.handles, &conn);
  cosy::AnalyzerConfig one_worker;
  one_worker.backend = backend;
  one_worker.threads = 1;
  for (std::size_t run = 0; run < world.handles.runs.size(); ++run) {
    const cosy::AnalysisReport report =
        analyze_on_workers(world, backend, threads, run);
    EXPECT_EQ(render_exact(interpreter.analyze(run)), render_exact(report))
        << "run " << run;
    const std::uint64_t serial_queries =
        serial.analyze(run, one_worker).sql_queries;
    if (backend == "bulk-fetch") {
      // Each worker fetches every table once in prepare().
      ASSERT_GT(serial_queries, 0u);
      EXPECT_EQ(report.sql_queries % serial_queries, 0u) << "run " << run;
      EXPECT_GE(report.sql_queries, serial_queries) << "run " << run;
      EXPECT_LE(report.sql_queries, threads * serial_queries) << "run " << run;
    } else {
      EXPECT_EQ(report.sql_queries, serial_queries) << "run " << run;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BackendsAndThreads, ContextFanOutDifferential,
    ::testing::ValuesIn([] {
      std::vector<FanOutCase> cases;
      for (const char* backend :
           {"interpreter", "sql-pushdown", "sql-whole-condition",
            "sql-whole-condition-plain", "client-fetch", "bulk-fetch"}) {
        for (const std::size_t threads : {1u, 2u, 8u}) {
          cases.push_back({backend, threads});
        }
      }
      return cases;
    }()),
    [](const auto& info) {
      std::string name = kojak::support::cat(info.param.backend, "_x",
                                             info.param.threads);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(ContextFanOut, SharedPlanCacheCompilesEachPropertyOnce) {
  World world(perf::workloads::imbalanced_ocean(), {1, 4});
  cosy::PlanCache cache(world.model);
  const cosy::AnalysisReport report =
      analyze_on_workers(world, "sql-whole-condition", 4, 1, &cache);
  cosy::Analyzer counting(world.model, world.store, world.handles);
  EXPECT_EQ(report.sql_queries, counting.context_count());
  // One whole-condition plan per property, shared across every worker.
  EXPECT_EQ(cache.size(), world.model.properties().size());
  EXPECT_GT(report.plan_cache_hits, 0u);
}

TEST(ContextFanOut, NeedsAConnectionOrAPool) {
  World world(perf::workloads::scalable_stencil(), {1, 2});
  cosy::Analyzer neither(world.model, world.store, world.handles);
  cosy::AnalyzerConfig config;
  config.backend = "sql-whole-condition";
  config.threads = 2;
  try {
    (void)neither.analyze(1, config);
    FAIL() << "expected EvalError";
  } catch (const EvalError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("connection"), std::string::npos) << message;
    EXPECT_NE(message.find("pool"), std::string::npos) << message;
  }

  // The model-instance pinning guard still applies on the pooled path.
  const asl::Model reloaded = cosy::load_cosy_model();
  cosy::PlanCache stale(reloaded);
  EXPECT_THROW(
      (void)analyze_on_workers(world, "sql-whole-condition", 2, 1, &stale),
      EvalError);
}

TEST(ContextFanOut, WorksInsideTheBatchEngine) {
  World world(perf::workloads::imbalanced_ocean(), {1, 4, 16});
  cosy::BatchAnalyzer batch(world.model, world.store, world.handles, nullptr);
  cosy::BatchConfig config;
  config.backend = "interpreter";
  config.threads = 2;
  const cosy::BatchResult result = batch.analyze_all(config);
  EXPECT_EQ(result.items.size(), world.handles.runs.size());
  EXPECT_EQ(result.summary.sql_queries, 0u);

  cosy::Analyzer analyzer(world.model, world.store, world.handles);
  for (std::size_t run = 0; run < world.handles.runs.size(); ++run) {
    EXPECT_EQ(render_exact(analyzer.analyze(run)),
              render_exact(result.items[run].report))
        << "run " << run;
  }
}

// ---------------------------------------------------------------------------
// Whole-condition through the batch engine

TEST(BatchWholeCondition, DeterministicAcrossThreadCountsAndOneStatement) {
  World world(perf::workloads::imbalanced_ocean(), {1, 4, 16});
  cosy::Analyzer sequential(world.model, world.store, world.handles);
  std::string reference;
  std::uint64_t contexts_per_run = 0;
  {
    cosy::Analyzer counting(world.model, world.store, world.handles);
    contexts_per_run = counting.context_count();
  }
  for (const std::size_t threads : {1u, 4u}) {
    db::ConnectionPool pool(world.database, db::ConnectionProfile::postgres(),
                            threads);
    cosy::BatchAnalyzer batch(world.model, world.store, world.handles, &pool);
    cosy::BatchConfig config;
    config.backend = "sql-whole-condition";
    config.threads = threads;
    const cosy::BatchResult result = batch.analyze_all(config);
    EXPECT_EQ(result.summary.sql_queries,
              contexts_per_run * world.handles.runs.size())
        << "threads=" << threads;
    std::string rendered;
    for (const cosy::BatchItem& item : result.items) {
      rendered += render_findings(item.report);
    }
    if (reference.empty()) {
      reference = rendered;
    } else {
      EXPECT_EQ(reference, rendered) << "threads=" << threads;
    }
  }
}

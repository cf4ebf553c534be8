#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "asl/interp.hpp"
#include "asl/sema.hpp"
#include "cosy/db_import.hpp"
#include "cosy/schema_gen.hpp"
#include "cosy/specs.hpp"
#include "cosy/sql_eval.hpp"
#include "cosy/store_builder.hpp"
#include "perf/simulator.hpp"
#include "perf/workloads.hpp"
#include "support/rng.hpp"
#include "support/str.hpp"

namespace asl = kojak::asl;
namespace cosy = kojak::cosy;
namespace db = kojak::db;
namespace perf = kojak::perf;
using asl::PropertyResult;
using asl::RtValue;

namespace {

/// Shared world: COSY model, a populated store, and the imported database.
struct World {
  asl::Model model = cosy::load_cosy_model();
  asl::ObjectStore store{model};
  cosy::StoreHandles handles;
  db::Database database;
  db::Connection conn{database, db::ConnectionProfile::in_memory()};

  explicit World(const perf::AppSpec& app, std::vector<int> pes,
                 std::uint64_t seed = 1) {
    perf::SimulationOptions options;
    options.seed = seed;
    const perf::ExperimentData data =
        perf::simulate_experiment(app, pes, options);
    handles = cosy::build_store(store, data);
    cosy::create_schema(database, model);
    cosy::import_store(conn, store);
  }
};

void expect_same(const PropertyResult& a, const PropertyResult& b,
                 const std::string& what) {
  EXPECT_EQ(a.status, b.status) << what << " (interp note: " << a.note
                                << ", sql note: " << b.note << ")";
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
// Targeted checks of the compiled SQL

TEST(SqlEval, ExplainComprehension) {
  World world(perf::workloads::imbalanced_ocean(), {1, 4});
  cosy::SqlEvaluator sql(world.model, world.conn);
  // {s IN r.TotTimes WITH s.Run == t} from the Summary function.
  const asl::FunctionInfo* summary = world.model.find_function("Summary");
  ASSERT_NE(summary, nullptr);
  const asl::ast::Expr& unique_expr = *summary->body;  // UNIQUE(comprehension)
  const asl::PropertyInfo fake{
      "ctx",
      {{"r", asl::Type::class_of(*world.model.find_class("Region"))},
       {"t", asl::Type::class_of(*world.model.find_class("TestRun"))}},
      {},
      {},
      {},
      {}};
  const std::string text = sql.explain_set(
      *unique_expr.base, fake,
      {RtValue::of_object(world.handles.regions.at("main")),
       RtValue::of_object(world.handles.runs[0])});
  EXPECT_NE(text.find("FROM Region_TotTimes"), std::string::npos) << text;
  EXPECT_NE(text.find("JOIN TotalTiming b ON b.id = j.member"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("j.owner = "), std::string::npos) << text;
  EXPECT_NE(text.find("b.Run = "), std::string::npos) << text;
}

TEST(SqlEval, CompileLimitIsALocatedErrorNotADataGap) {
  // SUM(InclOf(x) WHERE x IN r.TotTimes): a function call over the binder,
  // which neither SQL translator compiles. The interpreter evaluates every
  // context; the SQL evaluators must name the property, the ASL location
  // and the blocker instead of reporting a not-applicable data gap.
  std::ifstream file(std::filesystem::path(__FILE__).parent_path() / "specs" /
                     "function_over_binder.asl");
  std::stringstream spec;
  spec << file.rdbuf();
  const asl::Model model =
      asl::load_model({cosy::cosy_model_source(), spec.str()});
  const asl::PropertyInfo* prop = model.find_property("InclOfSum");
  ASSERT_NE(prop, nullptr);

  asl::ObjectStore store(model);
  const perf::ExperimentData data = perf::simulate_experiment(
      perf::workloads::imbalanced_ocean(), {1, 4}, perf::SimulationOptions{});
  const cosy::StoreHandles handles = cosy::build_store(store, data);
  db::Database database;
  cosy::create_schema(database, model);
  db::Connection conn(database, db::ConnectionProfile::in_memory());
  cosy::import_store(conn, store);

  const std::vector<RtValue> args = {
      RtValue::of_object(handles.regions.at("main.time_loop.step")),
      RtValue::of_object(handles.runs[1]),
      RtValue::of_object(handles.regions.at("main"))};
  const asl::Interpreter interp(model, store);
  EXPECT_EQ(interp.evaluate_property(*prop, args).status,
            PropertyResult::Status::kHolds);

  for (const cosy::SqlEvalMode mode :
       {cosy::SqlEvalMode::kPushdown, cosy::SqlEvalMode::kWholeCondition}) {
    cosy::SqlEvaluator sql(model, conn, mode);
    std::string error;
    try {
      const PropertyResult result = sql.evaluate_property(*prop, args);
      error = "no error, status " +
              std::to_string(static_cast<int>(result.status));
    } catch (const kojak::support::EvalError& e) {
      error = e.what();
    }
    EXPECT_NE(error.find("SQL strategy: expression correlated with binder 'x'"),
              std::string::npos)
        << error;
    EXPECT_NE(error.find("(property InclOfSum, at 9:18)"), std::string::npos)
        << error;
    // Whole-condition tries its own compiler first, then site-wise.
    EXPECT_EQ(sql.stats().whole_fallbacks,
              mode == cosy::SqlEvalMode::kWholeCondition ? 1u : 0u);
  }
}

TEST(SqlEval, QueriesAreIssued) {
  World world(perf::workloads::imbalanced_ocean(), {1, 4});
  cosy::SqlEvaluator sql(world.model, world.conn);
  const asl::PropertyInfo* prop = world.model.find_property("SyncCost");
  ASSERT_NE(prop, nullptr);
  const auto result = sql.evaluate_property(
      *prop, {RtValue::of_object(world.handles.regions.at("main.time_loop.step")),
              RtValue::of_object(world.handles.runs[1]),
              RtValue::of_object(world.handles.regions.at("main"))});
  EXPECT_EQ(result.status, PropertyResult::Status::kHolds);
  EXPECT_GT(sql.stats().sql_queries, 0u);
}

TEST(SqlEval, GuardFailureMatchesTheInterpreter) {
  // The cached plan of the set site binds the LET `p` as a `?` while `p` is
  // non-null; a later context where `p` is null needs `i.Ref IS NULL`
  // instead, so the nullability guard fails and the site compiles for that
  // context alone. The cached plan stays as it was.
  const asl::Model model = asl::load_model({R"(
    class Item { Item Ref; }
    class Holder { Item Pick; setof Item Items; }
    Property RefIsPick(Holder h) {
      LET Item p = h.Pick;
      IN
      CONDITION: SIZE({i IN h.Items WITH i.Ref == p}) > 0;
      CONFIDENCE: 1;
      SEVERITY: 1;
    };
  )"});
  asl::ObjectStore store(model);
  const asl::ObjectId a = store.create("Item");
  const asl::ObjectId loose = store.create("Item");  // Ref unset
  store.set_attr(a, "Ref", RtValue::of_object(a));
  // `picked`: Pick = a, which a's Ref matches. `unpicked`: Pick unset,
  // which the loose item's unset Ref matches. `none`: Pick unset, and no
  // item has an unset Ref.
  const asl::ObjectId picked = store.create("Holder");
  store.set_attr(picked, "Pick", RtValue::of_object(a));
  const asl::ObjectId unpicked = store.create("Holder");
  const asl::ObjectId none = store.create("Holder");
  for (const asl::ObjectId holder : {picked, unpicked}) {
    store.add_to_set(holder, "Items", a);
    store.add_to_set(holder, "Items", loose);
  }
  store.add_to_set(none, "Items", a);

  db::Database database;
  cosy::create_schema(database, model);
  db::Connection conn(database, db::ConnectionProfile::in_memory());
  cosy::import_store(conn, store);

  const asl::PropertyInfo* prop = model.find_property("RefIsPick");
  ASSERT_NE(prop, nullptr);
  const asl::Interpreter interp(model, store);
  cosy::PlanCache cache(model);
  cosy::SqlEvaluator sql(model, conn, cosy::SqlEvalMode::kPushdown, &cache);

  const auto check = [&](asl::ObjectId holder, PropertyResult::Status status) {
    const std::vector<RtValue> args = {RtValue::of_object(holder)};
    const PropertyResult expected = interp.evaluate_property(*prop, args);
    EXPECT_EQ(expected.status, status) << "holder " << holder;
    expect_same(expected, sql.evaluate_property(*prop, args),
                kojak::support::cat("holder ", holder));
  };
  check(picked, PropertyResult::Status::kHolds);
  const std::size_t plans = cache.size();
  const std::uint64_t misses = sql.stats().plan_cache_misses;
  check(unpicked, PropertyResult::Status::kHolds);
  check(none, PropertyResult::Status::kDoesNotHold);
  // Each null context failed the set site's guard once; nothing was cached.
  EXPECT_EQ(sql.stats().plan_cache_misses, misses + 2);
  EXPECT_EQ(cache.size(), plans);
  // The non-null shape still binds from the cache.
  const std::uint64_t hits = sql.stats().plan_cache_hits;
  check(picked, PropertyResult::Status::kHolds);
  EXPECT_EQ(sql.stats().plan_cache_misses, misses + 2);
  EXPECT_GT(sql.stats().plan_cache_hits, hits);
}

TEST(SqlEval, EvaluatorWithoutASharedCacheCompilesEachSiteOnce) {
  // An evaluator built without a PlanCache still caches its own plans: a
  // property's second context binds the plans its first context compiled.
  World world(perf::workloads::imbalanced_ocean(), {1, 4});
  const asl::PropertyInfo* prop = world.model.find_property("SyncCost");
  ASSERT_NE(prop, nullptr);
  const auto args_of = [&](const char* region) {
    return std::vector<RtValue>{
        RtValue::of_object(world.handles.regions.at(region)),
        RtValue::of_object(world.handles.runs[1]),
        RtValue::of_object(world.handles.regions.at("main"))};
  };
  const asl::Interpreter interp(world.model, world.store);
  for (const cosy::SqlEvalMode mode :
       {cosy::SqlEvalMode::kPushdown, cosy::SqlEvalMode::kClientSide,
        cosy::SqlEvalMode::kWholeCondition}) {
    const std::string what =
        kojak::support::cat("mode ", static_cast<int>(mode));
    cosy::SqlEvaluator sql(world.model, world.conn, mode);
    const std::vector<RtValue> first = args_of("main.time_loop.step");
    expect_same(interp.evaluate_property(*prop, first),
                sql.evaluate_property(*prop, first), what);
    const cosy::EvalStats before = sql.stats();
    EXPECT_GT(before.plan_cache_misses, 0u) << what;
    const std::vector<RtValue> second = args_of("barrier");
    expect_same(interp.evaluate_property(*prop, second),
                sql.evaluate_property(*prop, second), what);
    EXPECT_EQ(sql.stats().plan_cache_misses, before.plan_cache_misses) << what;
    EXPECT_GT(sql.stats().plan_cache_hits, before.plan_cache_hits) << what;
    EXPECT_EQ(sql.stats().whole_fallbacks, 0u) << what;
  }
}

TEST(SqlEval, RejectsInheritanceModels) {
  const asl::Model model = asl::load_model(
      {"class Base { int X; } class Derived extends Base { int Y; }"});
  db::Database database;
  db::Connection conn(database, db::ConnectionProfile::in_memory());
  EXPECT_THROW(cosy::SqlEvaluator(model, conn), kojak::support::EvalError);
}

// ---------------------------------------------------------------------------
// Differential: the scalar glue around the set sites (ordering, arithmetic,
// division, enum equality) against the interpreter, in every SQL mode.

TEST(SqlEval, ScalarGlueMatchesTheInterpreterInEveryMode) {
  const asl::Model model = asl::load_model({cosy::cosy_model_source(), R"(
    Property StringOrder(Region r, TestRun t, TestRun u) {
      CONDITION: (lt) r.Name < "m" OR (ge) r.Name >= "main";
      CONFIDENCE: MAX((lt) -> 0.5, (ge) -> 0.75);
      SEVERITY: MAX((lt) -> 1, (ge) -> 2);
    };
    Property DateTimeOrder(Region r, TestRun t, TestRun u) {
      CONDITION: (before) t.Start < u.Start OR (after) t.Start >= u.Start;
      CONFIDENCE: 1;
      SEVERITY: MAX((before) -> 1, (after) -> 2);
    };
    Property Arithmetic(Region r, TestRun t, TestRun u) {
      LET int Pes = t.NoPe * 2 - u.NoPe;
          float Half = t.NoPe / 2 + 0.5;
      IN
      CONDITION: Pes + 1 > 0 - 100;
      CONFIDENCE: Half - Half + 0.25;
      SEVERITY: Pes * Half - t.Clockspeed;
    };
    Property DivisionByZero(Region r, TestRun t, TestRun u) {
      CONDITION: t.NoPe / (u.NoPe - u.NoPe) > 0;
      CONFIDENCE: 1;
      SEVERITY: 1;
    };
    Property EnumEquality(Region r, TestRun t, TimingType k) {
      CONDITION: (bar) k == Barrier OR (other) k != IdleWait;
      CONFIDENCE: 1;
      SEVERITY: MAX((bar) -> 3, (other) -> 1);
    };
  )"});
  asl::ObjectStore store(model);
  const perf::ExperimentData data = perf::simulate_experiment(
      perf::workloads::imbalanced_ocean(), {1, 4, 16},
      perf::SimulationOptions{});
  const cosy::StoreHandles handles = cosy::build_store(store, data);
  db::Database database;
  cosy::create_schema(database, model);
  db::Connection conn(database, db::ConnectionProfile::in_memory());
  cosy::import_store(conn, store);

  const asl::Interpreter interp(model, store);
  const std::uint32_t timing = *model.find_enum("TimingType");
  for (const char* name : {"StringOrder", "DateTimeOrder", "Arithmetic",
                           "DivisionByZero", "EnumEquality"}) {
    const asl::PropertyInfo* prop = model.find_property(name);
    ASSERT_NE(prop, nullptr) << name;
    std::vector<std::vector<RtValue>> contexts;
    for (const auto& [region_name, region] : handles.regions) {
      for (const asl::ObjectId t : handles.runs) {
        if (prop->name == "EnumEquality") {
          for (const std::int32_t k : {0, 1, 24}) {
            contexts.push_back({RtValue::of_object(region),
                                RtValue::of_object(t),
                                RtValue::of_enum(timing, k)});
          }
          continue;
        }
        for (const asl::ObjectId u : handles.runs) {
          contexts.push_back({RtValue::of_object(region),
                              RtValue::of_object(t), RtValue::of_object(u)});
        }
      }
    }
    std::size_t holds = 0;
    std::size_t gaps = 0;
    for (const std::vector<RtValue>& args : contexts) {
      const PropertyResult expected = interp.evaluate_property(*prop, args);
      holds += expected.holds() ? 1 : 0;
      gaps += expected.status == PropertyResult::Status::kNotApplicable;
    }
    // Every property but the division has contexts that hold and none that
    // is a data gap; every division is one.
    if (prop->name == "DivisionByZero") {
      EXPECT_EQ(gaps, contexts.size());
    } else {
      EXPECT_GT(holds, 0u) << name;
      EXPECT_EQ(gaps, 0u) << name;
    }
    for (const cosy::SqlEvalMode mode :
         {cosy::SqlEvalMode::kPushdown, cosy::SqlEvalMode::kClientSide,
          cosy::SqlEvalMode::kWholeCondition}) {
      cosy::SqlEvaluator sql(model, conn, mode);
      for (const std::vector<RtValue>& args : contexts) {
        expect_same(interp.evaluate_property(*prop, args),
                    sql.evaluate_property(*prop, args),
                    kojak::support::cat(name, " mode ",
                                        static_cast<int>(mode), " ",
                                        args[0].to_display(), " ",
                                        args[1].to_display(), " ",
                                        args[2].to_display()));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Differential: interpreter vs SQL pushdown on every paper property and
// context of real workloads.

struct DiffCase {
  const char* workload;
  perf::AppSpec (*factory)();
  std::uint64_t seed;
};

class SqlDifferential : public ::testing::TestWithParam<DiffCase> {};

TEST_P(SqlDifferential, AllPropertiesAllContextsAgree) {
  World world(GetParam().factory(), {1, 4, 16}, GetParam().seed);
  const asl::Interpreter interp(world.model, world.store);
  cosy::SqlEvaluator sql(world.model, world.conn);

  const auto region_class = *world.model.find_class("Region");
  const auto call_class = *world.model.find_class("FunctionCall");
  const RtValue basis =
      RtValue::of_object(world.handles.regions.at(world.handles.main_region));

  std::size_t checked = 0;
  for (const asl::PropertyInfo& prop : world.model.properties()) {
    const bool over_regions =
        prop.params[0].second == asl::Type::class_of(region_class);
    ASSERT_TRUE(over_regions ||
                prop.params[0].second == asl::Type::class_of(call_class));
    std::vector<std::pair<std::string, RtValue>> firsts;
    if (over_regions) {
      for (const auto& [name, id] : world.handles.regions) {
        firsts.emplace_back(name, RtValue::of_object(id));
      }
    } else {
      for (std::size_t i = 0; i < world.handles.call_sites.size(); ++i) {
        firsts.emplace_back(world.handles.call_site_labels[i],
                            RtValue::of_object(world.handles.call_sites[i]));
      }
    }
    for (const auto& [label, first] : firsts) {
      for (const asl::ObjectId run : world.handles.runs) {
        const std::vector<RtValue> args = {first, RtValue::of_object(run),
                                           basis};
        const PropertyResult a = interp.evaluate_property(prop, args);
        const PropertyResult b = sql.evaluate_property(prop, args);
        expect_same(a, b, kojak::support::cat(prop.name, " @ ", label));
        ++checked;
      }
    }
  }
  // 13 properties x (regions or call sites) x 3 runs — a real sweep (the
  // smallest workload, message_bound, yields 99 contexts).
  EXPECT_GT(checked, 90u);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, SqlDifferential,
    ::testing::Values(
        DiffCase{"ocean", &perf::workloads::imbalanced_ocean, 1},
        DiffCase{"stencil", &perf::workloads::scalable_stencil, 2},
        DiffCase{"serial", &perf::workloads::serial_bottleneck, 3},
        DiffCase{"messages", &perf::workloads::message_bound, 4},
        DiffCase{"io", &perf::workloads::io_heavy, 5}),
    [](const auto& info) { return info.param.workload; });

// ---------------------------------------------------------------------------
// Differential on randomized synthetic stores: the data need not come from
// the simulator for the two evaluators to agree.

class RandomStoreDifferential : public ::testing::TestWithParam<int> {};

TEST_P(RandomStoreDifferential, Agrees) {
  kojak::support::Rng rng(GetParam());

  asl::Model model = cosy::load_cosy_model();
  asl::ObjectStore store(model);
  const auto enum_id = *model.find_enum("TimingType");

  // Hand-rolled random population: one version, 2 runs, N regions.
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
      // Not every region gets timings in every run (exercises UNIQUE gaps).
      if (i > 0 && rng.chance(0.2)) continue;
      const asl::ObjectId total = store.create("TotalTiming");
      store.set_attr(total, "Run", RtValue::of_object(run));
      const double incl = rng.uniform(10, 1000);
      store.set_attr(total, "Incl", RtValue::of_float(incl));
      store.set_attr(total, "Excl", RtValue::of_float(incl * rng.uniform(0.2, 0.9)));
      store.set_attr(total, "Ovhd", RtValue::of_float(incl * rng.uniform(0.0, 0.5)));
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
  cosy::SqlEvaluator sql(model, conn);

  for (const char* prop_name :
       {"SublinearSpeedup", "MeasuredCost", "UnmeasuredCost", "SyncCost",
        "IOCost", "MessagePassingCost", "CommunicationBound",
        "InstrumentationOverhead", "IdleWaitCost"}) {
    const asl::PropertyInfo* prop = model.find_property(prop_name);
    ASSERT_NE(prop, nullptr) << prop_name;
    for (const asl::ObjectId region : regions) {
      for (const asl::ObjectId run : runs) {
        const std::vector<RtValue> args = {RtValue::of_object(region),
                                           RtValue::of_object(run),
                                           RtValue::of_object(regions[0])};
        expect_same(interp.evaluate_property(*prop, args),
                    sql.evaluate_property(*prop, args),
                    kojak::support::cat(prop_name, " region ", region, " run ",
                                        run, " seed ", GetParam()));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomStoreDifferential,
                         ::testing::Range(1, 13));

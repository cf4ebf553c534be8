// Structural golden pin of the ASL -> SQL compilers. Every statement the
// COSY suite compiles to is recorded in golden/compiled_sql.txt:
//   * explain_whole_condition of all 13 properties, with and without the
//     common-subexpression pass, on three layouts (flat, the default
//     owner-partitioned timing junctions, and Region_TotTimes/TypTimes
//     member-partitioned x8, where the partition-union rewrite fires);
//   * explain_set of every set expression in the suite's properties and
//     functions, over an imported workload.
// A statement matches its golden text when both parse to the same
// db::sql::structural_key (spelling may differ, the statement may not); the
// `-- fused:` explain notes must match exactly. A second test runs the suite
// and checks that every cached plan's tree — what each evaluator executes —
// is exactly the parse of the plan's rendered text.
//
// Regenerate (only when a compiler change is meant to change statements):
//   KOJAK_UPDATE_GOLDEN=1 ./cosy_sql_golden_test

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>

#include "cosy/analyzer.hpp"
#include "cosy/db_import.hpp"
#include "cosy/schema_gen.hpp"
#include "cosy/specs.hpp"
#include "cosy/sql_eval.hpp"
#include "cosy/store_builder.hpp"
#include "db/sql/parser.hpp"
#include "db/sql/render.hpp"
#include "perf/simulator.hpp"
#include "perf/workloads.hpp"
#include "support/error.hpp"

namespace asl = kojak::asl;
namespace cosy = kojak::cosy;
namespace db = kojak::db;
namespace perf = kojak::perf;
namespace sql = kojak::db::sql;

namespace {

using Records = std::map<std::string, std::string>;  // label -> explain text

std::filesystem::path golden_path() {
  return std::filesystem::path(__FILE__).parent_path() / "golden" /
         "compiled_sql.txt";
}

struct Layout {
  const char* name;
  cosy::SchemaOptions options;
};

std::vector<Layout> layouts() {
  std::vector<Layout> out;
  cosy::SchemaOptions flat;
  flat.region_timing_partitions = 1;
  out.push_back({"flat", flat});
  out.push_back({"owner4", cosy::SchemaOptions{}});
  cosy::SchemaOptions member;
  member.junction_partitions.push_back({"Region", "TotTimes", "member", 8});
  member.junction_partitions.push_back({"Region", "TypTimes", "member", 8});
  out.push_back({"member8", member});
  return out;
}

void add_whole_condition(const asl::Model& model, Records& out) {
  for (const Layout& layout : layouts()) {
    db::Database database;
    cosy::create_schema(database, model, layout.options);
    db::Connection conn(database, db::ConnectionProfile::in_memory());
    for (const bool cse : {true, false}) {
      cosy::SqlEvaluator eval(model, conn, cosy::SqlEvalMode::kWholeCondition,
                              nullptr, cse);
      for (const asl::PropertyInfo& prop : model.properties()) {
        out[std::string("whole/") + layout.name + (cse ? "/cse/" : "/plain/") +
            prop.name] = eval.explain_whole_condition(prop);
      }
    }
  }
}

/// Every set expression reachable in `e`: comprehensions and the set
/// operands of aggregates, UNIQUE, EXISTS and SIZE.
void collect_sets(const asl::ast::Expr& e,
                  std::vector<const asl::ast::Expr*>& out) {
  using Kind = asl::ast::Expr::Kind;
  switch (e.kind) {
    case Kind::kComprehension:
      out.push_back(&e);
      break;
    case Kind::kAggregate:
    case Kind::kUnique:
    case Kind::kExists:
    case Kind::kSize:
      // A comprehension operand records itself when the walk reaches it.
      if (e.base && e.base->kind != Kind::kComprehension) {
        out.push_back(e.base.get());
      }
      break;
    default:
      break;
  }
  for (const auto* child :
       {e.base.get(), e.lhs.get(), e.rhs.get(), e.agg_value.get(),
        e.filter.get()}) {
    if (child != nullptr) collect_sets(*child, out);
  }
  for (const auto& arg : e.args) collect_sets(*arg, out);
}

void add_sets(const asl::Model& model, Records& out) {
  asl::ObjectStore store{model};
  db::Database database;
  db::Connection conn(database, db::ConnectionProfile::in_memory());
  const perf::ExperimentData data = perf::simulate_experiment(
      perf::workloads::imbalanced_ocean(), {1, 4}, perf::SimulationOptions{});
  const cosy::StoreHandles handles = cosy::build_store(store, data);
  cosy::create_schema(database, model);
  cosy::import_store(conn, store);
  cosy::SqlEvaluator eval(model, conn);

  const auto arg_of = [&](const asl::Type& type) {
    if (type.kind == asl::TypeKind::kEnum) {
      return asl::RtValue::of_enum(type.id, 1);
    }
    const std::string& cls = model.class_info(type.id).name;
    if (cls == "Region") {
      return asl::RtValue::of_object(handles.regions.at("main.time_loop.step"));
    }
    if (cls == "TestRun") return asl::RtValue::of_object(handles.runs.at(1));
    if (cls == "FunctionCall") {
      return asl::RtValue::of_object(handles.call_sites.at(0));
    }
    throw kojak::support::EvalError("no golden argument for class " + cls);
  };
  const auto record = [&](const std::string& owner,
                          const std::vector<std::pair<std::string, asl::Type>>&
                              params,
                          const std::vector<const asl::ast::Expr*>& roots) {
    const asl::PropertyInfo scope{owner, params, {}, {}, {}, {}};
    std::vector<asl::RtValue> args;
    for (const auto& [name, type] : params) args.push_back(arg_of(type));
    std::vector<const asl::ast::Expr*> sets;
    for (const asl::ast::Expr* root : roots) collect_sets(*root, sets);
    for (std::size_t i = 0; i < sets.size(); ++i) {
      std::string text;
      try {
        text = eval.explain_set(*sets[i], scope, args);
      } catch (const kojak::support::EvalError& error) {
        text = std::string("error: ") + error.what();
      }
      out["set/" + owner + "/" + std::to_string(i)] = text;
    }
  };
  for (const asl::FunctionInfo& fn : model.functions()) {
    record(fn.name, fn.params, {fn.body});
  }
  for (const asl::PropertyInfo& prop : model.properties()) {
    std::vector<const asl::ast::Expr*> roots;
    for (const asl::LetInfo& let : prop.lets) roots.push_back(let.init);
    for (const asl::ConditionInfo& cond : prop.conditions) {
      roots.push_back(cond.pred);
    }
    for (const auto* arms : {&prop.confidence, &prop.severity}) {
      for (const asl::GuardedInfo& arm : *arms) roots.push_back(arm.expr);
    }
    record(prop.name, prop.params, roots);
  }
}

Records compile_suite() {
  const asl::Model model = cosy::load_cosy_model();
  Records out;
  add_whole_condition(model, out);
  add_sets(model, out);
  return out;
}

// File format: "## <label>" then the explain text, one record per label.
Records read_golden() {
  std::ifstream in(golden_path());
  Records out;
  std::string line;
  std::string label;
  while (std::getline(in, line)) {
    if (line.rfind("## ", 0) == 0) {
      label = line.substr(3);
      out[label];
      continue;
    }
    std::string& text = out[label];
    if (!text.empty()) text += '\n';
    text += line;
  }
  return out;
}

void write_golden(const Records& records) {
  std::ofstream out(golden_path());
  for (const auto& [label, text] : records) {
    out << "## " << label << '\n' << text << '\n';
  }
}

/// The statement line of an explain text, and the remaining note lines.
std::pair<std::string, std::string> split_explain(const std::string& text) {
  const std::size_t nl = text.find('\n');
  if (nl == std::string::npos) return {text, ""};
  return {text.substr(0, nl), text.substr(nl + 1)};
}

std::string key_of(const std::string& sql_text) {
  const sql::Statement parsed = sql::parse_single(sql_text);
  return sql::structural_key(std::get<sql::SelectStmt>(parsed));
}

}  // namespace

TEST(CompiledSqlGolden, EveryStatementParsesToItsGoldenTree) {
  const Records now = compile_suite();
  if (std::getenv("KOJAK_UPDATE_GOLDEN") != nullptr) {
    write_golden(now);
    GTEST_SKIP() << "wrote " << golden_path();
  }
  const Records golden = read_golden();
  ASSERT_FALSE(golden.empty()) << "missing " << golden_path();
  std::size_t whole = 0;
  std::size_t sets = 0;
  for (const auto& [label, text] : golden) {
    SCOPED_TRACE(label);
    const auto it = now.find(label);
    ASSERT_NE(it, now.end()) << "no longer compiled";
    if (text.rfind("error: ", 0) == 0) {
      EXPECT_EQ(it->second, text);
      continue;
    }
    const auto [golden_sql, golden_notes] = split_explain(text);
    const auto [now_sql, now_notes] = split_explain(it->second);
    EXPECT_EQ(key_of(now_sql), key_of(golden_sql))
        << "golden: " << golden_sql << "\nnow:    " << now_sql;
    EXPECT_EQ(now_notes, golden_notes);
    ++(label.rfind("whole/", 0) == 0 ? whole : sets);
  }
  EXPECT_EQ(now.size(), golden.size());
  // 13 properties x 3 layouts x {cse, plain}, and the suite's 9 set sites.
  EXPECT_EQ(whole, 13u * 3u * 2u);
  EXPECT_EQ(sets, 9u);
}

TEST(CompiledSqlGolden, EveryExecutedTreeIsTheParseOfItsText) {
  const asl::Model model = cosy::load_cosy_model();
  asl::ObjectStore store{model};
  const perf::ExperimentData data = perf::simulate_experiment(
      perf::workloads::imbalanced_ocean(), {1, 4}, perf::SimulationOptions{});
  const cosy::StoreHandles handles = cosy::build_store(store, data);
  const asl::ObjectId run = handles.runs.back();
  const asl::ObjectId basis = handles.regions.at(handles.main_region);

  std::size_t checked = 0;
  for (const Layout& layout : layouts()) {
    db::Database database;
    cosy::create_schema(database, model, layout.options);
    db::Connection conn(database, db::ConnectionProfile::in_memory());
    cosy::import_store(conn, store);
    for (const auto& [mode, cse] :
         {std::pair{cosy::SqlEvalMode::kPushdown, true},
          std::pair{cosy::SqlEvalMode::kWholeCondition, true},
          std::pair{cosy::SqlEvalMode::kWholeCondition, false}}) {
      cosy::PlanCache cache(model);
      cosy::SqlEvaluator eval(model, conn, mode, &cache, cse);
      for (const asl::PropertyInfo& prop : model.properties()) {
        for (cosy::PropertyContext& ctx : cosy::enumerate_property_contexts(
                 model, handles, prop, run, basis)) {
          (void)eval.evaluate_property(prop, std::move(ctx.args));
        }
      }
      EXPECT_EQ(eval.stats().whole_fallbacks, 0u) << layout.name;
      for (const auto& plan : cache.plans()) {
        SCOPED_TRACE(plan->sql);
        ASSERT_NE(plan->tree, nullptr);
        EXPECT_EQ(sql::structural_key(*plan->tree), key_of(plan->sql));
        std::string text;
        std::vector<std::size_t> order;
        ASSERT_TRUE(sql::render_select_sql(*plan->tree, text, order));
        EXPECT_EQ(text, plan->sql);
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0u);
}

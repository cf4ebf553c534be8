// Experiment A2 (paper §6, future work made real): automatic generation of
// the database design from the specification and automatic translation of
// property conditions into SQL. Times the spec -> schema -> import -> query
// pipeline and shows a sample of the SQL the compiler emits.

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_util.hpp"
#include "cosy/sql_eval.hpp"
#include "support/str.hpp"

using namespace kojak;

namespace {

bench::World& world() {
  static bench::World w(perf::workloads::imbalanced_ocean(), {1, 16});
  return w;
}

void BM_GenerateDdl(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(cosy::generate_ddl(world().model));
  }
}

void BM_CreateSchema(benchmark::State& state) {
  for (auto _ : state) {
    db::Database database;
    cosy::create_schema(database, world().model);
    benchmark::DoNotOptimize(database.table_names());
  }
}

void BM_ImportStore(benchmark::State& state) {
  std::size_t rows = 0;
  for (auto _ : state) {
    db::Database database;
    cosy::create_schema(database, world().model);
    db::Connection conn(database, db::ConnectionProfile::in_memory());
    rows = cosy::import_store(conn, *world().store).rows;
  }
  state.counters["rows"] = static_cast<double>(rows);
}

void BM_RebuildStore(benchmark::State& state) {
  const std::unique_ptr<db::Database> database = world().make_database();
  db::Connection conn(*database, db::ConnectionProfile::in_memory());
  for (auto _ : state) {
    benchmark::DoNotOptimize(cosy::rebuild_store(conn, world().model));
  }
}

void BM_CompileAndRunProperty(benchmark::State& state) {
  const std::unique_ptr<db::Database> database = world().make_database();
  db::Connection conn(*database, db::ConnectionProfile::in_memory());
  const asl::PropertyInfo* prop = world().model.find_property("SublinearSpeedup");
  const std::vector<asl::RtValue> args = {
      asl::RtValue::of_object(world().handles.regions.at("main")),
      asl::RtValue::of_object(world().handles.runs[1]),
      asl::RtValue::of_object(world().handles.regions.at("main"))};
  std::uint64_t queries = 0;
  for (auto _ : state) {
    // A fresh evaluator starts with an empty plan cache of its own, so
    // every iteration compiles the property as well as running it.
    cosy::SqlEvaluator sql(world().model, conn);
    benchmark::DoNotOptimize(sql.evaluate_property(*prop, args));
    queries += sql.stats().sql_queries;
  }
  // Per iteration: google-benchmark picks the iteration count by timing.
  state.counters["queries"] = benchmark::Counter(
      static_cast<double>(queries), benchmark::Counter::kAvgIterations);
}

void print_generated_artifacts() {
  std::cout << "\n=== A2: automatic schema generation + ASL->SQL translation "
               "(the paper's §6 future work) ===\n\nGenerated DDL (first "
               "8 statements of "
            << cosy::generate_ddl(world().model).size() << "):\n";
  const auto ddl = cosy::generate_ddl(world().model);
  for (std::size_t i = 0; i < ddl.size() && i < 8; ++i) {
    std::cout << "  " << ddl[i] << ";\n";
  }

  const std::unique_ptr<db::Database> database = world().make_database();
  db::Connection conn(*database, db::ConnectionProfile::in_memory());
  cosy::SqlEvaluator sql(world().model, conn);
  const asl::FunctionInfo* summary = world().model.find_function("Summary");
  const asl::PropertyInfo fake{
      "ctx",
      {{"r", asl::Type::class_of(*world().model.find_class("Region"))},
       {"t", asl::Type::class_of(*world().model.find_class("TestRun"))}},
      {}, {}, {}, {}};
  std::cout << "\nCompiled set query for Summary's comprehension "
               "{s IN r.TotTimes WITH s.Run == t}:\n  "
            << sql.explain_set(*summary->body->base, fake,
                               {asl::RtValue::of_object(
                                    world().handles.regions.at("main")),
                                asl::RtValue::of_object(world().handles.runs[1])})
            << "\n\n";
}

}  // namespace

BENCHMARK(BM_GenerateDdl)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_CreateSchema)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ImportStore)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RebuildStore)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CompileAndRunProperty)->Unit(benchmark::kMicrosecond);

int main(int argc, char** argv) {
  print_generated_artifacts();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

// Experiment T4 (paper §3): the COSY analysis itself. Prints the ranked
// property table for the flagship workload at several PE counts — the
// output the paper describes presenting to the application programmer —
// and times the end-to-end analysis per strategy.

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_util.hpp"
#include "support/str.hpp"

using namespace kojak;

namespace {

bench::World& world() {
  static bench::World w(perf::workloads::imbalanced_ocean(), {1, 4, 16, 64, 128});
  return w;
}

db::Database& database() {
  static std::unique_ptr<db::Database> db = world().make_database();
  return *db;
}

void BM_AnalyzeInterpreter(benchmark::State& state) {
  cosy::Analyzer analyzer(world().model, *world().store, world().handles);
  cosy::AnalyzerConfig config;
  const auto run = static_cast<std::size_t>(state.range(0));
  std::size_t findings = 0;
  for (auto _ : state) {
    findings = analyzer.analyze(run, config).findings.size();
  }
  state.counters["findings"] = static_cast<double>(findings);
}

void BM_AnalyzeInterpreterParallel(benchmark::State& state) {
  cosy::Analyzer analyzer(world().model, *world().store, world().handles);
  cosy::AnalyzerConfig config;
  config.threads = 0;  // one worker per hardware thread
  const auto run = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.analyze(run, config));
  }
}

void BM_AnalyzeSqlPushdown(benchmark::State& state) {
  db::Connection conn(database(), db::ConnectionProfile::in_memory());
  cosy::Analyzer analyzer(world().model, *world().store, world().handles, &conn);
  cosy::AnalyzerConfig config;
  config.backend = "sql-pushdown";
  const auto run = static_cast<std::size_t>(state.range(0));
  std::uint64_t queries = 0;
  for (auto _ : state) {
    queries = analyzer.analyze(run, config).sql_queries;
  }
  state.counters["sql_queries"] = static_cast<double>(queries);
}

void print_ranked_tables() {
  cosy::Analyzer analyzer(world().model, *world().store, world().handles);
  std::cout << "\n=== T4: COSY ranked analysis of " << world().data.structure.program_name
            << " (paper §3: properties ranked by severity; bottleneck + "
               "problem threshold) ===\n";
  for (const std::size_t run : {2u, 4u}) {
    const cosy::AnalysisReport report = analyzer.analyze(run);
    std::cout << '\n' << report.to_table(10);
  }
  std::cout << '\n';
}

}  // namespace

BENCHMARK(BM_AnalyzeInterpreter)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AnalyzeInterpreterParallel)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AnalyzeSqlPushdown)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

int main(int argc, char** argv) {
  print_ranked_tables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

// Batch engine experiment: N runs × threads sweep on the SQL-pushdown
// strategy. The baseline is the sequential per-run loop (one session, no
// plan cache — exactly what the single-run Analyzer did before the batch
// engine existed). The batch rows show what the batch engine changes:
//   * the connection pool parallelizes the modelled backend traffic, so the
//     makespan (busiest session, the JSON `backend_ms`) drops roughly
//     linearly with sessions;
//   * the modelled serial-equivalent backend time (the table's `backend
//     ms`) stays the loop's at every thread count: the statements are the
//     same, and every session connects before the clock is read. The
//     shared compiled-plan cache cuts real engine time, not modelled time.
// Findings are asserted byte-identical across every configuration.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <iostream>

#include "bench_util.hpp"
#include "cosy/batch.hpp"
#include "db/connection_pool.hpp"
#include "support/str.hpp"
#include "support/table.hpp"

using namespace kojak;

namespace {

bool smoke_mode() { return std::getenv("KOJAK_BENCH_SMOKE") != nullptr; }

const std::vector<int>& pe_counts() {
  static const std::vector<int> kFull = {1, 2, 4, 8, 12, 16, 24, 32};
  static const std::vector<int> kSmoke = {1, 4};
  return smoke_mode() ? kSmoke : kFull;
}

const std::vector<std::size_t>& thread_counts() {
  static const std::vector<std::size_t> kFull = {1, 2, 4, 8};
  static const std::vector<std::size_t> kSmoke = {1, 2};
  return smoke_mode() ? kSmoke : kFull;
}

bench::World& world() {
  static bench::World instance(perf::workloads::imbalanced_ocean(),
                               pe_counts());
  return instance;
}

db::Database& shared_database() {
  static std::unique_ptr<db::Database> database = world().make_database();
  return *database;
}

std::string digest(const std::vector<cosy::BatchItem>& items) {
  std::string out;
  for (const cosy::BatchItem& item : items) {
    out += item.report.to_table(1000);
  }
  return out;
}

struct Outcome {
  double wall_ms = 0;
  double backend_ms = 0;  // makespan for the batch, total for the baseline
  /// Summed over every session: unlike the makespan, it does not depend on
  /// which pooled session served which run.
  double backend_total_ms = 0;
  double hit_rate = 0;
  std::uint64_t queries = 0;
  std::string digest;
};

/// The pre-batch behavior: one session, one run at a time, each run's
/// translation from scratch (no plan cache shared across runs).
Outcome run_sequential_baseline() {
  db::Connection conn(shared_database(), db::ConnectionProfile::postgres());
  cosy::Analyzer analyzer(world().model, *world().store, world().handles,
                          &conn);
  cosy::AnalyzerConfig config;
  config.backend = "sql-pushdown";

  Outcome outcome;
  const double v0 = conn.clock().now_ms();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t run = 0; run < world().handles.runs.size(); ++run) {
    const cosy::AnalysisReport report = analyzer.analyze(run, config);
    outcome.queries += report.sql_queries;
    outcome.digest += report.to_table(1000);
  }
  outcome.wall_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  outcome.backend_ms = conn.clock().now_ms() - v0;
  outcome.backend_total_ms = outcome.backend_ms;
  return outcome;
}

Outcome run_batch(std::size_t threads) {
  db::ConnectionPool pool(shared_database(), db::ConnectionProfile::postgres(),
                          threads);
  bench::connect_all(pool);
  cosy::BatchAnalyzer batch(world().model, *world().store, world().handles,
                            &pool);
  cosy::BatchConfig config;
  config.threads = threads;
  const cosy::BatchResult result = batch.analyze_all(config);

  Outcome outcome;
  outcome.wall_ms = result.summary.wall_ms;
  outcome.backend_ms = result.summary.backend_makespan_ms;
  outcome.backend_total_ms = result.summary.backend_total_ms;
  outcome.hit_rate = result.summary.plan_cache_hit_rate();
  outcome.queries = result.summary.sql_queries;
  outcome.digest = digest(result.items);
  return outcome;
}

void print_summary_table() {
  const Outcome baseline = run_sequential_baseline();

  support::TablePrinter table;
  table.add_column("config")
      .add_column("backend ms", support::TablePrinter::Align::kRight)
      .add_column("speedup", support::TablePrinter::Align::kRight)
      .add_column("wall ms", support::TablePrinter::Align::kRight)
      .add_column("wall speedup", support::TablePrinter::Align::kRight)
      .add_column("hit rate", support::TablePrinter::Align::kRight)
      .add_column("queries", support::TablePrinter::Align::kRight)
      .add_column("identical", support::TablePrinter::Align::kRight);
  table.add_row({"sequential loop",
                 support::format_double(baseline.backend_total_ms, 5),
                 "1.0", support::format_double(baseline.wall_ms, 5), "1.0", "-",
                 std::to_string(baseline.queries), "ref"});

  bool all_identical = true;
  for (const std::size_t threads : thread_counts()) {
    const Outcome batch = run_batch(threads);
    const bool identical = batch.digest == baseline.digest;
    all_identical = all_identical && identical;
    table.add_row(
        {support::cat("batch x", threads, " threads"),
         support::format_double(batch.backend_total_ms, 5),
         support::format_double(
             baseline.backend_total_ms / batch.backend_total_ms, 3),
         support::format_double(batch.wall_ms, 5),
         support::format_double(baseline.wall_ms / batch.wall_ms, 3),
         support::format_double(batch.hit_rate, 3),
         std::to_string(batch.queries), identical ? "yes" : "NO"});
  }

  std::cout << "\n=== Batch analysis engine: " << world().handles.runs.size()
            << " runs x " << world().model.properties().size()
            << " properties, SQL pushdown over the Postgres profile ===\n"
            << table.render()
            << "(backend ms = modelled wire/server time summed over every "
               "pooled session, whichever session served which run; "
               "'sequential loop' is one session doing every run in order "
               "with no plan cache. 'identical' checks the rendered findings "
               "byte-for-byte against the baseline.)\n\n";
  if (!all_identical) {
    std::cerr << "FATAL: batch findings diverged from the sequential loop\n";
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  print_summary_table();
  for (const std::size_t threads : thread_counts()) {
    benchmark::RegisterBenchmark(
        support::cat("BM_BatchAnalysis/threads_", threads).c_str(),
        [threads](benchmark::State& state) {
          Outcome outcome;
          for (auto _ : state) {
            outcome = run_batch(threads);
          }
          // The busiest session's makespan: it depends on which pooled
          // session served which run, so it moves between runs.
          state.counters["backend_ms"] = outcome.backend_ms;
          state.counters["hit_rate"] = outcome.hit_rate;
        })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(smoke_mode() ? 1 : 2);
  }
  benchmark::RegisterBenchmark(
      "BM_SequentialLoop",
      [](benchmark::State& state) {
        Outcome outcome;
        for (auto _ : state) {
          outcome = run_sequential_baseline();
        }
        state.counters["backend_ms"] = outcome.backend_ms;
      })
      ->Unit(benchmark::kMillisecond)
      ->Iterations(smoke_mode() ? 1 : 2);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

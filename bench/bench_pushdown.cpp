// Experiment T3 (paper §5, work distribution): "It is a significant
// advantage to translate the conditions of performance properties entirely
// into SQL queries instead of first accessing the data components and
// evaluating the expressions in the analysis tool."
//
// Sweeps the program size and compares five evaluation backends —
// sql-pushdown, sql-whole-condition-plain (the paper's §6 future work: ONE
// statement per (property, context)), sql-whole-condition (the same with
// common subexpressions hoisted into engine-side CTEs: every shared
// subquery executes once per context and binds its arguments once),
// client-fetch, and bulk-fetch — on two axes:
//   * modelled wire time on distributed backends (Oracle 7 and Postgres,
//     what §5 observed), and
//   * real engine time (all backends do real relational work here).
//
// Under KOJAK_BENCH_SMOKE=1 only the smallest scale runs, but every column
// (including whole-condition) still prints, so CI exercises the whole
// comparison.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>

#include "asl/sema.hpp"
#include "bench_util.hpp"
#include "cosy/eval_backend.hpp"
#include "cosy/sql_eval.hpp"
#include "db/connection_pool.hpp"
#include "support/str.hpp"
#include "support/table.hpp"

using namespace kojak;

namespace {

struct Scale {
  std::size_t functions;
  std::size_t regions_per_function;
};

bool smoke_mode() {
  const char* env = std::getenv("KOJAK_BENCH_SMOKE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

const std::vector<Scale>& scales() {
  static const std::vector<Scale> kScales = [] {
    std::vector<Scale> all = {{4, 5}, {8, 10}, {16, 20}};
    if (smoke_mode()) all.resize(1);
    return all;
  }();
  return kScales;
}

bench::World& world_at(std::size_t index) {
  static std::vector<std::unique_ptr<bench::World>> cache(scales().size());
  if (!cache[index]) {
    const Scale scale = scales()[index];
    cache[index] = std::make_unique<bench::World>(
        perf::workloads::synthetic_scale(scale.functions,
                                         scale.regions_per_function),
        std::vector<int>{1, 16});
  }
  return *cache[index];
}

struct BackendOutcome {
  double virtual_ms = 0;
  double real_ms = 0;
  std::uint64_t queries = 0;
  std::size_t findings = 0;
};

/// Analyzes run 1 with `backend` on `threads` workers. Several workers get
/// a pool of that many sessions, all connected before the clock is read,
/// so `virtual_ms` sums the same statements as one session's clock.
BackendOutcome run_backend(bench::World& world, const std::string& backend,
                           const db::ConnectionProfile& profile,
                           std::size_t threads = 1) {
  db::Database database;
  cosy::create_schema(database, world.model);
  {
    db::Connection import_conn(database, db::ConnectionProfile::in_memory());
    cosy::import_store(import_conn, *world.store);
  }
  cosy::PlanCache cache(world.model);
  cosy::AnalyzerConfig config;
  config.backend = backend;
  config.plan_cache = &cache;
  config.threads = threads;

  if (threads > 1) {
    db::ConnectionPool pool(database, profile, threads);
    bench::connect_all(pool);
    cosy::Analyzer analyzer(world.model, *world.store, world.handles,
                            /*conn=*/nullptr, &pool);
    const double v0 = pool.total_clock_us();
    const auto t0 = std::chrono::steady_clock::now();
    const cosy::AnalysisReport report = analyzer.analyze(1, config);
    const auto t1 = std::chrono::steady_clock::now();
    BackendOutcome outcome;
    // The clocks tick in whole nanoseconds: round away the error of
    // subtracting two sums that include every session's connect.
    outcome.virtual_ms =
        std::round((pool.total_clock_us() - v0) * 1000.0) / 1'000'000.0;
    outcome.real_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    outcome.queries = report.sql_queries;
    outcome.findings = report.findings.size();
    return outcome;
  }

  // Analysis happens over a distributed backend: wire costs count.
  db::Connection conn(database, profile);
  cosy::Analyzer analyzer(world.model, *world.store, world.handles, &conn);

  const double v0 = conn.clock().now_ms();
  const auto t0 = std::chrono::steady_clock::now();
  const cosy::AnalysisReport report = analyzer.analyze(1, config);
  const auto t1 = std::chrono::steady_clock::now();

  BackendOutcome outcome;
  outcome.virtual_ms = conn.clock().now_ms() - v0;
  outcome.real_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  outcome.queries = report.sql_queries;
  outcome.findings = report.findings.size();
  return outcome;
}

void print_summary_table() {
  const std::pair<const char*, db::ConnectionProfile> profiles[] = {
      {"oracle7", db::ConnectionProfile::oracle7()},
      {"postgres", db::ConnectionProfile::postgres()},
  };
  support::TablePrinter table;
  table.add_column("profile")
      .add_column("regions", support::TablePrinter::Align::kRight)
      .add_column("contexts", support::TablePrinter::Align::kRight)
      .add_column("pushdown ms", support::TablePrinter::Align::kRight)
      .add_column("whole ms", support::TablePrinter::Align::kRight)
      .add_column("whole+cse ms", support::TablePrinter::Align::kRight)
      .add_column("whole gain", support::TablePrinter::Align::kRight)
      .add_column("cse gain", support::TablePrinter::Align::kRight)
      .add_column("client ms", support::TablePrinter::Align::kRight)
      .add_column("bulk ms", support::TablePrinter::Align::kRight)
      .add_column("push q", support::TablePrinter::Align::kRight)
      .add_column("whole q", support::TablePrinter::Align::kRight);
  for (const auto& [profile_name, profile] : profiles) {
    for (std::size_t i = 0; i < scales().size(); ++i) {
      bench::World& world = world_at(i);
      const BackendOutcome push = run_backend(world, "sql-pushdown", profile);
      const BackendOutcome whole =
          run_backend(world, "sql-whole-condition-plain", profile);
      const BackendOutcome cse =
          run_backend(world, "sql-whole-condition", profile);
      const BackendOutcome fetch = run_backend(world, "client-fetch", profile);
      const BackendOutcome bulk = run_backend(world, "bulk-fetch", profile);
      cosy::Analyzer analyzer(world.model, *world.store, world.handles);
      table.add_row(
          {profile_name, std::to_string(world.handles.regions.size()),
           std::to_string(analyzer.context_count()),
           support::format_double(push.virtual_ms, 5),
           support::format_double(whole.virtual_ms, 5),
           support::format_double(cse.virtual_ms, 5),
           support::format_double(push.virtual_ms / whole.virtual_ms, 3),
           support::format_double(whole.virtual_ms / cse.virtual_ms, 3),
           support::format_double(fetch.virtual_ms, 5),
           support::format_double(bulk.virtual_ms, 5),
           std::to_string(push.queries), std::to_string(whole.queries)});
    }
  }
  std::cout << "\n=== T3: evaluation backends over distributed database "
               "profiles (paper §5: pushdown is a 'significant advantage'; "
               "§6: whole-condition compilation cuts each context to ONE "
               "statement; +cse hoists shared subexpressions into WITH CTEs "
               "that execute once and bind once) ===\n"
            << table.render()
            << "('whole q' equals the context count: one statement per "
               "(property, context) — the CSE pass keeps that invariant while "
               "cutting bound-parameter wire values and repeated engine-side "
               "scans. 'client' fetches data components record "
               "by record and evaluates in the tool — the paper's slow path; "
               "'bulk' is the modern batch variant. All backends compute "
               "identical findings.)\n\n";
}

// ---------------------------------------------------------------------------
// Partition-union rewrite: whole-set aggregates over a junction partitioned
// by member (one owner's rows spread across every shard) compile into one
// part<K> CTE per partition, materialized in parallel inside ONE statement.
// The flat column is the SAME compiler (whole-condition, CSE on) against the
// single-heap layout, where the rewrite has nothing to do — so the
// union-vs-flat delta the Release CI bench-compare step prints isolates the
// partition-union rewrite alone, not the CSE pass (the T3 table above
// already ablates that separately via sql-whole-condition-plain).

constexpr const char* kUnionSpec = R"(
  class Fleet {
    String Name;
    setof Probe Readings;
  }
  class Probe {
    int Slot;
    float T;
  }

  Property UnionLoad(Fleet f) {
    LET float Total = SUM(p.T WHERE p IN f.Readings);
        float Mean = AVG(p.T WHERE p IN f.Readings);
        int High = MAX(p.Slot WHERE p IN f.Readings);
    IN
    CONDITION: Total > 0;
    CONFIDENCE: 1;
    SEVERITY: Total / (Mean + High);
  };
)";

/// One populated database per (partitions) layout, built once and reused
/// across benchmark iterations (imports dominate otherwise).
struct UnionWorld {
  asl::Model model = asl::load_model({kUnionSpec});
  asl::ObjectStore store{model};
  std::vector<asl::ObjectId> fleets;
  std::map<std::size_t, std::unique_ptr<db::Database>> databases;

  UnionWorld(int fleet_count, int probes_per_fleet) {
    for (int f = 0; f < fleet_count; ++f) {
      const asl::ObjectId fleet = store.create("Fleet");
      store.set_attr(fleet, "Name",
                     asl::RtValue::of_string(support::cat("fleet", f)));
      fleets.push_back(fleet);
      for (int i = 0; i < probes_per_fleet; ++i) {
        const asl::ObjectId probe = store.create("Probe");
        store.set_attr(probe, "Slot", asl::RtValue::of_int(i % 17));
        store.set_attr(probe, "T",
                       asl::RtValue::of_float(0.25 * ((f * 7 + i) % 13) + 0.5));
        store.add_to_set(fleet, "Readings", probe);
      }
    }
  }

  db::Database& database_for(std::size_t partitions) {
    auto& slot = databases[partitions];
    if (!slot) {
      slot = std::make_unique<db::Database>();
      cosy::SchemaOptions options;
      options.junction_partitions.push_back(
          {"Fleet", "Readings", "member", partitions});
      cosy::create_schema(*slot, model, options);
      db::Connection conn(*slot, db::ConnectionProfile::in_memory());
      cosy::import_store(conn, store);
      slot->set_scan_config({.threads = 4, .min_parallel_rows = 1});
    }
    return *slot;
  }
};

UnionWorld& union_world() {
  static UnionWorld world(smoke_mode() ? 2 : 4, smoke_mode() ? 500 : 20000);
  return world;
}

struct UnionOutcome {
  double real_ms = 0;
  std::uint64_t statements = 0;
  std::uint64_t rewrites = 0;
  std::uint64_t parallel_ctes = 0;
};

/// Sweeps UnionLoad over every fleet with a fresh whole-condition (+CSE)
/// evaluator against the given layout; `partitions == 1` is the flat
/// baseline the rewrite never fires on.
UnionOutcome run_union(std::size_t partitions) {
  UnionWorld& world = union_world();
  db::Database& database = world.database_for(partitions);
  db::Connection conn(database, db::ConnectionProfile::in_memory());
  cosy::SqlEvaluator eval(world.model, conn,
                          cosy::SqlEvalMode::kWholeCondition);
  const asl::PropertyInfo* prop = world.model.find_property("UnionLoad");
  const auto before = database.exec_stats();
  const auto t0 = std::chrono::steady_clock::now();
  for (const asl::ObjectId fleet : world.fleets) {
    (void)eval.evaluate_property(*prop, {asl::RtValue::of_object(fleet)});
  }
  const auto t1 = std::chrono::steady_clock::now();
  const auto after = database.exec_stats();
  UnionOutcome outcome;
  outcome.real_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  outcome.statements = eval.stats().sql_queries;
  outcome.rewrites =
      after.partition_union_rewrites - before.partition_union_rewrites;
  outcome.parallel_ctes = after.cte_parallel_materializations -
                          before.cte_parallel_materializations;
  return outcome;
}

void print_union_table() {
  support::TablePrinter table;
  table.add_column("layout")
      .add_column("union ms", support::TablePrinter::Align::kRight)
      .add_column("flat ms", support::TablePrinter::Align::kRight)
      .add_column("union/flat", support::TablePrinter::Align::kRight)
      .add_column("stmts", support::TablePrinter::Align::kRight)
      .add_column("rewrites", support::TablePrinter::Align::kRight)
      .add_column("par CTEs", support::TablePrinter::Align::kRight);
  const UnionOutcome flat = run_union(1);
  for (const std::size_t partitions : {std::size_t{4}, std::size_t{8}}) {
    const UnionOutcome with_union = run_union(partitions);
    table.add_row({support::cat(partitions, " partition(s)"),
                   support::format_double(with_union.real_ms, 4),
                   support::format_double(flat.real_ms, 4),
                   support::format_double(with_union.real_ms / flat.real_ms, 3),
                   std::to_string(with_union.statements),
                   std::to_string(with_union.rewrites),
                   std::to_string(with_union.parallel_ctes)});
  }
  std::cout << "\n=== Partition-union rewrite: whole-set aggregates over a "
               "member-partitioned junction compile to per-partition CTE "
               "unions materialized in parallel inside ONE statement per "
               "(property, context); 'flat' is the SAME compiler on the "
               "single-heap layout, so the ratio isolates the rewrite "
               "(identical findings; the wall-clock win scales with cores — "
               "single-core CI shows counter proof, not speedup) ===\n"
            << table.render() << "\n";
}

/// `union_layout` selects the partitioned database; the paired flat bench
/// keeps the SAME name suffix but always measures the single-heap layout,
/// so bench_compare --pair diffs the rewrite and nothing else.
void register_union_bench(const char* label, bool union_layout,
                          std::size_t partitions) {
  benchmark::RegisterBenchmark(
      support::cat(label, "/parts_", partitions).c_str(),
      [union_layout, partitions](benchmark::State& state) {
        UnionOutcome outcome;
        for (auto _ : state) {
          outcome = run_union(union_layout ? partitions : 1);
        }
        state.counters["union_rewrites"] =
            static_cast<double>(outcome.rewrites);
        state.counters["parallel_ctes"] =
            static_cast<double>(outcome.parallel_ctes);
        state.counters["statements"] = static_cast<double>(outcome.statements);
      })
      ->Unit(benchmark::kMillisecond)
      ->Iterations(2);
}

void register_backend_bench(const char* label, const std::string& backend,
                            std::size_t scale_index, int iterations,
                            std::size_t threads = 1) {
  benchmark::RegisterBenchmark(
      support::cat(label, "/scale_", scales()[scale_index].functions, "x",
                   scales()[scale_index].regions_per_function)
          .c_str(),
      [backend, scale_index, threads](benchmark::State& state) {
        bench::World& world = world_at(scale_index);
        BackendOutcome outcome;
        for (auto _ : state) {
          outcome = run_backend(world, backend,
                                db::ConnectionProfile::postgres(), threads);
        }
        state.counters["virtual_ms"] = outcome.virtual_ms;
        state.counters["queries"] = static_cast<double>(outcome.queries);
      })
      ->Unit(benchmark::kMillisecond)
      ->Iterations(iterations);
}

}  // namespace

int main(int argc, char** argv) {
  print_summary_table();
  print_union_table();
  for (const std::size_t partitions : {std::size_t{4}, std::size_t{8}}) {
    register_union_bench("BM_PartitionUnion", /*union_layout=*/true,
                         partitions);
    register_union_bench("BM_PartitionFlat", /*union_layout=*/false,
                         partitions);
  }
  for (std::size_t i = 0; i < scales().size(); ++i) {
    register_backend_bench("BM_Pushdown", "sql-pushdown", i, 2);
    register_backend_bench("BM_WholeCondition", "sql-whole-condition-plain",
                           i, 2);
    register_backend_bench("BM_WholeConditionCse", "sql-whole-condition", i, 2);
    // The whole-condition backend on 4 workers over 4 sessions (the name
    // predates the fan-out; baselines and the CI pair key on it).
    register_backend_bench("BM_SqlSharded", "sql-whole-condition", i, 2,
                           /*threads=*/4);
    register_backend_bench("BM_ClientFetch", "client-fetch", i, 1);
    register_backend_bench("BM_BulkFetch", "bulk-fetch", i, 2);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

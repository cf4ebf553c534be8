// Quickstart: the complete COSY pipeline in one sitting.
//
//   1. "Run" a parallel application on the simulated CRAY T3E twice
//      (1 PE reference run and a 16 PE run), producing Apprentice summaries.
//   2. Load the ASL specification (data model + property suite).
//   3. Populate the performance database (object store + relational DB).
//   4. Analyze the 16 PE run: evaluate all properties, rank by severity,
//      report problems and the bottleneck.

#include <iostream>

#include "cosy/analyzer.hpp"
#include "cosy/db_import.hpp"
#include "cosy/schema_gen.hpp"
#include "cosy/specs.hpp"
#include "cosy/store_builder.hpp"
#include "perf/simulator.hpp"
#include "perf/workloads.hpp"

int main() {
  using namespace kojak;

  // 1. Simulate test runs of the flagship workload.
  const perf::AppSpec app = perf::workloads::imbalanced_ocean();
  const perf::ExperimentData data = perf::simulate_experiment(app, {1, 16});
  std::cout << "simulated " << data.runs.size() << " test runs of "
            << app.name << " (" << data.structure.functions.size()
            << " functions)\n";

  // 2. The specification documents drive everything downstream.
  const asl::Model model = cosy::load_cosy_model(/*extended=*/true);
  std::cout << "loaded ASL spec: " << model.classes().size() << " classes, "
            << model.properties().size() << " properties\n";

  // 3a. Object store (interpreter backend).
  asl::ObjectStore store(model);
  const cosy::StoreHandles handles = cosy::build_store(store, data);

  // 3b. Relational database via the generated schema (SQL backends).
  db::Database database;
  cosy::create_schema(database, model);
  db::Connection conn(database, db::ConnectionProfile::in_memory());
  const cosy::ImportStats import = cosy::import_store(conn, store);
  std::cout << "imported " << import.rows << " rows with "
            << import.statements << " statements\n\n";

  // 4. Analyze the 16 PE run with two evaluation backends.
  cosy::Analyzer analyzer(model, store, handles, &conn);

  cosy::AnalyzerConfig config;
  config.backend = "interpreter";
  const cosy::AnalysisReport report = analyzer.analyze(1, config);
  std::cout << report.to_table(12) << '\n';

  config.backend = "sql-pushdown";
  const cosy::AnalysisReport sql_report = analyzer.analyze(1, config);
  std::cout << "SQL pushdown agrees: "
            << (sql_report.findings.size() == report.findings.size() &&
                        (report.findings.empty() ||
                         sql_report.bottleneck()->property ==
                             report.bottleneck()->property)
                    ? "yes"
                    : "NO")
            << " (" << sql_report.sql_queries << " queries issued)\n";
  return 0;
}

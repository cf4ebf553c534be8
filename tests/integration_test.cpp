// End-to-end scenarios across all libraries: the full COSY pipeline the
// paper's Figure-less §3 describes, including the Apprentice report file as
// the tool interface and the backend cost model.

#include <gtest/gtest.h>

#include "asl/sema.hpp"
#include "cosy/analyzer.hpp"
#include "cosy/db_import.hpp"
#include "cosy/schema_gen.hpp"
#include "cosy/specs.hpp"
#include <functional>

#include "perf/report_io.hpp"
#include "perf/simulator.hpp"
#include "perf/workloads.hpp"
#include "support/str.hpp"

namespace asl = kojak::asl;
namespace cosy = kojak::cosy;
namespace db = kojak::db;
namespace perf = kojak::perf;

TEST(Integration, FullPipelineThroughReportFile) {
  // 1. Measure (simulate) and write the Apprentice report.
  const perf::AppSpec app = perf::workloads::imbalanced_ocean();
  const perf::ExperimentData measured =
      perf::simulate_experiment(app, {1, 8, 32});
  const std::string report_text = perf::write_report(measured);

  // 2. COSY imports the report file — this is the tool boundary.
  const perf::ExperimentData imported = perf::parse_report(report_text);

  // 3. Populate store + database.
  const asl::Model model = cosy::load_cosy_model();
  asl::ObjectStore store(model);
  const cosy::StoreHandles handles = cosy::build_store(store, imported);
  db::Database database;
  cosy::create_schema(database, model);
  db::Connection conn(database, db::ConnectionProfile::in_memory());
  cosy::import_store(conn, store);

  // 4. Analyze the largest run via SQL pushdown and check the headline.
  cosy::Analyzer analyzer(model, store, handles, &conn);
  cosy::AnalyzerConfig config;
  config.backend = "sql-pushdown";
  const cosy::AnalysisReport report = analyzer.analyze(2, config);
  ASSERT_NE(report.bottleneck(), nullptr);
  EXPECT_EQ(report.bottleneck()->property, "SublinearSpeedup");
  EXPECT_EQ(report.bottleneck()->context, "main");
  EXPECT_FALSE(report.tuned());
}

TEST(Integration, CostDecompositionIsConsistent) {
  // MeasuredCost + UnmeasuredCost ~ SublinearSpeedup at the program region
  // (when both cost shares are positive, severities add up to the total).
  const perf::AppSpec app = perf::workloads::imbalanced_ocean();
  const perf::ExperimentData data = perf::simulate_experiment(app, {1, 16});
  const asl::Model model = cosy::load_cosy_model();
  asl::ObjectStore store(model);
  const cosy::StoreHandles handles = cosy::build_store(store, data);
  const asl::Interpreter interp(model, store);

  const asl::RtValue main_region =
      asl::RtValue::of_object(handles.regions.at("main"));
  const asl::RtValue run = asl::RtValue::of_object(handles.runs[1]);
  const std::vector<asl::RtValue> args = {main_region, run, main_region};

  const auto total =
      interp.evaluate_property(*model.find_property("SublinearSpeedup"), args);
  const auto measured =
      interp.evaluate_property(*model.find_property("MeasuredCost"), args);
  const auto unmeasured =
      interp.evaluate_property(*model.find_property("UnmeasuredCost"), args);

  ASSERT_TRUE(total.holds());
  ASSERT_TRUE(measured.holds());
  if (unmeasured.holds()) {
    // Measured + unmeasured should not wildly exceed the total: measured
    // overhead also exists in the reference run, so the sum overshoots by
    // exactly the reference run's overhead share.
    EXPECT_GT(measured.severity + unmeasured.severity, total.severity * 0.9);
  }
  EXPECT_LT(total.severity, 1.0);
}

TEST(Integration, SeverityRanksGrowWithScale) {
  // The SublinearSpeedup severity of the imbalanced app grows with PE count.
  const perf::AppSpec app = perf::workloads::imbalanced_ocean();
  const perf::ExperimentData data =
      perf::simulate_experiment(app, {1, 4, 16, 64});
  const asl::Model model = cosy::load_cosy_model();
  asl::ObjectStore store(model);
  const cosy::StoreHandles handles = cosy::build_store(store, data);
  cosy::Analyzer analyzer(model, store, handles);

  double previous = 0.0;
  for (std::size_t run = 1; run < handles.runs.size(); ++run) {
    const cosy::AnalysisReport report = analyzer.analyze(run);
    ASSERT_NE(report.bottleneck(), nullptr);
    const double severity = report.bottleneck()->result.severity;
    EXPECT_GT(severity, previous) << "run " << run;
    previous = severity;
  }
}

TEST(Integration, MultipleProgramsInOneStore) {
  const asl::Model model = cosy::load_cosy_model();
  asl::ObjectStore store(model);
  const auto ocean = cosy::build_store(
      store,
      perf::simulate_experiment(perf::workloads::imbalanced_ocean(), {1, 8}));
  const auto stencil = cosy::build_store(
      store,
      perf::simulate_experiment(perf::workloads::scalable_stencil(), {1, 8}));

  // Two Program objects coexist; analyses stay independent.
  EXPECT_EQ(store.all_of("Program").size(), 2u);
  cosy::Analyzer ocean_analyzer(model, store, ocean);
  cosy::Analyzer stencil_analyzer(model, store, stencil);
  const auto ocean_report = ocean_analyzer.analyze(1);
  const auto stencil_report = stencil_analyzer.analyze(1);
  EXPECT_EQ(ocean_report.program, "ocean_sim");
  EXPECT_EQ(stencil_report.program, "stencil2d");
  ASSERT_NE(ocean_report.bottleneck(), nullptr);
  if (stencil_report.bottleneck() != nullptr) {
    EXPECT_GT(ocean_report.bottleneck()->result.severity,
              stencil_report.bottleneck()->result.severity);
  }
}

TEST(Integration, RetargetingWithUserProperty) {
  // The paper's retargetability claim: a new bottleneck class lands in the
  // tool by *editing the specification*, with zero analyzer changes.
  const std::string custom_property = R"(
Property ReductionHeavy(Region r, TestRun t, Region Basis) {
  LET float Red = SUM(tt.Time WHERE tt IN r.TypTimes AND tt.Run == t
      AND tt.Type == ReduceMsg)
  IN
  CONDITION: Red > 0;
  CONFIDENCE: 0.9;
  SEVERITY: Red / Duration(Basis, t);
};
)";
  const asl::Model model = asl::load_model({cosy::cosy_model_source(),
                                            cosy::cosy_properties_source(),
                                            custom_property});
  EXPECT_EQ(model.properties().size(), 6u);

  asl::ObjectStore store(model);
  const cosy::StoreHandles handles = cosy::build_store(
      store,
      perf::simulate_experiment(perf::workloads::imbalanced_ocean(), {1, 16}));
  cosy::Analyzer analyzer(model, store, handles);
  const cosy::AnalysisReport report = analyzer.analyze(1);
  bool found = false;
  for (const cosy::Finding& finding : report.findings) {
    if (finding.property == "ReductionHeavy" &&
        finding.context == "main.time_loop.energy_check") {
      found = true;
      EXPECT_DOUBLE_EQ(finding.result.confidence, 0.9);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Integration, BackendProfilesPreserveResults) {
  // The cost model changes the virtual clock, never the data.
  const perf::ExperimentData data =
      perf::simulate_experiment(perf::workloads::serial_bottleneck(), {1, 8});
  const asl::Model model = cosy::load_cosy_model();
  asl::ObjectStore store(model);
  const cosy::StoreHandles handles = cosy::build_store(store, data);

  std::vector<std::string> bottlenecks;
  for (const db::ConnectionProfile& profile :
       db::ConnectionProfile::all_paper_profiles()) {
    db::Database database;
    cosy::create_schema(database, model);
    db::Connection conn(database, profile);
    cosy::import_store(conn, store);
    cosy::Analyzer analyzer(model, store, handles, &conn);
    cosy::AnalyzerConfig config;
    config.backend = "sql-pushdown";
    const cosy::AnalysisReport report = analyzer.analyze(1, config);
    ASSERT_NE(report.bottleneck(), nullptr) << profile.name;
    bottlenecks.push_back(kojak::support::cat(
        report.bottleneck()->property, "@", report.bottleneck()->context, ":",
        kojak::support::format_double(report.bottleneck()->result.severity, 12)));
  }
  for (std::size_t i = 1; i < bottlenecks.size(); ++i) {
    EXPECT_EQ(bottlenecks[i], bottlenecks[0]);
  }
}

TEST(Integration, ReportFileSurvivesReanalysis) {
  // Write, parse, rebuild, and re-analyze: equal rankings both ways.
  const perf::ExperimentData original =
      perf::simulate_experiment(perf::workloads::message_bound(), {1, 8});
  const perf::ExperimentData reparsed =
      perf::parse_report(perf::write_report(original));

  const asl::Model model = cosy::load_cosy_model();
  std::vector<std::string> rankings;
  for (const perf::ExperimentData* data : {&original, &reparsed}) {
    asl::ObjectStore store(model);
    const cosy::StoreHandles handles = cosy::build_store(store, *data);
    cosy::Analyzer analyzer(model, store, handles);
    const cosy::AnalysisReport report = analyzer.analyze(1);
    std::string ranking;
    for (const cosy::Finding& finding : report.findings) {
      ranking += kojak::support::cat(finding.property, "@", finding.context,
                                     ";");
    }
    rankings.push_back(std::move(ranking));
  }
  EXPECT_EQ(rankings[0], rankings[1]);
}

TEST(Integration, MultipleVersionsOfOneProgram) {
  // The paper §3: "The database includes multiple applications with
  // different versions and multiple test runs per program version." Model a
  // tuning step: version 2 removes most of the imbalance, and the analysis
  // of the same run size shows a smaller bottleneck severity.
  const asl::Model model = cosy::load_cosy_model();
  asl::ObjectStore store(model);

  perf::AppSpec before = perf::workloads::imbalanced_ocean();
  perf::AppSpec after = before;
  for (auto& fn : after.functions) {
    const std::function<void(perf::RegionSpec&)> tune =
        [&](perf::RegionSpec& region) {
          region.imbalance *= 0.2;  // the fix the programmer applied
          for (auto& child : region.children) tune(child);
        };
    tune(fn.body);
  }
  // Distinct region names per version keep the store unambiguous (the
  // simulator requires unique names; versions are separate structures).
  perf::ExperimentData v1 = perf::simulate_experiment(before, {1, 32});
  perf::ExperimentData v2 = perf::simulate_experiment(after, {1, 32});
  v2.structure.compilation_time = v1.structure.compilation_time + 7200;

  const cosy::StoreHandles h1 = cosy::build_store(store, v1);
  // Second version of the same program: same name, later compilation.
  const cosy::StoreHandles h2 = [&] {
    // Rename regions to keep handle keys distinct within this test.
    return cosy::build_store(store, v2);
  }();

  EXPECT_EQ(store.all_of("Program").size(), 2u);  // one Program object each
  cosy::Analyzer a1(model, store, h1);
  cosy::Analyzer a2(model, store, h2);
  const auto r1 = a1.analyze(1);
  const auto r2 = a2.analyze(1);
  ASSERT_NE(r1.bottleneck(), nullptr);
  ASSERT_NE(r2.bottleneck(), nullptr);
  // The tuned version's total cost shrinks.
  EXPECT_LT(r2.bottleneck()->result.severity, r1.bottleneck()->result.severity);
}

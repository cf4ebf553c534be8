// Retargetability demo: the whole point of the paper's design is that new
// performance problems enter the tool by *editing a specification*, not the
// tool. This example takes an ASL property on the command line (or uses a
// built-in one), type-checks it against the COSY data model, and evaluates
// it over a simulated experiment with both the interpreter and the
// automatically generated SQL.
//
// Usage: custom_property            (uses the built-in example property)
//        custom_property <file.asl> (loads additional properties from file)

#include <fstream>
#include <iostream>
#include <sstream>

#include "asl/sema.hpp"
#include "cosy/analyzer.hpp"
#include "cosy/db_import.hpp"
#include "cosy/schema_gen.hpp"
#include "cosy/specs.hpp"
#include "perf/simulator.hpp"
#include "perf/workloads.hpp"
#include "support/error.hpp"

using namespace kojak;

namespace {

constexpr const char* kExampleProperty = R"(
// A user-defined refinement: a region whose barrier time grows faster than
// its message time is probably imbalance-, not bandwidth-, limited.
Property BarrierDominatesMessages(Region r, TestRun t, Region Basis) {
  LET
    float Barrier = SUM(tt.Time WHERE tt IN r.TypTimes AND tt.Run == t
        AND tt.Type == Barrier);
    float Msg = SUM(tt.Time WHERE tt IN r.TypTimes AND tt.Run == t
        AND tt.Type == SendMsg)
        + SUM(tt.Time WHERE tt IN r.TypTimes AND tt.Run == t
        AND tt.Type == RecvMsg)
  IN
  CONDITION: (sync_bound) Barrier > 2 * Msg AND Barrier > 0
          OR (mixed) Barrier > Msg AND Msg > 0;
  CONFIDENCE: MAX((sync_bound) -> 0.9, (mixed) -> 0.6);
  SEVERITY: MAX((sync_bound) -> Barrier / Duration(Basis, t),
                (mixed) -> (Barrier - Msg) / Duration(Basis, t));
};
)";

}  // namespace

int main(int argc, char** argv) {
  std::string user_spec = kExampleProperty;
  if (argc > 1) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::cerr << "cannot open " << argv[1] << '\n';
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    user_spec = buffer.str();
  }

  // 1. Front end: parse + type-check against the COSY data model. Errors
  //    come out with positions — try breaking the property to see.
  asl::Model model;
  try {
    model = asl::load_model({cosy::cosy_model_source(),
                             cosy::cosy_properties_source(), user_spec});
  } catch (const support::Error& error) {
    std::cerr << "specification rejected:\n" << error.what() << '\n';
    return 1;
  }
  std::cout << "loaded " << model.properties().size()
            << " properties; user-defined ones:";
  for (std::size_t i = 5; i < model.properties().size(); ++i) {
    std::cout << ' ' << model.properties()[i].name;
  }
  std::cout << "\n\n";

  // 2. Data: simulate the flagship workload and fill store + database.
  asl::ObjectStore store(model);
  const cosy::StoreHandles handles = cosy::build_store(
      store,
      perf::simulate_experiment(perf::workloads::imbalanced_ocean(), {1, 32}));
  db::Database database;
  cosy::create_schema(database, model);
  db::Connection conn(database, db::ConnectionProfile::in_memory());
  cosy::import_store(conn, store);

  // 3. Analyze with two backends; the user property participates in the
  //    ranking like any paper property.
  cosy::Analyzer analyzer(model, store, handles, &conn);
  for (const char* backend : {"interpreter", "sql-pushdown"}) {
    cosy::AnalyzerConfig config;
    config.backend = backend;
    const cosy::AnalysisReport report = analyzer.analyze(1, config);
    std::cout << "--- backend: " << backend << " ---\n"
              << report.to_table(12) << '\n';
  }
  return 0;
}

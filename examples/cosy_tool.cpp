// The COSY command-line tool: the closest thing to the user interface the
// paper describes in §3 ("select a program version and a specific test
// run... the performance properties are ranked according to their severity
// and presented to the application programmer").
//
// Usage:
//   cosy_tool --report <file>            analyze an Apprentice report file
//   cosy_tool --workload <name>          simulate + analyze a named workload
//   options:
//     --pes 1,8,32        PE counts when simulating      (default 1,16)
//     --run <index>       test run to analyze            (default last)
//     --threshold <t>     problem threshold              (default 0.05)
//     --backend <name>    evaluation backend by registry name
//                         (--list-backends)              (default interpreter)
//     --spec <file.asl>   additional property documents  (repeatable)
//     --top <n>           rows to print                  (default 15)
//     --format <f>        text|markdown|csv              (default text)
//     --watch <n>         online monitoring: n evaluation epochs over a
//                         streaming store (member-partitioned timing
//                         junctions, bulk ingest, incremental per-partition
//                         re-evaluation through cosy::Monitor)
//     --list-workloads
//     --list-backends

#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>

#include "asl/sema.hpp"
#include "cosy/analyzer.hpp"
#include "cosy/db_import.hpp"
#include "cosy/eval_backend.hpp"
#include "cosy/monitor.hpp"
#include "cosy/report_render.hpp"
#include "cosy/schema_gen.hpp"
#include "cosy/specs.hpp"
#include "perf/report_io.hpp"
#include "perf/simulator.hpp"
#include "perf/workloads.hpp"
#include "support/error.hpp"
#include "support/str.hpp"

using namespace kojak;

namespace {

struct Options {
  std::string report_path;
  std::string workload;
  std::vector<int> pes = {1, 16};
  std::optional<std::size_t> run;
  double threshold = 0.05;
  std::string backend = "interpreter";
  std::vector<std::string> extra_specs;
  std::size_t top = 15;
  std::string format = "text";
  std::size_t watch = 0;  ///< 0 = one-shot analysis; N = monitoring epochs
};

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " (--report <file> | --workload <name>) [--pes 1,8,32]"
               " [--run N] [--threshold T] [--backend <name>]"
               " [--spec file.asl]... [--top N] [--list-workloads]"
               " [--list-backends]\n       backends:";
  for (const std::string& name : cosy::EvalBackend::names()) {
    std::cerr << ' ' << name;
  }
  std::cerr << '\n';
  return 2;
}

/// Parses the whole of `text` as a number; nullopt when malformed or when
/// anything is left over ("4x", "1.5" for an integer, "").
template <typename T>
std::optional<T> parse_number(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end) return std::nullopt;
  return value;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw support::ImportError(support::cat("cannot open ", path));
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--report") {
      options.report_path = next();
    } else if (arg == "--workload") {
      options.workload = next();
    } else if (arg == "--pes") {
      options.pes.clear();
      for (const std::string& text : support::split(next(), ',')) {
        const std::optional<int> pe = parse_number<int>(text);
        if (!pe || *pe < 1) return usage(argv[0]);
        options.pes.push_back(*pe);
      }
    } else if (arg == "--run") {
      options.run = parse_number<std::size_t>(next());
      if (!options.run) return usage(argv[0]);
    } else if (arg == "--threshold") {
      const std::optional<double> threshold = parse_number<double>(next());
      if (!threshold || !std::isfinite(*threshold)) return usage(argv[0]);
      options.threshold = *threshold;
    } else if (arg == "--backend") {
      options.backend = next();
      if (!cosy::EvalBackend::exists(options.backend)) return usage(argv[0]);
    } else if (arg == "--spec") {
      options.extra_specs.push_back(next());
    } else if (arg == "--top") {
      const std::optional<std::size_t> top = parse_number<std::size_t>(next());
      if (!top) return usage(argv[0]);
      options.top = *top;
    } else if (arg == "--format") {
      options.format = next();
      if (options.format != "text" && options.format != "markdown" &&
          options.format != "csv") {
        return usage(argv[0]);
      }
    } else if (arg == "--watch") {
      const std::optional<std::size_t> watch =
          parse_number<std::size_t>(next());
      if (!watch) return usage(argv[0]);
      options.watch = *watch;
    } else if (arg == "--list-workloads") {
      for (const auto& [name, factory] : perf::workloads::all_named()) {
        std::cout << name << '\n';
      }
      return 0;
    } else if (arg == "--list-backends") {
      for (const std::string& name : cosy::EvalBackend::names()) {
        std::cout << name << "  —  " << cosy::EvalBackend::describe(name)
                  << '\n';
      }
      return 0;
    } else {
      return usage(argv[0]);
    }
  }
  if (options.report_path.empty() == options.workload.empty()) {
    return usage(argv[0]);
  }

  try {
    // 1. Performance data: from a report file or a simulated workload.
    perf::ExperimentData data;
    if (!options.report_path.empty()) {
      data = perf::parse_report(read_file(options.report_path));
    } else {
      bool found = false;
      for (const auto& [name, factory] : perf::workloads::all_named()) {
        if (options.workload == name) {
          data = perf::simulate_experiment(factory(), options.pes);
          found = true;
        }
      }
      if (!found) {
        std::cerr << "unknown workload '" << options.workload
                  << "' (try --list-workloads)\n";
        return 2;
      }
    }

    // 2. Specification: the shipped documents plus any user ones.
    std::vector<asl::ast::SpecFile> specs;
    specs.push_back(asl::parse_spec_or_throw(cosy::cosy_model_source()));
    specs.push_back(asl::parse_spec_or_throw(cosy::cosy_properties_source()));
    specs.push_back(asl::parse_spec_or_throw(cosy::extended_properties_source()));
    for (const std::string& path : options.extra_specs) {
      specs.push_back(asl::parse_spec_or_throw(read_file(path)));
    }
    const asl::Model model = asl::analyze(asl::merge_specs(std::move(specs)));

    // 3. Populate store (+ database when the backend needs one).
    asl::ObjectStore store(model);
    const cosy::StoreHandles handles = cosy::build_store(store, data);

    // --watch: the online-monitoring loop instead of the one-shot report.
    // Member-partitioned timing junctions spread each region's samples
    // across partitions (so the whole-condition compiler's partition-union
    // rewrite fires), the store arrives through the bulk-ingest path, and
    // each epoch replays one partition's worth of timing links to emulate
    // new samples streaming in — cosy::Monitor then recomputes only the
    // dirtied partition and reports what changed.
    if (options.watch > 0) {
      if (!cosy::EvalBackend::requires_connection(options.backend)) {
        options.backend = "sql-whole-condition";
      }
      db::Database database;
      cosy::SchemaOptions schema;
      schema.junction_partitions.push_back({"Region", "TotTimes", "member", 8});
      schema.junction_partitions.push_back({"Region", "TypTimes", "member", 8});
      cosy::create_schema(database, model, schema);
      db::Connection conn(database, db::ConnectionProfile::in_memory());
      const cosy::ImportStats import =
          cosy::import_store(conn, store, /*batch_rows=*/64);
      std::cout << "bulk ingest: " << import.rows << " rows in "
                << import.statements << " statements\n";

      cosy::MonitorOptions monitor_options;
      monitor_options.backend = options.backend;
      cosy::Monitor monitor(model, conn, monitor_options);
      const std::size_t run_index = options.run.value_or(handles.runs.size() - 1);
      const asl::ObjectId run = handles.runs.at(run_index);
      const asl::ObjectId basis = handles.regions.at(handles.main_region);
      for (const asl::PropertyInfo& prop : model.properties()) {
        for (cosy::PropertyContext& ctx : cosy::enumerate_property_contexts(
                 model, handles, prop, run, basis)) {
          monitor.watch(prop, std::move(ctx.args), std::move(ctx.label));
        }
      }
      std::cout << monitor.evaluate().to_summary();

      const db::QueryResult links =
          conn.execute("SELECT owner, member FROM Region_TypTimes");
      const db::Table& junction = database.table("Region_TypTimes");
      for (std::size_t epoch = 1; epoch < options.watch; ++epoch) {
        const std::size_t target = (epoch - 1) % junction.partition_count();
        cosy::IngestBatch batch;
        for (const db::Row& row : links.rows) {
          if (junction.route(row[1]) != target) continue;
          batch.add("Region_TypTimes", {row[0], row[1]});
          if (batch.rows() >= 256) break;
        }
        monitor.ingest(batch);
        std::cout << monitor.evaluate().to_summary();
      }
      return 0;
    }

    std::unique_ptr<db::Database> database;
    std::unique_ptr<db::Connection> conn;
    if (cosy::EvalBackend::requires_connection(options.backend)) {
      database = std::make_unique<db::Database>();
      cosy::create_schema(*database, model);
      conn = std::make_unique<db::Connection>(
          *database, db::ConnectionProfile::in_memory());
      cosy::import_store(*conn, store);
    }

    // 4. Analyze and present.
    cosy::Analyzer analyzer(model, store, handles, conn.get());
    cosy::AnalyzerConfig config;
    config.backend = options.backend;
    config.problem_threshold = options.threshold;
    // Spread the contexts over every hardware thread. The SQL backends have
    // one connection here, so they run on one worker.
    config.threads = 0;
    const std::size_t run = options.run.value_or(handles.runs.size() - 1);
    const cosy::AnalysisReport report = analyzer.analyze(run, config);
    if (options.format == "markdown") {
      std::cout << cosy::to_markdown(report, options.top);
    } else if (options.format == "csv") {
      std::cout << cosy::to_csv(report);
    } else {
      std::cout << report.to_table(options.top);
    }
    if (!report.not_applicable.empty()) {
      std::cout << report.not_applicable.size()
                << " context(s) not applicable (data gaps)\n";
    }
    if (report.sql_queries > 0) {
      std::cout << report.sql_queries << " SQL statements issued ("
                << options.backend << ")\n";
    }
    if (report.whole_fallbacks > 0) {
      std::cout << report.whole_fallbacks
                << " context(s) fell back to site-wise evaluation\n";
    }
    return report.tuned() ? 0 : 1;
  } catch (const support::Error& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 2;
  }
}

// cosybench: end-to-end benchmark of a COSY analysis run and of the layers
// beneath it (perf simulator, ASL front end and interpreter, cosy compile /
// eval / batch / monitor / render, db executor and kernels).
//
//   cosybench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--ops <n>]
//
// One closed-loop client issues ops back to back for --seconds (or exactly
// --ops). --trace 0 prints the end-to-end metrics; --trace 1 is a separate
// run that alternates traced and untraced ops, prints the per-layer metrics
// and writes its spans to .bench_out/. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.

#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "workloads.hpp"

namespace cosybench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The per-layer metrics every workload prints with --trace 1; a metric a
// workload does not exercise reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"op_ms_p90", "ms"},
    {"perf.simulate_ms", "ms"},
    {"asl.parse_ms", "ms"},
    {"asl.sema_ms", "ms"},
    {"cosy.build_store_ms", "ms"},
    {"cosy.schema_ms", "ms"},
    {"cosy.import_ms", "ms"},
    {"cosy.import_rows_per_s", "1/s"},
    {"cosy.compile_ms", "ms"},
    {"cosy.plan_cache_hit_rate", "ratio"},
    {"cosy.statements_per_context", "count"},
    {"cosy.whole_fallbacks", "count"},
    {"cosy.eval_us_p50", "us"},
    {"cosy.eval_us_p90", "us"},
    {"asl.interp_us_p50", "us"},
    {"cosy.sql_over_interp_x", "ratio"},
    {"cosy.analyze_ms", "ms"},
    {"cosy.render_ms", "ms"},
    {"bench.op_self_ms", "ms"},
    {"layer.cosy.self_ms", "ms"},
    {"layer.db.self_ms", "ms"},
    {"cosy.batch_parallel_speedup", "ratio"},
    {"db.pool_waits", "count"},
    {"cosy.monitor_ingest_ms", "ms"},
    {"cosy.monitor_evaluate_ms", "ms"},
    {"cosy.monitor_ingest_rows_per_s", "1/s"},
    {"cosy.shard_cache_hit_ratio", "ratio"},
    {"cosy.statements_memoized", "count"},
    {"cosy.dirty_partitions_recomputed", "count"},
    {"db.subquery_executions", "count"},
    {"db.subquery_memo_hits", "count"},
    {"db.subquery_memo_ratio", "ratio"},
    {"db.cte_materializations", "count"},
    {"db.cte_parallel_materializations", "count"},
    {"db.scan_pool_slowdown_x", "ratio"},
    {"db.partition_scans", "count"},
    {"db.partitions_pruned", "count"},
    {"db.parallel_scan_batches", "count"},
    {"db.partition_union_rewrites", "count"},
    {"db.columnar_scans", "count"},
    {"db.vectorized_batches", "count"},
    {"db.rows_skipped_by_bitmap", "count"},
    {"db.fused_plan_evals", "count"},
    {"db.grouped_vector_evals", "count"},
    {"db.groups_built", "count"},
    {"db.hash_join_builds", "count"},
    {"db.join_lanes_probed", "count"},
    {"db.expr_program_evals", "count"},
    {"db.expr_vm_batches", "count"},
    {"db.expr_vm_lanes", "count"},
    {"db.prepare_us", "us"},
    {"db.query_ms.filter_agg", "ms"},
    {"db.query_ms.grouped_agg", "ms"},
    {"db.query_ms.vm_expr_agg", "ms"},
    {"db.query_ms.hash_join", "ms"},
    {"db.query_ms.index_probe", "ms"},
    {"db.lanes_per_s", "1/s"},
    {"db.bytes_per_s", "B/s"},
    {"db.modelled_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

// Per-op counts reported as their mean over the run's ops: the exec_stats
// deltas and the session's modelled (SimClock) time.
constexpr const char* kPerOpMeans[] = {
    "db.subquery_executions", "db.subquery_memo_hits",
    "db.cte_materializations", "db.cte_parallel_materializations",
    "db.partition_scans", "db.partitions_pruned", "db.parallel_scan_batches",
    "db.partition_union_rewrites", "db.columnar_scans",
    "db.vectorized_batches", "db.rows_skipped_by_bitmap",
    "db.fused_plan_evals", "db.grouped_vector_evals", "db.groups_built",
    "db.hash_join_builds", "db.join_lanes_probed", "db.expr_program_evals",
    "db.expr_vm_batches", "db.expr_vm_lanes", "db.modelled_ms",
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "cosybench: " << problem
            << "\nusage: cosybench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> [--tiny] [--ops <n>]\n"
               "workloads:";
  for (const std::string& name : workload_names()) std::cerr << ' ' << name;
  std::cerr << '\n';
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        options.trace = v == "1";
        have_trace = true;
      } else if (arg == "--tiny") {
        options.tiny = true;
      } else if (arg == "--ops") {
        options.ops = std::stoull(value());
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  bool known = false;
  for (const std::string& name : workload_names()) {
    known = known || name == options.workload;
  }
  if (!known) usage("unknown workload '" + options.workload + "'");
  if (!have_seed || !have_trace) usage("--seed and --trace are required");
  if (options.ops == 0 && !(options.seconds > 0)) {
    usage("--seconds must be positive");
  }
  return options;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

/// Per-layer metrics every workload shares; the workload adds its own.
void common_layer_metrics(Metrics& out, const Tracer& tracer,
                          const std::vector<OpOutcome>& ops,
                          const std::vector<double>& traced_ms,
                          const std::vector<double>& untraced_ms,
                          std::size_t import_rows) {
  const auto setup_median = [&](const char* span) {
    return median(tracer.durations(span));
  };
  out["perf.simulate_ms"].value = setup_median("perf.simulate");
  out["asl.parse_ms"].value = setup_median("asl.parse");
  out["asl.sema_ms"].value = setup_median("asl.sema");
  out["cosy.build_store_ms"].value = setup_median("cosy.build_store");
  out["cosy.schema_ms"].value = setup_median("cosy.schema");
  const double import_ms = setup_median("cosy.import");
  out["cosy.import_ms"].value = import_ms;
  out["cosy.import_rows_per_s"].value =
      import_ms > 0 ? static_cast<double>(import_rows) / import_ms * 1000.0 : 0;

  for (const char* counter : kPerOpMeans) {
    double sum = 0.0;
    for (const OpOutcome& op : ops) {
      const auto it = op.counts.find(counter);
      if (it != op.counts.end()) sum += it->second;
    }
    out[counter].value =
        ops.empty() ? 0.0 : sum / static_cast<double>(ops.size());
  }
  const double executions = out["db.subquery_executions"].value;
  const double memo_hits = out["db.subquery_memo_hits"].value;
  out["db.subquery_memo_ratio"].value =
      executions + memo_hits > 0 ? memo_hits / (executions + memo_hits) : 0.0;

  const double traced_p50 = median(traced_ms);
  const double untraced_p50 = median(untraced_ms);
  out["trace.overhead_pct"].value =
      untraced_p50 > 0 ? (traced_p50 / untraced_p50 - 1.0) * 100.0 : 0.0;

  const double traced_ops = static_cast<double>(traced_ms.size());
  const std::map<std::string, double> self = tracer.op_self_ms_by_layer();
  const auto per_op = [&](const char* layer) {
    const auto it = self.find(layer);
    return it == self.end() || traced_ops == 0 ? 0.0 : it->second / traced_ops;
  };
  out["bench.op_self_ms"].value = per_op("bench");
  out["layer.cosy.self_ms"].value = per_op("cosy");
  out["layer.db.self_ms"].value = per_op("db");
}

void write_details(const Options& options, const Workload& workload,
                   const std::vector<OpOutcome>& ops, const Tracer& tracer) {
  // Per-op counts, the input digest and (traced) the spans, for the
  // self-test and for locating a regression after the fact.
  const std::string dir = ".bench_out";
  std::filesystem::create_directories(dir);
  const std::string stem = dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) + "-trace" +
                           (options.trace ? "1" : "0");
  std::ofstream out(stem + ".json");
  if (!out) throw std::runtime_error("cannot write " + stem + ".json");
  out << "{\"workload\": \"" << options.workload << "\", \"seed\": "
      << options.seed << ", \"input_digest\": \"" << workload.input_digest()
      << "\", \"ops\": [\n";
  for (std::size_t i = 0; i < ops.size(); ++i) {
    out << "  {\"ms\": " << json_number(ops[i].ms)
        << ", \"ok\": " << (ops[i].ok ? "true" : "false") << ", \"counts\": {";
    bool first = true;
    for (const auto& [name, value] : ops[i].counts) {
      out << (first ? "" : ", ") << '"' << name << "\": " << json_number(value);
      first = false;
    }
    out << "}}" << (i + 1 < ops.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  if (options.trace) tracer.write_json(stem + "-spans.json");
}

int run(const Options& options) {
  Tracer tracer(options.trace);
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  // Set-up is repeated and its median reported, so set-up time is a steady
  // metric of its own; the last repeat's state serves the op loop.
  const int setup_repeats = options.tiny ? 1 : 5;
  for (int r = 0; r < setup_repeats; ++r) {
    workload.reset();
    const auto start = Clock::now();
    workload = make_workload(options);
    workload->setup(tracer);
    setup_s.push_back(ms_since(start) / 1000.0);
  }

  std::vector<OpOutcome> ops;
  std::vector<double> sample_ms;     // the ops the latency metrics come from
  std::vector<double> sample_rates;  // their items per second
  std::vector<double> untraced_ms;   // a traced run's untraced half
  const auto loop_start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    if (options.ops > 0 ? i >= options.ops
                        : ms_since(loop_start) >= options.seconds * 1000.0) {
      break;
    }
    // Traced runs alternate traced and untraced ops to price the tracing.
    const bool traced = !options.trace || i % 2 == 0;
    tracer.set_active(traced);
    tracer.set_op(static_cast<std::int64_t>(i));
    ops.push_back(workload->op(i, tracer));
    const OpOutcome& op = ops.back();
    if (traced) {
      sample_ms.push_back(op.ms);
      sample_rates.push_back(op.items / op.ms * 1000.0);
    } else {
      untraced_ms.push_back(op.ms);
    }
  }
  tracer.set_active(true);
  tracer.set_op(-1);

  std::size_t failed = 0;
  for (const OpOutcome& op : ops) {
    if (!op.ok) {
      if (failed < 5) std::cerr << "cosybench: op failed: " << op.error << '\n';
      ++failed;
    }
  }
  bool correct = failed == 0 && workload->warmup_failures == 0;

  Metrics metrics;
  if (!options.trace) {
    metrics["setup_s"] = {median(setup_s), "s"};
    metrics["op_ms_p50"] = {quantile(sample_ms, 0.5), "ms"};
    // The median op's rate: like op_ms_p50, robust to the seconds-long
    // slow phases a shared host goes through, where a total over the run
    // would weigh them in full.
    metrics["items_per_s"] = {median(sample_rates), "1/s"};
    metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  } else {
    for (const MetricSpec& spec : kPerLayer) {
      metrics[spec.name] = {0.0, spec.unit};
    }
    common_layer_metrics(metrics, tracer, ops, sample_ms, untraced_ms,
                         workload->import_rows);
    // The tail is reported from the traced half, unbounded: on a shared host
    // a few seconds of slowdown move p90 by more than any usable bound.
    metrics["op_ms_p90"].value = quantile(sample_ms, 0.9);
    Metrics own;
    correct = workload->layer_metrics(own, tracer, ops) && correct;
    for (auto& [name, metric] : own) {
      const auto it = metrics.find(name);
      if (it == metrics.end() || it->second.unit != metric.unit) {
        throw std::logic_error("unlisted per-layer metric " + name);
      }
      it->second.value = metric.value;
    }
  }
  write_details(options, *workload, ops, tracer);

  // Human-readable summary, then the result line.
  std::cout << "# " << options.workload << " seed " << options.seed << ": "
            << ops.size() << " ops, " << failed << " failed (fail_rate "
            << (ops.empty() ? 0.0 : static_cast<double>(failed) /
                                        static_cast<double>(ops.size()))
            << "), setup runs " << setup_s.size() << ", input digest "
            << workload->input_digest() << '\n';
  for (const auto& [name, metric] : metrics) {
    std::cout << "# " << name << " = " << json_number(metric.value) << ' '
              << metric.unit << '\n';
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << ops.size() << ", \"failed\": " << failed
            << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    std::cout << (first ? "" : ", ") << '"' << name
              << "\": {\"value\": " << json_number(metric.value)
              << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace cosybench

int main(int argc, char** argv) {
  const cosybench::Options options = cosybench::parse_args(argc, argv);
  try {
    return cosybench::run(options);
  } catch (const std::exception& error) {
    std::cerr << "cosybench: " << error.what() << '\n';
    return 1;
  }
}

#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "asl/parser.hpp"
#include "asl/sema.hpp"
#include "cosy/batch.hpp"
#include "cosy/db_import.hpp"
#include "cosy/eval_backend.hpp"
#include "cosy/monitor.hpp"
#include "cosy/schema_gen.hpp"
#include "cosy/specs.hpp"
#include "cosy/sql_eval.hpp"
#include "db/connection_pool.hpp"
#include "perf/simulator.hpp"
#include "support/rng.hpp"
#include "support/str.hpp"

namespace cosybench {

namespace {

namespace ka = kojak::asl;
namespace kc = kojak::cosy;
namespace kd = kojak::db;
namespace kp = kojak::perf;
using kojak::support::Rng;
using kojak::support::cat;

// Only these registry names are used: the interpreter is the reference, the
// two SQL backends are the ones under measurement.
constexpr const char* kInterpreter = "interpreter";
constexpr const char* kPushdown = "sql-pushdown";
constexpr const char* kWholeCondition = "sql-whole-condition";

// Scan threads, batch workers and pooled sessions all stay at 2, inside a
// 4-CPU machine with room for the driver itself. report_cold is the
// exception, see ReportCold::setup.
constexpr std::size_t kScanThreads = 2;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kImportBatchRows = 64;

kojak::db::Database::ScanConfig scan_threads(std::size_t threads) {
  return {.threads = threads, .min_parallel_rows = 4096};
}

// Per-workload input-family streams for mix(seed, stream).
enum Stream : std::uint64_t {
  kRotation = 10,
  kIngest = 11,
  kQueryParams = 12,
  kSimulation = 13,
};

struct Sizes {
  std::size_t functions = 0;
  std::size_t leaves = 0;
  std::vector<int> pes;
};

/// The model, the seeded experiment and its object store: the set-up every
/// workload shares. Heap-held and never moved, because plan caches pin the
/// Model instance and the store points at it.
struct World {
  ka::Model model;
  std::vector<std::string> paper_suite;     // cosy_properties.asl
  std::vector<std::string> extended_suite;  // extended_properties.asl
  std::unique_ptr<ka::ObjectStore> store;
  kc::StoreHandles handles;
  std::size_t import_rows = 0;
};

std::unique_ptr<World> build_world(Tracer& tracer, const Sizes& sizes,
                                   std::uint64_t seed, Digest& digest) {
  auto world = std::make_unique<World>();
  std::vector<ka::ast::SpecFile> specs;
  {
    Scoped span(tracer, "asl.parse", "asl");
    specs.push_back(ka::parse_spec_or_throw(kc::cosy_model_source()));
    specs.push_back(ka::parse_spec_or_throw(kc::cosy_properties_source()));
    specs.push_back(ka::parse_spec_or_throw(kc::extended_properties_source()));
  }
  for (const ka::ast::PropertyDecl& p : specs[1].properties) {
    world->paper_suite.push_back(p.name);
  }
  for (const ka::ast::PropertyDecl& p : specs[2].properties) {
    world->extended_suite.push_back(p.name);
  }
  {
    Scoped span(tracer, "asl.sema", "asl");
    world->model = ka::analyze(ka::merge_specs(std::move(specs)));
  }
  const kp::AppSpec app = seeded_program(sizes.functions, sizes.leaves, seed);
  digest_program(app, digest);
  kp::ExperimentData data;
  {
    Scoped span(tracer, "perf.simulate", "perf");
    kp::SimulationOptions options;
    options.seed = mix(seed, kSimulation);
    data = kp::simulate_experiment(app, sizes.pes, options);
  }
  {
    Scoped span(tracer, "cosy.build_store", "cosy");
    world->store = std::make_unique<ka::ObjectStore>(world->model);
    world->handles = kc::build_store(*world->store, data);
  }
  return world;
}

/// A database with the generated schema and the world's store imported
/// through the bulk path. `tag` suffixes the span names of secondary copies
/// so `cosy.schema` / `cosy.import` time only the measured store.
std::unique_ptr<kd::Database> make_database(World& world,
                                            const kc::SchemaOptions& schema,
                                            Tracer& tracer,
                                            const std::string& tag = "") {
  auto database = std::make_unique<kd::Database>();
  database->set_scan_config(scan_threads(kScanThreads));
  {
    Scoped span(tracer, "cosy.schema" + tag, "cosy");
    kc::create_schema(*database, world.model, schema);
  }
  Scoped span(tracer, "cosy.import" + tag, "cosy");
  kd::Connection loader(*database, kd::ConnectionProfile::postgres());
  const std::size_t rows =
      kc::import_store(loader, *world.store, kImportBatchRows).rows;
  if (tag.empty()) world.import_rows = rows;
  return database;
}

ka::ObjectId basis_of(const World& world) {
  return world.handles.regions.at(world.handles.main_region);
}

/// Contexts of `suite` (every property when empty) for one run, in the
/// order the Analyzer enumerates them.
std::vector<kc::PropertyContext> contexts_of(
    const World& world, std::size_t run_index,
    const std::vector<std::string>& suite = {}) {
  std::vector<kc::PropertyContext> out;
  for (const ka::PropertyInfo& prop : world.model.properties()) {
    if (!suite.empty() &&
        std::find(suite.begin(), suite.end(), prop.name) == suite.end()) {
      continue;
    }
    for (kc::PropertyContext& ctx : kc::enumerate_property_contexts(
             world.model, world.handles, prop, world.handles.runs[run_index],
             basis_of(world))) {
      out.push_back(std::move(ctx));
    }
  }
  return out;
}

/// The interpreter report of one (run, suite): the correctness reference.
std::string reference_report(const World& world, std::size_t run_index,
                             const std::vector<std::string>& suite = {}) {
  kc::Analyzer analyzer(world.model, *world.store, world.handles);
  kc::AnalyzerConfig config;
  config.backend = kInterpreter;
  config.properties = suite;
  return render_report(analyzer.analyze(run_index, config));
}

/// Ranks evaluated contexts exactly as Analyzer::analyze does.
std::string ranked(const std::vector<kc::PropertyContext>& contexts,
                   std::vector<ka::PropertyResult> results) {
  kc::AnalysisReport report;
  for (std::size_t i = 0; i < contexts.size(); ++i) {
    kc::Finding finding{contexts[i].property->name, contexts[i].label,
                        std::move(results[i])};
    if (finding.result.status == ka::PropertyResult::Status::kHolds) {
      report.findings.push_back(std::move(finding));
    } else if (finding.result.status ==
               ka::PropertyResult::Status::kNotApplicable) {
      report.not_applicable.push_back(std::move(finding));
    }
  }
  std::stable_sort(report.findings.begin(), report.findings.end(),
                   [](const kc::Finding& a, const kc::Finding& b) {
                     return a.result.severity > b.result.severity;
                   });
  return render_report(report);
}

// --- probes (traced runs only) -----------------------------------------------

struct EvalProbe {
  std::vector<double> eval_us;  ///< warm per-context evaluate times
  std::string ranked;
  kc::EvalStats stats;
};

/// Per-context probe: create/prepare one backend, evaluate every context
/// once to warm it, then time each context's evaluate on a second pass.
EvalProbe probe_eval(const World& world, const ka::ObjectStore& store,
                     const std::string& backend_name, kd::Connection* conn,
                     kc::PlanCache* cache, std::size_t run_index,
                     const std::vector<kc::PropertyContext>& contexts) {
  kc::EvalBackendDeps deps;
  deps.model = &world.model;
  deps.store = &store;
  deps.conn = conn;
  deps.plan_cache = cache;
  const auto backend = kc::EvalBackend::create(backend_name, deps);
  backend->prepare(world.model, world.handles.runs[run_index]);
  for (const kc::PropertyContext& ctx : contexts) {
    (void)backend->evaluate(*ctx.property, ctx.args);
  }
  EvalProbe probe;
  std::vector<ka::PropertyResult> results;
  results.reserve(contexts.size());
  for (const kc::PropertyContext& ctx : contexts) {
    const auto start = Clock::now();
    results.push_back(backend->evaluate(*ctx.property, ctx.args));
    probe.eval_us.push_back(ms_since(start) * 1000.0);
  }
  probe.stats = backend->stats();
  probe.ranked = ranked(contexts, std::move(results));
  return probe;
}

/// Compile cost: per property, the cold first evaluate on a fresh backend
/// (with `warm_cache`, or a fresh PlanCache when null) minus the warm
/// evaluate of the same context; summed over properties.
double probe_compile_ms(const World& world, const std::string& backend_name,
                        kd::Connection& conn, kc::PlanCache* warm_cache,
                        std::size_t run_index,
                        const std::vector<kc::PropertyContext>& contexts) {
  double total = 0.0;
  for (const ka::PropertyInfo& prop : world.model.properties()) {
    const auto first = std::find_if(
        contexts.begin(), contexts.end(),
        [&](const kc::PropertyContext& c) { return c.property == &prop; });
    if (first == contexts.end()) continue;
    kc::PlanCache fresh(world.model);
    kc::EvalBackendDeps deps;
    deps.model = &world.model;
    deps.conn = &conn;
    deps.plan_cache = warm_cache != nullptr ? warm_cache : &fresh;
    const auto backend = kc::EvalBackend::create(backend_name, deps);
    backend->prepare(world.model, world.handles.runs[run_index]);
    auto start = Clock::now();
    (void)backend->evaluate(prop, first->args);
    const double cold = ms_since(start);
    start = Clock::now();
    (void)backend->evaluate(prop, first->args);
    total += cold - ms_since(start);
  }
  return total;
}

/// eval/interp probe metrics shared by the three COSY workloads. Returns
/// whether the SQL probe's ranking equals the interpreter's.
bool eval_metrics(Metrics& out, const EvalProbe& sql, const EvalProbe& interp) {
  const double sql_p50 = quantile(sql.eval_us, 0.5);
  const double interp_p50 = quantile(interp.eval_us, 0.5);
  out["cosy.eval_us_p50"] = {sql_p50, "us"};
  out["cosy.eval_us_p90"] = {quantile(sql.eval_us, 0.9), "us"};
  out["asl.interp_us_p50"] = {interp_p50, "us"};
  out["cosy.sql_over_interp_x"] = {interp_p50 > 0 ? sql_p50 / interp_p50 : 0.0,
                                   "ratio"};
  out["cosy.whole_fallbacks"] = {static_cast<double>(sql.stats.whole_fallbacks),
                                 "count"};
  return sql.ranked == interp.ranked;
}

double mean_count(const std::vector<OpOutcome>& ops, const std::string& key) {
  double sum = 0.0;
  for (const OpOutcome& op : ops) {
    const auto it = op.counts.find(key);
    if (it != op.counts.end()) sum += it->second;
  }
  return ops.empty() ? 0.0 : sum / static_cast<double>(ops.size());
}

// --- report_cold -------------------------------------------------------------

/// One cosy_tool-style run per op: a fresh PlanCache and Analyzer with the
/// whole-condition backend, analyze(run), render every finding.
class ReportCold final : public Workload {
 public:
  explicit ReportCold(const Options& options) : options_(options) {}

  void setup(Tracer& tracer) override {
    const Sizes sizes = options_.tiny ? Sizes{3, 3, {1, 4, 16, 64}}
                                      : Sizes{8, 8, {1, 4, 16, 64}};
    world_ = build_world(tracer, sizes, options_.seed, digest_);
    database_ = make_database(*world_, {}, tracer);
    import_rows = world_->import_rows;
    // One scan thread: with two, each whole-condition statement hands its
    // ~2.4 small CTEs to the scan pool, which made ops up to 70% slower and
    // their run-to-run spread unresolvable on a shared 4-vCPU host. The
    // traced run prices that choice as db.scan_pool_slowdown_x.
    database_->set_scan_config(scan_threads(1));
    conn_ = std::make_unique<kd::Connection>(*database_,
                                             kd::ConnectionProfile::postgres());
    const std::size_t runs = world_->handles.runs.size();
    {
      Scoped span(tracer, "cosy.reference", "cosy");
      for (std::size_t r = 0; r < runs; ++r) {
        reference_.push_back(reference_report(*world_, r));
        contexts_.push_back(contexts_of(*world_, r).size());
      }
    }
    Rng rng(mix(options_.seed, kRotation));
    for (std::size_t r = 0; r < runs; ++r) rotation_.push_back(r);
    rng.shuffle(rotation_);
    for (const std::size_t r : rotation_) digest_.add(std::uint64_t{r});
    for (std::size_t r = 0; r < runs; ++r) {  // first full pass
      if (!op(r, tracer).ok) ++warmup_failures;
    }
  }

  OpOutcome op(std::size_t index, Tracer& tracer) override {
    const std::size_t run = rotation_[index % rotation_.size()];
    const auto stats_before = database_->exec_stats();
    const double clock_before = conn_->clock().now_ms();
    kc::AnalysisReport report;
    std::string table;
    const auto start = Clock::now();
    {
      Scoped op_span(tracer, "op", "bench");
      std::unique_ptr<kc::PlanCache> cache;
      std::unique_ptr<kc::Analyzer> analyzer;
      {
        Scoped span(tracer, "cosy.plan_cache", "cosy");
        cache = std::make_unique<kc::PlanCache>(world_->model);
        analyzer = std::make_unique<kc::Analyzer>(
            world_->model, *world_->store, world_->handles, conn_.get());
      }
      kc::AnalyzerConfig config;
      config.backend = kWholeCondition;
      config.plan_cache = cache.get();
      {
        Scoped span(tracer, "cosy.analyze", "cosy");
        report = analyzer->analyze(run, config);
      }
      Scoped span(tracer, "cosy.render", "cosy");
      table = report.to_table(0);
    }
    OpOutcome outcome;
    outcome.ms = ms_since(start);
    outcome.items = static_cast<double>(contexts_[run]);
    if (render_report(report) != reference_[run] || table.empty()) {
      outcome.ok = false;
      outcome.error = cat("run ", run, ": findings differ from interpreter");
    }
    outcome.counts = exec_delta(stats_before, database_->exec_stats());
    outcome.counts["cosy.statements"] = static_cast<double>(report.sql_queries);
    outcome.counts["cosy.plan_cache_hits"] =
        static_cast<double>(report.plan_cache_hits);
    outcome.counts["cosy.plan_cache_misses"] =
        static_cast<double>(report.plan_cache_misses);
    outcome.counts["db.modelled_ms"] = conn_->clock().now_ms() - clock_before;
    return outcome;
  }

  bool layer_metrics(Metrics& out, Tracer& tracer,
                     const std::vector<OpOutcome>& ops) override {
    const double hits = mean_count(ops, "cosy.plan_cache_hits");
    const double misses = mean_count(ops, "cosy.plan_cache_misses");
    out["cosy.plan_cache_hit_rate"] = {
        hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio"};
    double contexts = 0.0;
    for (const OpOutcome& op : ops) contexts += op.items;
    out["cosy.statements_per_context"] = {
        mean_count(ops, "cosy.statements") * static_cast<double>(ops.size()) /
            contexts,
        "count"};
    out["cosy.analyze_ms"] = {median(tracer.durations("cosy.analyze")), "ms"};
    out["cosy.render_ms"] = {median(tracer.durations("cosy.render")), "ms"};

    // The same op with a 2-thread scan pool over the 1-thread default,
    // alternating, untraced.
    tracer.set_active(false);
    std::vector<double> one, two;
    bool ok = true;
    for (std::size_t rep = 0; rep < 2 * rotation_.size(); ++rep) {
      for (const std::size_t threads : {std::size_t{1}, kScanThreads}) {
        database_->set_scan_config(scan_threads(threads));
        const OpOutcome outcome = op(rep, tracer);
        ok = ok && outcome.ok;
        (threads == 1 ? one : two).push_back(outcome.ms);
      }
    }
    database_->set_scan_config(scan_threads(1));
    tracer.set_active(true);
    out["db.scan_pool_slowdown_x"] = {median(two) / median(one), "ratio"};

    const std::size_t run = rotation_.front();
    const auto contexts_run = contexts_of(*world_, run);
    out["cosy.compile_ms"] = {
        probe_compile_ms(*world_, kWholeCondition, *conn_, nullptr, run,
                         contexts_run),
        "ms"};
    kc::PlanCache cache(world_->model);
    const EvalProbe sql = probe_eval(*world_, *world_->store, kWholeCondition,
                                     conn_.get(), &cache, run, contexts_run);
    const EvalProbe interp = probe_eval(*world_, *world_->store, kInterpreter,
                                        nullptr, nullptr, run, contexts_run);
    return eval_metrics(out, sql, interp) && sql.ranked == reference_[run] &&
           ok;
  }

  [[nodiscard]] std::string input_digest() const override {
    return digest_.hex();
  }

 private:
  Options options_;
  Digest digest_;
  std::unique_ptr<World> world_;
  std::unique_ptr<kd::Database> database_;
  std::unique_ptr<kd::Connection> conn_;
  std::vector<std::string> reference_;  // per run index
  std::vector<std::size_t> contexts_;   // per run index
  std::vector<std::size_t> rotation_;
};

// --- batch_pushdown ----------------------------------------------------------

/// One BatchAnalyzer::analyze_runs per op over every run x {paper,
/// extended}, sql-pushdown, 2 workers on a 2-session pool, and a
/// caller-owned PlanCache that stays warm across ops.
class BatchPushdown final : public Workload {
 public:
  explicit BatchPushdown(const Options& options) : options_(options) {}

  void setup(Tracer& tracer) override {
    const Sizes sizes = options_.tiny ? Sizes{3, 3, {1, 4, 16, 64}}
                                      : Sizes{8, 8, {1, 4, 16, 64}};
    world_ = build_world(tracer, sizes, options_.seed, digest_);
    database_ = make_database(*world_, {}, tracer);
    import_rows = world_->import_rows;
    pool_ = std::make_unique<kd::ConnectionPool>(
        *database_, kd::ConnectionProfile::postgres(), kWorkers);
    cache_ = std::make_unique<kc::PlanCache>(world_->model);
    batch_ = std::make_unique<kc::BatchAnalyzer>(
        world_->model, *world_->store, world_->handles, pool_.get());
    suites_ = {{"paper", world_->paper_suite},
               {"extended", world_->extended_suite}};
    for (std::size_t r = 0; r < world_->handles.runs.size(); ++r) {
      runs_.push_back(r);
    }
    {
      Scoped span(tracer, "cosy.reference", "cosy");
      for (const kc::PropertySuite& suite : suites_) {
        for (const std::size_t r : runs_) {
          reference_[{r, suite.name}] =
              reference_report(*world_, r, suite.properties);
          contexts_ += contexts_of(*world_, r, suite.properties).size();
        }
      }
    }
    if (!op(0, tracer).ok) ++warmup_failures;  // first full pass
  }

  OpOutcome op(std::size_t /*index*/, Tracer& tracer) override {
    return run_batch(tracer, kWorkers);
  }

  bool layer_metrics(Metrics& out, Tracer& tracer,
                     const std::vector<OpOutcome>& ops) override {
    const double hits = mean_count(ops, "cosy.plan_cache_hits");
    const double misses = mean_count(ops, "cosy.plan_cache_misses");
    out["cosy.plan_cache_hit_rate"] = {
        hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio"};
    out["cosy.statements_per_context"] = {
        mean_count(ops, "cosy.statements") / static_cast<double>(contexts_),
        "count"};
    out["cosy.analyze_ms"] = {
        median(tracer.durations("cosy.batch.analyze_runs")), "ms"};
    out["db.pool_waits"] = {mean_count(ops, "db.pool_waits"), "count"};

    // The same batch at 1 worker and at 2, alternating, untraced.
    tracer.set_active(false);
    std::vector<double> one, two;
    bool ok = true;
    for (int rep = 0; rep < 3; ++rep) {
      for (const std::size_t workers : {std::size_t{1}, kWorkers}) {
        const OpOutcome outcome = run_batch(tracer, workers);
        ok = ok && outcome.ok;
        (workers == 1 ? one : two).push_back(outcome.ms);
      }
    }
    tracer.set_active(true);
    out["cosy.batch_parallel_speedup"] = {median(one) / median(two), "ratio"};

    const std::size_t run = runs_.back();
    const auto contexts_run = contexts_of(*world_, run);
    kd::ConnectionPool::Lease lease = pool_->acquire();
    out["cosy.compile_ms"] = {probe_compile_ms(*world_, kPushdown, *lease,
                                               cache_.get(), run, contexts_run),
                              "ms"};
    const EvalProbe sql = probe_eval(*world_, *world_->store, kPushdown,
                                     lease.get(), cache_.get(), run,
                                     contexts_run);
    const EvalProbe interp = probe_eval(*world_, *world_->store, kInterpreter,
                                        nullptr, nullptr, run, contexts_run);
    return eval_metrics(out, sql, interp) && ok;
  }

  [[nodiscard]] std::string input_digest() const override {
    return digest_.hex();
  }

 private:
  OpOutcome run_batch(Tracer& tracer, std::size_t workers) {
    const auto stats_before = database_->exec_stats();
    const auto pool_before = pool_->stats();
    const double clock_before = pool_->total_clock_us();
    kc::BatchConfig config;
    config.backend = kPushdown;
    config.threads = workers;
    config.plan_cache = cache_.get();
    kc::BatchResult result;
    const auto start = Clock::now();
    {
      Scoped op_span(tracer, "op", "bench");
      Scoped span(tracer, "cosy.batch.analyze_runs", "cosy");
      result = batch_->analyze_runs(runs_, suites_, config);
    }
    OpOutcome outcome;
    outcome.ms = ms_since(start);
    outcome.items = static_cast<double>(contexts_);
    for (const kc::BatchItem& item : result.items) {
      if (render_report(item.report) !=
          reference_.at({item.run_index, item.suite})) {
        outcome.ok = false;
        outcome.error = cat("run ", item.run_index, " suite ", item.suite,
                            ": findings differ from interpreter");
      }
    }
    if (result.items.size() != runs_.size() * suites_.size()) {
      outcome.ok = false;
      outcome.error = "batch returned the wrong number of reports";
    }
    outcome.counts = exec_delta(stats_before, database_->exec_stats());
    outcome.counts["cosy.statements"] =
        static_cast<double>(result.summary.sql_queries);
    outcome.counts["cosy.plan_cache_hits"] =
        static_cast<double>(result.summary.plan_cache_hits);
    outcome.counts["cosy.plan_cache_misses"] =
        static_cast<double>(result.summary.plan_cache_misses);
    outcome.counts["db.pool_waits"] =
        static_cast<double>(pool_->stats().waits - pool_before.waits);
    outcome.counts["db.modelled_ms"] =
        (pool_->total_clock_us() - clock_before) / 1000.0;
    return outcome;
  }

  Options options_;
  Digest digest_;
  std::unique_ptr<World> world_;
  std::unique_ptr<kd::Database> database_;
  std::unique_ptr<kd::ConnectionPool> pool_;
  std::unique_ptr<kc::PlanCache> cache_;
  std::unique_ptr<kc::BatchAnalyzer> batch_;
  std::vector<kc::PropertySuite> suites_;
  std::vector<std::size_t> runs_;
  std::map<std::pair<std::size_t, std::string>, std::string> reference_;
  std::size_t contexts_ = 0;
};

// --- monitor_stream ----------------------------------------------------------

constexpr std::size_t kMonitorPartitions = 8;

/// The cosy_tool --watch shape: each op ingests one seeded batch of
/// duplicate timing links into the next junction partition (round robin)
/// through Monitor::ingest, then runs Monitor::evaluate. After every full
/// round of partitions the store and monitor are rebuilt untimed, so a run
/// of any length measures the same eight epochs over and over instead of a
/// store that grows with the run.
class MonitorStream final : public Workload {
 public:
  explicit MonitorStream(const Options& options)
      : options_(options), rng_(mix(options.seed, kIngest)) {}

  void setup(Tracer& tracer) override {
    const Sizes sizes = options_.tiny ? Sizes{3, 3, {1, 4, 16, 64}}
                                      : Sizes{5, 6, {1, 4, 16, 64}};
    batch_rows_ = options_.tiny ? 64 : 1024;
    world_ = build_world(tracer, sizes, options_.seed, digest_);
    run_index_ = world_->handles.runs.size() - 1;
    contexts_ = contexts_of(*world_, run_index_);
    build_monitor(tracer);

    const kd::QueryResult links =
        conn_->execute("SELECT owner, member FROM Region_TypTimes");
    const kd::Table& junction = database_->table("Region_TypTimes");
    links_.resize(junction.partition_count());
    for (const kd::Row& row : links.rows) {
      links_[junction.route(row[1])].push_back(row);
    }
    if (!first_report_ok_) ++warmup_failures;  // first full pass
  }

  OpOutcome op(std::size_t index, Tracer& tracer) override {
    const std::size_t target = index % kMonitorPartitions;
    if (target == 0 && index > 0) {
      const bool traced = tracer.enabled();
      tracer.set_active(false);  // the rebuild is not part of any op
      build_monitor(tracer);
      tracer.set_active(traced);
    }
    kc::IngestBatch batch = make_batch(target);

    const auto stats_before = database_->exec_stats();
    const double clock_before = conn_->clock().now_ms();
    const std::uint64_t statements_before = conn_->statements_executed();
    std::size_t ingested = 0;
    kc::EpochReport report;
    const auto start = Clock::now();
    {
      Scoped op_span(tracer, "op", "bench");
      {
        Scoped span(tracer, "cosy.monitor.ingest", "cosy");
        ingested = monitor_->ingest(batch);
      }
      Scoped span(tracer, "cosy.monitor.evaluate", "cosy");
      report = monitor_->evaluate();
    }
    OpOutcome outcome;
    outcome.ms = ms_since(start);
    outcome.items = static_cast<double>(monitor_->watch_count());
    const std::string difference = reference_difference(report);
    if (!difference.empty() || ingested != batch.rows()) {
      outcome.ok = false;
      outcome.error = cat("epoch ", report.pass, ", partition ", target,
                          ": findings differ from the interpreter over the "
                          "same store: ", difference);
    }
    outcome.counts = exec_delta(stats_before, database_->exec_stats());
    outcome.counts["cosy.statements"] =
        static_cast<double>(conn_->statements_executed() - statements_before);
    outcome.counts["cosy.rows_ingested"] = static_cast<double>(ingested);
    outcome.counts["cosy.epoch_shard_cache_hits"] =
        static_cast<double>(report.shard_cache_hits);
    outcome.counts["cosy.epoch_shard_cache_misses"] =
        static_cast<double>(report.shard_cache_misses);
    outcome.counts["cosy.epoch_statements_memoized"] =
        static_cast<double>(report.statements_memoized);
    outcome.counts["cosy.epoch_dirty_partitions"] =
        static_cast<double>(report.dirty_partitions_recomputed);
    outcome.counts["db.modelled_ms"] = conn_->clock().now_ms() - clock_before;
    return outcome;
  }

  bool layer_metrics(Metrics& out, Tracer& tracer,
                     const std::vector<OpOutcome>& ops) override {
    const std::vector<double> ingest_ms =
        tracer.durations("cosy.monitor.ingest");
    out["cosy.monitor_ingest_ms"] = {median(ingest_ms), "ms"};
    out["cosy.monitor_evaluate_ms"] = {
        median(tracer.durations("cosy.monitor.evaluate")), "ms"};
    double ingest_total = 0.0;
    for (const double ms : ingest_ms) ingest_total += ms;
    // Traced ops alternate, so the rows of the traced half go with their time.
    const double rows_traced = mean_count(ops, "cosy.rows_ingested") *
                               static_cast<double>(ingest_ms.size());
    out["cosy.monitor_ingest_rows_per_s"] = {
        ingest_total > 0 ? rows_traced / ingest_total * 1000.0 : 0.0, "1/s"};
    const double hits = mean_count(ops, "cosy.epoch_shard_cache_hits");
    const double misses = mean_count(ops, "cosy.epoch_shard_cache_misses");
    out["cosy.shard_cache_hit_ratio"] = {
        hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio"};
    out["cosy.statements_memoized"] = {
        mean_count(ops, "cosy.epoch_statements_memoized"), "count"};
    out["cosy.dirty_partitions_recomputed"] = {
        mean_count(ops, "cosy.epoch_dirty_partitions"), "count"};
    out["cosy.statements_per_context"] = {
        mean_count(ops, "cosy.statements") /
            static_cast<double>(monitor_->watch_count()),
        "count"};

    // Probes over the monitor's current (columnar, partitioned) store. The
    // monitor's plans persist across epochs, so compile is priced on a
    // backend over an already-warm PlanCache.
    const ka::ObjectStore rebuilt = kc::rebuild_store(*conn_, world_->model);
    kc::PlanCache warm(world_->model);
    const EvalProbe sql = probe_eval(*world_, rebuilt, kWholeCondition,
                                     conn_.get(), &warm, run_index_, contexts_);
    out["cosy.compile_ms"] = {probe_compile_ms(*world_, kWholeCondition, *conn_,
                                               &warm, run_index_, contexts_),
                              "ms"};
    const EvalProbe interp = probe_eval(*world_, rebuilt, kInterpreter, nullptr,
                                        nullptr, run_index_, contexts_);
    return eval_metrics(out, sql, interp);
  }

  [[nodiscard]] std::string input_digest() const override {
    return digest_.hex();
  }

 private:
  void build_monitor(Tracer& tracer) {
    monitor_.reset();
    conn_.reset();
    kc::SchemaOptions schema;
    schema.columnar = true;
    schema.junction_partitions.push_back(
        {"Region", "TotTimes", "member", kMonitorPartitions});
    schema.junction_partitions.push_back(
        {"Region", "TypTimes", "member", kMonitorPartitions});
    database_ = make_database(*world_, schema, tracer);
    import_rows = world_->import_rows;
    conn_ = std::make_unique<kd::Connection>(*database_,
                                             kd::ConnectionProfile::postgres());
    kc::MonitorOptions options;
    options.backend = kWholeCondition;
    options.threads = kWorkers;
    monitor_ = std::make_unique<kc::Monitor>(world_->model, *conn_, options);
    for (const kc::PropertyContext& ctx : contexts_) {
      monitor_->watch(*ctx.property, ctx.args, ctx.label);
    }
    Scoped span(tracer, "cosy.monitor.first_evaluate", "cosy");
    first_report_ok_ = reference_difference(monitor_->evaluate()).empty();
  }

  kc::IngestBatch make_batch(std::size_t target) {
    const std::vector<kd::Row>& pool = links_[target];
    kc::IngestBatch batch;
    for (std::size_t i = 0; i < batch_rows_ && !pool.empty(); ++i) {
      const kd::Row& row = rng_.pick(pool);
      digest_.add(static_cast<std::uint64_t>(row[0].as_int()));
      digest_.add(static_cast<std::uint64_t>(row[1].as_int()));
      batch.add("Region_TypTimes", {row[0], row[1]});
    }
    return batch;
  }

  /// Interpreter evaluation of every watch over the store rebuilt from the
  /// database's current state, ranked as Monitor ranks its findings.
  /// Returns the first difference, or an empty string when they agree.
  std::string reference_difference(const kc::EpochReport& report) const {
    const ka::ObjectStore rebuilt = kc::rebuild_store(*conn_, world_->model);
    const ka::Interpreter interpreter(world_->model, rebuilt);
    std::vector<kc::MonitorFinding> expected;
    for (const kc::PropertyContext& ctx : contexts_) {
      ka::PropertyResult result =
          interpreter.evaluate_property(*ctx.property, ctx.args);
      if (result.holds()) {
        expected.push_back({ctx.property->name, ctx.label, std::move(result)});
      }
    }
    std::stable_sort(
        expected.begin(), expected.end(),
        [](const kc::MonitorFinding& a, const kc::MonitorFinding& b) {
          return a.result.severity > b.result.severity;
        });
    const auto text = [](const std::vector<kc::MonitorFinding>& list,
                         std::size_t k) {
      return k < list.size() ? render_result(list[k].property,
                                             list[k].context, list[k].result)
                             : std::string("(none)\n");
    };
    const std::size_t n = std::max(expected.size(), report.findings.size());
    for (std::size_t i = 0; i < n; ++i) {
      const std::string want = text(expected, i);
      const std::string got = text(report.findings, i);
      if (want != got) {
        return cat("finding #", i, ": interpreter ", want, "  monitor ", got);
      }
    }
    return "";
  }

  Options options_;
  Rng rng_;
  Digest digest_;
  std::size_t batch_rows_ = 0;
  std::unique_ptr<World> world_;
  std::size_t run_index_ = 0;
  std::vector<kc::PropertyContext> contexts_;
  std::unique_ptr<kd::Database> database_;
  std::unique_ptr<kd::Connection> conn_;
  std::unique_ptr<kc::Monitor> monitor_;
  bool first_report_ok_ = false;
  std::vector<std::vector<kd::Row>> links_;  // base links per partition
};

// --- sql_adhoc ---------------------------------------------------------------

/// Bit-exact text of one value (hexfloat for reals).
std::string render_value(const kd::Value& value) {
  if (value.type() == kd::ValueType::kDouble) {
    char buffer[40];
    std::snprintf(buffer, sizeof buffer, "%a", value.as_double());
    return buffer;
  }
  return value.to_sql_literal();
}

std::string render_rows(const kd::QueryResult& result) {
  std::string out;
  for (const kd::Row& row : result.rows) {
    for (const kd::Value& value : row) out += render_value(value) + "|";
    out += "\n";
  }
  return out;
}

/// One query class of the ad-hoc mix: its text, the tables it covers, and
/// the column lanes the columnar kernels read per covered row.
struct QueryClass {
  std::string name;
  std::string sql;
  std::vector<std::string> tables;  ///< base tables scanned in full
  std::size_t lanes_per_row = 0;    ///< 8-byte columns read (0: row path)
  std::size_t executions = 0;       ///< per op, each with its own parameters
};

/// sql_console-style queries from text over a large columnar performance
/// store: each op prepares every class's text once and executes it with
/// seeded parameters; results are checked against the same text on a
/// row-layout copy of the store.
class SqlAdhoc final : public Workload {
 public:
  explicit SqlAdhoc(const Options& options) : options_(options) {}

  void setup(Tracer& tracer) override {
    const std::vector<int> pes = {1, 2, 4, 8, 16, 32, 64, 128};
    const Sizes sizes = options_.tiny ? Sizes{8, 4, pes} : Sizes{128, 28, pes};
    world_ = build_world(tracer, sizes, options_.seed, digest_);
    kc::SchemaOptions columnar;
    columnar.columnar = true;
    database_ = make_database(*world_, columnar, tracer);
    import_rows = world_->import_rows;
    reference_db_ = make_database(*world_, {}, tracer, "_reference");
    world_->store.reset();  // queries run on the databases only
    conn_ = std::make_unique<kd::Connection>(*database_,
                                             kd::ConnectionProfile::postgres());

    classes_ = {
        {"filter_agg",
         "SELECT COUNT(*), SUM(Time), MIN(Time), MAX(Time) FROM TypedTiming "
         "WHERE Time > ? AND Type <> ?",
         {"TypedTiming"}, 2, 2},
        {"grouped_agg",
         "SELECT Type, COUNT(*), SUM(Time), MAX(Time) FROM TypedTiming "
         "WHERE Time > ? GROUP BY Type",
         {"TypedTiming"}, 2, 2},
        {"vm_expr_agg",
         "SELECT SUM(Incl - Excl), AVG(Excl * ? + Ovhd), COUNT(*) "
         "FROM TotalTiming WHERE Incl > ? * Excl",
         {"TotalTiming"}, 3, 2},
        {"hash_join",
         "SELECT COUNT(*), SUM(c.MeanTime), MAX(c.MaxTime) FROM CallTiming c "
         "JOIN TestRun r ON c.MaxTimePe + 1 = r.NoPe WHERE c.MeanTime > ?",
         {"CallTiming", "TestRun"}, 4, 2},
        {"index_probe", "SELECT Excl, Incl, Ovhd FROM TotalTiming WHERE id = ?",
         {}, 0, 32},
    };
    for (const QueryClass& c : classes_) {
      std::size_t rows = 0;
      for (const std::string& t : c.tables) {
        rows += database_->table(t).live_row_count();
      }
      rows_covered_.push_back(c.tables.empty() ? 1 : rows);
    }
    draw_parameters();
    if (!op(0, tracer).ok) ++warmup_failures;  // first full pass
  }

  OpOutcome op(std::size_t index, Tracer& tracer) override {
    const auto stats_before = database_->exec_stats();
    const double clock_before = conn_->clock().now_ms();
    std::vector<std::vector<kd::QueryResult>> results(classes_.size());
    std::vector<std::vector<std::size_t>> used(classes_.size());
    const auto start = Clock::now();
    {
      Scoped op_span(tracer, "op", "bench");
      for (std::size_t c = 0; c < classes_.size(); ++c) {
        const QueryClass& q = classes_[c];
        std::optional<kd::PreparedStatement> stmt;
        {
          Scoped span(tracer, "db.prepare", "db");
          stmt.emplace(database_->prepare(q.sql));
        }
        Scoped span(tracer, "db.query." + q.name, "db");
        for (std::size_t e = 0; e < q.executions; ++e) {
          const std::size_t p = (index * q.executions + e) % params_[c].size();
          used[c].push_back(p);
          results[c].push_back(conn_->execute(*stmt, params_[c][p]));
        }
      }
    }
    OpOutcome outcome;
    outcome.ms = ms_since(start);
    for (std::size_t c = 0; c < classes_.size(); ++c) {
      outcome.items += static_cast<double>(rows_covered_[c] * used[c].size());
      for (std::size_t e = 0; e < used[c].size(); ++e) {
        if (render_rows(results[c][e]) != reference(c, used[c][e])) {
          outcome.ok = false;
          outcome.error = cat(classes_[c].name, " parameters #", used[c][e],
                              ": result differs from the row-layout copy");
        }
      }
    }
    outcome.counts = exec_delta(stats_before, database_->exec_stats());
    outcome.counts["db.modelled_ms"] = conn_->clock().now_ms() - clock_before;
    return outcome;
  }

  bool layer_metrics(Metrics& out, Tracer& tracer,
                     const std::vector<OpOutcome>& /*ops*/) override {
    out["db.prepare_us"] = {median(tracer.durations("db.prepare")) * 1000.0,
                            "us"};
    double lanes = 0.0;
    double kernel_ms = 0.0;
    for (std::size_t c = 0; c < classes_.size(); ++c) {
      const QueryClass& q = classes_[c];
      const std::vector<double> ms = tracer.durations("db.query." + q.name);
      out["db.query_ms." + q.name] = {median(ms), "ms"};
      if (q.lanes_per_row == 0) continue;
      for (const double d : ms) kernel_ms += d;
      lanes += static_cast<double>(ms.size() * q.executions * rows_covered_[c] *
                                   q.lanes_per_row);
    }
    const double lanes_per_s = kernel_ms > 0 ? lanes / kernel_ms * 1000.0 : 0.0;
    out["db.lanes_per_s"] = {lanes_per_s, "1/s"};
    out["db.bytes_per_s"] = {lanes_per_s * 8.0, "B/s"};
    return true;
  }

  [[nodiscard]] std::string input_digest() const override {
    return digest_.hex();
  }

 private:
  /// Seeded parameter pools: thresholds at seeded quantiles of the live
  /// column values (so selectivity stays in a fixed band across seeds) and
  /// probe ids drawn from the table.
  void draw_parameters() {
    Rng rng(mix(options_.seed, kQueryParams));
    const auto sorted_column = [&](const std::string& sql) {
      std::vector<double> values;
      for (const kd::Row& row : reference_db_->execute(sql).rows) {
        values.push_back(row[0].as_double());
      }
      std::sort(values.begin(), values.end());
      return values;
    };
    const auto at_quantile = [&](const std::vector<double>& sorted, double lo,
                                 double hi) {
      const double q = rng.uniform(lo, hi);
      const double last = static_cast<double>(sorted.size() - 1);
      return kd::Value::real(sorted[static_cast<std::size_t>(q * last)]);
    };
    const std::vector<double> times =
        sorted_column("SELECT Time FROM TypedTiming");
    const std::vector<double> means =
        sorted_column("SELECT MeanTime FROM CallTiming");
    std::vector<std::int64_t> types;
    for (const kd::Row& row :
         reference_db_->execute("SELECT DISTINCT Type FROM TypedTiming").rows) {
      types.push_back(row[0].as_int());
    }
    std::vector<std::int64_t> ids;
    for (const kd::Row& row :
         reference_db_->execute("SELECT id FROM TotalTiming").rows) {
      ids.push_back(row[0].as_int());
    }
    constexpr std::size_t kPool = 16;
    params_.assign(classes_.size(), {});
    for (std::size_t i = 0; i < kPool; ++i) {
      params_[0].push_back(
          {at_quantile(times, 0.4, 0.6),
           kd::Value::integer(rng.pick(types))});
      params_[1].push_back({at_quantile(times, 0.2, 0.4)});
      params_[2].push_back({kd::Value::real(rng.uniform(0.5, 2.0)),
                            kd::Value::real(rng.uniform(1.0, 1.3))});
      params_[3].push_back({at_quantile(means, 0.1, 0.5)});
    }
    for (std::size_t i = 0; i < kPool * classes_[4].executions; ++i) {
      params_[4].push_back({kd::Value::integer(rng.pick(ids))});
    }
    for (const auto& pool : params_) {
      for (const auto& params : pool) {
        for (const kd::Value& v : params) digest_.add(render_value(v));
      }
    }
  }

  /// The row-layout result for (class, parameter set), computed on first use.
  const std::string& reference(std::size_t c, std::size_t p) {
    const auto key = std::make_pair(c, p);
    auto it = reference_.find(key);
    if (it == reference_.end()) {
      kd::PreparedStatement stmt = reference_db_->prepare(classes_[c].sql);
      it = reference_.emplace(key, render_rows(reference_db_->execute(
                                       stmt, params_[c][p])))
               .first;
    }
    return it->second;
  }

  Options options_;
  Digest digest_;
  std::unique_ptr<World> world_;
  std::unique_ptr<kd::Database> database_;
  std::unique_ptr<kd::Database> reference_db_;
  std::unique_ptr<kd::Connection> conn_;
  std::vector<QueryClass> classes_;
  std::vector<std::size_t> rows_covered_;  // per execution, per class
  std::vector<std::vector<std::vector<kd::Value>>> params_;
  std::map<std::pair<std::size_t, std::size_t>, std::string> reference_;
};

}  // namespace

std::vector<std::string> workload_names() {
  return {"report_cold", "batch_pushdown", "monitor_stream", "sql_adhoc"};
}

std::unique_ptr<Workload> make_workload(const Options& options) {
  if (options.workload == "report_cold") {
    return std::make_unique<ReportCold>(options);
  }
  if (options.workload == "batch_pushdown") {
    return std::make_unique<BatchPushdown>(options);
  }
  if (options.workload == "monitor_stream") {
    return std::make_unique<MonitorStream>(options);
  }
  if (options.workload == "sql_adhoc") {
    return std::make_unique<SqlAdhoc>(options);
  }
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

}  // namespace cosybench

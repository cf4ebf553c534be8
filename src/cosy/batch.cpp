#include "cosy/batch.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <tuple>

#include "cosy/eval_backend.hpp"
#include "cosy/sql_eval.hpp"
#include "support/error.hpp"
#include "support/str.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace kojak::cosy {

using support::EvalError;

std::string BatchSummary::to_table(std::size_t top_n) const {
  std::string out = support::cat(
      "Batch analysis: ", pooled_connections, " pooled sessions, ",
      support::format_double(wall_ms, 4), " ms wall, backend ",
      support::format_double(backend_total_ms, 4), " ms serial-equivalent / ",
      support::format_double(backend_makespan_ms, 4), " ms makespan\n",
      "SQL: ", sql_queries, " statements, plan cache ", plan_cache_hits,
      " hits / ", plan_cache_misses, " misses (",
      support::format_double(100.0 * plan_cache_hit_rate(), 4), "% hit rate)\n",
      "shared plan cache: ", shared_cache.hits, " hits / ",
      shared_cache.misses, " misses (",
      support::format_double(100.0 * shared_cache.hit_rate(), 4),
      "% hit rate), ", shared_cache_plans, " compiled plans resident\n");

  support::TablePrinter worst_table;
  worst_table.add_column("#", support::TablePrinter::Align::kRight)
      .add_column("suite")
      .add_column("property")
      .add_column("context")
      .add_column("run", support::TablePrinter::Align::kRight)
      .add_column("PEs", support::TablePrinter::Align::kRight)
      .add_column("severity", support::TablePrinter::Align::kRight);
  for (std::size_t i = 0; i < worst.size() && i < top_n; ++i) {
    const WorstContext& w = worst[i];
    worst_table.add_row({std::to_string(i + 1), w.suite, w.property, w.context,
                         std::to_string(w.run_index),
                         std::to_string(w.pe_count),
                         support::format_double(w.severity, 4)});
  }
  out += "worst contexts across runs:\n";
  out += worst_table.render();

  if (!regressions.empty()) {
    support::TablePrinter reg_table;
    reg_table.add_column("suite")
        .add_column("property")
        .add_column("context")
        .add_column("runs")
        .add_column("before", support::TablePrinter::Align::kRight)
        .add_column("after", support::TablePrinter::Align::kRight)
        .add_column("delta", support::TablePrinter::Align::kRight);
    for (std::size_t i = 0; i < regressions.size() && i < top_n; ++i) {
      const Regression& r = regressions[i];
      reg_table.add_row(
          {r.suite, r.property, r.context,
           support::cat(r.from_run, "->", r.to_run),
           support::format_double(r.severity_before, 4),
           support::format_double(r.severity_after, 4),
           support::format_double(r.delta(), 4)});
    }
    out += "scaling regressions (severity grew with the next run):\n";
    out += reg_table.render();
  } else {
    out += "scaling regressions: none\n";
  }
  return out;
}

const AnalysisReport* BatchResult::report_for(std::size_t run_index,
                                              std::string_view suite) const {
  for (const BatchItem& item : items) {
    if (item.run_index == run_index && item.suite == suite) {
      return &item.report;
    }
  }
  return nullptr;
}

BatchAnalyzer::BatchAnalyzer(const asl::Model& model,
                             const asl::ObjectStore& store,
                             const StoreHandles& handles,
                             db::ConnectionPool* pool)
    : model_(&model), store_(&store), handles_(&handles), pool_(pool) {}

BatchResult BatchAnalyzer::analyze_all(const BatchConfig& config) {
  std::vector<std::size_t> runs(handles_->runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) runs[i] = i;
  return analyze_runs(runs, {}, config);
}

BatchResult BatchAnalyzer::analyze_runs(std::span<const std::size_t> runs,
                                        std::span<const PropertySuite> suites,
                                        const BatchConfig& config) {
  const std::string& backend = config.backend;
  // Resolving the requirement through the registry also validates the name
  // up front — before any worker spins up.
  const bool needs_db = EvalBackend::requires_connection(backend);
  if (needs_db && pool_ == nullptr) {
    throw EvalError(support::cat("batch backend '", backend,
                                 "' needs a connection pool"));
  }

  static const PropertySuite kAllSuite{"all", {}};
  if (suites.empty()) suites = std::span<const PropertySuite>(&kAllSuite, 1);

  // The shared plan cache: the caller's long-lived one, else a per-batch one
  // whenever the backend compiles SQL.
  std::unique_ptr<PlanCache> owned_cache;
  PlanCache* cache = config.plan_cache;
  if (cache == nullptr && needs_db) {
    owned_cache = std::make_unique<PlanCache>(*model_);
    cache = owned_cache.get();
  }

  BatchResult result;
  result.items.resize(suites.size() * runs.size());

  const std::vector<double> clocks_before =
      pool_ != nullptr ? pool_->clock_snapshot_us() : std::vector<double>{};
  const db::ConnectionPool::Stats pool_before =
      pool_ != nullptr ? pool_->stats() : db::ConnectionPool::Stats{};
  const auto wall_start = std::chrono::steady_clock::now();

  // Distinct sessions that served this batch (exact, unlike the pool's
  // lifetime counters, which a caller-owned pool carries across batches).
  std::mutex used_mutex;
  std::set<const db::Connection*> used_sessions;

  const PlanCache::Stats cache_before =
      cache != nullptr ? cache->stats() : PlanCache::Stats{};

  const auto analyze_slot = [&](std::size_t slot, std::size_t) {
    const std::size_t s = slot / runs.size();
    const std::size_t r = slot % runs.size();
    AnalyzerConfig per_run;
    per_run.backend = backend;
    per_run.problem_threshold = config.problem_threshold;
    per_run.basis_region = config.basis_region;
    per_run.properties = suites[s].properties;
    per_run.plan_cache = cache;
    // Batch-level parallelism already saturates the workers; one run's
    // contexts must not fan out again inside each task.
    per_run.threads = 1;

    BatchItem& item = result.items[slot];
    item.run_index = runs[r];
    item.suite = suites[s].name;
    if (!needs_db) {
      Analyzer analyzer(*model_, *store_, *handles_);
      item.report = analyzer.analyze(runs[r], per_run);
    } else {
      db::ConnectionPool::Lease lease = pool_->acquire();
      {
        const std::lock_guard lock(used_mutex);
        used_sessions.insert(lease.get());
      }
      Analyzer analyzer(*model_, *store_, *handles_, lease.get());
      item.report = analyzer.analyze(runs[r], per_run);
    }
  };
  support::ThreadPool workers(config.threads);
  workers.parallel_for(result.items.size(), 0, analyze_slot);

  BatchSummary& summary = result.summary;
  summary.wall_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - wall_start)
                        .count();
  if (pool_ != nullptr) {
    const std::vector<double> clocks_after = pool_->clock_snapshot_us();
    for (std::size_t i = 0; i < clocks_after.size(); ++i) {
      const double before = i < clocks_before.size() ? clocks_before[i] : 0.0;
      const double delta_ms = (clocks_after[i] - before) / 1000.0;
      summary.backend_total_ms += delta_ms;
      summary.backend_makespan_ms =
          std::max(summary.backend_makespan_ms, delta_ms);
    }
    const db::ConnectionPool::Stats now = pool_->stats();
    summary.pool.acquires = now.acquires - pool_before.acquires;
    summary.pool.reuses = now.reuses - pool_before.reuses;
    summary.pool.waits = now.waits - pool_before.waits;
    summary.pooled_connections = used_sessions.size();
  }
  if (cache != nullptr) {
    const PlanCache::Stats cache_after = cache->stats();
    summary.shared_cache.hits = cache_after.hits - cache_before.hits;
    summary.shared_cache.misses = cache_after.misses - cache_before.misses;
    summary.shared_cache_plans = cache->size();
  }

  for (const BatchItem& item : result.items) {
    summary.sql_queries += item.report.sql_queries;
    summary.plan_cache_hits += item.report.plan_cache_hits;
    summary.plan_cache_misses += item.report.plan_cache_misses;
    for (const Finding& finding : item.report.findings) {
      summary.worst.push_back({item.suite, finding.property, finding.context,
                               item.run_index, item.report.pe_count,
                               finding.result.severity});
    }
  }
  std::sort(summary.worst.begin(), summary.worst.end(),
            [](const BatchSummary::WorstContext& a,
               const BatchSummary::WorstContext& b) {
              if (a.severity != b.severity) return a.severity > b.severity;
              return std::tie(a.suite, a.property, a.context, a.run_index) <
                     std::tie(b.suite, b.property, b.context, b.run_index);
            });
  if (summary.worst.size() > config.top_contexts) {
    summary.worst.resize(config.top_contexts);
  }

  // Scaling regressions: same suite, same (property, context), severity
  // grew from one analyzed run to the next (in the order given).
  for (std::size_t s = 0; s < suites.size(); ++s) {
    for (std::size_t r = 0; r + 1 < runs.size(); ++r) {
      const AnalysisReport& before = result.items[s * runs.size() + r].report;
      const AnalysisReport& after =
          result.items[s * runs.size() + r + 1].report;
      for (const Finding& now : after.findings) {
        for (const Finding& prev : before.findings) {
          if (prev.property != now.property || prev.context != now.context) {
            continue;
          }
          if (now.result.severity > prev.result.severity) {
            summary.regressions.push_back(
                {suites[s].name, now.property, now.context, runs[r],
                 runs[r + 1], prev.result.severity, now.result.severity});
          }
          break;
        }
      }
    }
  }
  std::sort(summary.regressions.begin(), summary.regressions.end(),
            [](const Regression& a, const Regression& b) {
              if (a.delta() != b.delta()) return a.delta() > b.delta();
              return std::tie(a.suite, a.property, a.context, a.from_run) <
                     std::tie(b.suite, b.property, b.context, b.from_run);
            });

  return result;
}

}  // namespace kojak::cosy

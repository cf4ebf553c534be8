#include "cosy/analyzer.hpp"

#include <algorithm>

#include "cosy/eval_backend.hpp"
#include "support/error.hpp"
#include "support/str.hpp"
#include "support/table.hpp"

namespace kojak::cosy {

using asl::PropertyResult;
using asl::RtValue;
using support::EvalError;

std::vector<const Finding*> AnalysisReport::problems() const {
  std::vector<const Finding*> out;
  out.reserve(findings.size());
  for (const Finding& finding : findings) {
    if (finding.result.severity > problem_threshold) out.push_back(&finding);
  }
  return out;
}

std::string AnalysisReport::to_table(std::size_t top_n) const {
  if (top_n == 0) top_n = findings.size();  // 0 caps nothing, not everything
  support::TablePrinter table;
  table.add_column("#", support::TablePrinter::Align::kRight)
      .add_column("property")
      .add_column("context")
      .add_column("cond")
      .add_column("conf", support::TablePrinter::Align::kRight)
      .add_column("severity", support::TablePrinter::Align::kRight)
      .add_column("problem");
  for (std::size_t i = 0; i < findings.size() && i < top_n; ++i) {
    const Finding& f = findings[i];
    table.add_row({std::to_string(i + 1), f.property, f.context,
                   f.result.matched_condition,
                   support::format_double(f.result.confidence, 3),
                   support::format_double(f.result.severity, 4),
                   f.result.severity > problem_threshold ? "YES" : "no"});
  }
  std::string out = support::cat("Analysis of ", program, " on ", pe_count,
                                 " PEs (threshold ",
                                 support::format_double(problem_threshold, 3),
                                 ")\n");
  out += table.render();
  if (const Finding* top = bottleneck()) {
    out += support::cat("bottleneck: ", top->property, " @ ", top->context,
                        tuned() ? "  [not a problem -> no further tuning needed]\n"
                                : "  [performance problem]\n");
  } else {
    out += "bottleneck: none (no property holds)\n";
  }
  return out;
}

std::vector<PropertyContext> enumerate_property_contexts(
    const asl::Model& model, const StoreHandles& handles,
    const asl::PropertyInfo& prop, asl::ObjectId run, asl::ObjectId basis) {
  std::vector<PropertyContext> contexts;
  if (prop.params.empty()) return contexts;

  const auto region_class = model.find_class("Region");
  const auto call_class = model.find_class("FunctionCall");
  const auto run_class = model.find_class("TestRun");

  const asl::Type& first = prop.params[0].second;
  struct Iter {
    asl::ObjectId object;
    const std::string* label;
  };
  std::vector<Iter> iters;
  if (region_class && first == asl::Type::class_of(*region_class)) {
    for (const auto& [name, id] : handles.regions) {
      iters.push_back({id, &name});
    }
  } else if (call_class && first == asl::Type::class_of(*call_class)) {
    for (std::size_t i = 0; i < handles.call_sites.size(); ++i) {
      iters.push_back({handles.call_sites[i], &handles.call_site_labels[i]});
    }
  } else {
    throw EvalError(support::cat(
        "property ", prop.name,
        " must take a Region or FunctionCall as its first parameter"));
  }

  for (const Iter& iter : iters) {
    PropertyContext ctx;
    ctx.property = &prop;
    ctx.label = *iter.label;
    ctx.args.push_back(RtValue::of_object(iter.object));
    bool ok = true;
    for (std::size_t p = 1; p < prop.params.size(); ++p) {
      const asl::Type& type = prop.params[p].second;
      if (run_class && type == asl::Type::class_of(*run_class)) {
        ctx.args.push_back(RtValue::of_object(run));
      } else if (region_class && type == asl::Type::class_of(*region_class)) {
        ctx.args.push_back(RtValue::of_object(basis));
      } else {
        ok = false;
        break;
      }
    }
    if (!ok) {
      throw EvalError(support::cat("property ", prop.name,
                                   " has a parameter the analyzer cannot bind"));
    }
    contexts.push_back(std::move(ctx));
  }
  return contexts;
}

namespace {

/// Properties selected by the config: all of the model's, or the named
/// suite (validated — a typo in a suite must not silently analyze nothing).
std::vector<const asl::PropertyInfo*> select_properties(
    const asl::Model& model, const AnalyzerConfig& config) {
  std::vector<const asl::PropertyInfo*> selected;
  if (config.properties.empty()) {
    for (const asl::PropertyInfo& prop : model.properties()) {
      selected.push_back(&prop);
    }
    return selected;
  }
  for (const std::string& name : config.properties) {
    const asl::PropertyInfo* prop = model.find_property(name);
    if (prop == nullptr) {
      throw EvalError(support::cat("unknown property '", name,
                                   "' in the configured suite"));
    }
    selected.push_back(prop);
  }
  return selected;
}

}  // namespace

Analyzer::Analyzer(const asl::Model& model, const asl::ObjectStore& store,
                   const StoreHandles& handles, db::Connection* conn,
                   db::ConnectionPool* pool)
    : model_(&model), store_(&store), handles_(&handles), conn_(conn),
      pool_(pool) {}

std::size_t Analyzer::context_count() const {
  std::size_t total = 0;
  for (const asl::PropertyInfo& prop : model_->properties()) {
    const auto region_class = model_->find_class("Region");
    if (region_class &&
        prop.params.front().second == asl::Type::class_of(*region_class)) {
      total += handles_->regions.size();
    } else {
      total += handles_->call_sites.size();
    }
  }
  return total;
}

AnalysisReport Analyzer::analyze(std::size_t run_index,
                                 const AnalyzerConfig& config) {
  if (run_index >= handles_->runs.size()) {
    throw EvalError(support::cat("run index ", run_index, " out of range (",
                                 handles_->runs.size(), " runs)"));
  }
  const asl::ObjectId run = handles_->runs[run_index];

  const std::string basis_name =
      config.basis_region.empty() ? handles_->main_region : config.basis_region;
  const auto basis_it = handles_->regions.find(basis_name);
  if (basis_it == handles_->regions.end()) {
    throw EvalError(support::cat("unknown basis region '", basis_name, "'"));
  }
  const asl::ObjectId basis = basis_it->second;

  AnalysisReport report;
  report.problem_threshold = config.problem_threshold;
  if (handles_->program != asl::kNullObject) {
    report.program = store_->attr(handles_->program, "Name").as_string();
  }
  report.pe_count = static_cast<int>(store_->attr(run, "NoPe").as_int());

  std::vector<PropertyContext> contexts;
  for (const asl::PropertyInfo* prop : select_properties(*model_, config)) {
    auto per_property =
        enumerate_property_contexts(*model_, *handles_, *prop, run, basis);
    for (auto& ctx : per_property) contexts.push_back(std::move(ctx));
  }

  // The evaluation path is a named backend and the worker count a number:
  // the analyzer branches on neither.
  EvalBackendDeps deps;
  deps.model = model_;
  deps.store = store_;
  deps.conn = conn_;
  deps.plan_cache = config.plan_cache;
  deps.shard_cache = config.shard_cache;
  std::vector<EvalRequest> requests;
  requests.reserve(contexts.size());
  for (const PropertyContext& ctx : contexts) {
    requests.push_back({ctx.property, &ctx.args});
  }
  std::vector<PropertyResult> results(contexts.size());
  const EvalStats stats =
      evaluate_contexts(config.backend, deps, pool_, config.threads, run,
                        requests, results);
  report.sql_queries = stats.sql_queries;
  report.whole_fallbacks = stats.whole_fallbacks;
  report.plan_cache_hits = stats.plan_cache_hits;
  report.plan_cache_misses = stats.plan_cache_misses;

  for (std::size_t i = 0; i < contexts.size(); ++i) {
    Finding finding{contexts[i].property->name, contexts[i].label,
                    std::move(results[i])};
    if (finding.result.status == PropertyResult::Status::kHolds) {
      report.findings.push_back(std::move(finding));
    } else if (finding.result.status == PropertyResult::Status::kNotApplicable) {
      report.not_applicable.push_back(std::move(finding));
    }
  }
  std::stable_sort(report.findings.begin(), report.findings.end(),
                   [](const Finding& a, const Finding& b) {
                     return a.result.severity > b.result.severity;
                   });
  return report;
}

}  // namespace kojak::cosy

#include "cosy/monitor.hpp"

#include <algorithm>
#include <span>

#include "cosy/eval_backend.hpp"
#include "support/error.hpp"
#include "support/str.hpp"

namespace kojak::cosy {

using asl::PropertyResult;
using support::EvalError;

void IngestBatch::add(std::string table, std::vector<db::Value> row) {
  auto it = index_.find(table);
  if (it == index_.end()) {
    it = index_.emplace(table, groups_.size()).first;
    groups_.push_back({std::move(table), row.size(), {}, 0});
  }
  Group& group = groups_[it->second];
  if (row.size() != group.width) {
    throw EvalError(support::cat("ingest row width ", row.size(),
                                 " does not match earlier rows of ",
                                 group.table, " (", group.width, ")"));
  }
  group.values.insert(group.values.end(),
                      std::make_move_iterator(row.begin()),
                      std::make_move_iterator(row.end()));
  ++group.rows;
  ++rows_;
}

void IngestBatch::clear() {
  groups_.clear();
  index_.clear();
  rows_ = 0;
}

std::string_view to_string(DeltaKind kind) noexcept {
  switch (kind) {
    case DeltaKind::kRaised: return "raised";
    case DeltaKind::kCleared: return "cleared";
    case DeltaKind::kSeverityChanged: return "severity-changed";
  }
  return "?";
}

std::string EpochReport::to_summary() const {
  std::size_t raised = 0;
  std::size_t cleared = 0;
  std::size_t changed = 0;
  for (const FindingDelta& delta : deltas) {
    switch (delta.kind) {
      case DeltaKind::kRaised: ++raised; break;
      case DeltaKind::kCleared: ++cleared; break;
      case DeltaKind::kSeverityChanged: ++changed; break;
    }
  }
  std::string out = support::cat(
      "epoch ", epoch, " pass ", pass, ": ", findings.size(), " finding(s), +",
      raised, " raised, -", cleared, " cleared, ~", changed,
      " severity-changed; shard cache ", shard_cache_hits, " hit / ",
      shard_cache_misses, " miss, ", dirty_partitions_recomputed,
      " dirty partition(s) recomputed, ", statements_memoized,
      " statement(s) memoized; ", rows_ingested, " row(s) ingested\n");
  for (const FindingDelta& delta : deltas) {
    out += support::cat("  [", to_string(delta.kind), "] ", delta.property,
                        " @ ", delta.context);
    if (delta.kind == DeltaKind::kSeverityChanged) {
      out += support::cat("  severity ",
                          support::format_double(delta.severity_before, 4),
                          " -> ",
                          support::format_double(delta.severity_after, 4));
    } else if (delta.kind == DeltaKind::kRaised) {
      out += support::cat("  severity ",
                          support::format_double(delta.severity_after, 4));
    }
    out += "\n";
  }
  return out;
}

Monitor::Monitor(const asl::Model& model, db::Connection& conn,
                 MonitorOptions options)
    : model_(&model),
      conn_(&conn),
      options_(std::move(options)),
      plan_cache_(model) {}

Monitor::~Monitor() = default;

void Monitor::watch(const asl::PropertyInfo& property,
                    std::vector<asl::RtValue> args, std::string label) {
  watches_.push_back({&property, std::move(args), std::move(label)});
}

std::size_t Monitor::ingest(const IngestBatch& batch) {
  if (batch.empty()) return 0;
  db::Database& database = conn_->database();
  // One exclusive gate for the whole batch: an evaluate() snapshot sees all
  // of it or none of it, and concurrent producer ingests serialize here (so
  // the statement cache below needs no lock of its own).
  const db::Database::WriteGate gate = database.write_gate();
  const std::size_t cap = std::max<std::size_t>(1, options_.ingest_batch_rows);
  for (const IngestBatch::Group& group : batch.groups_) {
    std::size_t offset = 0;
    while (offset < group.rows) {
      const std::size_t n = std::min(cap, group.rows - offset);
      const std::string key = support::cat(group.table, "#", n);
      auto it = insert_cache_.find(key);
      if (it == insert_cache_.end()) {
        std::string sql = support::cat("INSERT INTO ", group.table, " VALUES ");
        for (std::size_t r = 0; r < n; ++r) {
          sql += r == 0 ? "(" : ", (";
          for (std::size_t c = 0; c < group.width; ++c) {
            sql += c == 0 ? "?" : ", ?";
          }
          sql += ")";
        }
        it = insert_cache_.emplace(key, database.prepare(sql)).first;
      }
      conn_->execute(it->second, std::span<const db::Value>(
                                     group.values.data() + offset * group.width,
                                     n * group.width));
      offset += n;
    }
  }
  rows_since_eval_ += batch.rows();
  return batch.rows();
}

EpochReport Monitor::evaluate() {
  db::Database& database = conn_->database();
  // Shared gate for the whole pass: ingest batches queue up behind it, so
  // every statement of the pass sees the same store epoch.
  const db::Database::ReadSnapshot snapshot = database.snapshot();
  const auto before = database.exec_stats();

  // The backend is created on the first pass and kept: a steady-state pass
  // reuses its evaluators' prepared statements instead of re-parsing every
  // compiled plan's SQL, which is most of a warm pass's cost.
  if (backend_ == nullptr) {
    EvalBackendDeps deps;
    deps.model = model_;
    deps.conn = conn_;
    deps.plan_cache = &plan_cache_;
    deps.shard_cache = &shard_cache_;
    backend_ = EvalBackend::create(options_.backend, deps);
  }

  std::vector<PropertyResult> results;
  results.reserve(watches_.size());
  for (const Watch& w : watches_) {
    results.push_back(backend_->evaluate(*w.property, w.args));
  }

  const auto after = database.exec_stats();

  EpochReport report;
  report.epoch = snapshot.epoch();
  report.pass = ++passes_;
  report.rows_ingested = rows_since_eval_;
  rows_since_eval_ = 0;
  report.shard_cache_hits = after.shard_cache_hits - before.shard_cache_hits;
  report.shard_cache_misses =
      after.shard_cache_misses - before.shard_cache_misses;
  report.dirty_partitions_recomputed = after.dirty_partitions_recomputed -
                                       before.dirty_partitions_recomputed;
  report.statements_memoized =
      after.statements_memoized - before.statements_memoized;

  std::map<std::pair<std::string, std::string>, PropertyResult> current;
  for (std::size_t i = 0; i < watches_.size(); ++i) {
    const Watch& w = watches_[i];
    const PropertyResult& result = results[i];
    if (result.holds()) {
      report.findings.push_back({w.property->name, w.label, result});
    }
    const auto prev = previous_.find({w.property->name, w.label});
    const bool held_before = prev != previous_.end() && prev->second.holds();
    if (result.holds() && !held_before) {
      report.deltas.push_back({DeltaKind::kRaised, w.property->name, w.label,
                               0.0, result.severity});
    } else if (!result.holds() && held_before) {
      report.deltas.push_back({DeltaKind::kCleared, w.property->name, w.label,
                               prev->second.severity, 0.0});
    } else if (result.holds() && held_before &&
               result.severity != prev->second.severity) {
      report.deltas.push_back({DeltaKind::kSeverityChanged, w.property->name,
                               w.label, prev->second.severity,
                               result.severity});
    }
    current.emplace(std::make_pair(w.property->name, w.label), result);
  }
  std::stable_sort(report.findings.begin(), report.findings.end(),
                   [](const MonitorFinding& a, const MonitorFinding& b) {
                     return a.result.severity > b.result.severity;
                   });
  previous_ = std::move(current);
  return report;
}

}  // namespace kojak::cosy

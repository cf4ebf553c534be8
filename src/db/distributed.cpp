#include "db/distributed.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <optional>
#include <thread>
#include <variant>

#include "support/error.hpp"
#include "support/str.hpp"

namespace kojak::db {

// ---------------------------------------------------------------------------
// Shard rendering: SELECT -> SQL text with `?` in text order.
//
// A remote worker receives the shard as serialized statement text, so the
// body must survive a parse round trip. Placeholders are emitted as `?` and
// the original (absolute) param_index of each is recorded in emission
// order — a re-parse numbers placeholders sequentially in exactly that
// order, so slicing the statement's bound values by the recorded indices
// yields the shard's wire parameters.

namespace {

bool render_select(const sql::SelectStmt& s, std::string& out,
                   std::vector<std::size_t>& params);

bool render_literal(const Value& v, std::string& out) {
  switch (v.type()) {
    case ValueType::kNull:
      out += "NULL";
      return true;
    case ValueType::kBool:
      out += v.as_bool() ? "TRUE" : "FALSE";
      return true;
    case ValueType::kInt:
      out += std::to_string(v.as_int());
      return true;
    case ValueType::kDouble: {
      const double d = v.as_double();
      if (!std::isfinite(d)) return false;
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", d);
      out += buf;
      // Force a float re-parse: "0" alone would come back as an integer
      // literal and change arithmetic typing downstream.
      if (std::string_view(buf).find_first_of(".eE") ==
          std::string_view::npos) {
        out += ".0";
      }
      return true;
    }
    case ValueType::kString:
      out += '\'';
      for (const char c : v.as_string()) {
        out += c;
        if (c == '\'') out += '\'';
      }
      out += '\'';
      return true;
    case ValueType::kDateTime:
      out += support::cat("DATETIME '", format_datetime(v.as_datetime()), "'");
      return true;
  }
  return false;
}

bool render_expr(const sql::Expr& e, std::string& out,
                 std::vector<std::size_t>& params) {
  using Kind = sql::Expr::Kind;
  switch (e.kind) {
    case Kind::kLiteral:
      return render_literal(e.literal, out);
    case Kind::kColumnRef:
      if (!e.table.empty()) out += support::cat(e.table, ".");
      out += e.column;
      return true;
    case Kind::kParam:
      out += '?';
      params.push_back(e.param_index);
      return true;
    case Kind::kUnary:
      out += '(';
      out += e.un_op == sql::UnOp::kNeg ? "-" : "NOT ";
      if (e.lhs == nullptr || !render_expr(*e.lhs, out, params)) return false;
      out += ')';
      return true;
    case Kind::kBinary:
      out += '(';
      if (e.lhs == nullptr || !render_expr(*e.lhs, out, params)) return false;
      out += support::cat(" ", sql::to_string(e.bin_op), " ");
      if (e.rhs == nullptr || !render_expr(*e.rhs, out, params)) return false;
      out += ')';
      return true;
    case Kind::kFuncCall:
      out += e.func;
      out += '(';
      if (e.star_arg) {
        out += "*)";
        return true;
      }
      if (e.distinct_arg) out += "DISTINCT ";
      for (std::size_t i = 0; i < e.args.size(); ++i) {
        if (i > 0) out += ", ";
        if (!render_expr(*e.args[i], out, params)) return false;
      }
      out += ')';
      return true;
    case Kind::kIsNull:
      out += '(';
      if (e.lhs == nullptr || !render_expr(*e.lhs, out, params)) return false;
      out += e.negated ? " IS NOT NULL)" : " IS NULL)";
      return true;
    case Kind::kInList:
      out += '(';
      if (e.lhs == nullptr || !render_expr(*e.lhs, out, params)) return false;
      out += e.negated ? " NOT IN (" : " IN (";
      for (std::size_t i = 0; i < e.args.size(); ++i) {
        if (i > 0) out += ", ";
        if (!render_expr(*e.args[i], out, params)) return false;
      }
      out += "))";
      return true;
    case Kind::kLike:
      out += '(';
      if (e.lhs == nullptr || !render_expr(*e.lhs, out, params)) return false;
      out += e.negated ? " NOT LIKE " : " LIKE ";
      if (e.rhs == nullptr || !render_expr(*e.rhs, out, params)) return false;
      out += ')';
      return true;
    case Kind::kSubquery:
      if (e.subquery == nullptr) return false;
      out += '(';
      if (!render_select(*e.subquery, out, params)) return false;
      out += ')';
      return true;
    case Kind::kAliasRef:
      return false;  // no textual spelling survives parsing
  }
  return false;
}

void render_table_ref(const sql::TableRef& ref, std::string& out) {
  out += ref.table;
  if (ref.partition) out += support::cat(" PARTITION (", *ref.partition, ")");
  if (!ref.alias.empty()) out += support::cat(" ", ref.alias);
}

bool render_select(const sql::SelectStmt& s, std::string& out,
                   std::vector<std::size_t>& params) {
  if (!s.ctes.empty()) return false;  // shard bodies are CTE-free
  out += "SELECT ";
  if (s.distinct) out += "DISTINCT ";
  for (std::size_t i = 0; i < s.items.size(); ++i) {
    if (i > 0) out += ", ";
    const sql::SelectItem& item = s.items[i];
    if (item.star) {
      if (!item.star_table.empty()) out += support::cat(item.star_table, ".");
      out += '*';
      continue;
    }
    if (item.expr == nullptr || !render_expr(*item.expr, out, params)) {
      return false;
    }
    if (!item.alias.empty()) out += support::cat(" AS ", item.alias);
  }
  if (s.from) {
    out += " FROM ";
    render_table_ref(*s.from, out);
  }
  for (const sql::Join& join : s.joins) {
    if (join.on == nullptr) {
      out += " CROSS JOIN ";
      render_table_ref(join.table, out);
      continue;
    }
    out += " JOIN ";
    render_table_ref(join.table, out);
    out += " ON ";
    if (!render_expr(*join.on, out, params)) return false;
  }
  if (s.where) {
    out += " WHERE ";
    if (!render_expr(*s.where, out, params)) return false;
  }
  for (std::size_t i = 0; i < s.group_by.size(); ++i) {
    out += i == 0 ? " GROUP BY " : ", ";
    if (!render_expr(*s.group_by[i], out, params)) return false;
  }
  if (s.having) {
    out += " HAVING ";
    if (!render_expr(*s.having, out, params)) return false;
  }
  for (std::size_t i = 0; i < s.order_by.size(); ++i) {
    out += i == 0 ? " ORDER BY " : ", ";
    if (!render_expr(*s.order_by[i].expr, out, params)) return false;
    if (s.order_by[i].descending) out += " DESC";
  }
  if (s.limit) out += support::cat(" LIMIT ", *s.limit);
  if (s.offset) out += support::cat(" OFFSET ", *s.offset);
  return true;
}

/// Modelled characters of serialized statement text per wire value — the
/// CTE body ships as text and is charged through the profile's per-value
/// wire cost at this granularity.
constexpr double kWireCharsPerValue = 8.0;

}  // namespace

bool render_select_sql(const sql::SelectStmt& stmt, std::string& out,
                       std::vector<std::size_t>& param_order) {
  std::string text;
  std::vector<std::size_t> order;
  if (!render_select(stmt, text, order)) return false;
  out = std::move(text);
  param_order = std::move(order);
  return true;
}

// ---------------------------------------------------------------------------
// Workers

void Worker::set_faults(Faults faults) {
  std::lock_guard lock(faults_mutex_);
  faults_ = faults;
}

QueryResult Worker::execute_shard(const ShardTask& task) {
  bool fail = false;
  std::chrono::milliseconds delay{0};
  {
    std::lock_guard lock(faults_mutex_);
    delay = faults_.delay;
    if (faults_.fail_first > 0) {
      --faults_.fail_first;
      fail = true;
    }
  }
  // Thread confinement: the replica sees one statement at a time no matter
  // how the coordinator's pool schedules attempts.
  std::lock_guard confine(gate_);
  if (fail) {
    throw support::EvalError(
        support::cat("injected failure on worker '", name_, "'"));
  }
  if (delay.count() > 0) std::this_thread::sleep_for(delay);
  QueryResult result = do_execute_shard(task);
  shards_.fetch_add(1, std::memory_order_relaxed);
  return result;
}

QueryResult InProcessWorker::do_execute_shard(const ShardTask& task) {
  // Attempts of one task can run on several workers at once (straggler
  // re-issue), so each executes its own structural copy — binder
  // annotations never collide across replicas.
  sql::Statement stmt{std::move(*task.body->clone())};
  return replica_.execute(stmt, task.full_params);
}

QueryResult RemoteWorker::do_execute_shard(const ShardTask& task) {
  const std::uint64_t before = conn_.clock().now_ns();
  // The CTE text serializes coordinator -> worker before execution; the
  // result rows and round trip are charged by the connection itself.
  conn_.clock().advance_us(conn_.profile().value_wire_us *
                           (static_cast<double>(task.sql_text.size()) /
                            kWireCharsPerValue));
  QueryResult result = conn_.execute(task.sql_text, task.wire_params);
  charge_ns(conn_.clock().now_ns() - before);
  return result;
}

// ---------------------------------------------------------------------------
// Replicas

namespace {

/// Full clone of one source table into `replica` (schema, indexes, live
/// rows in scan order).
void clone_table(Database& replica, const Table& table) {
  Table& copy = replica.create_table(table.schema());
  for (const auto& index : table.indexes()) {
    copy.create_index(index->name(), index->column(), index->kind());
  }
  // Live rows re-insert in the source's scan order (partition-major,
  // heap order within each); the identical partition spec routes every
  // row to the same partition, so replica scans are byte-for-byte the
  // source's row streams.
  table.for_each_live_row(
      [&copy](std::size_t, const Row& row) { copy.insert(row); });
}

[[nodiscard]] std::vector<std::uint64_t> partition_versions(
    const Table& table) {
  std::vector<std::uint64_t> versions(table.partition_count());
  for (std::size_t p = 0; p < versions.size(); ++p) {
    versions[p] = table.partition_version(p);
  }
  return versions;
}

}  // namespace

ReplicaSet::ReplicaSet(const Database& source, std::size_t count)
    : source_(&source) {
  replicas_.reserve(count);
  SyncedVersions at_clone;
  for (const std::string& name : source.table_names()) {
    at_clone.emplace(name, partition_versions(source.table(name)));
  }
  for (std::size_t r = 0; r < count; ++r) {
    auto replica = std::make_unique<Database>();
    for (const std::string& name : source.table_names()) {
      clone_table(*replica, source.table(name));
    }
    replicas_.push_back(std::move(replica));
    synced_.push_back(at_clone);
  }
}

bool ReplicaSet::replica_stale(std::size_t i) const {
  const SyncedVersions& synced = synced_.at(i);
  for (const std::string& name : source_->table_names()) {
    const Table& table = source_->table(name);
    const auto it = synced.find(name);
    if (it == synced.end() || it->second.size() != table.partition_count()) {
      return true;  // table created or re-partitioned since the sync
    }
    for (std::size_t p = 0; p < it->second.size(); ++p) {
      if (it->second[p] != table.partition_version(p)) return true;
    }
  }
  return false;
}

std::size_t ReplicaSet::refresh(std::size_t i) {
  Database& replica = *replicas_.at(i);
  SyncedVersions& synced = synced_.at(i);
  std::size_t refreshed = 0;
  for (const std::string& name : source_->table_names()) {
    const Table& table = source_->table(name);
    const auto it = synced.find(name);
    if (it == synced.end() || it->second.size() != table.partition_count()) {
      // Table created or re-partitioned since the last sync: replace the
      // replica copy wholesale (rare DDL path; the hot path below is the
      // per-partition one).
      replica.drop_table(name);
      clone_table(replica, table);
      synced[name] = partition_versions(table);
      refreshed += table.partition_count();
      continue;
    }
    std::vector<std::uint64_t>& versions = it->second;
    Table& copy = replica.table(name);
    for (std::size_t p = 0; p < table.partition_count(); ++p) {
      const std::uint64_t current = table.partition_version(p);
      if (versions[p] == current) continue;
      // Re-copy ONLY this partition: tombstone the replica partition's live
      // rows, then append the source partition's rows in scan order — the
      // partition's live-row stream is again byte-for-byte the source's.
      for (const std::size_t row_id : copy.live_rows_in(p)) {
        copy.erase(row_id);
      }
      table.for_each_live_row_in(
          p, [&copy](std::size_t, const Row& row) { copy.insert(row); });
      versions[p] = current;
      ++refreshed;
    }
  }
  return refreshed;
}

std::vector<std::unique_ptr<Worker>> make_workers(
    ReplicaSet& replicas, const ConnectionProfile& profile) {
  std::vector<std::unique_ptr<Worker>> workers;
  workers.reserve(replicas.size());
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    std::string name = support::cat("worker", i);
    if (profile.distributed) {
      workers.push_back(std::make_unique<RemoteWorker>(
          std::move(name), replicas.replica(i), profile));
    } else {
      workers.push_back(std::make_unique<InProcessWorker>(
          std::move(name), replicas.replica(i)));
    }
  }
  return workers;
}

// ---------------------------------------------------------------------------
// Coordinator

/// Settlement state of one dispatched shard. First result wins: a late
/// (abandoned) attempt takes the mutex, sees `result` already set, and
/// drops its own. `inflight` counts scheduled attempts so gather can tell
/// "all attempts failed" from "an attempt is still running".
struct Coordinator::ShardSlot {
  std::mutex m;
  std::condition_variable cv;
  std::optional<QueryResult> result;
  std::exception_ptr error;
  std::size_t inflight = 0;
  bool reissued = false;
};

Coordinator::Coordinator(Connection& session,
                         std::vector<std::unique_ptr<Worker>> workers,
                         CoordinatorOptions options)
    : session_(&session), options_(options), workers_(std::move(workers)),
      pool_(std::max<std::size_t>(2, workers_.size() * 2)) {}

QueryResult Coordinator::execute(PreparedStatement& stmt,
                                 std::span<const Value> params) {
  if (auto* select = std::get_if<sql::SelectStmt>(&stmt.ast())) {
    std::vector<std::shared_ptr<ShardTask>> tasks =
        plan_shards(*select, params);
    if (!tasks.empty() && replicas_ready_for_scatter()) {
      return scatter_gather(*select, params, std::move(tasks));
    }
  }
  return session_->execute(stmt, params);
}

bool Coordinator::replicas_ready_for_scatter() {
  if (replicas_ == nullptr) return true;  // caller manages worker freshness
  const std::size_t n = std::min(workers_.size(), replicas_->size());
  bool ready = true;
  for (std::size_t i = 0; i < n; ++i) {
    if (!replicas_->replica_stale(i)) continue;
    if (!options_.refresh_stale_replicas) {
      // Decline to scatter: executing on the session is always fresh.
      ready = false;
      continue;
    }
    // Refresh under the worker's execution gate so an abandoned straggler
    // attempt from an earlier statement cannot race the re-copy.
    workers_[i]->with_replica_quiesced([&] {
      const std::size_t refreshed = replicas_->refresh(i);
      session_->database().count_replica_refreshes(refreshed);
    });
  }
  return ready;
}

QueryResult Coordinator::execute(std::string_view sql_text,
                                 std::span<const Value> params) {
  PreparedStatement stmt = session_->database().prepare(sql_text);
  return execute(stmt, params);
}

std::vector<std::shared_ptr<ShardTask>> Coordinator::plan_shards(
    const sql::SelectStmt& stmt, std::span<const Value> params) const {
  std::vector<std::shared_ptr<ShardTask>> tasks;
  if (stmt.ctes.empty() || workers_.empty()) return tasks;
  const Database& db = session_->database();
  for (const sql::CommonTableExpr& cte : stmt.ctes) {
    const sql::SelectStmt& body = *cte.select;
    // A CTE is a shard task iff its body reads only catalog tables (no
    // other CTE names — those materialize coordinator-side) and at least
    // one scan is partition-pinned, i.e. it is a `part<K>` shard of the
    // partition-union rewrite by structure, not by name.
    if (!body.ctes.empty()) continue;
    bool catalog_only = true;
    bool partition_pinned = false;
    sql::for_each_table_ref(body, [&](const sql::TableRef& ref) {
      if (ref.partition) partition_pinned = true;
      bool is_cte = false;
      for (const sql::CommonTableExpr& other : stmt.ctes) {
        if (support::iequals(other.name, ref.table)) {
          is_cte = true;
          break;
        }
      }
      if (is_cte || db.find_table(ref.table) == nullptr) catalog_only = false;
    });
    if (!catalog_only || !partition_pinned) continue;
    std::string text;
    std::vector<std::size_t> order;
    if (!render_select_sql(body, text, order)) continue;
    auto task = std::make_shared<ShardTask>();
    task->cte_name = cte.name;
    task->sql_text = std::move(text);
    task->body = body.clone();
    bool params_ok = true;
    task->wire_params.reserve(order.size());
    for (const std::size_t index : order) {
      if (index >= params.size()) {
        params_ok = false;
        break;
      }
      task->wire_params.push_back(params[index]);
    }
    if (!params_ok) continue;
    task->full_params.assign(params.begin(), params.end());
    tasks.push_back(std::move(task));
  }
  return tasks;
}

void Coordinator::dispatch(Worker& worker, std::shared_ptr<const ShardTask> task,
                           std::shared_ptr<ShardSlot> slot) {
  Database* db = &session_->database();
  const CoordinatorOptions options = options_;
  // The future is dropped deliberately: completion is signalled through the
  // slot (first result wins) and abandoned straggler attempts are allowed
  // to outlive the statement; the pool joins them at destruction.
  (void)pool_.submit([&worker, task = std::move(task), slot = std::move(slot),
                      db, options] {
    for (std::size_t attempt = 1;; ++attempt) {
      try {
        QueryResult result = worker.execute_shard(*task);
        std::lock_guard lock(slot->m);
        if (!slot->result) slot->result = std::move(result);
        --slot->inflight;
        slot->cv.notify_all();
        return;
      } catch (...) {
        db->count_worker_failures();
        if (attempt >= options.max_attempts) {
          std::lock_guard lock(slot->m);
          if (!slot->error) slot->error = std::current_exception();
          --slot->inflight;
          slot->cv.notify_all();
          return;
        }
        db->count_shard_retries();
      }
      std::this_thread::sleep_for(options.retry_backoff);
      {
        // Another attempt (straggler re-issue) may have settled the shard
        // while this one backed off; don't burn the worker again.
        std::lock_guard lock(slot->m);
        if (slot->result) {
          --slot->inflight;
          slot->cv.notify_all();
          return;
        }
      }
    }
  });
}

QueryResult Coordinator::scatter_gather(
    sql::SelectStmt& stmt, std::span<const Value> params,
    std::vector<std::shared_ptr<ShardTask>> tasks) {
  Database& db = session_->database();
  db.count_shards_dispatched(tasks.size());

  std::vector<std::uint64_t> modelled_before(workers_.size());
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    modelled_before[w] = workers_[w]->modelled_ns();
  }

  std::vector<std::shared_ptr<ShardSlot>> slots;
  slots.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    auto slot = std::make_shared<ShardSlot>();
    slot->inflight = 1;
    slots.push_back(slot);
    dispatch(*workers_[i % workers_.size()], tasks[i], slot);
  }

  for (std::size_t i = 0; i < tasks.size(); ++i) {
    ShardSlot& slot = *slots[i];
    const auto settled = [&slot] {
      return slot.result.has_value() || (slot.inflight == 0 && slot.error);
    };
    std::unique_lock lock(slot.m);
    if (!slot.cv.wait_for(lock, options_.shard_deadline, settled) &&
        workers_.size() > 1 && !slot.reissued) {
      // Straggler: issue the shard to the next worker's replica as well;
      // whichever attempt finishes first supplies the rows.
      slot.reissued = true;
      ++slot.inflight;
      db.count_straggler_reissues();
      lock.unlock();
      dispatch(*workers_[(i + 1) % workers_.size()], tasks[i], slots[i]);
      lock.lock();
    }
    slot.cv.wait(lock, settled);
    if (!slot.result) std::rethrow_exception(slot.error);
  }

  // Gather barrier: the statement's modelled cost is the slowest worker's
  // wire/server delta (the makespan), charged to the coordinator session
  // before the residual merge executes (and is charged) normally.
  std::uint64_t makespan = 0;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    makespan =
        std::max(makespan, workers_[w]->modelled_ns() - modelled_before[w]);
  }
  session_->clock().advance_ns(makespan);

  std::vector<Database::InjectedCte> injected;
  injected.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    injected.push_back({tasks[i]->cte_name, &*slots[i]->result});
  }
  return session_->execute_with_ctes(stmt, params, injected);
}

}  // namespace kojak::db

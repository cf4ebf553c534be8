#ifndef KOJAK_DB_CONNECTION_HPP
#define KOJAK_DB_CONNECTION_HPP

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "db/database.hpp"

namespace kojak::db {

/// Virtual clock that accumulates modelled latency in nanoseconds. The
/// paper's Section 5 compares 1999-era database servers (Oracle 7, MS
/// Access, MS SQL Server, Postgres) that cannot be run here; the engine
/// executes every statement for real and the clock charges deterministic
/// wire/server costs calibrated to the paper's reported factors.
class SimClock {
 public:
  void advance_ns(std::uint64_t ns) noexcept { now_ns_ += ns; }
  void advance_us(double us) noexcept {
    now_ns_ += static_cast<std::uint64_t>(us * 1000.0);
  }
  [[nodiscard]] std::uint64_t now_ns() const noexcept { return now_ns_; }
  [[nodiscard]] double now_us() const noexcept {
    return static_cast<double>(now_ns_) / 1000.0;
  }
  [[nodiscard]] double now_ms() const noexcept {
    return static_cast<double>(now_ns_) / 1e6;
  }
  void reset() noexcept { now_ns_ = 0; }

 private:
  std::uint64_t now_ns_ = 0;
};

/// Per-operation cost model of one backend deployment. All costs in
/// microseconds of virtual time. `distributed` backends pay a round trip
/// per statement; the in-process backend (MS Access profile) does not.
struct ConnectionProfile {
  std::string name;
  bool distributed = true;
  double connect_us = 0;         ///< one-time session setup
  double stmt_roundtrip_us = 0;  ///< client<->server RTT per statement
  double insert_row_us = 0;      ///< server-side cost per inserted row
  double fetch_row_us = 0;       ///< server-side + wire cost per fetched row
  double value_wire_us = 0;      ///< per value transferred either direction

  /// Profiles calibrated to §5: MS Access (in-process) fastest; Oracle 7
  /// ~20x slower insertion than Access; MS SQL Server and Postgres ~2x
  /// faster than Oracle. EXPERIMENTS.md documents the calibration.
  [[nodiscard]] static ConnectionProfile access_local();
  [[nodiscard]] static ConnectionProfile oracle7();
  [[nodiscard]] static ConnectionProfile mssql_server();
  [[nodiscard]] static ConnectionProfile postgres();
  /// Ideal profile with zero modelled cost (pure engine time).
  [[nodiscard]] static ConnectionProfile in_memory();

  [[nodiscard]] static std::vector<ConnectionProfile> all_paper_profiles();
};

/// Client driver model. The paper accessed databases from Java via JDBC and
/// reports a 2-4x penalty vs. C-based interfaces; kBridge reproduces the
/// mechanism by physically serializing every result value to text and
/// re-parsing it (type-tagged), plus a modelled per-row dispatch cost.
enum class DriverKind { kNative, kBridge };

[[nodiscard]] std::string_view to_string(DriverKind kind);

/// A session against a Database through a cost profile and a driver.
/// Execution is always real (the embedded engine runs the statement); the
/// clock charge and the bridge marshalling are layered on top.
class Connection {
 public:
  Connection(Database& db, ConnectionProfile profile,
             DriverKind driver = DriverKind::kNative);

  [[nodiscard]] const ConnectionProfile& profile() const noexcept {
    return profile_;
  }
  [[nodiscard]] DriverKind driver() const noexcept { return driver_; }
  [[nodiscard]] SimClock& clock() noexcept { return clock_; }
  [[nodiscard]] const SimClock& clock() const noexcept { return clock_; }
  [[nodiscard]] Database& database() noexcept { return db_; }
  [[nodiscard]] const Database& database() const noexcept { return db_; }

  /// Table-layout introspection, forwarded from the catalog: sessions are
  /// what query compilers hold, so the layout metadata a compiler plans
  /// against (partition specs, layout fingerprint) is reachable without
  /// touching the engine directly.
  [[nodiscard]] std::optional<Database::TableLayout> table_layout(
      std::string_view name) const {
    return db_.table_layout(name);
  }
  [[nodiscard]] std::uint64_t layout_fingerprint() const {
    return db_.layout_fingerprint();
  }

  /// Executes SQL text; charges parse+plan (real engine) plus modelled costs.
  QueryResult execute(std::string_view sql_text, std::span<const Value> params = {});
  QueryResult execute(PreparedStatement& stmt, std::span<const Value> params = {});

  /// Executes a SELECT with some WITH entries pre-materialized (the
  /// shard-result cache's path): injected names resolve to the cached rows
  /// instead of executing their bodies. Charged like any other statement
  /// against this session's cost profile.
  QueryResult execute_with_ctes(sql::SelectStmt& stmt,
                                std::span<const Value> params,
                                std::span<const Database::InjectedCte> injected);

  /// Statements issued since construction (bench bookkeeping).
  [[nodiscard]] std::uint64_t statements_executed() const noexcept {
    return statements_;
  }
  [[nodiscard]] std::uint64_t rows_transferred() const noexcept { return rows_; }

 private:
  QueryResult finish(QueryResult result, std::size_t bound_values);
  void charge_statement(const QueryResult& result, std::size_t bound_values);

  Database& db_;
  ConnectionProfile profile_;
  DriverKind driver_;
  SimClock clock_;
  std::uint64_t statements_ = 0;
  std::uint64_t rows_ = 0;
};

/// Round-trips a result set through the text marshalling a JDBC-style bridge
/// performs (serialize every value, re-parse with a type tag). Returns a
/// result equal to the input; the cost is the point. Exposed for tests.
[[nodiscard]] QueryResult bridge_marshal_roundtrip(const QueryResult& result);

}  // namespace kojak::db

#endif  // KOJAK_DB_CONNECTION_HPP

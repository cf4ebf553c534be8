#ifndef KOJAK_DB_CONNECTION_POOL_HPP
#define KOJAK_DB_CONNECTION_POOL_HPP

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "db/connection.hpp"

namespace kojak::db {

/// Fixed-capacity pool of database sessions against one Database. A
/// Connection is stateful (virtual clock, statement counters, bridge
/// marshalling buffers), so parallel evaluators must not share one; the pool
/// hands each worker an exclusive session and takes it back when the lease
/// goes out of scope. Connections are created lazily — a pool of capacity N
/// that only ever sees one worker pays for one session setup — and reused
/// across leases, so the per-profile connect cost is charged once per
/// session, not once per acquire.
///
/// The engine itself permits concurrent read-only statements (distinct
/// prepared statements / statement texts); the pool adds the per-session
/// isolation that makes the cost model and the counters race-free.
class ConnectionPool {
 public:
  ConnectionPool(Database& db, ConnectionProfile profile, std::size_t capacity,
                 DriverKind driver = DriverKind::kNative);

  ConnectionPool(const ConnectionPool&) = delete;
  ConnectionPool& operator=(const ConnectionPool&) = delete;

  /// Exclusive hold on one pooled connection; returns it on destruction.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept;
    Lease& operator=(Lease&& other) noexcept;
    ~Lease();

    [[nodiscard]] Connection& operator*() const noexcept { return *conn_; }
    [[nodiscard]] Connection* operator->() const noexcept { return conn_; }
    [[nodiscard]] Connection* get() const noexcept { return conn_; }
    [[nodiscard]] explicit operator bool() const noexcept {
      return conn_ != nullptr;
    }
    /// Returns the connection early (idempotent).
    void release();

   private:
    friend class ConnectionPool;
    Lease(ConnectionPool* pool, Connection* conn) : pool_(pool), conn_(conn) {}
    ConnectionPool* pool_ = nullptr;
    Connection* conn_ = nullptr;
  };

  /// Blocks until a connection is available.
  [[nodiscard]] Lease acquire();

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Connections constructed so far (lazy; <= capacity).
  [[nodiscard]] std::size_t created() const;
  /// Connections currently idle in the pool.
  [[nodiscard]] std::size_t idle() const;

  struct Stats {
    std::uint64_t acquires = 0;  ///< total leases handed out
    std::uint64_t reuses = 0;    ///< leases served by an existing session
    std::uint64_t waits = 0;     ///< leases that had to block for a return
  };
  [[nodiscard]] Stats stats() const;

  /// Modelled backend time summed over all sessions (the serial-equivalent
  /// cost). Meaningful when no leases are outstanding.
  [[nodiscard]] double total_clock_us() const;
  /// Per-session clocks in creation order (for makespan deltas across a
  /// batch: snapshot before and after, subtract index-wise).
  [[nodiscard]] std::vector<double> clock_snapshot_us() const;
  [[nodiscard]] std::uint64_t statements_executed() const;

 private:
  void give_back(Connection* conn);

  Database& db_;
  ConnectionProfile profile_;
  DriverKind driver_;
  std::size_t capacity_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::unique_ptr<Connection>> connections_;  // all ever created
  std::vector<Connection*> idle_;
  Stats stats_;
};

}  // namespace kojak::db

#endif  // KOJAK_DB_CONNECTION_POOL_HPP

#include "db/connection_pool.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace kojak::db {

ConnectionPool::ConnectionPool(Database& db, ConnectionProfile profile,
                               std::size_t capacity, DriverKind driver)
    : db_(db),
      profile_(std::move(profile)),
      driver_(driver),
      capacity_(std::max<std::size_t>(1, capacity)) {}

ConnectionPool::Lease::Lease(Lease&& other) noexcept
    : pool_(other.pool_), conn_(other.conn_) {
  other.pool_ = nullptr;
  other.conn_ = nullptr;
}

ConnectionPool::Lease& ConnectionPool::Lease::operator=(Lease&& other) noexcept {
  if (this != &other) {
    release();
    pool_ = other.pool_;
    conn_ = other.conn_;
    other.pool_ = nullptr;
    other.conn_ = nullptr;
  }
  return *this;
}

ConnectionPool::Lease::~Lease() { release(); }

void ConnectionPool::Lease::release() {
  if (pool_ != nullptr && conn_ != nullptr) pool_->give_back(conn_);
  pool_ = nullptr;
  conn_ = nullptr;
}

ConnectionPool::Lease ConnectionPool::acquire() {
  std::unique_lock lock(mutex_);
  ++stats_.acquires;
  if (idle_.empty() && connections_.size() < capacity_) {
    connections_.push_back(std::make_unique<Connection>(db_, profile_, driver_));
    return Lease(this, connections_.back().get());
  }
  if (idle_.empty()) {
    ++stats_.waits;
    cv_.wait(lock, [this] { return !idle_.empty(); });
  }
  ++stats_.reuses;
  Connection* conn = idle_.back();
  idle_.pop_back();
  return Lease(this, conn);
}

void ConnectionPool::give_back(Connection* conn) {
  {
    std::lock_guard lock(mutex_);
    idle_.push_back(conn);
  }
  cv_.notify_one();
}

std::size_t ConnectionPool::created() const {
  std::lock_guard lock(mutex_);
  return connections_.size();
}

std::size_t ConnectionPool::idle() const {
  std::lock_guard lock(mutex_);
  return idle_.size();
}

ConnectionPool::Stats ConnectionPool::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

double ConnectionPool::total_clock_us() const {
  std::lock_guard lock(mutex_);
  // Integer nanoseconds sum exactly in any session order.
  std::uint64_t total_ns = 0;
  for (const auto& conn : connections_) total_ns += conn->clock().now_ns();
  return static_cast<double>(total_ns) / 1000.0;
}

std::vector<double> ConnectionPool::clock_snapshot_us() const {
  std::lock_guard lock(mutex_);
  std::vector<double> out;
  out.reserve(connections_.size());
  for (const auto& conn : connections_) out.push_back(conn->clock().now_us());
  return out;
}

std::uint64_t ConnectionPool::statements_executed() const {
  std::lock_guard lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& conn : connections_) total += conn->statements_executed();
  return total;
}

}  // namespace kojak::db

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "db/connection.hpp"
#include "db/connection_pool.hpp"
#include "support/str.hpp"

namespace kdb = kojak::db;
using kdb::Connection;
using kdb::ConnectionProfile;
using kdb::Database;
using kdb::DriverKind;
using kdb::Value;

namespace {

Database seeded_db(int rows = 100) {
  Database db;
  db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v DOUBLE, s TEXT)");
  db.execute("CREATE INDEX idx_id ON t (id)");
  for (int i = 0; i < rows; ++i) {
    db.execute(kojak::support::cat("INSERT INTO t VALUES (", i, ", ", i * 1.5,
                                   ", 'row_", i, "')"));
  }
  return db;
}

}  // namespace

TEST(SimClock, Accumulates) {
  kdb::SimClock clock;
  EXPECT_EQ(clock.now_ns(), 0u);
  clock.advance_us(1.5);
  clock.advance_ns(500);
  EXPECT_EQ(clock.now_ns(), 2000u);
  EXPECT_DOUBLE_EQ(clock.now_us(), 2.0);
  clock.reset();
  EXPECT_EQ(clock.now_ns(), 0u);
}

TEST(Profiles, PaperCalibrationOrdering) {
  const auto access = ConnectionProfile::access_local();
  const auto oracle = ConnectionProfile::oracle7();
  const auto mssql = ConnectionProfile::mssql_server();
  const auto postgres = ConnectionProfile::postgres();

  EXPECT_FALSE(access.distributed);
  EXPECT_TRUE(oracle.distributed);

  // Per-row insert cost (incl. the statement round trip that dominates
  // row-at-a-time imports) reproduces §5: Access fastest by ~20x vs Oracle,
  // MSSQL/Postgres ~2x faster than Oracle.
  const auto insert_cost = [](const ConnectionProfile& p) {
    return p.insert_row_us + (p.distributed ? p.stmt_roundtrip_us : 0.0);
  };
  const double ratio_oracle = insert_cost(oracle) / insert_cost(access);
  EXPECT_GT(ratio_oracle, 15.0);
  EXPECT_LT(ratio_oracle, 25.0);
  const double vs_mssql = insert_cost(oracle) / insert_cost(mssql);
  EXPECT_GT(vs_mssql, 1.6);
  EXPECT_LT(vs_mssql, 2.6);
  const double vs_postgres = insert_cost(oracle) / insert_cost(postgres);
  EXPECT_GT(vs_postgres, 1.6);
  EXPECT_LT(vs_postgres, 2.6);

  EXPECT_EQ(ConnectionProfile::all_paper_profiles().size(), 4u);
}

TEST(Connection, ChargesConnectCost) {
  Database db = seeded_db(1);
  Connection conn(db, ConnectionProfile::oracle7());
  EXPECT_DOUBLE_EQ(conn.clock().now_us(),
                   ConnectionProfile::oracle7().connect_us);
}

TEST(Connection, InsertChargesPerRow) {
  Database db;
  db.execute("CREATE TABLE t (x INTEGER)");
  Connection conn(db, ConnectionProfile::postgres());
  const double before = conn.clock().now_us();
  conn.execute("INSERT INTO t VALUES (1), (2), (3)");
  const double charged = conn.clock().now_us() - before;
  const auto profile = ConnectionProfile::postgres();
  EXPECT_GE(charged, profile.stmt_roundtrip_us + 3 * profile.insert_row_us);
  EXPECT_EQ(conn.rows_transferred(), 3u);
  EXPECT_EQ(conn.statements_executed(), 1u);
}

TEST(Connection, FetchChargesPerRowAndValue) {
  Database db = seeded_db(50);
  Connection conn(db, ConnectionProfile::oracle7());
  const double before = conn.clock().now_us();
  const auto result = conn.execute("SELECT id, v, s FROM t");
  const double charged = conn.clock().now_us() - before;
  EXPECT_EQ(result.row_count(), 50u);
  const auto profile = ConnectionProfile::oracle7();
  const double expected = profile.stmt_roundtrip_us +
                          50 * profile.fetch_row_us +
                          50 * 3 * profile.value_wire_us;
  EXPECT_NEAR(charged, expected, 1.0);
}

TEST(Connection, InMemoryProfileChargesNothing) {
  Database db = seeded_db(10);
  Connection conn(db, ConnectionProfile::in_memory());
  conn.execute("SELECT * FROM t");
  EXPECT_EQ(conn.clock().now_ns(), 0u);
}

TEST(Connection, BridgeDriverCostFactorInBand) {
  // §5: JDBC-style access is a factor 2-4 slower than C-based access.
  Database db = seeded_db(200);
  Connection native(db, ConnectionProfile::oracle7(), DriverKind::kNative);
  Connection bridge(db, ConnectionProfile::oracle7(), DriverKind::kBridge);
  const double n0 = native.clock().now_us();
  const double b0 = bridge.clock().now_us();
  native.execute("SELECT id, v, s FROM t");
  bridge.execute("SELECT id, v, s FROM t");
  const double native_cost = native.clock().now_us() - n0;
  const double bridge_cost = bridge.clock().now_us() - b0;
  const double factor = bridge_cost / native_cost;
  EXPECT_GT(factor, 2.0);
  EXPECT_LT(factor, 4.0);
}

TEST(Connection, OracleJdbcFetchIsAboutOneMillisecond) {
  // §5: "fetching a record from the Oracle server takes about 1 ms" (JDBC).
  Database db = seeded_db(100);
  Connection bridge(db, ConnectionProfile::oracle7(), DriverKind::kBridge);
  const double before = bridge.clock().now_us();
  for (int i = 0; i < 100; ++i) {
    const std::vector<Value> params = {Value::integer(i)};
    auto stmt = db.prepare("SELECT id, v, s FROM t WHERE id = ?");
    bridge.execute(stmt, params);
  }
  const double per_record_us = (bridge.clock().now_us() - before) / 100.0;
  EXPECT_GT(per_record_us, 500.0);
  EXPECT_LT(per_record_us, 1500.0);
}

TEST(BridgeMarshal, RoundTripPreservesValues) {
  Database db = seeded_db(5);
  db.execute("INSERT INTO t VALUES (100, NULL, NULL)");
  const auto direct = db.execute("SELECT id, v, s FROM t ORDER BY id");
  const auto bridged = kdb::bridge_marshal_roundtrip(direct);
  ASSERT_EQ(bridged.row_count(), direct.row_count());
  ASSERT_EQ(bridged.columns, direct.columns);
  for (std::size_t r = 0; r < direct.row_count(); ++r) {
    for (std::size_t c = 0; c < direct.column_count(); ++c) {
      EXPECT_EQ(kdb::Value::compare_total(bridged.at(r, c), direct.at(r, c)), 0)
          << "row " << r << " col " << c;
    }
  }
}

TEST(BridgeMarshal, HandlesAllTypes) {
  kdb::QueryResult result;
  result.columns = {"a", "b", "c", "d", "e", "f"};
  result.rows.push_back({Value::null(), Value::boolean(true),
                         Value::integer(-42), Value::real(2.5),
                         Value::text("hello world"), Value::datetime(941806800)});
  const auto bridged = kdb::bridge_marshal_roundtrip(result);
  ASSERT_EQ(bridged.row_count(), 1u);
  EXPECT_TRUE(bridged.at(0, 0).is_null());
  EXPECT_TRUE(bridged.at(0, 1).as_bool());
  EXPECT_EQ(bridged.at(0, 2).as_int(), -42);
  EXPECT_DOUBLE_EQ(bridged.at(0, 3).as_double(), 2.5);
  EXPECT_EQ(bridged.at(0, 4).as_string(), "hello world");
  EXPECT_EQ(bridged.at(0, 5).as_datetime(), 941806800);
}

TEST(Connection, BridgeReturnsEqualResults) {
  Database db = seeded_db(20);
  Connection native(db, ConnectionProfile::in_memory(), DriverKind::kNative);
  Connection bridge(db, ConnectionProfile::in_memory(), DriverKind::kBridge);
  const auto a = native.execute("SELECT * FROM t ORDER BY id");
  const auto b = bridge.execute("SELECT * FROM t ORDER BY id");
  ASSERT_EQ(a.row_count(), b.row_count());
  for (std::size_t r = 0; r < a.row_count(); ++r) {
    for (std::size_t c = 0; c < a.column_count(); ++c) {
      EXPECT_EQ(kdb::Value::compare_total(a.at(r, c), b.at(r, c)), 0);
    }
  }
}

// ---------------------------------------------------------------------------
// Connection pool

TEST(ConnectionPool, CreatesLazilyAndReuses) {
  Database db = seeded_db(10);
  kdb::ConnectionPool pool(db, ConnectionProfile::oracle7(), 4);
  EXPECT_EQ(pool.capacity(), 4u);
  EXPECT_EQ(pool.created(), 0u);

  {
    const auto lease = pool.acquire();
    EXPECT_TRUE(lease);
    EXPECT_EQ(pool.created(), 1u);
    EXPECT_EQ(pool.idle(), 0u);
    lease->execute("SELECT COUNT(*) FROM t");
  }
  EXPECT_EQ(pool.idle(), 1u);

  // A second sequential acquire reuses the same session: its clock keeps
  // accumulating and no second connect cost is charged.
  const double after_first = pool.total_clock_us();
  {
    const auto lease = pool.acquire();
    EXPECT_EQ(pool.created(), 1u);
    lease->execute("SELECT COUNT(*) FROM t");
  }
  EXPECT_EQ(pool.created(), 1u);
  const auto stats = pool.stats();
  EXPECT_EQ(stats.acquires, 2u);
  EXPECT_EQ(stats.reuses, 1u);
  EXPECT_EQ(stats.waits, 0u);
  EXPECT_GT(pool.total_clock_us(), after_first);
  EXPECT_LT(pool.total_clock_us(),
            after_first + ConnectionProfile::oracle7().connect_us);
}

TEST(ConnectionPool, TotalClockSumsNanosecondsExactly) {
  // 0.1 + 0.2 + 0.3 µs summed as doubles is 0.6000000000000001; summed as
  // integer nanoseconds and converted once it is 0.6 in any session order.
  Database db = seeded_db(1);
  kdb::ConnectionPool pool(db, ConnectionProfile::in_memory(), 3);
  auto a = pool.acquire();
  auto b = pool.acquire();
  auto c = pool.acquire();
  a->clock().advance_ns(100);
  b->clock().advance_ns(200);
  c->clock().advance_ns(300);
  EXPECT_EQ(pool.created(), 3u);
  EXPECT_EQ(pool.total_clock_us(), 0.6);
}

TEST(ConnectionPool, MoveTransfersOwnership) {
  Database db = seeded_db(1);
  kdb::ConnectionPool pool(db, ConnectionProfile::in_memory(), 1);
  auto a = pool.acquire();
  kdb::ConnectionPool::Lease b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): moved-from is empty
  EXPECT_TRUE(b);
  EXPECT_EQ(pool.idle(), 0u);
  b.release();
  EXPECT_EQ(pool.idle(), 1u);
}

TEST(ConnectionPool, ContentionBlocksAndEveryWorkerGetsASession) {
  // 8 workers over 2 sessions: the pool must serialize the excess, nobody
  // deadlocks, and every statement lands. Traffic is read-only — the engine
  // only permits concurrent SELECTs (the batch engine's access pattern);
  // writes would need one session or external serialization.
  Database db = seeded_db(50);
  kdb::ConnectionPool pool(db, ConnectionProfile::in_memory(), 2);

  constexpr int kWorkers = 8;
  constexpr int kRounds = 5;
  std::atomic<int> executed{0};
  std::vector<std::thread> workers;
  workers.reserve(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&pool, &executed] {
      for (int round = 0; round < kRounds; ++round) {
        auto lease = pool.acquire();
        if (lease->execute("SELECT COUNT(*) FROM t").scalar().as_int() == 50) {
          executed.fetch_add(1);
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();

  EXPECT_EQ(executed.load(), kWorkers * kRounds);
  EXPECT_LE(pool.created(), 2u);
  EXPECT_EQ(pool.idle(), pool.created());
  const auto stats = pool.stats();
  EXPECT_EQ(stats.acquires,
            static_cast<std::uint64_t>(kWorkers * kRounds));
  EXPECT_EQ(pool.statements_executed(),
            static_cast<std::uint64_t>(kWorkers * kRounds));
}

TEST(ConnectionPool, ConcurrentReadersOnDistinctSessions) {
  // Parallel read-only pushdown traffic: distinct sessions may query the
  // same database concurrently (this is the batch engine's access pattern;
  // the sanitizer job watches this test closely).
  Database db = seeded_db(200);
  kdb::ConnectionPool pool(db, ConnectionProfile::postgres(), 4);

  // Force all four sessions into existence with work on each (lazy LIFO
  // reuse means a fast sequential storm could otherwise be served by one
  // session, so the readers below might never share the database).
  {
    std::vector<kdb::ConnectionPool::Lease> held;
    for (int i = 0; i < 4; ++i) held.push_back(pool.acquire());
    for (auto& lease : held) lease->execute("SELECT COUNT(*) FROM t");
  }
  ASSERT_EQ(pool.created(), 4u);

  std::atomic<std::int64_t> total{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&pool, &total] {
      for (int i = 0; i < 20; ++i) {
        auto lease = pool.acquire();
        const auto result =
            lease->execute("SELECT COUNT(*) FROM t WHERE v >= 0");
        total.fetch_add(result.scalar().as_int());
      }
    });
  }
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(total.load(), 4 * 20 * 200);
  EXPECT_EQ(pool.clock_snapshot_us().size(), pool.created());
}

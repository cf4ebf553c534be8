// Online-monitoring differential: the ingest -> snapshot -> incremental
// re-evaluation loop must be invisible in every report. The shard-result
// cache serves clean partitions' `part<K>` CTE rows across epochs (pinned
// hit/miss/dirty counters prove only dirtied partitions recompute), epoch
// reports stay byte-identical to a cold full recompute at the same epoch
// across 1/2/8 scan threads, and a concurrent appender thread never tears a
// snapshot: every captured epoch replays quiesced to the identical report.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "asl/interp.hpp"
#include "asl/sema.hpp"
#include "cosy/eval_backend.hpp"
#include "cosy/db_import.hpp"
#include "cosy/monitor.hpp"
#include "cosy/schema_gen.hpp"
#include "cosy/shard_cache.hpp"
#include "db/connection.hpp"
#include "support/str.hpp"

namespace asl = kojak::asl;
namespace cosy = kojak::cosy;
namespace db = kojak::db;

namespace {

// Fleet world (as in cosy_partition_test.cpp): whole-set aggregates over a
// MEMBER-partitioned junction, where the whole-condition compiler's
// partition-union rewrite — and with it the shard-result cache — fires.
constexpr const char* kFleetSpec = R"(
  class Fleet {
    String Name;
    setof Probe Readings;
  }
  class Probe {
    int Slot;
    float T;
  }

  Property FleetLoad(Fleet f) {
    LET float Total = SUM(p.T WHERE p IN f.Readings);
    IN
    CONDITION: Total > 0;
    CONFIDENCE: 1;
    SEVERITY: Total;
  };

  Property FleetShape(Fleet f) {
    LET int N = COUNT(f.Readings);
        int Low = MIN(p.Slot WHERE p IN f.Readings);
        int High = MAX(p.Slot WHERE p IN f.Readings);
        float Mean = AVG(p.T WHERE p IN f.Readings);
    IN
    CONDITION: High >= Low;
    CONFIDENCE: 1;
    SEVERITY: Mean + N + High - Low;
  };

  Property FleetHot(Fleet f, int Cut) {
    LET int Hot = COUNT(p WHERE p IN f.Readings AND p.Slot >= Cut);
    IN
    CONDITION: EXISTS({p IN f.Readings WITH p.Slot >= Cut});
    CONFIDENCE: 1;
    SEVERITY: Hot;
  };
)";

struct FleetWorld {
  asl::Model model = asl::load_model({kFleetSpec});
  asl::ObjectStore store{model};
  std::vector<asl::ObjectId> fleets;

  FleetWorld(int fleet_count, int probes_per_fleet) {
    for (int f = 0; f < fleet_count; ++f) {
      const asl::ObjectId fleet = store.create("Fleet");
      store.set_attr(fleet, "Name",
                     asl::RtValue::of_string(kojak::support::cat("fleet", f)));
      fleets.push_back(fleet);
      // Last fleet stays empty: raised-on-first-data deltas need a context
      // that starts out not holding.
      const int probes = f == fleet_count - 1 ? 0 : probes_per_fleet;
      for (int i = 0; i < probes; ++i) {
        const asl::ObjectId probe = store.create("Probe");
        store.set_attr(probe, "Slot", asl::RtValue::of_int(i % 11));
        // Dyadic T: FP-exact in any accumulation order, so epoch reports
        // compare byte-for-byte across scan-thread counts and cache states.
        store.set_attr(probe, "T", asl::RtValue::of_float(
                                       static_cast<double>(f % 4) * 0.25 + 0.5));
        store.add_to_set(fleet, "Readings", probe);
      }
    }
  }

  void populate(db::Database& database, std::size_t partitions) const {
    cosy::SchemaOptions options;
    options.junction_partitions.push_back(
        {"Fleet", "Readings", "member", partitions});
    cosy::create_schema(database, model, options);
    db::Connection conn(database, db::ConnectionProfile::in_memory());
    cosy::import_store(conn, store);
  }

  /// First probe of fleet `f` (object ids are allocated fleet-then-probes).
  [[nodiscard]] asl::ObjectId first_probe(std::size_t f) const {
    return fleets.at(f) + 1;
  }

  void watch_all(cosy::Monitor& monitor) const {
    for (const asl::PropertyInfo& prop : model.properties()) {
      for (std::size_t f = 0; f < fleets.size(); ++f) {
        std::vector<asl::RtValue> args = {asl::RtValue::of_object(fleets[f])};
        if (prop.params.size() == 2) args.push_back(asl::RtValue::of_int(5));
        monitor.watch(prop, std::move(args),
                      kojak::support::cat("fleet", f));
      }
    }
  }
};

std::string render_result(const asl::PropertyResult& result) {
  char confidence[40];
  char severity[40];
  std::snprintf(confidence, sizeof confidence, "%a", result.confidence);
  std::snprintf(severity, sizeof severity, "%a", result.severity);
  return kojak::support::cat(static_cast<int>(result.status), "|",
                             result.matched_condition, "|", confidence, "|",
                             severity, "|", result.note, "\n");
}

std::string render_report(const cosy::EpochReport& report) {
  std::string out;
  for (const cosy::MonitorFinding& finding : report.findings) {
    out += kojak::support::cat(finding.property, "@", finding.context, "|",
                               render_result(finding.result));
  }
  return out;
}

const cosy::FindingDelta* find_delta(const cosy::EpochReport& report,
                                     cosy::DeltaKind kind,
                                     const std::string& property,
                                     const std::string& context) {
  for (const cosy::FindingDelta& delta : report.deltas) {
    if (delta.kind == kind && delta.property == property &&
        delta.context == context) {
      return &delta;
    }
  }
  return nullptr;
}

}  // namespace

// ---------------------------------------------------------------------------
// Shard-result cache: pinned per-partition accounting

TEST(ShardCache, OnlyDirtyPartitionsRecompute) {
  const FleetWorld world(4, 40);
  db::Database database;
  world.populate(database, 8);
  db::Connection conn(database, db::ConnectionProfile::in_memory());

  const asl::PropertyInfo* load = world.model.find_property("FleetLoad");
  ASSERT_NE(load, nullptr);
  const std::vector<asl::RtValue> args = {
      asl::RtValue::of_object(world.fleets[0])};

  cosy::ShardResultCache cache;
  cosy::EvalBackendDeps deps;
  deps.model = &world.model;
  deps.conn = &conn;
  deps.shard_cache = &cache;
  const std::unique_ptr<cosy::EvalBackend> backend =
      cosy::EvalBackend::create("sql-whole-condition", deps);

  // Cold pass: all 8 part<K> CTEs compute and enter the cache.
  const auto s0 = database.exec_stats();
  const asl::PropertyResult cold = backend->evaluate(*load, args);
  const auto s1 = database.exec_stats();
  EXPECT_EQ(s1.shard_cache_misses - s0.shard_cache_misses, 8u);
  EXPECT_EQ(s1.shard_cache_hits - s0.shard_cache_hits, 0u);
  EXPECT_EQ(s1.dirty_partitions_recomputed - s0.dirty_partitions_recomputed,
            0u);

  // Unchanged store: the whole-statement memo answers before any shard
  // probe runs — no hits, no misses, one memoized statement, byte-identical
  // result.
  const asl::PropertyResult warm = backend->evaluate(*load, args);
  const auto s2 = database.exec_stats();
  EXPECT_EQ(s2.shard_cache_hits - s1.shard_cache_hits, 0u);
  EXPECT_EQ(s2.shard_cache_misses - s1.shard_cache_misses, 0u);
  EXPECT_EQ(s2.statements_memoized - s1.statements_memoized, 1u);
  EXPECT_EQ(render_result(warm), render_result(cold));

  // Dirty exactly one partition: one new link from fleet0 to an existing
  // probe (the junction partitions by member, so the row lands in — and
  // bumps — route(member)'s partition only; Probe itself stays untouched).
  const asl::ObjectId member = world.first_probe(0);
  conn.execute("INSERT INTO Fleet_Readings VALUES (?, ?)",
               std::vector<db::Value>{
                   db::Value::integer(static_cast<std::int64_t>(world.fleets[0])),
                   db::Value::integer(static_cast<std::int64_t>(member))});

  const asl::PropertyResult dirty = backend->evaluate(*load, args);
  const auto s3 = database.exec_stats();
  EXPECT_EQ(s3.shard_cache_hits - s2.shard_cache_hits, 7u);
  EXPECT_EQ(s3.shard_cache_misses - s2.shard_cache_misses, 1u);
  EXPECT_EQ(s3.dirty_partitions_recomputed - s2.dirty_partitions_recomputed,
            1u);
  // The recompute saw the new row: fleet0's SUM grew by probe T = 0.5
  // exactly (dyadic), and matches a cache-free evaluation byte for byte.
  EXPECT_EQ(dirty.severity, cold.severity + 0.5);
  cosy::EvalBackendDeps cold_deps = deps;
  cold_deps.shard_cache = nullptr;
  const std::unique_ptr<cosy::EvalBackend> reference =
      cosy::EvalBackend::create("sql-whole-condition", cold_deps);
  EXPECT_EQ(render_result(dirty), render_result(reference->evaluate(*load, args)));
}

// ---------------------------------------------------------------------------
// Monitor: epoch deltas

TEST(Monitor, ReportsRaisedClearedAndSeverityChangedDeltas) {
  const FleetWorld world(4, 24);
  db::Database database;
  world.populate(database, 8);
  db::Connection conn(database, db::ConnectionProfile::in_memory());
  cosy::Monitor monitor(world.model, conn);
  world.watch_all(monitor);
  ASSERT_EQ(monitor.watch_count(), 12u);

  // Pass 1: every holding context is a raised delta; fleet3 is empty so
  // nothing holds there.
  const cosy::EpochReport first = monitor.evaluate();
  EXPECT_EQ(first.pass, 1u);
  EXPECT_EQ(first.rows_ingested, 0u);
  EXPECT_FALSE(first.findings.empty());
  EXPECT_EQ(first.deltas.size(), first.findings.size());
  for (const cosy::FindingDelta& delta : first.deltas) {
    EXPECT_EQ(delta.kind, cosy::DeltaKind::kRaised);
  }
  EXPECT_EQ(find_delta(first, cosy::DeltaKind::kRaised, "FleetLoad", "fleet3"),
            nullptr);

  // Ingest: fleet3 receives its first samples (links to existing probes of
  // fleet0 — Slot 0 and 1, so FleetHot's Cut=5 stays unmet) and fleet0
  // re-reads one probe (severity moves, verdict does not).
  cosy::IngestBatch batch;
  const auto fleet = [&](std::size_t f) {
    return db::Value::integer(static_cast<std::int64_t>(world.fleets[f]));
  };
  const auto probe = [&](std::size_t f) {
    return db::Value::integer(static_cast<std::int64_t>(world.first_probe(f)));
  };
  batch.add("Fleet_Readings", {fleet(3), probe(0)});
  batch.add("Fleet_Readings",
            {fleet(3), db::Value::integer(
                           static_cast<std::int64_t>(world.first_probe(0) + 1))});
  batch.add("Fleet_Readings", {fleet(0), probe(0)});
  EXPECT_EQ(monitor.ingest(batch), 3u);

  const cosy::EpochReport second = monitor.evaluate();
  EXPECT_EQ(second.pass, 2u);
  EXPECT_EQ(second.rows_ingested, 3u);
  EXPECT_GT(second.epoch, first.epoch);
  EXPECT_NE(find_delta(second, cosy::DeltaKind::kRaised, "FleetLoad", "fleet3"),
            nullptr);
  EXPECT_NE(
      find_delta(second, cosy::DeltaKind::kRaised, "FleetShape", "fleet3"),
      nullptr);
  EXPECT_EQ(find_delta(second, cosy::DeltaKind::kRaised, "FleetHot", "fleet3"),
            nullptr);
  const cosy::FindingDelta* moved =
      find_delta(second, cosy::DeltaKind::kSeverityChanged, "FleetLoad",
                 "fleet0");
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(moved->severity_after, moved->severity_before + 0.5);
  // Untouched fleets report no delta at all.
  EXPECT_EQ(find_delta(second, cosy::DeltaKind::kSeverityChanged, "FleetLoad",
                       "fleet1"),
            nullptr);

  // Fleet3 drains again (a delete outside the monitor still advances the
  // store epoch): its raised findings clear on the next pass.
  conn.execute("DELETE FROM Fleet_Readings WHERE owner = ?",
               std::vector<db::Value>{fleet(3)});
  const cosy::EpochReport third = monitor.evaluate();
  EXPECT_GT(third.epoch, second.epoch);
  EXPECT_EQ(third.rows_ingested, 0u);
  EXPECT_NE(find_delta(third, cosy::DeltaKind::kCleared, "FleetLoad", "fleet3"),
            nullptr);
  EXPECT_NE(
      find_delta(third, cosy::DeltaKind::kCleared, "FleetShape", "fleet3"),
      nullptr);
  // The summary renders every delta kind it reports.
  const std::string summary = third.to_summary();
  EXPECT_NE(summary.find("cleared"), std::string::npos);
  EXPECT_NE(summary.find("FleetLoad @ fleet3"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Incremental == cold full recompute, across scan-thread counts

TEST(Monitor, IncrementalReportByteIdenticalToColdRecompute) {
  const FleetWorld world(4, 40);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    db::Database database;
    world.populate(database, 8);
    if (threads > 1) {
      database.set_scan_config({.threads = threads, .min_parallel_rows = 1});
    }
    db::Connection conn(database, db::ConnectionProfile::in_memory());

    cosy::Monitor incremental(world.model, conn);
    world.watch_all(incremental);
    (void)incremental.evaluate();  // warm the shard cache

    cosy::IngestBatch batch;
    batch.add("Fleet_Readings",
              {db::Value::integer(static_cast<std::int64_t>(world.fleets[1])),
               db::Value::integer(
                   static_cast<std::int64_t>(world.first_probe(1)))});
    incremental.ingest(batch);
    const cosy::EpochReport warm = incremental.evaluate();
    // The pass really was incremental: most partitions served from cache,
    // at least the dirtied one recomputed.
    EXPECT_GE(warm.dirty_partitions_recomputed, 1u) << threads << " threads";
    EXPECT_GT(warm.shard_cache_hits, warm.shard_cache_misses)
        << threads << " threads";

    // A second monitor with a cold cache recomputes everything at the same
    // epoch — the reports must match byte for byte.
    cosy::Monitor cold(world.model, conn);
    world.watch_all(cold);
    const cosy::EpochReport full = cold.evaluate();
    EXPECT_EQ(full.epoch, warm.epoch) << threads << " threads";
    EXPECT_EQ(render_report(warm), render_report(full))
        << threads << " threads";
  }
}

// ---------------------------------------------------------------------------
// Snapshot isolation: a concurrent appender never tears an epoch

TEST(Monitor, ConcurrentIngestSnapshotsReplayQuiesced) {
  const FleetWorld world(4, 24);
  db::Database database;
  world.populate(database, 8);
  db::Connection conn(database, db::ConnectionProfile::in_memory());
  cosy::Monitor monitor(world.model, conn);
  world.watch_all(monitor);

  // Pre-build the ingest schedule: each batch links existing probes to a
  // rotating fleet. Whole batches land under one write gate, so the only
  // legal epochs are the ladder below.
  constexpr std::size_t kBatches = 12;
  constexpr std::size_t kRowsPerBatch = 8;
  std::vector<cosy::IngestBatch> batches(kBatches);
  for (std::size_t b = 0; b < kBatches; ++b) {
    for (std::size_t r = 0; r < kRowsPerBatch; ++r) {
      batches[b].add(
          "Fleet_Readings",
          {db::Value::integer(static_cast<std::int64_t>(world.fleets[b % 4])),
           db::Value::integer(static_cast<std::int64_t>(
               world.first_probe(0) + (b * kRowsPerBatch + r) % 23))});
    }
  }
  std::vector<std::uint64_t> ladder = {database.store_epoch()};
  for (const cosy::IngestBatch& batch : batches) {
    ladder.push_back(ladder.back() + batch.rows());
  }

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (const cosy::IngestBatch& batch : batches) monitor.ingest(batch);
    done.store(true);
  });
  std::vector<cosy::EpochReport> captured;
  while (!done.load()) captured.push_back(monitor.evaluate());
  writer.join();
  captured.push_back(monitor.evaluate());  // final, quiesced

  ASSERT_EQ(captured.back().epoch, ladder.back());
  std::vector<std::uint64_t> replayed;
  for (const cosy::EpochReport& report : captured) {
    // Batch atomicity: a snapshot can only land on the ladder, never in the
    // middle of a batch.
    const auto rung = std::find(ladder.begin(), ladder.end(), report.epoch);
    ASSERT_NE(rung, ladder.end()) << "epoch " << report.epoch;
    if (std::find(replayed.begin(), replayed.end(), report.epoch) !=
        replayed.end()) {
      continue;
    }
    replayed.push_back(report.epoch);

    // Replay the same prefix of batches quiesced on a fresh store; the
    // captured mid-flight incremental report must match byte for byte.
    const std::size_t applied =
        static_cast<std::size_t>(rung - ladder.begin());
    db::Database quiesced_db;
    world.populate(quiesced_db, 8);
    db::Connection quiesced_conn(quiesced_db,
                                 db::ConnectionProfile::in_memory());
    cosy::Monitor quiesced(world.model, quiesced_conn);
    world.watch_all(quiesced);
    for (std::size_t b = 0; b < applied; ++b) quiesced.ingest(batches[b]);
    const cosy::EpochReport reference = quiesced.evaluate();
    ASSERT_EQ(reference.epoch, report.epoch);
    EXPECT_EQ(render_report(report), render_report(reference))
        << "epoch " << report.epoch;
  }
}

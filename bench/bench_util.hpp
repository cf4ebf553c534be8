#ifndef KOJAK_BENCH_BENCH_UTIL_HPP
#define KOJAK_BENCH_BENCH_UTIL_HPP

// Shared fixtures for the experiment benches. Each bench binary reproduces
// one table/figure/claim of the paper (see DESIGN.md experiment index) and
// prints a human-readable table next to the google-benchmark timings;
// EXPERIMENTS.md quotes those tables.

#include <memory>
#include <vector>

#include "cosy/analyzer.hpp"
#include "cosy/db_import.hpp"
#include "cosy/schema_gen.hpp"
#include "cosy/specs.hpp"
#include "cosy/store_builder.hpp"
#include "db/connection_pool.hpp"
#include "perf/report_io.hpp"
#include "perf/simulator.hpp"
#include "perf/workloads.hpp"

namespace kojak::bench {

/// One fully-populated COSY world (model + store + handles), built once and
/// shared across benchmark iterations.
struct World {
  asl::Model model;
  std::unique_ptr<asl::ObjectStore> store;
  cosy::StoreHandles handles;
  perf::ExperimentData data;

  World(const perf::AppSpec& app, const std::vector<int>& pes,
        std::uint64_t seed = 1)
      : model(cosy::load_cosy_model()) {
    perf::SimulationOptions options;
    options.seed = seed;
    data = perf::simulate_experiment(app, pes, options);
    store = std::make_unique<asl::ObjectStore>(model);
    handles = cosy::build_store(*store, data);
  }

  /// Creates a database with the generated schema and imports the store.
  [[nodiscard]] std::unique_ptr<db::Database> make_database() const {
    auto database = std::make_unique<db::Database>();
    cosy::create_schema(*database, model);
    db::Connection conn(*database, db::ConnectionProfile::in_memory());
    cosy::import_store(conn, *store);
    return database;
  }
};

/// Opens every session of `pool` by holding all of its leases at once.
/// Call it before reading a pooled run's clocks: each session's connect
/// cost is then charged before the clock is read, as it is for a single
/// connection constructed before its run.
inline void connect_all(db::ConnectionPool& pool) {
  std::vector<db::ConnectionPool::Lease> leases;
  leases.reserve(pool.capacity());
  for (std::size_t i = 0; i < pool.capacity(); ++i) {
    leases.push_back(pool.acquire());
  }
}

}  // namespace kojak::bench

#endif  // KOJAK_BENCH_BENCH_UTIL_HPP

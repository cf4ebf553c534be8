#ifndef COSYBENCH_WORKLOADS_HPP
#define COSYBENCH_WORKLOADS_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"

namespace cosybench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  /// Self-test sizes: every workload shrinks to a few hundred rows.
  bool tiny = false;
  /// > 0: run exactly this many ops instead of measuring for `seconds`.
  std::size_t ops = 0;
};

/// What one op reports back to the loop. `ms` covers only the timed region;
/// the correctness gate runs after it.
struct OpOutcome {
  double ms = 0.0;
  double items = 0.0;  ///< contexts evaluated, or base rows covered
  bool ok = true;
  std::string error;
  /// Deterministic per-op counts (single client): the self-test requires
  /// two runs of one seed to repeat them exactly.
  std::map<std::string, double> counts;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Everything `setup_s` covers: spec load, simulate, store, schema,
  /// import, the reference pass and the first full (warm-up) pass.
  virtual void setup(Tracer& tracer) = 0;
  virtual OpOutcome op(std::size_t index, Tracer& tracer) = 0;
  /// Traced run only, after the op loop: probe passes and this workload's
  /// per-layer metrics (the driver adds the ones every workload shares).
  /// Returns false when a probe's own correctness check failed.
  virtual bool layer_metrics(Metrics& out, Tracer& tracer,
                             const std::vector<OpOutcome>& ops) = 0;
  /// Digest of every generated input (program, rotation, ingest rows,
  /// query parameters).
  [[nodiscard]] virtual std::string input_digest() const = 0;

  /// Warm-up ops in set-up that failed the correctness gate.
  std::size_t warmup_failures = 0;
  /// Rows the measured store's import inserted (cosy.import_rows_per_s).
  std::size_t import_rows = 0;
};

[[nodiscard]] std::vector<std::string> workload_names();
/// Throws std::invalid_argument for unknown names.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const Options& options);

}  // namespace cosybench

#endif  // COSYBENCH_WORKLOADS_HPP

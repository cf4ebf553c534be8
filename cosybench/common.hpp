#ifndef COSYBENCH_COMMON_HPP
#define COSYBENCH_COMMON_HPP

// Shared pieces of the cosybench driver: seeded inputs, the span tracer,
// sample statistics and the metric sink every workload reports into.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "asl/interp.hpp"
#include "cosy/analyzer.hpp"
#include "db/database.hpp"
#include "perf/app_model.hpp"

namespace cosybench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// --- seeded inputs -----------------------------------------------------------

/// splitmix64: derives independent, reproducible sub-seeds from the run
/// seed (one per input family, so adding a draw to one family leaves the
/// others unchanged).
[[nodiscard]] std::uint64_t mix(std::uint64_t seed, std::uint64_t stream);

/// FNV-1a accumulator for the input digest.
class Digest {
 public:
  void add(std::string_view bytes);
  void add(double value);
  void add(std::uint64_t value);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

/// A synthetic SPMD program of `functions` kernels x `leaves` leaf regions
/// whose per-leaf costs come from `seed`: work, imbalance and noise are
/// drawn per leaf; the message, collective, I/O and barrier mix is a seeded
/// permutation over fixed shares, so table sizes do not move with the seed
/// while every value does. (perf::workloads::synthetic_scale carries no
/// noise and no seed, so two seeds would give byte-identical findings.)
[[nodiscard]] kojak::perf::AppSpec seeded_program(std::size_t functions,
                                                  std::size_t leaves,
                                                  std::uint64_t seed);

/// Adds every cost parameter of `app` to `digest`.
void digest_program(const kojak::perf::AppSpec& app, Digest& digest);

// --- tracing -----------------------------------------------------------------

/// Spans recorded in the benchmark's own code around each public call into
/// a layer. Kept in memory, written as JSON at exit. Disabled tracers record
/// nothing (the untraced runs that produce the end-to-end numbers).
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string layer;
    double start_ms = 0.0;
    double end_ms = 0.0;
    int parent = -1;        ///< index into spans(), -1 for a root
    std::int64_t op = -1;   ///< -1 for set-up spans
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_ && active_; }
  /// Traced runs alternate traced and untraced ops to price the tracing.
  void set_active(bool active) noexcept { active_ = active; }
  void set_op(std::int64_t op) noexcept { op_ = op; }

  int open(std::string name, std::string layer);
  void close(int index);

  /// Self time (duration minus direct children) summed per layer, over the
  /// spans of ops (op >= 0) only.
  [[nodiscard]] std::map<std::string, double> op_self_ms_by_layer() const;
  /// Durations of the spans named `name`, in recording order.
  [[nodiscard]] std::vector<double> durations(std::string_view name) const;

  void write_json(const std::string& path) const;

 private:
  bool enabled_;
  bool active_ = true;
  Clock::time_point origin_;
  std::int64_t op_ = -1;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a no-op when the tracer is off.
class Scoped {
 public:
  Scoped(Tracer& tracer, std::string name, std::string layer)
      : tracer_(tracer),
        index_(tracer.enabled() ? tracer.open(std::move(name), std::move(layer))
                                : -1) {}
  ~Scoped() {
    if (index_ >= 0) tracer_.close(index_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

// --- statistics and metrics --------------------------------------------------

/// Linear-interpolation quantile (q in [0, 1]) of unsorted samples; 0 for
/// an empty sample.
[[nodiscard]] double quantile(std::vector<double> samples, double q);
[[nodiscard]] double median(std::vector<double> samples);

/// Per-op deltas of every Database::exec_stats() counter, by metric name
/// ("db.<counter>").
[[nodiscard]] std::map<std::string, double> exec_delta(
    const kojak::db::Database::ExecStatsSnapshot& before,
    const kojak::db::Database::ExecStatsSnapshot& after);

/// Peak resident set size (VmHWM) of this process in MB.
[[nodiscard]] double peak_rss_mb();

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Bit-exact rendering of one evaluated (property, context): the fields the
/// correctness gate compares.
[[nodiscard]] std::string render_result(
    std::string_view property, std::string_view context,
    const kojak::asl::PropertyResult& result);
/// The ranked findings plus the not-applicable list of a report.
[[nodiscard]] std::string render_report(const kojak::cosy::AnalysisReport& r);

}  // namespace cosybench

#endif  // COSYBENCH_COMMON_HPP

#include "common.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <stdexcept>

#include "support/rng.hpp"
#include "support/str.hpp"

namespace cosybench {

namespace kp = kojak::perf;

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void Digest::add(std::string_view bytes) {
  for (const char c : bytes) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 1099511628211ULL;
  }
  add(static_cast<std::uint64_t>(bytes.size()));
}

void Digest::add(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%a", value);
  add(std::string_view(buffer));
}

void Digest::add(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (value >> (8 * i)) & 0xFFU;
    hash_ *= 1099511628211ULL;
  }
}

std::string Digest::hex() const {
  char buffer[20];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(hash_));
  return buffer;
}

namespace {

/// Leaf indices [0, n) in seeded order; the first round(n * share) of them
/// get a feature, so feature counts are fixed while their placement moves.
std::vector<bool> seeded_share(std::size_t n, double share,
                               kojak::support::Rng& rng) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);
  std::vector<bool> picked(n, false);
  const auto count =
      static_cast<std::size_t>(static_cast<double>(n) * share + 0.5);
  for (std::size_t i = 0; i < count && i < n; ++i) picked[order[i]] = true;
  return picked;
}

kp::RegionSpec function_body(const std::string& name) {
  kp::RegionSpec body;
  body.name = name;
  body.kind = kp::RegionKind::kFunction;
  return body;
}

}  // namespace

kp::AppSpec seeded_program(std::size_t functions, std::size_t leaves,
                           std::uint64_t seed) {
  kojak::support::Rng rng(mix(seed, /*stream=*/1));  // program stream
  const std::size_t n = functions * leaves;
  const std::vector<bool> messages = seeded_share(n, 0.25, rng);
  const std::vector<bool> collectives = seeded_share(n, 0.15, rng);
  const std::vector<bool> barriers = seeded_share(n, 0.20, rng);
  const std::vector<bool> io = seeded_share(n, 0.10, rng);

  kp::AppSpec app;
  app.name = kojak::support::cat("cosybench_", functions, "x", leaves);
  kp::FunctionSpec main_fn;
  main_fn.name = "main";
  main_fn.body = function_body("main");
  for (std::size_t f = 0; f < functions; ++f) {
    const std::string fn_name = kojak::support::cat("kernel_", f);
    kp::FunctionSpec fn;
    fn.name = fn_name;
    fn.body = function_body(fn_name);
    kp::RegionSpec loop;
    loop.name = fn_name + ".loop";
    loop.kind = kp::RegionKind::kLoop;
    for (std::size_t r = 0; r < leaves; ++r) {
      const std::size_t i = f * leaves + r;
      kp::RegionSpec leaf;
      leaf.name = kojak::support::cat(fn_name, ".loop.block_", r);
      leaf.kind = kp::RegionKind::kBasicBlock;
      leaf.work_ms = rng.uniform(2.0, 13.0);
      leaf.serial_ms = rng.uniform(0.0, 0.4);
      leaf.imbalance = rng.uniform(0.0, 0.35);
      leaf.noise = rng.uniform(0.0, 0.06);
      if (messages[i]) {
        leaf.msgs_per_pe = static_cast<double>(rng.uniform_int(1, 6));
        leaf.bytes_per_msg = rng.chance(0.5) ? 256.0 : 16384.0;
      }
      if (collectives[i]) {
        leaf.reductions_per_pe = static_cast<double>(rng.uniform_int(1, 3));
        leaf.broadcasts_per_pe = static_cast<double>(rng.uniform_int(0, 2));
      }
      if (barriers[i]) leaf.barrier_count = 1;
      if (io[i]) {
        leaf.io_read_mb = rng.uniform(0.5, 4.0);
        leaf.io_write_mb = rng.uniform(0.5, 4.0);
        leaf.io_serialized = rng.chance(0.5);
      }
      loop.children.push_back(std::move(leaf));
    }
    fn.body.children.push_back(std::move(loop));
    app.functions.push_back(std::move(fn));

    kp::RegionSpec call;
    call.name = kojak::support::cat("main.call_", f);
    call.kind = kp::RegionKind::kCall;
    call.callee = fn_name;
    call.calls_per_pe = static_cast<double>(rng.uniform_int(1, 3));
    main_fn.body.children.push_back(std::move(call));
  }
  app.functions.insert(app.functions.begin(), std::move(main_fn));
  kp::validate(app);
  return app;
}

void digest_program(const kp::AppSpec& app, Digest& digest) {
  const auto visit = [&](const auto& self, const kp::RegionSpec& r) -> void {
    digest.add(r.name);
    for (const double v :
         {r.work_ms, r.serial_ms, r.imbalance, r.noise, r.msgs_per_pe,
          r.bytes_per_msg, r.reductions_per_pe, r.broadcasts_per_pe,
          r.io_read_mb, r.io_write_mb, r.calls_per_pe,
          static_cast<double>(r.barrier_count),
          static_cast<double>(r.io_serialized)}) {
      digest.add(v);
    }
    for (const kp::RegionSpec& child : r.children) self(self, child);
  };
  for (const kp::FunctionSpec& fn : app.functions) visit(visit, fn.body);
}

// --- Tracer ------------------------------------------------------------------

int Tracer::open(std::string name, std::string layer) {
  Span span;
  span.name = std::move(name);
  span.layer = std::move(layer);
  span.start_ms = ms_since(origin_);
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.op = op_;
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ms = ms_since(origin_);
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

std::map<std::string, double> Tracer::op_self_ms_by_layer() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ms[static_cast<std::size_t>(span.parent)] +=
          span.end_ms - span.start_ms;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].op < 0) continue;
    self[spans_[i].layer] +=
        spans_[i].end_ms - spans_[i].start_ms - child_ms[i];
  }
  return self;
}

std::vector<double> Tracer::durations(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.end_ms - span.start_ms);
  }
  return out;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char times[96];
    std::snprintf(times, sizeof times, "\"start_ms\": %.6f, \"end_ms\": %.6f",
                  s.start_ms, s.end_ms);
    out << "  {\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"layer\": \"" << s.layer << "\", " << times
        << ", \"parent\": " << s.parent << ", \"op\": " << s.op << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

// --- statistics --------------------------------------------------------------

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

std::map<std::string, double> exec_delta(
    const kojak::db::Database::ExecStatsSnapshot& b,
    const kojak::db::Database::ExecStatsSnapshot& a) {
  std::map<std::string, double> d;
#define COSYBENCH_DELTA(field) \
  d["db." #field] = static_cast<double>(a.field - b.field)
  COSYBENCH_DELTA(subquery_executions);
  COSYBENCH_DELTA(subquery_memo_hits);
  COSYBENCH_DELTA(cte_materializations);
  COSYBENCH_DELTA(cte_parallel_materializations);
  COSYBENCH_DELTA(partition_scans);
  COSYBENCH_DELTA(partitions_pruned);
  COSYBENCH_DELTA(parallel_scan_batches);
  COSYBENCH_DELTA(partition_union_rewrites);
  COSYBENCH_DELTA(shard_cache_hits);
  COSYBENCH_DELTA(shard_cache_misses);
  COSYBENCH_DELTA(dirty_partitions_recomputed);
  COSYBENCH_DELTA(statements_memoized);
  COSYBENCH_DELTA(columnar_scans);
  COSYBENCH_DELTA(vectorized_batches);
  COSYBENCH_DELTA(rows_skipped_by_bitmap);
  COSYBENCH_DELTA(fused_plan_evals);
  COSYBENCH_DELTA(grouped_vector_evals);
  COSYBENCH_DELTA(groups_built);
  COSYBENCH_DELTA(hash_join_builds);
  COSYBENCH_DELTA(join_lanes_probed);
  COSYBENCH_DELTA(expr_programs_compiled);
  COSYBENCH_DELTA(expr_program_evals);
  COSYBENCH_DELTA(expr_vm_batches);
  COSYBENCH_DELTA(expr_vm_lanes);
#undef COSYBENCH_DELTA
  return d;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

std::string render_result(std::string_view property, std::string_view context,
                          const kojak::asl::PropertyResult& result) {
  char values[96];
  std::snprintf(values, sizeof values, "%d %a %a",
                static_cast<int>(result.status), result.confidence,
                result.severity);
  return kojak::support::cat(property, " @ ", context, " | ", values, "\n");
}

std::string render_report(const kojak::cosy::AnalysisReport& report) {
  std::string out = "findings\n";
  for (const kojak::cosy::Finding& f : report.findings) {
    out += render_result(f.property, f.context, f.result);
  }
  out += "not applicable\n";
  for (const kojak::cosy::Finding& f : report.not_applicable) {
    out += render_result(f.property, f.context, f.result);
  }
  return out;
}

}  // namespace cosybench

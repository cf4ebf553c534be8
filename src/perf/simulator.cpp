#include "perf/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "support/error.hpp"
#include "support/str.hpp"

namespace kojak::perf {

using support::EvalError;

namespace {

// --- hash-derived noise ------------------------------------------------------
// Every stochastic quantity is a pure function of (seed, region, pe, draw),
// so results are independent of evaluation order and thread scheduling.

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

double unit_uniform(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;  // [0,1)
}

/// Standard normal via Box-Muller from two derived uniforms.
double unit_normal(std::uint64_t seed, std::uint64_t region,
                   std::uint64_t pe, std::uint64_t draw) {
  const std::uint64_t base = mix64(seed ^ mix64(region * 0x9E3779B97F4A7C15ULL) ^
                                   mix64(pe * 0xC2B2AE3D27D4EB4FULL) ^
                                   mix64(draw * 0x165667B19E3779F9ULL));
  double u1 = unit_uniform(base);
  const double u2 = unit_uniform(mix64(base));
  if (u1 < 1e-300) u1 = 1e-300;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

/// Linear imbalance ramp: PE p's share factor in [1-imb, 1+imb], mean 1.
double ramp(int pe, int nope, double imbalance) {
  if (nope <= 1) return 1.0;
  const double x = (2.0 * (static_cast<double>(pe) + 0.5) /
                    static_cast<double>(nope)) - 1.0;
  return 1.0 + imbalance * x;
}

struct RegionAcc {
  double excl_sum = 0.0;
  double ovhd_sum = 0.0;
  double incl_sum = 0.0;
  std::array<double, kTimingTypeCount> typed{};
};

class RunSimulator {
 public:
  RunSimulator(const AppSpec& app, const ProgramStructure& structure, int nope,
               const SimulationOptions& options)
      : app_(app), nope_(nope), options_(options) {
    std::size_t index = 0;
    for (const StaticFunction& fn : structure.functions) {
      for (const StaticRegion& region : fn.regions) {
        region_index_[region.name] = index++;
      }
    }
    region_acc_.resize(index);
    call_counts_.resize(structure.call_sites.size(),
                        std::vector<double>(static_cast<std::size_t>(nope), 0.0));
    call_time_.resize(structure.call_sites.size(),
                      std::vector<double>(static_cast<std::size_t>(nope), 0.0));
    for (std::size_t s = 0; s < structure.call_sites.size(); ++s) {
      const CallSite& site = structure.call_sites[s];
      site_index_[support::cat(site.caller, "\x1f", site.calling_region, "\x1f",
                               site.callee)] = s;
    }
  }

  RunResult run() {
    const FunctionSpec* main_fn = app_.find_function(app_.main_function);
    (void)simulate_function(*main_fn);

    RunResult result;
    result.nope = nope_;
    result.clockspeed_mhz = app_.machine.clockspeed_mhz;
    result.start_time = options_.start_time;
    for (const auto& [name, index] : region_index_) {
      const RegionAcc& acc = region_acc_[index];
      if (acc.incl_sum == 0.0 && acc.excl_sum == 0.0) continue;  // never ran
      RegionTiming timing;
      timing.region = name;
      timing.excl_ms = acc.excl_sum;
      timing.incl_ms = acc.incl_sum;
      timing.ovhd_ms = acc.ovhd_sum;
      for (std::size_t t = 0; t < kTimingTypeCount; ++t) {
        if (acc.typed[t] > 0.0) {
          timing.typed_ms.emplace_back(static_cast<TimingType>(t), acc.typed[t]);
        }
      }
      result.regions.push_back(std::move(timing));
    }
    for (std::size_t s = 0; s < call_counts_.size(); ++s) {
      CallSiteTiming timing;
      timing.site_index = s;
      timing.calls = PeStats::from(call_counts_[s]);
      timing.time_ms = PeStats::from(call_time_[s]);
      result.calls.push_back(timing);
    }
    return result;
  }

 private:
  [[nodiscard]] std::size_t region_id(const std::string& name) const {
    return region_index_.at(name);
  }

  /// Per-PE inclusive time and inclusive overhead of a region execution.
  struct PerPe {
    std::vector<double> incl;
    std::vector<double> ovhd;
  };

  PerPe simulate_function(const FunctionSpec& fn) {
    return simulate_region(fn.body, fn.name);
  }

  /// Simulates one region for every PE; returns per-PE inclusive times and
  /// accumulates the run summaries. Overhead is *inclusive* (own typed
  /// overheads plus children's), so MeasuredCost at the program region
  /// captures everything Apprentice measured below it — the paper's
  /// "total costs can be split up into measured and unmeasured costs".
  PerPe simulate_region(const RegionSpec& spec, const std::string& owner_fn) {
    const std::size_t rid = region_id(spec.name);
    const std::size_t P = static_cast<std::size_t>(nope_);
    const MachineSpec& m = app_.machine;

    std::vector<double> excl(P, 0.0);
    std::vector<double> ovhd_nonbarrier(P, 0.0);
    // Every lane is sized before the per-PE loop, so PEs running on pool
    // workers only ever add to their own slot.
    std::array<std::vector<double>, kTimingTypeCount> typed;
    for (std::vector<double>& lane : typed) lane.assign(P, 0.0);
    const auto charge = [&](TimingType type, std::size_t pe, double ms) {
      typed[static_cast<std::size_t>(type)][pe] += ms;
      ovhd_nonbarrier[pe] += ms;
    };

    const auto per_pe_body = [&](std::size_t pe, std::size_t) {
      const int p = static_cast<int>(pe);
      // Computation: parallel share with imbalance ramp + serial replication.
      double compute = (spec.work_ms / static_cast<double>(nope_)) *
                           ramp(p, nope_, spec.imbalance) +
                       spec.serial_ms;
      if (spec.noise > 0.0) {
        compute *= std::max(0.0, 1.0 + spec.noise *
                                     unit_normal(options_.seed, rid, pe, 0));
      }
      excl[pe] = compute;

      // Point-to-point messages.
      if (spec.msgs_per_pe > 0.0) {
        const double per_msg_ms = m.msg_latency_us / 1000.0 +
                                  spec.bytes_per_msg /
                                      (m.bandwidth_mb_per_s * 1000.0);
        const double total = spec.msgs_per_pe * per_msg_ms;
        charge(TimingType::kSendMsg, pe, 0.50 * total);
        charge(TimingType::kRecvMsg, pe, 0.35 * total);
        charge(TimingType::kMsgWait, pe, 0.09 * total);
        charge(TimingType::kMsgPack, pe, 0.03 * total);
        charge(TimingType::kMsgUnpack, pe, 0.03 * total);
      }
      // Collectives: log2(P) stages.
      const double stages = nope_ > 1 ? std::ceil(std::log2(nope_)) : 0.0;
      if (spec.reductions_per_pe > 0.0 && stages > 0.0) {
        charge(TimingType::kReduceMsg, pe,
               spec.reductions_per_pe * stages * m.collective_hop_us / 1000.0);
      }
      if (spec.broadcasts_per_pe > 0.0 && stages > 0.0) {
        charge(TimingType::kBroadcastMsg, pe,
               spec.broadcasts_per_pe * stages * m.collective_hop_us / 1000.0);
      }
      // I/O.
      const double io_total_ms = spec.io_read_mb / m.io_read_mb_per_s * 1000.0 +
                                 spec.io_write_mb / m.io_write_mb_per_s * 1000.0;
      if (io_total_ms > 0.0) {
        if (spec.io_serialized) {
          if (pe == 0) {
            if (spec.io_read_mb > 0.0) {
              charge(TimingType::kIORead, pe,
                     spec.io_read_mb / m.io_read_mb_per_s * 1000.0);
            }
            if (spec.io_write_mb > 0.0) {
              charge(TimingType::kIOWrite, pe,
                     spec.io_write_mb / m.io_write_mb_per_s * 1000.0);
            }
            charge(TimingType::kIOOpen, pe, 0.05);
            charge(TimingType::kIOClose, pe, 0.04);
            charge(TimingType::kIOSeek, pe, 0.02);
          } else {
            charge(TimingType::kIdleWait, pe, io_total_ms + 0.11);
          }
        } else {
          if (spec.io_read_mb > 0.0) {
            charge(TimingType::kIORead, pe,
                   spec.io_read_mb / m.io_read_mb_per_s * 1000.0 /
                       static_cast<double>(nope_));
          }
          if (spec.io_write_mb > 0.0) {
            charge(TimingType::kIOWrite, pe,
                   spec.io_write_mb / m.io_write_mb_per_s * 1000.0 /
                       static_cast<double>(nope_));
          }
          charge(TimingType::kIOOpen, pe, 0.05);
          charge(TimingType::kIOClose, pe, 0.04);
        }
      }
      // Instrumentation + memory-system texture.
      charge(TimingType::kInstrumentation, pe,
             m.instr_overhead_us_per_region / 1000.0);
      if (compute > 0.0) {
        charge(TimingType::kCacheMiss, pe, 0.015 * compute);
        charge(TimingType::kPageFault, pe, 0.0005 * compute);
      }
    };

    if (options_.pool != nullptr && nope_ >= 16) {
      options_.pool->parallel_for(P, 0, per_pe_body);
    } else {
      for (std::size_t pe = 0; pe < P; ++pe) per_pe_body(pe, 0);
    }

    // Children run inside the region, before its trailing barrier.
    std::vector<double> children_incl(P, 0.0);
    std::vector<double> children_ovhd(P, 0.0);
    for (const RegionSpec& child : spec.children) {
      const PerPe child_result = simulate_region(child, owner_fn);
      for (std::size_t pe = 0; pe < P; ++pe) {
        children_incl[pe] += child_result.incl[pe];
        children_ovhd[pe] += child_result.ovhd[pe];
      }
    }

    // Call region: execute the callee inline; record the call site.
    if (spec.kind == RegionKind::kCall) {
      const FunctionSpec* callee = app_.find_function(spec.callee);
      const PerPe callee_result = simulate_function(*callee);
      const std::size_t site = site_index_.at(
          support::cat(owner_fn, "\x1f", spec.name, "\x1f", spec.callee));
      for (std::size_t pe = 0; pe < P; ++pe) {
        double count = spec.calls_per_pe * ramp(static_cast<int>(pe), nope_,
                                                spec.imbalance);
        if (spec.noise > 0.0) {
          count *= std::max(
              0.0, 1.0 + spec.noise * unit_normal(options_.seed, rid, pe, 7));
        }
        call_counts_[site][pe] += std::max(0.0, std::round(count));
        call_time_[site][pe] += callee_result.incl[pe];
        children_incl[pe] += callee_result.incl[pe];
        children_ovhd[pe] += callee_result.ovhd[pe];
      }
    }

    // Barrier: everyone waits for the slowest arrival.
    std::vector<double> barrier_wait(P, 0.0);
    if (spec.barrier_count > 0) {
      double latest = 0.0;
      std::vector<double> arrival(P, 0.0);
      for (std::size_t pe = 0; pe < P; ++pe) {
        arrival[pe] = excl[pe] + ovhd_nonbarrier[pe] + children_incl[pe];
        latest = std::max(latest, arrival[pe]);
      }
      const double base_ms =
          spec.barrier_count * app_.machine.barrier_base_us / 1000.0;
      for (std::size_t pe = 0; pe < P; ++pe) {
        barrier_wait[pe] = (latest - arrival[pe]) + base_ms;
      }
      const std::size_t site = site_index_.at(
          support::cat(owner_fn, "\x1f", spec.name, "\x1f", kBarrierFunction));
      const std::size_t barrier_rid =
          region_id(std::string(kBarrierFunction));
      RegionAcc& barrier_acc = region_acc_[barrier_rid];
      for (std::size_t pe = 0; pe < P; ++pe) {
        call_counts_[site][pe] += spec.barrier_count;
        call_time_[site][pe] += barrier_wait[pe];
        barrier_acc.incl_sum += barrier_wait[pe];
        barrier_acc.ovhd_sum += barrier_wait[pe];
        barrier_acc.typed[static_cast<std::size_t>(TimingType::kBarrier)] +=
            barrier_wait[pe];
      }
    }

    // Accumulate the region summary and produce per-PE inclusive times.
    RegionAcc& acc = region_acc_[rid];
    PerPe result{std::vector<double>(P, 0.0), std::vector<double>(P, 0.0)};
    for (std::size_t pe = 0; pe < P; ++pe) {
      const double own_ovhd = ovhd_nonbarrier[pe] + barrier_wait[pe];
      result.ovhd[pe] = own_ovhd + children_ovhd[pe];
      result.incl[pe] = excl[pe] + own_ovhd + children_incl[pe];
      acc.excl_sum += excl[pe];
      acc.ovhd_sum += result.ovhd[pe];
      acc.incl_sum += result.incl[pe];
    }
    for (std::size_t t = 0; t < kTimingTypeCount; ++t) {
      for (std::size_t pe = 0; pe < P; ++pe) acc.typed[t] += typed[t][pe];
    }
    if (spec.barrier_count > 0) {
      for (std::size_t pe = 0; pe < P; ++pe) {
        acc.typed[static_cast<std::size_t>(TimingType::kBarrier)] +=
            barrier_wait[pe];
      }
    }
    return result;
  }

  const AppSpec& app_;
  int nope_;
  SimulationOptions options_;
  std::map<std::string, std::size_t> region_index_;
  std::vector<RegionAcc> region_acc_;
  std::map<std::string, std::size_t> site_index_;
  std::vector<std::vector<double>> call_counts_;
  std::vector<std::vector<double>> call_time_;
};

}  // namespace

RunResult simulate(const AppSpec& app, int nope, const SimulationOptions& options) {
  if (nope < 1) throw EvalError("nope must be >= 1");
  const ProgramStructure structure = structure_of(app);
  RunSimulator sim(app, structure, nope, options);
  return sim.run();
}

ExperimentData simulate_experiment(const AppSpec& app,
                                   const std::vector<int>& pe_counts,
                                   const SimulationOptions& options) {
  ExperimentData data;
  data.structure = structure_of(app);
  data.structure.compilation_time = options.start_time - 3600;
  for (std::size_t i = 0; i < pe_counts.size(); ++i) {
    SimulationOptions run_options = options;
    run_options.seed = options.seed + i * 1000003ULL;
    run_options.start_time = options.start_time + static_cast<std::int64_t>(i) * 900;
    data.runs.push_back(simulate(app, pe_counts[i], run_options));
  }
  return data;
}

// --- event traces ------------------------------------------------------------

std::string_view to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kEnter: return "ENTER";
    case EventKind::kExit: return "EXIT";
    case EventKind::kSend: return "SEND";
    case EventKind::kRecv: return "RECV";
    case EventKind::kBarrierEnter: return "BARRIER_ENTER";
    case EventKind::kBarrierExit: return "BARRIER_EXIT";
    case EventKind::kIoBegin: return "IO_BEGIN";
    case EventKind::kIoEnd: return "IO_END";
  }
  return "?";
}

namespace {

void trace_region(const AppSpec& app, const RegionSpec& spec, int nope,
                  std::uint64_t seed, std::size_t rid,
                  std::vector<double>& t_pe, std::vector<Event>& out) {
  const std::size_t P = static_cast<std::size_t>(nope);
  for (std::size_t pe = 0; pe < P; ++pe) {
    out.push_back({t_pe[pe], static_cast<std::uint32_t>(pe), EventKind::kEnter,
                   spec.name});
  }
  for (std::size_t pe = 0; pe < P; ++pe) {
    double compute = (spec.work_ms / nope) *
                         ramp(static_cast<int>(pe), nope, spec.imbalance) +
                     spec.serial_ms;
    if (spec.noise > 0.0) {
      compute *= std::max(0.0, 1.0 + spec.noise *
                                   unit_normal(seed, rid, pe, 0));
    }
    const int msgs = static_cast<int>(spec.msgs_per_pe);
    for (int msg = 0; msg < msgs; ++msg) {
      const double at = t_pe[pe] + compute * (msg + 1.0) / (msgs + 1.0);
      out.push_back({at, static_cast<std::uint32_t>(pe), EventKind::kSend,
                     spec.name});
      out.push_back({at + app.machine.msg_latency_us / 1000.0,
                     static_cast<std::uint32_t>(pe), EventKind::kRecv,
                     spec.name});
    }
    if (spec.io_read_mb + spec.io_write_mb > 0.0) {
      out.push_back({t_pe[pe] + compute, static_cast<std::uint32_t>(pe),
                     EventKind::kIoBegin, spec.name});
      out.push_back({t_pe[pe] + compute + 0.2, static_cast<std::uint32_t>(pe),
                     EventKind::kIoEnd, spec.name});
    }
    t_pe[pe] += compute;
  }
  for (const RegionSpec& child : spec.children) {
    trace_region(app, child, nope, seed, rid * 131 + 7, t_pe, out);
  }
  if (spec.kind == RegionKind::kCall) {
    const FunctionSpec* callee = app.find_function(spec.callee);
    trace_region(app, callee->body, nope, seed, rid * 131 + 13, t_pe, out);
  }
  if (spec.barrier_count > 0) {
    double latest = 0.0;
    for (const double t : t_pe) latest = std::max(latest, t);
    for (std::size_t pe = 0; pe < P; ++pe) {
      out.push_back({t_pe[pe], static_cast<std::uint32_t>(pe),
                     EventKind::kBarrierEnter, spec.name});
      out.push_back({latest, static_cast<std::uint32_t>(pe),
                     EventKind::kBarrierExit, spec.name});
      t_pe[pe] = latest;
    }
  }
  for (std::size_t pe = 0; pe < P; ++pe) {
    out.push_back({t_pe[pe], static_cast<std::uint32_t>(pe), EventKind::kExit,
                   spec.name});
  }
}

}  // namespace

std::vector<Event> generate_trace(const AppSpec& app, int nope,
                                  std::uint64_t seed) {
  validate(app);
  std::vector<Event> out;
  std::vector<double> t_pe(static_cast<std::size_t>(nope), 0.0);
  const FunctionSpec* main_fn = app.find_function(app.main_function);
  trace_region(app, main_fn->body, nope, seed, 1, t_pe, out);
  std::stable_sort(out.begin(), out.end(), [](const Event& a, const Event& b) {
    return a.t_ms < b.t_ms;
  });
  return out;
}

}  // namespace kojak::perf

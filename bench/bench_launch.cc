// Figures 7, 8 and 9: one set of Helloworld launches under {Stock, Shared
// PTP & TLB} x {original, 2MB alignment}, through the full cycle-level
// pipeline, seen three ways.
//
// Paper shape:
//   Figure 7: sharing improves launch time by 7% with the original
//     alignment and 10% with 2 MB alignment.
//   Figure 8: sharing cuts L1 I-cache stalls 15% (original alignment) and
//     24% (2 MB alignment), because eliminated soft faults stop dragging
//     the kernel fault-handler text through the I-cache.
//   Figure 9 (baseline 72 PTPs / 1,900 file faults): sharing drops faults
//     to 110 (94% fewer; 93 with 2 MB alignment, 95% fewer) and PTPs to 23
//     (68% fewer; 28 with 2 MB, 61% fewer).
//
// Each configuration is one harness job (its own System), so the four
// series run concurrently under --jobs and come back in the paper's order
// regardless of worker count. Each job launches `rounds` times after 3
// dropped warm-up rounds: the paper's 100-execution box plots are
// dominated by the steady state, which sharing reaches once the shared
// PTPs are populated.

#include "bench/common.h"

namespace sat {
namespace {

// Registry keys of the four configurations, in the paper's order.
const char* const kKeys[] = {"stock", "shared-ptp-tlb", "stock-2mb",
                             "shared-ptp-tlb-2mb"};
constexpr int kWarmupRounds = 3;

using LaunchField = uint64_t LaunchResult::*;

struct LaunchSeries {
  std::string name;
  std::vector<LaunchResult> rounds;  // empty when --config filtered it out

  std::vector<double> Values(LaunchField field) const {
    std::vector<double> out;
    for (const LaunchResult& r : rounds) {
      out.push_back(static_cast<double>(r.*field));
    }
    return out;
  }
  double MedianOf(LaunchField field) const { return Median(Values(field)); }
};

double ReductionPercent(double base, double value) {
  return (1.0 - value / base) * 100.0;
}

// The median of `field` for each configuration, in kKeys order.
std::vector<double> Medians(const std::vector<LaunchSeries>& series,
                            LaunchField field) {
  std::vector<double> out;
  for (const LaunchSeries& s : series) {
    out.push_back(s.MedianOf(field));
  }
  return out;
}

// The box-and-whisker rows of Figures 7 and 8, in 10^6 cycles.
void PrintBoxTable(const std::vector<LaunchSeries>& series, LaunchField field,
                   int digits) {
  TablePrinter table({"Config", "min", "Q1", "median", "Q3", "max"});
  for (const LaunchSeries& s : series) {
    if (s.rounds.empty()) {
      continue;
    }
    const FiveNumberSummary summary = Summarize(s.Values(field));
    table.AddRow({s.name, FormatDouble(summary.minimum / 1e6, digits),
                  FormatDouble(summary.q1 / 1e6, digits),
                  FormatDouble(summary.median / 1e6, digits),
                  FormatDouble(summary.q3 / 1e6, digits),
                  FormatDouble(summary.maximum / 1e6, digits)});
  }
  std::cout << "(all values x10^6 cycles)\n";
  table.Print(std::cout);
}

bool Figure7(const std::vector<LaunchSeries>& series, bool ran_all) {
  PrintHeader("Figure 7", "Application launch execution time (cycles)");
  PrintBoxTable(series, &LaunchResult::exec_cycles, 2);
  if (!ran_all) {
    return true;
  }
  const std::vector<double> exec = Medians(series, &LaunchResult::exec_cycles);
  std::cout << "\n";
  bool ok = true;
  ok &= ShapeCheck(std::cout, "launch speed improvement, original align (%)",
                   7.0, ReductionPercent(exec[0], exec[1]), 0.6);
  ok &= ShapeCheck(std::cout, "launch speed improvement, 2MB align (%)", 10.0,
                   ReductionPercent(exec[2], exec[3]), 0.6);
  // Ordering: 2MB sharing is the best configuration.
  ok &= ShapeCheck(std::cout, "2MB-shared beats original-shared (ratio < 1)",
                   0.97, exec[3] / exec[1], 0.1);
  return ok;
}

bool Figure8(const std::vector<LaunchSeries>& series, bool ran_all) {
  PrintHeader("Figure 8", "Application launch L1 I-cache stall cycles");
  PrintBoxTable(series, &LaunchResult::icache_stall_cycles, 3);
  if (!ran_all) {
    return true;
  }
  const std::vector<double> stalls =
      Medians(series, &LaunchResult::icache_stall_cycles);
  std::cout << "\n";
  bool ok = true;
  ok &= ShapeCheck(std::cout, "I-cache stall reduction, original align (%)",
                   15.0, ReductionPercent(stalls[0], stalls[1]), 0.6);
  ok &= ShapeCheck(std::cout, "I-cache stall reduction, 2MB align (%)", 24.0,
                   ReductionPercent(stalls[2], stalls[3]), 0.6);
  return ok;
}

bool Figure9(const std::vector<LaunchSeries>& series, bool ran_all) {
  PrintHeader("Figure 9",
              "PTPs allocated and file-backed page faults during launch "
              "(normalized to stock, original alignment)");
  if (!ran_all) {
    TablePrinter partial({"Config", "PTPs", "file faults"});
    for (const LaunchSeries& s : series) {
      if (!s.rounds.empty()) {
        partial.AddRow({s.name,
                        FormatDouble(s.MedianOf(&LaunchResult::ptps_allocated),
                                     0),
                        FormatDouble(s.MedianOf(&LaunchResult::file_faults),
                                     0)});
      }
    }
    partial.Print(std::cout);
    return true;
  }

  const std::vector<double> ptps =
      Medians(series, &LaunchResult::ptps_allocated);
  const std::vector<double> faults =
      Medians(series, &LaunchResult::file_faults);
  TablePrinter table({"Config", "PTPs", "PTPs (norm)", "file faults",
                      "faults (norm)"});
  for (size_t i = 0; i < series.size(); ++i) {
    table.AddRow({series[i].name, FormatDouble(ptps[i], 0),
                  FormatPercent(ptps[i] / ptps[0]),
                  FormatDouble(faults[i], 0),
                  FormatPercent(faults[i] / faults[0])});
  }
  table.Print(std::cout);

  std::cout << "\n";
  bool ok = true;
  ok &= ShapeCheck(std::cout, "stock launch file faults", 1900, faults[0],
                   0.3);
  ok &= ShapeCheck(std::cout, "fault reduction, shared original (%)", 94.0,
                   ReductionPercent(faults[0], faults[1]), 0.15);
  ok &= ShapeCheck(std::cout, "fault reduction, shared 2MB (%)", 95.0,
                   ReductionPercent(faults[0], faults[3]), 0.15);
  ok &= ShapeCheck(std::cout, "PTP reduction, shared original (%)", 68.0,
                   ReductionPercent(ptps[0], ptps[1]), 0.45);
  ok &= ShapeCheck(std::cout, "PTP reduction, shared 2MB (%)", 61.0,
                   ReductionPercent(ptps[0], ptps[3]), 0.45);
  // 2MB-shared faults fewer than original-shared (code PTPs never unshare).
  ok &= ShapeCheck(std::cout, "2MB-shared faults <= original-shared", 1.0,
                   faults[3] <= faults[1] + 1 ? 1.0 : 0.0, 0.01);
  return ok;
}

int Run(const BenchOptions& options) {
  PrintHeader("Figures 7-9",
              "Application launch: execution time, I-cache stalls, PTPs "
              "and file faults (one run)");
  if (options.phys_mb > 0) {
    std::cout << "physical memory override: " << options.phys_mb
              << " MB (small-memory pressure regime; shape checks are "
                 "calibrated for the 512 MB default)\n\n";
  }

  const int rounds = options.smoke ? 10 : 30;
  Harness harness("launch", options);
  std::vector<LaunchSeries> series(std::size(kKeys));
  for (size_t i = 0; i < series.size(); ++i) {
    const SystemConfig config = ConfigByName(kKeys[i]);
    LaunchSeries* s = &series[i];
    s->name = config.Name();
    harness.AddJob(kKeys[i], config, [s, rounds](System& system,
                                                 JobRecord& record) {
      LaunchSimulator simulator(&system.android(), LaunchParams{});
      for (int round = 0; round < rounds + kWarmupRounds; ++round) {
        const LaunchResult result =
            simulator.LaunchOnce(static_cast<uint32_t>(round));
        if (round >= kWarmupRounds) {
          s->rounds.push_back(result);
        }
      }
      record.Metric("launch.rounds", static_cast<double>(s->rounds.size()));
      record.Metric("launch.exec_cycles_median",
                    s->MedianOf(&LaunchResult::exec_cycles));
      record.Metric("launch.icache_stalls_median",
                    s->MedianOf(&LaunchResult::icache_stall_cycles));
      record.Metric("launch.file_faults_median",
                    s->MedianOf(&LaunchResult::file_faults));
      record.Metric("launch.ptps_median",
                    s->MedianOf(&LaunchResult::ptps_allocated));
    });
  }
  if (!harness.Run()) {
    return 1;
  }
  if (options.phys_mb > 0) {
    std::cout << "\n";
    for (const JobRecord& record : harness.records()) {
      if (!record.metrics.empty()) {
        PrintPressureSummary(record);
      }
    }
  }

  const bool ran_all = harness.ran_all();
  std::cout << "\n";
  bool ok = Figure7(series, ran_all);
  std::cout << "\n";
  ok &= Figure8(series, ran_all);
  std::cout << "\n";
  ok &= Figure9(series, ran_all);
  if (!ran_all) {
    std::cout << "\n--config filter active: normalized columns and "
                 "cross-config shape checks skipped\n";
  }
  return ok ? 0 : 1;
}

// --trace-out: replay a few launches under the full mechanism with tracing
// on and export the timeline (fork, faults, unshares, shootdowns, launch
// phases). A separate run so the figures' numbers stay untouched.
bool WriteLaunchTrace(const BenchOptions& options) {
  SystemConfig config =
      WithPhysMb(ConfigByName("shared-ptp-tlb-2mb"), options.phys_mb);
  config.trace.enabled = true;
  System system(config);
  LaunchSimulator simulator(&system.android(), LaunchParams{});
  for (uint32_t round = 0; round < 3; ++round) {
    simulator.LaunchOnce(round);
  }
  return DumpTrace(system, options.trace_out);
}

}  // namespace
}  // namespace sat

int main(int argc, char** argv) {
  const sat::BenchOptions options = sat::ParseHarnessArgs(&argc, argv);
  const int status = sat::Run(options);
  if (!options.trace_out.empty() && !sat::WriteLaunchTrace(options)) {
    return 1;
  }
  return status;
}

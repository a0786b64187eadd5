// perfbench: runs one workload for --seconds of closed-loop ops,
// checks the simulator's outputs (invariant audit, digest agreement), and
// prints a human-readable report followed by one JSON result line.
//
//   perfbench --workload launch|zygote_churn|mem_pressure [--seed N]
//             [--seconds S] [--trace 0|1]
//   perfbench --list-metrics
//   perfbench --workload W --seed N --dump-ops COUNT
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the workload
// twice in this process for half of --seconds each, untraced and then
// with every public call timed, requires both runs to reach the same
// simulated digest, and reports the per-layer metrics (span times,
// simulated work counts, ratios).

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"

namespace perfbench {
namespace {

// Set-ups before an untraced run's timed phase; setup_s is the median of
// these and of any later epochs' set-ups.
constexpr int kSetups = 5;
// Without epochs, throughput is the median over windows of at least this
// much host time: the host's speed swings for seconds at a time, and a
// median window ignores an episode that covers under half of the run.
constexpr double kWindowSeconds = 0.5;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::optional<uint32_t> dump_ops;
  bool list_metrics = false;
};

// Simulated counters of one system, summed over its cores.
struct Snapshot {
  sat::KernelCounters kernel;
  sat::CoreCounters core;
};

std::vector<Snapshot> TakeSnapshots(Workload& workload, size_t count) {
  std::vector<Snapshot> snapshots;
  for (size_t i = 0; i < count; ++i) {
    sat::Kernel& kernel = workload.systems()[i].system->kernel();
    Snapshot snapshot{kernel.counters(), {}};
    for (uint32_t c = 0; c < kernel.num_cores(); ++c) {
      snapshot.core += kernel.core(c).counters();
    }
    snapshots.push_back(snapshot);
  }
  return snapshots;
}

// The simulated digest: every kernel and core counter of every system,
// plus the workload's own outcome hash.
uint64_t DigestOf(const std::vector<Snapshot>& snapshots, uint64_t outcome) {
  Digest digest;
  for (const Snapshot& s : snapshots) {
#define PERFBENCH_ADD_KERNEL(field) digest.Add(s.kernel.field);
    SAT_KERNEL_COUNTER_FIELDS(PERFBENCH_ADD_KERNEL)
#undef PERFBENCH_ADD_KERNEL
#define PERFBENCH_ADD_CORE(field) digest.Add(s.core.field);
    SAT_CORE_COUNTER_FIELDS(PERFBENCH_ADD_CORE)
#undef PERFBENCH_ADD_CORE
  }
  digest.Add(outcome);
  return digest.value();
}

Snapshot Sum(const std::vector<Snapshot>& later,
             const std::vector<Snapshot>& earlier) {
  Snapshot total;
  for (size_t i = 0; i < later.size(); ++i) {
    total.kernel += later[i].kernel - earlier[i].kernel;
    total.core += later[i].core - earlier[i].core;
  }
  return total;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

uint64_t SimulatedLines(Workload& workload, size_t systems) {
  uint64_t lines = 0;
  for (size_t i = 0; i < systems; ++i) {
    sat::Kernel& kernel = workload.systems()[i].system->kernel();
    for (uint32_t c = 0; c < kernel.num_cores(); ++c) {
      lines += kernel.core(c).counters().inst_fetch_lines +
               kernel.core(c).counters().data_accesses;
    }
  }
  return lines;
}

// One epoch of a timed phase.
struct Epoch {
  size_t first_op = 0;  // index of its first op in TimedRun::op_ms
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t lines = 0;  // simulated fetch and data lines
  double seconds = 0;  // host time inside its timed ops
};

// Everything one timed phase produced.
struct TimedRun {
  std::vector<double> op_ms;
  // Per throughput window: ops and simulated lines per host second.
  std::vector<double> window_ops_per_s, window_lines_per_s;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool epoched = false;  // the workload runs in epochs (epoch_ops > 0)
  std::vector<Epoch> epochs;
  double seconds = 0;    // host time inside timed ops
  double covered_s = 0;  // span time inside timed ops
  uint64_t digest = 0;
  bool epochs_agree = true;  // every epoch reached epoch 0's digest
  double digest_rss_mb = 0;  // peak RSS when the digest was taken
  size_t systems = 0;        // systems each epoch runs
  Snapshot window;           // epoch 0's first digest_ops ops
  Snapshot timed;            // every timed op of every epoch
  uint64_t audit_checks = 0;  // epoch 0's systems
  bool audit_ok = true;
  // The last epoch's instance, not yet audited (the traced run's extras
  // still run on it).
  std::unique_ptr<Workload> last;
};

// Audits every system `workload` booted; violations are printed and fail
// the run. `first` marks epoch 0's instance, whose checks are reported.
void AuditAll(Workload& workload, Spans& spans, bool first, TimedRun* run) {
  for (size_t i = 0; i < workload.systems().size(); ++i) {
    SystemSlot& slot = workload.systems()[i];
    const std::string span =
        slot.label.empty() ? "audit.run" : "audit.run." + slot.label;
    const sat::AuditReport report = spans.Time(
        spans.Get(span), [&] { return slot.system->kernel().AuditInvariants(); });
    if (first && i < run->systems) {
      run->audit_checks += report.checks;
    }
    std::printf("audit %-14s %s (%" PRIu64 " checks)\n",
                slot.label.empty() ? "-" : slot.label.c_str(),
                report.ok() ? "clean" : "VIOLATED", report.checks);
    if (!report.ok()) {
      std::printf("%s\n", report.ToString().c_str());
      run->audit_ok = false;
    }
  }
}

// One epoch's timed ops on `workload`: epoch_ops of them, or (without
// epochs) ops until `seconds` of host time have passed. Every epoch takes
// the digest after digest_ops ops; epoch 0's is the run's, and a later
// epoch that differs from it fails the run.
void RunEpoch(Workload& workload, Spans& spans, double seconds,
              TimedRun* run) {
  const bool first = run->epochs.empty();
  const std::vector<Snapshot> at_start =
      TakeSnapshots(workload, run->systems);
  const uint32_t epoch_ops = workload.epoch_ops();
  Epoch epoch;
  epoch.first_op = run->op_ms.size();
  const uint64_t lines_before = SimulatedLines(workload, run->systems);
  double window_s = 0;
  uint64_t window_ops = 0;
  uint64_t window_lines = lines_before;
  spans.set_timed(true);
  while (true) {
    const Clock::time_point op_start = Clock::now();
    const double covered_before = spans.covered_s();
    const bool failed = workload.RunOp();
    const double op_s = SecondsSince(op_start);
    run->op_ms.push_back(op_s * 1e3);
    run->covered_s += spans.covered_s() - covered_before;
    epoch.seconds += op_s;
    epoch.ops++;
    epoch.failed += failed ? 1 : 0;
    // Windows close on whole ops; an epoch's last, partial one is dropped.
    window_ops++;
    window_s += op_s;
    if (window_s >= kWindowSeconds) {
      const uint64_t lines = SimulatedLines(workload, run->systems);
      run->window_ops_per_s.push_back(static_cast<double>(window_ops) /
                                      window_s);
      run->window_lines_per_s.push_back(
          static_cast<double>(lines - window_lines) / window_s);
      window_s = 0;
      window_ops = 0;
      window_lines = lines;
    }
    if (epoch.ops == workload.digest_ops()) {
      const std::vector<Snapshot> at_digest =
          TakeSnapshots(workload, run->systems);
      const uint64_t digest = DigestOf(at_digest, workload.OutcomeHash());
      if (first) {
        run->window = Sum(at_digest, at_start);
        run->digest = digest;
        run->digest_rss_mb = PeakRssMb();
      } else if (digest != run->digest) {
        run->epochs_agree = false;
      }
    }
    const bool done = epoch_ops > 0 ? epoch.ops == epoch_ops
                                    : epoch.ops >= workload.digest_ops() &&
                                          epoch.seconds >= seconds;
    if (done) {
      break;
    }
  }
  spans.set_timed(false);
  const Snapshot delta = Sum(TakeSnapshots(workload, run->systems), at_start);
  run->timed.kernel += delta.kernel;
  run->timed.core += delta.core;
  epoch.lines = SimulatedLines(workload, run->systems) - lines_before;
  run->attempted += epoch.ops;
  run->failed += epoch.failed;
  run->seconds += epoch.seconds;
  run->epochs.push_back(epoch);
}

// The timed phase, from `workload` (already set up). With epochs, every
// epoch replays the same seeded ops on a freshly set-up instance, so
// per-op cost does not drift with how far a run gets, and the epochs are
// repeated measurements of one amount of work. A new epoch starts while
// the previous one's duration still fits in `seconds`; there is always at
// least one. Every epoch's instance but the last is audited here; `setups`
// receives the set-up times of the later epochs.
TimedRun RunTimed(std::unique_ptr<Workload> workload, const Options& options,
                  Spans& spans, double seconds, std::vector<double>* setups) {
  TimedRun run;
  run.systems = workload->systems().size();
  run.epoched = workload->epoch_ops() > 0;
  while (true) {
    RunEpoch(*workload, spans, seconds, &run);
    const Epoch& epoch = run.epochs.back();
    std::printf("epoch %zu: %" PRIu64 " ops in %.3f s\n",
                run.epochs.size() - 1, epoch.ops, epoch.seconds);
    if (!run.epoched || run.seconds + epoch.seconds > seconds) {
      break;
    }
    AuditAll(*workload, spans, run.epochs.size() == 1, &run);
    workload.reset();
    workload = MakeWorkload(options.workload, options.seed, &spans);
    const Clock::time_point start = Clock::now();
    workload->SetUp();
    setups->push_back(SecondsSince(start));
  }
  if (!run.epochs_agree) {
    std::printf("DIGEST MISMATCH: epochs of one seed simulated different "
                "work\n");
  }
  run.last = std::move(workload);
  return run;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// The timing metrics of a timed phase.
struct Timing {
  double ops_per_s = 0;
  double lines_per_s = 0;
  double p50_ms = 0;
  double tail_ms = 0;
  double tail_percentile = 0;
  size_t samples = 0;  // op times the percentiles are over
  std::string basis;   // how they were taken, for the report
};

// With epochs, every epoch replays the same ops, so op k of one epoch is
// the same simulated work as op k of any other. The timing metrics are
// then taken over each op's best time across its replays: a host shared
// with other jobs only ever slows an op down, often for tens of seconds at
// a time, and the best replay is the op's cost with the least of that
// interference. Without epochs, the rates are the median window's (the
// whole-run mean for a run too short to close a window) and the
// percentiles are over every op.
Timing TimingOf(const TimedRun& run, uint32_t tail_cap) {
  Timing timing;
  if (run.epoched) {
    const Epoch& first = run.epochs[0];
    std::vector<double> best(run.op_ms.begin(),
                             run.op_ms.begin() + static_cast<long>(first.ops));
    for (const Epoch& epoch : run.epochs) {
      for (size_t k = 0; k < best.size(); ++k) {
        best[k] = std::min(best[k], run.op_ms[epoch.first_op + k]);
      }
    }
    double best_s = 0;
    for (double ms : best) {
      best_s += ms / 1e3;
    }
    timing.ops_per_s = static_cast<double>(first.ops) / best_s;
    timing.lines_per_s = static_cast<double>(first.lines) / best_s;
    timing.p50_ms = Median(best);
    timing.tail_ms = Tail(best, tail_cap, &timing.tail_percentile);
    timing.samples = best.size();
    timing.basis = "each of " + std::to_string(first.ops) +
                   " ops at its best of " + std::to_string(run.epochs.size()) +
                   " replays";
    return timing;
  }
  const bool windowed = !run.window_ops_per_s.empty();
  timing.ops_per_s = windowed
                         ? Median(run.window_ops_per_s)
                         : static_cast<double>(run.attempted) / run.seconds;
  timing.lines_per_s =
      windowed ? Median(run.window_lines_per_s)
               : static_cast<double>(run.epochs[0].lines) / run.seconds;
  timing.p50_ms = Median(run.op_ms);
  timing.tail_ms = Tail(run.op_ms, tail_cap, &timing.tail_percentile);
  timing.samples = run.op_ms.size();
  timing.basis = "median of " + std::to_string(run.window_ops_per_s.size()) +
                 " windows of >= " + std::to_string(kWindowSeconds) +
                 " s; percentiles over all ops";
  return timing;
}

void PrintMetric(const std::string& name, double value,
                 const std::string& unit, const std::string& note = "") {
  std::printf("  %-34s %16.6g %-6s %s\n", name.c_str(), value, unit.c_str(),
              note.c_str());
}

// The JSON result line: exactly the listed metrics, in list order.
void PrintResult(bool correct, const TimedRun& run,
                 const std::vector<std::pair<std::string, std::string>>& names,
                 const std::map<std::string, double>& values) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", run.attempted, run.failed);
  for (size_t i = 0; i < names.size(); ++i) {
    const auto it = values.find(names[i].first);
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", names[i].first.c_str(),
                it == values.end() ? 0.0 : it->second,
                names[i].second.c_str());
  }
  std::printf("}}\n");
}

std::map<std::string, double> EndToEnd(const TimedRun& run,
                                       const std::vector<double>& setups,
                                       uint32_t tail_cap) {
  std::map<std::string, double> values;
  const Snapshot& timed = run.timed;
  const Timing timing = TimingOf(run, tail_cap);
  values["setup_s"] = Median(setups);
  values["ops_per_s"] = timing.ops_per_s;
  values["op_ms.p50"] = timing.p50_ms;
  values["op_ms.tail"] = timing.tail_ms;
  values["sim_lines_per_s"] = timing.lines_per_s;
  // Taken after a fixed amount of work (set-ups plus the digest window),
  // so it does not grow with host speed.
  values["peak_rss_mb"] = run.digest_rss_mb;
  // Add-one estimate over the first epoch (later epochs replay it): never
  // 0; the raw counts over every epoch are the result line's
  // attempted/failed.
  const Epoch& first = run.epochs[0];
  values["failed_frac"] = static_cast<double>(first.failed + 1) /
                          static_cast<double>(first.ops + 2);

  std::string setup_list;
  for (double s : setups) {
    setup_list += ' ';
    setup_list += std::to_string(s);
  }
  std::printf("end-to-end (tracing off):\n");
  PrintMetric("setup_s", values["setup_s"], "s",
              "median of " + std::to_string(setups.size()) + " set-ups:" +
                  setup_list);
  PrintMetric("ops_per_s", values["ops_per_s"], "1/s",
              timing.basis + "; mean " +
                  std::to_string(static_cast<double>(run.attempted) /
                                 run.seconds) +
                  " (" + std::to_string(run.attempted) + " ops in " +
                  std::to_string(run.seconds) + " s)");
  PrintMetric("op_ms.p50", values["op_ms.p50"], "ms",
              std::to_string(timing.samples) + " samples");
  char note[128];
  std::snprintf(note, sizeof(note), "p%g of %zu samples (%s)",
                timing.tail_percentile, timing.samples,
                timing.tail_percentile < 100 ? ">= 10 beyond it"
                                             : "fewer than 20: max");
  PrintMetric("op_ms.tail", values["op_ms.tail"], "ms", note);
  PrintMetric("sim_lines_per_s", values["sim_lines_per_s"], "1/s",
              "fetch " + std::to_string(timed.core.inst_fetch_lines) +
                  " + data " + std::to_string(timed.core.data_accesses) +
                  " lines in all");
  PrintMetric("peak_rss_mb", values["peak_rss_mb"], "MB",
              "ru_maxrss after the digest window; " +
                  std::to_string(PeakRssMb()) + " at the end of the run");
  PrintMetric("failed_frac", values["failed_frac"], "ratio",
              "(failed+1)/(attempted+2) over the first epoch; failed " +
                  std::to_string(run.failed) + " of " +
                  std::to_string(run.attempted));
  return values;
}

// Span statistics over the timed phase; spans that ran only outside it
// (boot, audit, the replay) over all their calls.
void AddSpanStats(const Spans& spans, std::map<std::string, double>* values) {
  std::printf("spans (host time per public call):\n");
  for (size_t i = 0; i < spans.series().size(); ++i) {
    const Spans::Series& series = spans.series()[i];
    const bool timed = !series.timed_us.empty();
    const std::vector<float>& samples = timed ? series.timed_us : series.us;
    std::vector<double> us(samples.begin(), samples.end());
    double busy_us = 0;
    for (double v : us) {
      busy_us += v;
    }
    double percentile = 0;
    const double tail = Tail(us, 99, &percentile);
    (*values)[series.name + ".calls"] = static_cast<double>(us.size());
    (*values)[series.name + ".busy_ms"] = busy_us / 1e3;
    (*values)[series.name + ".p50_us"] = Median(us);
    (*values)[series.name + ".tail_us"] = tail;
    std::printf("  %-28s calls %9zu  busy %10.3f ms  p50 %10.3f us  "
                "tail %10.3f us (p%.2f) %s\n",
                series.name.c_str(), us.size(), busy_us / 1e3, Median(us),
                tail, percentile, timed ? "timed phase" : "all calls");
  }
}

std::map<std::string, double> PerLayer(Workload& workload, const Spans& spans,
                                       const TimedRun& run,
                                       double untraced_ops_per_s) {
  std::map<std::string, double> values;
  AddSpanStats(spans, &values);
  for (const auto& [name, value] : workload.extra_metrics()) {
    values[name] = value;
  }
  double op_s = 0;
  for (double ms : run.op_ms) {
    op_s += ms / 1e3;
  }
  values["span_coverage"] = Ratio(run.covered_s, op_s);
  const double traced_ops_per_s = TimingOf(run, 99).ops_per_s;
  values["trace_overhead"] =
      Ratio(untraced_ops_per_s - traced_ops_per_s, untraced_ops_per_s);

  const Snapshot& w = run.window;
  const sat::KernelCounters& k = w.kernel;
  const sat::CoreCounters& c = w.core;
  const std::vector<std::pair<const char*, uint64_t>> counts = {
      {"hw.fetch_lines", c.inst_fetch_lines},
      {"hw.micro_tlb_misses", c.micro_tlb_misses},
      {"hw.main_tlb_misses", c.itlb_main_misses + c.dtlb_main_misses},
      {"hw.l1i_misses", c.l1i_misses},
      {"hw.l2_misses", c.l2_misses},
      {"proc.faults_file", k.faults_file_backed},
      {"proc.faults_anon", k.faults_anonymous},
      {"proc.faults_cow", k.faults_cow},
      {"proc.ptps_allocated", k.ptps_allocated},
      {"proc.ptps_unshared", k.ptps_unshared},
      {"proc.ptes_copied", k.ptes_copied},
      {"proc.shootdown_ipis", k.tlb_shootdown_ipis},
      {"proc.asid_flushes", k.tlb_asid_flushes},
      {"proc.full_flushes", k.tlb_full_flushes},
      {"swap.outs", k.swap_outs},
      {"swap.ins", k.swap_ins},
      {"swap.cache_hits", k.swap_ins_cache_hit},
      {"swap.kswapd_runs", k.kswapd_runs},
      {"swap.direct_reclaims", k.direct_reclaims},
      {"swap.oom_kills", k.oom_kills},
      {"ksm.scanned", k.ksm_pages_scanned},
      {"ksm.merged", k.ksm_pages_merged},
      {"huge.collapses", k.huge_collapses},
      {"huge.failures", k.huge_collapse_failures},
      {"huge.splits", k.huge_splits},
      {"scrub.runs", k.scrub_runs},
      {"scrub.repairs", k.scrub_repairs},
      {"audit.checks", run.audit_checks},
  };
  std::printf("simulated work over the first %" PRIu64
              " timed ops (all systems):\n",
              static_cast<uint64_t>(workload.digest_ops()));
  for (const auto& [name, count] : counts) {
    values[name] = static_cast<double>(count);
    PrintMetric(name, values[name], "count");
  }

  // Host time per fault over the timed phase.
  const Snapshot& timed = run.timed;
  const uint64_t faults = timed.kernel.faults_file_backed +
                          timed.kernel.faults_anonymous +
                          timed.kernel.faults_cow + timed.kernel.swap_ins;
  double fault_path_ms = 0;
  for (const auto& [name, value] : values) {
    if ((name.rfind("proc.touch", 0) == 0 ||
         name.rfind("proc.write", 0) == 0) &&
        name.size() > 8 && name.compare(name.size() - 8, 8, ".busy_ms") == 0) {
      fault_path_ms += value;
    }
  }
  std::printf("ratios:\n");
  values["host_us_per_fault"] =
      Ratio(fault_path_ms * 1e3, static_cast<double>(faults));
  PrintMetric("host_us_per_fault", values["host_us_per_fault"], "us",
              "touch+write busy " + std::to_string(fault_path_ms) +
                  " ms / " + std::to_string(faults) +
                  " faults (file+anon+cow+swap-in), timed phase");
  auto ratio = [&](const char* name, uint64_t num, uint64_t den,
                   const std::string& base) {
    values[name] = Ratio(static_cast<double>(num), static_cast<double>(den));
    PrintMetric(name, values[name], "ratio",
                std::to_string(num) + " / " + std::to_string(den) + " " +
                    base);
  };
  ratio("ksm.merge_ratio", k.ksm_pages_merged, k.ksm_pages_scanned,
        "merged / scanned");
  ratio("huge.collapse_ratio", k.huge_collapses,
        k.huge_collapses + k.huge_collapse_failures,
        "collapses / attempts");
  ratio("swap.cache_hit_ratio", k.swap_ins_cache_hit, k.swap_ins,
        "swap-cache hits / swap-ins");
  ratio("hw.micro_tlb_miss_ratio", c.micro_tlb_misses,
        c.inst_fetch_lines + c.data_accesses,
        "micro-TLB misses / simulated lines");
  ratio("hw.main_tlb_miss_ratio", c.itlb_main_misses + c.dtlb_main_misses,
        c.micro_tlb_misses, "main-TLB misses / main-TLB lookups");
  for (const auto& [name, value] : workload.extra_metrics()) {
    PrintMetric(name, value, "ns", "replay FetchBurst busy / fetch lines");
  }
  PrintMetric("span_coverage", values["span_coverage"], "ratio",
              "span time inside ops / op time, timed phase");
  PrintMetric("trace_overhead", values["trace_overhead"], "ratio",
              "(untraced - traced) / untraced ops_per_s");
  return values;
}

void PrintHeader(const Options& options, Workload& workload) {
  std::printf("# perfbench workload=%s seed=%" PRIu64
              " seconds=%g trace=%d (closed loop, 1 caller, 1 host thread)\n",
              options.workload.c_str(), options.seed, options.seconds,
              options.trace ? 1 : 0);
  for (SystemSlot& slot : workload.systems()) {
    std::printf("system %-8s %s\n",
                slot.label.empty() ? "-" : slot.label.c_str(),
                slot.system->config().Name().c_str());
  }
}

void PrintDigest(const char* what, const Workload& workload,
                 const TimedRun& run) {
  std::printf("digest %s 0x%016" PRIx64 " (every counter of every system "
              "after %u timed ops)\n",
              what, run.digest, workload.digest_ops());
}

int Usage(const char* message) {
  std::fprintf(stderr, "perfbench: %s\n", message);
  std::fprintf(stderr,
               "usage: perfbench --workload launch|zygote_churn|mem_pressure "
               "[--seed N] [--seconds S] [--trace 0|1] | --list-metrics | "
               "--workload W --seed N --dump-ops COUNT\n");
  return 2;
}

bool ParseUnsigned(const char* text, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    return false;
  }
  *out = value;
  return true;
}

int Main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      options.list_metrics = true;
      continue;
    }
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed" && ParseUnsigned(value, &number)) {
      options.seed = number;
    } else if (flag == "--seconds" && ParseUnsigned(value, &number) &&
               number > 0 && number <= 3600) {
      options.seconds = static_cast<double>(number);
    } else if (flag == "--trace" && ParseUnsigned(value, &number) &&
               number <= 1) {
      options.trace = number == 1;
    } else if (flag == "--dump-ops" && ParseUnsigned(value, &number) &&
               number <= 1000000) {
      options.dump_ops = static_cast<uint32_t>(number);
    } else {
      return Usage(("bad flag or value: " + flag + " " + value).c_str());
    }
  }

  if (options.list_metrics) {
    for (const auto& [name, unit] : EndToEndMetricNames()) {
      std::printf("end_to_end %s %s\n", name.c_str(), unit.c_str());
    }
    for (const auto& [name, unit] : PerLayerMetricNames()) {
      std::printf("per_layer %s %s\n", name.c_str(), unit.c_str());
    }
    return 0;
  }
  const auto& workloads = WorkloadNames();
  if (std::find(workloads.begin(), workloads.end(), options.workload) ==
      workloads.end()) {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  if (options.dump_ops.has_value()) {
    for (const std::string& line :
         DumpOps(options.workload, options.seed, *options.dump_ops)) {
      std::printf("%s\n", line.c_str());
    }
    return 0;
  }

  if (!options.trace) {
    Spans spans(false);
    std::vector<double> setups;
    std::unique_ptr<Workload> workload;
    for (int s = 0; s < kSetups; ++s) {
      workload.reset();
      workload = MakeWorkload(options.workload, options.seed, &spans);
      const Clock::time_point start = Clock::now();
      workload->SetUp();
      setups.push_back(SecondsSince(start));
    }
    PrintHeader(options, *workload);
    TimedRun run =
        RunTimed(std::move(workload), options, spans, options.seconds, &setups);
    PrintDigest("untraced", *run.last, run);
    AuditAll(*run.last, spans, run.epochs.size() == 1, &run);
    const auto values = EndToEnd(run, setups, run.last->tail_cap());
    const bool correct = run.audit_ok && run.epochs_agree;
    PrintResult(correct, run, EndToEndMetricNames(), values);
    return correct ? 0 : 1;
  }

  // Traced: the same seed untraced first (the overhead baseline and the
  // digest to match), then traced; each timed phase gets half the time.
  const double half = options.seconds / 2;
  std::vector<double> setups;
  Spans off(false);
  auto baseline = MakeWorkload(options.workload, options.seed, &off);
  baseline->SetUp();
  PrintHeader(options, *baseline);
  TimedRun untraced = RunTimed(std::move(baseline), options, off, half, &setups);
  PrintDigest("untraced", *untraced.last, untraced);
  AuditAll(*untraced.last, off, untraced.epochs.size() == 1, &untraced);
  const double untraced_ops_per_s = TimingOf(untraced, 99).ops_per_s;
  untraced.last.reset();

  Spans spans(true);
  auto workload = MakeWorkload(options.workload, options.seed, &spans);
  workload->SetUp();
  TimedRun run = RunTimed(std::move(workload), options, spans, half, &setups);
  PrintDigest("traced  ", *run.last, run);
  run.last->TracedExtras();
  AuditAll(*run.last, spans, run.epochs.size() == 1, &run);
  const bool digests_agree = run.digest == untraced.digest;
  if (!digests_agree) {
    std::printf("DIGEST MISMATCH: traced and untraced runs of one seed "
                "simulated different work\n");
  }
  const auto values = PerLayer(*run.last, spans, run, untraced_ops_per_s);
  const bool correct = digests_agree && run.audit_ok && untraced.audit_ok &&
                       run.epochs_agree && untraced.epochs_agree;
  PrintResult(correct, run, PerLayerMetricNames(), values);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

// Span recording, summary statistics, the digest, and the metric names.

#include <algorithm>

#include "perfbench/src/bench.h"

namespace perfbench {

Spans::Id Spans::Get(const std::string& name) {
  const auto [it, inserted] = index_.emplace(name, series_.size());
  if (inserted) {
    series_.push_back(Series{name, {}, {}, 0});
  }
  return it->second;
}

const Spans::Series* Spans::Find(const std::string& name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? nullptr : &series_[it->second];
}

void Spans::Record(Id id, Clock::time_point start) {
  const double seconds = SecondsSince(start);
  Series& series = series_[id];
  series.us.push_back(static_cast<float>(seconds * 1e6));
  if (timed_) {
    series.timed_us.push_back(series.us.back());
  }
  series.busy_s += seconds;
  covered_s_ += seconds;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) {
    return upper;
  }
  return (upper + *std::max_element(values.begin(), values.begin() + mid)) /
         2;
}

double Tail(std::vector<double> values, uint32_t cap,
            double* percentile) {
  if (values.empty()) {
    *percentile = 0;
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  for (const size_t p : {99, 90, 50}) {
    // 1-based rank of the first sample above p% of the samples, so the
    // p50 rung is never below the (interpolated) median.
    const size_t rank = p * n / 100 + 1;
    if (p <= cap && n - rank >= 10) {
      *percentile = static_cast<double>(p);
      return values[rank - 1];
    }
  }
  *percentile = 100;
  return values.back();
}

void Digest::Add(uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    hash_ ^= (word >> (8 * byte)) & 0xFF;
    hash_ *= 0x100000001B3ull;
  }
}

const std::vector<std::pair<std::string, std::string>>& EndToEndMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"setup_s", "s"},           {"ops_per_s", "1/s"},
      {"op_ms.p50", "ms"},        {"op_ms.tail", "ms"},
      {"sim_lines_per_s", "1/s"}, {"peak_rss_mb", "MB"},
      {"failed_frac", "ratio"},
  };
  return names;
}

namespace {

// Appends span metrics `<span>.<stat>` for each requested stat.
void AddSpan(std::vector<std::pair<std::string, std::string>>* names,
             const std::string& span, const std::vector<std::string>& stats) {
  for (const std::string& stat : stats) {
    const std::string unit = stat == "calls"     ? "count"
                             : stat == "busy_ms" ? "ms"
                                                 : "us";
    names->emplace_back(span + "." + stat, unit);
  }
}

std::vector<std::pair<std::string, std::string>> BuildPerLayerNames() {
  std::vector<std::pair<std::string, std::string>> names;
  const std::vector<std::string> all = {"calls", "busy_ms", "p50_us",
                                        "tail_us"};
  const std::vector<std::string> timing = {"busy_ms", "p50_us", "tail_us"};
  const std::vector<std::string> brief = {"busy_ms", "p50_us"};
  for (const char* sys : {"stock", "shared"}) {
    const std::string s = std::string(".") + sys;
    // launch: the launch path and the hardware-model replay.
    AddSpan(&names, "android.launch" + s, timing);
    AddSpan(&names, "hw.fetch_burst" + s, {"calls", "busy_ms", "p50_us"});
    AddSpan(&names, "hw.store" + s, brief);
    names.emplace_back("host_ns_per_fetch_line" + s, "ns");
    // zygote_churn: the lifecycle calls.
    AddSpan(&names, "android.fork_app" + s, all);
    AddSpan(&names, "proc.fork" + s, all);
    AddSpan(&names, "proc.exit" + s, timing);
    AddSpan(&names, "proc.mmap" + s, brief);
    AddSpan(&names, "proc.touch" + s, brief);
    AddSpan(&names, "proc.write" + s, timing);
    // Boot and audit on the two-system workloads.
    AddSpan(&names, "core.boot" + s, {"p50_us"});
    AddSpan(&names, "audit.run" + s, {"busy_ms"});
  }
  // mem_pressure: one system, no suffix.
  AddSpan(&names, "proc.touch", all);
  AddSpan(&names, "proc.write", all);
  AddSpan(&names, "ksm.scan", all);
  AddSpan(&names, "huge.scan", all);
  AddSpan(&names, "scrub.pass", all);
  AddSpan(&names, "core.boot", {"p50_us"});
  AddSpan(&names, "audit.run", {"busy_ms"});
  // Attribution.
  names.emplace_back("span_coverage", "ratio");
  names.emplace_back("trace_overhead", "ratio");
  // Simulated work over the digest window, summed over the systems.
  for (const char* count :
       {"hw.fetch_lines", "hw.micro_tlb_misses", "hw.main_tlb_misses",
        "hw.l1i_misses", "hw.l2_misses", "proc.faults_file",
        "proc.faults_anon", "proc.faults_cow", "proc.ptps_allocated",
        "proc.ptps_unshared", "proc.ptes_copied", "proc.shootdown_ipis",
        "proc.asid_flushes", "proc.full_flushes", "swap.outs", "swap.ins",
        "swap.cache_hits", "swap.kswapd_runs", "swap.direct_reclaims",
        "swap.oom_kills", "ksm.scanned", "ksm.merged", "huge.collapses",
        "huge.failures", "huge.splits", "scrub.runs", "scrub.repairs",
        "audit.checks"}) {
    names.emplace_back(count, "count");
  }
  // Ratios (bases printed beside them in the report).
  names.emplace_back("host_us_per_fault", "us");
  for (const char* ratio :
       {"ksm.merge_ratio", "huge.collapse_ratio", "swap.cache_hit_ratio",
        "hw.micro_tlb_miss_ratio", "hw.main_tlb_miss_ratio"}) {
    names.emplace_back(ratio, "ratio");
  }
  return names;
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& PerLayerMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> names =
      BuildPerLayerNames();
  return names;
}

}  // namespace perfbench

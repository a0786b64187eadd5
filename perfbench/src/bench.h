// perfbench: the simulator's host-performance benchmark.
//
// One process, one host thread, one closed-loop caller: each workload
// drives libsat only through its public API, issuing the next operation
// when the previous one returns. Every generated input (page choices,
// content values, lifetimes, SystemConfig::seed) is derived from the
// --seed argument by the workload's own generator; the simulator only
// ever sees those inputs.
//
// With tracing on, every call the benchmark makes into a layer's public
// function is wrapped in a span (Spans::Time), which gives the per-layer
// host-time split. With tracing off, Spans::Time is a plain call.

#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/core/sat.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// splitmix64: a tiny, fully specified generator, so an input stream is a
// pure function of the seed on every platform and standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, bound); bound > 0.
  uint32_t Below(uint32_t bound) {
    return static_cast<uint32_t>(Next() % bound);
  }
  // True with probability num/den.
  bool Chance(uint32_t num, uint32_t den) { return Below(den) < num; }

 private:
  uint64_t state_;
};

// A seed for one named purpose (a system, a generator), derived from the
// workload seed so that distinct purposes draw unrelated streams.
uint64_t DeriveSeed(uint64_t seed, const std::string& purpose);

// ---------------------------------------------------------------------------
// Spans: host time of every public call the benchmark makes, by span name.
// ---------------------------------------------------------------------------

class Spans {
 public:
  using Id = size_t;

  explicit Spans(bool enabled) : enabled_(enabled) {}

  // The id of span `name`, created on first use.
  Id Get(const std::string& name);

  // While set, recorded calls also count as timed-phase samples.
  void set_timed(bool timed) { timed_ = timed; }

  // Runs `call`, recording its host duration under `id` when enabled.
  template <typename F>
  decltype(auto) Time(Id id, F&& call) {
    if (!enabled_) {
      return call();
    }
    const Clock::time_point start = Clock::now();
    if constexpr (std::is_void_v<decltype(call())>) {
      call();
      Record(id, start);
    } else {
      decltype(auto) result = call();
      Record(id, start);
      return result;
    }
  }

  // Host seconds recorded in all spans so far (the attribution numerator).
  double covered_s() const { return covered_s_; }

  struct Series {
    std::string name;
    std::vector<float> us;  // one duration per call, microseconds
    std::vector<float> timed_us;  // the calls made inside timed ops
    double busy_s = 0;
  };
  const std::vector<Series>& series() const { return series_; }
  const Series* Find(const std::string& name) const;

 private:
  void Record(Id id, Clock::time_point start);

  bool enabled_;
  bool timed_ = false;
  std::vector<Series> series_;
  std::map<std::string, Id> index_;
  double covered_s_ = 0;
};

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

// One simulated machine a workload drives, and the span-name suffix that
// tells its numbers apart ("stock"/"shared"; empty for one-system
// workloads).
struct SystemSlot {
  std::string label;
  std::unique_ptr<sat::System> system;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Boots the systems and runs the warm-up (everything before the first
  // timed op). Every public call goes through `spans`.
  virtual void SetUp() = 0;
  // One closed-loop operation. Returns true when it failed: any step
  // failed on any of the workload's systems.
  virtual bool RunOp() = 0;
  // Host-side extras for the traced run after the digest is taken (the
  // launch workload's hardware-model replay); default none.
  virtual void TracedExtras() {}
  // Ops whose simulated state the digest covers: every run does at least
  // this many timed ops, so the digest is independent of host speed.
  virtual uint32_t digest_ops() const = 0;
  // Timed ops per epoch (at least digest_ops), each epoch on a freshly
  // set-up instance; 0 runs one instance for the whole timed phase.
  virtual uint32_t epoch_ops() const { return 0; }
  // The highest percentile op_ms.tail may report (see Tail).
  virtual uint32_t tail_cap() const = 0;
  // Folds workload-side outcomes (beyond the counters) into the digest.
  virtual uint64_t OutcomeHash() const { return 0; }

  std::vector<SystemSlot>& systems() { return systems_; }
  // Per-layer values a workload measures itself (the replay's fetch-line
  // bases), by metric name.
  const std::map<std::string, double>& extra_metrics() const {
    return extra_metrics_;
  }

 protected:
  explicit Workload(Spans* spans) : spans_(spans) {}

  // Boots one system (span core.boot[.label]).
  void Boot(const std::string& label, sat::SystemConfig config);
  // Span `base` suffixed with system `index`'s label.
  Spans::Id SpanFor(const std::string& base, size_t index);

  Spans* spans_;
  std::vector<SystemSlot> systems_;
  std::map<std::string, double> extra_metrics_;
};

// The three workloads; `name` is launch, zygote_churn or mem_pressure.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed, Spans* spans);
const std::vector<std::string>& WorkloadNames();

// The first `count` generated ops of a workload, one line each, without
// running the simulator (the generator-determinism check).
std::vector<std::string> DumpOps(const std::string& name, uint64_t seed,
                                 uint32_t count);

// ---------------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------------

// Median of `values` (0 when empty).
double Median(std::vector<double> values);

// The highest of p99, p90 and p50, at most `cap`, with at least ten
// samples beyond it; `*percentile` receives which. pN is the first sample
// above N% of the samples. With fewer than 20 samples it is the maximum
// (percentile 100).
double Tail(std::vector<double> values, uint32_t cap, double* percentile);

// The end-to-end and per-layer metric names the JSON result line carries,
// in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetricNames();
const std::vector<std::pair<std::string, std::string>>& PerLayerMetricNames();

// FNV-1a over 64-bit words.
class Digest {
 public:
  void Add(uint64_t word);
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ull;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_

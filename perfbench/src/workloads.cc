// The three workloads. Each one splits into a generator (a pure function
// of the seed that emits abstract ops: raw draws, counts, flags) and an
// executor that maps those draws onto one or two booted systems in
// lockstep. The executor never draws randomness of its own, so two
// systems given one op stream receive identical inputs.

#include <algorithm>
#include <deque>
#include <sstream>

#include "perfbench/src/bench.h"

namespace perfbench {

using sat::AccessType;
using sat::ForkOutcome;
using sat::Kernel;
using sat::KernelCounters;
using sat::System;
using sat::SystemConfig;
using sat::Task;
using sat::TouchStatus;
using sat::VirtAddr;

uint64_t DeriveSeed(uint64_t seed, const std::string& purpose) {
  Digest digest;
  digest.Add(seed);
  for (char c : purpose) {
    digest.Add(static_cast<unsigned char>(c));
  }
  return Rng(digest.value()).Next();
}

void Workload::Boot(const std::string& label, SystemConfig config) {
  const size_t index = systems_.size();
  systems_.push_back(SystemSlot{label, nullptr});
  systems_[index].system = spans_->Time(SpanFor("core.boot", index), [&] {
    return std::make_unique<System>(config);
  });
}

Spans::Id Workload::SpanFor(const std::string& base, size_t index) {
  const std::string& label = systems_[index].label;
  return spans_->Get(label.empty() ? base : base + "." + label);
}

namespace {

// A task the workload holds, with the anonymous heap it mapped.
struct Held {
  Task* task = nullptr;
  VirtAddr heap = 0;
  uint32_t heap_pages = 0;
  bool cow_child = false;  // forked from a live app, not the zygote
};

// Held tasks the kernel killed behind the workload's back (OOM killer or
// oops) count as failed ops.
bool Killed(const Held& held) {
  return held.task->oom_killed || held.task->oops_killed;
}

sat::MmapRequest AnonRequest(uint32_t pages, bool mergeable,
                             const char* name) {
  sat::MmapRequest request;
  request.length = pages * sat::kPageSize;
  request.prot = sat::VmProt::ReadWrite();
  request.kind = sat::VmKind::kAnonPrivate;
  request.mergeable = mergeable;
  request.name = name;
  return request;
}

// ---------------------------------------------------------------------------
// launch: repeated cycle-level app launches on stock and on the full
// shared design (global TLB entries, 2 MB-aligned code), in lockstep.
// ---------------------------------------------------------------------------

// The launch generator has one input per op: the round number that
// perturbs LaunchSimulator's trace order (launch content itself comes from
// LaunchParams::seed, derived from the workload seed).
class LaunchWorkload : public Workload {
 public:
  static constexpr uint32_t kWarmupRounds = 3;  // shared PTPs populate
  static constexpr uint32_t kReplayCalls = 120000;

  LaunchWorkload(uint64_t seed, Spans* spans) : Workload(spans), seed_(seed) {
    params_.seed = DeriveSeed(seed, "launch/params");
  }

  void SetUp() override {
    for (const char* key : {"stock", "shared-ptp-tlb-2mb"}) {
      Boot(Label(key), Config(key));
      sims_.emplace_back(&systems_.back().system->android(), params_);
      launch_spans_.push_back(SpanFor("android.launch", systems_.size() - 1));
    }
    for (uint32_t r = 0; r < kWarmupRounds; ++r) {
      RunOp();
    }
  }

  bool RunOp() override {
    bool failed = false;
    for (size_t i = 0; i < systems_.size(); ++i) {
      Kernel& kernel = systems_[i].system->kernel();
      const KernelCounters before = kernel.counters();
      const sat::LaunchResult result = spans_->Time(
          launch_spans_[i], [&] { return sims_[i].LaunchOnce(round_); });
      const KernelCounters delta = kernel.counters() - before;
      // A launch completes when its window ran and nothing was killed.
      if (result.exec_cycles == 0 || delta.oom_kills + delta.oops_kills > 0) {
        failed = true;
      }
      outcome_.Add(result.exec_cycles);
      outcome_.Add(result.icache_stall_cycles);
      outcome_.Add(result.itlb_stall_cycles);
      outcome_.Add(result.file_faults);
      outcome_.Add(result.ptps_allocated);
    }
    round_++;
    return failed;
  }

  // The hardware-model replay: a fresh system per config, one app forked
  // from its zygote, then a fixed seeded batch of FetchBurst/Store calls
  // over the launch path's pages, each timed on its own.
  void TracedExtras() override {
    for (const char* key : {"stock", "shared-ptp-tlb-2mb"}) {
      Boot(Label(key) + "_replay", Config(key));
      const size_t index = systems_.size() - 1;
      System& system = *systems_[index].system;
      const std::string label = Label(key);
      Spans::Id fork_span = spans_->Get("android.fork_app." + label);
      Spans::Id fetch_span = spans_->Get("hw.fetch_burst." + label);
      Spans::Id store_span = spans_->Get("hw.store." + label);

      const ForkOutcome child = spans_->Time(
          fork_span, [&] { return system.android().ForkAppWithStats("replay"); });
      SAT_CHECK(child.ok() && "replay fork failed");
      system.kernel().ScheduleTo(*child.child);
      const sat::LaunchSimulator sim(&system.android(), params_);
      const sat::AppFootprint& path = sim.launch_path();
      const sat::LibraryCatalog& catalog = system.android().catalog();

      sat::Core& core = system.core();
      Rng rng(DeriveSeed(seed_, "launch/replay"));
      const uint64_t lines_before = core.counters().user_inst_lines;
      uint64_t fetch_lines = 0;
      for (uint32_t call = 0; call < kReplayCalls; ++call) {
        const sat::TouchedPage& page = path.pages[rng.Below(
            static_cast<uint32_t>(path.pages.size()))];
        const uint32_t data_pages = catalog.Get(page.lib).data_pages;
        if (rng.Chance(1, 10) && data_pages > 0) {
          const VirtAddr va = system.android().DataPageVa(
              page.lib, page.page_index % data_pages);
          spans_->Time(store_span, [&] { return core.Store(va); });
        } else {
          const VirtAddr va =
              system.android().CodePageVa(page.lib, page.page_index) +
              rng.Below(128) * 32;
          const uint64_t before = core.counters().user_inst_lines;
          spans_->Time(fetch_span,
                       [&] { return core.FetchBurst(va, params_.fetch_burst); });
          fetch_lines += core.counters().user_inst_lines - before;
        }
      }
      SAT_CHECK(core.counters().user_inst_lines - lines_before >= fetch_lines);
      const Spans::Series* fetches = spans_->Find("hw.fetch_burst." + label);
      extra_metrics_["host_ns_per_fetch_line." + label] =
          fetches->busy_s * 1e9 / static_cast<double>(fetch_lines);
      system.kernel().Exit(*child.child);
    }
  }

  uint32_t digest_ops() const override { return 8; }
  // About 45 ops a run: the ladder settles on p50.
  uint32_t tail_cap() const override { return 99; }
  uint64_t OutcomeHash() const override { return outcome_.value(); }

 private:
  static std::string Label(const std::string& key) {
    return key == "stock" ? "stock" : "shared";
  }
  SystemConfig Config(const char* key) const {
    SystemConfig config = sat::ConfigByName(key);
    config.seed = DeriveSeed(seed_, "launch/system");
    return config;
  }

  uint64_t seed_;
  sat::LaunchParams params_;
  std::vector<sat::LaunchSimulator> sims_;
  std::vector<Spans::Id> launch_spans_;
  uint32_t round_ = 0;
  Digest outcome_;
};

// ---------------------------------------------------------------------------
// zygote_churn: app lifecycles (fork, map, touch, unshare, write, exit)
// on stock and on shared PTPs + TLB, in lockstep.
// ---------------------------------------------------------------------------

struct ChurnOp {
  bool cow_fork = false;     // fork from a live app instead of the zygote
  uint32_t parent_draw = 0;  // which live app (mod the live count)
  uint32_t heap_pages = 0;
  std::vector<uint32_t> code_draws;  // inherited zygote code pages
  std::vector<uint32_t> data_draws;  // (lib, page) library data pages
  uint64_t value_base = 0;           // content stamps of the heap writes
};

class ChurnGenerator {
 public:
  static constexpr uint32_t kCowPercent = 20;
  static constexpr uint32_t kCodeTouches = 64;
  static constexpr uint32_t kDataWrites = 3;

  explicit ChurnGenerator(uint64_t seed)
      : rng_(DeriveSeed(seed, "zygote_churn/ops")) {}

  ChurnOp Next() {
    ChurnOp op;
    op.cow_fork = rng_.Chance(kCowPercent, 100);
    op.parent_draw = rng_.Below(1u << 30);
    op.heap_pages = 48 + rng_.Below(97);
    for (uint32_t i = 0; i < kCodeTouches; ++i) {
      op.code_draws.push_back(rng_.Below(1u << 30));
    }
    for (uint32_t i = 0; i < kDataWrites; ++i) {
      op.data_draws.push_back(rng_.Below(1u << 30));
    }
    op.value_base = rng_.Next();
    return op;
  }

  static std::string Describe(const ChurnOp& op) {
    std::ostringstream out;
    out << (op.cow_fork ? "cow" : "zygote") << " parent=" << op.parent_draw
        << " heap=" << op.heap_pages << " code=";
    for (uint32_t draw : op.code_draws) {
      out << draw << ",";
    }
    out << " data=";
    for (uint32_t draw : op.data_draws) {
      out << draw << ",";
    }
    out << " value=" << op.value_base;
    return out.str();
  }

 private:
  Rng rng_;
};

class ZygoteChurnWorkload : public Workload {
 public:
  // Live apps per system: far below the ~250 ASIDs, so the kernel never
  // runs out of ASIDs while lifecycles wrap the ASID space many times.
  static constexpr uint32_t kLiveCap = 48;

  ZygoteChurnWorkload(uint64_t seed, Spans* spans)
      : Workload(spans), seed_(seed), generator_(seed) {}

  void SetUp() override {
    for (const char* key : {"stock", "shared-ptp-tlb"}) {
      SystemConfig config = sat::ConfigByName(key);
      config.seed = DeriveSeed(seed_, "zygote_churn/system");
      Boot(key == std::string("stock") ? "stock" : "shared", config);
      const size_t i = systems_.size() - 1;
      per_system_.push_back(PerSystem{
          {},
          SpanFor("android.fork_app", i),
          SpanFor("proc.fork", i),
          SpanFor("proc.mmap", i),
          SpanFor("proc.touch", i),
          SpanFor("proc.write", i),
          SpanFor("proc.exit", i),
      });
    }
    // Zygote code pages and library data pages the ops draw from; the
    // same on both systems (same catalog, same SystemConfig::seed).
    sat::ZygoteSystem& android = systems_[0].system->android();
    for (const sat::TouchedPage& page :
         android.zygote_boot_footprint().pages) {
      code_pages_.push_back({page.lib, page.page_index});
    }
    for (sat::LibraryId lib : android.catalog().ZygotePreloadSet()) {
      const uint32_t data_pages = android.catalog().Get(lib).data_pages;
      for (uint32_t p = 0; p < data_pages; ++p) {
        data_pages_.push_back({lib, p});
      }
    }
    // Warm-up: fill every system to the live cap.
    for (uint32_t i = 0; i < kLiveCap; ++i) {
      RunOp();
    }
  }

  bool RunOp() override {
    const ChurnOp op = generator_.Next();
    bool failed = false;
    for (size_t i = 0; i < systems_.size(); ++i) {
      if (!Lifecycle(i, op)) {
        failed = true;
      }
    }
    outcome_.Add(failed);
    return failed;
  }

  uint32_t digest_ops() const override { return 500; }
  // Exited tasks stay in the kernel's task table, which
  // Kernel::SharerMaskFor and other paths walk, and one instance slows
  // down as it ages; an epoch is this many lifecycles on fresh systems.
  uint32_t epoch_ops() const override { return 500; }
  // The top 1% mixes ASID-rollover flushes with host stalls and does not
  // repeat from run to run.
  uint32_t tail_cap() const override { return 90; }
  uint64_t OutcomeHash() const override { return outcome_.value(); }

 private:
  struct PerSystem {
    std::deque<Held> live;
    Spans::Id fork_app, fork, mmap, touch, write, exit;
  };
  struct PageRef {
    sat::LibraryId lib;
    uint32_t page;
  };

  // One app lifecycle on system `i`; false when any step failed.
  bool Lifecycle(size_t i, const ChurnOp& op) {
    System& system = *systems_[i].system;
    Kernel& kernel = system.kernel();
    PerSystem& ps = per_system_[i];
    bool ok = true;

    Held child;
    const Held* parent = nullptr;
    ForkOutcome fork;
    // COW parents are zygote children only (the first at or after the
    // drawn slot), so address spaces never grow down a chain of forks.
    for (size_t n = 0; op.cow_fork && n < ps.live.size(); ++n) {
      const Held& candidate =
          ps.live[(op.parent_draw + n) % ps.live.size()];
      if (!candidate.cow_child) {
        parent = &candidate;
        break;
      }
    }
    if (parent != nullptr) {
      if (!parent->task->alive) {
        return false;
      }
      child.cow_child = true;
      fork = spans_->Time(ps.fork,
                          [&] { return kernel.Fork(*parent->task, "cow"); });
    } else {
      fork = spans_->Time(ps.fork_app, [&] {
        return system.android().ForkAppWithStats("app");
      });
    }
    if (fork.ok()) {
      child.task = fork.child;
      ok = Populate(system, ps, op, parent, &child);
      ps.live.push_back(child);
    } else {
      ok = false;
    }

    while (ps.live.size() > kLiveCap) {
      const Held oldest = ps.live.front();
      ps.live.pop_front();
      if (!oldest.task->alive) {
        ok = ok && !Killed(oldest);
        continue;
      }
      spans_->Time(ps.exit, [&] { kernel.Exit(*oldest.task); });
    }
    return ok;
  }

  bool Populate(System& system, PerSystem& ps, const ChurnOp& op,
                const Held* parent, Held* child) {
    Kernel& kernel = system.kernel();
    Task& task = *child->task;
    const auto mapped = spans_->Time(ps.mmap, [&] {
      return kernel.Mmap(task, AnonRequest(op.heap_pages, false, "heap"));
    });
    if (!mapped.ok()) {
      return false;
    }
    child->heap = mapped.value;
    child->heap_pages = op.heap_pages;

    bool ok = true;
    auto check = [&](TouchStatus status) { ok = ok && status == TouchStatus::kOk; };
    for (uint32_t draw : op.code_draws) {
      const PageRef& page = code_pages_[draw % code_pages_.size()];
      const VirtAddr va = system.android().CodePageVa(page.lib, page.page);
      check(spans_->Time(ps.touch, [&] {
        return kernel.TouchPageStatus(task, va, AccessType::kExecute);
      }));
    }
    for (uint32_t draw : op.data_draws) {
      const PageRef& page = data_pages_[draw % data_pages_.size()];
      const VirtAddr va = system.android().DataPageVa(page.lib, page.page);
      check(spans_->Time(ps.write, [&] {
        return kernel.WritePage(task, va, op.value_base ^ draw);
      }));
    }
    // A child forked from a live app rewrites the first half of the heap
    // it inherited: copy-on-write faults.
    if (parent != nullptr) {
      for (uint32_t p = 0; p < parent->heap_pages / 2 && task.alive; ++p) {
        const VirtAddr va = parent->heap + p * sat::kPageSize;
        check(spans_->Time(ps.write, [&] {
          return kernel.WritePage(task, va, op.value_base + p);
        }));
      }
    }
    for (uint32_t p = 0; p < op.heap_pages && task.alive; ++p) {
      const VirtAddr va = child->heap + p * sat::kPageSize;
      check(spans_->Time(ps.write, [&] {
        return kernel.WritePage(task, va, op.value_base + p);
      }));
    }
    return ok && task.alive;
  }

  uint64_t seed_;
  ChurnGenerator generator_;
  std::vector<PerSystem> per_system_;
  std::vector<PageRef> code_pages_;
  std::vector<PageRef> data_pages_;
  Digest outcome_;
};

// ---------------------------------------------------------------------------
// mem_pressure: zygote-forked processes whose anonymous working sets are
// about 1.8x DRAM, under kswapd/zram, ksmd, huged and scrubd passes.
//
// SystemConfig::huge stays off: it pins 1 MB copies of the zygote's code
// at boot, which a 72 MB machine cannot spare, and huged passes during
// the warm-up fill OOM-kill workers. huged runs from the first timed op.
// ---------------------------------------------------------------------------

struct PressureOp {
  uint32_t process = 0;
  uint32_t window = 0;  // start of the page window the batch walks
  std::vector<uint32_t> offsets;    // page offset within the window
  std::vector<uint8_t> writes;      // 1 = WritePage, 0 = read touch
  std::vector<uint32_t> contents;   // content draws for the writes
  bool daemons = false;             // run the ksm/huge/scrub passes after
};

constexpr uint32_t kPressureProcesses = 8;  // half of them MERGEABLE
constexpr uint32_t kPressurePages = 4096;    // 16 MB each: 128 MB in all
constexpr uint32_t kPressureBatch = 48;
constexpr uint32_t kPressureWindow = 512;
constexpr uint32_t kPressureContentSet = 16;  // values of MERGEABLE pages
constexpr uint32_t kDaemonEvery = 16;  // ops between daemon passes
constexpr uint32_t kWarmupDaemonEvery = 64;

class PressureGenerator {
 public:
  explicit PressureGenerator(uint64_t seed)
      : rng_(DeriveSeed(seed, "mem_pressure/ops")) {}

  PressureOp Next() {
    PressureOp op;
    op.process = rng_.Below(kPressureProcesses);
    op.window = rng_.Below(kPressurePages);
    for (uint32_t i = 0; i < kPressureBatch; ++i) {
      op.offsets.push_back(rng_.Below(kPressureWindow));
      op.writes.push_back(rng_.Chance(2, 3) ? 1 : 0);
      op.contents.push_back(rng_.Below(1u << 30));
    }
    op.daemons = (++count_ % kDaemonEvery) == 0;
    return op;
  }

  static std::string Describe(const PressureOp& op) {
    std::ostringstream out;
    out << "proc=" << op.process << " window=" << op.window << " ops=";
    for (size_t i = 0; i < op.offsets.size(); ++i) {
      out << (op.writes[i] ? "w" : "r") << op.offsets[i] << ":"
          << op.contents[i] << ",";
    }
    out << (op.daemons ? " daemons" : "");
    return out.str();
  }

 private:
  Rng rng_;
  uint64_t count_ = 0;
};

class MemPressureWorkload : public Workload {
 public:
  MemPressureWorkload(uint64_t seed, Spans* spans)
      : Workload(spans), seed_(seed), generator_(seed) {}

  void SetUp() override {
    SystemConfig config = sat::ConfigByName("shared-ptp");
    config.phys_bytes = 72ull << 20;
    config.swap_bytes = 192ull << 20;
    config.ksm = true;
    config.huge = false;
    config.scrub = true;
    config.seed = DeriveSeed(seed_, "mem_pressure/system");
    Boot("", config);
    System& system = *systems_[0].system;
    Kernel& kernel = system.kernel();
    fork_app_ = SpanFor("android.fork_app", 0);
    mmap_ = SpanFor("proc.mmap", 0);
    touch_ = SpanFor("proc.touch", 0);
    write_ = SpanFor("proc.write", 0);
    ksm_ = SpanFor("ksm.scan", 0);
    huge_ = SpanFor("huge.scan", 0);
    scrub_ = SpanFor("scrub.pass", 0);
    schedule_ = SpanFor("proc.schedule", 0);

    Rng rng(DeriveSeed(seed_, "mem_pressure/contents"));
    for (uint32_t p = 0; p < kPressureProcesses; ++p) {
      const ForkOutcome fork = spans_->Time(fork_app_, [&] {
        return system.android().ForkAppWithStats("worker");
      });
      SAT_CHECK(fork.ok() && "mem_pressure: worker fork failed");
      const bool mergeable = p % 2 == 0;
      const auto mapped = spans_->Time(mmap_, [&] {
        return kernel.Mmap(*fork.child,
                           AnonRequest(kPressurePages, mergeable, "heap"));
      });
      SAT_CHECK(mapped.ok() && "mem_pressure: heap mmap failed");
      workers_.push_back(Worker{{fork.child, mapped.value, kPressurePages},
                                mergeable, rng.Next()});
    }
    // Warm-up: every worker writes its whole working set once, which
    // pushes the machine into steady swap.
    for (uint32_t page = 0; page < kPressurePages; ++page) {
      for (Worker& worker : workers_) {
        Write(worker, page, rng.Below(1u << 30));
      }
      if (page % kWarmupDaemonEvery == kWarmupDaemonEvery - 1) {
        spans_->Time(ksm_, [&] { return kernel.RunKsmScan(); });
        spans_->Time(scrub_, [&] { return kernel.RunScrubPass(); });
      }
    }
  }

  bool RunOp() override {
    const PressureOp op = generator_.Next();
    Worker& worker = workers_[op.process];
    bool failed = false;
    if (worker.held.task->alive) {
      Kernel& kernel = systems_[0].system->kernel();
      spans_->Time(schedule_, [&] { kernel.ScheduleTo(*worker.held.task); });
    }
    for (size_t i = 0; i < op.offsets.size(); ++i) {
      if (!worker.held.task->alive) {
        break;
      }
      const uint32_t page = (op.window + op.offsets[i]) % kPressurePages;
      const TouchStatus status =
          op.writes[i] ? Write(worker, page, op.contents[i]) : Read(worker, page);
      if (status != TouchStatus::kOk) {
        failed = true;
      }
    }
    if (!worker.held.task->alive) {
      failed = true;
    }
    if (op.daemons) {
      RunDaemons();
    }
    outcome_.Add(failed);
    return failed;
  }

  uint32_t digest_ops() const override { return 1200; }
  // 100 daemon rounds on a freshly filled system per epoch; p99 of its
  // ops has 16 beyond it, all daemon rounds.
  uint32_t epoch_ops() const override { return 1600; }
  // One op in 16 carries the daemon passes; p99 lands among them.
  uint32_t tail_cap() const override { return 99; }
  uint64_t OutcomeHash() const override { return outcome_.value(); }

 private:
  struct Worker {
    Held held;
    bool mergeable = false;
    uint64_t content_base = 0;
  };

  TouchStatus Write(Worker& worker, uint32_t page, uint32_t draw) {
    // MERGEABLE workers draw from a small content set, so ksmd finds
    // duplicates; the rest stamp per-page content that stays stable
    // across rewrites (clean swap-cache hits stay possible).
    const uint64_t value =
        worker.mergeable ? 0xC0FFEE00ull + draw % kPressureContentSet
                         : worker.content_base + page;
    Task& task = *worker.held.task;
    const VirtAddr va = worker.held.heap + page * sat::kPageSize;
    Kernel& kernel = systems_[0].system->kernel();
    return spans_->Time(write_, [&] { return kernel.WritePage(task, va, value); });
  }

  TouchStatus Read(Worker& worker, uint32_t page) {
    Task& task = *worker.held.task;
    const VirtAddr va = worker.held.heap + page * sat::kPageSize;
    Kernel& kernel = systems_[0].system->kernel();
    return spans_->Time(touch_, [&] {
      return kernel.TouchPageStatus(task, va, AccessType::kRead);
    });
  }

  void RunDaemons() {
    Kernel& kernel = systems_[0].system->kernel();
    spans_->Time(ksm_, [&] { return kernel.RunKsmScan(); });
    spans_->Time(huge_, [&] { return kernel.RunHugeScan(); });
    spans_->Time(scrub_, [&] { return kernel.RunScrubPass(); });
  }

  uint64_t seed_;
  PressureGenerator generator_;
  std::vector<Worker> workers_;
  Spans::Id fork_app_ = 0, mmap_ = 0, touch_ = 0, write_ = 0;
  Spans::Id ksm_ = 0, huge_ = 0, scrub_ = 0, schedule_ = 0;
  Digest outcome_;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"launch", "zygote_churn",
                                                 "mem_pressure"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed, Spans* spans) {
  if (name == "launch") {
    return std::make_unique<LaunchWorkload>(seed, spans);
  }
  if (name == "zygote_churn") {
    return std::make_unique<ZygoteChurnWorkload>(seed, spans);
  }
  if (name == "mem_pressure") {
    return std::make_unique<MemPressureWorkload>(seed, spans);
  }
  return nullptr;
}

std::vector<std::string> DumpOps(const std::string& name, uint64_t seed,
                                 uint32_t count) {
  std::vector<std::string> lines;
  if (name == "launch") {
    // One input per op: the round, after the warm-up rounds, with launch
    // content keyed by the derived LaunchParams::seed.
    const uint64_t params_seed = DeriveSeed(seed, "launch/params");
    for (uint32_t i = 0; i < count; ++i) {
      lines.push_back("params_seed=" + std::to_string(params_seed) +
                      " round=" +
                      std::to_string(LaunchWorkload::kWarmupRounds + i));
    }
  } else if (name == "zygote_churn") {
    ChurnGenerator generator(seed);
    for (uint32_t i = 0; i < count; ++i) {
      lines.push_back(ChurnGenerator::Describe(generator.Next()));
    }
  } else if (name == "mem_pressure") {
    PressureGenerator generator(seed);
    for (uint32_t i = 0; i < count; ++i) {
      lines.push_back(PressureGenerator::Describe(generator.Next()));
    }
  }
  return lines;
}

}  // namespace perfbench

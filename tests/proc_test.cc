// Unit tests for the process layer: task lifecycle, zygote flags and DACR
// propagation, the kernel's mmap policy, TouchPage semantics, ASID
// management, and the scheduler's grouping policy.

#include <gtest/gtest.h>

#include <vector>

#include "src/proc/kernel.h"
#include "src/proc/scheduler.h"

namespace sat {
namespace {

SystemConfig SharedParams() {
  SystemConfig params;
  params.vm = {.share_ptps = true, .share_tlb_global = true};
  return params;
}

MmapRequest AnonRequest(VirtAddr at, uint32_t pages, bool stack = false) {
  MmapRequest request;
  request.length = pages * kPageSize;
  request.prot = VmProt::ReadWrite();
  request.kind = VmKind::kAnonPrivate;
  request.fixed_address = at;
  request.is_stack = stack;
  return request;
}

MmapRequest CodeRequest(VirtAddr at, uint32_t pages, FileId file) {
  MmapRequest request;
  request.length = pages * kPageSize;
  request.prot = VmProt::ReadExec();
  request.kind = VmKind::kFilePrivate;
  request.file = file;
  request.fixed_address = at;
  return request;
}

TEST(KernelTest, CreateTaskAssignsPidAndAsid) {
  Kernel kernel{SystemConfig{}};
  Task* a = kernel.CreateTask("a");
  Task* b = kernel.CreateTask("b");
  EXPECT_NE(a->pid, b->pid);
  EXPECT_NE(a->asid, b->asid);
  EXPECT_FALSE(a->IsZygoteLike());
}

TEST(KernelTest, ExecSetsZygoteFlagAndDomain) {
  Kernel kernel{SystemConfig{}};
  Task* task = kernel.CreateTask("init");
  kernel.Exec(*task, "app_process", /*is_zygote=*/true);
  EXPECT_TRUE(task->zygote);
  EXPECT_FALSE(task->zygote_child);
  EXPECT_EQ(task->dacr.Get(kDomainZygote), DomainAccess::kClient);
  EXPECT_EQ(task->mm->user_domain(), kDomainZygote);
}

TEST(KernelTest, ForkPropagatesZygoteChildFlag) {
  Kernel kernel{SystemConfig{}};
  Task* init = kernel.CreateTask("init");
  Task* zygote = kernel.Fork(*init, "zygote").child;
  kernel.Exec(*zygote, "app_process", true);
  Task* app = kernel.Fork(*zygote, "app").child;
  EXPECT_TRUE(app->zygote_child);
  EXPECT_FALSE(app->zygote);
  EXPECT_TRUE(app->IsZygoteLike());
  EXPECT_EQ(app->dacr.Get(kDomainZygote), DomainAccess::kClient);
  EXPECT_EQ(app->mm->user_domain(), kDomainZygote);

  // Grandchildren keep the flag.
  Task* grandchild = kernel.Fork(*app, "svc").child;
  EXPECT_TRUE(grandchild->zygote_child);

  // Children of plain processes do not acquire it.
  Task* plain = kernel.Fork(*init, "daemon").child;
  EXPECT_FALSE(plain->IsZygoteLike());
  EXPECT_EQ(plain->mm->user_domain(), kDomainUser);
}

TEST(KernelTest, ZygoteMmapOfCodeIsMarkedGlobalAndPreloaded) {
  Kernel kernel{SharedParams()};
  Task* zygote = kernel.CreateTask("zygote");
  kernel.Exec(*zygote, "app_process", true);

  kernel.Mmap(*zygote, CodeRequest(0x40000000, 4, 7));
  const VmArea* code = zygote->mm->FindVma(0x40000000);
  ASSERT_NE(code, nullptr);
  EXPECT_TRUE(code->global);
  EXPECT_TRUE(code->zygote_preloaded);

  // Data (non-executable) is preloaded but not global.
  MmapRequest data = AnonRequest(0x40400000, 4);
  data.kind = VmKind::kFilePrivate;
  data.file = 7;
  kernel.Mmap(*zygote, data);
  const VmArea* data_vma = zygote->mm->FindVma(0x40400000);
  EXPECT_FALSE(data_vma->global);
  EXPECT_TRUE(data_vma->zygote_preloaded);

  // Non-zygote mmaps of code get neither.
  Task* plain = kernel.CreateTask("plain");
  kernel.Mmap(*plain, CodeRequest(0x40000000, 4, 8));
  EXPECT_FALSE(plain->mm->FindVma(0x40000000)->global);
  EXPECT_FALSE(plain->mm->FindVma(0x40000000)->zygote_preloaded);
}

TEST(KernelTest, TouchPageFaultsOnceThenNot) {
  Kernel kernel{SystemConfig{}};
  Task* task = kernel.CreateTask("t");
  kernel.Mmap(*task, CodeRequest(0x40000000, 2, 7));
  EXPECT_TRUE(kernel.TouchPage(*task, 0x40000000, AccessType::kExecute));
  EXPECT_EQ(kernel.counters().faults_file_backed, 1u);
  EXPECT_TRUE(kernel.TouchPage(*task, 0x40000000, AccessType::kExecute));
  EXPECT_EQ(kernel.counters().faults_file_backed, 1u);
  EXPECT_FALSE(kernel.TouchPage(*task, 0x70000000, AccessType::kRead));
}

TEST(KernelTest, TouchPageWriteUpgradesThroughCow) {
  Kernel kernel{SystemConfig{}};
  Task* task = kernel.CreateTask("t");
  kernel.Mmap(*task, AnonRequest(0x50000000, 2));
  EXPECT_TRUE(kernel.TouchPage(*task, 0x50000000, AccessType::kRead));
  EXPECT_TRUE(kernel.TouchPage(*task, 0x50000000, AccessType::kWrite));
  const auto ref = task->mm->page_table().FindPte(0x50000000);
  EXPECT_EQ(ref->ptp->hw(ref->index).perm(), PtePerm::kReadWrite);
}

TEST(KernelTest, SharedForkThenTouchSharesSoftFaults) {
  Kernel kernel{SharedParams()};
  Task* zygote = kernel.CreateTask("zygote");
  kernel.Exec(*zygote, "app_process", true);
  kernel.Mmap(*zygote, CodeRequest(0x40000000, 8, 7));
  kernel.TouchPage(*zygote, 0x40000000, AccessType::kExecute);

  Task* app = kernel.Fork(*zygote, "app").child;
  // The PTE populated by the zygote is inherited: no fault.
  const uint64_t faults = kernel.counters().faults_file_backed;
  EXPECT_TRUE(kernel.TouchPage(*app, 0x40000000, AccessType::kExecute));
  EXPECT_EQ(kernel.counters().faults_file_backed, faults);

  // A page the app faults in becomes visible to a *later* fork.
  kernel.TouchPage(*app, 0x40001000, AccessType::kExecute);
  Task* app2 = kernel.Fork(*zygote, "app2").child;
  const uint64_t faults2 = kernel.counters().faults_file_backed;
  EXPECT_TRUE(kernel.TouchPage(*app2, 0x40001000, AccessType::kExecute));
  EXPECT_EQ(kernel.counters().faults_file_backed, faults2);
}

TEST(KernelTest, ExitFreesSharedPtpsByRefcount) {
  Kernel kernel{SharedParams()};
  Task* zygote = kernel.CreateTask("zygote");
  kernel.Exec(*zygote, "app_process", true);
  kernel.Mmap(*zygote, CodeRequest(0x40000000, 8, 7));
  kernel.TouchPage(*zygote, 0x40000000, AccessType::kExecute);

  const uint64_t live_before = kernel.ptp_allocator().live_ptps();
  Task* app = kernel.Fork(*zygote, "app").child;
  EXPECT_EQ(kernel.ptp_allocator().live_ptps(), live_before);  // shared
  kernel.Exit(*app);
  EXPECT_EQ(kernel.ptp_allocator().live_ptps(), live_before);
  EXPECT_FALSE(app->alive);
}

// Exit frees the dead task's address space: after a fork/exit churn every
// dead task record has a null mm, and the survivors (whose page tables the
// dead shared) still audit clean.
TEST(KernelTest, ExitFreesTheMmOfEveryDeadTask) {
  Kernel kernel{SharedParams()};
  Task* zygote = kernel.CreateTask("zygote");
  kernel.Exec(*zygote, "app_process", true);
  kernel.Mmap(*zygote, CodeRequest(0x40000000, 8, 7));
  kernel.Mmap(*zygote, AnonRequest(0xB0000000, 8, /*stack=*/true));
  kernel.TouchPage(*zygote, 0x40000000, AccessType::kExecute);
  kernel.TouchPage(*zygote, 0xB0000000, AccessType::kWrite);

  std::vector<Task*> live;
  for (uint32_t i = 0; i < 60; ++i) {
    Task* parent = live.empty() || i % 3 == 0 ? zygote : live.back();
    Task* child = kernel.Fork(*parent, "app" + std::to_string(i)).child;
    ASSERT_NE(child, nullptr);
    kernel.TouchPage(*child, 0x40000000 + (i % 8) * kPageSize,
                     AccessType::kExecute);
    kernel.TouchPage(*child, 0xB0000000 + (i % 8) * kPageSize,
                     AccessType::kWrite);
    live.push_back(child);
    if (i % 2 == 1) {
      // Exit an older task, often the parent of a live child.
      Task* victim = live[live.size() / 2];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(live.size() / 2));
      kernel.Exit(*victim);
    }
  }
  uint32_t dead = 0;
  for (const auto& task : kernel.tasks()) {
    if (!task->alive) {
      dead++;
      EXPECT_EQ(task->mm, nullptr) << "pid " << task->pid;
    } else {
      EXPECT_NE(task->mm, nullptr) << "pid " << task->pid;
    }
  }
  EXPECT_EQ(dead, 30u);
  const AuditReport report = kernel.AuditInvariants();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(KernelTest, LastForkResultExposesTable4Stats) {
  Kernel kernel{SharedParams()};
  Task* zygote = kernel.CreateTask("zygote");
  kernel.Exec(*zygote, "app_process", true);
  kernel.Mmap(*zygote, CodeRequest(0x40000000, 8, 7));
  kernel.Mmap(*zygote, AnonRequest(0xB0000000, 8, /*stack=*/true));
  kernel.TouchPage(*zygote, 0x40000000, AccessType::kExecute);
  kernel.TouchPage(*zygote, 0xB0000000, AccessType::kWrite);

  const ForkResult result = kernel.Fork(*zygote, "app").stats;
  EXPECT_EQ(result.slots_shared, 1u);           // the code slot
  EXPECT_EQ(result.ptes_copied, 1u);            // the stack page
  EXPECT_EQ(result.child_ptps_allocated, 1u);   // the stack PTP
  EXPECT_GT(result.cycles, 0u);
}

// Regression: the old rollover reset next_asid_ to 1 and reissued ASIDs
// still held by live tasks, so the 256th allocation aliased a live
// address space (two tasks sharing one ASID can hit each other's TLB
// entries). The allocator must skip live ASIDs across the wrap.
TEST(KernelTest, AsidRolloverSkipsLiveTasks) {
  Kernel kernel{SystemConfig{}};
  Task* keeper = kernel.CreateTask("keeper");
  const Asid kept = keeper->asid;
  // 300 short-lived tasks push the 8-bit ASID space around the horn
  // while `keeper` stays alive holding the first ASID.
  for (int i = 0; i < 300; ++i) {
    Task* t = kernel.CreateTask(std::string("t").append(std::to_string(i)));
    ASSERT_NE(t->asid, kept) << "live ASID reissued at iteration " << i;
    ASSERT_NE(t->asid, 0);
    kernel.Exit(*t);
  }
  // The wrap flushed a generation and the survivor kept its ASID.
  EXPECT_GE(kernel.counters().tlb_full_flushes, 1u);
  EXPECT_EQ(keeper->asid, kept);
  const AuditReport report = kernel.AuditInvariants();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// The periodic daemons (ksmd, scrubd, huged, numad) tick from one table
// on kswapd's wake points, in that order. Machine for both tests below:
// two nodes, every daemon enabled.
SystemConfig AllDaemonsConfig(uint32_t ksm, uint32_t scrub, uint32_t huge,
                              uint32_t numad) {
  SystemConfig config = SharedParams();
  config.phys_bytes = 32ull << 20;
  config.num_cores = 4;
  config.num_nodes = 2;
  config.pt_placement = PtPlacement::kReplicate;
  config.numad_remote_threshold = 2;
  config.ksm = true;
  config.ksm_wake_interval = ksm;
  config.scrub = true;
  config.scrub_wake_interval = scrub;
  config.huge = true;
  config.huge_wake_interval = huge;
  config.numad_wake_interval = numad;
  return config;
}

// ksmd, huged and numad all fire on wake-up 40, and each outcome shows
// who went first: ksmd's merge makes block A ineligible for huged (a
// huged-first order would collapse A and leave nothing to merge), and
// huged's collapse of block B lands before numad replicates their PTP (a
// numad-first order would mirror the collapse's 16 PTE writes into the
// new replica). scrubd finds nothing to repair on a healthy machine, so
// its slot is not observable here.
TEST(KernelDaemonTest, PeriodicDaemonsFireInTableOrder) {
  Kernel kernel(AllDaemonsConfig(/*ksm=*/20, /*scrub=*/40, /*huge=*/40,
                                 /*numad=*/40));
  Task* task = kernel.CreateTask("t");
  kernel.ScheduleTo(*task, 0);
  constexpr VirtAddr kBlockA = 0x40000000;  // mergeable; pages 0 and 1 equal
  constexpr VirtAddr kBlockB = 0x40010000;  // distinct content
  MmapRequest mergeable = AnonRequest(kBlockA, kPtesPerLargePage);
  mergeable.mergeable = true;
  ASSERT_TRUE(kernel.Mmap(*task, mergeable).ok());
  ASSERT_TRUE(kernel.Mmap(*task, AnonRequest(kBlockB, kPtesPerLargePage)).ok());
  uint32_t wakes = 2;  // the two mmaps
  for (uint32_t i = 0; i < kPtesPerLargePage; ++i) {
    kernel.WritePage(*task, kBlockA + i * kPageSize, i < 2 ? 7 : 100 + i);
    kernel.WritePage(*task, kBlockB + i * kPageSize, 200 + i);
    wakes += 2;
  }
  // Node-1 reads make the PTP hot remotely; ksmd's first pass (wake 20)
  // has recorded block A's checksums by now.
  kernel.ScheduleTo(*task, 2);
  while (wakes < 39) {
    ASSERT_TRUE(kernel.TouchPage(*task, kBlockA + 2 * kPageSize,
                                 AccessType::kRead));
    ++wakes;
  }
  const KernelCounters& counters = kernel.counters();
  ASSERT_EQ(counters.ksm_scans, 1u);
  ASSERT_EQ(counters.huge_scans + counters.numad_runs, 0u);

  ASSERT_TRUE(kernel.TouchPage(*task, kBlockA + 2 * kPageSize,
                               AccessType::kRead));  // wake-up 40
  EXPECT_EQ(counters.ksm_scans, 2u);
  EXPECT_EQ(counters.scrub_runs, 1u);
  EXPECT_EQ(counters.huge_scans, 1u);
  EXPECT_EQ(counters.numad_runs, 1u);
  EXPECT_EQ(counters.ksm_pages_merged, 1u);
  EXPECT_EQ(counters.huge_collapses, 1u);
  EXPECT_EQ(counters.numa_replica_promotions, 1u);
  EXPECT_EQ(counters.numa_replica_updates, 0u);
  const AuditReport report = kernel.AuditInvariants();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// All four daemons together at co-prime intervals under a fixed op mix.
// The pass counts and the merge/collapse/split/promotion outcomes are
// pinned, so a change to the firing order or the tick rule shows up here.
TEST(KernelDaemonTest, PeriodicDaemonsKeepTheirCountsUnderAnOpMix) {
  Kernel kernel(AllDaemonsConfig(/*ksm=*/3, /*scrub=*/5, /*huge=*/7,
                                 /*numad=*/11));
  Task* root = kernel.CreateTask("root");
  MmapRequest mergeable = AnonRequest(0x40000000, 32);
  mergeable.mergeable = true;
  ASSERT_TRUE(kernel.Mmap(*root, mergeable).ok());
  ASSERT_TRUE(kernel.Mmap(*root, AnonRequest(0x50000000, 64)).ok());

  // A fixed LCG rather than <random>: the sequence must not depend on the
  // standard library's distributions.
  uint32_t state = 12345;
  const auto next = [&state](uint32_t bound) {
    state = state * 1103515245u + 12345u;
    return (state >> 16) % bound;
  };
  std::vector<Task*> tasks{root};
  for (uint32_t op = 0; op < 2000; ++op) {
    Task& task = *tasks[next(static_cast<uint32_t>(tasks.size()))];
    kernel.ScheduleTo(task, next(4));
    switch (next(4)) {
      case 0:  // few distinct values: ksmd merges
        kernel.WritePage(task, 0x40000000 + next(32) * kPageSize, next(3));
        break;
      case 1:  // distinct values: huged collapses filled 64 KB runs
        kernel.WritePage(task, 0x50000000 + next(64) * kPageSize, 1000 + op);
        break;
      case 2:
        kernel.TouchPage(task, 0x50000000 + next(64) * kPageSize,
                         AccessType::kRead);
        break;
      default:
        if (op % 97 == 0 && tasks.size() < 4) {
          tasks.push_back(kernel.Fork(task, "child").child);
        } else {
          kernel.TouchPage(task, 0x40000000 + next(32) * kPageSize,
                           AccessType::kRead);
        }
        break;
    }
  }

  const KernelCounters& counters = kernel.counters();
  EXPECT_EQ(counters.ksm_scans, 667u);
  EXPECT_EQ(counters.scrub_runs, 400u);
  EXPECT_EQ(counters.huge_scans, 286u);
  EXPECT_EQ(counters.numad_runs, 182u);
  EXPECT_EQ(counters.ksm_pages_merged, 500u);
  EXPECT_EQ(counters.huge_collapses, 4u);
  EXPECT_EQ(counters.huge_splits, 6u);
  EXPECT_EQ(counters.numa_replica_promotions, 8u);
  const AuditReport report = kernel.AuditInvariants();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// One default per knob: a bare Kernel built from SystemConfig{} with scrub
// on runs its first periodic scrub pass at wake-up 1024, the same cadence
// a System gets.
TEST(KernelDaemonTest, DefaultScrubIntervalIsTheSystemDefault) {
  SystemConfig config;
  config.scrub = true;
  Kernel kernel(config);
  Task* task = kernel.CreateTask("t");
  ASSERT_TRUE(kernel.Mmap(*task, AnonRequest(0x40000000, 1)).ok());
  uint32_t wakes = 1;  // the mmap's
  while (kernel.counters().scrub_runs == 0 && wakes < 4096) {
    ASSERT_TRUE(kernel.TouchPage(*task, 0x40000000, AccessType::kRead));
    ++wakes;
  }
  EXPECT_EQ(wakes, 1024u);
}

TEST(SchedulerTest, RoundRobinCyclesThroughTasks) {
  Kernel kernel{SystemConfig{}};
  Task* a = kernel.CreateTask("a");
  Task* b = kernel.CreateTask("b");
  Scheduler scheduler(&kernel, /*group_zygote_like=*/false);
  scheduler.AddTask(a);
  scheduler.AddTask(b);
  Task* first = scheduler.RunQuantum();
  Task* second = scheduler.RunQuantum();
  EXPECT_NE(first, second);
  EXPECT_EQ(scheduler.stats().switches, 2u);
}

TEST(SchedulerTest, GroupingReducesCrossGroupSwitches) {
  auto run = [](bool grouped) {
    Kernel kernel{SystemConfig{}};
    Task* init = kernel.CreateTask("init");
    Task* zygote = kernel.Fork(*init, "zygote").child;
    kernel.Exec(*zygote, "app_process", true);
    Scheduler scheduler(&kernel, grouped);
    // Two zygote-like apps and two plain daemons.
    scheduler.AddTask(kernel.Fork(*zygote, "app1").child);
    scheduler.AddTask(kernel.CreateTask("daemon1"));
    scheduler.AddTask(kernel.Fork(*zygote, "app2").child);
    scheduler.AddTask(kernel.CreateTask("daemon2"));
    for (int i = 0; i < 100; ++i) {
      scheduler.RunQuantum();
    }
    return scheduler.stats();
  };
  const SchedulerStats plain = run(false);
  const SchedulerStats grouped = run(true);
  EXPECT_LT(grouped.cross_group_switches, plain.cross_group_switches);
}

TEST(SchedulerTest, DeadTasksAreDropped) {
  Kernel kernel{SystemConfig{}};
  Task* a = kernel.CreateTask("a");
  Task* b = kernel.CreateTask("b");
  Scheduler scheduler(&kernel, false);
  scheduler.AddTask(a);
  scheduler.AddTask(b);
  kernel.Exit(*b);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(scheduler.RunQuantum(), a);
  }
}

}  // namespace
}  // namespace sat

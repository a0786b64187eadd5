// Tests for the reverse map and the page-cache reclaim path — the
// "translation overhead grows linearly with the number of processes"
// claim, exercised from the unmap side.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/sat.h"
#include "tests/rmap_oracle.h"

namespace sat {
namespace {

// ---------------------------------------------------------------------------
// ReverseMap unit tests.
// ---------------------------------------------------------------------------

TEST(RmapTest, AddRemoveCount) {
  ReverseMap rmap;
  EXPECT_EQ(rmap.MapCount(5), 0u);
  rmap.Add(5, 1, 10, 0x40000000);
  rmap.Add(5, 2, 10, 0x40000000);
  rmap.Add(6, 1, 11, 0x40001000);
  EXPECT_EQ(rmap.MapCount(5), 2u);
  EXPECT_EQ(rmap.MapCount(6), 1u);
  EXPECT_EQ(rmap.total_entries(), 3u);

  rmap.Remove(5, 1, 10);
  EXPECT_EQ(rmap.MapCount(5), 1u);
  rmap.Remove(5, 9, 9);  // absent: no-op
  EXPECT_EQ(rmap.MapCount(5), 1u);
  rmap.Remove(5, 2, 10);
  EXPECT_EQ(rmap.MapCount(5), 0u);
  EXPECT_EQ(rmap.total_entries(), 1u);
}

TEST(RmapTest, ForEachVisitsAllMappings) {
  ReverseMap rmap;
  rmap.Add(7, 1, 0, 0x40000000);
  rmap.Add(7, 2, 0, 0x40000000);
  uint32_t visited = 0;
  for (const RmapEntry& entry : rmap.MappingsOf(7)) {
    EXPECT_EQ(entry.va, 0x40000000u);
    visited++;
  }
  EXPECT_EQ(visited, 2u);
  EXPECT_TRUE(rmap.MappingsOf(99).empty());
}

TEST(RmapTest, HasSiteMatchesExactlyTheNamedSites) {
  ReverseMap rmap;
  rmap.Add(7, 1, 3, 0x40003000);
  rmap.Add(7, 2, 3, 0x40003000);
  rmap.Add(8, 1, 4, 0x40004000);
  EXPECT_TRUE(rmap.HasSite(7, 1, 3));
  EXPECT_TRUE(rmap.HasSite(7, 2, 3));
  EXPECT_TRUE(rmap.HasSite(8, 1, 4));
  EXPECT_FALSE(rmap.HasSite(7, 1, 4));  // right PTP, wrong index
  EXPECT_FALSE(rmap.HasSite(8, 2, 4));  // right index, wrong PTP
  EXPECT_FALSE(rmap.HasSite(9, 1, 3));  // frame with no entries at all
  rmap.Remove(7, 1, 3);
  EXPECT_FALSE(rmap.HasSite(7, 1, 3));
  EXPECT_TRUE(rmap.HasSite(7, 2, 3));
}

TEST(RmapTest, ForEachEntryVisitsInFindAtSiteOrder) {
  ReverseMap rmap;
  for (FrameNumber frame = 1; frame <= 40; ++frame) {
    rmap.Add(frame, static_cast<PtpId>(frame % 3), frame % 5, frame << 12);
  }
  // The first entry ForEachEntry yields for a site is the one FindAtSite
  // returns; scrubd's per-pass site table relies on that.
  std::map<std::pair<PtpId, uint32_t>, FrameNumber> first;
  uint64_t visited = 0;
  rmap.ForEachEntry([&](FrameNumber frame, const RmapEntry& entry) {
    first.try_emplace({entry.ptp, entry.index}, frame);
    visited++;
  });
  EXPECT_EQ(visited, rmap.total_entries());
  for (const auto& [site, frame] : first) {
    const auto found = rmap.FindAtSite(site.first, site.second);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->first, frame);
  }
}

// The reverse map as it was kept before the frame-indexed layout: one
// insertion-ordered vector per frame in a hash map. The model test below
// holds ReverseMap to exactly these semantics.
class ReferenceRmap {
 public:
  void Add(FrameNumber frame, PtpId ptp, uint32_t index, VirtAddr va) {
    map_[frame].push_back(RmapEntry{ptp, static_cast<uint16_t>(index), va});
    total_++;
  }

  bool Remove(FrameNumber frame, PtpId ptp, uint32_t index) {
    const auto it = map_.find(frame);
    if (it == map_.end()) {
      return false;
    }
    auto& entries = it->second;
    const auto match = std::find_if(
        entries.begin(), entries.end(), [&](const RmapEntry& entry) {
          return entry.ptp == ptp && entry.index == index;
        });
    if (match == entries.end()) {
      return false;
    }
    entries.erase(match);
    total_--;
    if (entries.empty()) {
      map_.erase(it);
    }
    return true;
  }

  std::vector<RmapEntry> MappingsOf(FrameNumber frame) const {
    const auto it = map_.find(frame);
    return it == map_.end() ? std::vector<RmapEntry>{} : it->second;
  }

  bool HasSite(FrameNumber frame, PtpId ptp, uint32_t index) const {
    for (const RmapEntry& entry : MappingsOf(frame)) {
      if (entry.ptp == ptp && entry.index == index) {
        return true;
      }
    }
    return false;
  }

  // Every (frame, entry) pair, sorted: the multiset ForEachEntry visits.
  std::vector<std::tuple<FrameNumber, PtpId, uint16_t, VirtAddr>> All() const {
    std::vector<std::tuple<FrameNumber, PtpId, uint16_t, VirtAddr>> all;
    for (const auto& [frame, entries] : map_) {
      for (const RmapEntry& entry : entries) {
        all.emplace_back(frame, entry.ptp, entry.index, entry.va);
      }
    }
    std::sort(all.begin(), all.end());
    return all;
  }

  uint64_t total() const { return total_; }

 private:
  std::unordered_map<FrameNumber, std::vector<RmapEntry>> map_;
  uint64_t total_ = 0;
};

TEST(RmapTest, RandomOperationsMatchTheReferenceModel) {
  constexpr FrameNumber kFrames = 12;
  constexpr FrameNumber kHot = 5;  // crosses the key-array threshold
  constexpr PtpId kPtps = 64;
  constexpr uint32_t kIndices = 16;
  std::mt19937_64 rng(20161018);
  ReverseMap rmap;
  ReferenceRmap model;
  const auto va_of = [](PtpId ptp, uint32_t index) {
    return (static_cast<VirtAddr>(ptp) << 21) | (index << 12);
  };
  const auto random_site = [&] {
    return std::make_pair(static_cast<PtpId>(rng() % kPtps),
                          static_cast<uint32_t>(rng() % kIndices));
  };
  // Picks an existing entry of `frame` uniformly (the reference's view).
  const auto existing_site = [&](FrameNumber frame) {
    const std::vector<RmapEntry> entries = model.MappingsOf(frame);
    const RmapEntry& entry = entries[rng() % entries.size()];
    return std::make_pair(entry.ptp, static_cast<uint32_t>(entry.index));
  };

  uint32_t hot_peak = 0;
  uint32_t crossings_up = 0;
  uint32_t crossings_down = 0;
  bool above = false;
  for (int step = 0; step < 16000; ++step) {
    // Four phases of 4000 steps: the hot frame fills past kKeyedAbove,
    // drains below kUnkeyedBelow, then does both again.
    const bool filling = (step / 4000) % 2 == 0;
    const uint64_t op = rng() % 100;
    const FrameNumber frame =
        rng() % 2 == 0 ? kHot : static_cast<FrameNumber>(rng() % kFrames);
    if (op < (frame != kHot ? 40u : filling ? 55u : 20u)) {
      const auto [ptp, index] = random_site();
      rmap.Add(frame, ptp, index, va_of(ptp, index));
      model.Add(frame, ptp, index, va_of(ptp, index));
    } else if (op < 85 && model.MappingsOf(frame).size() > 0) {
      // Remove a present entry — from anywhere in the frame's list.
      const auto [ptp, index] = existing_site(frame);
      ASSERT_TRUE(rmap.Remove(frame, ptp, index)) << "step " << step;
      ASSERT_TRUE(model.Remove(frame, ptp, index));
    } else if (op < 90 && model.MappingsOf(frame).size() > 0) {
      // SetPte's order: the site's new frame is added before the old
      // frame's entry goes, so for a moment two frames name it.
      const auto [ptp, index] = existing_site(frame);
      const auto other = static_cast<FrameNumber>((frame + 1) % kFrames);
      rmap.Add(other, ptp, index, va_of(ptp, index));
      model.Add(other, ptp, index, va_of(ptp, index));
      ASSERT_EQ(rmap.Remove(frame, ptp, index),
                model.Remove(frame, ptp, index));
    } else if (op < 95) {
      // A removal that may name an absent site or the wrong frame.
      const auto [ptp, index] = random_site();
      const bool expected = model.Remove(frame, ptp, index);
      ASSERT_EQ(rmap.Remove(frame, ptp, index), expected) << "step " << step;
    } else if (model.MappingsOf(frame).size() > 0) {
      // A present site asked of another frame: wrong-frame removal.
      const auto [ptp, index] = existing_site(frame);
      const auto other = static_cast<FrameNumber>((frame + 3) % kFrames);
      ASSERT_EQ(rmap.Remove(other, ptp, index),
                model.Remove(other, ptp, index));
    }

    ASSERT_EQ(rmap.total_entries(), model.total()) << "step " << step;
    for (FrameNumber f = 0; f <= kFrames; ++f) {
      ASSERT_EQ(rmap.MapCount(f), model.MappingsOf(f).size());
      ASSERT_EQ(rmap.MappingsOf(f), model.MappingsOf(f))
          << "frame " << f << " step " << step;
    }
    for (int probe = 0; probe < 4; ++probe) {
      const auto f = static_cast<FrameNumber>(rng() % kFrames);
      const auto [ptp, index] = random_site();
      ASSERT_EQ(rmap.HasSite(f, ptp, index), model.HasSite(f, ptp, index));
    }

    std::vector<std::tuple<FrameNumber, PtpId, uint16_t, VirtAddr>> seen;
    rmap.ForEachEntry([&](FrameNumber f, const RmapEntry& entry) {
      seen.emplace_back(f, entry.ptp, entry.index, entry.va);
    });
    std::sort(seen.begin(), seen.end());
    const auto all = model.All();
    ASSERT_EQ(seen, all) << "step " << step;
    // FindAtSite for sites that exactly one entry names.
    for (int probe = 0; probe < 8 && !all.empty(); ++probe) {
      const auto& [f, ptp, index, va] = all[rng() % all.size()];
      const auto same_site = [&](const auto& other) {
        return std::get<1>(other) == ptp && std::get<2>(other) == index;
      };
      if (std::count_if(all.begin(), all.end(), same_site) != 1) {
        continue;
      }
      const auto found = rmap.FindAtSite(ptp, index);
      ASSERT_TRUE(found.has_value());
      ASSERT_EQ(*found, std::make_pair(f, va)) << "step " << step;
    }

    const uint32_t hot = rmap.MapCount(kHot);
    hot_peak = std::max(hot_peak, hot);
    if (!above && hot > ReverseMap::kKeyedAbove) {
      above = true;
      crossings_up++;
    } else if (above && hot < ReverseMap::kUnkeyedBelow) {
      above = false;
      crossings_down++;
    }
  }
  EXPECT_GT(hot_peak, ReverseMap::kKeyedAbove);
  EXPECT_EQ(crossings_up, 2u);
  EXPECT_EQ(crossings_down, 2u);
}

// ---------------------------------------------------------------------------
// Rmap maintenance through the kernel.
// ---------------------------------------------------------------------------

class ReclaimTest : public ::testing::Test {
 protected:
  ReclaimTest() : system_(ConfigByName("shared-ptp")) {}

  Kernel& kernel() { return system_.kernel(); }

  FrameNumber FrameAt(Task& task, VirtAddr va) {
    const auto ref = task.mm->page_table().FindPte(va);
    return ref->ptp->hw(ref->index).frame();
  }

  System system_;
};

TEST_F(ReclaimTest, SharedPtpPageHasOneRmapEntryForAllSharers) {
  // The headline property: N sharers, one rmap entry.
  Task* a = system_.android().ForkApp("a");
  Task* b = system_.android().ForkApp("b");
  Task* c = system_.android().ForkApp("c");
  (void)b;
  (void)c;
  const LibraryImage* libc = system_.android().catalog().FindByName("libc.so");
  const VirtAddr va = system_.android().CodePageVa(libc->id, 1);
  kernel().TouchPage(*a, va, AccessType::kExecute);  // populates shared PTP
  EXPECT_EQ(kernel().rmap().MapCount(FrameAt(*a, va)), 1u);
}

TEST_F(ReclaimTest, StockPagesHaveOneEntryPerProcess) {
  System stock(ConfigByName("stock"));
  Task* a = stock.android().ForkApp("a");
  Task* b = stock.android().ForkApp("b");
  Task* c = stock.android().ForkApp("c");
  const LibraryImage* libc = stock.android().catalog().FindByName("libc.so");
  const VirtAddr va = stock.android().CodePageVa(libc->id, 1);
  for (Task* task : {a, b, c}) {
    stock.kernel().TouchPage(*task, va, AccessType::kExecute);
  }
  const auto ref = a->mm->page_table().FindPte(va);
  EXPECT_EQ(stock.kernel().rmap().MapCount(ref->ptp->hw(ref->index).frame()),
            3u);
}

TEST_F(ReclaimTest, ReclaimUnmapsFromEverySharerAtOnce) {
  Task* a = system_.android().ForkApp("a");
  Task* b = system_.android().ForkApp("b");
  const LibraryImage* libc = system_.android().catalog().FindByName("libc.so");
  const VirtAddr va = system_.android().CodePageVa(libc->id, 1);
  kernel().TouchPage(*a, va, AccessType::kExecute);

  ReclaimStats stats;
  EXPECT_TRUE(system_.kernel().vm().config().share_ptps);
  Reclaimer reclaimer(&kernel().phys(), &kernel().page_cache(),
                      &kernel().ptp_allocator(), &kernel().rmap(),
                      &kernel().counters());
  EXPECT_TRUE(reclaimer.ReclaimPage(libc->file, 1, nullptr, &stats));
  EXPECT_EQ(stats.pages_reclaimed, 1u);
  EXPECT_EQ(stats.ptes_cleared, 1u);  // one clear serves both sharers

  // Both sharers now fault again on access.
  const uint64_t faults = kernel().counters().faults_file_backed;
  kernel().TouchPage(*a, va, AccessType::kExecute);
  EXPECT_EQ(kernel().counters().faults_file_backed, faults + 1);
  // ...and b sees the repopulated entry without another fault (shared PTP).
  kernel().TouchPage(*b, va, AccessType::kExecute);
  EXPECT_EQ(kernel().counters().faults_file_backed, faults + 1);
}

TEST_F(ReclaimTest, ReclaimFreesTheFrame) {
  Task* a = system_.android().ForkApp("a");
  const LibraryImage* libpng = system_.android().catalog().FindByName("libpng.so");
  const VirtAddr va = system_.android().CodePageVa(libpng->id, 0);
  kernel().TouchPage(*a, va, AccessType::kExecute);
  const FrameNumber frame = FrameAt(*a, va);
  EXPECT_EQ(kernel().phys().frame(frame).kind, FrameKind::kFileCache);

  ReclaimStats stats;
  Reclaimer reclaimer(&kernel().phys(), &kernel().page_cache(),
                      &kernel().ptp_allocator(), &kernel().rmap(),
                      &kernel().counters());
  reclaimer.ReclaimPage(libpng->file, 0, nullptr, &stats);
  EXPECT_EQ(kernel().phys().frame(frame).kind, FrameKind::kFree);
  EXPECT_EQ(kernel().page_cache().Lookup(libpng->file, 0),
            PageCache::kNoFrame);
}

TEST_F(ReclaimTest, DirtyAndLargeMappingsAreSkipped) {
  Task* a = system_.android().ForkApp("a");
  // A shared-writable mapping: its page may be dirty -> unreclaimable.
  MmapRequest request;
  request.length = 2 * kPageSize;
  request.prot = VmProt::ReadWrite();
  request.kind = VmKind::kFileShared;
  request.file = 424242;
  request.fixed_address = 0x70000000;
  kernel().Mmap(*a, request);
  kernel().TouchPage(*a, 0x70000000, AccessType::kWrite);

  ReclaimStats stats;
  Reclaimer reclaimer(&kernel().phys(), &kernel().page_cache(),
                      &kernel().ptp_allocator(), &kernel().rmap(),
                      &kernel().counters());
  EXPECT_FALSE(reclaimer.ReclaimPage(424242, 0, nullptr, &stats));
  EXPECT_EQ(stats.pages_skipped, 1u);

  // A large-page mapping: skipped (the block would need splitting).
  SystemConfig large_config = ConfigByName("shared-ptp");
  large_config.large_pages_for_code = true;
  large_config.phys_bytes = 1024ull * 1024 * 1024;
  System large_system(large_config);
  Kernel& large_kernel = large_system.kernel();
  Task* app = large_system.android().ForkApp("app");
  (void)app;
  const LibraryImage* libc = large_system.android().catalog().FindByName("libc.so");
  Reclaimer large_reclaimer(&large_kernel.phys(), &large_kernel.page_cache(),
                            &large_kernel.ptp_allocator(), &large_kernel.rmap(),
                            &large_kernel.counters());
  ReclaimStats large_stats;
  EXPECT_FALSE(large_reclaimer.ReclaimPage(libc->file, 0, nullptr, &large_stats));
  EXPECT_EQ(large_stats.pages_skipped, 1u);
}

TEST_F(ReclaimTest, KernelLevelReclaimFlushesTlbs) {
  Task* a = system_.android().ForkApp("a");
  kernel().ScheduleTo(*a);
  const AppFootprint& boot = system_.android().zygote_boot_footprint();
  const TouchedPage& page = boot.pages.front();
  const VirtAddr va = system_.android().CodePageVa(page.lib, page.page_index);
  EXPECT_TRUE(kernel().core().FetchLine(va));  // TLB entry live

  const ReclaimStats stats = kernel().ReclaimFileCache(50);
  EXPECT_EQ(stats.pages_reclaimed, 50u);
  EXPECT_GT(stats.tlb_flushes, 0u);
  EXPECT_EQ(kernel().counters().pages_reclaimed, 50u);

  // The system still works: accesses refault and repopulate.
  EXPECT_TRUE(kernel().core().FetchLine(va));
}

TEST_F(ReclaimTest, ReclaimThenFullRunStaysBalanced) {
  AppRunner runner(&system_.android());
  const AppFootprint fp = system_.workload().Generate(AppProfile::Named("Email"));
  runner.Run(fp, /*exit_after=*/true);
  kernel().ReclaimFileCache(500);
  // Another full app lifecycle on the post-reclaim machine.
  const AppRunStats stats = runner.Run(fp, /*exit_after=*/true);
  EXPECT_GT(stats.file_faults, 0u);
  EXPECT_EQ(kernel().phys().CountFrames(FrameKind::kAnon) > 0, true);
}

// ---------------------------------------------------------------------------
// The rmap of a many-mapper frame under stock fork and exit.
// ---------------------------------------------------------------------------

enum class ExitOrder { kFifo, kLifo, kRandom };

// A stock zygote maps a private file page; each child, forked from it,
// faults the inherited mapping in and maps the page once more of its
// own, so the frame has 1 + 2N rmap entries — above the key-array
// threshold (live tasks are capped at 255 ASIDs, so one mapping per
// child could not get there). Children then exit in `order`. After
// every exit the frame's mappings must be the zygote's entry and then
// each survivor's two, in fork order, with the auditor and the rmap
// site oracle clean.
void ExpectSurvivorsInForkOrder(ExitOrder order) {
  constexpr uint32_t kChildren = 160;
  constexpr FileId kFile = 515151;
  System system(ConfigByName("stock"));
  Kernel& kernel = system.kernel();
  MmapRequest request;
  request.length = kPageSize;
  request.prot = VmProt::ReadOnly();
  request.kind = VmKind::kFilePrivate;
  request.file = kFile;
  Task& zygote = *system.android().zygote();
  const auto shared = kernel.Mmap(zygote, request);
  ASSERT_TRUE(shared.ok());
  ASSERT_EQ(kernel.TouchPageStatus(zygote, shared.value, AccessType::kRead),
            TouchStatus::kOk);
  const FrameNumber frame = kernel.page_cache().Lookup(kFile, 0);
  ASSERT_NE(frame, PageCache::kNoFrame);

  const auto entry_at = [](Task& task, VirtAddr va) {
    const auto ref = task.mm->page_table().FindPte(va);
    return RmapEntry{ref->ptp->id(), static_cast<uint16_t>(ref->index), va};
  };
  struct Child {
    Task* task;
    VirtAddr own;  // the child's second mapping of the page
  };
  std::vector<Child> children;
  for (uint32_t i = 0; i < kChildren; ++i) {
    Task* task = system.android().ForkApp("app" + std::to_string(i));
    ASSERT_NE(task, nullptr);
    ASSERT_EQ(kernel.TouchPageStatus(*task, shared.value, AccessType::kRead),
              TouchStatus::kOk);
    const auto own = kernel.Mmap(*task, request);
    ASSERT_TRUE(own.ok());
    ASSERT_EQ(kernel.TouchPageStatus(*task, own.value, AccessType::kRead),
              TouchStatus::kOk);
    children.push_back({task, own.value});
  }
  ASSERT_EQ(kernel.rmap().MapCount(frame), 1 + 2 * kChildren);
  ASSERT_GT(kernel.rmap().MapCount(frame), ReverseMap::kKeyedAbove);

  std::vector<size_t> exits(kChildren);
  for (size_t i = 0; i < kChildren; ++i) {
    exits[i] = order == ExitOrder::kLifo ? kChildren - 1 - i : i;
  }
  if (order == ExitOrder::kRandom) {
    std::shuffle(exits.begin(), exits.end(), std::mt19937_64(7));
  }
  std::vector<bool> alive(kChildren, true);
  for (const size_t victim : exits) {
    kernel.Exit(*children[victim].task);
    alive[victim] = false;
    std::vector<RmapEntry> expected = {entry_at(zygote, shared.value)};
    for (size_t i = 0; i < kChildren; ++i) {
      if (alive[i]) {
        expected.push_back(entry_at(*children[i].task, shared.value));
        expected.push_back(entry_at(*children[i].task, children[i].own));
      }
    }
    ASSERT_EQ(kernel.rmap().MappingsOf(frame), expected)
        << "after child " << victim << " exited";
    const AuditReport report = kernel.AuditInvariants();
    ASSERT_TRUE(report.ok()) << report.ToString();
    ASSERT_EQ(RmapSiteViolation(kernel.rmap(), kernel.ptp_allocator()), "");
  }
  EXPECT_EQ(kernel.rmap().MapCount(frame), 1u);
}

TEST(RmapKernelTest, ManyMapperFrameKeepsForkOrderUnderFifoExits) {
  ExpectSurvivorsInForkOrder(ExitOrder::kFifo);
}

TEST(RmapKernelTest, ManyMapperFrameKeepsForkOrderUnderLifoExits) {
  ExpectSurvivorsInForkOrder(ExitOrder::kLifo);
}

TEST(RmapKernelTest, ManyMapperFrameKeepsForkOrderUnderRandomExits) {
  ExpectSurvivorsInForkOrder(ExitOrder::kRandom);
}

}  // namespace
}  // namespace sat

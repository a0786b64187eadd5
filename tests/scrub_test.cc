// scrubd (src/vm/scrub): one test per repair class listed in scrub.h.
// Each flips exact bits in a live hardware word with CorruptHwForChaos,
// runs one RunScrubPass, and checks the repaired word, the scrub_repairs /
// scrub_unrepairable deltas, the invariant audit and the rmap site oracle
// (tests/rmap_oracle.h). Then the two shapes the per-pass site table has
// to get right: a KSM stable frame with hundreds of mappers spread over
// two PTPs, and damage outside the 64-PTP pass window.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/core/sat.h"
#include "tests/rmap_oracle.h"

namespace sat {
namespace {

// Raw descriptor bits (src/arch/pte.h).
constexpr uint32_t kValidBit = 1u << 1;  // type 0b10 (page) <-> 0b00
constexpr uint32_t kLargeBit = 1u << 8;
constexpr uint32_t kPermBits = 3u << 9;  // AP read-only <-> read-write
// A frame bit far above any simulated frame: the rotted word names a
// frame that does not exist.
constexpr uint32_t kHighFrameBit = 1u << 30;

SystemConfig ScrubParams() {
  SystemConfig params;
  params.phys_bytes = 32ull * 1024 * 1024;
  return params;
}

VirtAddr MapAnon(Kernel& kernel, Task& task, uint32_t pages, VirtAddr base,
                 bool mergeable = false) {
  MmapRequest request;
  request.length = pages * kPageSize;
  request.prot = VmProt::ReadWrite();
  request.kind = VmKind::kAnonPrivate;
  request.fixed_address = base;
  request.mergeable = mergeable;
  EXPECT_EQ(kernel.Mmap(task, request).value, base);
  return base;
}

struct Site {
  PageTablePage* ptp = nullptr;
  uint32_t index = 0;

  HwPte hw() const { return ptp->hw(index); }
  void Rot(uint32_t xor_mask) const { ptp->CorruptHwForChaos(index, xor_mask); }
};

Site SiteOf(Task& task, VirtAddr va) {
  const auto ref = task.mm->page_table().FindPte(va);
  EXPECT_TRUE(ref.has_value());
  return ref.has_value() ? Site{ref->ptp, ref->index} : Site{};
}

// The conservative rebuild scrubd installs from a trusted frame number.
HwPte Rebuilt(FrameNumber frame) {
  return HwPte::MakePage(frame, PtePerm::kReadOnly, /*global=*/false,
                         /*executable=*/true);
}

struct PassDelta {
  uint64_t repairs = 0;
  uint64_t unrepairable = 0;
};

PassDelta RunOnePass(Kernel& kernel) {
  const KernelCounters before = kernel.counters();
  kernel.RunScrubPass();
  return {kernel.counters().scrub_repairs - before.scrub_repairs,
          kernel.counters().scrub_unrepairable - before.scrub_unrepairable};
}

void ExpectConsistent(Kernel& kernel, const char* where) {
  const AuditReport report = kernel.AuditInvariants();
  EXPECT_TRUE(report.ok()) << where << ":\n" << report.ToString();
  EXPECT_EQ(RmapSiteViolation(kernel.rmap(), kernel.ptp_allocator()), "")
      << where;
}

// ---------------------------------------------------------------------------
// One test per repair class.
// ---------------------------------------------------------------------------

TEST(ScrubTest, RottedValidBitIsRebuiltFromTheRmap) {
  Kernel kernel(ScrubParams());
  Task* task = kernel.CreateTask("app");
  const VirtAddr va = MapAnon(kernel, *task, 1, 0x40000000);
  ASSERT_EQ(kernel.WritePage(*task, va, 11), TouchStatus::kOk);
  const Site site = SiteOf(*task, va);
  const FrameNumber frame = site.hw().frame();
  ExpectConsistent(kernel, "before");

  site.Rot(kValidBit);
  ASSERT_FALSE(site.hw().valid());
  const PassDelta delta = RunOnePass(kernel);
  EXPECT_EQ(site.hw(), Rebuilt(frame));
  EXPECT_EQ(delta.repairs, 1u);
  EXPECT_EQ(delta.unrepairable, 0u);
  ExpectConsistent(kernel, "after repair");

  // The read-only rebuild takes a permission fault on the next write,
  // which restores the VMA's permissions.
  EXPECT_EQ(kernel.WritePage(*task, va, 12), TouchStatus::kOk);
  EXPECT_EQ(site.hw().perm(), PtePerm::kReadWrite);
  ExpectConsistent(kernel, "after write");
}

TEST(ScrubTest, FrameBitsRottedOntoAnotherMappedFrameAreRebuilt) {
  Kernel kernel(ScrubParams());
  Task* task = kernel.CreateTask("app");
  const VirtAddr va = MapAnon(kernel, *task, 2, 0x40000000);
  ASSERT_EQ(kernel.WritePage(*task, va, 21), TouchStatus::kOk);
  ASSERT_EQ(kernel.WritePage(*task, va + kPageSize, 22), TouchStatus::kOk);
  const Site site = SiteOf(*task, va);
  const FrameNumber frame = site.hw().frame();
  const FrameNumber other = SiteOf(*task, va + kPageSize).hw().frame();

  // The rotted word names the neighbour's frame: a live anon frame whose
  // rmap entries name a different site.
  site.Rot((frame ^ other) << kPageShift);
  ASSERT_EQ(site.hw().frame(), other);
  const PassDelta delta = RunOnePass(kernel);
  EXPECT_EQ(site.hw(), Rebuilt(frame));
  EXPECT_EQ(delta.repairs, 1u);
  EXPECT_EQ(delta.unrepairable, 0u);
  ExpectConsistent(kernel, "after repair");
}

TEST(ScrubTest, FrameBitsRottedOutOfRangeAreRebuilt) {
  Kernel kernel(ScrubParams());
  Task* task = kernel.CreateTask("app");
  const VirtAddr va = MapAnon(kernel, *task, 1, 0x40000000);
  ASSERT_EQ(kernel.WritePage(*task, va, 31), TouchStatus::kOk);
  const Site site = SiteOf(*task, va);
  const FrameNumber frame = site.hw().frame();

  site.Rot(kHighFrameBit);
  const PassDelta delta = RunOnePass(kernel);
  EXPECT_EQ(site.hw(), Rebuilt(frame));
  EXPECT_EQ(delta.repairs, 1u);
  EXPECT_EQ(delta.unrepairable, 0u);
  ExpectConsistent(kernel, "after repair");
}

TEST(ScrubTest, CleanFilePageBehindRottedFrameBitsIsDropped) {
  Kernel kernel(ScrubParams());
  Task* task = kernel.CreateTask("app");
  MmapRequest request;
  request.length = kPageSize;
  request.prot = VmProt::ReadOnly();
  request.kind = VmKind::kFilePrivate;
  request.file = 3;
  request.fixed_address = 0x40000000;
  const VirtAddr va = kernel.Mmap(*task, request).value;
  ASSERT_EQ(va, 0x40000000u);
  ASSERT_TRUE(kernel.TouchPage(*task, va, AccessType::kRead));
  const Site site = SiteOf(*task, va);
  const FrameNumber frame = site.hw().frame();
  ASSERT_EQ(kernel.phys().frame(frame).kind, FrameKind::kFileCache);
  ASSERT_FALSE(site.ptp->sw(site.index).dirty());
  ASSERT_EQ(kernel.rmap().MapCount(frame), 1u);

  site.Rot(kHighFrameBit);
  const PassDelta delta = RunOnePass(kernel);
  EXPECT_EQ(site.hw(), HwPte{});
  EXPECT_FALSE(site.ptp->sw(site.index).present());
  EXPECT_EQ(kernel.rmap().MapCount(frame), 0u);
  EXPECT_EQ(delta.repairs, 1u);
  EXPECT_EQ(delta.unrepairable, 0u);
  ExpectConsistent(kernel, "after drop");

  // The next touch refaults the page from the page cache.
  ASSERT_TRUE(kernel.TouchPage(*task, va, AccessType::kRead));
  EXPECT_EQ(site.hw().frame(), frame);
  ExpectConsistent(kernel, "after refault");
}

TEST(ScrubTest, SpuriousValidWordIsInvalidated) {
  Kernel kernel(ScrubParams());
  Task* task = kernel.CreateTask("app");
  const VirtAddr va = MapAnon(kernel, *task, 2, 0x40000000);
  ASSERT_EQ(kernel.WritePage(*task, va, 41), TouchStatus::kOk);
  // The second page was never touched: its word and shadow are empty.
  const Site site = SiteOf(*task, va + kPageSize);
  ASSERT_EQ(site.hw(), HwPte{});
  ASSERT_FALSE(site.ptp->sw(site.index).present());

  site.Rot(kValidBit);
  ASSERT_TRUE(site.hw().valid());
  const PassDelta delta = RunOnePass(kernel);
  EXPECT_EQ(site.hw(), HwPte{});
  EXPECT_EQ(delta.repairs, 1u);
  EXPECT_EQ(delta.unrepairable, 0u);
  ExpectConsistent(kernel, "after invalidate");
}

TEST(ScrubTest, RottedZeroPageMappingIsRepointedAtTheZeroFrame) {
  Kernel kernel(ScrubParams());
  Task* task = kernel.CreateTask("app");
  const VirtAddr va = MapAnon(kernel, *task, 1, 0x40000000);
  ASSERT_TRUE(kernel.TouchPage(*task, va, AccessType::kRead));
  const Site site = SiteOf(*task, va);
  ASSERT_EQ(site.hw().frame(), kernel.phys().zero_frame());

  site.Rot(kHighFrameBit);
  const PassDelta delta = RunOnePass(kernel);
  EXPECT_EQ(site.hw(), Rebuilt(kernel.phys().zero_frame()));
  EXPECT_EQ(delta.repairs, 1u);
  EXPECT_EQ(delta.unrepairable, 0u);
  ExpectConsistent(kernel, "after re-point");

  // A write still COWs away from the zero page.
  EXPECT_EQ(kernel.WritePage(*task, va, 51), TouchStatus::kOk);
  EXPECT_NE(site.hw().frame(), kernel.phys().zero_frame());
  ExpectConsistent(kernel, "after COW");
}

TEST(ScrubTest, WritableWordInASharedPtpIsWriteProtectedAgain) {
  SystemConfig params = ScrubParams();
  params.vm.share_ptps = true;
  Kernel kernel(params);
  Task* parent = kernel.CreateTask("parent");
  const VirtAddr va = MapAnon(kernel, *parent, 1, 0x40000000);
  ASSERT_EQ(kernel.WritePage(*parent, va, 61), TouchStatus::kOk);
  Task* child = kernel.Fork(*parent, "child").child;
  ASSERT_NE(child, nullptr);
  const Site site = SiteOf(*parent, va);
  ASSERT_EQ(kernel.ptp_allocator().SharerCount(site.ptp->id()), 2u);
  const HwPte protected_word = site.hw();
  ASSERT_EQ(protected_word.perm(), PtePerm::kReadOnly);

  site.Rot(kPermBits);
  ASSERT_EQ(site.hw().perm(), PtePerm::kReadWrite);
  const PassDelta delta = RunOnePass(kernel);
  EXPECT_EQ(site.hw(), protected_word);
  EXPECT_EQ(delta.repairs, 1u);
  EXPECT_EQ(delta.unrepairable, 0u);
  ExpectConsistent(kernel, "after write-protect");

  // The child's write COWs instead of scribbling on the parent's page.
  EXPECT_EQ(kernel.WritePage(*child, va, 62), TouchStatus::kOk);
  ExpectConsistent(kernel, "after child write");
}

TEST(ScrubTest, LargeBitOnAnAlignedSmallWordIsRebuiltSmall) {
  Kernel kernel(ScrubParams());
  Task* task = kernel.CreateTask("app");
  // Index 16 of its PTP: a word where a large descriptor could sit.
  const VirtAddr va = MapAnon(kernel, *task, 1, 0x40010000);
  ASSERT_EQ(kernel.WritePage(*task, va, 71), TouchStatus::kOk);
  const Site site = SiteOf(*task, va);
  ASSERT_EQ(site.index % kPtesPerLargePage, 0u);
  const FrameNumber frame = site.hw().frame();
  // A 64 KB-aligned frame would make the rotted word a legal large base.
  ASSERT_NE(frame % kPtesPerLargePage, 0u);

  site.Rot(kLargeBit);
  ASSERT_TRUE(site.hw().large());
  const PassDelta delta = RunOnePass(kernel);
  EXPECT_EQ(site.hw(), Rebuilt(frame));
  EXPECT_FALSE(site.hw().large());
  EXPECT_EQ(delta.repairs, 1u);
  EXPECT_EQ(delta.unrepairable, 0u);
  ExpectConsistent(kernel, "after rebuild");
}

TEST(ScrubTest, DirtyPageWithNoRmapEntryIsUnrepairable) {
  Kernel kernel(ScrubParams());
  Task* victim = kernel.CreateTask("victim");
  Task* bystander = kernel.CreateTask("bystander");
  const VirtAddr va = MapAnon(kernel, *victim, 1, 0x40000000);
  ASSERT_EQ(kernel.WritePage(*victim, va, 81), TouchStatus::kOk);
  const VirtAddr other = MapAnon(kernel, *bystander, 1, 0x40000000);
  ASSERT_EQ(kernel.WritePage(*bystander, other, 82), TouchStatus::kOk);
  const Site site = SiteOf(*victim, va);
  const FrameNumber frame = site.hw().frame();

  // No trusted copy of the dirty page's location survives: the word's
  // frame bits rotted and the rmap entry is gone.
  site.Rot(kHighFrameBit);
  kernel.rmap().Remove(frame, site.ptp->id(), site.index);
  const PassDelta delta = RunOnePass(kernel);
  EXPECT_EQ(delta.unrepairable, 1u);
  // The orphan sweep quarantines the frame nothing maps any more.
  EXPECT_EQ(delta.repairs, 1u);
  EXPECT_EQ(kernel.phys().frame(frame).kind, FrameKind::kQuarantined);
  EXPECT_FALSE(victim->alive);
  EXPECT_TRUE(victim->oops_killed);
  EXPECT_TRUE(bystander->alive);
  ExpectConsistent(kernel, "after oops kill");
}

// ---------------------------------------------------------------------------
// The per-pass site table.
// ---------------------------------------------------------------------------

TEST(ScrubTest, OneRottedSiteOfAWidelySharedKsmFrameIsOneRepair) {
  SystemConfig params = ScrubParams();
  params.ksm = true;
  Kernel kernel(params);
  Task* task = kernel.CreateTask("app");
  // 600 identical pages from a 2 MB boundary: 512 in one PTP, 88 in the
  // next.
  constexpr uint32_t kPages = 600;
  const VirtAddr base = MapAnon(kernel, *task, kPages, 0x40000000,
                                /*mergeable=*/true);
  for (uint32_t i = 0; i < kPages; ++i) {
    ASSERT_EQ(kernel.WritePage(*task, base + i * kPageSize, 91),
              TouchStatus::kOk);
  }
  for (int pass = 0; pass < 4; ++pass) {
    kernel.RunKsmScan();
  }
  const FrameNumber stable = SiteOf(*task, base).hw().frame();
  ASSERT_TRUE(kernel.phys().frame(stable).ksm_stable);
  ASSERT_EQ(kernel.rmap().MapCount(stable), kPages);
  const Site first = SiteOf(*task, base);
  const Site rotted = SiteOf(*task, base + 550 * kPageSize);
  ASSERT_NE(first.ptp->id(), rotted.ptp->id());
  ExpectConsistent(kernel, "after merge");

  rotted.Rot(kHighFrameBit);
  const PassDelta delta = RunOnePass(kernel);
  EXPECT_EQ(rotted.hw(), Rebuilt(stable));
  EXPECT_EQ(delta.repairs, 1u);
  EXPECT_EQ(delta.unrepairable, 0u);
  EXPECT_EQ(kernel.rmap().MapCount(stable), kPages);
  ExpectConsistent(kernel, "after repair");

  // Nothing left to repair.
  const PassDelta again = RunOnePass(kernel);
  EXPECT_EQ(again.repairs, 0u);
  EXPECT_EQ(again.unrepairable, 0u);
}

TEST(ScrubTest, DamageOutsideThePassWindowWaitsForThePassThatReachesIt) {
  Kernel kernel(ScrubParams());
  Task* task = kernel.CreateTask("app");
  // 100 PTPs, one dirty page each: more than one 64-PTP pass window.
  constexpr uint32_t kRegions = 100;
  constexpr VirtAddr kBase = 0x40000000;
  constexpr VirtAddr kStride = 2u * 1024 * 1024;
  for (uint32_t r = 0; r < kRegions; ++r) {
    const VirtAddr va = MapAnon(kernel, *task, 1, kBase + r * kStride);
    ASSERT_EQ(kernel.WritePage(*task, va, 100 + r), TouchStatus::kOk);
  }
  std::vector<PtpId> live;
  kernel.ptp_allocator().ForEachLive(
      [&](const PageTablePage& ptp) { live.push_back(ptp.id()); });
  ASSERT_EQ(live.size(), kRegions);

  // Passes walk live PTPs in id order from a round-robin cursor: the
  // first covers live[0, 64), the second live[64, 100) and then wraps.
  const auto site_in = [&](PtpId id) {
    for (uint32_t r = 0; r < kRegions; ++r) {
      const Site site = SiteOf(*task, kBase + r * kStride);
      if (site.ptp->id() == id) {
        return site;
      }
    }
    ADD_FAILURE() << "no region maps through ptp " << id;
    return Site{};
  };
  const Site early = site_in(live[10]);
  const Site late = site_in(live[80]);
  const FrameNumber early_frame = early.hw().frame();
  const FrameNumber late_frame = late.hw().frame();
  early.Rot(kValidBit);
  late.Rot(kValidBit);

  const PassDelta first = RunOnePass(kernel);
  EXPECT_EQ(first.repairs, 1u);
  EXPECT_EQ(early.hw(), Rebuilt(early_frame));
  EXPECT_FALSE(late.hw().valid());

  const PassDelta second = RunOnePass(kernel);
  EXPECT_EQ(second.repairs, 1u);
  EXPECT_EQ(late.hw(), Rebuilt(late_frame));
  EXPECT_EQ(first.unrepairable + second.unrepairable, 0u);
  ExpectConsistent(kernel, "after both passes");
}

}  // namespace
}  // namespace sat

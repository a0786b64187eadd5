// Unit tests for physical memory and the page cache.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <vector>

#include "src/mem/fault_injector.h"
#include "src/mem/page_cache.h"
#include "src/mem/phys_memory.h"

namespace sat {
namespace {

TEST(PhysMemoryTest, ConstructionReservesZeroPage) {
  PhysicalMemory phys(64 * kPageSize);
  EXPECT_EQ(phys.total_frames(), 64u);
  EXPECT_EQ(phys.free_frames(), 63u);
  EXPECT_EQ(phys.frame(phys.zero_frame()).kind, FrameKind::kZero);
}

TEST(PhysMemoryTest, AllocSetsMetadata) {
  PhysicalMemory phys(64 * kPageSize);
  const FrameNumber frame = phys.AllocFrame(FrameKind::kAnon);
  EXPECT_EQ(phys.frame(frame).kind, FrameKind::kAnon);
  EXPECT_EQ(phys.frame(frame).ref_count, 1u);
  EXPECT_EQ(phys.free_frames(), 62u);
  EXPECT_EQ(phys.used_frames(), 2u);  // zero page + this one
}

TEST(PhysMemoryTest, RefUnrefLifecycle) {
  PhysicalMemory phys(64 * kPageSize);
  const FrameNumber frame = phys.AllocFrame(FrameKind::kFileCache);
  phys.RefFrame(frame);
  EXPECT_EQ(phys.frame(frame).ref_count, 2u);
  EXPECT_FALSE(phys.UnrefFrame(frame));  // still referenced
  EXPECT_TRUE(phys.UnrefFrame(frame));   // now freed
  EXPECT_EQ(phys.frame(frame).kind, FrameKind::kFree);
  EXPECT_EQ(phys.free_frames(), 63u);
}

TEST(PhysMemoryTest, FreedFramesAreReused) {
  PhysicalMemory phys(8 * kPageSize);
  std::vector<FrameNumber> frames;
  for (int i = 0; i < 7; ++i) {
    frames.push_back(phys.AllocFrame(FrameKind::kAnon));
  }
  EXPECT_EQ(phys.free_frames(), 0u);
  phys.UnrefFrame(frames[3]);
  const FrameNumber again = phys.AllocFrame(FrameKind::kAnon);
  EXPECT_EQ(again, frames[3]);
}

TEST(PhysMemoryTest, ZeroPageIsNeverFreedOrCounted) {
  PhysicalMemory phys(16 * kPageSize);
  const FrameNumber zero = phys.zero_frame();
  phys.RefFrame(zero);   // no-op
  EXPECT_EQ(phys.frame(zero).ref_count, 1u);
  EXPECT_FALSE(phys.UnrefFrame(zero));
  EXPECT_EQ(phys.frame(zero).kind, FrameKind::kZero);
}

TEST(PhysMemoryTest, CountFramesByKind) {
  PhysicalMemory phys(32 * kPageSize);
  phys.AllocFrame(FrameKind::kAnon);
  phys.AllocFrame(FrameKind::kAnon);
  phys.AllocFrame(FrameKind::kPageTable);
  EXPECT_EQ(phys.CountFrames(FrameKind::kAnon), 2u);
  EXPECT_EQ(phys.CountFrames(FrameKind::kPageTable), 1u);
  EXPECT_NE(phys.ToString().find("anon=2"), std::string::npos);
}

// The first naturally aligned run of `count` free frames in [begin, end),
// found by reading every frame's kind.
std::optional<FrameNumber> NaiveFirstFreeRun(const PhysicalMemory& phys,
                                             uint64_t begin, uint64_t end,
                                             uint32_t count) {
  for (uint64_t base = begin; base + count <= end; base += count) {
    bool free = true;
    for (uint32_t i = 0; i < count && free; ++i) {
      free = phys.frame(static_cast<FrameNumber>(base + i)).kind ==
             FrameKind::kFree;
    }
    if (free) {
      return static_cast<FrameNumber>(base);
    }
  }
  return std::nullopt;
}

// What TryAllocContiguousFrames must pick: the preferred node's first run
// on a multi-node machine, else the machine-wide first run.
std::optional<FrameNumber> NaiveContiguousPick(const PhysicalMemory& phys,
                                               uint32_t count) {
  if (phys.num_nodes() > 1) {
    const uint64_t node_begin =
        phys.preferred_node() * phys.frames_per_node();
    const uint64_t node_end = std::min<uint64_t>(
        node_begin + phys.frames_per_node(), phys.total_frames());
    const uint64_t begin =
        (std::max<uint64_t>(node_begin, count) + count - 1) / count * count;
    const auto local = NaiveFirstFreeRun(phys, begin, node_end, count);
    if (local.has_value()) {
      return local;
    }
  }
  return NaiveFirstFreeRun(phys, count, phys.total_frames(), count);
}

TEST(PhysMemoryTest, FreeBitmapTracksEveryKindChange) {
  // 1000 frames: not a multiple of 64, so the last bitmap word is partial
  // (and so are the three nodes' ranges in the NUMA round).
  for (const uint32_t nodes : {1u, 3u}) {
    PhysicalMemory phys(1000 * kPageSize, nodes);
    EXPECT_TRUE(phys.FreeBitmapMatchesFrames());
    std::mt19937_64 rng(17 + nodes);
    std::vector<FrameNumber> held;
    for (int step = 0; step < 4000; ++step) {
      phys.set_preferred_node(static_cast<uint32_t>(rng() % nodes));
      switch (rng() % 5) {
        case 0:
        case 1: {
          const auto frame = phys.TryAllocFrame(FrameKind::kAnon);
          if (frame.has_value()) {
            held.push_back(*frame);
          }
          break;
        }
        case 2: {
          const uint32_t count = rng() % 2 == 0 ? 16 : 128;
          const auto expected = NaiveContiguousPick(phys, count);
          const auto base =
              phys.TryAllocContiguousFrames(count, FrameKind::kAnon);
          ASSERT_EQ(base, expected) << nodes << " nodes, step " << step;
          if (base.has_value()) {
            for (uint32_t i = 0; i < count; ++i) {
              held.push_back(*base + i);
            }
          }
          break;
        }
        case 3:
        case 4: {
          if (held.empty()) {
            break;
          }
          const size_t pick = rng() % held.size();
          if (rng() % 8 == 0) {
            phys.QuarantineFrame(held[pick]);  // quarantined when unreffed
          }
          phys.UnrefFrame(held[pick]);
          held.erase(held.begin() + static_cast<std::ptrdiff_t>(pick));
          break;
        }
      }
      if (rng() % 16 == 0) {
        // A free frame quarantined directly leaves the free set too.
        phys.QuarantineFrame(static_cast<FrameNumber>(1 + rng() % 999));
      }
      ASSERT_TRUE(phys.FreeBitmapMatchesFrames())
          << nodes << " nodes, step " << step;
    }
  }
}

TEST(PhysMemoryTest, FailedContiguousSearchIsNotRepeatedUntilAFree) {
  PhysicalMemory phys(256 * kPageSize);
  FaultInjector injector(1);
  phys.set_fault_injector(&injector);
  std::vector<FrameNumber> frames;
  while (phys.free_frames() > 0) {
    frames.push_back(phys.AllocFrame(FrameKind::kAnon));
  }
  // Free every other frame: 127 free frames, no two of them adjacent.
  for (const FrameNumber frame : frames) {
    if (frame % 2 == 1) {
      phys.UnrefFrame(frame);
    }
  }
  const uint64_t freed = phys.frames_freed();
  EXPECT_FALSE(phys.TryAllocContiguousFrames(16, FrameKind::kAnon));
  EXPECT_EQ(phys.contiguous_scans(), 1u);

  // Nothing freed since: the same count, and any larger one, fails
  // without a scan. The fault injector still sees every attempt first.
  EXPECT_FALSE(phys.TryAllocContiguousFrames(16, FrameKind::kAnon));
  EXPECT_FALSE(phys.TryAllocContiguousFrames(64, FrameKind::kAnon));
  EXPECT_EQ(phys.contiguous_scans(), 1u);
  EXPECT_EQ(injector.attempts(AllocSite::kContiguous), 3u);

  // A smaller count is a different question: it scans (and fails too).
  EXPECT_FALSE(phys.TryAllocContiguousFrames(2, FrameKind::kAnon));
  EXPECT_EQ(phys.contiguous_scans(), 2u);
  EXPECT_FALSE(phys.TryAllocContiguousFrames(16, FrameKind::kAnon));
  EXPECT_EQ(phys.contiguous_scans(), 2u);

  // Allocating takes nothing back; freeing does, and the next search
  // scans again. Frames 16..31 all free make the first 16-run.
  ASSERT_TRUE(phys.TryAllocFrame(FrameKind::kAnon).has_value());
  EXPECT_FALSE(phys.TryAllocContiguousFrames(16, FrameKind::kAnon));
  EXPECT_EQ(phys.contiguous_scans(), 2u);
  for (FrameNumber frame = 16; frame < 32; frame += 2) {
    phys.UnrefFrame(frame);
  }
  EXPECT_GT(phys.frames_freed(), freed);
  EXPECT_EQ(phys.TryAllocContiguousFrames(16, FrameKind::kAnon),
            std::optional<FrameNumber>(16));
  EXPECT_EQ(phys.contiguous_scans(), 3u);
  phys.set_fault_injector(nullptr);
}

TEST(PageCacheTest, FirstAccessIsHardFault) {
  PhysicalMemory phys(64 * kPageSize);
  PageCache cache(&phys);
  bool hard = false;
  const FrameNumber frame = cache.GetOrLoad(7, 3, &hard);
  EXPECT_TRUE(hard);
  EXPECT_EQ(phys.frame(frame).kind, FrameKind::kFileCache);
  EXPECT_EQ(phys.frame(frame).file, 7);
  EXPECT_EQ(phys.frame(frame).file_page_index, 3u);
}

TEST(PageCacheTest, SecondAccessIsSoft) {
  PhysicalMemory phys(64 * kPageSize);
  PageCache cache(&phys);
  bool hard = false;
  const FrameNumber first = cache.GetOrLoad(7, 3, &hard);
  const FrameNumber second = cache.GetOrLoad(7, 3, &hard);
  EXPECT_FALSE(hard);
  EXPECT_EQ(first, second);
  EXPECT_EQ(cache.resident_pages(), 1u);
}

TEST(PageCacheTest, DistinctPagesAndFilesAreDistinct) {
  PhysicalMemory phys(64 * kPageSize);
  PageCache cache(&phys);
  const FrameNumber a = cache.GetOrLoad(1, 0, nullptr);
  const FrameNumber b = cache.GetOrLoad(1, 1, nullptr);
  const FrameNumber c = cache.GetOrLoad(2, 0, nullptr);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(cache.resident_pages(), 3u);
}

TEST(PageCacheTest, LookupDoesNotLoad) {
  PhysicalMemory phys(64 * kPageSize);
  PageCache cache(&phys);
  EXPECT_EQ(cache.Lookup(9, 0), PageCache::kNoFrame);
  cache.GetOrLoad(9, 0, nullptr);
  EXPECT_NE(cache.Lookup(9, 0), PageCache::kNoFrame);
}

TEST(PageCacheTest, EvictFileReleasesFrames) {
  PhysicalMemory phys(64 * kPageSize);
  PageCache cache(&phys);
  cache.GetOrLoad(5, 0, nullptr);
  cache.GetOrLoad(5, 1, nullptr);
  cache.GetOrLoad(6, 0, nullptr);
  const uint64_t used_before = phys.used_frames();
  cache.EvictFile(5);
  EXPECT_EQ(cache.resident_pages(), 1u);
  EXPECT_EQ(phys.used_frames(), used_before - 2);
}

TEST(PageCacheTest, EvictionRespectsMapReferences) {
  // A frame still mapped by a PTE (extra reference) survives the cache
  // drop; only the cache's own reference is released.
  PhysicalMemory phys(64 * kPageSize);
  PageCache cache(&phys);
  const FrameNumber frame = cache.GetOrLoad(5, 0, nullptr);
  phys.RefFrame(frame);  // the "PTE" reference
  cache.EvictFile(5);
  EXPECT_EQ(phys.frame(frame).kind, FrameKind::kFileCache);
  EXPECT_EQ(phys.frame(frame).ref_count, 1u);
  phys.UnrefFrame(frame);
  EXPECT_EQ(phys.frame(frame).kind, FrameKind::kFree);
}

}  // namespace
}  // namespace sat

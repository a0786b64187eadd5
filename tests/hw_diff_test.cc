// Differential tests of the hardware model's data structures: the compact
// Cache, MicroTlb and MainTlb are driven side by side with the plain
// reference models in hw_reference.h by one seeded stream of mixed
// operations, and must agree after every single op — return values, the
// entry a lookup hands back, stats, and every stored entry.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "tests/hw_reference.h"

namespace sat {
namespace {

bool SameEntry(const TlbEntry& a, const TlbEntry& b) {
  return a.valid == b.valid && a.vpn == b.vpn && a.size_pages == b.size_pages &&
         a.asid == b.asid && a.global == b.global && a.domain == b.domain &&
         a.perm == b.perm && a.executable == b.executable && a.frame == b.frame;
}

std::string Describe(const TlbEntry& e) {
  return "{valid=" + std::to_string(e.valid) + " vpn=" + std::to_string(e.vpn) +
         " size=" + std::to_string(e.size_pages) +
         " asid=" + std::to_string(e.asid) +
         " global=" + std::to_string(e.global) +
         " domain=" + std::to_string(e.domain) +
         " perm=" + std::to_string(static_cast<int>(e.perm)) +
         " exec=" + std::to_string(e.executable) +
         " frame=" + std::to_string(e.frame) + "}";
}

bool SameStats(const TlbStats& a, const TlbStats& b) {
  return a.lookups == b.lookups && a.hits == b.hits && a.misses == b.misses &&
         a.domain_faults == b.domain_faults &&
         a.permission_faults == b.permission_faults &&
         a.insertions == b.insertions && a.flushes == b.flushes &&
         a.entries_flushed == b.entries_flushed;
}

// The op stream's source of entries and queries: VPNs from a small window
// so that inserts collide, re-insert and overlap, a handful of ASIDs,
// global and per-ASID entries, and all three entry sizes.
class EntryGen {
 public:
  EntryGen(uint64_t seed, uint32_t vpn_window)
      : rng_(seed), vpn_window_(vpn_window) {}

  std::mt19937_64& rng() { return rng_; }

  TlbEntry Entry() {
    TlbEntry entry;
    entry.valid = true;
    const uint64_t size_draw = rng_() % 10;
    entry.size_pages = size_draw < 7   ? 1
                       : size_draw < 9 ? kPtesPerLargePage
                                       : kPtesPerSection;
    if (!recent_.empty() && rng_() % 4 == 0) {
      // Re-insert a recent VPN, usually with other attributes.
      const TlbEntry& old = recent_[rng_() % recent_.size()];
      entry.vpn = old.vpn & ~(entry.size_pages - 1);
    } else {
      entry.vpn = static_cast<uint32_t>(rng_() % vpn_window_) &
                  ~(entry.size_pages - 1);
    }
    entry.asid = static_cast<Asid>(rng_() % 6);
    entry.global = rng_() % 4 == 0;
    entry.domain = static_cast<DomainId>(rng_() % 3);
    entry.perm = static_cast<PtePerm>(rng_() % 3);
    entry.executable = rng_() % 2 == 0;
    entry.frame = static_cast<FrameNumber>(rng_() % 100000);
    recent_.push_back(entry);
    if (recent_.size() > 64) {
      recent_.erase(recent_.begin());
    }
    return entry;
  }

  VirtAddr Va() {
    return static_cast<VirtAddr>((rng_() % vpn_window_) << kPageShift |
                                 (rng_() % kPageSize));
  }
  Asid QueryAsid() { return static_cast<Asid>(rng_() % 6); }
  AccessType Access() { return static_cast<AccessType>(rng_() % 3); }
  DomainAccessControl Dacr() {
    DomainAccessControl dacr;
    constexpr DomainAccess kAccesses[] = {
        DomainAccess::kNoAccess, DomainAccess::kClient, DomainAccess::kClient,
        DomainAccess::kManager};
    for (DomainId d = 0; d < 3; ++d) {
      dacr.Set(d, kAccesses[rng_() % 4]);
    }
    return dacr;
  }

 private:
  std::mt19937_64 rng_;
  uint32_t vpn_window_;
  std::vector<TlbEntry> recent_;
};

// The kernel's chaos corruption of a stored main-TLB entry, drawn once and
// applied identically to both models.
struct ChaosFlip {
  uint64_t kind;
  uint64_t bit;

  void Apply(TlbEntry& entry) const {
    if (!entry.valid) {
      return;
    }
    switch (kind) {
      case 0:
        entry.vpn ^= 1u << (bit % 20);
        break;
      case 1:
        entry.asid = static_cast<Asid>(entry.asid ^ (1u << (bit % 8)));
        break;
      case 2:
        entry.global = !entry.global;
        break;
      case 3:
        entry.frame ^= 1u << (bit % 16);
        break;
    }
  }
};

// ---------------------------------------------------------------------------
// Cache.
// ---------------------------------------------------------------------------

struct CacheCase {
  uint32_t size;
  uint32_t ways;
};

class CacheDiffTest : public ::testing::TestWithParam<CacheCase> {};

TEST_P(CacheDiffTest, MatchesReferenceOnMixedOps) {
  const CacheCase geometry = GetParam();
  Cache cache("diff", geometry.size, 32, geometry.ways);
  ref::Cache reference(geometry.size, 32, geometry.ways);
  std::mt19937_64 rng(0xCAC4E + geometry.ways);
  // Per-set clocks start a few dozen accesses short of the wrap, and are
  // pushed back there now and then, so renormalisation happens throughout
  // the stream (the reference's 64-bit clock never wraps).
  cache.MoveLruClocksNearWrapForTest(40);
  const uint32_t lines = geometry.size / 32;
  constexpr int kOps = 1000000;
  for (int op = 0; op < kOps; ++op) {
    // Mostly a working set a few times the cache size (hits, misses and
    // LRU evictions), plus far addresses that exercise high tag bits.
    const uint64_t draw = rng() % 100;
    PhysAddr pa;
    if (draw < 80) {
      pa = (rng() % (3 * lines)) * 32 + rng() % 32;
    } else if (draw < 95) {
      pa = (rng() % (1ull << 31)) << 5;
    } else {
      pa = (rng() % 64) * 32;
    }
    const uint64_t kind = rng() % 1000;
    if (kind < 900) {
      ASSERT_EQ(cache.Access(pa), reference.Access(pa)) << "op " << op;
    } else if (kind < 998) {
      ASSERT_EQ(cache.Probe(pa), reference.Probe(pa)) << "op " << op;
    } else {
      cache.InvalidateAll();
      reference.InvalidateAll();
    }
    if (op % 100000 == 0) {
      cache.MoveLruClocksNearWrapForTest(static_cast<uint32_t>(rng() % 64));
    }
    ASSERT_EQ(cache.stats().accesses, reference.stats().accesses);
    ASSERT_EQ(cache.stats().misses, reference.stats().misses) << "op " << op;
  }
  EXPECT_GT(cache.stats().misses, 0u);
  EXPECT_LT(cache.stats().misses, cache.stats().accesses);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheDiffTest,
    ::testing::Values(CacheCase{32 * 1024, 4}, CacheCase{1024 * 1024, 16},
                      CacheCase{4096, 2}),
    [](const ::testing::TestParamInfo<CacheCase>& param_info) {
      return std::string("s")
                 .append(std::to_string(param_info.param.size))
                 .append("w")
                 .append(std::to_string(param_info.param.ways));
    });

// A renormalisation mid-stream must keep the set's LRU order: fill one
// 4-way set, touch it in a known order across the wrap, and check which
// line each following miss evicts.
TEST(CacheClockTest, LruOrderSurvivesClockWrap) {
  Cache cache("wrap", 4 * 32 * 4, 32, 4);  // 4 sets x 4 ways
  const PhysAddr stride = 4 * 32;          // same set, next tag
  for (PhysAddr i = 0; i < 4; ++i) {
    cache.Access(i * stride);
  }
  cache.MoveLruClocksNearWrapForTest(2);
  cache.Access(2 * stride);
  cache.Access(0);  // the set's clock is now at the limit
  EXPECT_TRUE(cache.Access(3 * stride));  // renormalises, then restamps 3
  // LRU order now: 1, 2, 0, 3.
  EXPECT_FALSE(cache.Access(4 * stride));  // evicts 1
  EXPECT_FALSE(cache.Probe(1 * stride));
  EXPECT_FALSE(cache.Access(5 * stride));  // evicts 2
  EXPECT_FALSE(cache.Probe(2 * stride));
  EXPECT_TRUE(cache.Probe(0));
  EXPECT_TRUE(cache.Probe(3 * stride));
}

// ---------------------------------------------------------------------------
// Main TLB.
// ---------------------------------------------------------------------------

struct TlbCase {
  uint32_t entries;
  uint32_t ways;
};

class MainTlbDiffTest : public ::testing::TestWithParam<TlbCase> {};

TEST_P(MainTlbDiffTest, MatchesReferenceOnMixedOps) {
  const TlbCase geometry = GetParam();
  MainTlb tlb(geometry.entries, geometry.ways);
  ref::MainTlb reference(geometry.entries, geometry.ways);
  // A window of 4 MB of VPNs: a few sections' worth, many times the TLB.
  EntryGen gen(0x7B1 + geometry.entries + geometry.ways, 1024);
  std::mt19937_64& rng = gen.rng();
  constexpr int kOps = 400000;
  int lookups_hit = 0;
  for (int op = 0; op < kOps; ++op) {
    const uint64_t kind = rng() % 1000;
    if (kind < 450) {
      const VirtAddr va = gen.Va();
      const Asid asid = gen.QueryAsid();
      const AccessType access = gen.Access();
      const DomainAccessControl dacr = gen.Dacr();
      TlbEntry out;
      TlbEntry ref_out;
      const TlbResult result = tlb.Lookup(va, asid, access, dacr, &out);
      const TlbResult ref_result =
          reference.Lookup(va, asid, access, dacr, &ref_out);
      ASSERT_EQ(result, ref_result) << "op " << op;
      ASSERT_TRUE(SameEntry(out, ref_out))
          << "op " << op << " " << Describe(out) << " vs " << Describe(ref_out);
      lookups_hit += result != TlbResult::kMiss ? 1 : 0;
    } else if (kind < 900) {
      const TlbEntry entry = gen.Entry();
      tlb.Insert(entry);
      reference.Insert(entry);
    } else if (kind < 960) {
      const ChaosFlip flip{rng() % 4, rng()};
      const uint32_t set = static_cast<uint32_t>(rng() % tlb.num_sets());
      const uint32_t way = static_cast<uint32_t>(rng() % tlb.ways());
      tlb.MutateEntryForChaos(set, way,
                              [&](TlbEntry& entry) { flip.Apply(entry); });
      flip.Apply(reference.EntryAtForChaos(set, way));
    } else if (kind < 985) {
      const VirtAddr va = gen.Va();
      tlb.FlushVa(va);
      reference.FlushVa(va);
    } else if (kind < 992) {
      const Asid asid = gen.QueryAsid();
      tlb.FlushAsid(asid);
      reference.FlushAsid(asid);
    } else if (kind < 996) {
      tlb.FlushNonGlobal();
      reference.FlushNonGlobal();
    } else if (kind < 999) {
      tlb.FlushGlobal();
      reference.FlushGlobal();
    } else {
      tlb.FlushAll();
      reference.FlushAll();
    }
    ASSERT_TRUE(SameStats(tlb.stats(), reference.stats())) << "op " << op;
    for (uint32_t set = 0; set < tlb.num_sets(); ++set) {
      for (uint32_t way = 0; way < tlb.ways(); ++way) {
        if (!SameEntry(tlb.EntryAt(set, way), reference.EntryAt(set, way))) {
          FAIL() << "op " << op << " set " << set << " way " << way << ": "
                 << Describe(tlb.EntryAt(set, way)) << " vs "
                 << Describe(reference.EntryAt(set, way));
        }
      }
    }
  }
  // The stream must have exercised every lookup outcome.
  EXPECT_GT(lookups_hit, kOps / 100);
  EXPECT_GT(tlb.stats().hits, 0u);
  EXPECT_GT(tlb.stats().domain_faults, 0u);
  EXPECT_GT(tlb.stats().permission_faults, 0u);
  EXPECT_GT(tlb.stats().misses, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, MainTlbDiffTest,
    ::testing::Values(TlbCase{128, 4}, TlbCase{256, 2}, TlbCase{512, 4}),
    [](const ::testing::TestParamInfo<TlbCase>& param_info) {
      return std::string("e")
                 .append(std::to_string(param_info.param.entries))
                 .append("w")
                 .append(std::to_string(param_info.param.ways));
    });

// A chaos flip can move a 4 KB entry out of its home set. It then sits in
// the 64 KB-base set of its new VPN, where a later insert of that VPN must
// still scrub it: the flip has to set that set's summary bit.
TEST(MainTlbChaosTest, MovedEntryIsScrubbedFromItsNewBaseSet) {
  MainTlb tlb(128, 4);
  ref::MainTlb reference(128, 4);
  TlbEntry entry;
  entry.valid = true;
  entry.vpn = 0x40;  // 64 KB-aligned: home set 0 is its own base set
  entry.asid = 3;
  entry.perm = PtePerm::kReadOnly;
  entry.frame = 7;
  tlb.Insert(entry);
  reference.Insert(entry);
  // VPN 0x40 -> 0x41: home set 1, but still in set 0, the 64 KB-base set
  // of 0x41.
  const ChaosFlip flip{0, 0};
  tlb.MutateEntryForChaos(0, 0, [&](TlbEntry& e) { flip.Apply(e); });
  flip.Apply(reference.EntryAtForChaos(0, 0));
  TlbEntry replacement = entry;
  replacement.vpn = 0x41;
  replacement.frame = 8;
  tlb.Insert(replacement);
  reference.Insert(replacement);
  EXPECT_FALSE(reference.EntryAt(0, 0).valid);
  EXPECT_FALSE(tlb.EntryAt(0, 0).valid);
  for (uint32_t way = 0; way < 4; ++way) {
    EXPECT_TRUE(SameEntry(tlb.EntryAt(1, way), reference.EntryAt(1, way)));
  }
}

// ---------------------------------------------------------------------------
// Micro TLB.
// ---------------------------------------------------------------------------

class MicroTlbDiffTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(MicroTlbDiffTest, MatchesReferenceOnMixedOps) {
  const uint32_t entries = GetParam();
  MicroTlb tlb(entries);
  ref::MicroTlb reference(entries);
  EntryGen gen(0x3C20 + entries, 512);
  std::mt19937_64& rng = gen.rng();
  constexpr int kOps = 200000;
  for (int op = 0; op < kOps; ++op) {
    const uint64_t kind = rng() % 1000;
    if (kind < 500) {
      const VirtAddr va = gen.Va();
      const Asid asid = gen.QueryAsid();
      const AccessType access = gen.Access();
      const DomainAccessControl dacr = gen.Dacr();
      TlbEntry out;
      TlbEntry ref_out;
      ASSERT_EQ(tlb.Lookup(va, asid, access, dacr, &out),
                reference.Lookup(va, asid, access, dacr, &ref_out))
          << "op " << op;
      ASSERT_TRUE(SameEntry(out, ref_out)) << "op " << op;
    } else if (kind < 950) {
      // The micro TLB does not dedup: duplicates and overlaps stay, and
      // lookups must keep returning the lowest-index match.
      const TlbEntry entry = gen.Entry();
      tlb.Insert(entry);
      reference.Insert(entry);
    } else if (kind < 995) {
      const VirtAddr va = gen.Va();
      tlb.FlushVa(va);
      reference.FlushVa(va);
    } else {
      tlb.FlushAll();
      reference.FlushAll();
    }
    ASSERT_TRUE(SameStats(tlb.stats(), reference.stats())) << "op " << op;
    for (uint32_t i = 0; i < entries; ++i) {
      if (!SameEntry(tlb.EntryAt(i), reference.EntryAt(i))) {
        FAIL() << "op " << op << " index " << i << ": "
               << Describe(tlb.EntryAt(i)) << " vs "
               << Describe(reference.EntryAt(i));
      }
    }
  }
  EXPECT_GT(tlb.stats().hits, 0u);
  EXPECT_GT(tlb.stats().misses, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MicroTlbDiffTest,
                         ::testing::Values(4u, 32u, 64u),
                         [](const ::testing::TestParamInfo<uint32_t>& param_info) {
                           return std::string("n").append(
                               std::to_string(param_info.param));
                         });

}  // namespace
}  // namespace sat

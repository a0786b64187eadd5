// Test-only reference models of the cache and TLBs: the straightforward
// array-of-structs implementations the simulator's compact data layouts
// (src/cache, src/tlb) replaced. They share TlbEntry, TlbStats, CacheStats,
// CheckEntryAccess and EntriesConflict with the production code and are
// kept only so hw_diff_test can drive both with one op stream and demand
// identical results, stats and contents after every op.

#ifndef TESTS_HW_REFERENCE_H_
#define TESTS_HW_REFERENCE_H_

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "src/cache/cache.h"
#include "src/tlb/tlb.h"

namespace sat::ref {

// Set-associative cache: one {valid, tag, stamp} struct per line, a global
// 64-bit access clock, LRU by smallest stamp.
class Cache {
 public:
  Cache(uint32_t size_bytes, uint32_t line_size, uint32_t ways)
      : line_size_(line_size), ways_(ways) {
    num_sets_ = size_bytes / (line_size * ways);
    set_shift_ = static_cast<uint32_t>(std::countr_zero(num_sets_));
    lines_.resize(static_cast<size_t>(num_sets_) * ways_);
  }

  bool Access(PhysAddr pa) {
    stats_.accesses++;
    clock_++;
    const uint64_t line_addr = pa / line_size_;
    const uint32_t set = SetOf(line_addr);
    const uint64_t tag = line_addr >> set_shift_;
    for (uint32_t w = 0; w < ways_; ++w) {
      Line& line = lines_[static_cast<size_t>(set) * ways_ + w];
      if (line.valid && line.tag == tag) {
        line.lru_stamp = clock_;
        return true;
      }
    }
    stats_.misses++;
    Line* victim = nullptr;
    for (uint32_t w = 0; w < ways_; ++w) {
      Line& line = lines_[static_cast<size_t>(set) * ways_ + w];
      if (!line.valid) {
        victim = &line;
        break;
      }
      if (victim == nullptr || line.lru_stamp < victim->lru_stamp) {
        victim = &line;
      }
    }
    victim->valid = true;
    victim->tag = tag;
    victim->lru_stamp = clock_;
    return false;
  }

  bool Probe(PhysAddr pa) const {
    const uint64_t line_addr = pa / line_size_;
    const uint32_t set = SetOf(line_addr);
    const uint64_t tag = line_addr >> set_shift_;
    for (uint32_t w = 0; w < ways_; ++w) {
      const Line& line = lines_[static_cast<size_t>(set) * ways_ + w];
      if (line.valid && line.tag == tag) {
        return true;
      }
    }
    return false;
  }

  void InvalidateAll() {
    for (Line& line : lines_) {
      line.valid = false;
    }
  }

  const CacheStats& stats() const { return stats_; }

 private:
  struct Line {
    bool valid = false;
    uint64_t tag = 0;
    uint64_t lru_stamp = 0;
  };

  uint32_t SetOf(uint64_t line_addr) const {
    return static_cast<uint32_t>(line_addr & (num_sets_ - 1));
  }

  uint32_t line_size_;
  uint32_t ways_;
  uint32_t num_sets_;
  uint32_t set_shift_;
  uint64_t clock_ = 0;
  std::vector<Line> lines_;
  CacheStats stats_;
};

// Main TLB: a flat TlbEntry array; Lookup probes the 4 KB, 64 KB-base and
// 1 MB-base sets; Insert scrubs conflicts in every set Lookup could probe
// for any page the new entry covers.
class MainTlb {
 public:
  MainTlb(uint32_t num_entries, uint32_t ways) : ways_(ways) {
    num_sets_ = num_entries / ways;
    entries_.resize(num_entries);
    replace_cursor_.resize(num_sets_, 0);
  }

  TlbResult Lookup(VirtAddr va, Asid asid, AccessType access,
                   const DomainAccessControl& dacr, TlbEntry* out) {
    stats_.lookups++;
    const uint32_t vpn = VirtPageNumber(va);
    TlbEntry* entry = FindInSet(SetIndexOf(vpn), vpn, asid);
    if (entry == nullptr) {
      const uint32_t large_vpn = vpn & ~(kPtesPerLargePage - 1);
      if (large_vpn != vpn || SetIndexOf(large_vpn) != SetIndexOf(vpn)) {
        entry = FindInSet(SetIndexOf(large_vpn), vpn, asid);
        if (entry != nullptr && entry->size_pages == 1) {
          entry = nullptr;
        }
      }
    }
    if (entry == nullptr) {
      const uint32_t section_vpn = vpn & ~(kPtesPerSection - 1);
      const uint32_t large_vpn = vpn & ~(kPtesPerLargePage - 1);
      if (SetIndexOf(section_vpn) != SetIndexOf(vpn) &&
          SetIndexOf(section_vpn) != SetIndexOf(large_vpn)) {
        entry = FindInSet(SetIndexOf(section_vpn), vpn, asid);
        if (entry != nullptr && entry->size_pages != kPtesPerSection) {
          entry = nullptr;
        }
      }
    }
    if (entry == nullptr) {
      stats_.misses++;
      return TlbResult::kMiss;
    }
    const TlbResult result = CheckEntryAccess(*entry, access, dacr);
    if (out != nullptr) {
      *out = *entry;
    }
    CountResult(result, &stats_);
    return result;
  }

  void Insert(const TlbEntry& entry) {
    const uint32_t home = SetIndexOf(entry.vpn);
    int64_t reuse_way = -1;
    const auto scrub = [&](uint32_t set) {
      for (uint32_t w = 0; w < ways_; ++w) {
        TlbEntry& candidate = entries_[set * ways_ + w];
        if (!EntriesConflict(candidate, entry)) {
          continue;
        }
        candidate.valid = false;
        if (set == home && reuse_way < 0) {
          reuse_way = w;
        }
      }
    };
    scrub(home);
    const uint32_t large_base = entry.vpn & ~(kPtesPerLargePage - 1);
    if (SetIndexOf(large_base) != home) {
      scrub(SetIndexOf(large_base));
    }
    const uint32_t section_base = entry.vpn & ~(kPtesPerSection - 1);
    if (SetIndexOf(section_base) != home &&
        SetIndexOf(section_base) != SetIndexOf(large_base)) {
      scrub(SetIndexOf(section_base));
    }
    for (uint32_t i = 1; i < entry.size_pages; ++i) {
      const uint32_t set = SetIndexOf(entry.vpn + i);
      if (set != home && set != SetIndexOf(large_base) &&
          set != SetIndexOf(section_base)) {
        scrub(set);
      }
    }
    if (reuse_way >= 0) {
      entries_[home * ways_ + static_cast<uint32_t>(reuse_way)] = entry;
      stats_.insertions++;
      return;
    }
    for (uint32_t w = 0; w < ways_; ++w) {
      TlbEntry& candidate = entries_[home * ways_ + w];
      if (!candidate.valid) {
        candidate = entry;
        stats_.insertions++;
        return;
      }
    }
    const uint32_t victim = replace_cursor_[home];
    replace_cursor_[home] = (victim + 1) % ways_;
    entries_[home * ways_ + victim] = entry;
    stats_.insertions++;
  }

  void FlushAll() {
    FlushIf([](const TlbEntry&) { return true; });
  }
  void FlushNonGlobal() {
    FlushIf([](const TlbEntry& e) { return !e.global; });
  }
  void FlushGlobal() {
    FlushIf([](const TlbEntry& e) { return e.global; });
  }
  void FlushAsid(Asid asid) {
    FlushIf([asid](const TlbEntry& e) { return !e.global && e.asid == asid; });
  }
  void FlushVa(VirtAddr va) {
    const uint32_t vpn = VirtPageNumber(va);
    FlushIf([vpn](const TlbEntry& e) { return e.CoversVpn(vpn); });
  }

  const TlbStats& stats() const { return stats_; }
  uint32_t ways() const { return ways_; }
  uint32_t num_sets() const { return num_sets_; }
  const TlbEntry& EntryAt(uint32_t set, uint32_t way) const {
    return entries_[set * ways_ + way];
  }
  TlbEntry& EntryAtForChaos(uint32_t set, uint32_t way) {
    return entries_[set * ways_ + way];
  }

 private:
  static void CountResult(TlbResult result, TlbStats* stats) {
    switch (result) {
      case TlbResult::kHit:
        stats->hits++;
        break;
      case TlbResult::kDomainFault:
        stats->domain_faults++;
        break;
      case TlbResult::kPermissionFault:
        stats->permission_faults++;
        break;
      case TlbResult::kMiss:
        break;
    }
  }

  template <typename Pred>
  void FlushIf(Pred pred) {
    stats_.flushes++;
    for (TlbEntry& entry : entries_) {
      if (entry.valid && pred(entry)) {
        entry.valid = false;
        stats_.entries_flushed++;
      }
    }
  }

  uint32_t SetIndexOf(uint32_t vpn) const { return vpn & (num_sets_ - 1); }

  TlbEntry* FindInSet(uint32_t set, uint32_t vpn, Asid asid) {
    for (uint32_t w = 0; w < ways_; ++w) {
      TlbEntry& entry = entries_[set * ways_ + w];
      if (entry.Matches(vpn, asid)) {
        return &entry;
      }
    }
    return nullptr;
  }

  uint32_t ways_;
  uint32_t num_sets_;
  std::vector<TlbEntry> entries_;
  std::vector<uint32_t> replace_cursor_;
  TlbStats stats_;
};

// Micro TLB: a flat TlbEntry array scanned front to back; inserts fill the
// first invalid slot, else the FIFO cursor's.
class MicroTlb {
 public:
  explicit MicroTlb(uint32_t num_entries) { entries_.resize(num_entries); }

  TlbResult Lookup(VirtAddr va, Asid asid, AccessType access,
                   const DomainAccessControl& dacr, TlbEntry* out) {
    stats_.lookups++;
    const uint32_t vpn = VirtPageNumber(va);
    for (TlbEntry& entry : entries_) {
      if (!entry.Matches(vpn, asid)) {
        continue;
      }
      const TlbResult result = CheckEntryAccess(entry, access, dacr);
      if (out != nullptr) {
        *out = entry;
      }
      switch (result) {
        case TlbResult::kHit:
          stats_.hits++;
          break;
        case TlbResult::kDomainFault:
          stats_.domain_faults++;
          break;
        case TlbResult::kPermissionFault:
          stats_.permission_faults++;
          break;
        case TlbResult::kMiss:
          break;
      }
      return result;
    }
    stats_.misses++;
    return TlbResult::kMiss;
  }

  void Insert(const TlbEntry& entry) {
    for (TlbEntry& candidate : entries_) {
      if (!candidate.valid) {
        candidate = entry;
        stats_.insertions++;
        return;
      }
    }
    entries_[fifo_cursor_] = entry;
    fifo_cursor_ = (fifo_cursor_ + 1) % static_cast<uint32_t>(entries_.size());
    stats_.insertions++;
  }

  void FlushAll() {
    stats_.flushes++;
    for (TlbEntry& entry : entries_) {
      if (entry.valid) {
        entry.valid = false;
        stats_.entries_flushed++;
      }
    }
  }

  void FlushVa(VirtAddr va) {
    stats_.flushes++;
    const uint32_t vpn = VirtPageNumber(va);
    for (TlbEntry& entry : entries_) {
      if (entry.CoversVpn(vpn)) {
        entry.valid = false;
        stats_.entries_flushed++;
      }
    }
  }

  const TlbStats& stats() const { return stats_; }
  uint32_t num_entries() const { return static_cast<uint32_t>(entries_.size()); }
  const TlbEntry& EntryAt(uint32_t index) const { return entries_[index]; }

 private:
  std::vector<TlbEntry> entries_;
  uint32_t fifo_cursor_ = 0;
  TlbStats stats_;
};

}  // namespace sat::ref

#endif  // TESTS_HW_REFERENCE_H_

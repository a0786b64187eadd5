#include "src/tlb/tlb.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "src/trace/trace.h"

namespace sat {

bool EntriesConflict(const TlbEntry& lhs, const TlbEntry& rhs) {
  // Evaluated without short-circuits: Insert runs this over whole sets of
  // unrelated entries, where each comparison on its own is a coin flip.
  const bool overlap = (lhs.vpn < rhs.vpn + rhs.size_pages) &
                       (rhs.vpn < lhs.vpn + lhs.size_pages);
  const bool same_space = lhs.global | rhs.global | (lhs.asid == rhs.asid);
  return lhs.valid & rhs.valid & overlap & same_space;
}

TlbResult CheckEntryAccess(const TlbEntry& entry, AccessType access,
                           const DomainAccessControl& dacr) {
  switch (dacr.Get(entry.domain)) {
    case DomainAccess::kNoAccess:
      return TlbResult::kDomainFault;
    case DomainAccess::kManager:
      return TlbResult::kHit;  // permission bits are bypassed
    case DomainAccess::kClient:
      break;
  }
  switch (access) {
    case AccessType::kRead:
      if (entry.perm == PtePerm::kNone) {
        return TlbResult::kPermissionFault;
      }
      return TlbResult::kHit;
    case AccessType::kWrite:
      if (entry.perm != PtePerm::kReadWrite) {
        return TlbResult::kPermissionFault;
      }
      return TlbResult::kHit;
    case AccessType::kExecute:
      if (entry.perm == PtePerm::kNone || !entry.executable) {
        return TlbResult::kPermissionFault;
      }
      return TlbResult::kHit;
  }
  return TlbResult::kPermissionFault;
}

namespace {

bool IsPowerOfTwo(uint32_t x) { return x != 0 && (x & (x - 1)) == 0; }

}  // namespace

TlbMatchKey TlbMatchKey::Of(const TlbEntry& entry) {
  TlbMatchKey match;
  if (!entry.valid) {
    return match;
  }
  match.key = entry.vpn;
  match.mask = ~(entry.size_pages - 1);
  if (!entry.global) {
    match.key |= static_cast<uint64_t>(entry.asid) << 32;
    match.mask |= 0xffull << 32;
  }
  return match;
}

MainTlb::MainTlb(uint32_t num_entries, uint32_t ways) : ways_(ways) {
  assert(ways > 0 && num_entries % ways == 0);
  num_sets_ = num_entries / ways;
  assert(IsPowerOfTwo(num_sets_));
  entries_.resize(num_entries);
  keys_.resize(num_entries);
  has_away_.resize(num_sets_, 0);
  replace_cursor_.resize(num_sets_, 0);
}

uint32_t MainTlb::FindInSet(uint32_t set, uint64_t query) const {
  const TlbMatchKey* keys = &keys_[set * ways_];
  for (uint32_t w = 0; w < ways_; ++w) {
    if (keys[w].Matches(query)) {
      return w;
    }
  }
  return kNoWay;
}

void MainTlb::Invalidate(uint32_t slot) {
  entries_[slot].valid = false;
  keys_[slot] = TlbMatchKey{};
}

void MainTlb::RebuildSummary(uint32_t set) {
  bool away = false;
  for (uint32_t w = 0; w < ways_; ++w) {
    const TlbEntry& entry = entries_[set * ways_ + w];
    away = away || (entry.valid && IsAway(entry, set));
  }
  has_away_[set] = away;
}

TlbResult MainTlb::Lookup(VirtAddr va, Asid asid, AccessType access,
                          const DomainAccessControl& dacr, TlbEntry* out) {
  stats_.lookups++;
  const uint32_t vpn = VirtPageNumber(va);
  const uint64_t query = TlbMatchKey::Query(vpn, asid);
  const uint32_t home = SetIndexOf(vpn);
  uint32_t set = home;
  uint32_t way = FindInSet(home, query);
  // A match outside the home set is always an away entry (a 4 KB entry
  // matching `vpn` has `vpn` as its base), so a base-index set with a clear
  // summary bit holds none and is skipped. A base-index set equal to the
  // home set was already probed above.
  if (way == kNoWay) {
    // A 64 KB entry lives in the set of its aligned base VPN; the first
    // match there counts only if it is a large entry.
    const uint32_t large_set = SetIndexOf(vpn & ~(kPtesPerLargePage - 1));
    if (large_set != home && has_away_[large_set]) {
      set = large_set;
      way = FindInSet(set, query);
      if (way != kNoWay && entries_[set * ways_ + way].size_pages == 1) {
        way = kNoWay;
      }
    }
    if (way == kNoWay) {
      // A 1 MB section entry lives in the set of its section-aligned base.
      const uint32_t section_set = SetIndexOf(vpn & ~(kPtesPerSection - 1));
      if (section_set != home && section_set != large_set &&
          has_away_[section_set]) {
        set = section_set;
        way = FindInSet(set, query);
        if (way != kNoWay &&
            entries_[set * ways_ + way].size_pages != kPtesPerSection) {
          way = kNoWay;
        }
      }
    }
  }
  if (way == kNoWay) {
    stats_.misses++;
    return TlbResult::kMiss;
  }
  const TlbEntry& entry = entries_[set * ways_ + way];
  const TlbResult result = CheckEntryAccess(entry, access, dacr);
  if (out != nullptr) {
    *out = entry;  // filled on faults too: the core models protection
                   // schemes that override the domain verdict
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

void MainTlb::Insert(const TlbEntry& entry) {
  assert(entry.valid);
  assert((entry.vpn & (entry.size_pages - 1)) == 0 &&
         "TLB entry base must be size-aligned");
  const uint32_t home = SetIndexOf(entry.vpn);

  // First scrub every existing entry a lookup could still find for any page
  // the new entry translates: matching attributes or not, two live entries
  // for one (vpn, asid) — or one global plus one per-ASID — would leave
  // FindInSet returning whichever way comes first. Re-inserting a VPN with a
  // changed attribute (the zygote global-bit promotion, a 4 KB→64 KB
  // upgrade, an ASID reused after rollover) must replace, never duplicate.
  // Conflicts can sit in the home set of any covered VPN or in the 64 KB /
  // 1 MB base-index sets that Lookup also probes.
  uint32_t reuse_way = kNoWay;
  const auto scrub = [&](uint32_t set) {
    for (uint32_t w = 0; w < ways_; ++w) {
      if (!EntriesConflict(entries_[set * ways_ + w], entry)) {
        continue;
      }
      Invalidate(set * ways_ + w);
      if (set == home && reuse_way == kNoWay) {
        reuse_way = w;
      }
    }
  };
  scrub(home);
  // A 4 KB entry overlaps only entries covering its own page; outside its
  // home set those are away entries, so a clear summary bit means nothing
  // there to scrub. A larger entry also conflicts with 4 KB entries of any
  // page it covers, wherever their home sets are.
  const bool small = entry.size_pages == 1;
  const uint32_t large_set = SetIndexOf(entry.vpn & ~(kPtesPerLargePage - 1));
  if (large_set != home && (!small || has_away_[large_set])) {
    scrub(large_set);
  }
  const uint32_t section_set = SetIndexOf(entry.vpn & ~(kPtesPerSection - 1));
  if (section_set != home && section_set != large_set &&
      (!small || has_away_[section_set])) {
    scrub(section_set);
  }
  // Covered pages past the first num_sets_ only revisit sets already
  // scrubbed, and a second scrub of a set finds nothing left to clear.
  const uint32_t covered_sets = std::min(entry.size_pages, num_sets_);
  for (uint32_t i = 1; i < covered_sets; ++i) {
    const uint32_t set = SetIndexOf(entry.vpn + i);
    if (set != home && set != large_set && set != section_set) {
      scrub(set);
    }
  }

  // Then place the new entry: the way a duplicate vacated first (keeps
  // exact re-inserts in place), else any invalid way, else round-robin.
  uint32_t way = reuse_way;
  for (uint32_t w = 0; w < ways_ && way == kNoWay; ++w) {
    if (!entries_[home * ways_ + w].valid) {
      way = w;
    }
  }
  if (way == kNoWay) {
    way = replace_cursor_[home];
    replace_cursor_[home] = way + 1 == ways_ ? 0 : way + 1;
  }
  entries_[home * ways_ + way] = entry;
  keys_[home * ways_ + way] = TlbMatchKey::Of(entry);
  if (IsAway(entry, home)) {
    has_away_[home] = 1;
  }
  stats_.insertions++;
}

template <typename Pred>
void MainTlb::FlushMatching(FlushKind kind, Pred should_flush) {
  stats_.flushes++;
  uint64_t flushed = 0;
  for (uint32_t set = 0; set < num_sets_; ++set) {
    bool away = false;
    for (uint32_t w = 0; w < ways_; ++w) {
      const TlbEntry& entry = entries_[set * ways_ + w];
      if (!entry.valid) {
        continue;
      }
      if (should_flush(entry)) {
        Invalidate(set * ways_ + w);
        flushed++;
      } else {
        away = away || IsAway(entry, set);
      }
    }
    has_away_[set] = away;
  }
  stats_.entries_flushed += flushed;
  Tracer::Emit(tracer_, TraceEventType::kTlbFlush, 0, kind, flushed);
}

void MainTlb::FlushAll() {
  FlushMatching(kFlushKindAll, [](const TlbEntry&) { return true; });
}

void MainTlb::FlushNonGlobal() {
  FlushMatching(kFlushKindNonGlobal,
                [](const TlbEntry& entry) { return !entry.global; });
}

void MainTlb::FlushGlobal() {
  FlushMatching(kFlushKindGlobal,
                [](const TlbEntry& entry) { return entry.global; });
}

void MainTlb::FlushAsid(Asid asid) {
  FlushMatching(kFlushKindAsid, [asid](const TlbEntry& entry) {
    return !entry.global && entry.asid == asid;
  });
}

void MainTlb::FlushVa(VirtAddr va) {
  const uint32_t vpn = VirtPageNumber(va);
  FlushMatching(kFlushKindVa,
                [vpn](const TlbEntry& entry) { return entry.CoversVpn(vpn); });
}

uint32_t MainTlb::ValidEntryCount() const {
  uint32_t count = 0;
  for (const TlbEntry& entry : entries_) {
    if (entry.valid) {
      count++;
    }
  }
  return count;
}

uint64_t MainTlb::ReachBytes() const {
  uint64_t bytes = 0;
  for (const TlbEntry& entry : entries_) {
    if (entry.valid) {
      bytes += static_cast<uint64_t>(entry.size_pages) * kPageSize;
    }
  }
  return bytes;
}

MicroTlb::MicroTlb(uint32_t num_entries) {
  assert(num_entries > 0 && num_entries <= 64);
  keys_.resize(num_entries);
  entries_.resize(num_entries);
  all_ = num_entries == 64 ? ~0ull : (1ull << num_entries) - 1;
}

TlbResult MicroTlb::Lookup(VirtAddr va, Asid asid, AccessType access,
                           const DomainAccessControl& dacr, TlbEntry* out) {
  stats_.lookups++;
  const uint64_t query = TlbMatchKey::Query(VirtPageNumber(va), asid);
  const uint32_t n = num_entries();
  for (uint32_t i = 0; i < n; ++i) {
    if (!keys_[i].Matches(query)) {
      continue;
    }
    const TlbEntry& entry = entries_[i];
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

void MicroTlb::Insert(const TlbEntry& entry) {
  assert(entry.valid);
  const uint64_t free = all_ & ~valid_;
  uint32_t index;
  if (free != 0) {
    index = static_cast<uint32_t>(std::countr_zero(free));
  } else {
    index = fifo_cursor_;
    fifo_cursor_ = index + 1 == num_entries() ? 0 : index + 1;
  }
  entries_[index] = entry;
  keys_[index] = TlbMatchKey::Of(entry);
  valid_ |= 1ull << index;
  stats_.insertions++;
}

void MicroTlb::Invalidate(uint32_t index) {
  entries_[index].valid = false;
  keys_[index] = TlbMatchKey{};
  valid_ &= ~(1ull << index);
}

void MicroTlb::FlushAll() {
  stats_.flushes++;
  stats_.entries_flushed += static_cast<uint64_t>(std::popcount(valid_));
  while (valid_ != 0) {
    Invalidate(static_cast<uint32_t>(std::countr_zero(valid_)));
  }
}

void MicroTlb::FlushVa(VirtAddr va) {
  stats_.flushes++;
  const uint32_t vpn = VirtPageNumber(va);
  for (uint64_t live = valid_; live != 0; live &= live - 1) {
    const uint32_t index = static_cast<uint32_t>(std::countr_zero(live));
    if (entries_[index].CoversVpn(vpn)) {
      Invalidate(index);
      stats_.entries_flushed++;
    }
  }
}

}  // namespace sat

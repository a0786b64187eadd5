#include "src/cache/cache.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <numeric>

namespace sat {

Cache::Cache(std::string name, uint32_t size_bytes, uint32_t line_size,
             uint32_t ways)
    : name_(std::move(name)), line_size_(line_size), ways_(ways) {
  assert(line_size > 0 && (line_size & (line_size - 1)) == 0);
  assert(ways > 0 && size_bytes % (line_size * ways) == 0);
  line_shift_ = static_cast<uint32_t>(std::countr_zero(line_size));
  num_sets_ = size_bytes / (line_size * ways);
  assert((num_sets_ & (num_sets_ - 1)) == 0 && "set count must be a power of two");
  set_shift_ = static_cast<uint32_t>(std::countr_zero(num_sets_));
  stride_ = 2 * ways_ + 1;
  blocks_.assign(static_cast<size_t>(num_sets_) * stride_, 0);
  InvalidateAll();
}

uint32_t Cache::TagOf(uint64_t line_addr) const {
  const uint64_t tag = line_addr >> set_shift_;
  assert(tag < kInvalidTag && "physical address beyond the 32-bit tag range");
  return static_cast<uint32_t>(tag);
}

bool Cache::Access(PhysAddr pa) {
  stats_.accesses++;
  const uint64_t line_addr = LineAddr(pa);
  const uint32_t tag = TagOf(line_addr);
  uint32_t* tags = SetBlock(SetOf(line_addr));
  uint32_t* stamps = tags + ways_;
  uint32_t& clock = stamps[ways_];
  if (clock == kClockLimit) {
    Renormalise(tags);
  }
  const uint32_t now = ++clock;
  // One branch-free pass finds the hit way (a tag is resident in at most
  // one way) and the victim: the first way with the smallest stamp, which
  // is the first invalid way (stamp 0) if any, else the LRU way.
  uint32_t hit = ways_;
  uint32_t victim = 0;
  uint32_t oldest = stamps[0];
  for (uint32_t w = 0; w < ways_; ++w) {
    hit = tags[w] == tag ? w : hit;
    const bool older = stamps[w] < oldest;
    victim = older ? w : victim;
    oldest = older ? stamps[w] : oldest;
  }
  // A hit restamps its way; a miss fills the victim. Rewriting a hit way's
  // own tag is a no-op, so both are one store pair.
  const bool is_hit = hit != ways_;
  const uint32_t way = is_hit ? hit : victim;
  tags[way] = tag;
  stamps[way] = now;
  stats_.misses += is_hit ? 0 : 1;
  return is_hit;
}

bool Cache::Probe(PhysAddr pa) const {
  const uint64_t line_addr = LineAddr(pa);
  const uint32_t tag = TagOf(line_addr);
  const uint32_t* tags = SetBlock(SetOf(line_addr));
  for (uint32_t w = 0; w < ways_; ++w) {
    if (tags[w] == tag) {
      return true;
    }
  }
  return false;
}

void Cache::InvalidateAll() {
  for (uint32_t set = 0; set < num_sets_; ++set) {
    uint32_t* tags = SetBlock(set);
    std::fill(tags, tags + ways_, kInvalidTag);
    std::fill(tags + ways_, tags + 2 * ways_, 0u);
  }
}

void Cache::Renormalise(uint32_t* block) {
  uint32_t* stamps = block + ways_;
  std::vector<uint32_t> order(ways_);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&](uint32_t a, uint32_t b) { return stamps[a] < stamps[b]; });
  uint32_t rank = 0;
  for (uint32_t w : order) {
    if (stamps[w] != 0) {
      stamps[w] = ++rank;
    }
  }
  stamps[ways_] = rank;
}

void Cache::MoveLruClocksNearWrapForTest(uint32_t headroom) {
  for (uint32_t set = 0; set < num_sets_; ++set) {
    uint32_t* stamps = SetBlock(set) + ways_;
    if (uint64_t{stamps[ways_]} + headroom >= kClockLimit) {
      continue;  // already that close
    }
    const uint32_t delta = kClockLimit - headroom - stamps[ways_];
    for (uint32_t w = 0; w < ways_; ++w) {
      if (stamps[w] != 0) {
        stamps[w] += delta;
      }
    }
    stamps[ways_] += delta;
  }
}

CacheHierarchy::CacheHierarchy(const CostModel* costs, Cache* l2)
    : costs_(costs),
      l1i_("L1I", 32 * 1024, 32, 4),
      l1d_("L1D", 32 * 1024, 32, 4),
      l2_(l2) {
  assert(l2 != nullptr);
}

Cycles CacheHierarchy::L2Stall(PhysAddr pa, CoreCounters* counters) {
  const bool hit = l2_->Access(pa);
  if (!hit) {
    counters->l2_misses++;
  }
  return hit ? costs_->l2_hit : costs_->l2_hit + costs_->dram;
}

Cycles CacheHierarchy::AccessInst(PhysAddr pa, CoreCounters* counters) {
  if (l1i_.Access(pa)) {
    return costs_->l1_hit;
  }
  counters->l1i_misses++;
  const Cycles stall = L2Stall(pa, counters);
  counters->icache_stall_cycles += stall;
  return costs_->l1_hit + stall;
}

Cycles CacheHierarchy::AccessData(PhysAddr pa, CoreCounters* counters) {
  if (l1d_.Access(pa)) {
    return costs_->l1_hit;
  }
  counters->l1d_misses++;
  const Cycles stall = L2Stall(pa, counters);
  counters->dcache_stall_cycles += stall;
  return costs_->l1_hit + stall;
}

Cycles CacheHierarchy::AccessPtw(PhysAddr pa, CoreCounters* counters) {
  // The ARMv7 hardware walker allocates PTE fetches into L1D and L2; the
  // stall accounting is left to the caller (it shows up as TLB-miss stall
  // time, not as a data-cache stall).
  if (l1d_.Access(pa)) {
    return costs_->l1_hit;
  }
  counters->l1d_misses++;
  return costs_->l1_hit + L2Stall(pa, counters);
}

void CacheHierarchy::InvalidateAll() {
  l1i_.InvalidateAll();
  l1d_.InvalidateAll();
  l2_->InvalidateAll();
}

}  // namespace sat

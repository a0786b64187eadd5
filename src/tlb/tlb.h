// The TLB model: per-core micro TLBs plus a unified set-associative main
// TLB, mirroring the Cortex-A9 arrangement the paper evaluates on
// (instruction/data micro TLBs that are flushed on every context switch,
// and a unified 128-entry main TLB with round-robin replacement).
//
// Entries carry the fields the paper's mechanism depends on:
//   * an ASID, ignored when the entry is global (the global bit is how
//     zygote-preloaded shared code gets one TLB entry for all apps);
//   * a domain id, checked against the current DACR on every hit — a
//     kNoAccess domain produces a *domain fault*, the paper's trap for
//     non-zygote processes touching zygote-domain global entries.

#ifndef SRC_TLB_TLB_H_
#define SRC_TLB_TLB_H_

#include <cstdint>
#include <vector>

#include "src/arch/domain.h"
#include "src/arch/pte.h"
#include "src/arch/types.h"

namespace sat {

class Tracer;

struct TlbEntry {
  bool valid = false;
  uint32_t vpn = 0;          // virtual page number of the entry's base
  uint32_t size_pages = 1;   // 1 (4 KB), 16 (64 KB large page) or
                             // 256 (1 MB section)
  Asid asid = 0;
  bool global = false;
  DomainId domain = 0;
  PtePerm perm = PtePerm::kNone;
  bool executable = false;
  FrameNumber frame = 0;

  // Does this entry translate `vpn_query` for `asid_query`?
  bool Matches(uint32_t vpn_query, Asid asid_query) const {
    if (!valid) {
      return false;
    }
    if (!global && asid != asid_query) {
      return false;
    }
    return (vpn_query & ~(size_pages - 1)) == vpn;
  }

  // Covers the virtual page regardless of ASID (for flush-by-VA).
  bool CoversVpn(uint32_t vpn_query) const {
    return valid && (vpn_query & ~(size_pages - 1)) == vpn;
  }
};

// Could a lookup ever return either of these two valid entries for one and
// the same (vpn, asid) query? True when their page ranges overlap and they
// serve a common address space (same ASID, or either one is global). Insert
// uses this to scrub stale duplicates; the property tests use it as the
// no-duplicate invariant.
bool EntriesConflict(const TlbEntry& lhs, const TlbEntry& rhs);

enum class TlbResult : uint8_t {
  kMiss = 0,
  kHit,
  kDomainFault,    // DACR gives no access to the entry's domain
  kPermissionFault,  // domain is client and the PTE permissions deny
};

struct TlbStats {
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t domain_faults = 0;
  uint64_t permission_faults = 0;
  uint64_t insertions = 0;
  uint64_t flushes = 0;
  uint64_t entries_flushed = 0;
};

// Checks `access` against a matching entry under `dacr`.
TlbResult CheckEntryAccess(const TlbEntry& entry, AccessType access,
                           const DomainAccessControl& dacr);

// The packed form of an entry's match condition: a query `(vpn, asid)`
// encoded by Query() matches exactly when `(query & mask) == key`. The mask
// keeps the VPN bits above the entry's size and, for a non-global entry,
// the ASID byte; an invalid slot has mask 0 and a key no query can equal.
// This is TlbEntry::Matches in one AND and one compare.
struct TlbMatchKey {
  uint64_t key = ~0ull;
  uint64_t mask = 0;

  static uint64_t Query(uint32_t vpn, Asid asid) {
    return vpn | (static_cast<uint64_t>(asid) << 32);
  }
  static TlbMatchKey Of(const TlbEntry& entry);

  bool Matches(uint64_t query) const { return (query & mask) == key; }
};

// The unified main TLB: set-associative, round-robin replacement per set.
// 64 KB and 1 MB entries are indexed by their aligned base VPN; lookups
// therefore probe the 4 KB-index set, the 64 KB-index set and the
// 1 MB-index set — but only those base-index sets whose summary bit says
// they may hold an entry a 4 KB home-set probe would not find (see
// DESIGN.md §5m).
class MainTlb {
 public:
  MainTlb(uint32_t num_entries, uint32_t ways);

  TlbResult Lookup(VirtAddr va, Asid asid, AccessType access,
                   const DomainAccessControl& dacr, TlbEntry* out);

  void Insert(const TlbEntry& entry);

  // Invalidate everything, including global entries (full flush; the
  // no-ASID fallback configuration uses this on context switch... except
  // that global entries surviving is precisely the point, so the fallback
  // uses FlushNonGlobal instead; FlushAll models `TLBIALL`).
  void FlushAll();

  // Invalidate all non-global entries (context switch without ASIDs).
  void FlushNonGlobal();

  // Invalidate every *global* entry (the software fallback for
  // architectures without domains: drop shared entries before running a
  // process outside the sharing group).
  void FlushGlobal();

  // Invalidate non-global entries of one address space.
  void FlushAsid(Asid asid);

  // Invalidate every entry covering `va`, global or not (the domain-fault
  // handler's "flush all TLB entries that match the faulting address").
  void FlushVa(VirtAddr va);

  const TlbStats& stats() const { return stats_; }
  void ResetStats() { stats_ = TlbStats{}; }

  uint32_t ValidEntryCount() const;
  // Bytes of virtual address space the valid entries currently translate —
  // the translation-reach metric the promotion engine exists to grow.
  uint64_t ReachBytes() const;
  uint32_t num_entries() const { return static_cast<uint32_t>(entries_.size()); }

  // Geometry and raw-entry inspection, for invariant-checking tests.
  uint32_t ways() const { return ways_; }
  uint32_t num_sets() const { return num_sets_; }
  const TlbEntry& EntryAt(uint32_t set, uint32_t way) const {
    return entries_[set * ways_ + way];
  }

  // Chaos backdoor: lets the injector flip tag/attribute bits of a stored
  // entry in place, bypassing Insert's dedup scrubbing. `mutate` receives
  // the entry; the slot's match key and its set's summary bit are then
  // rebuilt from whatever it left there, so lookups see exactly the
  // corrupted entry. Never used by the lookup/insert machinery itself.
  template <typename Fn>
  void MutateEntryForChaos(uint32_t set, uint32_t way, Fn&& mutate) {
    const uint32_t slot = set * ways_ + way;
    mutate(entries_[slot]);
    keys_[slot] = TlbMatchKey::Of(entries_[slot]);
    RebuildSummary(set);
  }

  // Flush operations report entries-flushed counts as trace events.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

 private:
  // Flush kinds as reported in kTlbFlush events' `a` payload.
  enum FlushKind : uint64_t {
    kFlushKindAll = 0,
    kFlushKindNonGlobal,
    kFlushKindGlobal,
    kFlushKindAsid,
    kFlushKindVa,
  };

  static constexpr uint32_t kNoWay = UINT32_MAX;

  uint32_t SetIndexOf(uint32_t vpn) const { return vpn & (num_sets_ - 1); }
  // First way of `set` whose entry matches `query`, or kNoWay.
  uint32_t FindInSet(uint32_t set, uint64_t query) const;
  // Is this valid entry anything but a 4 KB entry sitting in its own home
  // set? Only such entries can be found outside a 4 KB query's home set.
  bool IsAway(const TlbEntry& entry, uint32_t set) const {
    return entry.size_pages != 1 || SetIndexOf(entry.vpn) != set;
  }
  void Invalidate(uint32_t slot);
  void RebuildSummary(uint32_t set);
  template <typename Pred>
  void FlushMatching(FlushKind kind, Pred should_flush);

  uint32_t ways_;
  uint32_t num_sets_;
  std::vector<TlbEntry> entries_;         // num_sets_ x ways_
  std::vector<TlbMatchKey> keys_;         // one per entry, kept in step
  // Per set: may it hold a valid entry for which IsAway() is true? Set by
  // large/section inserts and by chaos, recomputed by every flush. A clear
  // bit lets a 4 KB lookup or insert skip the set as a base-index set.
  std::vector<uint8_t> has_away_;
  std::vector<uint32_t> replace_cursor_;  // round-robin per set
  TlbStats stats_;
  Tracer* tracer_ = nullptr;
};

// A micro TLB: small, fully associative, FIFO replacement, flushed on
// every context switch (Cortex-A9 behaviour the paper leans on). Lookups
// scan packed match keys in index order; a bitmask of valid slots picks
// the lowest free slot on insert.
class MicroTlb {
 public:
  // At most 64 entries (one bit of the valid mask each).
  explicit MicroTlb(uint32_t num_entries);

  TlbResult Lookup(VirtAddr va, Asid asid, AccessType access,
                   const DomainAccessControl& dacr, TlbEntry* out);

  void Insert(const TlbEntry& entry);
  void FlushAll();
  void FlushVa(VirtAddr va);

  const TlbStats& stats() const { return stats_; }
  void ResetStats() { stats_ = TlbStats{}; }

  // Raw-entry inspection (for the invariant auditor).
  uint32_t num_entries() const { return static_cast<uint32_t>(entries_.size()); }
  const TlbEntry& EntryAt(uint32_t index) const { return entries_[index]; }

 private:
  void Invalidate(uint32_t index);

  std::vector<TlbMatchKey> keys_;
  std::vector<TlbEntry> entries_;
  uint64_t valid_ = 0;  // bit i: entries_[i].valid
  uint64_t all_ = 0;    // one bit per slot
  uint32_t fifo_cursor_ = 0;
  TlbStats stats_;
};

}  // namespace sat

#endif  // SRC_TLB_TLB_H_

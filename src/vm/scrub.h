// scrubd: the incremental corruption scrubber (graceful degradation's
// repair half; the recoverable-oops machinery in src/arch/check.h is the
// containment half).
//
// The simulated kernel keeps three redundant copies of mapping state: the
// hardware PTE table the walker reads, the Linux shadow table, and the
// kernel-wide reverse map. Chaos injection (FaultInjector corrupt rules)
// flips bits only in the hardware descriptors, zram slot bytes, and TLB
// entry tags — exactly the state real bit rot hits — so the shadow table
// and the rmap survive as the trusted source scrubd repairs from:
//
//   * hardware/shadow desync, rotten frame bits   -> rebuild from the rmap
//     (conservatively read-only and non-global; the next write or execute
//     takes a permission fault that lazily restores precise permissions
//     from the VMA, the same way a minor fault would)
//   * clean file page behind a rotten descriptor  -> drop and refault
//   * spurious-valid descriptor over an empty or
//     swap shadow entry                           -> invalidate in place
//   * zero-page mapping with rotten frame bits    -> re-point at the zero
//     frame (present shadow with no rmap entry can only be a zero page)
//   * shared-PTP descriptor that became writable  -> write-protect again
//   * checksum-bad zram slot, still swap-cached   -> re-duplicate from the
//     cached frame
//
// What has no redundant copy left — an uncached checksum-bad slot, or a
// descriptor whose shadow and rmap disagree — is reported back to the
// kernel as unrepairable; the kernel oops-kills exactly the sharers of the
// damaged PTP or slot (src/proc/kernel.cc, OopsKillByDamage).

#ifndef SRC_VM_SCRUB_H_
#define SRC_VM_SCRUB_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/arch/domain.h"
#include "src/arch/types.h"
#include "src/mem/phys_memory.h"
#include "src/mem/zram.h"
#include "src/pt/ptp.h"
#include "src/pt/rmap.h"
#include "src/stats/counters.h"

namespace sat {

// Kernel-supplied facts the scrubber cannot derive from the memory
// subsystems alone (they live in the tasks' first-level tables and the VM
// configuration).
struct ScrubContext {
  // The L1 domain of the entries referencing a PTP; kDomainUser when no
  // live task references it. Global descriptors are only legal in
  // zygote-domain PTPs.
  std::function<DomainId(PtpId)> domain_of;
  // True when any live task's L1 entry for the PTP carries NEED_COPY
  // (descriptors there must be write-protected, even for a sole sharer).
  std::function<bool(PtpId)> need_copy_of;
  // VmConfig::share_tlb_global: with it off, no descriptor is ever global.
  bool share_tlb_global = false;
  // VmConfig::hw_l1_write_protect: the per-PTE write-protect pass is
  // skipped under that ablation, so writable descriptors in shared PTPs
  // are legal and must not be "repaired".
  bool hw_l1_write_protect = false;
  // NUMA page-table replication (src/numa): the majority hardware word
  // across this site's per-node replicas, or nullopt when the PTP is not
  // replicated / no strict majority exists. A last-resort repair source
  // consulted only when every other redundant copy is gone — the
  // write-through replica protocol keeps replicas bit-identical to the
  // master, so a strict majority outvotes rot in the master word.
  std::function<std::optional<uint32_t>(PtpId, uint32_t)> replica_majority_of;
};

enum class ScrubSiteResult : uint8_t {
  kClean = 0,
  kRepaired,
  kUnrepairable,
};

struct ScrubSiteRef {
  PtpId ptp = kNoPtp;
  uint32_t index = 0;
};

struct ScrubPassResult {
  uint32_t ptps_walked = 0;
  uint32_t repairs = 0;
  // Damage with no redundant copy left; the kernel oops-kills the sharers.
  std::vector<ScrubSiteRef> unrepairable_sites;
  std::vector<SwapSlotId> unrepairable_slots;
};

class Scrubber {
 public:
  Scrubber(PhysicalMemory* phys, PtpAllocator* ptps, ReverseMap* rmap,
           ZramStore* zram, KernelCounters* counters)
      : phys_(phys), ptps_(ptps), rmap_(rmap), zram_(zram),
        counters_(counters) {}

  Scrubber(const Scrubber&) = delete;
  Scrubber& operator=(const Scrubber&) = delete;

  // TLB shootdown hook for repaired sites. `va` is the mapped address when
  // the rmap knew it, 0 otherwise (the kernel recovers it from a sharer's
  // L1 slot). Required before RunPass/ScrubSite can repair anything.
  void set_flush_site(
      std::function<void(PtpId ptp, uint32_t index, VirtAddr va)> fn) {
    flush_site_ = std::move(fn);
  }

  // One incremental pass: validates (and repairs in place) up to
  // `ptp_budget` live PTPs starting at the round-robin cursor, then every
  // live zram slot's checksum. Bumps scrub_repairs per repair; collecting
  // unrepairable damage is the caller's job to act on.
  ScrubPassResult RunPass(const ScrubContext& ctx, uint32_t ptp_budget);

  // Validates and, if needed, repairs the single PTE site (`ptp`, `index`)
  // — the touch path's inline detect-and-repair step. Builds the site
  // table for just this PTP, so it costs one walk of the rmap.
  ScrubSiteResult ScrubSite(PageTablePage& ptp, uint32_t index,
                            const ScrubContext& ctx);

 private:
  // What the rmap says is mapped at one PTE site: the frame and address
  // of the first entry naming it (the one ReverseMap::FindAtSite would
  // return), or kNoFrame when no entry does.
  struct SiteTruth {
    FrameNumber frame = kNoFrame;
    VirtAddr va = 0;
  };
  static constexpr FrameNumber kNoFrame = ~FrameNumber{0};
  static constexpr uint32_t kNotInWindow = ~uint32_t{0};

  // One walk of the rmap fills site_table_ for every site of the PTPs in
  // window_ and mapped_frames_ for every frame with an rmap entry. The
  // walk stays exact for the whole pass: the only rmap change a pass
  // makes is DropSite removing the entry of the site it is repairing (a
  // file-cache frame, so no later site and no anon frame is affected).
  void BuildSiteTable();
  // Validates and repairs one site against its row of the site table.
  // `run_vote_possible` is false when the site's 16-aligned group holds
  // too few large words for TryRepairRunReplica to reach a majority.
  ScrubSiteResult CheckSite(PageTablePage& ptp, uint32_t index,
                            const SiteTruth& truth, bool run_vote_possible,
                            const ScrubContext& ctx);
  // True when the descriptor's frame bits point at a frame that could
  // legally be mapped by a user PTE.
  bool FrameLooksMapped(FrameNumber frame) const;
  // The always-correct conservative rebuild: read-only, non-global,
  // executable — a permission fault lazily restores the real attributes
  // from the VMA.
  void RebuildFromFrame(PageTablePage& ptp, uint32_t index, FrameNumber frame,
                        VirtAddr va);
  // Drop-and-refault repair for a clean refetchable page.
  void DropSite(PageTablePage& ptp, uint32_t index, FrameNumber frame,
                VirtAddr va);
  // Last-resort repair from the NUMA replica majority (see
  // ScrubContext::replica_majority_of). True when repaired.
  bool TryRepairFromReplicaMajority(PageTablePage& ptp, uint32_t index,
                                    const ScrubContext& ctx);
  // Run-replica voting: the 16 words of a collapsed 64 KB run are
  // bit-identical, so a word that disagrees with a clear majority of its
  // 16-aligned neighbours (rotted valid/large/frame/attribute bits) is
  // outvoted and rewritten as a copy of theirs. True when repaired.
  bool TryRepairRunReplica(PageTablePage& ptp, uint32_t index);

  PhysicalMemory* phys_;
  PtpAllocator* ptps_;
  ReverseMap* rmap_;
  ZramStore* zram_;
  KernelCounters* counters_;
  std::function<void(PtpId, uint32_t, VirtAddr)> flush_site_;
  // Round-robin position (by live-PTP enumeration order) so successive
  // passes cover the whole table population incrementally.
  uint64_t cursor_ = 0;
  // Per-pass buffers, kept to reuse their allocations: the live PTPs, the
  // window of them this pass validates, each window PTP's slot (indexed
  // by PtpId, kNotInWindow elsewhere), the site table (kPtesPerPtp rows
  // per window slot), and a bitset of frames with any rmap entry.
  std::vector<PtpId> live_;
  std::vector<PtpId> window_;
  std::vector<uint32_t> window_slot_;
  std::vector<SiteTruth> site_table_;
  std::vector<uint64_t> mapped_frames_;
};

}  // namespace sat

#endif  // SRC_VM_SCRUB_H_

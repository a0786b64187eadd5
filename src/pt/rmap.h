// Reverse mapping: frame -> the page-table entries mapping it (the
// analogue of Linux's rmap, which page reclaim uses to unmap a victim
// page from every address space).
//
// The unit of an rmap entry is a *PTE in a PTP*, not a process. That is
// the point: when a PTP is shared by N processes, the frame has ONE rmap
// entry for it, and one PTE clear unmaps the page from all N sharers at
// once. Under the stock kernel the same page costs N entries and N
// clears. bench_reclaim measures exactly this (the introduction's
// "overhead grows linearly with the number of processes" claim, from the
// reclaim side).
//
// Layout (DESIGN.md §5n): a head array indexed by frame number, over one
// pooled arena of entry nodes recycled through a free list. Each frame's
// entries form a doubly linked list in insertion order, so Add is O(1)
// and a Remove near the head — fork/exit churn removes the oldest
// mappers first — is O(1) too. A frame with very many mappers (KSM
// stable frames) also keeps a sorted (site -> node) key array, so
// removing an arbitrary entry is a binary search rather than a walk of a
// thousand-node chain.

#ifndef SRC_PT_RMAP_H_
#define SRC_PT_RMAP_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/arch/pte.h"
#include "src/arch/types.h"

namespace sat {

struct RmapEntry {
  PtpId ptp = kNoPtp;
  uint16_t index = 0;   // PTE index within the PTP
  VirtAddr va = 0;      // identical across sharers (the zygote model)

  bool operator==(const RmapEntry&) const = default;
};

class ReverseMap {
 public:
  // A frame gains a key array when its entry count rises above
  // kKeyedAbove, and loses it when the count falls below kUnkeyedBelow.
  // The gap keeps a frame that hovers near the threshold from rebuilding
  // its array on every add/remove pair.
  static constexpr uint32_t kKeyedAbove = 256;
  static constexpr uint32_t kUnkeyedBelow = 128;

  ReverseMap() = default;

  ReverseMap(const ReverseMap&) = delete;
  ReverseMap& operator=(const ReverseMap&) = delete;

  void Add(FrameNumber frame, PtpId ptp, uint32_t index, VirtAddr va);

  // Removes one (ptp, index) mapping of `frame` — the oldest, if the site
  // is named twice. Returns whether an entry was actually there — false
  // is the O(1) tell that the PTE's frame bits and the rmap disagree
  // (corruption), since every legal teardown removes an entry its install
  // added.
  bool Remove(FrameNumber frame, PtpId ptp, uint32_t index);

  // Number of PTEs mapping `frame` (NOT the number of processes — a
  // shared PTP contributes one).
  uint32_t MapCount(FrameNumber frame) const {
    return frame < heads_.size() ? heads_[frame].count : 0;
  }

  // A copy of `frame`'s mappings in insertion order, safe to hold while
  // the rmap changes.
  std::vector<RmapEntry> MappingsOf(FrameNumber frame) const;

  // Does `frame` have an entry naming (ptp, index)? Allocates nothing.
  bool HasSite(FrameNumber frame, PtpId ptp, uint32_t index) const;

  // Visits every entry as fn(frame, entry): frames in ascending order,
  // each frame's entries in insertion order. That is the order FindAtSite
  // scans them, so the first entry seen for a site is the one FindAtSite
  // returns. The callback must not mutate the rmap.
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    for (FrameNumber frame = 0; frame < heads_.size(); ++frame) {
      for (uint32_t n = heads_[frame].first; n != kNil; n = nodes_[n].next) {
        fn(frame, nodes_[n].entry);
      }
    }
  }

  // Which frame does the rmap believe is mapped at (ptp, index)? Linear
  // scan over all entries — only used where the hardware PTE's frame bits
  // are suspect (teardown and unshare of a rotted descriptor) and the
  // rmap is the surviving copy of the truth; scrubd answers the same
  // question for a whole pass from one ForEachEntry walk. Returns
  // nullopt when no entry names the site.
  std::optional<std::pair<FrameNumber, VirtAddr>> FindAtSite(
      PtpId ptp, uint32_t index) const;

  uint64_t total_entries() const { return total_entries_; }

 private:
  static constexpr uint32_t kNil = UINT32_MAX;

  // One entry in the pooled arena; a free node links the free list
  // through `next`.
  struct Node {
    RmapEntry entry;
    uint32_t prev = kNil;
    uint32_t next = kNil;
  };

  // A frame's list, plus the index of its key array in keys_ (kNil while
  // the frame is unkeyed).
  struct Head {
    uint32_t first = kNil;
    uint32_t last = kNil;
    uint32_t count = 0;
    uint32_t keys = kNil;
  };

  // One key-array slot: a site and the node holding it. Kept sorted by
  // site; equal sites sit in insertion order.
  struct SiteKey {
    PtpId ptp;
    uint16_t index;
    uint32_t node;
  };
  static bool SiteBefore(const SiteKey& a, const SiteKey& b) {
    return a.ptp != b.ptp ? a.ptp < b.ptp : a.index < b.index;
  }

  // The node naming (ptp, index) in `head`'s list, oldest first; kNil if
  // none does.
  uint32_t FindNode(const Head& head, PtpId ptp, uint32_t index) const;
  void Unlink(Head& head, uint32_t n);
  void BuildKeys(Head& head);
  void DropKeys(Head& head);

  std::vector<Head> heads_;  // indexed by frame; grows on Add
  std::vector<Node> nodes_;
  uint32_t free_nodes_ = kNil;
  std::vector<std::vector<SiteKey>> keys_;  // many-mapper frames only
  std::vector<uint32_t> free_keys_;
  uint64_t total_entries_ = 0;
};

}  // namespace sat

#endif  // SRC_PT_RMAP_H_

// Test oracle for the reverse map at site granularity. The invariant
// auditor only compares per-frame counts (rmap entries vs. mapping PTEs);
// this checks what scrubd actually trusts the rmap for:
//
//   * every entry names a live PTP whose hardware word at that index is
//     valid and maps the entry's frame, and
//   * no (ptp, index) site is named by two entries.
//
// Under chaos injection it holds only once scrubd has swept the rotted
// words (flips land in hardware words behind the rmap's back).

#ifndef TESTS_RMAP_ORACLE_H_
#define TESTS_RMAP_ORACLE_H_

#include <bitset>
#include <string>
#include <vector>

#include "src/pt/page_table.h"
#include "src/pt/ptp.h"
#include "src/pt/rmap.h"

namespace sat {

// Empty when the rmap is consistent with the live page tables, else a
// description of the first violation found.
inline std::string RmapSiteViolation(const ReverseMap& rmap,
                                     const PtpAllocator& ptps) {
  std::vector<std::bitset<kPtesPerPtp>> named;  // indexed by PtpId
  std::string violation;
  rmap.ForEachEntry([&](FrameNumber frame, const RmapEntry& entry) {
    if (!violation.empty()) {
      return;
    }
    const auto describe = [&](const char* what) {
      return "frame " + std::to_string(frame) + " at ptp " +
             std::to_string(entry.ptp) + " index " +
             std::to_string(entry.index) + ": " + what;
    };
    const PageTablePage* ptp = ptps.GetIfLive(entry.ptp);
    if (ptp == nullptr) {
      violation = describe("entry names a dead PTP");
      return;
    }
    const HwPte hw = ptp->hw(entry.index);
    if (!hw.valid() || MappedFrameOf(hw, entry.index) != frame) {
      violation = describe("the hardware word does not map the frame");
      return;
    }
    const auto id = static_cast<size_t>(entry.ptp);
    if (named.size() <= id) {
      named.resize(id + 1);
    }
    if (named[id].test(entry.index)) {
      violation = describe("site named by two entries");
      return;
    }
    named[id].set(entry.index);
  });
  return violation;
}

}  // namespace sat

#endif  // TESTS_RMAP_ORACLE_H_

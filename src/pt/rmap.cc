#include "src/pt/rmap.h"

#include <algorithm>

namespace sat {

void ReverseMap::Add(FrameNumber frame, PtpId ptp, uint32_t index,
                     VirtAddr va) {
  if (frame >= heads_.size()) {
    heads_.resize(size_t{frame} + 1);
  }
  uint32_t n = free_nodes_;
  if (n != kNil) {
    free_nodes_ = nodes_[n].next;
  } else {
    n = static_cast<uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  Head& head = heads_[frame];
  nodes_[n] = Node{RmapEntry{ptp, static_cast<uint16_t>(index), va},
                   head.last, kNil};
  if (head.last != kNil) {
    nodes_[head.last].next = n;
  } else {
    head.first = n;
  }
  head.last = n;
  head.count++;
  total_entries_++;
  if (head.keys != kNil) {
    std::vector<SiteKey>& keys = keys_[head.keys];
    const SiteKey key{ptp, static_cast<uint16_t>(index), n};
    keys.insert(std::upper_bound(keys.begin(), keys.end(), key, SiteBefore),
                key);
  } else if (head.count > kKeyedAbove) {
    BuildKeys(head);
  }
}

bool ReverseMap::Remove(FrameNumber frame, PtpId ptp, uint32_t index) {
  if (frame >= heads_.size()) {
    return false;
  }
  Head& head = heads_[frame];
  uint32_t n = kNil;
  if (head.keys != kNil) {
    if (index > UINT16_MAX) {
      return false;  // no entry can name it
    }
    std::vector<SiteKey>& keys = keys_[head.keys];
    const SiteKey key{ptp, static_cast<uint16_t>(index), kNil};
    const auto it = std::lower_bound(keys.begin(), keys.end(), key, SiteBefore);
    if (it == keys.end() || SiteBefore(key, *it)) {
      return false;
    }
    n = it->node;
    keys.erase(it);
  } else {
    n = FindNode(head, ptp, index);
    if (n == kNil) {
      return false;
    }
  }
  Unlink(head, n);
  total_entries_--;
  if (head.keys != kNil && head.count < kUnkeyedBelow) {
    DropKeys(head);
  }
  return true;
}

std::vector<RmapEntry> ReverseMap::MappingsOf(FrameNumber frame) const {
  std::vector<RmapEntry> out;
  if (frame < heads_.size()) {
    out.reserve(heads_[frame].count);
    for (uint32_t n = heads_[frame].first; n != kNil; n = nodes_[n].next) {
      out.push_back(nodes_[n].entry);
    }
  }
  return out;
}

bool ReverseMap::HasSite(FrameNumber frame, PtpId ptp, uint32_t index) const {
  if (frame >= heads_.size()) {
    return false;
  }
  const Head& head = heads_[frame];
  if (head.keys != kNil) {
    const SiteKey key{ptp, static_cast<uint16_t>(index), kNil};
    return index <= UINT16_MAX &&
           std::binary_search(keys_[head.keys].begin(), keys_[head.keys].end(),
                              key, SiteBefore);
  }
  return FindNode(head, ptp, index) != kNil;
}

std::optional<std::pair<FrameNumber, VirtAddr>> ReverseMap::FindAtSite(
    PtpId ptp, uint32_t index) const {
  for (FrameNumber frame = 0; frame < heads_.size(); ++frame) {
    for (uint32_t n = heads_[frame].first; n != kNil; n = nodes_[n].next) {
      const RmapEntry& entry = nodes_[n].entry;
      if (entry.ptp == ptp && entry.index == index) {
        return std::make_pair(frame, entry.va);
      }
    }
  }
  return std::nullopt;
}

uint32_t ReverseMap::FindNode(const Head& head, PtpId ptp,
                              uint32_t index) const {
  for (uint32_t n = head.first; n != kNil; n = nodes_[n].next) {
    if (nodes_[n].entry.ptp == ptp && nodes_[n].entry.index == index) {
      return n;
    }
  }
  return kNil;
}

void ReverseMap::Unlink(Head& head, uint32_t n) {
  Node& node = nodes_[n];
  if (node.prev != kNil) {
    nodes_[node.prev].next = node.next;
  } else {
    head.first = node.next;
  }
  if (node.next != kNil) {
    nodes_[node.next].prev = node.prev;
  } else {
    head.last = node.prev;
  }
  head.count--;
  node.next = free_nodes_;
  free_nodes_ = n;
}

void ReverseMap::BuildKeys(Head& head) {
  if (free_keys_.empty()) {
    head.keys = static_cast<uint32_t>(keys_.size());
    keys_.emplace_back();
  } else {
    head.keys = free_keys_.back();
    free_keys_.pop_back();
  }
  std::vector<SiteKey>& keys = keys_[head.keys];
  keys.reserve(head.count);
  for (uint32_t n = head.first; n != kNil; n = nodes_[n].next) {
    keys.push_back(SiteKey{nodes_[n].entry.ptp, nodes_[n].entry.index, n});
  }
  // Stable, so a site named twice keeps its oldest node first.
  std::stable_sort(keys.begin(), keys.end(), SiteBefore);
}

void ReverseMap::DropKeys(Head& head) {
  std::vector<SiteKey>& keys = keys_[head.keys];
  keys.clear();
  keys.shrink_to_fit();
  free_keys_.push_back(head.keys);
  head.keys = kNil;
}

}  // namespace sat

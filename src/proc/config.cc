#include "src/proc/config.h"

namespace sat {

std::string SystemConfig::Name() const {
  std::string name;
  if (vm.copy_zygote_code_ptes_at_fork) {
    name = "Copied PTEs";
  } else if (vm.share_ptps && vm.share_tlb_global) {
    name = "Shared PTP & TLB";
  } else if (vm.share_ptps) {
    name = "Shared PTP";
  } else {
    name = "Stock Android";
  }
  if (two_mb_alignment) {
    name += " - 2MB";
  }
  if (!core.asids_enabled) {
    name += " (no ASID)";
  }
  if (vm.copy_referenced_only_on_unshare) {
    name += " [ref-only unshare]";
  }
  if (vm.lazy_unshare_on_new_region) {
    name += " [lazy unshare]";
  }
  if (vm.hw_l1_write_protect) {
    name += " [L1 WP]";
  }
  if (large_pages_for_code) {
    name += " [64KB code]";
  }
  if (vm.fault_around_pages > 0) {
    name += " [FA" + std::to_string(vm.fault_around_pages) + "]";
  }
  if (core.isolation != IsolationModel::kArmDomains) {
    name += std::string(" [") + IsolationModelName(core.isolation) + "]";
  }
  if (swap_bytes > 0) {
    name += " [zram " + std::to_string(swap_bytes >> 20) + "MB]";
  }
  if (ksm) {
    name += " [ksm]";
  }
  if (scrub) {
    name += " [scrub]";
  }
  if (huge) {
    name += huge_unmerge_ksm ? " [huge+unmerge]" : " [huge]";
  }
  if (num_cores > 1) {
    name += " [" + std::to_string(num_cores) + " cores";
    if (num_nodes > 1) {
      name += ", " + std::to_string(num_nodes) + " nodes";
      if (pt_placement != PtPlacement::kLocal) {
        name += std::string(", pt-") + PtPlacementName(pt_placement);
      }
    }
    name += "]";
  }
  if (shootdown_policy == ShootdownPolicy::kBatched) {
    name += " [batched shootdown]";
  }
  return name;
}

std::optional<ConfigError> ValidateConfig(const SystemConfig& config) {
  if (config.num_cores < 1 || config.num_cores > 64) {
    return ConfigError{{"num_cores"},
                       "cores must be 1 to 64 (the cpumask width), got " +
                           std::to_string(config.num_cores)};
  }
  if (config.num_nodes < 1 || config.num_cores % config.num_nodes != 0) {
    return ConfigError{{"num_cores", "num_nodes"},
                       "nodes must divide cores evenly, got " +
                           std::to_string(config.num_nodes) + " nodes for " +
                           std::to_string(config.num_cores) + " cores"};
  }
  if (config.phys_bytes < (1ull << 20)) {
    return ConfigError{{"phys_bytes"},
                       "physical memory must be at least 1 MB, got " +
                           std::to_string(config.phys_bytes) + " bytes"};
  }
  return std::nullopt;
}

}  // namespace sat

#include "src/core/sat.h"

#include "src/arch/check.h"

namespace sat {

const std::vector<NamedSystemConfig>& NamedConfigs() {
  static const std::vector<NamedSystemConfig>* registry =
      new std::vector<NamedSystemConfig>{
          {"stock", {}},
          {"stock-2mb", {.two_mb_alignment = true}},
          {"shared-ptp", {.vm = {.share_ptps = true}}},
          {"shared-ptp-2mb",
           {.vm = {.share_ptps = true}, .two_mb_alignment = true}},
          {"shared-ptp-tlb",
           {.vm = {.share_ptps = true, .share_tlb_global = true}}},
          {"shared-ptp-tlb-2mb",
           {.vm = {.share_ptps = true, .share_tlb_global = true},
            .two_mb_alignment = true}},
          {"copied-ptes", {.vm = {.copy_zygote_code_ptes_at_fork = true}}},
          // The translation-reach configuration: the full shared design
          // plus the promotion daemon and eager zygote-code sections.
          {"huge",
           {.vm = {.share_ptps = true, .share_tlb_global = true},
            .huge = true}},
          // The numaPTE-vs-sharing configuration: the full shared design
          // on a two-node four-core machine with numad replicating hot
          // PTPs.
          {"numa",
           {.vm = {.share_ptps = true, .share_tlb_global = true},
            .num_cores = 4,
            .num_nodes = 2,
            .pt_placement = PtPlacement::kReplicate}},
      };
  return *registry;
}

SystemConfig ConfigByName(std::string_view key) {
  const std::optional<SystemConfig> config = TryConfigByName(key);
  SAT_CHECK(config.has_value() && "unknown config key");
  return *config;
}

std::optional<SystemConfig> TryConfigByName(std::string_view key) {
  for (const NamedSystemConfig& entry : NamedConfigs()) {
    if (entry.key == key) {
      return entry.config;
    }
  }
  return std::nullopt;
}

std::string NamedConfigKeyList() {
  std::string list;
  for (const NamedSystemConfig& entry : NamedConfigs()) {
    if (!list.empty()) {
      list += ", ";
    }
    list += entry.key;
  }
  return list;
}

System::System(const SystemConfig& config)
    : zygote_system_(std::make_unique<ZygoteSystem>(config)) {}

}  // namespace sat

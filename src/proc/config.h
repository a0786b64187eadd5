// SystemConfig: the one configuration struct of a simulated machine.
//
// Every knob is declared exactly once. The layer sections (`vm`, `core`)
// are the structs the VM manager and the cores consume directly; the
// remaining fields are read by the Kernel (memory size, machine shape,
// daemons) or by the zygote boot (library layout, boot seed). Kernel and
// ZygoteSystem take this struct as-is, so there is nothing to copy and
// nothing to drift.
//
// The named configurations the paper evaluates (src/core/sat.h's
// NamedConfigs) are diffs against a default-constructed SystemConfig.

#ifndef SRC_PROC_CONFIG_H_
#define SRC_PROC_CONFIG_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/hw/core.h"
#include "src/hw/machine.h"
#include "src/numa/numa.h"
#include "src/trace/trace.h"
#include "src/vm/config.h"

namespace sat {

struct SystemConfig {
  // The paper's two mechanisms, the Copied-PTEs comparison kernel of
  // Table 4, and the Section 3.1.3 ablations (see src/vm/config.h).
  VmConfig vm{};
  // Hardware ASIDs (Figure 13's enabled/disabled dimension) and how
  // shared TLB entries are protected from non-members (Section 5.2).
  CoreConfig core{};

  // Map shared-library code at 2 MB boundaries, data in separate PTPs.
  bool two_mb_alignment = false;
  // Extension: map shared-library code with 64 KB large pages (the
  // Section 2.3.3 complement experiment — PTPs holding large-page
  // entries share exactly like 4 KB ones).
  bool large_pages_for_code = false;

  // Extension: simulated core count (the paper's experiments pin to one
  // of the Tegra 3's four cores). With >1 core, TLB maintenance becomes
  // IPI shootdowns over each address space's cpumask. At most 64 (the
  // cpumask width).
  uint32_t num_cores = 1;
  // Extension: NUMA nodes the cores and physical frames split into (must
  // divide num_cores). Off-node L2 misses and cross-node IPIs pay the
  // cost model's remote surcharges.
  uint32_t num_nodes = 1;
  // Extension: immediate per-PTE shootdown IPIs, or batched per-core
  // deferred-flush queues drained at the kernel's sync points (context
  // switch, syscall return, fault return, daemon tick) — one IPI per
  // distinct target per drain. The many-core scaling knob bench_smp
  // sweeps.
  ShootdownPolicy shootdown_policy = ShootdownPolicy::kImmediate;
  // Extension: page-table placement policy on a NUMA machine (src/numa).
  // kLocal leaves PTPs where first-touch put them; kReplicate has the
  // numad daemon maintain per-node replicas of walk-hot PTPs so hardware
  // walks hit local DRAM; kMigrate moves sole-owner PTPs to the dominant
  // accessor's node. Ignored on single-node machines, where numad never
  // runs. A PTP is promoted or migrated after `numad_remote_threshold`
  // remote walks between passes.
  PtPlacement pt_placement = PtPlacement::kLocal;
  uint32_t numad_wake_interval = 1024;
  uint32_t numad_remote_threshold = 8;

  // Simulated DRAM; at least 1 MB.
  uint64_t phys_bytes = 512ull * 1024 * 1024;
  // Compressed (zram) swap capacity; 0 disables swap. With swap on, the
  // kernel ages anonymous pages, kswapd runs between the low/high
  // watermarks, and direct reclaim swaps before OOM-killing.
  uint64_t swap_bytes = 0;

  // The periodic daemons. Each fires from kswapd's wake points every
  // `*_wake_interval`-th wake-up (DESIGN.md §5e); each can also be driven
  // directly (RunKsmScan, RunScrubPass, RunHugeScan, RunNumadPass)
  // whether or not it is enabled here.
  //
  // KSM same-page merging: ksmd scans madvise(MERGEABLE) anonymous
  // regions and deduplicates content-identical pages (src/ksm).
  bool ksm = false;
  uint32_t ksm_wake_interval = 1024;
  // Background corruption scrubbing (scrubd, src/vm/scrub): an
  // incremental pass cross-checks PTPs against the rmap, zram slots
  // against their checksums and TLB entries against the page tables,
  // repairs what it can, and oops-kills only the sharers of damage it
  // cannot repair. Mainly useful together with fault injection (chaos
  // testing); harmless but pure overhead on a healthy system.
  bool scrub = false;
  uint32_t scrub_wake_interval = 1024;
  // Automatic large-page promotion (huged, src/huge): a khugepaged-style
  // daemon collapses eligible 64 KB runs of 4 KB PTEs into large PTEs
  // (migrating frames into contiguous blocks when needed), and the
  // zygote's preloaded code is eagerly mapped with 1 MB L1 sections at
  // boot — the translation-reach engine.
  bool huge = false;
  uint32_t huge_wake_interval = 1024;
  // Let huged unmerge KSM-stable frames when a collapse needs them
  // (trading dedup back for reach). Off by default — deduplicated memory
  // usually wins on a memory-tight phone.
  bool huge_unmerge_ksm = false;

  // Seed of the zygote's boot footprint and data writes.
  uint64_t seed = 42;
  // Seed for the deterministic allocation-failure and corruption
  // injector (inert until a rule is set via kernel.fault_injector()).
  uint64_t fault_injection_seed = 42;

  // Kernel event tracing (src/trace): off by default; when enabled the
  // kernel records fork/fault/unshare/shootdown/... events without
  // perturbing any cycle totals. Export via System::tracer().
  TraceConfig trace{};

  // The display name the benches print ("Shared PTP & TLB - 2MB", ...).
  std::string Name() const;
};

// A rule a SystemConfig breaks.
struct ConfigError {
  // The SystemConfig fields the broken rule reads ("num_cores",
  // "num_nodes", "phys_bytes"), so an input surface can point at the
  // setting that put the bad value there.
  std::vector<std::string_view> fields;
  std::string message;
};

// The machine-shape rules Machine and PhysicalMemory enforce with fatal
// checks — 1 to 64 cores, a node count dividing the core count, at least
// 1 MB of DRAM — checked up front. nullopt when `config` can be built.
std::optional<ConfigError> ValidateConfig(const SystemConfig& config);

}  // namespace sat

#endif  // SRC_PROC_CONFIG_H_

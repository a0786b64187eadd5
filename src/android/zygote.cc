#include "src/android/zygote.h"

#include <algorithm>
#include <cassert>
#include <random>

namespace sat {

namespace {

// Placement of the zygote's anonymous heaps: one region per 2 MB slot so
// the stock fork's per-slot PTP cost is visible, as on the real platform
// where the Dalvik/ART heaps span many PTPs.
constexpr VirtAddr kAnonHeapBase = 0x20000000;
constexpr VirtAddr kStackTop = 0xBE800000;

// The zygote's boot-time footprint. Table 4 reports 5,900 populated
// instruction PTEs and 7 touched stack pages; with the stock kernel the
// anonymous heap's PTEs (region count x pages touched per region) are
// copied at every fork — the 3,900 PTE / 38 PTP cost Table 4 attributes
// to the stock fork. Static init dirties kBootDataWrites library data
// pages.
constexpr uint32_t kBootCodePages = 5900;
constexpr uint32_t kAnonRegions = 30;
constexpr uint32_t kAnonPagesPerRegion = 100;
constexpr uint32_t kBootDataWrites = 800;
constexpr uint32_t kStackPages = 7;

}  // namespace

ZygoteSystem::ZygoteSystem(const SystemConfig& config)
    : catalog_(LibraryCatalog::AndroidDefault()) {
  kernel_ = std::make_unique<Kernel>(config);
  loader_ = std::make_unique<DynamicLoader>(
      kernel_.get(), &catalog_,
      config.two_mb_alignment ? MappingPolicy::kTwoMbAligned
                              : MappingPolicy::kOriginal);
  loader_->set_large_code_pages(config.large_pages_for_code);
  workload_ = std::make_unique<WorkloadFactory>(&catalog_);
  Boot();
}

void ZygoteSystem::Boot() {
  Kernel& kernel = *kernel_;
  const uint64_t seed = kernel.config().seed;

  init_ = kernel.CreateTask("init");
  zygote_ = kernel.Fork(*init_, "zygote").child;
  kernel.Exec(*zygote_, "app_process(zygote)", /*is_zygote=*/true);
  kernel.SetCurrent(*zygote_);

  // Preload the 88 shared objects; the kernel's mmap policy marks the code
  // segments global because the caller holds the zygote flag.
  loader_->PreloadAll(*zygote_);

  // Eager 1 MB sections over the preload set's code (the translation-
  // reach engine's boot-time contribution; no-op unless `huge` is on).
  kernel.MapZygoteSections(*zygote_);

  // Stack (excluded from PTP sharing as a design choice).
  MmapRequest stack_request;
  stack_request.length = 1024 * kPageSize;  // 4 MB reservation
  stack_request.prot = VmProt::ReadWrite();
  stack_request.kind = VmKind::kAnonPrivate;
  stack_request.fixed_address = kStackTop - 1024 * kPageSize;
  stack_request.is_stack = true;
  stack_request.name = "[stack]";
  const VirtAddr stack_base = kernel.Mmap(*zygote_, stack_request).value;
  for (uint32_t i = 0; i < kStackPages; ++i) {
    kernel.TouchPage(*zygote_,
                     kStackTop - (i + 1) * kPageSize, AccessType::kWrite);
  }
  (void)stack_base;

  // Anonymous heaps (ART heap, linker allocations, property areas, ...).
  for (uint32_t region = 0; region < kAnonRegions; ++region) {
    MmapRequest anon_request;
    anon_request.length = kPtpSpan;  // one 2 MB slot each
    anon_request.prot = VmProt::ReadWrite();
    anon_request.kind = VmKind::kAnonPrivate;
    anon_request.fixed_address = kAnonHeapBase + region * kPtpSpan;
    anon_request.name = "[anon:heap" + std::to_string(region) + "]";
    const VirtAddr base = kernel.Mmap(*zygote_, anon_request).value;
    for (uint32_t page = 0; page < kAnonPagesPerRegion; ++page) {
      kernel.TouchPage(*zygote_, base + page * kPageSize, AccessType::kWrite);
    }
  }

  // Boot-time execution: touch the hottest pages of the preload set.
  boot_footprint_ =
      workload_->GenerateZygoteFootprint(kBootCodePages, seed);
  for (const TouchedPage& page : boot_footprint_.pages) {
    kernel.TouchPage(*zygote_, CodePageVa(page.lib, page.page_index),
                     AccessType::kExecute);
  }

  // Static initialization dirties library data (COW copies in place).
  {
    std::mt19937_64 rng(seed ^ 0xD1B54A32D192ED03ull);
    const auto preload = catalog_.ZygotePreloadSet();
    // Dirty the biggest data segments first (boot image, libart, ...).
    std::vector<LibraryId> by_data(preload.begin(), preload.end());
    std::sort(by_data.begin(), by_data.end(), [&](LibraryId a, LibraryId b) {
      return catalog_.Get(a).data_pages > catalog_.Get(b).data_pages;
    });
    uint32_t remaining = kBootDataWrites;
    for (LibraryId lib : by_data) {
      if (remaining == 0) {
        break;
      }
      const LibraryImage& image = catalog_.Get(lib);
      if (image.data_pages == 0) {
        continue;
      }
      // Concentrated in the few biggest data segments (boot image, ART,
      // webview): static init dirties about half of each.
      const uint32_t here = std::min(remaining, std::max(1u, image.data_pages / 2));
      for (uint32_t i = 0; i < here; ++i) {
        const auto page = static_cast<uint32_t>(rng() % image.data_pages);
        kernel.TouchPage(*zygote_, DataPageVa(lib, page), AccessType::kWrite);
      }
      remaining -= here;
    }
  }

  // The system_server: the first zygote child, running Android's core
  // services (it is the peer of every app-launch IPC).
  system_server_ = kernel.Fork(*zygote_, "system_server").child;
}

Task* ZygoteSystem::ForkApp(const std::string& name) {
  return ForkAppWithStats(name).child;
}

ForkOutcome ZygoteSystem::ForkAppWithStats(const std::string& name) {
  return kernel_->Fork(*zygote_, name);
}

VirtAddr ZygoteSystem::CodePageVa(LibraryId lib, uint32_t page_index) const {
  const MappedLibrary* mapped = loader_->FindZygoteMapping(lib);
  assert(mapped != nullptr && "library was not preloaded by the zygote");
  assert(page_index < catalog_.Get(lib).code_pages);
  return mapped->code_base + page_index * kPageSize;
}

VirtAddr ZygoteSystem::DataPageVa(LibraryId lib, uint32_t page_index) const {
  const MappedLibrary* mapped = loader_->FindZygoteMapping(lib);
  assert(mapped != nullptr && "library was not preloaded by the zygote");
  assert(page_index < catalog_.Get(lib).data_pages);
  return mapped->data_base + page_index * kPageSize;
}

uint32_t ZygoteSystem::CountInheritedPtes(Task& task,
                                          const AppFootprint& fp) const {
  const PageTable& pt = task.mm->page_table();
  uint32_t inherited = 0;
  for (const TouchedPage& page : fp.pages) {
    if (!IsZygotePreloadedCategory(page.category)) {
      continue;
    }
    const auto ref = pt.FindPte(CodePageVa(page.lib, page.page_index));
    if (ref.has_value() && ref->ptp->hw(ref->index).valid()) {
      inherited++;
    }
  }
  return inherited;
}

}  // namespace sat

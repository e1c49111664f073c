// Physical memory accounting and per-process address spaces.
//
// The memory-footprint experiment (Fig. 8) boots a VM with progressively less
// RAM until the workload fails, so the guest must really account every page:
// kernel text/data, slab, page tables, page cache, and anonymous memory that
// is allocated lazily on first touch (the laziness is what makes Linux-based
// footprints flat across applications, Section 4.4).
#ifndef SRC_GUESTOS_MEM_H_
#define SRC_GUESTOS_MEM_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/util/fault.h"
#include "src/util/result.h"
#include "src/util/units.h"

namespace lupine::guestos {

inline constexpr Bytes kPageSize = 4096;

// Virtual reservation for a process heap (brk region); pages appear lazily.
inline constexpr Bytes kHeapReserve = 64 * 1024 * 1024;

inline uint64_t PagesForBytes(Bytes bytes) { return (bytes + kPageSize - 1) / kPageSize; }

// Physical memory of one VM. Allocation fails when the configured limit is
// exhausted (the guest OOMs).
class MemoryManager {
 public:
  explicit MemoryManager(Bytes limit) : limit_(limit) {}

  Status AllocatePages(uint64_t pages, const char* tag);
  void FreePages(uint64_t pages);

  Bytes limit() const { return limit_; }
  Bytes used() const { return used_pages_ * kPageSize; }
  Bytes available() const { return limit_ - used(); }
  uint64_t used_pages() const { return used_pages_; }

  // High-water mark: the basis of the footprint measurement.
  Bytes peak() const { return peak_pages_ * kPageSize; }

  // Non-owning; the kMemAlloc site makes AllocatePages fail on schedule.
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }

 private:
  Bytes limit_;
  uint64_t used_pages_ = 0;
  uint64_t peak_pages_ = 0;
  FaultInjector* faults_ = nullptr;
};

enum class VmaKind { kText, kData, kHeap, kStack, kFile, kShared };

struct Vma {
  uint64_t start_page = 0;  // Virtual page number.
  uint64_t num_pages = 0;
  VmaKind kind = VmaKind::kData;
  std::string name;          // For /proc/<pid>/maps-style inspection.
  // Which pages are populated (index into the VMA). Shared VMAs populate in
  // the owner only.
  std::vector<bool> present;
  // Pages this address space charged to the MemoryManager for this VMA
  // (a forked child references parent pages without owning them).
  uint64_t owned = 0;

  uint64_t end_page() const { return start_page + num_pages; }
  uint64_t resident_pages() const;
};

// A virtual address space: an ordered set of VMAs with demand paging.
// Threads of one process share an AddressSpace via shared_ptr.
class AddressSpace {
 public:
  explicit AddressSpace(MemoryManager* mm) : mm_(mm) {}
  ~AddressSpace();

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  // Maps `bytes` of address space; returns the VMA id. Nothing is populated
  // until Touch (demand paging), except `populate_now` (e.g. MAP_POPULATE or
  // text brought in by the loader).
  Result<int> Map(Bytes bytes, VmaKind kind, const std::string& name, bool populate_now = false);
  Status Unmap(int vma_id);

  // Touches `bytes` starting at `offset` within the VMA; allocates any
  // missing pages and returns the number of page faults taken.
  Result<uint64_t> Touch(int vma_id, Bytes offset, Bytes bytes);

  // Clones this address space for fork(): VMAs are copied, resident pages
  // become shared copy-on-write (we charge page-table pages, not data pages).
  Result<std::unique_ptr<AddressSpace>> ForkCopy() const;

  uint64_t resident_pages() const;
  uint64_t page_table_pages() const;
  size_t vma_count() const { return vmas_.size(); }

 private:
  MemoryManager* mm_;
  std::map<int, Vma> vmas_;
  int next_vma_id_ = 1;
  uint64_t next_free_page_ = 0x1000;  // Simple bump allocation of VA space.
  uint64_t owned_pages_ = 0;          // Pages charged to this AS.
};

}  // namespace lupine::guestos

#endif  // SRC_GUESTOS_MEM_H_

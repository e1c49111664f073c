#include "src/guestos/mem.h"

#include <algorithm>

namespace lupine::guestos {

Status MemoryManager::AllocatePages(uint64_t pages, const char* tag) {
  if (faults_ != nullptr && faults_->Check(FaultSite::kMemAlloc)) {
    return Status(Err::kNoMem, std::string("out of memory (injected): ") + tag);
  }
  if ((used_pages_ + pages) * kPageSize > limit_) {
    return Status(Err::kNoMem, std::string("out of memory: ") + tag);
  }
  used_pages_ += pages;
  peak_pages_ = std::max(peak_pages_, used_pages_);
  return Status::Ok();
}

void MemoryManager::FreePages(uint64_t pages) {
  used_pages_ = pages > used_pages_ ? 0 : used_pages_ - pages;
}

uint64_t Vma::resident_pages() const {
  return static_cast<uint64_t>(std::count(present.begin(), present.end(), true));
}

AddressSpace::~AddressSpace() {
  if (mm_ != nullptr) {
    mm_->FreePages(owned_pages_ + page_table_pages());
  }
}

Result<int> AddressSpace::Map(Bytes bytes, VmaKind kind, const std::string& name,
                              bool populate_now) {
  uint64_t pages = PagesForBytes(bytes);
  if (pages == 0) {
    return Status(Err::kInval, "zero-length mapping");
  }
  Vma vma;
  vma.start_page = next_free_page_;
  vma.num_pages = pages;
  vma.kind = kind;
  vma.name = name;
  vma.present.assign(pages, false);
  next_free_page_ += pages + 16;  // Guard gap.

  int id = next_vma_id_++;
  // Page-table charge: one PT page per 512 mapped pages (x86-64 PTE density),
  // charged eagerly on map to keep accounting simple.
  uint64_t pt_pages = (pages + 511) / 512;
  if (Status s = mm_->AllocatePages(pt_pages, "page-tables"); !s.ok()) {
    return s;
  }
  vmas_.emplace(id, std::move(vma));
  if (populate_now) {
    auto touched = Touch(id, 0, bytes);
    if (!touched.ok()) {
      // Roll back the mapping so the caller sees a clean failure.
      (void)Unmap(id);
      return touched.status();
    }
  }
  return id;
}

Status AddressSpace::Unmap(int vma_id) {
  auto it = vmas_.find(vma_id);
  if (it == vmas_.end()) {
    return Status(Err::kInval, "unknown VMA");
  }
  uint64_t owned = it->second.owned;
  uint64_t pt_pages = (it->second.num_pages + 511) / 512;
  mm_->FreePages(owned + pt_pages);
  owned_pages_ -= std::min(owned_pages_, owned);
  vmas_.erase(it);
  return Status::Ok();
}

Result<uint64_t> AddressSpace::Touch(int vma_id, Bytes offset, Bytes bytes) {
  auto it = vmas_.find(vma_id);
  if (it == vmas_.end()) {
    return Status(Err::kFault, "touch outside any mapping");
  }
  Vma& vma = it->second;
  uint64_t first = offset / kPageSize;
  uint64_t last = bytes == 0 ? first : (offset + bytes - 1) / kPageSize;
  if (last >= vma.num_pages) {
    return Status(Err::kFault, "touch beyond end of mapping");
  }
  uint64_t faults = 0;
  for (uint64_t p = first; p <= last; ++p) {
    if (!vma.present[p]) {
      if (Status s = mm_->AllocatePages(1, vma.name.c_str()); !s.ok()) {
        return s;
      }
      vma.present[p] = true;
      ++vma.owned;
      ++owned_pages_;
      ++faults;
    }
  }
  return faults;
}

Result<std::unique_ptr<AddressSpace>> AddressSpace::ForkCopy() const {
  auto child = std::make_unique<AddressSpace>(mm_);
  child->next_free_page_ = next_free_page_;
  child->next_vma_id_ = next_vma_id_;
  for (const auto& [id, vma] : vmas_) {
    // Copy-on-write: the child references the parent's pages; we charge only
    // the page-table pages. Writable data re-faults later via Touch, which
    // then charges real pages.
    uint64_t pt_pages = (vma.num_pages + 511) / 512;
    if (Status s = mm_->AllocatePages(pt_pages, "fork-page-tables"); !s.ok()) {
      return s;
    }
    Vma copy = vma;
    copy.owned = 0;  // The child references the parent's pages; it owns none.
    if (vma.kind == VmaKind::kHeap || vma.kind == VmaKind::kData ||
        vma.kind == VmaKind::kStack) {
      // COW mappings start non-present in the child and re-fault via Touch.
      std::fill(copy.present.begin(), copy.present.end(), false);
    }
    child->vmas_.emplace(id, std::move(copy));
  }
  return child;
}

uint64_t AddressSpace::resident_pages() const {
  uint64_t total = 0;
  for (const auto& [id, vma] : vmas_) {
    total += vma.resident_pages();
  }
  return total;
}

uint64_t AddressSpace::page_table_pages() const {
  uint64_t total = 0;
  for (const auto& [id, vma] : vmas_) {
    total += (vma.num_pages + 511) / 512;
  }
  return total;
}

}  // namespace lupine::guestos

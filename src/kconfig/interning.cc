#include "src/kconfig/interning.h"

#include <algorithm>
#include <memory>
#include <mutex>

namespace lupine::kconfig {

OptionInterner& OptionInterner::Global() {
  // Leaked on purpose: ids (and NameOf references) must outlive every static
  // Config/OptionDb destructor regardless of destruction order.
  static OptionInterner* interner = new OptionInterner();
  return *interner;
}

OptionId OptionInterner::Intern(std::string_view name) {
  {
    std::shared_lock lock(mu_);
    auto it = ids_.find(name);
    if (it != ids_.end()) {
      return it->second;
    }
  }
  std::unique_lock lock(mu_);
  auto it = ids_.find(name);
  if (it != ids_.end()) {
    return it->second;  // Raced with another interner.
  }
  const OptionId id = static_cast<OptionId>(size_);
  const Slot slot = Locate(id);
  std::string* names = segments_[slot.segment].load(std::memory_order_relaxed);
  if (names == nullptr) {
    // Raw storage: a slot is touched only when its name is constructed.
    names = std::allocator<std::string>().allocate(kFirstSegmentSize << slot.segment);
    segments_[slot.segment].store(names, std::memory_order_release);
  }
  // Constructed in place at its exact size (assigning into a default-
  // constructed string would round a short heap name up to the growth step).
  const std::string* stored = std::construct_at(names + slot.offset, name);
  ids_.emplace(std::string_view(*stored), id);
  ++size_;
  return id;
}

OptionId OptionInterner::Find(std::string_view name) const {
  std::shared_lock lock(mu_);
  auto it = ids_.find(name);
  return it == ids_.end() ? kNoOption : it->second;
}

void OptionInterner::SortByName(std::vector<OptionId>& ids) const {
  const auto by_rank = [this](OptionId a, OptionId b) { return rank_[a] < rank_[b]; };
  {
    std::shared_lock lock(mu_);
    if (std::all_of(ids.begin(), ids.end(), [this](OptionId id) { return Ranked(id); })) {
      std::sort(ids.begin(), ids.end(), by_rank);
      return;
    }
  }
  std::unique_lock lock(mu_);
  // Rechecked under the writer lock: another sort may have ranked some.
  std::vector<OptionId> newcomers;
  for (OptionId id : ids) {
    if (!Ranked(id)) {
      newcomers.push_back(id);
    }
  }
  const auto by_name = [this](OptionId a, OptionId b) { return NameOf(a) < NameOf(b); };
  std::sort(newcomers.begin(), newcomers.end(), by_name);
  newcomers.erase(std::unique(newcomers.begin(), newcomers.end()), newcomers.end());
  const size_t ranked = by_name_.size();
  by_name_.insert(by_name_.end(), newcomers.begin(), newcomers.end());
  std::inplace_merge(by_name_.begin(), by_name_.begin() + ranked, by_name_.end(), by_name);
  rank_.resize(size_, kUnranked);
  for (size_t i = 0; i < by_name_.size(); ++i) {
    rank_[by_name_[i]] = static_cast<uint32_t>(i);
  }
  std::sort(ids.begin(), ids.end(), by_rank);
}

}  // namespace lupine::kconfig

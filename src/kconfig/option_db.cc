#include "src/kconfig/option_db.h"

#include <atomic>

namespace lupine::kconfig {

uint64_t OptionDb::NextSerial() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

OptionDb::OptionDb() : serial_(NextSerial()) {}

bool OptionDb::Add(OptionInfo info) {
  auto& interner = OptionInterner::Global();
  OptionEdges edges;
  edges.self = interner.Intern(info.name);
  if (!id_index_.try_emplace(edges.self, options_.size()).second) {
    return false;
  }
  edges.depends_on.reserve(info.depends_on.size());
  for (const auto& dep : info.depends_on) {
    edges.depends_on.push_back(interner.Intern(dep));
  }
  edges.selects.reserve(info.selects.size());
  for (const auto& sel : info.selects) {
    edges.selects.push_back(interner.Intern(sel));
  }
  edges.conflicts.reserve(info.conflicts.size());
  for (const auto& conflict : info.conflicts) {
    edges.conflicts.push_back(interner.Intern(conflict));
  }
  edges_.push_back(std::move(edges));
  options_.push_back(std::move(info));
  return true;
}

const OptionInfo* OptionDb::FindById(OptionId id) const {
  auto it = id_index_.find(id);
  if (it == id_index_.end()) {
    return nullptr;
  }
  return &options_[it->second];
}

const OptionDb::OptionEdges* OptionDb::EdgesById(OptionId id) const {
  auto it = id_index_.find(id);
  if (it == id_index_.end()) {
    return nullptr;
  }
  return &edges_[it->second];
}

size_t OptionDb::CountInDir(SourceDir dir) const {
  size_t n = 0;
  for (const auto& o : options_) {
    if (o.dir == dir) {
      ++n;
    }
  }
  return n;
}

}  // namespace lupine::kconfig

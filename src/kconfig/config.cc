#include "src/kconfig/config.h"

namespace lupine::kconfig {
namespace {

// Visits every set bit in ascending id order.
template <typename Fn>
void ForEachBit(const std::vector<uint64_t>& words, Fn&& fn) {
  for (size_t w = 0; w < words.size(); ++w) {
    uint64_t word = words[w];
    while (word != 0) {
      int bit = __builtin_ctzll(word);
      fn(static_cast<OptionId>(w * 64 + bit));
      word &= word - 1;
    }
  }
}

}  // namespace

void Config::Disable(const std::string& option) {
  OptionId id = OptionInterner::Global().Find(option);
  if (id == kNoOption || !bits::Test(present_, id)) {
    return;
  }
  bits::Clear(present_, id);
  bits::Clear(enabled_, id);
  valued_.erase(id);
  ++value_generation_;
  --present_count_;
}

bool Config::IsEnabled(const std::string& option) const {
  OptionId id = OptionInterner::Global().Find(option);
  return id != kNoOption && IsEnabledId(id);
}

void Config::SetValue(const std::string& option, const std::string& value) {
  OptionId id = OptionInterner::Global().Intern(option);
  if (!bits::Test(present_, id)) {
    bits::Set(present_, id);
    ++present_count_;
  }
  if (value == "y") {
    valued_.erase(id);
  } else {
    valued_[id] = value;
  }
  ++value_generation_;
  if (value == "n") {
    bits::Clear(enabled_, id);
  } else {
    bits::Set(enabled_, id);
  }
}

void Config::EnableId(OptionId id) {
  if (!bits::Test(present_, id)) {
    bits::Set(present_, id);
    ++present_count_;
  }
  bits::Set(enabled_, id);
  valued_.erase(id);  // Enable overwrites any explicit value with "y".
  ++value_generation_;
}

std::string_view Config::ValueOfId(OptionId id) const {
  if (!bits::Test(present_, id)) {
    return {};
  }
  auto it = valued_.find(id);
  return it == valued_.end() ? std::string_view("y") : std::string_view(it->second);
}

std::vector<OptionId> Config::EnabledIds() const {
  std::vector<OptionId> out;
  out.reserve(present_count_);
  ForEachBit(enabled_, [&](OptionId id) { out.push_back(id); });
  return out;
}

std::vector<OptionId> Config::EnabledIdsByName() const {
  std::vector<OptionId> ids = EnabledIds();
  OptionInterner::Global().SortByName(ids);
  return ids;
}

std::vector<std::string> Config::Minus(const Config& other) const {
  const auto& interner = OptionInterner::Global();
  std::vector<std::string> out;
  for (OptionId id : EnabledIdsByName()) {
    if (!other.IsEnabledId(id)) {
      out.push_back(interner.NameOf(id));
    }
  }
  return out;
}

bool Config::IsSubsetOf(const Config& other) const {
  if (compile_mode_ != other.compile_mode_ ||
      kml_patch_applied_ != other.kml_patch_applied_) {
    return false;
  }
  bool subset = true;
  ForEachBit(enabled_, [&](OptionId id) {
    if (!subset) {
      return;
    }
    if (!other.IsEnabledId(id) || ValueOfId(id) != other.ValueOfId(id)) {
      subset = false;
    }
  });
  return subset;
}

}  // namespace lupine::kconfig

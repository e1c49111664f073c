#include "src/loadspec/parser.h"

#include <cmath>
#include <set>
#include <utility>

#include "src/kbuild/syscalls.h"
#include "src/loadspec/actions.h"
#include "src/util/json.h"

namespace lupine::loadspec {
namespace {

bool IsKnownSyscallName(std::string_view name) {
  for (int i = 0; i < kbuild::kNumSyscalls; ++i) {
    if (name == kbuild::SyscallName(static_cast<kbuild::Sys>(i))) {
      return true;
    }
  }
  return false;
}

// Walks the parsed document once, accumulating diagnostics and (when clean)
// the model. Every Diag() call anchors on a byte offset recorded by the JSON
// parser, so messages land on the offending token, not "somewhere in vms".
class Validator {
 public:
  Validator(std::string_view text, std::vector<SpecDiagnostic>* diags)
      : text_(text), diags_(diags) {}

  Result<ScenarioSpec> Run() {
    JsonParseError jerr;
    JsonParseOptions options;
    options.max_depth = 32;
    options.reject_duplicate_keys = true;
    Result<JsonValue> doc = ParseJson(text_, options, &jerr);
    if (!doc.ok()) {
      Diag(jerr.offset, jerr.what);
      return Fail();
    }
    const JsonValue& root = doc.value();
    if (!root.is_object()) {
      Diag(root.offset, "scenario must be a JSON object");
      return Fail();
    }
    CheckKeys(root, {"name", "description", "seed", "vms", "groups", "channels",
                     "phases", "expect"},
              "scenario");
    ReadString(root, "name", &spec_.name, /*required=*/true, "scenario");
    ReadString(root, "description", &spec_.description, false, "scenario");
    if (const JsonValue* seed = root.Find("seed")) {
      double value = 0;
      if (ReadNumberValue(*seed, "seed", 0, 1.8e19, &value)) {
        spec_.seed = static_cast<uint64_t>(value);
      }
    }
    Vms(root.Find("vms"));
    Groups(root, root.Find("groups"));
    Channels(root.Find("channels"));
    CheckChannelRefs();
    Phases(root.Find("phases"));
    Expects(root.Find("expect"));
    if (errors_ > 0) {
      return Fail();
    }
    return spec_;
  }

 private:
  void Diag(size_t offset, std::string message) {
    ++errors_;
    LineCol at = OffsetToLineCol(text_, offset);
    if (first_.empty()) {
      first_ = std::to_string(at.line) + ":" + std::to_string(at.col) + ": " + message;
    }
    if (diags_ != nullptr) {
      diags_->push_back({at.line, at.col, std::move(message)});
    }
  }

  Status Fail() const {
    return Status(Err::kInval, "loadspec: " + (first_.empty() ? "invalid spec" : first_));
  }

  void CheckKeys(const JsonValue& obj, std::initializer_list<std::string_view> allowed,
                 const std::string& context) {
    for (const auto& [key, value] : obj.object) {
      bool known = false;
      for (std::string_view a : allowed) {
        if (key == a) {
          known = true;
          break;
        }
      }
      if (!known) {
        Diag(value.key_offset, "unknown key \"" + key + "\" in " + context);
      }
    }
  }

  bool ReadString(const JsonValue& obj, const char* key, std::string* out, bool required,
                  const std::string& context) {
    const JsonValue* v = obj.Find(key);
    if (v == nullptr) {
      if (required) {
        Diag(obj.offset, context + " is missing required key \"" + std::string(key) + "\"");
      }
      return false;
    }
    if (!v->is_string()) {
      Diag(v->offset, std::string("\"").append(key).append("\" must be a string"));
      return false;
    }
    if (required && v->str.empty()) {
      Diag(v->offset, std::string("\"").append(key).append("\" must not be empty"));
      return false;
    }
    *out = v->str;
    return true;
  }

  bool ReadNumberValue(const JsonValue& v, const char* key, double min_value,
                       double max_value, double* out) {
    if (!v.is_number()) {
      Diag(v.offset, std::string("\"").append(key).append("\" must be a number"));
      return false;
    }
    if (v.number < min_value || v.number > max_value) {
      Diag(v.offset, std::string("\"")
                         .append(key)
                         .append("\" out of range [")
                         .append(FormatBound(min_value))
                         .append(", ")
                         .append(FormatBound(max_value))
                         .append("]"));
      return false;
    }
    *out = v.number;
    return true;
  }

  bool ReadInt(const JsonValue& obj, const char* key, double min_value, double max_value,
               int* out) {
    const JsonValue* v = obj.Find(key);
    if (v == nullptr) {
      return false;
    }
    double value = 0;
    if (!ReadNumberValue(*v, key, min_value, max_value, &value)) {
      return false;
    }
    if (value != std::floor(value)) {
      Diag(v->offset, std::string("\"").append(key).append("\" must be an integer"));
      return false;
    }
    *out = static_cast<int>(value);
    return true;
  }

  static std::string FormatBound(double b) {
    // Bounds are integral by construction; render them without trailing zeros.
    std::string s = std::to_string(static_cast<long long>(b));
    return s;
  }

  void Vms(const JsonValue* vms) {
    if (vms == nullptr) {
      spec_.vms.push_back(VmEntrySpec{});
      return;
    }
    if (!vms->is_array()) {
      Diag(vms->offset, "\"vms\" must be an array");
      return;
    }
    if (vms->array.empty()) {
      spec_.vms.push_back(VmEntrySpec{});
      return;
    }
    std::set<std::string> names;
    for (const JsonValue& entry : vms->array) {
      if (!entry.is_object()) {
        Diag(entry.offset, "vm entry must be an object");
        continue;
      }
      CheckKeys(entry, {"name", "variant", "app", "memory_mb"}, "vm entry");
      VmEntrySpec vm;
      ReadString(entry, "name", &vm.name, false, "vm entry");
      if (const JsonValue* variant = entry.Find("variant")) {
        if (!variant->is_string()) {
          Diag(variant->offset, "\"variant\" must be a string");
        } else {
          bool known = false;
          for (const std::string& name : VariantNames()) {
            if (variant->str == name) {
              known = true;
              break;
            }
          }
          if (!known) {
            Diag(variant->offset, "unknown variant \"" + variant->str + "\"");
          } else {
            vm.variant = variant->str;
          }
        }
      }
      ReadString(entry, "app", &vm.app, false, "vm entry");
      if (const JsonValue* mem = entry.Find("memory_mb")) {
        double mb = 0;
        if (ReadNumberValue(*mem, "memory_mb", 1, 65536, &mb)) {
          vm.memory = static_cast<Bytes>(mb) * kMiB;
        }
      }
      if (!names.insert(vm.name).second) {
        Diag(entry.offset, "duplicate vm name \"" + vm.name + "\"");
      }
      spec_.vms.push_back(std::move(vm));
    }
  }

  bool KnownVm(const std::string& name) const {
    for (const VmEntrySpec& vm : spec_.vms) {
      if (vm.name == name) {
        return true;
      }
    }
    return false;
  }

  void Groups(const JsonValue& root, const JsonValue* groups) {
    if (groups == nullptr) {
      Diag(root.offset, "scenario is missing required key \"groups\"");
      return;
    }
    if (!groups->is_array() || groups->array.empty()) {
      Diag(groups->offset, "\"groups\" must be a non-empty array");
      return;
    }
    std::set<std::string> names;
    for (const JsonValue& entry : groups->array) {
      if (!entry.is_object()) {
        Diag(entry.offset, "group entry must be an object");
        continue;
      }
      GroupSpec group;
      ReadString(entry, "name", &group.name, /*required=*/true, "group");
      CheckKeys(entry, {"name", "vm", "workers", "mode", "iterations", "period_us",
                        "actions"},
                "group \"" + group.name + "\"");
      if (!group.name.empty() && !names.insert(group.name).second) {
        Diag(entry.offset, "duplicate group name \"" + group.name + "\"");
      }
      if (const JsonValue* vm = entry.Find("vm")) {
        if (ReadString(entry, "vm", &group.vm, false, "group") && !KnownVm(group.vm)) {
          Diag(vm->offset, "dangling vm reference \"" + group.vm + "\"");
        }
      } else {
        group.vm = spec_.vms.empty() ? "main" : spec_.vms.front().name;
      }
      ReadInt(entry, "workers", 1, 256, &group.workers);
      if (const JsonValue* mode = entry.Find("mode")) {
        if (!mode->is_string() || (mode->str != "process" && mode->str != "thread")) {
          Diag(mode->offset, "\"mode\" must be \"process\" or \"thread\"");
        } else {
          group.threads = mode->str == "thread";
        }
      }
      ReadInt(entry, "iterations", 1, 1000000000, &group.iterations);
      if (const JsonValue* period = entry.Find("period_us")) {
        double us = 0;
        if (ReadNumberValue(*period, "period_us", 0, 1e12, &us)) {
          group.period = static_cast<Nanos>(us * kNanosPerMicro);
        }
      }
      Actions(entry, &group);
      spec_.groups.push_back(std::move(group));
    }
  }

  void Actions(const JsonValue& entry, GroupSpec* group) {
    const JsonValue* actions = entry.Find("actions");
    if (actions == nullptr) {
      Diag(entry.offset, "group \"" + group->name + "\" is missing required key \"actions\"");
      return;
    }
    if (!actions->is_array() || actions->array.empty()) {
      Diag(actions->offset, "\"actions\" must be a non-empty array");
      return;
    }
    for (const JsonValue& av : actions->array) {
      if (!av.is_object()) {
        Diag(av.offset, "action must be an object");
        continue;
      }
      ActionSpec action;
      if (!ReadString(av, "op", &action.op, /*required=*/true, "action")) {
        continue;
      }
      const ActionDef* def = FindAction(action.op);
      if (def == nullptr) {
        Diag(av.Find("op")->offset, "unknown action op \"" + action.op + "\"");
        continue;
      }
      for (const auto& [key, value] : av.object) {
        if (key == "op") {
          continue;
        }
        if (key == "mix") {
          if (!def->takes_mix) {
            Diag(value.key_offset,
                 "\"" + action.op + "\" does not take a \"mix\" object");
            continue;
          }
          Mix(value, &action);
          continue;
        }
        if (const NumParam* np = FindNum(*def, key)) {
          double num = 0;
          if (ReadNumberValue(value, key.c_str(), np->min_value, np->max_value, &num)) {
            action.nums[key] = num;
          }
          continue;
        }
        if (FindStr(*def, key) != nullptr) {
          if (!value.is_string() || value.str.empty()) {
            Diag(value.offset, "\"" + key + "\" must be a non-empty string");
          } else {
            action.strs[key] = value.str;
          }
          continue;
        }
        Diag(value.key_offset,
             "unknown key \"" + key + "\" for action \"" + action.op + "\"");
      }
      for (const NumParam& np : def->nums) {
        if (np.required && action.nums.find(np.key) == action.nums.end()) {
          action.nums[np.key] = np.def;  // required-with-default: fill it in
        }
      }
      for (const StrParam& sp : def->strs) {
        if (sp.required && action.strs.find(sp.key) == action.strs.end()) {
          Diag(av.offset, "action \"" + action.op + "\" is missing required key \"" +
                              std::string(sp.key) + "\"");
        }
      }
      if (def->takes_mix && action.mix.empty()) {
        Diag(av.offset, "action \"" + action.op + "\" requires a non-empty \"mix\" object");
      }
      group->actions.push_back(std::move(action));
    }
  }

  void Mix(const JsonValue& mix, ActionSpec* action) {
    if (!mix.is_object() || mix.object.empty()) {
      Diag(mix.offset, "\"mix\" must be a non-empty object");
      return;
    }
    double total = 0.0;
    for (const auto& [name, weight] : mix.object) {
      bool known = false;
      for (const std::string& m : MixableSyscalls()) {
        if (name == m) {
          known = true;
          break;
        }
      }
      if (!known) {
        Diag(weight.key_offset, "unknown mix syscall \"" + name + "\"");
        continue;
      }
      if (!weight.is_number() || weight.number < 0) {
        Diag(weight.offset, "mix weight for \"" + name + "\" must be a non-negative number");
        continue;
      }
      total += weight.number;
      action->mix.emplace_back(name, weight.number);
    }
    if (!action->mix.empty() && total <= 0.0) {
      Diag(mix.offset, "all mix weights are zero");
    }
  }

  static const NumParam* FindNum(const ActionDef& def, std::string_view key) {
    for (const NumParam& np : def.nums) {
      if (key == np.key) {
        return &np;
      }
    }
    return nullptr;
  }

  static const StrParam* FindStr(const ActionDef& def, std::string_view key) {
    for (const StrParam& sp : def.strs) {
      if (key == sp.key) {
        return &sp;
      }
    }
    return nullptr;
  }

  bool KnownGroup(const std::string& name) const {
    for (const GroupSpec& g : spec_.groups) {
      if (g.name == name) {
        return true;
      }
    }
    return false;
  }

  void Channels(const JsonValue* channels) {
    if (channels == nullptr) {
      return;
    }
    if (!channels->is_array()) {
      Diag(channels->offset, "\"channels\" must be an array");
      return;
    }
    std::set<std::string> names;
    for (const JsonValue& entry : channels->array) {
      if (!entry.is_object()) {
        Diag(entry.offset, "channel entry must be an object");
        continue;
      }
      ChannelSpec channel;
      ReadString(entry, "name", &channel.name, /*required=*/true, "channel");
      CheckKeys(entry, {"name", "kind", "from", "to"},
                "channel \"" + channel.name + "\"");
      if (!channel.name.empty() && !names.insert(channel.name).second) {
        Diag(entry.offset, "duplicate channel name \"" + channel.name + "\"");
      }
      if (const JsonValue* kind = entry.Find("kind")) {
        if (!kind->is_string()) {
          Diag(kind->offset, "\"kind\" must be a string");
        } else if (kind->str == "pipe") {
          channel.kind = ChannelKind::kPipe;
        } else if (kind->str == "unix") {
          channel.kind = ChannelKind::kUnixStream;
        } else if (kind->str == "dgram") {
          channel.kind = ChannelKind::kUnixDgram;
        } else {
          Diag(kind->offset,
               "\"kind\" must be one of \"pipe\", \"unix\", \"dgram\"");
        }
      }
      for (const char* side : {"from", "to"}) {
        std::string* out = side[0] == 'f' ? &channel.from : &channel.to;
        const JsonValue* v = entry.Find(side);
        if (ReadString(entry, side, out, /*required=*/true, "channel") &&
            !KnownGroup(*out)) {
          Diag(v->offset, "dangling group reference \"" + *out + "\"");
        }
      }
      if (!channel.from.empty() && channel.from == channel.to) {
        Diag(entry.offset,
             "channel \"" + channel.name + "\" connects group \"" + channel.from +
                 "\" to itself");
      }
      // Both endpoint groups must live in the same VM: guest pipes and
      // sockets cannot cross VM boundaries.
      const GroupSpec* from = FindGroup(channel.from);
      const GroupSpec* to = FindGroup(channel.to);
      if (from != nullptr && to != nullptr && from->vm != to->vm) {
        Diag(entry.offset, "channel \"" + channel.name + "\" spans vms \"" + from->vm +
                               "\" and \"" + to->vm + "\"");
      }
      spec_.channels.push_back(std::move(channel));
    }
  }

  const GroupSpec* FindGroup(const std::string& name) const {
    for (const GroupSpec& g : spec_.groups) {
      if (g.name == name) {
        return &g;
      }
    }
    return nullptr;
  }

  const ChannelSpec* FindChannel(const std::string& name) const {
    for (const ChannelSpec& c : spec_.channels) {
      if (c.name == name) {
        return &c;
      }
    }
    return nullptr;
  }

  // send/recv channel references can only be checked once both groups and
  // channels exist; anchor the diagnostics on the whole document since the
  // offending token's offset was consumed during the first pass.
  void CheckChannelRefs() {
    for (const GroupSpec& group : spec_.groups) {
      for (const ActionSpec& action : group.actions) {
        auto it = action.strs.find("channel");
        if (it == action.strs.end()) {
          continue;
        }
        const ChannelSpec* channel = FindChannel(it->second);
        if (channel == nullptr) {
          Diag(0, "group \"" + group.name + "\" references undeclared channel \"" +
                      it->second + "\"");
          continue;
        }
        if (channel->from != group.name && channel->to != group.name) {
          Diag(0, "group \"" + group.name + "\" is not an endpoint of channel \"" +
                      it->second + "\"");
        }
      }
    }
  }

  void Phases(const JsonValue* phases) {
    if (phases == nullptr) {
      return;
    }
    if (!phases->is_array()) {
      Diag(phases->offset, "\"phases\" must be an array");
      return;
    }
    for (const JsonValue& entry : phases->array) {
      if (!entry.is_object()) {
        Diag(entry.offset, "phase entry must be an object");
        continue;
      }
      CheckKeys(entry, {"name", "duration_ms", "intensity"}, "phase");
      PhaseSpec phase;
      ReadString(entry, "name", &phase.name, false, "phase");
      const JsonValue* duration = entry.Find("duration_ms");
      if (duration == nullptr) {
        Diag(entry.offset, "phase is missing required key \"duration_ms\"");
      } else {
        double ms = 0;
        if (ReadNumberValue(*duration, "duration_ms", 0, 1e9, &ms)) {
          if (ms <= 0) {
            Diag(duration->offset, "\"duration_ms\" must be positive");
          } else {
            phase.duration = static_cast<Nanos>(ms * kNanosPerMilli);
          }
        }
      }
      if (const JsonValue* intensity = entry.Find("intensity")) {
        double value = 0;
        if (ReadNumberValue(*intensity, "intensity", 0, 1e6, &value)) {
          if (value <= 0) {
            Diag(intensity->offset, "zero-rate phase \"" + phase.name +
                                        "\": intensity must be positive");
          } else {
            phase.intensity = value;
          }
        }
      }
      spec_.phases.push_back(std::move(phase));
    }
  }

  void Expects(const JsonValue* expects) {
    if (expects == nullptr) {
      return;
    }
    if (!expects->is_array()) {
      Diag(expects->offset, "\"expect\" must be an array");
      return;
    }
    for (const JsonValue& entry : expects->array) {
      if (!entry.is_object()) {
        Diag(entry.offset, "expect entry must be an object");
        continue;
      }
      CheckKeys(entry, {"metric", "group", "syscall", "min", "max"}, "expect entry");
      ExpectSpec expect;
      const JsonValue* metric = entry.Find("metric");
      if (!ReadString(entry, "metric", &expect.metric, /*required=*/true, "expect entry")) {
        continue;
      }
      if (expect.metric != "elapsed_ms" && expect.metric != "iterations" &&
          expect.metric != "syscall_count" && expect.metric != "blocked") {
        Diag(metric->offset, "unknown metric \"" + expect.metric + "\"");
        continue;
      }
      if (const JsonValue* group = entry.Find("group")) {
        if (ReadString(entry, "group", &expect.group, false, "expect entry")) {
          if (expect.metric != "iterations") {
            Diag(group->key_offset,
                 "\"group\" only applies to the \"iterations\" metric");
          } else if (!KnownGroup(expect.group)) {
            Diag(group->offset, "dangling group reference \"" + expect.group + "\"");
          }
        }
      }
      const JsonValue* syscall = entry.Find("syscall");
      if (expect.metric == "syscall_count") {
        if (syscall == nullptr) {
          Diag(entry.offset, "\"syscall_count\" requires a \"syscall\" key");
        } else if (ReadString(entry, "syscall", &expect.syscall, false, "expect entry") &&
                   !IsKnownSyscallName(expect.syscall)) {
          Diag(syscall->offset, "unknown syscall \"" + expect.syscall + "\"");
        }
      } else if (syscall != nullptr) {
        Diag(syscall->key_offset,
             "\"syscall\" only applies to the \"syscall_count\" metric");
      }
      if (const JsonValue* min = entry.Find("min")) {
        double value = 0;
        if (ReadNumberValue(*min, "min", -1e18, 1e18, &value)) {
          expect.has_min = true;
          expect.min = value;
        }
      }
      if (const JsonValue* max = entry.Find("max")) {
        double value = 0;
        if (ReadNumberValue(*max, "max", -1e18, 1e18, &value)) {
          expect.has_max = true;
          expect.max = value;
        }
      }
      if (!expect.has_min && !expect.has_max) {
        Diag(entry.offset, "expect entry needs \"min\" and/or \"max\"");
      } else if (expect.has_min && expect.has_max && expect.min > expect.max) {
        Diag(entry.offset, "expect entry has min > max");
      }
      spec_.expect.push_back(std::move(expect));
    }
  }

  std::string_view text_;
  std::vector<SpecDiagnostic>* diags_;
  ScenarioSpec spec_;
  int errors_ = 0;
  std::string first_;
};

}  // namespace

std::string SpecDiagnostic::ToString() const {
  return std::to_string(line) + ":" + std::to_string(col) + ": " + message;
}

Result<ScenarioSpec> ParseScenario(std::string_view text,
                                   std::vector<SpecDiagnostic>* diags) {
  return Validator(text, diags).Run();
}

bool LintScenario(std::string_view text, std::vector<SpecDiagnostic>* diags) {
  return Validator(text, diags).Run().ok();
}

}  // namespace lupine::loadspec

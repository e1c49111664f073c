#include "src/util/fault.h"

#include <cmath>

#include "src/util/json.h"

namespace lupine {

const char* FaultSiteName(FaultSite site) {
  switch (site) {
    case FaultSite::kMemAlloc:
      return "mem-alloc";
    case FaultSite::kVfsIo:
      return "vfs-io";
    case FaultSite::kRootfsCorrupt:
      return "rootfs-corrupt";
    case FaultSite::kBootDecompress:
      return "boot-decompress";
    case FaultSite::kBootInitcall:
      return "boot-initcall";
    case FaultSite::kNetRecvReset:
      return "net-recv-reset";
    case FaultSite::kNetSendDrop:
      return "net-send-drop";
    case FaultSite::kSyscallTransient:
      return "syscall-transient";
    case FaultSite::kAppFault:
      return "app-fault";
    case FaultSite::kBootStall:
      return "boot-stall";
    case FaultSite::kSnapshotRestore:
      return "snapshot-restore";
  }
  return "unknown";
}

Result<FaultSite> FaultSiteFromName(const std::string& name) {
  for (size_t i = 0; i < kFaultSiteCount; ++i) {
    const auto site = static_cast<FaultSite>(i);
    if (name == FaultSiteName(site)) {
      return site;
    }
  }
  return Status(Err::kInval, "unknown fault site: " + name);
}

namespace {

Status PlanError(const std::string& what, size_t offset) {
  return Status(Err::kInval, "fault plan JSON: " + what + " at offset " + std::to_string(offset));
}

// The value of `key` as an integer in [min, 2^bits): a fraction, a count out
// of range (a negative trigger, 1e400) or a non-number is rejected, never
// cast.
Result<double> ReadInteger(const std::string& key, const JsonValue& value, double min,
                           int bits) {
  if (!value.is_number()) {
    return PlanError("\"" + key + "\" must be a number", value.offset);
  }
  const double n = value.number;
  if (!(n >= min && n < std::ldexp(1.0, bits)) || n != std::floor(n)) {
    return PlanError("\"" + key + "\" must be an integer in [" +
                         std::to_string(static_cast<int>(min)) + ", 2^" + std::to_string(bits) +
                         ")",
                     value.offset);
  }
  return n;
}

Result<FaultRule> ParseRule(const JsonValue& doc) {
  if (!doc.is_object()) {
    return PlanError("expected rule object", doc.offset);
  }
  FaultRule rule;
  bool site_seen = false;
  for (const auto& [key, value] : doc.object) {
    if (key == "site" || key == "app") {
      if (!value.is_string()) {
        return PlanError("\"" + key + "\" must be a string", value.offset);
      }
      if (key == "app") {
        rule.app = value.str;
        continue;
      }
      auto site = FaultSiteFromName(value.str);
      if (!site.ok()) {
        return PlanError(site.status().message(), value.offset);
      }
      rule.site = *site;
      site_seen = true;
    } else if (key == "probability") {
      if (!value.is_number()) {
        return PlanError("\"probability\" must be a number", value.offset);
      }
      rule.probability = value.number;
    } else if (key == "trigger_on" || key == "period") {
      auto n = ReadInteger(key, value, 0, 64);
      if (!n.ok()) {
        return n.status();
      }
      (key == "trigger_on" ? rule.trigger_on : rule.period) = static_cast<uint64_t>(*n);
    } else if (key == "max_fires") {
      // -1 means unlimited.
      auto n = ReadInteger(key, value, -1, 31);
      if (!n.ok()) {
        return n.status();
      }
      rule.max_fires = static_cast<int>(*n);
    } else if (key == "stall_ns") {
      auto n = ReadInteger(key, value, 0, 63);
      if (!n.ok()) {
        return n.status();
      }
      rule.stall = static_cast<Nanos>(*n);
    } else {
      return PlanError("unknown rule key \"" + key + "\"", value.key_offset);
    }
  }
  if (!site_seen) {
    return PlanError("rule missing \"site\"", doc.offset);
  }
  return rule;
}

}  // namespace

Result<FaultPlan> FaultPlanFromJson(const std::string& json) {
  JsonParseError error;
  auto doc = ParseJson(json, JsonParseOptions{}, &error);
  if (!doc.ok()) {
    return PlanError(error.what, error.offset);
  }
  if (!doc->is_object()) {
    return PlanError("expected top-level object", doc->offset);
  }
  FaultPlan plan;
  for (const auto& [key, value] : doc->object) {
    if (key == "seed") {
      auto seed = ReadInteger(key, value, 0, 64);
      if (!seed.ok()) {
        return seed.status();
      }
      plan.seed = static_cast<uint64_t>(*seed);
    } else if (key == "rules") {
      if (!value.is_array()) {
        return PlanError("expected rules array", value.offset);
      }
      for (const JsonValue& entry : value.array) {
        auto rule = ParseRule(entry);
        if (!rule.ok()) {
          return rule.status();
        }
        plan.rules.push_back(*rule);
      }
    } else {
      return PlanError("unknown plan key \"" + key + "\"", value.key_offset);
    }
  }
  return plan;
}

FaultPlan FaultPlan::ForApp(const std::string& app) const {
  FaultPlan filtered;
  filtered.seed = seed;
  for (const FaultRule& rule : rules) {
    if (rule.app.empty() || rule.app == app) {
      filtered.rules.push_back(rule);
    }
  }
  return filtered;
}

FaultInjector::FaultInjector(const FaultPlan& plan)
    : armed_(!plan.rules.empty()),
      prng_(plan.seed),
      rules_(plan.rules),
      remaining_(plan.rules.size()) {
  for (size_t i = 0; i < rules_.size(); ++i) {
    remaining_[i] = rules_[i].max_fires;
  }
}

bool FaultInjector::Check(FaultSite site) {
  if (!armed_) {
    return false;
  }
  uint64_t n = ++evaluations_[static_cast<size_t>(site)];
  bool fire = false;
  Nanos stall = kBootStallPenalty;
  for (size_t i = 0; i < rules_.size(); ++i) {
    const FaultRule& rule = rules_[i];
    if (rule.site != site || remaining_[i] == 0) {
      continue;
    }
    bool hit = false;
    if (rule.trigger_on != 0) {
      if (n == rule.trigger_on) {
        hit = true;
      } else if (rule.period != 0 && n > rule.trigger_on &&
                 (n - rule.trigger_on) % rule.period == 0) {
        hit = true;
      }
    }
    // The Bernoulli draw happens for every evaluation the rule observes
    // (hit or not), so the stream's alignment is independent of outcomes.
    if (rule.probability > 0.0 && prng_.NextBool(rule.probability)) {
      hit = true;
    }
    if (hit) {
      fire = true;
      if (rule.stall > 0) {
        stall = rule.stall;
      }
      if (remaining_[i] > 0) {
        --remaining_[i];
      }
    }
  }
  if (fire) {
    ++fires_[static_cast<size_t>(site)];
    log_.push_back({site, n});
    if (site == FaultSite::kBootStall) {
      stall_penalty_ = stall;
    }
  }
  return fire;
}

}  // namespace lupine

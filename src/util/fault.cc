#include "src/util/fault.h"

#include <cctype>
#include <cstdlib>

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

// A deliberately small recursive-descent JSON reader: objects, arrays,
// strings (no escapes beyond \" and \\ — site names need none), numbers and
// the literals. Plans are trusted repo data files, not a hostile wire
// format, but malformed input still fails with a position, never crashes.
class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  Status Fail(const std::string& what) {
    return Status(Err::kInval,
                  "fault plan JSON: " + what + " at offset " + std::to_string(pos_));
  }

  void SkipSpace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool AtEnd() {
    SkipSpace();
    return pos_ >= text_.size();
  }

  Result<std::string> ReadString() {
    if (!Consume('"')) {
      return Fail("expected string");
    }
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        c = text_[pos_++];
        if (c != '"' && c != '\\') {
          return Fail("unsupported escape");
        }
      }
      out.push_back(c);
    }
    if (pos_ >= text_.size()) {
      return Fail("unterminated string");
    }
    ++pos_;  // Closing quote.
    return out;
  }

  Result<double> ReadNumber() {
    SkipSpace();
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '-' ||
            text_[pos_] == '+' || text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Fail("expected number");
    }
    char* end = nullptr;
    const std::string token = text_.substr(start, pos_ - start);
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      return Fail("malformed number '" + token + "'");
    }
    return value;
  }

 private:
  const std::string& text_;
  size_t pos_ = 0;
};

Status ParseRule(JsonReader& reader, FaultRule& rule) {
  if (!reader.Consume('{')) {
    return reader.Fail("expected rule object");
  }
  bool site_seen = false;
  if (!reader.Consume('}')) {
    do {
      auto key = reader.ReadString();
      if (!key.ok()) {
        return key.status();
      }
      if (!reader.Consume(':')) {
        return reader.Fail("expected ':' after \"" + *key + "\"");
      }
      if (*key == "site") {
        auto name = reader.ReadString();
        if (!name.ok()) {
          return name.status();
        }
        auto site = FaultSiteFromName(*name);
        if (!site.ok()) {
          return site.status();
        }
        rule.site = *site;
        site_seen = true;
        continue;
      }
      if (*key == "app") {
        auto app = reader.ReadString();
        if (!app.ok()) {
          return app.status();
        }
        rule.app = *app;
        continue;
      }
      auto number = reader.ReadNumber();
      if (!number.ok()) {
        return number.status();
      }
      if (*key == "trigger_on") {
        rule.trigger_on = static_cast<uint64_t>(*number);
      } else if (*key == "period") {
        rule.period = static_cast<uint64_t>(*number);
      } else if (*key == "probability") {
        rule.probability = *number;
      } else if (*key == "max_fires") {
        rule.max_fires = static_cast<int>(*number);
      } else if (*key == "stall_ns") {
        rule.stall = static_cast<Nanos>(*number);
      } else {
        return reader.Fail("unknown rule key \"" + *key + "\"");
      }
    } while (reader.Consume(','));
    if (!reader.Consume('}')) {
      return reader.Fail("expected '}' closing rule");
    }
  }
  if (!site_seen) {
    return reader.Fail("rule missing \"site\"");
  }
  return Status::Ok();
}

}  // namespace

Result<FaultPlan> FaultPlanFromJson(const std::string& json) {
  JsonReader reader(json);
  FaultPlan plan;
  if (!reader.Consume('{')) {
    return reader.Fail("expected top-level object");
  }
  if (!reader.Consume('}')) {
    do {
      auto key = reader.ReadString();
      if (!key.ok()) {
        return key.status();
      }
      if (!reader.Consume(':')) {
        return reader.Fail("expected ':' after \"" + *key + "\"");
      }
      if (*key == "seed") {
        auto seed = reader.ReadNumber();
        if (!seed.ok()) {
          return seed.status();
        }
        plan.seed = static_cast<uint64_t>(*seed);
      } else if (*key == "rules") {
        if (!reader.Consume('[')) {
          return reader.Fail("expected rules array");
        }
        if (!reader.Consume(']')) {
          do {
            FaultRule rule;
            if (Status s = ParseRule(reader, rule); !s.ok()) {
              return s;
            }
            plan.rules.push_back(rule);
          } while (reader.Consume(','));
          if (!reader.Consume(']')) {
            return reader.Fail("expected ']' closing rules");
          }
        }
      } else {
        return reader.Fail("unknown plan key \"" + *key + "\"");
      }
    } while (reader.Consume(','));
    if (!reader.Consume('}')) {
      return reader.Fail("expected '}' closing plan");
    }
  }
  if (!reader.AtEnd()) {
    return reader.Fail("trailing content after plan");
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

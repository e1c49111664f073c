#include "src/kconfig/resolver.h"

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

#include "src/kconfig/option_names.h"

namespace lupine::kconfig {
namespace {

std::atomic<bool> g_memoization_enabled{true};

const std::string& NameOf(OptionId id) { return OptionInterner::Global().NameOf(id); }

OptionId KmlId() {
  static const OptionId id = OptionInterner::Global().Intern(names::kKml);
  return id;
}

Status UnknownOptionError(OptionId id) {
  return Status(Err::kNoEnt, "unknown config option CONFIG_" + NameOf(id));
}

Status UnpatchedKmlError() {
  return Status(Err::kInval,
                "CONFIG_KERNEL_MODE_LINUX requires the KML patch to be applied to the tree");
}

Status ConflictError(OptionId option, OptionId conflict) {
  return Status(Err::kInval, "CONFIG_" + NameOf(option) + " conflicts with enabled CONFIG_" +
                                 NameOf(conflict));
}

// The config-independent part of one option's dependency closure: BFS
// discovery order (root first) over depends_on-then-selects edges, with a
// membership bitset for O(words) overlap tests against a Config. A walk that
// reaches an unregistered option records the failure in `status` and
// truncates `order` at that point — exactly where the live walk would stop.
// Conflict and KML legality are config-dependent and checked at replay time.
struct Closure {
  std::vector<OptionId> order;
  std::vector<uint64_t> bits;
  Status status = Status::Ok();
};

std::shared_ptr<const Closure> BuildClosure(const OptionDb& db, OptionId root) {
  auto closure = std::make_shared<Closure>();
  std::deque<OptionId> queue = {root};
  while (!queue.empty()) {
    OptionId id = queue.front();
    queue.pop_front();
    if (bits::Test(closure->bits, id)) {
      continue;
    }
    const OptionDb::OptionEdges* edges = db.EdgesById(id);
    if (edges == nullptr) {
      closure->status = UnknownOptionError(id);
      break;
    }
    bits::Set(closure->bits, id);
    closure->order.push_back(id);
    for (OptionId dep : edges->depends_on) {
      queue.push_back(dep);
    }
    for (OptionId sel : edges->selects) {
      queue.push_back(sel);
    }
  }
  return closure;
}

// Per-database closure cache, keyed by the database serial so destroyed
// databases can never alias a live one. Entries are invalidated wholesale
// when the database grows (Add after first resolution).
struct DbClosureCache {
  std::shared_mutex mu;
  size_t db_size = 0;
  std::unordered_map<OptionId, std::shared_ptr<const Closure>> closures;
};

DbClosureCache& CacheFor(const OptionDb& db) {
  static std::mutex mu;
  static auto* caches = new std::unordered_map<uint64_t, std::unique_ptr<DbClosureCache>>();
  std::lock_guard lock(mu);
  auto& slot = (*caches)[db.serial()];
  if (slot == nullptr) {
    slot = std::make_unique<DbClosureCache>();
  }
  return *slot;
}

std::shared_ptr<const Closure> GetClosure(const OptionDb& db, OptionId root) {
  DbClosureCache& cache = CacheFor(db);
  {
    std::shared_lock lock(cache.mu);
    if (cache.db_size == db.size()) {
      auto it = cache.closures.find(root);
      if (it != cache.closures.end()) {
        return it->second;
      }
    }
  }
  std::shared_ptr<const Closure> closure = BuildClosure(db, root);
  std::unique_lock lock(cache.mu);
  if (cache.db_size != db.size()) {
    cache.closures.clear();
    cache.db_size = db.size();
  }
  cache.closures.emplace(root, closure);
  return closure;
}

}  // namespace

void Resolver::SetMemoizationEnabled(bool enabled) {
  g_memoization_enabled.store(enabled, std::memory_order_relaxed);
}

bool Resolver::MemoizationEnabled() {
  return g_memoization_enabled.load(std::memory_order_relaxed);
}

Result<ResolveReport> Resolver::Enable(Config& config, const std::string& option) const {
  OptionId root = OptionInterner::Global().Intern(option);
  if (!MemoizationEnabled()) {
    return EnableWalk(config, root);
  }
  std::shared_ptr<const Closure> closure = GetClosure(db_, root);
  if (bits::Intersects(closure->bits, config.enabled_bits())) {
    // Some closure member is already enabled: the walk prunes at it (and
    // does not expand its edges), which the memoized order cannot express.
    return EnableWalk(config, root);
  }

  // Replay: no member is pre-enabled, so the live BFS would discover exactly
  // `order`. Per-node legality checks still run in discovery order against
  // config ∪ {members applied so far}, preserving first-error semantics.
  std::vector<uint64_t> applied(closure->bits.size(), 0);
  for (OptionId id : closure->order) {
    if (id == KmlId() && !config.kml_patch_applied()) {
      return UnpatchedKmlError();
    }
    const OptionDb::OptionEdges* edges = db_.EdgesById(id);
    for (OptionId conflict : edges->conflicts) {
      if (config.IsEnabledId(conflict) || bits::Test(applied, conflict)) {
        return ConflictError(id, conflict);
      }
    }
    bits::Set(applied, id);
  }
  if (!closure->status.ok()) {
    return closure->status;  // Unknown option mid-closure.
  }

  ResolveReport report;
  report.auto_enabled.reserve(closure->order.size() - 1);
  for (size_t i = 0; i < closure->order.size(); ++i) {
    config.EnableId(closure->order[i]);
    if (i > 0) {
      report.auto_enabled.push_back(NameOf(closure->order[i]));
    }
  }
  return report;
}

Result<ResolveReport> Resolver::EnableWalk(Config& config, OptionId root) const {
  ResolveReport report;
  std::deque<OptionId> queue = {root};
  // Work on a copy so a conflict deep in the closure leaves `config` intact
  // (cheap now: a Config copy is a pair of small bitsets).
  Config scratch = config;

  while (!queue.empty()) {
    OptionId id = queue.front();
    queue.pop_front();
    if (scratch.IsEnabledId(id)) {
      continue;
    }
    const OptionDb::OptionEdges* edges = db_.EdgesById(id);
    if (edges == nullptr) {
      return UnknownOptionError(id);
    }
    if (id == KmlId() && !scratch.kml_patch_applied()) {
      return UnpatchedKmlError();
    }
    for (OptionId conflict : edges->conflicts) {
      if (scratch.IsEnabledId(conflict)) {
        return ConflictError(id, conflict);
      }
    }
    scratch.EnableId(id);
    if (id != root) {
      report.auto_enabled.push_back(NameOf(id));
    }
    for (OptionId dep : edges->depends_on) {
      queue.push_back(dep);
    }
    for (OptionId sel : edges->selects) {
      queue.push_back(sel);
    }
  }

  config = std::move(scratch);
  return report;
}

Status Resolver::Validate(const Config& config) const {
  OptionId modules = OptionInterner::Global().Intern(names::kModules);
  // Name order (not id order): the first-reported violation is the
  // lexicographically first offending option, whatever order names were
  // interned in.
  for (OptionId id : config.EnabledIdsByName()) {
    const OptionDb::OptionEdges* edges = db_.EdgesById(id);
    if (edges == nullptr) {
      return UnknownOptionError(id);
    }
    if (config.ValueOfId(id) == "m" && !config.IsEnabledId(modules)) {
      return Status(Err::kInval, "CONFIG_" + NameOf(id) +
                                     "=m requires CONFIG_MODULES (loadable module support)");
    }
    if (id == KmlId() && !config.kml_patch_applied()) {
      return Status(Err::kInval, "CONFIG_KERNEL_MODE_LINUX enabled without the KML patch");
    }
    for (OptionId dep : edges->depends_on) {
      if (!config.IsEnabledId(dep)) {
        return Status(Err::kInval, "CONFIG_" + NameOf(id) + " requires CONFIG_" + NameOf(dep) +
                                       " which is not enabled");
      }
    }
    for (OptionId conflict : edges->conflicts) {
      if (config.IsEnabledId(conflict)) {
        return ConflictError(id, conflict);
      }
    }
  }
  return Status::Ok();
}

}  // namespace lupine::kconfig

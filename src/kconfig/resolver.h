// Dependency resolution over a Config, against an OptionDb.
//
// Models the parts of Kconfig semantics the experiments rely on:
//   * `select` edges are followed transitively (enabling IPV6 pulls INET/NET),
//   * `depends on` edges are auto-enabled (our equivalent of a user answering
//     the prompts `make oldconfig` would raise),
//   * `conflicts` (e.g. KERNEL_MODE_LINUX vs PARAVIRT) fail resolution,
//   * unknown options and un-patched KML fail resolution.
//
// Performance: per-option dependency closures (BFS discovery order over
// interned ids) are memoized per database and shared by every Resolver
// instance, so enabling the same option twice never re-walks the
// depends_on/select edge lists. When no closure member is already enabled in
// the target config the memoized order is replayed directly (the common
// fleet-build case); otherwise resolution falls back to the pruned BFS walk,
// which is also the reference path used when memoization is disabled. Both
// paths produce byte-identical ResolveReports and error messages.
#ifndef SRC_KCONFIG_RESOLVER_H_
#define SRC_KCONFIG_RESOLVER_H_

#include <string>
#include <vector>

#include "src/kconfig/config.h"
#include "src/util/result.h"

namespace lupine::kconfig {

struct ResolveReport {
  // Options auto-enabled to satisfy depends_on/selects, in discovery order.
  std::vector<std::string> auto_enabled;
};

class Resolver {
 public:
  explicit Resolver(const OptionDb& db) : db_(db) {}

  // Enables `option` in `config` together with its dependency closure.
  Result<ResolveReport> Enable(Config& config, const std::string& option) const;

  // Validates an existing config: every enabled option exists, has its
  // dependencies enabled, and no conflicting pair is enabled.
  Status Validate(const Config& config) const;

  // Process-wide kill switch for closure memoization (benchmarks and
  // equivalence tests).
  static void SetMemoizationEnabled(bool enabled);
  static bool MemoizationEnabled();

 private:
  Result<ResolveReport> EnableWalk(Config& config, OptionId root) const;

  const OptionDb& db_;
};

}  // namespace lupine::kconfig

#endif  // SRC_KCONFIG_RESOLVER_H_

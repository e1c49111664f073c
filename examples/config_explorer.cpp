// Explore the specialization pipeline: derive an app's minimal config with
// the automatic search, diff it against lupine-base, and emit .config text.
#include <cstdio>
#include <cstring>

#include "src/core/config_search.h"
#include "src/kconfig/presets.h"
#include "src/kconfig/resolver.h"

using namespace lupine;

int main(int argc, char** argv) {
  const std::string app = argc > 1 ? argv[1] : "redis";

  std::printf("Deriving the minimal viable configuration for '%s'\n", app.c_str());
  std::printf("(boot on lupine-base, read the console, add one option, repeat)\n\n");

  auto result = core::DeriveMinimalConfig(app);
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return 1;
  }
  if (!result->success) {
    std::fprintf(stderr, "search failed after %d boots:\n%s\n", result->boots,
                 result->failure.c_str());
    return 1;
  }

  std::printf("converged after %d build+boot cycles; options discovered in order:\n",
              result->boots);
  for (size_t i = 0; i < result->added_options.size(); ++i) {
    std::printf("  %2zu. CONFIG_%s\n", i + 1, result->added_options[i].c_str());
  }

  // Rebuild the final config and dump the .config delta.
  kconfig::Config config = kconfig::LupineBase();
  config.set_name("lupine-" + app);
  kconfig::Resolver resolver(kconfig::OptionDb::Linux40());
  for (const auto& option : result->added_options) {
    (void)resolver.Enable(config, option);
  }
  std::printf("\n%zu options total (%zu in lupine-base + %zu app-specific)\n",
              config.EnabledCount(), kconfig::LupineBase().EnabledCount(),
              result->added_options.size());

  std::printf("\n--- .config fragment (additions atop lupine-base) ---\n");
  for (const auto& option : config.Minus(kconfig::LupineBase())) {
    std::printf("CONFIG_%s=y\n", option.c_str());
  }
  return 0;
}

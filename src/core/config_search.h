// Automatic derivation of an application's minimal viable configuration.
//
// Mechanizes the paper's Section 4.1 process: start from lupine-base, boot
// the app, read the console for failure diagnostics ("epoll_create1 failed:
// function not implemented" -> CONFIG_EPOLL), add one option, rebuild,
// reboot — until the app reaches its success criteria.
#ifndef SRC_CORE_CONFIG_SEARCH_H_
#define SRC_CORE_CONFIG_SEARCH_H_

#include <string>
#include <vector>

#include "src/kconfig/config.h"
#include "src/util/result.h"

namespace lupine::core {

// A console diagnostic substring and the candidate options it suggests (in
// trial order — some messages are ambiguous and need trial and error).
struct ErrorHint {
  std::string needle;
  std::vector<std::string> candidates;
};

const std::vector<ErrorHint>& ConsoleErrorHints();

struct SearchResult {
  bool success = false;
  std::vector<std::string> added_options;  // In discovery order.
  int boots = 0;                           // Build+boot cycles taken.
  std::string failure;                     // Last console tail when !success.
};

// Derives the options `app` needs beyond lupine-base, booting it with 512 MiB
// at most 64 times.
Result<SearchResult> DeriveMinimalConfig(const std::string& app);

}  // namespace lupine::core

#endif  // SRC_CORE_CONFIG_SEARCH_H_

#include "src/kconfig/interning.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

namespace lupine::kconfig {
namespace {

// `run` keeps the names fresh when the test repeats in one process.
std::string StressName(size_t run, int thread, int i) {
  return "INTERNER_STRESS_" + std::to_string(run) + "_T" + std::to_string(thread) + "_" +
         std::to_string(i);
}

TEST(InternerTest, ConcurrentInternsReadBackWhileTheTableGrows) {
  // 20,000 fresh names carry the table across several segment boundaries
  // while every thread reads names by id, which takes no lock.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  OptionInterner& interner = OptionInterner::Global();
  const size_t before = interner.size();
  std::vector<std::vector<OptionId>> ids(kThreads);
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string name = StressName(before, t, i);
        const OptionId id = interner.Intern(name);
        ids[t].push_back(id);
        const int earlier = i / 2;
        if (interner.NameOf(id) != name ||
            interner.NameOf(ids[t][earlier]) != StressName(before, t, earlier) ||
            interner.Find(name) != id) {
          ++mismatches[t];
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }

  std::vector<OptionId> all;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
    all.insert(all.end(), ids[t].begin(), ids[t].end());
  }
  // Distinct and dense: exactly the ids [before, before + 20,000).
  std::sort(all.begin(), all.end());
  ASSERT_EQ(interner.size(), before + all.size());
  for (size_t k = 0; k < all.size(); ++k) {
    ASSERT_EQ(all[k], before + k);
  }
}

}  // namespace
}  // namespace lupine::kconfig

#include "src/kconfig/interning.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/kconfig/option_db.h"
#include "src/util/prng.h"

namespace lupine::kconfig {
namespace {

// Interns a name no earlier call used and returns its id. Ids are dense, so
// it is the number of names interned before it.
OptionId FreshId() {
  static std::atomic<int> probes{0};
  return OptionInterner::Global().Intern("INTERNER_PROBE_" + std::to_string(probes++));
}

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
  const size_t before = FreshId() + 1;
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
  ASSERT_EQ(FreshId(), before + all.size());
  for (size_t k = 0; k < all.size(); ++k) {
    ASSERT_EQ(all[k], before + k);
  }
}

// The reference order: a std::sort that compares the names themselves.
std::vector<OptionId> SortedByNameOf(std::vector<OptionId> ids) {
  const OptionInterner& interner = OptionInterner::Global();
  std::sort(ids.begin(), ids.end(),
            [&](OptionId a, OptionId b) { return interner.NameOf(a) < interner.NameOf(b); });
  return ids;
}

// The order under test: OptionInterner::SortByName on a copy.
std::vector<OptionId> RankSorted(std::vector<OptionId> ids) {
  OptionInterner::Global().SortByName(ids);
  return ids;
}

// Every name comes out in order, whenever its id was first ranked.
TEST(InternerTest, SortByNameRanksNamesInternedLater) {
  OptionInterner& interner = OptionInterner::Global();
  const std::string prefix = "INTERNER_RANK_" + std::to_string(FreshId()) + "_";
  auto id = [&](const char* suffix) { return interner.Intern(prefix + suffix); };

  // Interned out of name order, then ranked by the first sort.
  const OptionId f = id("F");
  const OptionId b = id("B");
  const OptionId d = id("D");
  EXPECT_EQ(RankSorted({d, f, b}), (std::vector<OptionId>{b, d, f}));

  // Names that fall before, between and after the ranked ones.
  const OptionId a = id("A");
  const OptionId c = id("C");
  const OptionId e = id("E");
  const OptionId g = id("G");
  EXPECT_EQ(RankSorted({g, e, c, a, f, d, b}), (std::vector<OptionId>{a, b, c, d, e, f, g}));

  // Mixed with database ids, some ranked by an earlier sort and some not.
  const OptionDb& db = OptionDb::Linux40();
  std::vector<OptionId> db_ids;
  for (size_t i = 0; i < db.size(); i += db.size() / 40) {
    db_ids.push_back(interner.Find(db.options()[i].name));
  }
  const std::vector<OptionId> half(db_ids.begin(), db_ids.begin() + db_ids.size() / 2);
  EXPECT_EQ(RankSorted(half), SortedByNameOf(half));
  const OptionId c2 = id("C2");
  std::vector<OptionId> mixed = db_ids;
  mixed.insert(mixed.end(), {c2, g, a, e});
  EXPECT_EQ(RankSorted(mixed), SortedByNameOf(mixed));

  // Seeded random subsets of the whole table, in random input order.
  Prng prng(42);
  const size_t table = FreshId();
  for (int round = 0; round < 100; ++round) {
    std::vector<OptionId> subset(1 + prng.NextBelow(300));
    for (OptionId& pick : subset) {
      pick = static_cast<OptionId>(prng.NextBelow(table));
    }
    std::sort(subset.begin(), subset.end());
    subset.erase(std::unique(subset.begin(), subset.end()), subset.end());
    for (size_t i = subset.size(); i > 1; --i) {
      std::swap(subset[i - 1], subset[prng.NextBelow(i)]);
    }
    ASSERT_EQ(RankSorted(subset), SortedByNameOf(subset)) << "round " << round;
  }
}

TEST(InternerTest, ConcurrentSortsWhileNamesArrive) {
  // Each step sorts ranked ids (the shared-lock path), then the same ids
  // plus a newcomer that falls between ranked names (the writer path), so
  // on four threads sorts that rank newcomers race with sorts that only
  // read the table.
  constexpr int kThreads = 4;
  constexpr int kSteps = 200;
  OptionInterner& interner = OptionInterner::Global();
  const std::string prefix = "INTERNER_RANK_RACE_" + std::to_string(FreshId()) + "_";
  std::vector<OptionId> ranked;
  for (int i = 0; i < 100; ++i) {
    ranked.push_back(interner.Intern(prefix + std::to_string(1000 + 10 * i)));
  }
  interner.SortByName(ranked);

  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Prng prng(static_cast<uint64_t>(t) + 1);
      auto check = [&](const std::vector<OptionId>& set) {
        if (RankSorted(set) != SortedByNameOf(set)) {
          ++mismatches[t];
        }
      };
      std::vector<OptionId> fresh;
      for (int i = 0; i < kSteps; ++i) {
        // Already ranked: base names and this thread's earlier names.
        std::vector<OptionId> set;
        for (int k = 0; k < 8; ++k) {
          set.push_back(ranked[prng.NextBelow(ranked.size())]);
        }
        if (!fresh.empty()) {
          set.push_back(fresh[prng.NextBelow(fresh.size())]);
        }
        check(set);
        // A newcomer between base names 1000 + 10k and 1000 + 10(k + 1).
        const std::string slot = std::to_string(1000 + 10 * prng.NextBelow(100) + 1 + t);
        fresh.push_back(interner.Intern(prefix + slot + "_" + std::to_string(i)));
        set.push_back(fresh.back());
        check(set);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

}  // namespace
}  // namespace lupine::kconfig

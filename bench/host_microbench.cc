// Host-level microbenchmarks (google-benchmark) of the simulator's own
// primitives: fiber switching, scheduler throughput, rootfs codec, config
// resolution, kernel image build, config fingerprint, guest cold boot and
// snapshot restore. These measure the reproduction infrastructure itself,
// not the simulated guest.
#include <benchmark/benchmark.h>

#include "src/apps/rootfs_builder.h"
#include "src/core/multik.h"
#include "src/core/snapshot_cache.h"
#include "src/guestos/rootfs.h"
#include "src/guestos/sched.h"
#include "src/guestos/snapshot.h"
#include "src/kbuild/builder.h"
#include "src/kconfig/presets.h"
#include "src/kconfig/resolver.h"
#include "src/util/fiber.h"
#include "src/vmm/vm.h"

namespace {

using namespace lupine;

void BM_FiberSwitch(benchmark::State& state) {
  bool done = false;
  Fiber fiber([&] {
    while (!done) {
      Fiber::Yield();
    }
  });
  for (auto _ : state) {
    fiber.Resume();
  }
  done = true;
  fiber.Resume();
}
BENCHMARK(BM_FiberSwitch);

void BM_SchedulerYieldPair(benchmark::State& state) {
  for (auto _ : state) {
    VirtualClock clock;
    kbuild::KernelFeatures features;
    guestos::Scheduler sched(&clock, &guestos::DefaultCostModel(), &features);
    for (int t = 0; t < 2; ++t) {
      sched.Spawn(nullptr, [&sched] {
        for (int i = 0; i < 100; ++i) {
          sched.YieldCurrent();
        }
      });
    }
    sched.Run();
    benchmark::DoNotOptimize(clock.now());
  }
}
BENCHMARK(BM_SchedulerYieldPair);

void BM_RootfsFormatParse(benchmark::State& state) {
  std::string blob = apps::BuildAppRootfsForApp("redis", true);
  for (auto _ : state) {
    auto spec = guestos::ParseRootfs(blob);
    benchmark::DoNotOptimize(spec.ok());
  }
}
BENCHMARK(BM_RootfsFormatParse);

void BM_ConfigResolveApp(benchmark::State& state) {
  for (auto _ : state) {
    auto config = kconfig::LupineForApp("nginx");
    benchmark::DoNotOptimize(config.ok());
  }
}
BENCHMARK(BM_ConfigResolveApp);

void BM_KernelImageBuild(benchmark::State& state) {
  kconfig::Config config = kconfig::LupineGeneral();
  kbuild::ImageBuilder builder;
  for (auto _ : state) {
    auto image = builder.Build(config);
    benchmark::DoNotOptimize(image.ok());
  }
}
BENCHMARK(BM_KernelImageBuild);

void BM_ConfigFingerprint(benchmark::State& state) {
  kconfig::Config config = kconfig::LupineForApp("nginx").take();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::KernelCache::ConfigFingerprint(config));
  }
}
BENCHMARK(BM_ConfigFingerprint);

// nginx's KernelCache artifact and a snapshot captured from one boot of it,
// at the serving layer's default guest RAM.
struct NginxLaunch {
  static constexpr Bytes kMemory = 128 * kMiB;
  core::KernelCache cache;
  core::KernelCache::ArtifactPtr artifact;
  guestos::Snapshot snapshot;
};

const NginxLaunch& Nginx() {
  static const NginxLaunch* launch = [] {
    auto* l = new NginxLaunch;
    l->artifact = l->cache.GetOrBuild("nginx").take();
    auto vm = l->artifact->Launch(NginxLaunch::kMemory);
    if (!vm->Boot().ok()) {
      std::abort();
    }
    const std::string key = core::SnapshotCache::Key(
        l->artifact->fingerprint, l->artifact->rootfs_key, NginxLaunch::kMemory);
    l->snapshot = vm->Capture(key, "nginx").take();
    return l;
  }();
  return *launch;
}

// Launch + Boot of the artifact: a cold start up to init exec.
void BM_VmColdBoot(benchmark::State& state) {
  const NginxLaunch& nginx = Nginx();
  for (auto _ : state) {
    auto vm = nginx.artifact->Launch(NginxLaunch::kMemory);
    benchmark::DoNotOptimize(vm->Boot().ok());
  }
}
BENCHMARK(BM_VmColdBoot);

// Vm::Restore of the captured snapshot: the replayed Boot+StartInit plus the
// digest check, what every serving refill and on-demand restore pays.
void BM_VmRestore(benchmark::State& state) {
  const NginxLaunch& nginx = Nginx();
  for (auto _ : state) {
    auto vm = vmm::Vm::Restore(nginx.snapshot);
    benchmark::DoNotOptimize(vm.ok());
  }
}
BENCHMARK(BM_VmRestore);

}  // namespace

BENCHMARK_MAIN();

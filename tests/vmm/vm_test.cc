#include "src/vmm/vm.h"

#include <gtest/gtest.h>

#include "src/apps/builtin.h"
#include "src/apps/rootfs_builder.h"
#include "src/kbuild/builder.h"
#include "src/kconfig/presets.h"

namespace lupine::vmm {
namespace {

VmSpec HelloSpec(Bytes memory = 512 * kMiB) {
  apps::RegisterBuiltinApps();
  kbuild::ImageBuilder builder;
  auto image = builder.Build(kconfig::LupineGeneral());
  EXPECT_TRUE(image.ok());
  VmSpec spec;
  spec.monitor = Firecracker();
  spec.image = std::make_shared<const kbuild::KernelImage>(image.take());
  spec.rootfs = std::make_shared<const guestos::RootfsImage>(
      apps::BuildAppRootfsForApp("hello-world", /*kml_libc=*/false));
  spec.memory = memory;
  return spec;
}

TEST(VmTest, BootProducesPhaseReport) {
  Vm vm(HelloSpec());
  ASSERT_TRUE(vm.Boot().ok());
  const BootReport& report = vm.boot_report();
  EXPECT_GT(report.to_init, 0);
  EXPECT_EQ(report.monitor + vm.kernel().boot_trace().Total(), report.to_init);
  const telemetry::SpanTrace spans = vm.boot_spans();
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans.spans().front().name, "monitor:firecracker");
  Nanos sum = 0;
  for (const auto& span : spans.spans()) {
    sum += span.duration();
  }
  EXPECT_EQ(sum, report.to_init);
}

// boot_spans() is derived from the monitor phase and the kernel's BootTrace:
// a cold boot's spans run back to back from 0 to to_init, app-main follows
// a run, and a restore replaces the whole boot with one snapshot-restore.
TEST(VmTest, BootSpansFollowTheBootTrace) {
  Vm vm(HelloSpec());
  ASSERT_TRUE(vm.Boot().ok());
  const std::vector<guestos::BootPhase>& phases = vm.kernel().boot_trace().phases;
  const telemetry::SpanTrace cold = vm.boot_spans();
  ASSERT_EQ(cold.spans().size(), phases.size() + 1);
  EXPECT_EQ(cold.spans()[0].name, "monitor:firecracker");
  EXPECT_EQ(cold.spans()[0].start, 0);
  EXPECT_EQ(cold.spans()[0].end, vm.boot_report().monitor);
  for (size_t i = 0; i < phases.size(); ++i) {
    SCOPED_TRACE(phases[i].name);
    const telemetry::Span& span = cold.spans()[i + 1];
    EXPECT_EQ(span.name, phases[i].name);
    EXPECT_EQ(span.start, cold.spans()[i].end);
    EXPECT_EQ(span.duration(), phases[i].duration);
  }
  EXPECT_EQ(phases.back().name, "init-exec");
  EXPECT_EQ(cold.spans().back().end, vm.boot_report().to_init);

  auto snapshot = vm.Capture("k", "hello-world");
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ASSERT_TRUE(vm.RunToCompletion().ok());
  const telemetry::SpanTrace ran = vm.boot_spans();
  ASSERT_EQ(ran.spans().size(), cold.spans().size() + 1);
  EXPECT_EQ(ran.spans().back().name, "app-main");
  EXPECT_EQ(ran.spans().back().start, vm.boot_report().to_init);
  EXPECT_EQ(ran.spans().back().end, vm.kernel().clock().now());

  auto restored = Vm::Restore(*snapshot);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const telemetry::SpanTrace restore = (*restored)->boot_spans();
  ASSERT_EQ(restore.spans().size(), 1u);
  EXPECT_EQ(restore.spans()[0].name, "snapshot-restore");
  EXPECT_EQ(restore.spans()[0].start, 0);
  EXPECT_EQ(restore.spans()[0].end, snapshot->restore_ns);
}

TEST(VmTest, HelloRunsToCompletion) {
  Vm vm(HelloSpec());
  auto result = vm.BootAndRun();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString() << "\n" << result.console;
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.console.find("Hello from Docker!"), std::string::npos);
}

TEST(VmTest, RunWithoutBootFails) {
  Vm vm(HelloSpec());
  EXPECT_FALSE(vm.RunToCompletion().ok());
}

TEST(VmTest, InsufficientMemoryFailsBoot) {
  Vm vm(HelloSpec(2 * kMiB));
  EXPECT_FALSE(vm.Boot().ok());
  EXPECT_TRUE(vm.boot_spans().empty());
}

TEST(MinMemoryProbeTest, FindsThreshold) {
  Bytes result = MinMemoryProbe(kMiB, 64 * kMiB,
                                [](Bytes memory) { return memory >= 21 * kMiB; });
  EXPECT_EQ(result, 21 * kMiB);
}

TEST(MinMemoryProbeTest, ZeroWhenCeilingFails) {
  EXPECT_EQ(MinMemoryProbe(kMiB, 16 * kMiB, [](Bytes) { return false; }), 0u);
}

TEST(MinMemoryProbeTest, HelloFootprintIsDeterministic) {
  auto try_run = [&](Bytes memory) {
    Vm vm(HelloSpec(memory));
    auto result = vm.BootAndRun();
    return result.status.ok() && result.exit_code == 0;
  };
  Bytes a = MinMemoryProbe(kMiB, 256 * kMiB, try_run);
  Bytes b = MinMemoryProbe(kMiB, 256 * kMiB, try_run);
  EXPECT_EQ(a, b);
  EXPECT_GT(a, 4 * kMiB);
  EXPECT_LT(a, 64 * kMiB);
}

}  // namespace
}  // namespace lupine::vmm

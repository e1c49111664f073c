// Snapshot/restore of post-init guests. The restore contract is
// equivalence: a restored guest is byte-identical to a fresh boot of the
// same artifact (console, process table, per-syscall accounting, digest) —
// only its launch cost differs. The SnapshotStormTest suite is Boot-only
// (no fiber runs).
#include "src/guestos/snapshot.h"

#include <gtest/gtest.h>

#include "src/core/multik.h"
#include "src/core/snapshot_cache.h"
#include "src/util/fault.h"
#include "src/vmm/vm.h"

namespace lupine::guestos {
namespace {

core::KernelCache& Cache() {
  static auto* cache = new core::KernelCache();
  return *cache;
}

constexpr Bytes kMemory = 128 * kMiB;

// Builds the app's artifact, boots one guest, and captures it.
Result<Snapshot> BootAndCapture(const std::string& app,
                                std::unique_ptr<vmm::Vm>* booted = nullptr) {
  auto artifact = Cache().GetOrBuild(app);
  if (!artifact.ok()) {
    return artifact.status();
  }
  auto vm = (*artifact)->Launch(kMemory);
  if (Status st = vm->Boot(); !st.ok()) {
    return st;
  }
  const std::string key = core::SnapshotCache::Key((*artifact)->fingerprint,
                                                   (*artifact)->rootfs_key, kMemory);
  auto snapshot = CaptureSnapshot(vm->kernel(), key, app, (*artifact)->kernel,
                                  (*artifact)->boot_plan, (*artifact)->rootfs);
  if (booted != nullptr) {
    *booted = std::move(vm);
  }
  return snapshot;
}

TEST(SnapshotStormTest, DigestIsStableAcrossIdenticalBoots) {
  auto artifact = Cache().GetOrBuild("redis");
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  auto a = (*artifact)->Launch(kMemory);
  auto b = (*artifact)->Launch(kMemory);
  ASSERT_TRUE(a->Boot().ok());
  ASSERT_TRUE(b->Boot().ok());
  EXPECT_EQ(KernelStateDigest(a->kernel()), KernelStateDigest(b->kernel()));
}

TEST(SnapshotStormTest, CaptureRequiresABootedGuest) {
  auto artifact = Cache().GetOrBuild("redis");
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  auto vm = (*artifact)->Launch(kMemory);  // Never booted.
  auto snapshot = CaptureSnapshot(vm->kernel(), "k", "redis", (*artifact)->kernel,
                                  (*artifact)->boot_plan, (*artifact)->rootfs);
  EXPECT_FALSE(snapshot.ok());
}

TEST(SnapshotStormTest, RestoreRebasesLaunchCostToRestoreNs) {
  std::unique_ptr<vmm::Vm> cold;
  auto snapshot = BootAndCapture("redis", &cold);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  auto restored = vmm::Vm::Restore(*snapshot);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE((*restored)->restored());
  EXPECT_FALSE(cold->restored());
  // The whole point: launch cost on the restore path is the modeled restore
  // cost, and the serving premise holds — under half a cold full boot.
  EXPECT_EQ((*restored)->boot_report().to_init, snapshot->restore_ns);
  EXPECT_LT((*restored)->boot_report().to_init, cold->boot_report().to_init / 2);
  // The restored timeline starts at restore_ns, not at the replayed boot's
  // virtual end.
  EXPECT_EQ((*restored)->kernel().clock().now(), snapshot->restore_ns);
}

TEST(SnapshotStormTest, RestoredGuestStateIsByteIdenticalToFreshBoot) {
  std::unique_ptr<vmm::Vm> fresh;
  auto snapshot = BootAndCapture("nginx", &fresh);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  auto restored = vmm::Vm::Restore(*snapshot);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  const Kernel& a = fresh->kernel();
  const Kernel& b = (*restored)->kernel();
  EXPECT_EQ(a.console().contents(), b.console().contents());
  EXPECT_EQ(a.ProcessCount(), b.ProcessCount());
  EXPECT_EQ(a.mm().used(), b.mm().used());
  const auto& sa = a.trace().syscall_stats();
  const auto& sb = b.trace().syscall_stats();
  for (size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].count, sb[i].count) << "syscall " << i;
    EXPECT_EQ(sa[i].total_ns, sb[i].total_ns) << "syscall " << i;
  }
  EXPECT_EQ(KernelStateDigest(a), KernelStateDigest(b));
}

TEST(SnapshotTest, RestoredGuestRunsWorkloadIdenticallyToFreshBoot) {
  std::unique_ptr<vmm::Vm> fresh;
  auto snapshot = BootAndCapture("hello-world", &fresh);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  auto restored = vmm::Vm::Restore(*snapshot);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  auto fresh_exit = fresh->RunToCompletion();
  auto restored_exit = (*restored)->RunToCompletion();
  ASSERT_TRUE(fresh_exit.ok()) << fresh_exit.status().ToString();
  ASSERT_TRUE(restored_exit.ok()) << restored_exit.status().ToString();
  EXPECT_EQ(*fresh_exit, *restored_exit);
  EXPECT_EQ(fresh->kernel().console().contents(),
            (*restored)->kernel().console().contents());
}

TEST(SnapshotStormTest, DigestMismatchFailsTheRestoreWithIo) {
  auto snapshot = BootAndCapture("redis");
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  Snapshot tampered = *snapshot;
  tampered.state_digest ^= 0xdeadbeef;
  auto restored = vmm::Vm::Restore(tampered);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().err(), Err::kIo);
}

TEST(SnapshotStormTest, InjectedRestoreFaultFailsWithIo) {
  auto snapshot = BootAndCapture("redis");
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  FaultPlan plan;
  plan.FireOnce(FaultSite::kSnapshotRestore, 1);
  FaultInjector injector(plan);
  auto failed = vmm::Vm::Restore(*snapshot, &injector);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().err(), Err::kIo);
  // The schedule fired once; the next restore on the same injector is clean.
  auto ok = vmm::Vm::Restore(*snapshot, &injector);
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

}  // namespace
}  // namespace lupine::guestos

// Snapshot/restore of post-init guests. The restore contract is
// equivalence: a restored guest is byte-identical to a fresh boot of the
// same artifact (console, process table, per-syscall accounting, digest) —
// only its launch cost differs. The SnapshotStormTest suite is Boot-only
// (no fiber runs).
#include "src/guestos/snapshot.h"

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <thread>
#include <vector>

#include "src/core/multik.h"
#include "src/core/snapshot_cache.h"
#include "src/guestos/syscall_api.h"
#include "src/util/fault.h"
#include "src/vmm/vm.h"
#include "src/workload/spawn.h"

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
  auto snapshot = vm->Capture(key, app);
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
  auto snapshot = vm->Capture("k", "redis");
  EXPECT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.status().err(), Err::kInval);
  EXPECT_EQ(snapshot.status().message(), "cannot snapshot before init started");

  auto crashed = (*artifact)->Launch(kMemory);
  ASSERT_TRUE(crashed->Boot().ok());
  crashed->kernel().Panic("test");
  auto dead = crashed->Capture("k", "redis");
  EXPECT_EQ(dead.status().err(), Err::kInval);
  EXPECT_EQ(dead.status().message(), "cannot snapshot a panicked guest");
}

TEST(SnapshotTest, CaptureHoldsTheVmsOwnImageAndRootfs) {
  auto artifact = Cache().GetOrBuild("redis");
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  auto vm = (*artifact)->Launch(kMemory);
  ASSERT_TRUE(vm->Boot().ok());
  auto snapshot = vm->Capture("k", "redis");
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot->key, "k");
  EXPECT_EQ(snapshot->app, "redis");
  EXPECT_EQ(snapshot->kernel, vm->spec().image);
  EXPECT_EQ(snapshot->rootfs, vm->spec().rootfs);
  EXPECT_EQ(snapshot->kernel, (*artifact)->kernel);
  EXPECT_EQ(snapshot->rootfs, (*artifact)->rootfs);
  EXPECT_EQ(snapshot->memory, kMemory);
  EXPECT_EQ(snapshot->state_digest, KernelStateDigest(vm->kernel()));
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

TEST(SnapshotStormTest, ChangedTreeFailsTheDigestWithIo) {
  auto snapshot = BootAndCapture("redis");
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  auto spec = ParseRootfs(snapshot->rootfs->blob());
  ASSERT_TRUE(spec.ok());
  // Another image holding the same tree restores: the digest hashes
  // content, not the image it came from.
  Snapshot same = *snapshot;
  same.rootfs = std::make_shared<const RootfsImage>(FormatRootfs(spec.value()));
  auto restored_same = vmm::Vm::Restore(same);
  EXPECT_TRUE(restored_same.ok()) << restored_same.status().ToString();
  // The same records with one payload changed: the boot replays identically
  // (same dentry-cache pages, console and phases), and only the tree differs.
  FsSpec changed = spec.value();
  changed.at("/etc/hostname").data = "tamper\n";
  Snapshot tampered = *snapshot;
  tampered.rootfs = std::make_shared<const RootfsImage>(FormatRootfs(changed));
  ASSERT_EQ(ReadRootfs(tampered.rootfs->blob()).value().size(),
            ReadRootfs(snapshot->rootfs->blob()).value().size());
  auto restored = vmm::Vm::Restore(tampered);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().err(), Err::kIo);
  EXPECT_EQ(restored.status().message(),
            "snapshot restore failed: state digest mismatch (" + snapshot->key + ")");
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

// --- One shared tree, private writes ---------------------------------------
// Every boot of a rootfs image, cold or restored, starts its VFS from the
// tree the image mounted once; a guest's first write gives it a copy of its
// own, so no other guest ever sees the write.

// What a guest sees of the three paths WriteCreateUnlink touches.
struct FsView {
  std::string hostname;      // Overwritten.
  bool has_created = false;  // Created.
  bool has_release = false;  // Unlinked.
  bool operator==(const FsView&) const = default;
};

const FsView kPristine{"lupine\n", false, true};
const FsView kWritten{"mutant\n", true, false};

FsView View(const Kernel& kernel) {
  FsView view;
  if (auto hostname = kernel.vfs().Lookup("/etc/hostname"); hostname.ok()) {
    view.hostname = hostname.value()->data;
  }
  view.has_created = kernel.vfs().Exists("/tmp/created");
  view.has_release = kernel.vfs().Exists("/etc/alpine-release");
  return view;
}

// Runs the guest with a process that writes over /etc/hostname, creates
// /tmp/created and unlinks /etc/alpine-release.
void WriteCreateUnlink(vmm::Vm& vm) {
  workload::SpawnProcess(vm.kernel(), "writer", [](SyscallApi& sys) {
    auto hostname = sys.Open("/etc/hostname");
    ASSERT_TRUE(hostname.ok()) << hostname.status().ToString();
    EXPECT_TRUE(sys.Write(hostname.value(), "mutant\n").ok());
    auto created = sys.Open("/tmp/created", /*create=*/true);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    EXPECT_TRUE(sys.Write(created.value(), "new\n").ok());
    EXPECT_TRUE(sys.Unlink("/etc/alpine-release").ok());
  });
  vm.kernel().Run();
}

TEST(SnapshotIsolationTest, WritesStayInTheWritingGuest) {
  auto artifact = Cache().GetOrBuild("hello-world");
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  auto snapshot = BootAndCapture("hello-world");
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  auto writer = vmm::Vm::Restore(*snapshot);
  auto sibling = vmm::Vm::Restore(*snapshot);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE(sibling.ok()) << sibling.status().ToString();
  EXPECT_EQ(View((*writer)->kernel()), kPristine);
  EXPECT_EQ((*writer)->kernel().vfs().root(), (*sibling)->kernel().vfs().root());

  WriteCreateUnlink(**writer);
  EXPECT_EQ(View((*writer)->kernel()), kWritten);
  EXPECT_FALSE((*writer)->kernel().vfs().shared());

  // The snapshot's tree is untouched: a third restore still verifies.
  auto third = vmm::Vm::Restore(*snapshot);
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  auto cold = (*artifact)->Launch(kMemory);
  ASSERT_TRUE(cold->Boot().ok());
  for (const vmm::Vm* vm : {sibling->get(), third->get(), cold.get()}) {
    EXPECT_EQ(View(vm->kernel()), kPristine);
    EXPECT_TRUE(vm->kernel().vfs().shared());
    EXPECT_EQ(KernelStateDigest(vm->kernel()), snapshot->state_digest);
  }
  // The sibling runs its own workload on the pristine tree.
  auto exit = (*sibling)->RunToCompletion();
  EXPECT_TRUE(exit.ok()) << exit.status().ToString();
  EXPECT_EQ(View((*sibling)->kernel()), kPristine);
}

TEST(SnapshotIsolationTest, FourThreadRestoreStormWithHalfTheGuestsWriting) {
  auto captured = BootAndCapture("hello-world");
  ASSERT_TRUE(captured.ok()) << captured.status().ToString();
  // A fresh image of the same blob: the threads' first restores race to
  // mount it, and exactly one tree must come out.
  Snapshot snapshot = *captured;
  snapshot.rootfs = std::make_shared<const RootfsImage>(captured->rootfs->blob());

  constexpr int kThreads = 4;
  constexpr int kRestoresPerThread = 12;
  std::latch start(kThreads);
  std::atomic<int> failures{0};
  std::vector<std::shared_ptr<const Inode>> shared_roots(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (int i = 0; i < kRestoresPerThread; ++i) {
        auto vm = vmm::Vm::Restore(snapshot);
        if (!vm.ok()) {
          ++failures;
          continue;
        }
        const bool writes = (t + i) % 2 == 0;
        if (!writes && shared_roots[t] == nullptr) {
          shared_roots[t] = (*vm)->kernel().vfs().root();
        }
        if (writes) {
          WriteCreateUnlink(**vm);
        }
        if (View((*vm)->kernel()) != (writes ? kWritten : kPristine)) {
          ++failures;
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);
  for (const auto& root : shared_roots) {
    EXPECT_EQ(root, shared_roots[0]);
  }
  auto after = vmm::Vm::Restore(snapshot);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(View((*after)->kernel()), kPristine);
  EXPECT_EQ((*after)->kernel().vfs().root(), shared_roots[0]);
}

}  // namespace
}  // namespace lupine::guestos

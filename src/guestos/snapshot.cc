#include "src/guestos/snapshot.h"

#include <utility>

#include "src/util/fnv.h"

namespace lupine::guestos {
uint64_t KernelStateDigest(const Kernel& kernel) {
  uint64_t h = kFnvOffset;
  FnvMix(h, kernel.image().name);
  FnvMix(h, static_cast<uint64_t>(kernel.image().size));
  FnvMix(h, static_cast<uint64_t>(kernel.mm().limit()));
  FnvMix(h, static_cast<uint64_t>(kernel.mm().used()));
  FnvMix(h, static_cast<uint64_t>(kernel.mm().peak()));
  FnvMix(h, static_cast<uint64_t>(kernel.ProcessCount()));
  FnvMix(h, kernel.console().contents());
  for (const BootPhase& phase : kernel.boot_trace().phases) {
    FnvMix(h, phase.name);
    FnvMix(h, static_cast<uint64_t>(phase.duration));
  }
  const auto& stats = kernel.trace().syscall_stats();
  for (size_t nr = 0; nr < stats.size(); ++nr) {
    if (stats[nr].count == 0) {
      continue;
    }
    FnvMix(h, static_cast<uint64_t>(nr));
    FnvMix(h, stats[nr].count);
    FnvMix(h, stats[nr].total_ns);
  }
  FnvMix(h, kernel.vfs().Digest());
  return h;
}

Nanos SnapshotCaptureCost(const CostModel& costs, Bytes captured_bytes) {
  const Nanos per_mb = static_cast<Nanos>(
      static_cast<double>(costs.snapshot_capture_per_mb) *
      (static_cast<double>(captured_bytes) / static_cast<double>(kMiB)));
  return costs.snapshot_capture_base + per_mb;
}

Nanos SnapshotRestoreCost(const CostModel& costs, Bytes captured_bytes) {
  const Nanos per_mb = static_cast<Nanos>(
      static_cast<double>(costs.snapshot_restore_per_mb) *
      (static_cast<double>(captured_bytes) / static_cast<double>(kMiB)));
  return costs.snapshot_restore_base + per_mb;
}

Result<Snapshot> CaptureSnapshot(const Kernel& kernel, std::string key, std::string app,
                                 std::shared_ptr<const kbuild::KernelImage> image,
                                 std::shared_ptr<const BootPlan> boot_plan,
                                 std::shared_ptr<const RootfsImage> rootfs) {
  if (kernel.panicked()) {
    return Status(Err::kInval, "cannot snapshot a panicked guest");
  }
  if (kernel.ProcessCount() == 0) {
    return Status(Err::kInval, "cannot snapshot before init started");
  }
  if (image == nullptr || rootfs == nullptr) {
    return Status(Err::kInval, "snapshot needs the kernel image and rootfs blob");
  }
  Snapshot snapshot;
  snapshot.key = std::move(key);
  snapshot.app = std::move(app);
  snapshot.kernel = std::move(image);
  snapshot.boot_plan = std::move(boot_plan);
  snapshot.rootfs = std::move(rootfs);
  snapshot.memory = kernel.mm().limit();
  snapshot.captured_bytes = kernel.mm().peak();
  snapshot.capture_ns = SnapshotCaptureCost(kernel.costs(), snapshot.captured_bytes);
  snapshot.restore_ns = SnapshotRestoreCost(kernel.costs(), snapshot.captured_bytes);
  snapshot.state_digest = KernelStateDigest(kernel);
  return snapshot;
}

}  // namespace lupine::guestos

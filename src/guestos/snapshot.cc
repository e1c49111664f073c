#include "src/guestos/snapshot.h"

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

}  // namespace lupine::guestos

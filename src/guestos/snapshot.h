// Snapshot/restore of a post-init guest — the Firecracker serving play.
//
// The paper's boot times make a cold VM launch cheap; a serving fleet makes
// it cheaper still by capturing a guest once it reaches post-init and
// cloning that state per instance, so launch cost drops from full Boot() to
// restore cost. In a fiber-based simulator the guest's execution state
// cannot be memcpy'd (fiber stacks are host-thread artifacts), so a
// Snapshot records what a restore needs to *re-materialize* the identical
// post-init machine deterministically: the immutable inputs (kernel image
// and rootfs image — both shared cache artifacts, and the boot derives
// every phase cost from the image) plus a digest of the captured machine
// state. Restoring replays Boot()+StartInit() — which rebuilds
// byte-identical state, because the simulator is deterministic — verifies
// the digest, and then rebases the virtual timeline so the instance's
// launch cost is the modeled restore cost, not the boot cost. Like every
// figure in this repo, the saving lives on the virtual clock: on the host a
// restore pays for a cold boot up to init plus the digest — the kernel's
// construction, the boot phases, and init's spawn. Neither pays for the
// rootfs: the replayed mount starts the guest's VFS from the tree the
// image's first boot built (RootfsImage), and the digest reads that tree's
// hash, taken once (bench/host_microbench times a restore as BM_VmRestore,
// next to BM_VmColdBoot).
//
// vmm::Vm::Capture takes a snapshot of the VM it is called on, from the
// image and rootfs that VM booted, and vmm::Vm::Restore replays one.
// Snapshots are only captured between StartInit() and the first Run(): at
// that point no fiber has executed, so the state is a pure function of
// (image, rootfs, memory) and the capture is safe to restore on any host
// thread.
#ifndef SRC_GUESTOS_SNAPSHOT_H_
#define SRC_GUESTOS_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/guestos/kernel.h"
#include "src/kbuild/image.h"
#include "src/util/units.h"

namespace lupine::guestos {

struct Snapshot {
  // Content address: {kernel fingerprint}\x1f{rootfs digest}\x1f{memory}.
  // Callers build it (core::SnapshotCache::Key); the guest layer treats it
  // as opaque.
  std::string key;
  std::string app;  // Operator-facing label.

  // Immutable inputs the restore re-materializes from (shared with the
  // kernel/rootfs caches; holding a snapshot pins them).
  std::shared_ptr<const kbuild::KernelImage> kernel;
  std::shared_ptr<const RootfsImage> rootfs;

  Bytes memory = 0;          // Guest RAM at capture; a restore must match.
  Bytes captured_bytes = 0;  // Resident bytes serialized to the memory file.
  Nanos capture_ns = 0;      // Modeled virtual cost of the capture.
  Nanos restore_ns = 0;      // Modeled virtual cost of each restore.
  uint64_t state_digest = 0; // KernelStateDigest at capture.

  // LRU accounting: a snapshot's retained weight is its memory file.
  Bytes SizeBytes() const { return captured_bytes; }
};

// Digest of the machine state a snapshot must reproduce: image identity,
// process table size, resident/peak memory, console output, boot phases,
// the per-syscall accounting table and the VFS tree (Vfs::Digest: the
// shared tree's cached hash, or a walk once the guest owns its tree).
// Excludes the clock (a restored guest's
// timeline is rebased) — two guests with equal digests behave identically
// from here on.
uint64_t KernelStateDigest(const Kernel& kernel);

// Modeled costs (base + per-MiB over the captured resident bytes).
Nanos SnapshotCaptureCost(const CostModel& costs, Bytes captured_bytes);
Nanos SnapshotRestoreCost(const CostModel& costs, Bytes captured_bytes);

}  // namespace lupine::guestos

#endif  // SRC_GUESTOS_SNAPSHOT_H_

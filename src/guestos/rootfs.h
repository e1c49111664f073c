// The root-filesystem image format.
//
// Lupine converts a container image into an ext2 image that the kernel
// mounts as its rootfs (Section 3). Our equivalent is a small serialized
// filesystem blob ("LUPX2" format): a superblock followed by path/type/data
// records. The builder side lives in src/apps/rootfs_builder.*; this module
// owns the format itself, mounting into a Vfs, and RootfsImage, which mounts
// an image once and shares the tree with every boot of it.
#ifndef SRC_GUESTOS_ROOTFS_H_
#define SRC_GUESTOS_ROOTFS_H_

#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/guestos/vfs.h"
#include "src/util/result.h"
#include "src/util/units.h"

namespace lupine::guestos {

// One file (or directory / device / symlink) in a filesystem spec.
struct FsEntry {
  InodeType type = InodeType::kFile;
  std::string data;            // File contents.
  std::string symlink_target;
  DevId dev = DevId::kNone;
  bool executable = false;
};

// Path -> entry; paths are absolute ("/bin/app"). Directories are implied by
// file paths but may also be listed explicitly (e.g. empty /tmp).
using FsSpec = std::map<std::string, FsEntry>;

// Serializes a spec into an image blob.
std::string FormatRootfs(const FsSpec& spec);

// One record of an image blob, viewing the blob's bytes.
struct RootfsRecord {
  std::string_view path;
  InodeType type = InodeType::kFile;  // The record's type byte; may name no type.
  DevId dev = DevId::kNone;
  bool executable = false;
  std::string_view payload;  // File contents, or a symlink's target.
};

// The one LUPX2FS reader: validates the whole blob and returns its records
// in ascending path order, keeping the first record of a duplicated path —
// the entries and order an FsSpec holds. Fails on bad magic / truncation.
// The records view `blob`, which must outlive them.
Result<std::vector<RootfsRecord>> ReadRootfs(std::string_view blob);

// Parses an image blob back into a spec: a copy of ReadRootfs's records.
Result<FsSpec> ParseRootfs(const std::string& blob);

// Materializes an image into a Vfs (the kernel's mount step), entry by
// entry in order: an entry's parent directories, then the entry itself.
// Records of no known type are skipped.
Status MountRootfs(std::span<const RootfsRecord> records, Vfs& vfs);
Status MountRootfs(const FsSpec& spec, Vfs& vfs);

// On-disk size of an image (what the monitor reads at boot).
inline Bytes RootfsSize(const std::string& blob) { return blob.size(); }

// An image mounted the way a boot mounts it: ReadRootfs, MountRootfs into a
// fresh Vfs, then (with devtmpfs) the /dev nodes the kernel creates.
struct MountedRootfs {
  Status status;       // ReadRootfs's verdict, else MountRootfs's.
  size_t records = 0;  // Distinct paths ReadRootfs returned (the dentry cache).
  // The tree; null when ReadRootfs rejected the blob, partial (and without
  // /dev nodes) when MountRootfs failed midway.
  std::shared_ptr<const SharedTree> tree;
};

// A rootfs image: the LUPX2FS blob and, built on first use, its mounted
// tree for each devtmpfs setting. Each tree is built exactly once, whichever
// threads ask first, and never written after: every Kernel::Boot of the
// image, cold or restored, starts its Vfs from it.
class RootfsImage {
 public:
  explicit RootfsImage(std::string blob) : blob_(std::move(blob)) {}
  RootfsImage(const RootfsImage&) = delete;
  RootfsImage& operator=(const RootfsImage&) = delete;

  const std::string& blob() const { return blob_; }
  // The image mounted for a kernel with or without devtmpfs; the first
  // call for each setting builds it, later calls wait for it or reuse it.
  const MountedRootfs& Mount(bool devtmpfs) const;

 private:
  std::string blob_;
  mutable std::once_flag once_[2];
  mutable MountedRootfs mounted_[2];
};

}  // namespace lupine::guestos

#endif  // SRC_GUESTOS_ROOTFS_H_

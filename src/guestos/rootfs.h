// The root-filesystem image format.
//
// Lupine converts a container image into an ext2 image that the kernel
// mounts as its rootfs (Section 3). Our equivalent is a small serialized
// filesystem blob ("LUPX2" format): a superblock followed by path/type/data
// records. The builder side lives in src/apps/rootfs_builder.*; this module
// owns the format itself plus mounting into a Vfs.
#ifndef SRC_GUESTOS_ROOTFS_H_
#define SRC_GUESTOS_ROOTFS_H_

#include <map>
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

}  // namespace lupine::guestos

#endif  // SRC_GUESTOS_ROOTFS_H_

// Virtual filesystem: inodes, file descriptions, mounts, device nodes.
//
// Backs the rootfs (mounted from an ext2-style image, see rootfs.h), ramfs /
// tmpfs mounts, the synthesized /proc and /sys trees, and the character
// devices the startup scripts and lmbench expect (/dev/null, /dev/zero,
// /dev/urandom, /dev/console).
//
// A Vfs may start from a SharedTree, the rootfs mounted once per image
// (rootfs.h's RootfsImage) and shared by every boot of it. It reads that
// tree in place and deep-copies it the first time a call could change it or
// hand one of its inodes to the guest, so a guest that never touches its
// filesystem never pays for a tree of its own.
#ifndef SRC_GUESTOS_VFS_H_
#define SRC_GUESTOS_VFS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/util/result.h"
#include "src/util/units.h"

namespace lupine::guestos {

class Console;
class MemoryManager;

enum class InodeType { kFile, kDir, kCharDev, kSymlink };
enum class DevId { kNone, kNull, kZero, kUrandom, kConsole };

struct Inode {
  InodeType type = InodeType::kFile;
  DevId dev = DevId::kNone;
  std::string data;                                     // File contents.
  std::string symlink_target;
  bool executable = false;
  // For directories. Transparent, so a path walk looks names up by view.
  std::map<std::string, std::shared_ptr<Inode>, std::less<>> children;
  // Page-cache accounting: pages charged when the file was first read.
  bool in_page_cache = false;
};

// What an open file descriptor refers to. Sockets, pipes, epoll instances
// and the fd-producing syscalls (eventfd/timerfd/signalfd/inotify/fanotify)
// are separate kinds so Close() can release the right resources.
enum class FdKind {
  kInode,
  kSocket,
  kPipeRead,
  kPipeWrite,
  kEpoll,
  kEventfd,
  kTimerfd,
  kSignalfd,
  kInotify,
  kFanotify,
};

class Socket;
struct PipeBuffer;
struct EpollInstance;

class FileDescription {
 public:
  FdKind kind = FdKind::kInode;
  std::shared_ptr<Inode> inode;
  size_t offset = 0;
  int flags = 0;
  std::string path;  // Path it was opened by (diagnostics).

  std::shared_ptr<Socket> socket;
  std::shared_ptr<PipeBuffer> pipe;
  std::shared_ptr<EpollInstance> epoll;
  uint64_t counter = 0;  // eventfd value / timerfd expirations.
};

// A tree published for sharing. Nothing writes it once published, so any
// number of Vfs instances on any threads may start from it.
struct SharedTree {
  std::shared_ptr<Inode> root;
  uint64_t digest = 0;  // Vfs::Digest of the tree, taken at publication.
};

class Vfs {
 public:
  // An empty root directory, shared until the first call that copies it.
  Vfs();
  // Starts from `tree`, shared until the first call that copies it.
  explicit Vfs(std::shared_ptr<const SharedTree> tree);

  // Publishes this Vfs's tree (its mounts are not part of it) and goes on
  // sharing it like every other Vfs that starts from it.
  std::shared_ptr<const SharedTree> Publish();

  // Path resolution relative to root; "." and ".." are normalized,
  // symlinks followed (depth-limited). Lookup only reads and never copies
  // the tree. Resolve is for a caller that may write the inode or hand it
  // to the guest (open, exec, the page cache): it copies a shared tree
  // first.
  Result<std::shared_ptr<const Inode>> Lookup(std::string_view path) const;
  Result<std::shared_ptr<Inode>> Resolve(std::string_view path);
  bool Exists(std::string_view path) const { return Lookup(path).ok(); }

  // Create*, Unlink and Mount copy a shared tree first.
  // CreateFile/CreateDevice/CreateSymlink/Unlink walk once to the
  // directory holding the path's last component (following symlinks, like
  // Resolve) and act on that name. CreateDir is mkdir -p: it creates every
  // missing component, takes each one literally ("." and ".." too) and
  // follows no symlink.
  Result<std::shared_ptr<Inode>> CreateFile(std::string_view path, std::string data = "",
                                            bool executable = false);
  Result<std::shared_ptr<Inode>> CreateDir(std::string_view path);
  Result<std::shared_ptr<Inode>> CreateDevice(std::string_view path, DevId dev);
  Status CreateSymlink(std::string_view path, std::string_view target);
  Status Unlink(std::string_view path);

  // Mounts a synthesized filesystem at `path` ("proc", "sysfs", "tmpfs",
  // "devtmpfs"). The caller (syscall layer) checks config gating.
  Status Mount(const std::string& fstype, const std::string& path);
  bool IsMounted(const std::string& path) const;

  std::shared_ptr<const Inode> root() const { return Root(); }
  // True until the first call that copies a shared tree.
  bool shared() const { return shared_ != nullptr; }
  // Content hash of the tree: every name, type, device, executable bit,
  // payload and symlink target (not page-cache state). A shared tree's was
  // taken once when it was published; this Vfs's own tree is walked.
  uint64_t Digest() const;

 private:
  const std::shared_ptr<Inode>& Root() const { return shared_ != nullptr ? shared_->root : root_; }
  // Replaces a shared tree with a deep copy of it.
  void Own();

  // Walks `path` from the root. Errors name `path` as given, or, when
  // `names_parent`, as the normalized directory "/a/b/" a Create* walked.
  Result<const std::shared_ptr<Inode>*> Walk(std::string_view path, int depth,
                                             bool names_parent) const;
  // The directory holding `path`'s last component, and that component, in
  // this Vfs's own tree (a shared one is copied first).
  Result<std::pair<Inode*, std::string_view>> WalkToParent(std::string_view path);

  std::shared_ptr<const SharedTree> shared_;  // Set until Own() copies it.
  std::shared_ptr<Inode> root_;               // This Vfs's own tree.
  std::vector<std::string> mounts_;
};

// Populates a freshly mounted /proc (and /proc/sys when `with_sysctl`).
void PopulateProcfs(Inode& proc_root, bool with_sysctl);
// Populates /sys with a minimal device tree.
void PopulateSysfs(Inode& sys_root);

}  // namespace lupine::guestos

#endif  // SRC_GUESTOS_VFS_H_

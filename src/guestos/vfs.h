// Virtual filesystem: inodes, file descriptions, mounts, device nodes.
//
// Backs the rootfs (mounted from an ext2-style image, see rootfs.h), ramfs /
// tmpfs mounts, the synthesized /proc and /sys trees, and the character
// devices the startup scripts and lmbench expect (/dev/null, /dev/zero,
// /dev/urandom, /dev/console).
#ifndef SRC_GUESTOS_VFS_H_
#define SRC_GUESTOS_VFS_H_

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

class Vfs {
 public:
  Vfs();

  // Path resolution relative to root; "." and ".." are normalized,
  // symlinks followed (depth-limited).
  Result<std::shared_ptr<Inode>> Resolve(std::string_view path) const;
  bool Exists(std::string_view path) const { return Resolve(path).ok(); }

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

  const std::shared_ptr<Inode>& root() const { return root_; }

 private:
  // Walks `path` from the root. Errors name `path` as given, or, when
  // `names_parent`, as the normalized directory "/a/b/" a Create* walked.
  Result<const std::shared_ptr<Inode>*> Walk(std::string_view path, int depth,
                                             bool names_parent) const;
  // The directory holding `path`'s last component, and that component.
  Result<std::pair<Inode*, std::string_view>> WalkToParent(std::string_view path) const;

  std::shared_ptr<Inode> root_;
  std::vector<std::string> mounts_;
};

// Populates a freshly mounted /proc (and /proc/sys when `with_sysctl`).
void PopulateProcfs(Inode& proc_root, bool with_sysctl);
// Populates /sys with a minimal device tree.
void PopulateSysfs(Inode& sys_root);

}  // namespace lupine::guestos

#endif  // SRC_GUESTOS_VFS_H_

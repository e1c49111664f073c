#include "src/guestos/vfs.h"

#include <algorithm>

#include "src/util/fnv.h"

namespace lupine::guestos {
namespace {

constexpr int kMaxSymlinkDepth = 8;

// Returns the next component of `path` at or after `pos`, skipping empty
// ones, and moves `pos` past it; empty once none is left.
std::string_view NextComponent(std::string_view path, size_t& pos) {
  while (pos < path.size() && path[pos] == '/') {
    ++pos;
  }
  const size_t start = pos;
  while (pos < path.size() && path[pos] != '/') {
    ++pos;
  }
  return path.substr(start, pos - start);
}

// "/" plus each component and a "/": how a Create* names the directory it
// walked to ("/a/b/" for "a//b").
std::string NormalizedDir(std::string_view path) {
  std::string out = "/";
  size_t pos = 0;
  for (std::string_view part = NextComponent(path, pos); !part.empty();
       part = NextComponent(path, pos)) {
    out += part;
    out += '/';
  }
  return out;
}

void HashTree(const Inode& node, uint64_t& h) {
  FnvMix(h, static_cast<uint64_t>(node.type));
  FnvMix(h, static_cast<uint64_t>(node.dev));
  FnvMix(h, static_cast<uint64_t>(node.executable));
  FnvMix(h, node.data);
  FnvMix(h, node.symlink_target);
  FnvMix(h, static_cast<uint64_t>(node.children.size()));
  for (const auto& [name, child] : node.children) {
    FnvMix(h, name);
    HashTree(*child, h);
  }
}

std::shared_ptr<Inode> CopyTree(const Inode& node) {
  auto copy = std::make_shared<Inode>();
  copy->type = node.type;
  copy->dev = node.dev;
  copy->data = node.data;
  copy->symlink_target = node.symlink_target;
  copy->executable = node.executable;
  copy->in_page_cache = node.in_page_cache;
  for (const auto& [name, child] : node.children) {
    copy->children.emplace_hint(copy->children.end(), name, CopyTree(*child));
  }
  return copy;
}

uint64_t TreeDigest(const Inode& root) {
  uint64_t h = kFnvOffset;
  HashTree(root, h);
  return h;
}

// The tree every default Vfs starts from: one empty root directory,
// published once per process. A Vfs copies it on its first write, so a
// kernel whose boot replaces its Vfs never allocates a root of its own.
const std::shared_ptr<const SharedTree>& EmptyTree() {
  static const std::shared_ptr<const SharedTree> empty = [] {
    auto tree = std::make_shared<SharedTree>();
    tree->root = std::make_shared<Inode>();
    tree->root->type = InodeType::kDir;
    tree->digest = TreeDigest(*tree->root);
    return tree;
  }();
  return empty;
}

}  // namespace

Vfs::Vfs() : shared_(EmptyTree()) {}

Vfs::Vfs(std::shared_ptr<const SharedTree> tree) : shared_(std::move(tree)) {}

std::shared_ptr<const SharedTree> Vfs::Publish() {
  Own();
  auto tree = std::make_shared<SharedTree>();
  tree->digest = TreeDigest(*root_);
  tree->root = std::move(root_);
  shared_ = tree;
  mounts_.clear();
  return tree;
}

void Vfs::Own() {
  if (shared_ != nullptr) {
    root_ = CopyTree(*shared_->root);
    shared_.reset();
  }
}

uint64_t Vfs::Digest() const { return shared_ != nullptr ? shared_->digest : TreeDigest(*root_); }

Result<std::shared_ptr<const Inode>> Vfs::Lookup(std::string_view path) const {
  auto node = Walk(path, 0, /*names_parent=*/false);
  if (!node.ok()) {
    return node.status();
  }
  return std::shared_ptr<const Inode>(*node.value());
}

Result<std::shared_ptr<Inode>> Vfs::Resolve(std::string_view path) {
  Own();
  auto node = Walk(path, 0, /*names_parent=*/false);
  if (!node.ok()) {
    return node.status();
  }
  return *node.value();
}

Result<const std::shared_ptr<Inode>*> Vfs::Walk(std::string_view path, int depth,
                                                bool names_parent) const {
  auto fail = [&](Err err, const char* what) {
    return Status(err, (names_parent ? NormalizedDir(path) : std::string(path)) + what);
  };
  if (depth > kMaxSymlinkDepth) {
    return fail(Err::kIo, ": too many levels of symbolic links");
  }
  const std::shared_ptr<Inode>* node = &Root();
  // The directories above `node`, for "..": only a path with one keeps them.
  const bool has_dotdot = path.find("..") != std::string_view::npos;
  std::vector<const std::shared_ptr<Inode>*> above;

  size_t pos = 0;
  for (std::string_view part = NextComponent(path, pos); !part.empty();
       part = NextComponent(path, pos)) {
    if (part == ".") {
      continue;
    }
    if (part == "..") {
      if (!above.empty()) {
        node = above.back();
        above.pop_back();
      }
      continue;
    }
    if ((*node)->type != InodeType::kDir) {
      return fail(Err::kNotDir, ": not a directory");
    }
    auto it = (*node)->children.find(part);
    if (it == (*node)->children.end()) {
      return fail(Err::kNoEnt, ": no such file or directory");
    }
    const std::shared_ptr<Inode>& next = it->second;
    if (next->type == InodeType::kSymlink) {
      // Re-resolve the target plus the remaining components.
      std::string rest = next->symlink_target;
      for (part = NextComponent(path, pos); !part.empty(); part = NextComponent(path, pos)) {
        rest += '/';
        rest += part;
      }
      return Walk(rest, depth + 1, /*names_parent=*/false);
    }
    if (has_dotdot) {
      above.push_back(node);
    }
    node = &next;
  }
  return node;
}

Result<std::pair<Inode*, std::string_view>> Vfs::WalkToParent(std::string_view path) {
  Own();
  const size_t leaf_end = path.find_last_not_of('/');
  if (leaf_end == std::string_view::npos) {
    return Status(Err::kInval, "cannot take parent of /");
  }
  const size_t slash = path.find_last_of('/', leaf_end);
  const size_t leaf_start = slash == std::string_view::npos ? 0 : slash + 1;
  const std::string_view dir_path = path.substr(0, leaf_start);
  auto dir = Walk(dir_path, 0, /*names_parent=*/true);
  if (!dir.ok()) {
    return dir.status();
  }
  if ((*dir.value())->type != InodeType::kDir) {
    return Status(Err::kNotDir, NormalizedDir(dir_path) + ": not a directory");
  }
  return std::make_pair(dir.value()->get(), path.substr(leaf_start, leaf_end + 1 - leaf_start));
}

Result<std::shared_ptr<Inode>> Vfs::CreateFile(std::string_view path, std::string data,
                                               bool executable) {
  auto parent = WalkToParent(path);
  if (!parent.ok()) {
    return parent.status();
  }
  auto inode = std::make_shared<Inode>();
  inode->type = InodeType::kFile;
  inode->data = std::move(data);
  inode->executable = executable;
  parent->first->children.insert_or_assign(std::string(parent->second), inode);
  return inode;
}

Result<std::shared_ptr<Inode>> Vfs::CreateDir(std::string_view path) {
  Own();
  const std::shared_ptr<Inode>* node = &root_;
  size_t pos = 0;
  for (std::string_view part = NextComponent(path, pos); !part.empty();
       part = NextComponent(path, pos)) {
    if ((*node)->type != InodeType::kDir) {
      return Status(Err::kNotDir, std::string(path) + ": component is not a directory");
    }
    auto& children = (*node)->children;
    auto it = children.lower_bound(part);
    if (it == children.end() || it->first != part) {
      auto dir = std::make_shared<Inode>();
      dir->type = InodeType::kDir;
      it = children.emplace_hint(it, part, std::move(dir));
    }
    node = &it->second;
  }
  if ((*node)->type != InodeType::kDir) {
    return Status(Err::kExist, std::string(path) + ": exists and is not a directory");
  }
  return *node;
}

Result<std::shared_ptr<Inode>> Vfs::CreateDevice(std::string_view path, DevId dev) {
  auto parent = WalkToParent(path);
  if (!parent.ok()) {
    return parent.status();
  }
  auto inode = std::make_shared<Inode>();
  inode->type = InodeType::kCharDev;
  inode->dev = dev;
  parent->first->children.insert_or_assign(std::string(parent->second), inode);
  return inode;
}

Status Vfs::CreateSymlink(std::string_view path, std::string_view target) {
  auto parent = WalkToParent(path);
  if (!parent.ok()) {
    return parent.status();
  }
  auto inode = std::make_shared<Inode>();
  inode->type = InodeType::kSymlink;
  inode->symlink_target = target;
  parent->first->children.insert_or_assign(std::string(parent->second), std::move(inode));
  return Status::Ok();
}

Status Vfs::Unlink(std::string_view path) {
  auto parent = WalkToParent(path);
  if (!parent.ok()) {
    return parent.status();
  }
  auto& children = parent->first->children;
  auto it = children.find(parent->second);
  if (it == children.end()) {
    return Status(Err::kNoEnt, std::string(path) + ": no such file or directory");
  }
  if (it->second->type == InodeType::kDir && !it->second->children.empty()) {
    return Status(Err::kNotEmpty, std::string(path) + ": directory not empty");
  }
  children.erase(it);
  return Status::Ok();
}

Status Vfs::Mount(const std::string& fstype, const std::string& path) {
  auto dir = CreateDir(path);
  if (!dir.ok()) {
    return dir.status();
  }
  if (fstype == "proc") {
    // Caller decides sysctl presence; default without. The syscall layer
    // re-populates with sysctl when PROC_SYSCTL is configured.
    PopulateProcfs(*dir.value(), /*with_sysctl=*/false);
  } else if (fstype == "sysfs") {
    PopulateSysfs(*dir.value());
  } else if (fstype == "tmpfs" || fstype == "devtmpfs" || fstype == "ramfs" ||
             fstype == "hugetlbfs") {
    // Empty writable tree.
  } else {
    return Status(Err::kNoEnt, "unknown filesystem type " + fstype);
  }
  mounts_.push_back(path);
  return Status::Ok();
}

bool Vfs::IsMounted(const std::string& path) const {
  return std::find(mounts_.begin(), mounts_.end(), path) != mounts_.end();
}

void PopulateProcfs(Inode& proc_root, bool with_sysctl) {
  auto add_file = [&proc_root](const std::string& name, const std::string& data) {
    auto inode = std::make_shared<Inode>();
    inode->type = InodeType::kFile;
    inode->data = data;
    proc_root.children[name] = inode;
  };
  add_file("meminfo", "MemTotal:  524288 kB\nMemFree:  475000 kB\n");
  add_file("cpuinfo", "processor\t: 0\nmodel name\t: virtual\n");
  add_file("version", "Linux version 4.0.0-lupine (kml) #1\n");
  add_file("uptime", "1.00 1.00\n");
  add_file("filesystems", "\text2\nnodev\tproc\nnodev\ttmpfs\n");
  if (with_sysctl) {
    auto sys = std::make_shared<Inode>();
    sys->type = InodeType::kDir;
    auto add_sys = [&sys](const std::string& name, const std::string& data) {
      auto inode = std::make_shared<Inode>();
      inode->type = InodeType::kFile;
      inode->data = data;
      sys->children[name] = inode;
    };
    add_sys("kernel.pid_max", "32768\n");
    add_sys("fs.file-max", "65536\n");
    add_sys("net.core.somaxconn", "128\n");
    add_sys("vm.overcommit_memory", "0\n");
    proc_root.children["sys"] = sys;
  }
}

void PopulateSysfs(Inode& sys_root) {
  auto devices = std::make_shared<Inode>();
  devices->type = InodeType::kDir;
  auto virtio = std::make_shared<Inode>();
  virtio->type = InodeType::kDir;
  devices->children["virtio-mmio"] = virtio;
  sys_root.children["devices"] = devices;
  auto kernel_dir = std::make_shared<Inode>();
  kernel_dir->type = InodeType::kDir;
  sys_root.children["kernel"] = kernel_dir;
}

}  // namespace lupine::guestos

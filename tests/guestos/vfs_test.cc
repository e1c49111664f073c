#include "src/guestos/vfs.h"

#include <gtest/gtest.h>

namespace lupine::guestos {
namespace {

TEST(VfsTest, RootExists) {
  Vfs vfs;
  auto root = vfs.Resolve("/");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root.value()->type, InodeType::kDir);
}

TEST(VfsTest, CreateAndResolveFile) {
  Vfs vfs;
  ASSERT_TRUE(vfs.CreateDir("/etc").ok());
  ASSERT_TRUE(vfs.CreateFile("/etc/hostname", "lupine\n").ok());
  auto inode = vfs.Resolve("/etc/hostname");
  ASSERT_TRUE(inode.ok());
  EXPECT_EQ(inode.value()->data, "lupine\n");
}

TEST(VfsTest, MissingPathIsEnoent) {
  Vfs vfs;
  auto inode = vfs.Resolve("/no/such/file");
  EXPECT_FALSE(inode.ok());
  EXPECT_EQ(inode.err(), Err::kNoEnt);
}

TEST(VfsTest, MkdirPCreatesIntermediates) {
  Vfs vfs;
  ASSERT_TRUE(vfs.CreateDir("/var/lib/redis/data").ok());
  EXPECT_TRUE(vfs.Exists("/var"));
  EXPECT_TRUE(vfs.Exists("/var/lib/redis"));
}

TEST(VfsTest, DotAndDotDotNormalized) {
  Vfs vfs;
  (void)vfs.CreateDir("/a/b");
  (void)vfs.CreateFile("/a/b/f", "x");
  EXPECT_TRUE(vfs.Resolve("/a/./b/f").ok());
  EXPECT_TRUE(vfs.Resolve("/a/b/../b/f").ok());
  EXPECT_TRUE(vfs.Resolve("/../a/b/f").ok());
}

TEST(VfsTest, SymlinksFollowed) {
  Vfs vfs;
  (void)vfs.CreateDir("/lib");
  (void)vfs.CreateFile("/lib/libc.so.6", "libc");
  ASSERT_TRUE(vfs.CreateSymlink("/lib/libc.so", "/lib/libc.so.6").ok());
  auto inode = vfs.Resolve("/lib/libc.so");
  ASSERT_TRUE(inode.ok());
  EXPECT_EQ(inode.value()->data, "libc");
}

TEST(VfsTest, SymlinkLoopsDetected) {
  Vfs vfs;
  ASSERT_TRUE(vfs.CreateSymlink("/a", "/b").ok());
  ASSERT_TRUE(vfs.CreateSymlink("/b", "/a").ok());
  auto inode = vfs.Resolve("/a");
  EXPECT_FALSE(inode.ok());
}

TEST(VfsTest, UnlinkRemovesFiles) {
  Vfs vfs;
  (void)vfs.CreateFile("/junk", "x");
  EXPECT_TRUE(vfs.Unlink("/junk").ok());
  EXPECT_FALSE(vfs.Exists("/junk"));
  EXPECT_EQ(vfs.Unlink("/junk").err(), Err::kNoEnt);
}

TEST(VfsTest, UnlinkNonEmptyDirRefused) {
  Vfs vfs;
  (void)vfs.CreateDir("/d");
  (void)vfs.CreateFile("/d/f", "x");
  EXPECT_EQ(vfs.Unlink("/d").err(), Err::kNotEmpty);
}

TEST(VfsTest, DeviceNodes) {
  Vfs vfs;
  (void)vfs.CreateDir("/dev");
  ASSERT_TRUE(vfs.CreateDevice("/dev/null", DevId::kNull).ok());
  auto inode = vfs.Resolve("/dev/null");
  ASSERT_TRUE(inode.ok());
  EXPECT_EQ(inode.value()->type, InodeType::kCharDev);
  EXPECT_EQ(inode.value()->dev, DevId::kNull);
}

TEST(VfsTest, ProcMountWithoutSysctl) {
  Vfs vfs;
  ASSERT_TRUE(vfs.Mount("proc", "/proc").ok());
  EXPECT_TRUE(vfs.Exists("/proc/meminfo"));
  EXPECT_FALSE(vfs.Exists("/proc/sys"));
  EXPECT_TRUE(vfs.IsMounted("/proc"));
}

TEST(VfsTest, ProcSysctlPopulation) {
  Vfs vfs;
  ASSERT_TRUE(vfs.Mount("proc", "/proc").ok());
  auto proc = vfs.Resolve("/proc");
  ASSERT_TRUE(proc.ok());
  PopulateProcfs(*proc.value(), /*with_sysctl=*/true);
  EXPECT_TRUE(vfs.Exists("/proc/sys/kernel.pid_max"));
}

TEST(VfsTest, UnknownFilesystemTypeRejected) {
  Vfs vfs;
  Status s = vfs.Mount("zfs", "/zpool");
  EXPECT_FALSE(s.ok());
}

TEST(VfsTest, ResolveThroughFileIsNotDir) {
  Vfs vfs;
  (void)vfs.CreateFile("/f", "x");
  auto inode = vfs.Resolve("/f/sub");
  EXPECT_FALSE(inode.ok());
  EXPECT_EQ(inode.err(), Err::kNotDir);
}

// --- Path-walk behaviour, pinned ----------------------------------------
// Status codes and messages reach the guest console through init's panic
// text, so they feed KernelStateDigest: these tests pin them byte for byte.

TEST(VfsTest, CreateThroughSymlinkedParentDirectory) {
  Vfs vfs;
  ASSERT_TRUE(vfs.CreateDir("/data").ok());
  ASSERT_TRUE(vfs.CreateSymlink("/link", "/data").ok());
  ASSERT_TRUE(vfs.CreateFile("/link/f", "x").ok());
  ASSERT_TRUE(vfs.CreateDevice("/link/null", DevId::kNull).ok());
  ASSERT_TRUE(vfs.CreateSymlink("/link/s", "/data/f").ok());
  auto file = vfs.Resolve("/data/f");
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file.value()->data, "x");
  auto dev = vfs.Resolve("/data/null");
  ASSERT_TRUE(dev.ok());
  EXPECT_EQ(dev.value()->dev, DevId::kNull);
  auto via = vfs.Resolve("/data/s");
  ASSERT_TRUE(via.ok());
  EXPECT_EQ(via.value(), file.value());
  // A relative target resolves from the root, and a trailing slash on the
  // link name still names the link.
  ASSERT_TRUE(vfs.CreateSymlink("/rel", "data").ok());
  ASSERT_TRUE(vfs.CreateFile("/rel/g/", "y").ok());
  EXPECT_TRUE(vfs.Exists("/data/g"));
  EXPECT_TRUE(vfs.Unlink("/link/f").ok());
  EXPECT_FALSE(vfs.Exists("/data/f"));
  // mkdir -p follows no symlink: a link is "not a directory" midway and
  // "exists" at the end.
  auto mid = vfs.CreateDir("/link/sub");
  EXPECT_EQ(mid.err(), Err::kNotDir);
  EXPECT_EQ(mid.status().message(), "/link/sub: component is not a directory");
  auto end = vfs.CreateDir("/link");
  EXPECT_EQ(end.err(), Err::kExist);
  EXPECT_EQ(end.status().message(), "/link: exists and is not a directory");
}

TEST(VfsTest, DotsAndSlashesInCreateAndResolve) {
  Vfs vfs;
  ASSERT_TRUE(vfs.CreateDir("//a///b//").ok());
  EXPECT_TRUE(vfs.Exists("/a/b"));
  // The walk to a leaf's parent skips "." and pops ".."; the leaf is the
  // last non-empty component.
  ASSERT_TRUE(vfs.CreateFile("/a/./b/../b//f/", "x").ok());
  auto f = vfs.Resolve("/a/b/f");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f.value()->data, "x");
  EXPECT_TRUE(vfs.CreateFile("/../../a/b/g", "y").ok());
  EXPECT_TRUE(vfs.Exists("/a/b/g"));
  EXPECT_EQ(vfs.Resolve("a/b/f").value(), f.value());
  EXPECT_EQ(vfs.Resolve("//a//b//f//").value(), f.value());
  // "." after a file is skipped and ".." returns to the directory the walk
  // came from, before any directory check.
  EXPECT_EQ(vfs.Resolve("/a/b/f/.").value(), f.value());
  auto b = vfs.Resolve("/a/b");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(vfs.Resolve("/a/b/f/..").value(), b.value());
  EXPECT_EQ(vfs.Resolve("/../..").value(), vfs.root());
  EXPECT_EQ(vfs.Resolve("").value(), vfs.root());
  // mkdir -p takes every component literally, "." and ".." included.
  ASSERT_TRUE(vfs.CreateDir("/a/./c").ok());
  EXPECT_FALSE(vfs.Exists("/a/c"));
  auto a = vfs.Resolve("/a");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.value()->children.count("."), 1u);
  EXPECT_EQ(vfs.CreateDir("/").value(), vfs.root());
  // A leaf of "." or ".." is a literal name too.
  ASSERT_TRUE(vfs.CreateFile("/a/..", "z").ok());
  EXPECT_EQ(a.value()->children.count(".."), 1u);
  EXPECT_EQ(a.value()->children.at("..")->data, "z");
  EXPECT_EQ(vfs.Resolve("/a/..").value(), vfs.root());
}

TEST(VfsTest, NoEntMessages) {
  Vfs vfs;
  ASSERT_TRUE(vfs.CreateDir("/d").ok());
  auto r = vfs.Resolve("//no//such/");
  EXPECT_EQ(r.err(), Err::kNoEnt);
  EXPECT_EQ(r.status().message(), "//no//such/: no such file or directory");
  // Create* names the parent it walked to, normalized.
  auto c = vfs.CreateFile("//x///y/z", "data");
  EXPECT_EQ(c.err(), Err::kNoEnt);
  EXPECT_EQ(c.status().message(), "/x/y/: no such file or directory");
  auto dev = vfs.CreateDevice("d/./x/null", DevId::kNull);
  EXPECT_EQ(dev.err(), Err::kNoEnt);
  EXPECT_EQ(dev.status().message(), "/d/./x/: no such file or directory");
  Status link = vfs.CreateSymlink("/x/l", "/d");
  EXPECT_EQ(link.err(), Err::kNoEnt);
  EXPECT_EQ(link.message(), "/x/: no such file or directory");
  // Unlink names the path it was given once the parent is found.
  Status u = vfs.Unlink("/d//gone/");
  EXPECT_EQ(u.err(), Err::kNoEnt);
  EXPECT_EQ(u.message(), "/d//gone/: no such file or directory");
  Status up = vfs.Unlink("/x/y");
  EXPECT_EQ(up.err(), Err::kNoEnt);
  EXPECT_EQ(up.message(), "/x/: no such file or directory");
}

TEST(VfsTest, NotDirMessages) {
  Vfs vfs;
  ASSERT_TRUE(vfs.CreateDir("/a").ok());
  ASSERT_TRUE(vfs.CreateFile("/a/b", "x").ok());
  auto r = vfs.Resolve("/a/b/sub");
  EXPECT_EQ(r.err(), Err::kNotDir);
  EXPECT_EQ(r.status().message(), "/a/b/sub: not a directory");
  // A parent that resolves to a file.
  auto c = vfs.CreateFile("/a/b/c", "y");
  EXPECT_EQ(c.err(), Err::kNotDir);
  EXPECT_EQ(c.status().message(), "/a/b/: not a directory");
  auto slashes = vfs.CreateDevice("//a//b//c", DevId::kZero);
  EXPECT_EQ(slashes.err(), Err::kNotDir);
  EXPECT_EQ(slashes.status().message(), "/a/b/: not a directory");
  // A file midway through the parent.
  Status deep = vfs.CreateSymlink("/a/b/c/d", "/a");
  EXPECT_EQ(deep.err(), Err::kNotDir);
  EXPECT_EQ(deep.message(), "/a/b/c/: not a directory");
  Status u = vfs.Unlink("/a/b/c");
  EXPECT_EQ(u.err(), Err::kNotDir);
  EXPECT_EQ(u.message(), "/a/b/: not a directory");
  // A parent reached through a symlink to a file names the unfollowed path.
  ASSERT_TRUE(vfs.CreateSymlink("/fl", "/a/b").ok());
  auto via = vfs.CreateFile("/fl/x", "z");
  EXPECT_EQ(via.err(), Err::kNotDir);
  EXPECT_EQ(via.status().message(), "/fl/: not a directory");
  auto mkdir = vfs.CreateDir("//a/b/c/");
  EXPECT_EQ(mkdir.err(), Err::kNotDir);
  EXPECT_EQ(mkdir.status().message(), "//a/b/c/: component is not a directory");
}

TEST(VfsTest, ExistAndInvalMessages) {
  Vfs vfs;
  ASSERT_TRUE(vfs.CreateFile("/f", "x").ok());
  auto e = vfs.CreateDir("//f/");
  EXPECT_EQ(e.err(), Err::kExist);
  EXPECT_EQ(e.status().message(), "//f/: exists and is not a directory");
  for (const char* path : {"/", "", "///"}) {
    auto c = vfs.CreateFile(path, "y");
    EXPECT_EQ(c.err(), Err::kInval) << path;
    EXPECT_EQ(c.status().message(), "cannot take parent of /") << path;
  }
  EXPECT_EQ(vfs.Unlink("/").message(), "cannot take parent of /");
  ASSERT_TRUE(vfs.CreateDir("/d/e").ok());
  Status busy = vfs.Unlink("/d/");
  EXPECT_EQ(busy.err(), Err::kNotEmpty);
  EXPECT_EQ(busy.message(), "/d/: directory not empty");
  // Create* over an existing name replaces it.
  ASSERT_TRUE(vfs.CreateFile("/d", "now a file").ok());
  EXPECT_EQ(vfs.Resolve("/d").value()->data, "now a file");
}

TEST(VfsTest, SymlinkLoopMessages) {
  Vfs vfs;
  ASSERT_TRUE(vfs.CreateSymlink("/a", "/b").ok());
  ASSERT_TRUE(vfs.CreateSymlink("/b", "/a").ok());
  // The ninth re-resolution gives up, naming the path it was handed.
  auto r = vfs.Resolve("/a");
  EXPECT_EQ(r.err(), Err::kIo);
  EXPECT_EQ(r.status().message(), "/b: too many levels of symbolic links");
  auto rest = vfs.Resolve("/a//x/./y");
  EXPECT_EQ(rest.err(), Err::kIo);
  EXPECT_EQ(rest.status().message(), "/b/x/./y: too many levels of symbolic links");
  auto c = vfs.CreateFile("/a/x/y", "z");
  EXPECT_EQ(c.err(), Err::kIo);
  EXPECT_EQ(c.status().message(), "/b/x: too many levels of symbolic links");
}

TEST(VfsTest, FailureAfterFollowingASymlinkNamesTheRewrittenPath) {
  Vfs vfs;
  ASSERT_TRUE(vfs.CreateDir("/d").ok());
  ASSERT_TRUE(vfs.CreateFile("/d/file", "x").ok());
  ASSERT_TRUE(vfs.CreateSymlink("/l", "/d/").ok());
  ASSERT_TRUE(vfs.CreateSymlink("/rel", "d").ok());
  // The target plus the components after the link, re-resolved from /.
  auto r = vfs.Resolve("/l/x//y");
  EXPECT_EQ(r.err(), Err::kNoEnt);
  EXPECT_EQ(r.status().message(), "/d//x/y: no such file or directory");
  auto nd = vfs.Resolve("/rel/file/z");
  EXPECT_EQ(nd.err(), Err::kNotDir);
  EXPECT_EQ(nd.status().message(), "d/file/z: not a directory");
  // A Create* walk re-resolves only the parent's components.
  auto c = vfs.CreateFile("/l/x/y/leaf", "z");
  EXPECT_EQ(c.err(), Err::kNoEnt);
  EXPECT_EQ(c.status().message(), "/d//x/y: no such file or directory");
  auto cd = vfs.CreateDevice("/rel/file/z/null", DevId::kNull);
  EXPECT_EQ(cd.err(), Err::kNotDir);
  EXPECT_EQ(cd.status().message(), "d/file/z: not a directory");
  // Followed parents that resolve fine still create in the target.
  ASSERT_TRUE(vfs.CreateFile("/l/new", "n").ok());
  EXPECT_TRUE(vfs.Exists("/d/new"));
}

}  // namespace
}  // namespace lupine::guestos

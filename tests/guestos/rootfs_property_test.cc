// Property tests: the rootfs codec round-trips arbitrary content, and the
// kernel's mount agrees with the FsSpec reference on mutated images.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/apps/manifest.h"
#include "src/apps/rootfs_builder.h"
#include "src/guestos/kernel.h"
#include "src/guestos/rootfs.h"
#include "src/kbuild/builder.h"
#include "src/kconfig/presets.h"
#include "src/util/prng.h"
#include "tests/support/mutator.h"

namespace lupine::guestos {
namespace {

std::string RandomBytes(Prng& rng, size_t max_len) {
  size_t len = rng.NextBelow(max_len);
  std::string out(len, '\0');
  for (auto& c : out) {
    c = static_cast<char>(rng.NextBelow(256));
  }
  return out;
}

std::string RandomPath(Prng& rng) {
  static const char* segments[] = {"bin", "lib", "etc", "usr", "var", "data",
                                   "app", "conf.d", "x86_64", ".hidden"};
  int depth = 1 + static_cast<int>(rng.NextBelow(4));
  std::string path;
  for (int d = 0; d < depth; ++d) {
    path += "/";
    path += segments[rng.NextBelow(std::size(segments))];
  }
  path += "/f" + std::to_string(rng.NextBelow(100000));
  return path;
}

class RootfsProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RootfsProperty, RandomSpecsRoundTrip) {
  Prng rng(GetParam());
  FsSpec spec;
  int entries = 1 + static_cast<int>(rng.NextBelow(60));
  for (int i = 0; i < entries; ++i) {
    FsEntry entry;
    switch (rng.NextBelow(4)) {
      case 0:
        entry.type = InodeType::kDir;
        break;
      case 1:
        entry.type = InodeType::kSymlink;
        entry.symlink_target = RandomPath(rng);
        break;
      case 2:
        entry.type = InodeType::kCharDev;
        entry.dev = static_cast<DevId>(rng.NextBelow(5));
        break;
      default:
        entry.type = InodeType::kFile;
        entry.data = RandomBytes(rng, 4096);
        entry.executable = rng.NextBool(0.3);
        break;
    }
    spec[RandomPath(rng)] = entry;
  }

  auto parsed = ParseRootfs(FormatRootfs(spec));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.value().size(), spec.size());
  for (const auto& [path, entry] : spec) {
    const auto it = parsed.value().find(path);
    ASSERT_NE(it, parsed.value().end()) << path;
    EXPECT_EQ(it->second.type, entry.type) << path;
    EXPECT_EQ(it->second.data, entry.data) << path;
    EXPECT_EQ(it->second.symlink_target, entry.symlink_target) << path;
    EXPECT_EQ(it->second.dev, entry.dev) << path;
    EXPECT_EQ(it->second.executable, entry.executable) << path;
  }
}

TEST_P(RootfsProperty, TruncationsNeverCrashTheParser) {
  Prng rng(GetParam() ^ 0x7777);
  FsSpec spec;
  FsEntry app_entry;
  app_entry.data = RandomBytes(rng, 2048);
  spec["/bin/app"] = app_entry;
  FsEntry conf_entry;
  conf_entry.data = RandomBytes(rng, 512);
  spec["/etc/conf"] = conf_entry;
  std::string blob = FormatRootfs(spec);
  for (int i = 0; i < 40; ++i) {
    size_t cut = rng.NextBelow(blob.size());
    auto parsed = ParseRootfs(blob.substr(0, cut));
    // Either cleanly rejected or (cut == full prefix of fewer entries) OK;
    // never a crash. Any success must contain only valid entries.
    if (parsed.ok()) {
      EXPECT_LE(parsed.value().size(), spec.size());
    }
  }
}

TEST_P(RootfsProperty, MountedTreeMatchesSpec) {
  Prng rng(GetParam() ^ 0x1234);
  FsSpec spec;
  for (int i = 0; i < 20; ++i) {
    FsEntry entry;
    entry.type = InodeType::kFile;
    entry.data = RandomBytes(rng, 256);
    spec[RandomPath(rng)] = entry;
  }
  Vfs vfs;
  ASSERT_TRUE(MountRootfs(spec, vfs).ok());
  for (const auto& [path, entry] : spec) {
    auto inode = vfs.Resolve(path);
    ASSERT_TRUE(inode.ok()) << path;
    EXPECT_EQ(inode.value()->data, entry.data) << path;
  }
}

// --- Mutation test of the rootfs mount --------------------------------------
// Kernel::Boot reads and mounts an image in one pass; the reference is the
// FsSpec path, MountRootfs(ParseRootfs(blob)) into a fresh Vfs. On every
// top-20 app image and the bench image, mutated by shuffled records,
// duplicated paths and unknown type bytes, then by the shared byte mutator's
// flips and truncations (tests/support/mutator.h), the two must agree on the
// status, the console line, the dentry-cache pages and the resulting tree.

uint32_t GetU32At(const std::string& blob, size_t pos) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<uint8_t>(blob[pos + i]);
  }
  return v;
}

std::string U32(uint32_t v) {
  std::string out;
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
  return out;
}

constexpr size_t kHeaderBytes = 8 + 4;  // Magic + record count.

// A well-formed image's records, each as its bytes, in blob order.
std::vector<std::string> SplitRecords(const std::string& blob) {
  std::vector<std::string> records;
  size_t pos = kHeaderBytes;
  for (uint32_t i = 0, count = GetU32At(blob, 8); i < count; ++i) {
    const size_t start = pos;
    pos += 4 + GetU32At(blob, pos) + 3;
    pos += 4 + GetU32At(blob, pos);
    records.push_back(blob.substr(start, pos - start));
  }
  return records;
}

std::string Assemble(const std::string& blob, const std::vector<std::string>& records) {
  std::string out = blob.substr(0, 8) + U32(static_cast<uint32_t>(records.size()));
  for (const auto& record : records) {
    out += record;
  }
  return out;
}

size_t TypeByteOffset(const std::string& record) { return 4 + GetU32At(record, 0); }

std::string Mutate(const std::string& blob, Prng& rng) {
  std::vector<std::string> records = SplitRecords(blob);
  if (rng.NextBool(0.3)) {
    for (size_t i = records.size(); i > 1; --i) {
      std::swap(records[i - 1], records[rng.NextBelow(i)]);
    }
  }
  if (!records.empty() && rng.NextBool(0.4)) {
    // A second record for an existing path, of a random known type.
    for (int n = 1 + static_cast<int>(rng.NextBelow(3)); n > 0; --n) {
      std::string copy = records[rng.NextBelow(records.size())];
      const size_t type_at = TypeByteOffset(copy);
      copy[type_at] = static_cast<char>(rng.NextBelow(4));
      copy[type_at + 1] = static_cast<char>(rng.NextBelow(5));
      copy[type_at + 2] = static_cast<char>(rng.NextBelow(2));
      copy = copy.substr(0, type_at + 3) + U32(3) + "dup";
      records.insert(records.begin() + rng.NextBelow(records.size() + 1), copy);
    }
  }
  if (!records.empty() && rng.NextBool(0.3)) {
    std::string& record = records[rng.NextBelow(records.size())];
    record[TypeByteOffset(record)] = static_cast<char>(4 + rng.NextBelow(252));
  }
  std::string out = Assemble(blob, records);
  if (rng.NextBool(0.4)) {
    fuzz::FlipBytes(out, rng);
  }
  if (rng.NextBool(0.2)) {
    fuzz::Truncate(out, rng);
  }
  return out;
}

// Every node under `node`: path, type, dev, executable flag and contents.
void DumpTree(const Inode& node, const std::string& path, std::string& out) {
  out += path + " t" + std::to_string(static_cast<int>(node.type)) + " d" +
         std::to_string(static_cast<int>(node.dev)) + (node.executable ? " x " : " - ") +
         std::to_string(node.data.size()) + ":" + node.data + " " +
         std::to_string(node.symlink_target.size()) + ":" + node.symlink_target + "\n";
  for (const auto& [name, child] : node.children) {
    DumpTree(*child, path + "/" + name, out);
  }
}

std::string Tree(const Vfs& vfs) {
  std::string out;
  DumpTree(*vfs.root(), "", out);
  return out;
}

const std::shared_ptr<const kbuild::KernelImage>& Image() {
  static const auto image = [] {
    auto built = kbuild::ImageBuilder().Build(kconfig::LupineGeneral());
    EXPECT_TRUE(built.ok());
    return std::make_shared<const kbuild::KernelImage>(built.take());
  }();
  return image;
}

constexpr Bytes kGuestMemory = 512 * kMiB;

struct BootOutcome {
  Status status;
  std::string console;
  uint64_t pages = 0;
  std::string tree;
};

BootOutcome BootKernel(const std::string& blob) {
  Kernel kernel(Image(), kGuestMemory);
  BootOutcome out;
  out.status = kernel.Boot(RootfsImage(blob));
  out.console = kernel.console().contents();
  out.pages = kernel.mm().used_pages();
  out.tree = Tree(kernel.vfs());
  return out;
}

TEST(RootfsMutation, BootAgreesWithTheFsSpecMount) {
  std::vector<std::string> blobs;
  for (const auto& manifest : apps::Top20Manifests()) {
    blobs.push_back(apps::BuildAppRootfsForApp(manifest.name, /*kml_libc=*/false));
  }
  blobs.push_back(apps::BuildBenchRootfs(/*kml_libc=*/false));

  // What Boot adds around the mount: the console before it and the banner
  // after it, the resident pages before the dentry cache, and the devtmpfs
  // nodes after it.
  const BootOutcome unreadable = BootKernel("");
  ASSERT_EQ(unreadable.status.err(), Err::kInval);
  const std::string kNoRoot = "VFS: Cannot open root device\n";
  ASSERT_TRUE(unreadable.console.ends_with(kNoRoot));
  const std::string before = unreadable.console.substr(0, unreadable.console.size() - kNoRoot.size());
  const uint64_t resident = unreadable.pages;
  const BootOutcome empty = BootKernel(FormatRootfs({}));
  ASSERT_TRUE(empty.status.ok());
  ASSERT_TRUE(empty.console.starts_with(before));
  const std::string banner = empty.console.substr(before.size());
  const bool devtmpfs = Image()->features.devtmpfs;

  Prng rng(20);
  size_t booted = 0, unparsed = 0, unmounted = 0;
  for (const std::string& original : blobs) {
    for (int i = 0; i < 150; ++i) {
      const std::string blob = Mutate(original, rng);
      SCOPED_TRACE("mutant " + std::to_string(i) + " of a " + std::to_string(original.size()) +
                   "-byte image");
      const BootOutcome got = BootKernel(blob);

      Vfs vfs;
      auto spec = ParseRootfs(blob);
      Status want = spec.ok() ? MountRootfs(spec.value(), vfs) : spec.status();
      std::string console = before;
      uint64_t pages = resident;
      if (!spec.ok()) {
        console += kNoRoot;
        ++unparsed;
      } else if (!want.ok()) {
        ++unmounted;
      } else {
        ++booted;
        pages += (spec.value().size() + 7) / 8;
        if (devtmpfs) {
          (void)vfs.CreateDir("/dev");
          (void)vfs.CreateDevice("/dev/null", DevId::kNull);
          (void)vfs.CreateDevice("/dev/zero", DevId::kZero);
          (void)vfs.CreateDevice("/dev/urandom", DevId::kUrandom);
          (void)vfs.CreateDevice("/dev/console", DevId::kConsole);
        }
        console += banner;
      }
      EXPECT_EQ(got.status.err(), want.err());
      EXPECT_EQ(got.status.message(), want.message());
      EXPECT_EQ(got.console, console);
      EXPECT_EQ(got.pages, pages);
      EXPECT_EQ(got.tree, Tree(vfs));
    }
  }
  // Every outcome was exercised.
  EXPECT_GT(booted, 100u);
  EXPECT_GT(unparsed, 100u);
  EXPECT_GT(unmounted, 0u);
}

TEST(RootfsMutation, HostileRecordCountIsRejected) {
  std::string blob = FormatRootfs({});
  for (uint32_t count : {1u, 0x10000u, 0xFFFFFFFFu}) {
    blob.replace(8, 4, U32(count));
    auto records = ReadRootfs(blob);
    EXPECT_EQ(records.err(), Err::kInval);
    EXPECT_EQ(records.status().message(), "truncated rootfs entry path");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RootfsProperty, ::testing::Values(42u, 43u, 44u, 45u));

}  // namespace
}  // namespace lupine::guestos

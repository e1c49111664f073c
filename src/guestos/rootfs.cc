#include "src/guestos/rootfs.h"

#include <algorithm>
#include <cstring>

namespace lupine::guestos {
namespace {

constexpr char kMagic[8] = {'L', 'U', 'P', 'X', '2', 'F', 'S', '\1'};

void PutU32(std::string& out, uint32_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
  out.push_back(static_cast<char>((v >> 16) & 0xFF));
  out.push_back(static_cast<char>((v >> 24) & 0xFF));
}

bool GetU32(std::string_view in, size_t& pos, uint32_t& v) {
  if (pos + 4 > in.size()) {
    return false;
  }
  v = static_cast<uint8_t>(in[pos]) | (static_cast<uint8_t>(in[pos + 1]) << 8) |
      (static_cast<uint8_t>(in[pos + 2]) << 16) |
      (static_cast<uint32_t>(static_cast<uint8_t>(in[pos + 3])) << 24);
  pos += 4;
  return true;
}

bool GetBytes(std::string_view in, size_t& pos, uint32_t len, std::string_view& out) {
  if (pos + len > in.size()) {
    return false;
  }
  out = in.substr(pos, len);
  pos += len;
  return true;
}

// The smallest record: a path length, the three header bytes and a payload
// length.
constexpr size_t kMinRecordBytes = 4 + 3 + 4;

// Creates one entry: its parent directories (tar-style images list files
// only), then the entry. Both MountRootfs overloads mount through it.
Status MountEntry(const RootfsRecord& record, Vfs& vfs) {
  if (record.type == InodeType::kDir) {
    auto r = vfs.CreateDir(record.path);
    return r.ok() ? Status::Ok() : r.status();
  }
  if (record.type != InodeType::kFile && record.type != InodeType::kCharDev &&
      record.type != InodeType::kSymlink) {
    return Status::Ok();
  }
  const std::string_view parent = record.path.substr(0, record.path.find_last_of('/'));
  if (!parent.empty()) {
    auto r = vfs.CreateDir(parent);
    if (!r.ok()) {
      return r.status();
    }
  }
  if (record.type == InodeType::kSymlink) {
    return vfs.CreateSymlink(record.path, record.payload);
  }
  auto r = record.type == InodeType::kFile
               ? vfs.CreateFile(record.path, std::string(record.payload), record.executable)
               : vfs.CreateDevice(record.path, record.dev);
  return r.ok() ? Status::Ok() : r.status();
}

}  // namespace

std::string FormatRootfs(const FsSpec& spec) {
  std::string out(kMagic, sizeof(kMagic));
  PutU32(out, static_cast<uint32_t>(spec.size()));
  for (const auto& [path, entry] : spec) {
    PutU32(out, static_cast<uint32_t>(path.size()));
    out += path;
    out.push_back(static_cast<char>(entry.type));
    out.push_back(static_cast<char>(entry.dev));
    out.push_back(entry.executable ? 1 : 0);
    const std::string& payload =
        entry.type == InodeType::kSymlink ? entry.symlink_target : entry.data;
    PutU32(out, static_cast<uint32_t>(payload.size()));
    out += payload;
  }
  return out;
}

Result<std::vector<RootfsRecord>> ReadRootfs(std::string_view blob) {
  if (blob.size() < sizeof(kMagic) || std::memcmp(blob.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status(Err::kInval, "bad rootfs magic (not a LUPX2FS image)");
  }
  size_t pos = sizeof(kMagic);
  uint32_t count = 0;
  if (!GetU32(blob, pos, count)) {
    return Status(Err::kInval, "truncated rootfs superblock");
  }
  std::vector<RootfsRecord> records;
  // The count is read from the image: reserve no more than its bytes hold.
  records.reserve(std::min<size_t>(count, (blob.size() - pos) / kMinRecordBytes));
  for (uint32_t i = 0; i < count; ++i) {
    RootfsRecord& record = records.emplace_back();
    uint32_t path_len = 0;
    if (!GetU32(blob, pos, path_len) || !GetBytes(blob, pos, path_len, record.path)) {
      return Status(Err::kInval, "truncated rootfs entry path");
    }
    if (pos + 3 > blob.size()) {
      return Status(Err::kInval, "truncated rootfs entry header");
    }
    record.type = static_cast<InodeType>(blob[pos++]);
    record.dev = static_cast<DevId>(blob[pos++]);
    record.executable = blob[pos++] != 0;
    uint32_t data_len = 0;
    if (!GetU32(blob, pos, data_len) || !GetBytes(blob, pos, data_len, record.payload)) {
      return Status(Err::kInval, "truncated rootfs entry data");
    }
  }
  // Ascending path order; a duplicated path's records sort by their place
  // in the blob, so the first one survives the dedup.
  std::sort(records.begin(), records.end(), [](const RootfsRecord& a, const RootfsRecord& b) {
    const int order = a.path.compare(b.path);
    return order != 0 ? order < 0 : a.path.data() < b.path.data();
  });
  records.erase(std::unique(records.begin(), records.end(),
                            [](const RootfsRecord& a, const RootfsRecord& b) {
                              return a.path == b.path;
                            }),
                records.end());
  return records;
}

Result<FsSpec> ParseRootfs(const std::string& blob) {
  auto records = ReadRootfs(blob);
  if (!records.ok()) {
    return records.status();
  }
  FsSpec spec;
  for (const RootfsRecord& record : records.value()) {
    FsEntry& entry = spec.emplace_hint(spec.end(), record.path, FsEntry{})->second;
    entry.type = record.type;
    entry.dev = record.dev;
    entry.executable = record.executable;
    (record.type == InodeType::kSymlink ? entry.symlink_target : entry.data) = record.payload;
  }
  return spec;
}

Status MountRootfs(std::span<const RootfsRecord> records, Vfs& vfs) {
  for (const RootfsRecord& record : records) {
    if (Status s = MountEntry(record, vfs); !s.ok()) {
      return s;
    }
  }
  return Status::Ok();
}

Status MountRootfs(const FsSpec& spec, Vfs& vfs) {
  for (const auto& [path, entry] : spec) {
    const std::string& payload =
        entry.type == InodeType::kSymlink ? entry.symlink_target : entry.data;
    if (Status s = MountEntry({path, entry.type, entry.dev, entry.executable, payload}, vfs);
        !s.ok()) {
      return s;
    }
  }
  return Status::Ok();
}

const MountedRootfs& RootfsImage::Mount(bool devtmpfs) const {
  MountedRootfs& mounted = mounted_[devtmpfs];
  std::call_once(once_[devtmpfs], [&] {
    // The whole image is validated before any inode is created; the mount
    // then reads the records in place.
    auto records = ReadRootfs(blob_);
    if (!records.ok()) {
      mounted.status = records.status();
      return;
    }
    mounted.records = records.value().size();
    Vfs vfs;
    mounted.status = MountRootfs(records.value(), vfs);
    if (mounted.status.ok() && devtmpfs) {
      (void)vfs.CreateDir("/dev");
      (void)vfs.CreateDevice("/dev/null", DevId::kNull);
      (void)vfs.CreateDevice("/dev/zero", DevId::kZero);
      (void)vfs.CreateDevice("/dev/urandom", DevId::kUrandom);
      (void)vfs.CreateDevice("/dev/console", DevId::kConsole);
    }
    mounted.tree = vfs.Publish();
  });
  return mounted;
}

}  // namespace lupine::guestos

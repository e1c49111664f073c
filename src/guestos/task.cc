#include "src/guestos/task.h"

namespace lupine::guestos {

Thread::Thread(int tid, Process* process, std::function<void()> entry)
    : tid_(tid), process_(process), fiber_(std::make_unique<Fiber>(std::move(entry))) {}

Process::Process(int pid, int ppid, std::shared_ptr<AddressSpace> aspace, std::string name)
    : pid_(pid), ppid_(ppid), aspace_(std::move(aspace)), name_(std::move(name)) {}

int Process::InstallFd(std::shared_ptr<FileDescription> file) {
  size_t fd = 3;
  while (fd < fds_.size() && fds_[fd] != nullptr) {
    ++fd;
  }
  if (fd >= fds_.size()) {
    fds_.resize(fd + 1);
  }
  fds_[fd] = std::move(file);
  return static_cast<int>(fd);
}

std::shared_ptr<FileDescription> Process::GetFd(int fd) const {
  if (fd < 0 || static_cast<size_t>(fd) >= fds_.size()) {
    return nullptr;
  }
  return fds_[fd];
}

bool Process::CloseFd(int fd) {
  if (fd < 0 || static_cast<size_t>(fd) >= fds_.size() || fds_[fd] == nullptr) {
    return false;
  }
  fds_[fd].reset();
  return true;
}

void Process::CloneFdTableFrom(const Process& parent) { fds_ = parent.fds_; }

std::vector<std::shared_ptr<FileDescription>> Process::TakeAllFds() {
  std::vector<std::shared_ptr<FileDescription>> files;
  for (auto& file : fds_) {
    if (file != nullptr) {
      files.push_back(std::move(file));
    }
  }
  fds_.clear();
  return files;
}

}  // namespace lupine::guestos

#include "src/guestos/syscall_api.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/kconfig/option_names.h"
#include "src/kconfig/resolver.h"
#include "tests/guestos/guest_fixture.h"

namespace lupine::guestos {
namespace {

namespace n = kconfig::names;
using testing::GuestFixture;

TEST(SyscallTest, GetppidReturnsParent) {
  GuestFixture guest;
  Result<int> ppid(0);
  guest.RunInGuest([&](SyscallApi& sys) { ppid = sys.Getppid(); });
  ASSERT_TRUE(ppid.ok());
  EXPECT_EQ(ppid.value(), 1);  // Spawned with ppid 1.
}

TEST(SyscallTest, SyscallsAdvanceVirtualTime) {
  GuestFixture guest;
  Nanos before = 0;
  Nanos after = 0;
  guest.RunInGuest([&](SyscallApi& sys) {
    before = guest.kernel->clock().now();
    for (int i = 0; i < 100; ++i) {
      (void)sys.Getppid();
    }
    after = guest.kernel->clock().now();
  });
  EXPECT_GT(after, before);
}

TEST(SyscallTest, EnosysWhenOptionCompiledOut) {
  GuestFixture guest(kconfig::LupineBase());  // No FUTEX/EPOLL/etc.
  guest.RunInGuest([&](SyscallApi& sys) {
    int word = 0;
    EXPECT_EQ(sys.FutexWait(&word, 0).err(), Err::kNoSys);
    EXPECT_EQ(sys.EpollCreate1().err(), Err::kNoSys);
    EXPECT_EQ(sys.EpollCtlDel(3, 4).err(), Err::kNoSys);
    EXPECT_EQ(sys.Eventfd().err(), Err::kNoSys);
    EXPECT_EQ(sys.Shmget(kMiB).err(), Err::kNoSys);
    EXPECT_EQ(sys.Flock(0).err(), Err::kNoSys);
  });
}

TEST(SyscallTest, SocketFamiliesGatedByConfig) {
  GuestFixture guest(kconfig::LupineBase());  // INET yes; UNIX/IPV6/PACKET no.
  guest.RunInGuest([&](SyscallApi& sys) {
    EXPECT_TRUE(sys.Socket(SockDomain::kInet, SockType::kStream).ok());
    EXPECT_EQ(sys.Socket(SockDomain::kUnix, SockType::kStream).err(), Err::kAfNoSupport);
    EXPECT_EQ(sys.Socket(SockDomain::kInet6, SockType::kStream).err(), Err::kAfNoSupport);
    EXPECT_EQ(sys.Socket(SockDomain::kPacket, SockType::kDgram).err(), Err::kAfNoSupport);
  });
}

TEST(SyscallTest, TmpfsMountGated) {
  GuestFixture base(kconfig::LupineBase());
  base.RunInGuest([&](SyscallApi& sys) {
    EXPECT_FALSE(sys.Mount("tmpfs", "/tmp2").ok());
  });
  GuestFixture general;  // lupine-general has TMPFS.
  general.RunInGuest([&](SyscallApi& sys) {
    EXPECT_TRUE(sys.Mount("tmpfs", "/tmp2").ok());
  });
}

TEST(SyscallTest, DevZeroAndDevNull) {
  GuestFixture guest;
  guest.RunInGuest([&](SyscallApi& sys) {
    auto zero = sys.Open("/dev/zero");
    ASSERT_TRUE(zero.ok());
    auto data = sys.Read(zero.value(), 16);
    ASSERT_TRUE(data.ok());
    EXPECT_EQ(data.value(), std::string(16, '\0'));
    (void)sys.Close(zero.value());

    auto null = sys.Open("/dev/null");
    ASSERT_TRUE(null.ok());
    auto written = sys.Write(null.value(), "discarded");
    ASSERT_TRUE(written.ok());
    EXPECT_EQ(written.value(), 9u);
    auto eof = sys.Read(null.value(), 16);
    ASSERT_TRUE(eof.ok());
    EXPECT_TRUE(eof.value().empty());
  });
}

TEST(SyscallTest, StdoutGoesToConsole) {
  GuestFixture guest;
  guest.RunInGuest([&](SyscallApi& sys) { (void)sys.Write(1, "to the console\n"); });
  EXPECT_TRUE(guest.kernel->console().Contains("to the console"));
}

TEST(SyscallTest, FileReadWriteRoundTrip) {
  GuestFixture guest;
  guest.RunInGuest([&](SyscallApi& sys) {
    auto fd = sys.Open("/tmp/data", /*create=*/true);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(sys.Write(fd.value(), "content").ok());
    (void)sys.Close(fd.value());
    auto rfd = sys.Open("/tmp/data");
    ASSERT_TRUE(rfd.ok());
    auto data = sys.Read(rfd.value(), 100);
    ASSERT_TRUE(data.ok());
    EXPECT_EQ(data.value(), "content");
  });
}

TEST(SyscallTest, ForkRunsChildAndWaitReapsIt) {
  GuestFixture guest;
  guest.RunInGuest([&](SyscallApi& sys) {
    auto pid = sys.Fork([](SyscallApi& child) -> int {
      (void)child.Write(1, "child ran\n");
      return 42;
    });
    ASSERT_TRUE(pid.ok());
    EXPECT_GT(pid.value(), 0);
    auto code = sys.Wait4(pid.value());
    ASSERT_TRUE(code.ok());
    EXPECT_EQ(code.value(), 42);
    // Reaping twice is ECHILD.
    EXPECT_EQ(sys.Wait4(pid.value()).err(), Err::kChild);
  });
  EXPECT_TRUE(guest.kernel->console().Contains("child ran"));
}

TEST(SyscallTest, WaitAnyChild) {
  GuestFixture guest;
  guest.RunInGuest([&](SyscallApi& sys) {
    (void)sys.Fork([](SyscallApi&) -> int { return 1; });
    (void)sys.Fork([](SyscallApi&) -> int { return 2; });
    auto a = sys.Wait4(-1);
    auto b = sys.Wait4(-1);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.value() + b.value(), 3);
    EXPECT_EQ(sys.Wait4(-1).err(), Err::kChild);
  });
}

TEST(SyscallTest, PipesCarryDataBetweenProcesses) {
  GuestFixture guest;
  std::string got;
  guest.RunInGuest([&](SyscallApi& sys) {
    auto pipe_fds = sys.Pipe();
    ASSERT_TRUE(pipe_fds.ok());
    auto [rfd, wfd] = pipe_fds.value();
    (void)sys.Fork([wfd](SyscallApi& child) -> int {
      (void)child.Write(wfd, "via pipe");
      return 0;
    });
    auto data = sys.Read(rfd, 64);
    ASSERT_TRUE(data.ok());
    got = data.value();
  });
  EXPECT_EQ(got, "via pipe");
}

TEST(SyscallTest, EpollWaitReturnsReadySocket) {
  GuestFixture guest;
  guest.RunInGuest([&](SyscallApi& sys) {
    auto listener = sys.Socket(SockDomain::kInet, SockType::kStream);
    ASSERT_TRUE(listener.ok());
    ASSERT_TRUE(sys.Bind(listener.value(), 1234, "").ok());
    ASSERT_TRUE(sys.Listen(listener.value(), 8).ok());
    auto ep = sys.EpollCreate1();
    ASSERT_TRUE(ep.ok());
    ASSERT_TRUE(sys.EpollCtlAdd(ep.value(), listener.value()).ok());

    (void)sys.Fork([](SyscallApi& child) -> int {
      auto fd = child.Socket(SockDomain::kInet, SockType::kStream);
      if (!fd.ok()) {
        return 1;
      }
      (void)child.Connect(fd.value(), 1234, "");
      return 0;
    });

    auto ready = sys.EpollWait(ep.value(), 8);
    ASSERT_TRUE(ready.ok());
    ASSERT_EQ(ready.value().size(), 1u);
    EXPECT_EQ(ready.value()[0], listener.value());
  });
}

TEST(SyscallTest, ExecveReplacesImage) {
  GuestFixture guest;
  guest.RunInGuest([&](SyscallApi& sys) {
    auto pid = sys.Fork([](SyscallApi& child) -> int {
      (void)child.Execve("/bin/hello", {"/bin/hello"});
      return 126;  // Only on failure.
    });
    ASSERT_TRUE(pid.ok());
    auto code = sys.Wait4(pid.value());
    ASSERT_TRUE(code.ok());
    EXPECT_EQ(code.value(), 0);
  });
  EXPECT_TRUE(guest.kernel->console().Contains("hello world"));
}

TEST(SyscallTest, ExecveMissingBinaryFails) {
  GuestFixture guest;
  guest.RunInGuest([&](SyscallApi& sys) {
    Status s = sys.Execve("/bin/nonexistent", {});
    EXPECT_EQ(s.err(), Err::kNoEnt);
  });
}

TEST(SyscallTest, BrkAndTouchHeapAllocate) {
  GuestFixture guest;
  guest.RunInGuest([&](SyscallApi& sys) {
    Bytes before = guest.kernel->mm().used();
    ASSERT_TRUE(sys.BrkGrow(MiB(1)).ok());
    ASSERT_TRUE(sys.TouchHeap(0, MiB(1)).ok());
    EXPECT_GE(guest.kernel->mm().used(), before + MiB(1));
  });
}

TEST(SyscallTest, UnameReportsKmlFlavour) {
  kconfig::Config config = kconfig::LupineGeneral();
  ASSERT_TRUE(kconfig::ApplyKml(config).ok());
  GuestFixture guest(config);
  std::string uname;
  guest.RunInGuest([&](SyscallApi& sys) { uname = sys.Uname().take(); });
  EXPECT_NE(uname.find("-kml"), std::string::npos);
}

// --- Transition pricing --------------------------------------------------------

Nanos NullSyscallCost(const kconfig::Config& config, bool kml_process = true) {
  GuestFixture guest(config);
  Nanos elapsed = 0;
  workload::SpawnOptions options;
  options.kml_libc = kml_process;
  guest.RunInGuest(
      [&](SyscallApi& sys) {
        Nanos t0 = guest.kernel->clock().now();
        for (int i = 0; i < 1000; ++i) {
          (void)sys.Getppid();
        }
        elapsed = guest.kernel->clock().now() - t0;
      },
      options);
  return elapsed / 1000;
}

TEST(SyscallTest, KmlEliminatesTransitionCost) {
  kconfig::Config nokml = kconfig::LupineGeneral();
  kconfig::Config kml = kconfig::LupineGeneral();
  ASSERT_TRUE(kconfig::ApplyKml(kml).ok());
  Nanos cost_nokml = NullSyscallCost(nokml);
  Nanos cost_kml = NullSyscallCost(kml);
  // ~40% improvement on the null syscall (Section 4.5).
  double improvement = 1.0 - static_cast<double>(cost_kml) / cost_nokml;
  EXPECT_GT(improvement, 0.30);
  EXPECT_LT(improvement, 0.50);
}

TEST(SyscallTest, UnpatchedLibcGetsNoKmlBenefit) {
  kconfig::Config kml = kconfig::LupineGeneral();
  ASSERT_TRUE(kconfig::ApplyKml(kml).ok());
  Nanos patched = NullSyscallCost(kml, /*kml_process=*/true);
  Nanos unpatched = NullSyscallCost(kml, /*kml_process=*/false);
  EXPECT_GT(unpatched, patched);
}

TEST(SyscallTest, KptiMakesSyscallsDramaticallySlower) {
  kconfig::Config plain = kconfig::LupineGeneral();
  kconfig::Config kpti = kconfig::LupineGeneral();
  kconfig::Resolver resolver(kconfig::OptionDb::Linux40());
  ASSERT_TRUE(resolver.Enable(kpti, n::kKpti).ok());
  Nanos cost_plain = NullSyscallCost(plain);
  Nanos cost_kpti = NullSyscallCost(kpti);
  // "we measured a 10x slowdown in system call latency" (Section 3.1.2):
  // the transition itself is 10x; the whole null call lands well above 3x.
  EXPECT_GT(cost_kpti, cost_plain * 3);
}

TEST(SyscallTest, MicrovmSyscallsSlowerThanLupine) {
  Nanos microvm = NullSyscallCost(kconfig::MicrovmConfig(), /*kml_process=*/false);
  Nanos lupine = NullSyscallCost(kconfig::LupineGeneral(), /*kml_process=*/false);
  EXPECT_GT(microvm, lupine);
}

// --- Table 1 syscalls no other test calls ----------------------------------

// The virtual time `call` charges the calling guest process.
template <typename Call>
Nanos ChargeOf(Kernel& kernel, Call&& call) {
  const Nanos before = kernel.clock().now();
  EXPECT_TRUE(call().ok());
  return kernel.clock().now() - before;
}

TEST(SyscallTest, AdviseAndSysvIpcAreGatedByTheirOptions) {
  const kconfig::Config base = kconfig::LupineBase();
  ASSERT_FALSE(base.IsEnabled(n::kAdviseSyscalls));
  ASSERT_FALSE(base.IsEnabled(n::kSysvipc));
  GuestFixture without(base);
  without.RunInGuest([&](SyscallApi& sys) {
    EXPECT_EQ(sys.Fadvise(0).err(), Err::kNoSys);
    EXPECT_EQ(sys.Shmat(0).err(), Err::kNoSys);
    EXPECT_EQ(sys.Semget().err(), Err::kNoSys);
    EXPECT_EQ(sys.Semop().err(), Err::kNoSys);
  });
  ASSERT_TRUE(kconfig::LupineGeneral().IsEnabled(n::kAdviseSyscalls));
  ASSERT_TRUE(kconfig::LupineGeneral().IsEnabled(n::kSysvipc));
  GuestFixture with;
  Kernel& k = *with.kernel;
  with.RunInGuest([&](SyscallApi& sys) {
    EXPECT_GT(ChargeOf(k, [&] { return sys.Fadvise(0); }), 0);
    EXPECT_GT(ChargeOf(k, [&] { return sys.Shmat(0); }), 0);
    EXPECT_GT(ChargeOf(k, [&] { return sys.Semget(); }), 0);
    EXPECT_GT(ChargeOf(k, [&] { return sys.Semop(); }), 0);
  });
}

TEST(SyscallTest, ShmatOutsideAProcessIsInval) {
  GuestFixture guest;
  Status s = guest.kernel->sys().Shmat(0);
  EXPECT_EQ(s.err(), Err::kInval);
  EXPECT_EQ(s.message(), "shmat outside any process");
}

TEST(SyscallTest, PollChargeGrowsWithTheFdCount) {
  // Poll has no gating option: lupine-base serves it too.
  GuestFixture guest(kconfig::LupineBase());
  Kernel& k = *guest.kernel;
  Nanos none = 0, one = 0, many = 0;
  guest.RunInGuest([&](SyscallApi& sys) {
    none = ChargeOf(k, [&] { return sys.Poll({}); });
    one = ChargeOf(k, [&] { return sys.Poll({3}); });
    many = ChargeOf(k, [&] { return sys.Poll(std::vector<int>(64, 3)); });
  });
  EXPECT_GT(none, 0);
  EXPECT_GT(one, none);
  EXPECT_GT(many, one);
}

TEST(SyscallTest, SetsockoptChargesOnAnOpenFdAndRejectsABadOne) {
  // Setsockopt has no gating option: lupine-base serves it too.
  GuestFixture guest(kconfig::LupineBase());
  Kernel& k = *guest.kernel;
  guest.RunInGuest([&](SyscallApi& sys) {
    auto sock = sys.Socket(SockDomain::kInet, SockType::kStream);
    ASSERT_TRUE(sock.ok()) << sock.status().ToString();
    EXPECT_GT(ChargeOf(k, [&] { return sys.Setsockopt(sock.value()); }), 0);
    Status bad = sys.Setsockopt(999);
    EXPECT_EQ(bad.err(), Err::kBadF);
    EXPECT_EQ(bad.message(), "bad file descriptor 999");
  });
}

}  // namespace
}  // namespace lupine::guestos

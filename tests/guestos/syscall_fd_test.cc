// Syscall-layer edge cases: epoll timeouts and interest-list semantics,
// eventfd semantics, dup sharing, lowest-free fd numbers, fd-factory
// teardown, bad descriptors.
#include <gtest/gtest.h>

#include "src/kconfig/option_names.h"
#include "src/kconfig/resolver.h"
#include "tests/guestos/guest_fixture.h"

namespace lupine::guestos {
namespace {

using testing::GuestFixture;

TEST(SyscallFdTest, EpollWaitTimesOutEmptyHanded) {
  GuestFixture guest;
  guest.RunInGuest([&](SyscallApi& sys) {
    auto ep = sys.EpollCreate1();
    ASSERT_TRUE(ep.ok());
    Nanos before = guest.kernel->clock().now();
    auto ready = sys.EpollWait(ep.value(), 8, Millis(5));
    ASSERT_TRUE(ready.ok());
    EXPECT_TRUE(ready.value().empty());
    EXPECT_GE(guest.kernel->clock().now() - before, Millis(5));
  });
}

TEST(SyscallFdTest, EpollSeesEventfdAndPipe) {
  GuestFixture guest;
  guest.RunInGuest([&](SyscallApi& sys) {
    auto ep = sys.EpollCreate1();
    auto efd = sys.Eventfd();
    auto pipe_fds = sys.Pipe();
    ASSERT_TRUE(ep.ok());
    ASSERT_TRUE(efd.ok());
    ASSERT_TRUE(pipe_fds.ok());
    (void)sys.EpollCtlAdd(ep.value(), efd.value());
    (void)sys.EpollCtlAdd(ep.value(), pipe_fds.value().first);

    // Nothing ready yet.
    auto ready = sys.EpollWait(ep.value(), 8, Micros(100));
    ASSERT_TRUE(ready.ok());
    EXPECT_TRUE(ready.value().empty());

    // Signal the eventfd and fill the pipe.
    (void)sys.Write(efd.value(), "x");
    (void)sys.Write(pipe_fds.value().second, "y");
    ready = sys.EpollWait(ep.value(), 8, Micros(100));
    ASSERT_TRUE(ready.ok());
    EXPECT_EQ(ready.value().size(), 2u);
  });
}

// A server that never calls EPOLL_CTL_DEL must not keep every connection it
// ever watched: an entry goes with its description's last close.
TEST(SyscallFdTest, ClosedFdsLeaveTheInterestList) {
  GuestFixture guest;
  guest.RunInGuest([&](SyscallApi& sys) {
    auto ep = sys.EpollCreate1();
    auto live = sys.Eventfd();
    ASSERT_TRUE(ep.ok());
    ASSERT_TRUE(live.ok());
    ASSERT_TRUE(sys.EpollCtlAdd(ep.value(), live.value()).ok());
    for (int i = 0; i < 1000; ++i) {
      auto fd = sys.Eventfd();
      ASSERT_TRUE(fd.ok());
      ASSERT_TRUE(sys.EpollCtlAdd(ep.value(), fd.value()).ok());
      ASSERT_TRUE(sys.Close(fd.value()).ok());
    }
    (void)sys.Write(live.value(), "x");
    auto ready = sys.EpollWait(ep.value(), 8, Micros(100));
    ASSERT_TRUE(ready.ok());
    EXPECT_EQ(ready.value(), std::vector<int>{live.value()});
    const auto& watched = sys.CurrentProcess()->GetFd(ep.value())->epoll->watched_fds;
    EXPECT_EQ(watched.size(), 1u);
    EXPECT_EQ(watched.count(live.value()), 1u);
  });
}

TEST(SyscallFdTest, NewFdsTakeTheLowestFreeNumber) {
  GuestFixture guest;
  guest.RunInGuest([&](SyscallApi& sys) {
    auto listener = sys.Socket(SockDomain::kInet, SockType::kStream);
    auto client = sys.Socket(SockDomain::kInet, SockType::kStream);
    auto a = sys.Open("/etc/hostname");
    auto b = sys.Open("/etc/hostname");
    ASSERT_TRUE(listener.ok());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(listener.value(), 3);  // 0-2 are the console's stdio.
    ASSERT_TRUE(sys.Bind(listener.value(), 1234, "").ok());
    ASSERT_TRUE(sys.Listen(listener.value(), 8).ok());

    ASSERT_TRUE(sys.Close(a.value()).ok());
    auto opened = sys.Open("/etc/hostname");
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ(opened.value(), a.value());

    ASSERT_TRUE(sys.Close(a.value()).ok());
    auto dup = sys.Dup(b.value());
    ASSERT_TRUE(dup.ok());
    EXPECT_EQ(dup.value(), a.value());

    ASSERT_TRUE(sys.Close(a.value()).ok());
    ASSERT_TRUE(sys.Connect(client.value(), 1234, "").ok());
    auto accepted = sys.Accept(listener.value());
    ASSERT_TRUE(accepted.ok());
    EXPECT_EQ(accepted.value(), a.value());
  });
}

// An entry follows the description it was registered with, not the number:
// a dup keeps it alive under the registered fd, and a number handed out
// again after the last close is not watched until it is added again.
TEST(SyscallFdTest, EpollEntryFollowsTheDescription) {
  GuestFixture guest;
  guest.RunInGuest([&](SyscallApi& sys) {
    auto ep = sys.EpollCreate1();
    auto registered = sys.Eventfd();
    ASSERT_TRUE(ep.ok());
    ASSERT_TRUE(registered.ok());
    const int fd = registered.value();
    ASSERT_TRUE(sys.EpollCtlAdd(ep.value(), fd).ok());
    auto dup = sys.Dup(fd);
    ASSERT_TRUE(dup.ok());
    ASSERT_TRUE(sys.Close(fd).ok());
    (void)sys.Write(dup.value(), "x");
    auto ready = sys.EpollWait(ep.value(), 8, Micros(100));
    ASSERT_TRUE(ready.ok());
    EXPECT_EQ(ready.value(), std::vector<int>{fd});

    ASSERT_TRUE(sys.Close(dup.value()).ok());
    auto reused = sys.Eventfd(/*initial=*/1);  // Readable from the start.
    ASSERT_TRUE(reused.ok());
    ASSERT_EQ(reused.value(), fd);
    ready = sys.EpollWait(ep.value(), 8, Micros(100));
    ASSERT_TRUE(ready.ok());
    EXPECT_TRUE(ready.value().empty());

    ASSERT_TRUE(sys.EpollCtlAdd(ep.value(), fd).ok());
    ready = sys.EpollWait(ep.value(), 8, Micros(100));
    ASSERT_TRUE(ready.ok());
    EXPECT_EQ(ready.value(), std::vector<int>{fd});
  });
}

TEST(SyscallFdTest, EpollCtlDelAndLinuxErrors) {
  GuestFixture guest;
  guest.RunInGuest([&](SyscallApi& sys) {
    auto ep = sys.EpollCreate1();
    auto pair = sys.SocketPair(SockType::kStream);
    ASSERT_TRUE(ep.ok());
    ASSERT_TRUE(pair.ok());
    auto [a, b] = pair.value();
    auto dup = sys.Dup(a);
    ASSERT_TRUE(dup.ok());
    const auto& watchers = sys.CurrentProcess()->GetFd(a)->socket->watchers;

    EXPECT_EQ(sys.EpollCtlDel(ep.value(), a).err(), Err::kNoEnt);
    ASSERT_TRUE(sys.EpollCtlAdd(ep.value(), a).ok());
    EXPECT_EQ(sys.EpollCtlAdd(ep.value(), a).err(), Err::kExist);
    ASSERT_TRUE(sys.EpollCtlAdd(ep.value(), dup.value()).ok());
    EXPECT_EQ(watchers.size(), 1u);

    // The dup's entry still watches the socket.
    ASSERT_TRUE(sys.EpollCtlDel(ep.value(), a).ok());
    EXPECT_EQ(watchers.size(), 1u);
    EXPECT_EQ(sys.EpollCtlDel(ep.value(), a).err(), Err::kNoEnt);
    ASSERT_TRUE(sys.EpollCtlDel(ep.value(), dup.value()).ok());
    EXPECT_TRUE(watchers.empty());

    // A deleted socket is not reported.
    ASSERT_TRUE(sys.Send(b, "x").ok());
    auto ready = sys.EpollWait(ep.value(), 8, Micros(100));
    ASSERT_TRUE(ready.ok());
    EXPECT_TRUE(ready.value().empty());
    EXPECT_EQ(sys.EpollCtlDel(ep.value(), 99).err(), Err::kBadF);
  });
}

TEST(SyscallFdTest, EventfdReadResetsCounter) {
  GuestFixture guest;
  guest.RunInGuest([&](SyscallApi& sys) {
    auto efd = sys.Eventfd(/*initial=*/1);
    ASSERT_TRUE(efd.ok());
    auto first = sys.Read(efd.value(), 8);
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first.value().size(), 8u);
    auto second = sys.Read(efd.value(), 8);
    EXPECT_EQ(second.err(), Err::kAgain);
  });
}

TEST(SyscallFdTest, DupSharesOffset) {
  GuestFixture guest;
  guest.RunInGuest([&](SyscallApi& sys) {
    auto fd = sys.Open("/tmp/shared", /*create=*/true);
    ASSERT_TRUE(fd.ok());
    (void)sys.Write(fd.value(), "abcdef");
    auto dup = sys.Dup(fd.value());
    ASSERT_TRUE(dup.ok());
    // Both descriptors share one description: the offset is common.
    auto via_dup = sys.Read(dup.value(), 16);
    ASSERT_TRUE(via_dup.ok());
    EXPECT_TRUE(via_dup.value().empty());  // Offset at EOF after the write.
  });
}

TEST(SyscallFdTest, BadFdErrors) {
  GuestFixture guest;
  guest.RunInGuest([&](SyscallApi& sys) {
    EXPECT_EQ(sys.Read(99, 10).err(), Err::kBadF);
    EXPECT_EQ(sys.Write(99, "x").err(), Err::kBadF);
    EXPECT_EQ(sys.Close(99).err(), Err::kBadF);
    EXPECT_EQ(sys.Send(99, "x").err(), Err::kBadF);
    EXPECT_EQ(sys.EpollCtlAdd(99, 98).err(), Err::kBadF);
  });
}

TEST(SyscallFdTest, SocketOpsOnNonSocketRejected) {
  GuestFixture guest;
  guest.RunInGuest([&](SyscallApi& sys) {
    auto fd = sys.Open("/etc/hostname");
    ASSERT_TRUE(fd.ok());
    EXPECT_EQ(sys.Bind(fd.value(), 80, "").err(), Err::kNotSock);
    EXPECT_EQ(sys.Listen(fd.value(), 4).err(), Err::kNotSock);
    EXPECT_EQ(sys.Accept(fd.value()).err(), Err::kNotSock);
    EXPECT_EQ(sys.Connect(fd.value(), 80, "").err(), Err::kNotSock);
  });
}

TEST(SyscallFdTest, SocketPairCarriesData) {
  GuestFixture guest;
  guest.RunInGuest([&](SyscallApi& sys) {
    auto pair = sys.SocketPair(SockType::kStream);
    ASSERT_TRUE(pair.ok());
    ASSERT_TRUE(sys.Send(pair.value().first, "ping").ok());
    auto got = sys.Recv(pair.value().second, 16);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), "ping");
  });
}

TEST(SyscallFdTest, SignalfdAndTimerfdCreateCloseable) {
  GuestFixture guest;
  guest.RunInGuest([&](SyscallApi& sys) {
    auto sfd = sys.Signalfd();
    auto tfd = sys.TimerfdCreate();
    ASSERT_TRUE(sfd.ok());
    ASSERT_TRUE(tfd.ok());
    EXPECT_TRUE(sys.Close(sfd.value()).ok());
    EXPECT_TRUE(sys.Close(tfd.value()).ok());
  });
}

TEST(SyscallFdTest, ClosingSocketMidRecvWakesPeer) {
  GuestFixture guest;
  std::string got = "unset";
  guest.RunInGuest([&](SyscallApi& sys) {
    auto pair = sys.SocketPair(SockType::kStream);
    ASSERT_TRUE(pair.ok());
    auto [a, b] = pair.value();
    (void)sys.Fork([a](SyscallApi& child) -> int {
      child.Nanosleep(Millis(1));
      (void)child.Close(a);
      return 0;
    });
    auto data = sys.Recv(b, 16);  // Blocks until the child closes.
    ASSERT_TRUE(data.ok());
    got = data.value();
  });
  EXPECT_EQ(got, "");  // EOF.
}

TEST(SyscallFdTest, MqOpenGatedAndUsable) {
  GuestFixture base(kconfig::LupineBase());
  base.RunInGuest([&](SyscallApi& sys) {
    EXPECT_EQ(sys.MqOpen("/q").err(), Err::kNoSys);
  });
  kconfig::Config with = kconfig::LupineBase();
  kconfig::Resolver resolver(kconfig::OptionDb::Linux40());
  ASSERT_TRUE(resolver.Enable(with, kconfig::names::kPosixMqueue).ok());
  GuestFixture guest(with);
  guest.RunInGuest([&](SyscallApi& sys) {
    auto fd = sys.MqOpen("/q");
    ASSERT_TRUE(fd.ok());
    EXPECT_TRUE(sys.Close(fd.value()).ok());
  });
}

}  // namespace
}  // namespace lupine::guestos

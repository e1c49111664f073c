// Loopback sockets (AF_INET/AF_INET6 TCP, AF_UNIX), pipes and epoll.
//
// Server applications (the nginx- and redis-like models) and their load
// generators run inside the same guest and talk over this loopback stack,
// matching the paper's methodology of running clients on the same physical
// machine "to avoid uncontrolled network effects" (Section 4.6). Packet
// traversal costs are charged by the syscall layer.
#ifndef SRC_GUESTOS_NET_H_
#define SRC_GUESTOS_NET_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/guestos/sched.h"
#include "src/util/fault.h"
#include "src/util/result.h"

namespace lupine::guestos {

enum class SockDomain { kInet, kInet6, kUnix, kPacket };
enum class SockType { kStream, kDgram };
enum class SockState { kCreated, kBound, kListening, kConnected, kClosed };

class FileDescription;

// An epoll instance. Its interest list maps each registered fd, in ascending
// order, to the description it was registered with. As on Linux, an entry
// lives until that description's last close, so after dup/fork it keeps
// reporting the registered number; epoll_wait drops entries whose
// description is gone.
struct EpollInstance {
  explicit EpollInstance(Scheduler* sched) : wq(sched) {}
  WaitQueue wq;
  std::map<int, std::weak_ptr<FileDescription>> watched_fds;
};

class Socket {
 public:
  Socket(Scheduler* sched, SockDomain domain, SockType type)
      : domain(domain), type(type), read_wq(sched), accept_wq(sched), peer_close_wq(sched) {}

  SockDomain domain;
  SockType type;
  SockState state = SockState::kCreated;
  uint16_t port = 0;
  std::string unix_path;

  std::deque<std::shared_ptr<Socket>> accept_queue;
  int backlog = 0;

  std::string rx;                      // Stream receive buffer.
  std::deque<std::string> rx_dgrams;   // Datagram receive queue.
  // Packets queued by a free-running (external-client) sender whose receive
  // processing cost is charged when this side reads them.
  uint32_t uncharged_rx_packets = 0;
  std::weak_ptr<Socket> peer;
  bool peer_closed = false;

  WaitQueue read_wq;
  WaitQueue accept_wq;
  WaitQueue peer_close_wq;

  // Epoll instances watching this socket (weak: instance may be closed).
  std::vector<std::weak_ptr<EpollInstance>> watchers;

  bool Readable() const {
    if (state == SockState::kListening) {
      return !accept_queue.empty();
    }
    return !rx.empty() || !rx_dgrams.empty() || peer_closed;
  }

  void NotifyWatchers();
};

// The guest's network namespace: listener tables + data movement.
class NetStack {
 public:
  explicit NetStack(Scheduler* sched) : sched_(sched) {}

  std::shared_ptr<Socket> Create(SockDomain domain, SockType type);

  Status Bind(const std::shared_ptr<Socket>& sock, uint16_t port, const std::string& unix_path);
  Status Listen(const std::shared_ptr<Socket>& sock, int backlog);

  // Connects to a loopback listener; returns the connected client socket
  // state (the passed socket becomes connected) or ECONNREFUSED.
  Status Connect(const std::shared_ptr<Socket>& sock, uint16_t port,
                 const std::string& unix_path);

  // Blocks until a connection is pending, then returns the server-side
  // socket of the new connection.
  Result<std::shared_ptr<Socket>> Accept(const std::shared_ptr<Socket>& listener);

  // Stream send/recv. Send never blocks (unbounded loopback buffer); recv
  // blocks until data or peer close (returns empty string on orderly close).
  Status Send(const std::shared_ptr<Socket>& sock, const std::string& data);
  Result<std::string> Recv(const std::shared_ptr<Socket>& sock, size_t max_bytes);

  // Datagram variants (UNIX dgram pairs).
  Status SendDgram(const std::shared_ptr<Socket>& sock, const std::string& data);
  Result<std::string> RecvDgram(const std::shared_ptr<Socket>& sock);

  void Close(const std::shared_ptr<Socket>& sock);

  // Creates a connected AF_UNIX socket pair (socketpair(2)).
  std::pair<std::shared_ptr<Socket>, std::shared_ptr<Socket>> CreatePair(SockType type);

  // Non-owning. kNetRecvReset makes Recv fail with ECONNRESET; kNetSendDrop
  // models a dropped packet as one TCP retransmission timeout on Send.
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }

  // Linux's initial TCP retransmission timeout (RTO) of 200 ms: the latency
  // a lost loopback packet costs the sender before the retransmit lands.
  static constexpr Nanos kRetransmitDelay = Millis(200);

 private:
  Scheduler* sched_;
  FaultInjector* faults_ = nullptr;
  std::map<uint16_t, std::shared_ptr<Socket>> inet_listeners_;
  std::map<std::string, std::shared_ptr<Socket>> unix_listeners_;
};

struct PipeBuffer {
  explicit PipeBuffer(Scheduler* sched) : read_wq(sched), write_wq(sched) {}
  std::string data;
  bool write_closed = false;
  bool read_closed = false;
  WaitQueue read_wq;
  WaitQueue write_wq;
  static constexpr size_t kCapacity = 64 * 1024;
};

}  // namespace lupine::guestos

#endif  // SRC_GUESTOS_NET_H_

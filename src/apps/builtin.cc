#include "src/apps/builtin.h"

#include <map>
#include <mutex>
#include <sstream>

#include "src/apps/init_script.h"
#include "src/apps/manifest.h"
#include "src/apps/probes.h"
#include "src/guestos/syscall_api.h"

namespace lupine::apps {
namespace {

using guestos::SockDomain;
using guestos::SockType;
using guestos::SyscallApi;

// Shared startup: probes, heap warm-up, binary-proportional init work.
bool CommonStartup(SyscallApi& sys, const AppManifest& m) {
  if (!RunStartupProbes(sys, m.required_options)) {
    return false;
  }
  // Initialization CPU roughly proportional to code size.
  sys.Compute(static_cast<Nanos>(m.text_kb) * 400);
  // Touch the startup working set (demand paging).
  if (Status s = sys.BrkGrow(m.startup_heap_kb * kKiB); !s.ok()) {
    (void)sys.Write(2, "out of memory during startup\n");
    return false;
  }
  if (Status s = sys.TouchHeap(0, m.startup_heap_kb * kKiB); !s.ok()) {
    (void)sys.Write(2, "out of memory during startup\n");
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// hello-world
// ---------------------------------------------------------------------------

int HelloMain(SyscallApi& sys, const std::vector<std::string>& argv) {
  (void)argv;
  (void)sys.Write(1, "Hello from Docker!\n");
  (void)sys.Write(1, "hello world\n");
  return 0;
}

// ---------------------------------------------------------------------------
// redis: epoll server speaking a line-oriented GET/SET/PING/DEL protocol.
// ---------------------------------------------------------------------------

int RedisMain(SyscallApi& sys, const std::vector<std::string>& argv) {
  (void)argv;
  const AppManifest* m = FindManifest("redis");
  if (!CommonStartup(sys, *m)) {
    return 1;
  }

  auto listen_fd = sys.Socket(SockDomain::kInet, SockType::kStream);
  if (!listen_fd.ok()) {
    (void)sys.Write(2, "redis: could not create server TCP listening socket: " +
                       listen_fd.status().ToString() + "\n");
    return 1;
  }
  if (Status s = sys.Bind(listen_fd.value(), m->listen_port, ""); !s.ok()) {
    (void)sys.Write(2, "redis: bind: " + s.ToString() + "\n");
    return 1;
  }
  (void)sys.Listen(listen_fd.value(), 511);
  auto ep = sys.EpollCreate1();
  if (!ep.ok()) {
    (void)sys.Write(2, "epoll_create1 failed: function not implemented\n");
    return 1;
  }
  (void)sys.EpollCtlAdd(ep.value(), listen_fd.value());
  (void)sys.Write(1, "* Ready to accept connections\n");

  std::map<std::string, std::string> store;
  Bytes heap_high_water = m->startup_heap_kb * kKiB;
  Bytes store_bytes = 0;

  for (;;) {
    auto ready = sys.EpollWait(ep.value(), 16);
    if (!ready.ok()) {
      return 1;
    }
    for (int fd : ready.value()) {
      if (fd == listen_fd.value()) {
        auto conn = sys.Accept(fd);
        if (conn.ok()) {
          (void)sys.EpollCtlAdd(ep.value(), conn.value());
        }
        continue;
      }
      auto data = sys.Recv(fd, 16 * 1024);
      if (!data.ok() || data.value().empty()) {
        (void)sys.Close(fd);
        continue;
      }
      std::istringstream in(data.value());
      std::string line;
      std::string reply;
      while (std::getline(in, line)) {
        if (!line.empty() && line.back() == '\r') {
          line.pop_back();
        }
        if (line.empty()) {
          continue;
        }
        sys.Compute(kRedisRequestCpu);
        std::istringstream cmd(line);
        std::string op, key, value;
        cmd >> op >> key;
        std::getline(cmd, value);
        if (!value.empty() && value.front() == ' ') {
          value.erase(0, 1);
        }
        if (op == "PING") {
          reply += "+PONG\r\n";
        } else if (op == "SET") {
          store[key] = value;
          Bytes new_bytes = key.size() + value.size() + 64;
          store_bytes += new_bytes;
          // Grow and touch the heap as the dataset grows.
          if (store_bytes > heap_high_water) {
            Bytes grow = 256 * kKiB;
            if (sys.BrkGrow(grow).ok()) {
              (void)sys.TouchHeap(heap_high_water, grow);
              heap_high_water += grow;
            }
          }
          reply += "+OK\r\n";
        } else if (op == "GET") {
          auto it = store.find(key);
          if (it == store.end()) {
            reply += "$-1\r\n";
          } else {
            reply += '$';
            reply += std::to_string(it->second.size());
            reply += "\r\n";
            reply += it->second;
            reply += "\r\n";
          }
        } else if (op == "SHUTDOWN") {
          (void)sys.Write(1, "# User requested shutdown...\n");
          return 0;
        } else {
          reply += "-ERR unknown command '" + op + "'\r\n";
        }
      }
      if (!reply.empty()) {
        (void)sys.Send(fd, reply);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// nginx: epoll HTTP server with keep-alive support.
// ---------------------------------------------------------------------------

int NginxMain(SyscallApi& sys, const std::vector<std::string>& argv) {
  (void)argv;
  const AppManifest* m = FindManifest("nginx");
  if (!CommonStartup(sys, *m)) {
    return 1;
  }

  auto listen_fd = sys.Socket(SockDomain::kInet, SockType::kStream);
  if (!listen_fd.ok()) {
    (void)sys.Write(2, "nginx: socket() failed: " + listen_fd.status().ToString() + "\n");
    return 1;
  }
  if (Status s = sys.Bind(listen_fd.value(), m->listen_port, ""); !s.ok()) {
    (void)sys.Write(2, "nginx: bind() failed: " + s.ToString() + "\n");
    return 1;
  }
  (void)sys.Listen(listen_fd.value(), 511);
  auto ep = sys.EpollCreate1();
  if (!ep.ok()) {
    (void)sys.Write(2, "epoll_create1 failed: function not implemented\n");
    return 1;
  }
  (void)sys.EpollCtlAdd(ep.value(), listen_fd.value());
  (void)sys.Write(1, "nginx: start worker processes\n");

  const std::string body(612, 'x');  // Default index.html payload size.
  const std::string response = "HTTP/1.1 200 OK\r\nContent-Length: 612\r\nConnection: keep-alive"
                               "\r\n\r\n" + body;

  for (;;) {
    auto ready = sys.EpollWait(ep.value(), 16);
    if (!ready.ok()) {
      return 1;
    }
    for (int fd : ready.value()) {
      if (fd == listen_fd.value()) {
        auto conn = sys.Accept(fd);
        if (conn.ok()) {
          sys.Compute(kNginxConnectionCpu);
          (void)sys.EpollCtlAdd(ep.value(), conn.value());
        }
        continue;
      }
      auto data = sys.Recv(fd, 16 * 1024);
      if (!data.ok() || data.value().empty()) {
        (void)sys.Close(fd);
        continue;
      }
      // One "GET ..." line per request; pipelined requests arrive batched.
      size_t requests = 0;
      size_t pos = 0;
      while ((pos = data.value().find("GET ", pos)) != std::string::npos) {
        ++requests;
        pos += 4;
      }
      std::string reply;
      for (size_t i = 0; i < requests; ++i) {
        sys.Compute(kNginxRequestCpu);
        reply += response;
      }
      if (!reply.empty()) {
        (void)sys.Send(fd, reply);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// memcached: text-protocol cache server (get/set/delete/stats).
// ---------------------------------------------------------------------------

int MemcachedMain(SyscallApi& sys, const std::vector<std::string>& argv) {
  (void)argv;
  const AppManifest* m = FindManifest("memcached");
  if (!CommonStartup(sys, *m)) {
    return 1;
  }

  auto listen_fd = sys.Socket(SockDomain::kInet, SockType::kStream);
  if (!listen_fd.ok()) {
    (void)sys.Write(2, "memcached: failed to create listening socket\n");
    return 1;
  }
  if (Status s = sys.Bind(listen_fd.value(), m->listen_port, ""); !s.ok()) {
    (void)sys.Write(2, "memcached: bind: " + s.ToString() + "\n");
    return 1;
  }
  (void)sys.Listen(listen_fd.value(), 1024);
  auto ep = sys.EpollCreate1();
  if (!ep.ok()) {
    (void)sys.Write(2, "epoll_create1 failed: function not implemented\n");
    return 1;
  }
  (void)sys.EpollCtlAdd(ep.value(), listen_fd.value());
  (void)sys.Write(1, "memcached: server listening (1024 max connections)\n");

  std::map<std::string, std::string> cache;
  uint64_t gets = 0;
  uint64_t sets = 0;
  uint64_t hits = 0;

  for (;;) {
    auto ready = sys.EpollWait(ep.value(), 16);
    if (!ready.ok()) {
      return 1;
    }
    for (int fd : ready.value()) {
      if (fd == listen_fd.value()) {
        auto conn = sys.Accept(fd);
        if (conn.ok()) {
          (void)sys.EpollCtlAdd(ep.value(), conn.value());
        }
        continue;
      }
      auto data = sys.Recv(fd, 16 * 1024);
      if (!data.ok() || data.value().empty()) {
        (void)sys.Close(fd);
        continue;
      }
      std::istringstream in(data.value());
      std::string line;
      std::string reply;
      while (std::getline(in, line)) {
        if (!line.empty() && line.back() == '\r') {
          line.pop_back();
        }
        if (line.empty()) {
          continue;
        }
        sys.Compute(kRedisRequestCpu);  // Comparable per-op cost to redis.
        std::istringstream cmd(line);
        std::string op;
        cmd >> op;
        if (op == "set") {
          // "set <key> <flags> <exptime> <bytes>" followed by the data line.
          std::string key;
          cmd >> key;
          std::string value;
          if (std::getline(in, value) && !value.empty() && value.back() == '\r') {
            value.pop_back();
          }
          cache[key] = value;
          ++sets;
          reply += "STORED\r\n";
        } else if (op == "get") {
          std::string key;
          cmd >> key;
          ++gets;
          auto it = cache.find(key);
          if (it != cache.end()) {
            ++hits;
            reply += "VALUE " + key + " 0 " + std::to_string(it->second.size()) + "\r\n" +
                     it->second + "\r\nEND\r\n";
          } else {
            reply += "END\r\n";
          }
        } else if (op == "delete") {
          std::string key;
          cmd >> key;
          reply += cache.erase(key) > 0 ? "DELETED\r\n" : "NOT_FOUND\r\n";
        } else if (op == "stats") {
          reply += "STAT cmd_get " + std::to_string(gets) + "\r\n";
          reply += "STAT cmd_set " + std::to_string(sets) + "\r\n";
          reply += "STAT get_hits " + std::to_string(hits) + "\r\n";
          reply += "END\r\n";
        } else if (op == "quit") {
          (void)sys.Close(fd);
          reply.clear();
          break;
        } else {
          reply += "ERROR\r\n";
        }
      }
      if (!reply.empty()) {
        (void)sys.Send(fd, reply);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Generic top-20 application: probes, worker forks, readiness, serve/exit.
// ---------------------------------------------------------------------------

int GenericMain(SyscallApi& sys, const AppManifest& m) {
  if (!CommonStartup(sys, m)) {
    return 1;
  }

  // postgres-style auxiliary processes (background writer, checkpointer,
  // replicator, stats collector) that mostly sleep.
  for (int i = 0; i < m.forked_workers; ++i) {
    auto pid = sys.Fork([](SyscallApi& child_sys) -> int {
      for (int iteration = 0; iteration < 3; ++iteration) {
        child_sys.Nanosleep(Millis(100));
      }
      // Workers then block forever waiting for work.
      child_sys.Pause();
      return 0;
    });
    if (!pid.ok()) {
      (void)sys.Write(2, m.name + ": could not fork worker process: " + pid.status().ToString() +
                         "\n");
      return 1;
    }
  }

  if (m.kind == AppKind::kOneShot) {
    (void)sys.Write(1, m.ready_line + "\n");
    return 0;
  }

  // Server: listen and announce readiness, then serve trivially.
  auto listen_fd = sys.Socket(SockDomain::kInet, SockType::kStream);
  if (!listen_fd.ok()) {
    (void)sys.Write(2, m.name + ": cannot create listening socket\n");
    return 1;
  }
  if (Status s = sys.Bind(listen_fd.value(), m.listen_port, ""); !s.ok()) {
    (void)sys.Write(2, m.name + ": bind failed: " + s.ToString() + "\n");
    return 1;
  }
  (void)sys.Listen(listen_fd.value(), 128);
  (void)sys.Write(1, m.name + ": " + m.ready_line + "\n");
  for (;;) {
    auto conn = sys.Accept(listen_fd.value());
    if (!conn.ok()) {
      return 0;
    }
    auto data = sys.Recv(conn.value(), 4096);
    if (data.ok() && !data.value().empty()) {
      (void)sys.Send(conn.value(), "OK\n");
    }
    (void)sys.Close(conn.value());
  }
}

}  // namespace

void RegisterBuiltinApps(guestos::AppRegistry* registry) {
  // Serialize registration: LupineBuilders are constructed concurrently by
  // the parallel fleet pipeline and all funnel through here.
  static std::mutex mu;
  std::lock_guard lock(mu);
  guestos::AppRegistry& r = registry != nullptr ? *registry : guestos::AppRegistry::Global();
  if (r.Find("hello-world") != nullptr) {
    return;  // Already registered.
  }
  r.Register("hello-world", HelloMain);
  r.Register("redis", RedisMain);
  r.Register("nginx", NginxMain);
  r.Register("memcached", MemcachedMain);
  // A minimal shell: initializes, then execs its first argument (used by the
  // lmbench "sh proc" test).
  r.Register("sh", [](SyscallApi& sys, const std::vector<std::string>& argv) -> int {
    sys.Compute(150'000);  // Shell startup (parsing rc, environment).
    if (argv.size() > 1) {
      std::vector<std::string> rest(argv.begin() + 1, argv.end());
      Status s = sys.Execve(rest[0], rest);
      (void)sys.Write(2, "sh: " + rest[0] + ": " + s.ToString() + "\n");
      return 127;
    }
    return 0;
  });
  for (const auto& m : Top20Manifests()) {
    if (r.Find(m.name) != nullptr) {
      continue;
    }
    const AppManifest* manifest = FindManifest(m.name);
    r.Register(m.name, [manifest](SyscallApi& sys, const std::vector<std::string>& argv) {
      (void)argv;
      return GenericMain(sys, *manifest);
    });
  }
  RegisterInitInterpreter(&r);
}

}  // namespace lupine::apps

// WarmPool: parked, restore-booted guests waiting for requests.
//
// The serving front door hides launch cost by keeping a small per-app pool
// of already-restored VMs, each still holding its admission Grant (the RAM
// is committed while the guest is parked — a parked pool is paid-for
// capacity, which is exactly why the pool is small). A request that
// finds a warm guest dispatches at warm-dispatch cost; refills happen off
// the request path. Parked guests have never run a fiber (restore replays
// Boot+StartInit only), so parking on one host thread and running on
// another is safe — the fiber is created by whichever thread finally runs
// the guest. Every parked guest is single-use: TryTake transfers ownership
// out and the VM dies with the request that took it.
#ifndef SRC_SERVE_WARM_POOL_H_
#define SRC_SERVE_WARM_POOL_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "src/telemetry/journal.h"
#include "src/telemetry/metrics.h"
#include "src/vmm/admission.h"
#include "src/vmm/vm.h"

namespace lupine::serve {

class WarmPool {
 public:
  struct Parked {
    std::unique_ptr<vmm::Vm> vm;
    vmm::Grant grant;      // Held for the guest's whole parked + serving life.
    Nanos launch_ns = 0;   // What the launch cost (restore or cold boot).
  };

  WarmPool() = default;
  WarmPool(const WarmPool&) = delete;
  WarmPool& operator=(const WarmPool&) = delete;

  // Parks a ready guest for `app`. FIFO per app: the oldest parked guest is
  // taken first.
  void Park(const std::string& app, Parked guest);

  // Takes the oldest parked guest for `app`, or nullopt when the pool is
  // empty for that app (the caller falls back to a cold boot).
  std::optional<Parked> TryTake(const std::string& app);

  // Optional, non-owning metric sink: `warmpool.parked` / `warmpool.taken` /
  // `warmpool.empty_takes` counters and a `warmpool.live` gauge. Must
  // outlive the pool.
  void set_metrics(telemetry::MetricRegistry* metrics) { metrics_ = metrics; }

  // Optional, non-owning flight-recorder sink: warm-park / warm-take events
  // under source "warm-pool". Pool occupancy is host-timing dependent, so
  // the events are schedule-scoped (full export / Perfetto only). Must
  // outlive the pool.
  void set_journal(telemetry::Journal* journal) { journal_ = journal; }

 private:
  void EmitJournal(const char* type, const std::string& app, size_t live) const;

  telemetry::MetricRegistry* metrics_ = nullptr;
  telemetry::Journal* journal_ = nullptr;

  std::mutex mu_;
  std::map<std::string, std::deque<Parked>> pools_;
  size_t live_ = 0;  // Currently parked across all apps.
};

}  // namespace lupine::serve

#endif  // SRC_SERVE_WARM_POOL_H_

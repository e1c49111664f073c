// FleetAdmissionController: gate VM launches on a host memory budget.
//
// The paper's Fig. 8 measures per-unikernel memory footprints; a fleet host
// multiplies that by hundreds of VMs and dies of overcommit unless launches
// are gated. This controller tracks bytes committed to running VMs against a
// configurable budget and gives each launch one of four verdicts:
//
//   admit   — the full reservation fits; launch now.
//   degrade — the full reservation does not fit, but the caller declared a
//             smaller `min_memory` it can boot with; grant that instead
//             (graceful degradation: a smaller-heap VM beats a queued VM).
//   queue   — nothing fits right now; block FIFO until running VMs exit and
//             release their grants.
//   reject  — the request can never fit (even min_memory exceeds the whole
//             budget); fail fast.
//
// Grants are RAII: destroying (or Release()-ing) a Grant returns its bytes
// to the budget and wakes queued waiters in arrival order. The controller is
// thread-safe — fleet-boot scheduler workers call Admit() concurrently.
#ifndef SRC_VMM_ADMISSION_H_
#define SRC_VMM_ADMISSION_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>

#include "src/telemetry/journal.h"
#include "src/telemetry/metrics.h"
#include "src/util/units.h"

namespace lupine::vmm {

struct AdmissionPolicy {
  // Host memory available for guest RAM. 0 = unlimited (every request is
  // admitted in full immediately; useful as the no-op default).
  Bytes host_budget = 0;
};

struct AdmissionRequest {
  std::string vm;        // For operator-facing accounting only.
  Bytes memory = 0;      // Full reservation (the VM's --mem-size).
  // Smallest RAM the VM can boot with (Fig. 8 floor). 0 = not degradable:
  // the VM gets its full reservation or waits for it.
  Bytes min_memory = 0;
};

class FleetAdmissionController;

// A committed slice of the host budget. Move-only; returns its bytes on
// destruction or Release(). An invalid grant (valid() == false) means the
// request was rejected and no memory is held.
class Grant {
 public:
  Grant() = default;
  Grant(Grant&& other) noexcept { *this = std::move(other); }
  Grant& operator=(Grant&& other) noexcept;
  Grant(const Grant&) = delete;
  Grant& operator=(const Grant&) = delete;
  ~Grant() { Release(); }

  bool valid() const { return controller_ != nullptr; }
  // Bytes actually committed: the full reservation, or min_memory when the
  // launch was degraded. 0 for a rejected request.
  Bytes granted() const { return granted_; }
  bool degraded() const { return degraded_; }
  // The request blocked in the queue before being granted.
  bool waited() const { return waited_; }

  // Returns the bytes to the budget and wakes waiters. Idempotent.
  void Release();

 private:
  friend class FleetAdmissionController;
  Grant(FleetAdmissionController* controller, Bytes granted, bool degraded, bool waited)
      : controller_(controller), granted_(granted), degraded_(degraded), waited_(waited) {}

  FleetAdmissionController* controller_ = nullptr;
  Bytes granted_ = 0;
  bool degraded_ = false;
  bool waited_ = false;
};

class FleetAdmissionController {
 public:
  explicit FleetAdmissionController(AdmissionPolicy policy = {});
  FleetAdmissionController(const FleetAdmissionController&) = delete;
  FleetAdmissionController& operator=(const FleetAdmissionController&) = delete;

  enum class Verdict { kAdmit, kDegrade, kQueue, kReject };
  static const char* VerdictName(Verdict verdict);

  // Blocks (FIFO) until the request can be satisfied, then commits the bytes
  // and returns the grant. Returns an invalid grant when the request is
  // rejected (it can never fit).
  Grant Admit(const AdmissionRequest& request);

  // Non-blocking Admit: commits and returns a grant only when the request
  // fits right now (full or degraded) with nobody queued ahead of it. Any
  // verdict that would block or reject returns an invalid grant without
  // queuing — the serving front door uses this to fall back to a cold boot
  // (or shed the request) instead of holding a request thread hostage.
  Grant TryAdmit(const AdmissionRequest& request);

  // Optional, non-owning metric sink: admission outcome counters plus
  // `admission.committed_bytes` / `admission.peak_committed_bytes` gauges.
  // Every counter is registered at zero here, so an export lists the same
  // counters whether or not, say, some launch had to wait. Set before the
  // first Admit(); the registry must outlive the controller.
  void set_metrics(telemetry::MetricRegistry* metrics);

  // Optional, non-owning flight-recorder sink: every Admit() outcome lands
  // as a "verdict" event under source "admission". Verdicts depend on what
  // is concurrently committed, so the events are schedule-scoped (full
  // export / Perfetto only, excluded from the canonical deterministic
  // export). Set before the first Admit(); must outlive the controller.
  void set_journal(telemetry::Journal* journal) { journal_ = journal; }

  struct Stats {
    uint64_t requests = 0;
    uint64_t admitted = 0;   // Full grants (including after a wait).
    uint64_t degraded = 0;   // min_memory grants.
    uint64_t queued = 0;     // Requests that blocked before being granted.
    uint64_t rejected = 0;
    uint64_t try_denied = 0; // TryAdmit() calls that found no immediate room.
    size_t waiting = 0;      // Currently blocked in Admit().
    size_t active = 0;       // Outstanding grants.
    Bytes committed = 0;     // Bytes currently held by grants.
    Bytes peak_committed = 0;
  };
  Stats stats() const;

  const AdmissionPolicy& policy() const { return policy_; }

 private:
  friend class Grant;

  // What the budget allows `request` with committed_ bytes held: kAdmit or
  // kDegrade when its full reservation or its min_memory fits now, kQueue
  // when it can fit later, kReject when it never can. The FIFO line is the
  // caller's concern. Caller holds mu_.
  Verdict FitLocked(const AdmissionRequest& request) const;
  // Commits the grant `verdict` (kAdmit or kDegrade) names, counts it and
  // records it as a `type` journal event. Caller holds mu_.
  Grant GrantLocked(const AdmissionRequest& request, Verdict verdict, bool waited,
                    const char* type);
  // Bumps `counter` when a registry is installed.
  void Count(const char* counter);
  // Journals one verdict as a `type` event (schedule-scoped: it depends on
  // what is concurrently committed).
  void EmitVerdict(const char* type, const AdmissionRequest& request, const char* verdict,
                   Bytes granted);
  void ReleaseBytes(Bytes bytes);
  void PublishGauges();  // Caller holds mu_.

  const AdmissionPolicy policy_;
  telemetry::MetricRegistry* metrics_ = nullptr;
  telemetry::Journal* journal_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<uint64_t> tickets_;  // FIFO of waiting Admit() calls.
  uint64_t next_ticket_ = 0;
  Bytes committed_ = 0;
  Stats stats_;
};

}  // namespace lupine::vmm

#endif  // SRC_VMM_ADMISSION_H_

#include "src/vmm/admission.h"

#include <utility>

namespace lupine::vmm {

Grant& Grant::operator=(Grant&& other) noexcept {
  if (this != &other) {
    Release();
    controller_ = std::exchange(other.controller_, nullptr);
    granted_ = std::exchange(other.granted_, Bytes{0});
    degraded_ = std::exchange(other.degraded_, false);
    waited_ = std::exchange(other.waited_, false);
  }
  return *this;
}

void Grant::Release() {
  if (controller_ != nullptr) {
    controller_->ReleaseBytes(granted_);
    controller_ = nullptr;
    granted_ = 0;
  }
}

FleetAdmissionController::FleetAdmissionController(AdmissionPolicy policy)
    : policy_(policy) {}

const char* FleetAdmissionController::VerdictName(Verdict verdict) {
  switch (verdict) {
    case Verdict::kAdmit:
      return "admit";
    case Verdict::kDegrade:
      return "degrade";
    case Verdict::kQueue:
      return "queue";
    case Verdict::kReject:
      return "reject";
  }
  return "unknown";
}

FleetAdmissionController::Verdict FleetAdmissionController::FitLocked(
    const AdmissionRequest& request) const {
  const Bytes budget = policy_.host_budget;
  if (budget == 0) {
    return Verdict::kAdmit;
  }
  const bool can_full = request.memory <= budget;
  const bool can_min = request.min_memory > 0 && request.min_memory <= budget;
  if (!can_full && !can_min) {
    return Verdict::kReject;  // Never fits, even on an idle host.
  }
  if (can_full && committed_ + request.memory <= budget) {
    return Verdict::kAdmit;
  }
  if (can_min && committed_ + request.min_memory <= budget) {
    return Verdict::kDegrade;
  }
  return Verdict::kQueue;
}

Grant FleetAdmissionController::GrantLocked(const AdmissionRequest& request, Verdict verdict,
                                            bool waited, const char* type) {
  const bool degraded = verdict == Verdict::kDegrade;
  const Bytes granted = degraded ? request.min_memory : request.memory;
  committed_ += granted;
  ++stats_.active;
  stats_.committed = committed_;
  if (committed_ > stats_.peak_committed) {
    stats_.peak_committed = committed_;
  }
  if (degraded) {
    ++stats_.degraded;
  } else {
    ++stats_.admitted;
  }
  Count(degraded ? "admission.degraded" : "admission.admitted");
  EmitVerdict(type, request, VerdictName(verdict), granted);
  PublishGauges();
  return Grant(this, granted, degraded, waited);
}

void FleetAdmissionController::set_metrics(telemetry::MetricRegistry* metrics) {
  metrics_ = metrics;
  if (metrics_ != nullptr) {
    for (const char* counter :
         {"admission.requests", "admission.admitted", "admission.degraded", "admission.queued",
          "admission.rejected", "admission.try_denied"}) {
      (void)metrics_->GetCounter(counter);
    }
  }
}

void FleetAdmissionController::Count(const char* counter) {
  if (metrics_ != nullptr) {
    metrics_->GetCounter(counter).Increment();
  }
}

void FleetAdmissionController::EmitVerdict(const char* type, const AdmissionRequest& request,
                                           const char* verdict, Bytes granted) {
  if (journal_ == nullptr) {
    return;
  }
  telemetry::Event event;
  event.source = "admission";
  event.type = type;
  event.schedule_scoped = true;
  event.fields = {{"vm", telemetry::FieldValue{request.vm}},
                  {"verdict", telemetry::FieldValue{std::string(verdict)}},
                  {"granted_bytes", telemetry::FieldValue{static_cast<uint64_t>(granted)}}};
  journal_->Emit(std::move(event));
}

Grant FleetAdmissionController::Admit(const AdmissionRequest& request) {
  std::unique_lock<std::mutex> lock(mu_);
  ++stats_.requests;
  Count("admission.requests");
  Verdict verdict = FitLocked(request);
  if (verdict == Verdict::kReject) {
    ++stats_.rejected;
    Count("admission.rejected");
    EmitVerdict("verdict", request, VerdictName(verdict), 0);
    return Grant();
  }
  if (tickets_.empty() && verdict != Verdict::kQueue) {
    return GrantLocked(request, verdict, /*waited=*/false, "verdict");
  }

  // Queue FIFO: wait until this ticket reaches the head AND the budget has
  // room (full or degraded). Head-of-line blocking is deliberate — a large
  // request is not starved by small ones slipping past it.
  const uint64_t ticket = next_ticket_++;
  tickets_.push_back(ticket);
  ++stats_.queued;
  stats_.waiting = tickets_.size();
  Count("admission.queued");
  EmitVerdict("verdict", request, VerdictName(Verdict::kQueue), 0);
  cv_.wait(lock, [&]() {
    return tickets_.front() == ticket && (verdict = FitLocked(request)) != Verdict::kQueue;
  });
  tickets_.pop_front();
  stats_.waiting = tickets_.size();
  Grant grant = GrantLocked(request, verdict, /*waited=*/true, "verdict");
  // The next waiter may also fit in what is left — wake the line.
  cv_.notify_all();
  return grant;
}

Grant FleetAdmissionController::TryAdmit(const AdmissionRequest& request) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.requests;
  Count("admission.requests");
  // Respect the FIFO line: stealing budget that a queued Admit() is waiting
  // for would starve it.
  const Verdict verdict = FitLocked(request);
  if (tickets_.empty() && (verdict == Verdict::kAdmit || verdict == Verdict::kDegrade)) {
    return GrantLocked(request, verdict, /*waited=*/false, "try-verdict");
  }
  ++stats_.try_denied;
  Count("admission.try_denied");
  EmitVerdict("try-verdict", request, "deny", 0);
  return Grant();
}

void FleetAdmissionController::ReleaseBytes(Bytes bytes) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    committed_ -= bytes;
    --stats_.active;
    stats_.committed = committed_;
    PublishGauges();
  }
  cv_.notify_all();
}

void FleetAdmissionController::PublishGauges() {
  if (metrics_ == nullptr) {
    return;
  }
  metrics_->GetGauge("admission.committed_bytes")
      .Set(static_cast<int64_t>(committed_));
  metrics_->GetGauge("admission.peak_committed_bytes")
      .Set(static_cast<int64_t>(stats_.peak_committed));
}

FleetAdmissionController::Stats FleetAdmissionController::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace lupine::vmm

#include "src/serve/warm_pool.h"

#include <utility>

namespace lupine::serve {

void WarmPool::Park(const std::string& app, Parked guest) {
  std::lock_guard lock(mu_);
  pools_[app].push_back(std::move(guest));
  ++live_;
  if (metrics_ != nullptr) {
    metrics_->GetCounter("warmpool.parked").Increment();
    metrics_->GetGauge("warmpool.live").Set(static_cast<int64_t>(live_));
  }
  EmitJournal("warm-park", app, live_);
}

std::optional<WarmPool::Parked> WarmPool::TryTake(const std::string& app) {
  std::lock_guard lock(mu_);
  auto it = pools_.find(app);
  if (it == pools_.end() || it->second.empty()) {
    if (metrics_ != nullptr) {
      metrics_->GetCounter("warmpool.empty_takes").Increment();
    }
    return std::nullopt;
  }
  Parked guest = std::move(it->second.front());
  it->second.pop_front();
  --live_;
  if (metrics_ != nullptr) {
    metrics_->GetCounter("warmpool.taken").Increment();
    metrics_->GetGauge("warmpool.live").Set(static_cast<int64_t>(live_));
  }
  EmitJournal("warm-take", app, live_);
  return guest;
}

void WarmPool::EmitJournal(const char* type, const std::string& app,
                           size_t live) const {
  if (journal_ == nullptr) {
    return;
  }
  telemetry::Event event;
  event.source = "warm-pool";
  event.type = type;
  event.schedule_scoped = true;  // Occupancy is host-timing bound.
  event.fields = {{"app", telemetry::FieldValue{app}},
                  {"live", telemetry::FieldValue{static_cast<uint64_t>(live)}}};
  journal_->Emit(std::move(event));
}

}  // namespace lupine::serve

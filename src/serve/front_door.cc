#include "src/serve/front_door.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <utility>

#include "src/serve/warm_pool.h"
#include "src/util/prng.h"
#include "src/util/retry.h"
#include "src/util/scheduler.h"
#include "src/vmm/vm.h"

namespace lupine::serve {
namespace {

uint64_t Fold(uint64_t seed, size_t index) {
  return seed ^ ((static_cast<uint64_t>(index) + 1) * 0x9E3779B97F4A7C15ull);
}

// Per-request service time: the app's mean scaled by +/-20% seeded jitter —
// a pure function of (seed, request index), never of scheduling.
Nanos ServiceTime(Nanos mean, uint64_t seed, size_t index) {
  Prng prng(Fold(seed, index));
  return static_cast<Nanos>(static_cast<double>(mean) * (0.8 + 0.4 * prng.NextDouble()));
}

// What the DES decided for one request; the execution phase replays the
// decision against the real subsystems.
struct Planned {
  enum Path { kWarm, kRestore, kRestoreFailCold, kCold };
  Path path = kCold;
  bool capture = false;     // This request publishes the app's snapshot.
  size_t warm_ordinal = 0;  // 1-based per-app take ordinal (kWarm only).
  int epoch = 0;            // Snapshot generation used (restore) or made.
  Nanos latency = 0;        // dispatch -> response complete.
};

const char* PathName(Planned::Path path) {
  switch (path) {
    case Planned::kWarm:
      return "warm";
    case Planned::kRestore:
      return "restore";
    case Planned::kRestoreFailCold:
      return "restore-fail-cold";
    case Planned::kCold:
      return "cold";
  }
  return "unknown";
}

// The serving host the DES models: concurrent serving instances, parked
// guests kept per app, concurrent off-path restores per app, the mean
// service time, and the handoff cost of a parked guest.
constexpr size_t kSlots = 8;
constexpr size_t kWarmTarget = 2;
constexpr size_t kRefillConcurrency = 2;
constexpr Nanos kServiceNs = Millis(3);
constexpr Nanos kWarmDispatchNs = Micros(50);

Nanos Percentile(const std::vector<Nanos>& sorted, int pct) {
  if (sorted.empty()) {
    return 0;
  }
  return sorted[(static_cast<size_t>(pct) * (sorted.size() - 1)) / 100];
}

}  // namespace

Result<ServeResult> RunServing(core::KernelCache& cache, core::SnapshotCache& snapshots,
                               const ServeOptions& options) {
  if (options.tenants.empty()) {
    return Status(Err::kInval, "serving needs at least one tenant");
  }
  const auto wall_start = std::chrono::steady_clock::now();
  snapshots.set_quarantine(options.quarantine);

  // ---- Phase 1: prelude — measure per-app launch economics for real -------
  struct AppState {
    std::string app;
    core::KernelCache::ArtifactPtr artifact;
    std::string key;
    Nanos cold = 0;
    Nanos capture = 0;
    Nanos restore = 0;
    Nanos service = 0;
    // DES model state.
    size_t warm = 0;              // Parked ready guests.
    size_t refills_inflight = 0;  // Restores running off the request path.
    bool snapshot_ready = false;
    bool capture_inflight = false;
    int epoch = 0;                // Bumped on every (re)capture.
    FaultInjector injector;       // kSnapshotRestore schedule, DES-evaluated.
    // Plan bookkeeping for the execution phase.
    size_t takes = 0;                       // Warm takes so far.
    std::vector<int> refill_epochs;         // Epoch per successful refill.
    std::map<int, size_t> capture_request;  // epoch -> capturing trace index.
  };
  std::map<std::string, size_t> app_index;
  std::vector<AppState> states;
  for (const TenantSpec& tenant : options.tenants) {
    if (app_index.count(tenant.app) > 0) {
      continue;
    }
    app_index.emplace(tenant.app, states.size());
    AppState s;
    s.app = tenant.app;
    auto artifact = cache.GetOrBuild(tenant.app);
    if (!artifact.ok()) {
      return artifact.status();
    }
    s.artifact = *artifact;
    s.key = core::SnapshotCache::Key(s.artifact->fingerprint, s.artifact->rootfs_key,
                                     options.memory);
    auto vm = s.artifact->Launch(options.memory);
    if (Status st = vm->Boot(); !st.ok()) {
      return st;
    }
    s.cold = vm->boot_report().to_init;
    auto captured = vm->Capture(s.key, s.app);
    if (!captured.ok()) {
      return captured.status();
    }
    s.capture = captured.value().capture_ns;
    // Round-trip one restore for real: proves the digest matches (state
    // equivalence) and yields the restore-path launch cost as the restored
    // VM reports it, not as the model promises it.
    {
      auto restored = vmm::Vm::Restore(captured.value());
      if (!restored.ok()) {
        return restored.status();
      }
      s.restore = (*restored)->boot_report().to_init;
    }
    s.service = kServiceNs;
    if (options.fault_plan != nullptr) {
      FaultPlan forked = options.fault_plan->ForApp(s.app);
      forked.seed = Fold(options.fault_plan->seed, states.size());
      s.injector = FaultInjector(forked);
    }
    states.push_back(std::move(s));
  }

  ServeResult result;
  for (const AppState& s : states) {
    AppServeCost cost;
    cost.app = s.app;
    cost.cold_ns = s.cold;
    cost.capture_ns = s.capture;
    cost.restore_ns = s.restore;
    cost.service_ns = s.service;
    cost.restore_ratio =
        s.cold > 0 ? static_cast<double>(s.restore) / static_cast<double>(s.cold) : 0.0;
    result.costs.push_back(std::move(cost));
  }

  // ---- Phase 2: discrete-event simulation over the arrival trace ----------
  const std::vector<Request> trace =
      GenerateOpenLoopArrivals(options.tenants, options.duration, options.seed);
  result.requests = trace.size();
  std::vector<Planned> plan(trace.size());
  result.records.resize(trace.size());

  enum class Ev { kArrival, kDone, kRefillOk, kRefillFail, kCaptureDone };
  struct Event {
    Nanos at;
    uint64_t seq;  // Tie-break: push order.
    Ev kind;
    size_t idx;  // Request index (kArrival/kDone) or app index (the rest).
    int epoch;   // Refill events: the snapshot generation restored from.
  };
  auto later = [](const Event& a, const Event& b) {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  };
  std::priority_queue<Event, std::vector<Event>, decltype(later)> events(later);
  uint64_t seq = 0;
  for (const Request& r : trace) {
    events.push({r.arrival, seq++, Ev::kArrival, r.index, 0});
  }

  size_t free_slots = kSlots;
  std::deque<size_t> waiting;  // FIFO slot queue.
  std::vector<std::pair<Nanos, double>> queue_deltas;
  std::vector<std::pair<Nanos, double>> inflight_deltas;
  std::vector<std::pair<Nanos, double>> warm_deltas;

  auto emit = [&](Nanos at, const char* type, const std::string& app,
                  std::vector<telemetry::Field> fields = {}) {
    if (options.journal == nullptr) {
      return;
    }
    std::vector<telemetry::Field> all;
    all.reserve(fields.size() + 1);
    all.push_back({"app", telemetry::FieldValue{app}});
    for (telemetry::Field& field : fields) {
      all.push_back(std::move(field));
    }
    options.journal->Emit(at, "serve", type, std::move(all));
  };

  // Restore-failure containment on the virtual clock: the same Quarantine
  // SnapshotCache runs on the host clock, keyed by app.
  Quarantine quarantine(options.quarantine);

  // Is the app's snapshot available for a restore right now? Handles the
  // poison TTL and the half-open probe (as SnapshotCache::Find does).
  auto usable = [&](AppState& s, Nanos now, bool count_denial) {
    switch (quarantine.Check(s.app, now)) {
      case Quarantine::Gate::kDenied:
        result.quarantine_denials += count_denial ? 1 : 0;
        return false;
      case Quarantine::Gate::kProbe:
        ++result.probes;
        emit(now, "snapshot-probe", s.app);
        break;
      case Quarantine::Gate::kOpen:
        break;
    }
    return s.snapshot_ready;
  };

  // One restore failure against the app's snapshot (as
  // SnapshotCache::ReportRestoreFailure: drop-once, then poison).
  auto strike = [&](AppState& s, Nanos now) {
    switch (quarantine.Fail(s.app, now)) {
      case Quarantine::Strike::kNone:
        return;
      case Quarantine::Strike::kDrop:
        ++result.quarantine_drops;
        emit(now, "snapshot-drop", s.app);
        break;
      case Quarantine::Strike::kPoison:
        ++result.quarantine_poisoned;
        emit(now, "snapshot-poison", s.app);
        break;
    }
    s.snapshot_ready = false;
  };

  // Keep the app's pool heading toward kWarmTarget, bounded by
  // kRefillConcurrency. Restore faults are evaluated when the refill is
  // scheduled (one injector stream per app, consumed in DES order —
  // deterministic).
  auto top_up = [&](size_t app, Nanos now) {
    AppState& s = states[app];
    while (s.warm + s.refills_inflight < kWarmTarget &&
           s.refills_inflight < kRefillConcurrency &&
           usable(s, now, /*count_denial=*/false)) {
      ++s.refills_inflight;
      const bool fail = s.injector.armed() && s.injector.Check(FaultSite::kSnapshotRestore);
      events.push({now + s.restore, seq++, fail ? Ev::kRefillFail : Ev::kRefillOk, app,
                   s.epoch});
    }
  };

  auto maybe_capture = [&](AppState& s, size_t app, size_t req, Nanos ready_at,
                           Planned& p) -> Nanos {
    if (s.snapshot_ready || s.capture_inflight || quarantine.poisoned(s.app)) {
      return 0;
    }
    s.capture_inflight = true;
    p.capture = true;
    p.epoch = ++s.epoch;
    s.capture_request.emplace(s.epoch, req);
    ++result.captures;
    events.push({ready_at + s.capture, seq++, Ev::kCaptureDone, app, s.epoch});
    return s.capture;
  };

  std::function<void(size_t, Nanos)> dispatch = [&](size_t req, Nanos now) {
    const Request& r = trace[req];
    const size_t app = app_index.at(r.app);
    AppState& s = states[app];
    Planned& p = plan[req];
    --free_slots;
    inflight_deltas.emplace_back(now, 1.0);
    Nanos latency = 0;
    if (s.warm > 0) {
      --s.warm;
      warm_deltas.emplace_back(now, -1.0);
      ++result.warm_hits;
      p.path = Planned::kWarm;
      p.warm_ordinal = ++s.takes;
      latency = kWarmDispatchNs + ServiceTime(s.service, options.seed, req);
      emit(now, "warm-take", s.app,
           {{"request", telemetry::FieldValue{static_cast<uint64_t>(req)}}});
      top_up(app, now);
    } else if (usable(s, now, /*count_denial=*/true)) {
      const bool fail = s.injector.armed() && s.injector.Check(FaultSite::kSnapshotRestore);
      if (fail) {
        // The on-demand restore blows up: pay it, report it, cold-boot the
        // request (and recapture if the entry was dropped, not poisoned).
        ++result.restore_failures;
        strike(s, now);
        emit(now + s.restore, "snapshot-restore", s.app,
             {{"ok", telemetry::FieldValue{false}}});
        p.path = Planned::kRestoreFailCold;
        ++result.cold_boots;
        latency = s.restore + s.cold;
        latency += maybe_capture(s, app, req, now + latency, p);
        latency += ServiceTime(s.service, options.seed, req);
      } else {
        ++result.restores;
        p.path = Planned::kRestore;
        p.epoch = s.epoch;
        emit(now + s.restore, "snapshot-restore", s.app,
             {{"ok", telemetry::FieldValue{true}}});
        latency = s.restore + ServiceTime(s.service, options.seed, req);
        top_up(app, now);
      }
    } else {
      ++result.cold_boots;
      p.path = Planned::kCold;
      latency = s.cold;
      latency += maybe_capture(s, app, req, now + s.cold, p);
      latency += ServiceTime(s.service, options.seed, req);
    }
    p.latency = latency;
    RequestRecord& rec = result.records[req];
    rec.index = req;
    rec.app = r.app;
    rec.arrival = r.arrival;
    rec.dispatch = now;
    rec.ttfr = now + latency - r.arrival;
    rec.path = PathName(p.path);
    events.push({now + latency, seq++, Ev::kDone, req, 0});
  };

  while (!events.empty()) {
    const Event ev = events.top();
    events.pop();
    result.virtual_end = std::max(result.virtual_end, ev.at);
    switch (ev.kind) {
      case Ev::kArrival:
        if (free_slots > 0 && waiting.empty()) {
          dispatch(ev.idx, ev.at);
        } else {
          waiting.push_back(ev.idx);
          ++result.queue_waits;
          queue_deltas.emplace_back(ev.at, 1.0);
        }
        break;
      case Ev::kDone:
        ++free_slots;
        inflight_deltas.emplace_back(ev.at, -1.0);
        if (!waiting.empty()) {
          const size_t next = waiting.front();
          waiting.pop_front();
          queue_deltas.emplace_back(ev.at, -1.0);
          dispatch(next, ev.at);
        }
        break;
      case Ev::kRefillOk: {
        AppState& s = states[ev.idx];
        --s.refills_inflight;
        ++s.warm;
        warm_deltas.emplace_back(ev.at, 1.0);
        ++result.refills;
        s.refill_epochs.push_back(ev.epoch);
        emit(ev.at, "warm-park", s.app,
             {{"live", telemetry::FieldValue{static_cast<uint64_t>(s.warm)}}});
        top_up(ev.idx, ev.at);
        break;
      }
      case Ev::kRefillFail: {
        AppState& s = states[ev.idx];
        --s.refills_inflight;
        ++result.restore_failures;
        strike(s, ev.at);
        emit(ev.at, "snapshot-restore", s.app, {{"ok", telemetry::FieldValue{false}}});
        top_up(ev.idx, ev.at);  // Still usable (not struck out)? Try again.
        break;
      }
      case Ev::kCaptureDone: {
        AppState& s = states[ev.idx];
        s.capture_inflight = false;
        if (!quarantine.poisoned(s.app) && ev.epoch == s.epoch) {
          s.snapshot_ready = true;
          emit(ev.at, "snapshot-capture", s.app);
          top_up(ev.idx, ev.at);
        }
        break;
      }
    }
  }

  // Figures. TTFR percentiles over every request; queue-wait p99 over the
  // requests that actually waited.
  {
    std::vector<Nanos> ttfrs;
    std::vector<Nanos> waits;
    ttfrs.reserve(result.records.size());
    double total = 0.0;
    for (const RequestRecord& rec : result.records) {
      ttfrs.push_back(rec.ttfr);
      total += static_cast<double>(rec.ttfr);
      if (rec.dispatch > rec.arrival) {
        waits.push_back(rec.dispatch - rec.arrival);
      }
    }
    std::sort(ttfrs.begin(), ttfrs.end());
    std::sort(waits.begin(), waits.end());
    result.ttfr_p50 = Percentile(ttfrs, 50);
    result.ttfr_p99 = Percentile(ttfrs, 99);
    result.ttfr_max = ttfrs.empty() ? 0 : ttfrs.back();
    result.ttfr_mean_ns = ttfrs.empty() ? 0.0 : total / static_cast<double>(ttfrs.size());
    result.queue_wait_p99 = Percentile(waits, 99);
  }
  if (result.requests > 0) {
    result.warm_hit_ratio =
        static_cast<double>(result.warm_hits) / static_cast<double>(result.requests);
  }

  // DES counter tracks (deterministic Perfetto ph:"C" inputs).
  result.counter_tracks.push_back(
      telemetry::FoldCounterDeltas("serve.queue_depth", std::move(queue_deltas)));
  result.counter_tracks.push_back(
      telemetry::FoldCounterDeltas("serve.inflight", std::move(inflight_deltas)));
  result.counter_tracks.push_back(
      telemetry::FoldCounterDeltas("serve.warm_live", std::move(warm_deltas)));

  // ---- Phase 3: host execution against the real subsystems ----------------
  if (options.execute && !trace.empty()) {
    WorkStealingScheduler::Options sched_options;
    sched_options.workers = std::max<size_t>(1, options.workers);
    sched_options.stealing = true;
    WorkStealingScheduler scheduler(sched_options);
    // Declared before the pool: ~WarmPool releases parked grants into it.
    std::unique_ptr<vmm::FleetAdmissionController> admission;
    if (options.host_budget > 0) {
      admission = std::make_unique<vmm::FleetAdmissionController>(
          vmm::AdmissionPolicy{options.host_budget});
      admission->set_metrics(options.metrics);
      admission->set_journal(options.journal);
    }
    WarmPool pool;
    pool.set_metrics(options.metrics);
    pool.set_journal(options.journal);
    std::atomic<size_t> x_warm{0};
    std::atomic<size_t> x_restore{0};
    std::atomic<size_t> x_cold{0};
    std::atomic<size_t> x_capture{0};
    std::atomic<size_t> x_refill{0};
    std::atomic<size_t> x_diverge{0};
    std::atomic<size_t> x_denied{0};

    std::vector<std::vector<size_t>> refill_ids(states.size());
    std::vector<size_t> request_ids(trace.size());

    auto try_admit = [&](const std::string& app) {
      vmm::Grant grant;
      if (admission != nullptr) {
        grant = admission->TryAdmit({app, options.memory, 0});
        if (!grant.valid()) {
          x_denied.fetch_add(1, std::memory_order_relaxed);
        }
      }
      return grant;
    };

    // Refill task `ordinal` (0-based) for `app`: chained on the previous
    // refill and on the request that captured its snapshot epoch, so
    // Find() hits and the park precedes the take that depends on it.
    auto submit_refill = [&](size_t app, size_t ordinal) {
      AppState& s = states[app];
      WorkStealingScheduler::TaskSpec spec;
      spec.label = "refill:" + s.app + "#" + std::to_string(ordinal);
      spec.home = static_cast<int>((app + ordinal) % sched_options.workers);
      if (ordinal > 0) {
        spec.deps.push_back(refill_ids[app][ordinal - 1]);
      }
      const int epoch = s.refill_epochs[ordinal];
      auto owner = s.capture_request.find(epoch);
      if (owner != s.capture_request.end()) {
        spec.deps.push_back(request_ids[owner->second]);
      }
      const Nanos cost = s.restore;
      const std::string key = s.key;
      const std::string app_name = s.app;
      spec.body = [&snapshots, &pool, &try_admit, &x_refill, &x_diverge, key, app_name,
                   cost]() -> Nanos {
        core::SnapshotCache::SnapshotPtr snap = snapshots.Find(key);
        if (snap == nullptr) {
          x_diverge.fetch_add(1, std::memory_order_relaxed);
          return cost;
        }
        vmm::Grant grant = try_admit(app_name);
        auto restored = vmm::Vm::Restore(*snap);
        if (!restored.ok()) {
          snapshots.RecordRestore(*snap, false);
          x_diverge.fetch_add(1, std::memory_order_relaxed);
          return cost;
        }
        snapshots.RecordRestore(*snap, true);
        x_refill.fetch_add(1, std::memory_order_relaxed);
        pool.Park(app_name, {restored.take(), std::move(grant), snap->restore_ns});
        return cost;
      };
      refill_ids[app].push_back(scheduler.Submit(std::move(spec)));
    };

    for (size_t i = 0; i < trace.size(); ++i) {
      const Request& r = trace[i];
      const size_t app = app_index.at(r.app);
      AppState& s = states[app];
      const Planned& p = plan[i];
      if (p.path == Planned::kWarm) {
        // The k-th warm take rides on the k-th successful refill.
        while (refill_ids[app].size() < p.warm_ordinal) {
          submit_refill(app, refill_ids[app].size());
        }
      }
      WorkStealingScheduler::TaskSpec spec;
      spec.label = "req:" + r.app + "#" + std::to_string(i);
      spec.home = static_cast<int>(i % sched_options.workers);
      spec.release = r.arrival;  // Open-loop arrival, replay-level gating.
      if (p.path == Planned::kWarm) {
        spec.deps.push_back(refill_ids[app][p.warm_ordinal - 1]);
      } else if (p.path == Planned::kRestore) {
        auto owner = s.capture_request.find(p.epoch);
        if (owner != s.capture_request.end()) {
          spec.deps.push_back(request_ids[owner->second]);
        }
      }
      const Planned::Path path = p.path;
      const bool capture = p.capture;
      const Nanos latency = p.latency;
      const std::string key = s.key;
      const std::string app_name = r.app;
      core::KernelCache::ArtifactPtr artifact = s.artifact;
      const Bytes memory = options.memory;
      spec.body = [&snapshots, &pool, &try_admit, &x_warm, &x_restore, &x_cold,
                   &x_capture, &x_diverge, path, capture, latency, key, app_name,
                   artifact, memory]() -> Nanos {
        vmm::Grant grant = try_admit(app_name);
        switch (path) {
          case Planned::kWarm: {
            auto guest = pool.TryTake(app_name);
            if (!guest.has_value()) {
              x_diverge.fetch_add(1, std::memory_order_relaxed);
              break;
            }
            x_warm.fetch_add(1, std::memory_order_relaxed);
            // The parked guest serves this request and dies with it (its
            // grant releases here too).
            break;
          }
          case Planned::kRestore: {
            core::SnapshotCache::SnapshotPtr snap = snapshots.Find(key);
            if (snap == nullptr) {
              x_diverge.fetch_add(1, std::memory_order_relaxed);
              break;
            }
            auto restored = vmm::Vm::Restore(*snap);
            snapshots.RecordRestore(*snap, restored.ok());
            if (!restored.ok()) {
              x_diverge.fetch_add(1, std::memory_order_relaxed);
              break;
            }
            x_restore.fetch_add(1, std::memory_order_relaxed);
            break;
          }
          case Planned::kRestoreFailCold:
          case Planned::kCold: {
            auto vm = artifact->Launch(memory);
            if (Status st = vm->Boot(); !st.ok()) {
              x_diverge.fetch_add(1, std::memory_order_relaxed);
              break;
            }
            x_cold.fetch_add(1, std::memory_order_relaxed);
            if (capture && !snapshots.Contains(key)) {
              auto captured = vm->Capture(key, app_name);
              if (captured.ok()) {
                snapshots.Put(captured.take());
                x_capture.fetch_add(1, std::memory_order_relaxed);
              }
            }
            break;
          }
        }
        return latency;
      };
      request_ids[i] = scheduler.Submit(std::move(spec));
    }
    // Refills the DES scheduled past the last warm take still run — they
    // park the steady-state pool nobody happened to claim.
    for (size_t app = 0; app < states.size(); ++app) {
      while (refill_ids[app].size() < states[app].refill_epochs.size()) {
        submit_refill(app, refill_ids[app].size());
      }
    }

    const WorkStealingScheduler::Report report = scheduler.Run();
    result.steals = report.steals;
    result.exec_makespan = report.makespan;
    result.exec_warm_takes = x_warm.load();
    result.exec_restores = x_restore.load();
    result.exec_cold_boots = x_cold.load();
    result.exec_captures = x_capture.load();
    result.exec_refills = x_refill.load();
    result.exec_divergence = x_diverge.load();
    result.exec_admission_denied = x_denied.load();
  }

  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();

  if (options.metrics != nullptr) {
    telemetry::MetricRegistry& m = *options.metrics;
    m.GetCounter("serve.requests").Increment(result.requests);
    m.GetCounter("serve.warm_hits").Increment(result.warm_hits);
    m.GetCounter("serve.restores").Increment(result.restores);
    m.GetCounter("serve.cold_boots").Increment(result.cold_boots);
    m.GetCounter("serve.captures").Increment(result.captures);
    m.GetCounter("serve.refills").Increment(result.refills);
    m.GetCounter("serve.restore_failures").Increment(result.restore_failures);
    m.GetCounter("serve.queue_waits").Increment(result.queue_waits);
    for (const RequestRecord& rec : result.records) {
      m.GetHistogram("serve.ttfr_ns", {{"app", rec.app}})
          .Observe(static_cast<double>(rec.ttfr));
    }
    // Basis points: gauges are integers.
    m.GetGauge("serve.warm_hit_bp")
        .Set(static_cast<int64_t>(result.warm_hit_ratio * 10000.0));
    m.GetGauge("serve.ttfr_p50_ns").Set(static_cast<int64_t>(result.ttfr_p50));
    m.GetGauge("serve.ttfr_p99_ns").Set(static_cast<int64_t>(result.ttfr_p99));
    snapshots.PublishMetrics(m);
  }
  return result;
}

}  // namespace lupine::serve

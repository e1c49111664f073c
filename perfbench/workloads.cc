#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <utility>

#include "src/apps/builtin.h"
#include "src/apps/manifest.h"
#include "src/core/fleet_boot.h"
#include "src/core/multik.h"
#include "src/core/snapshot_cache.h"
#include "src/kconfig/presets.h"
#include "src/serve/front_door.h"
#include "src/serve/loadgen.h"
#include "src/telemetry/metrics.h"
#include "src/unikernels/linux_system.h"
#include "src/util/fiber.h"
#include "src/util/prng.h"
#include "src/util/stats.h"
#include "src/workload/app_bench.h"

namespace lupine::perfbench {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string Format(const char* fmt, double a, double b = 0, double c = 0, double d = 0) {
  char line[256];
  std::snprintf(line, sizeof(line), fmt, a, b, c, d);
  return line;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// --- keepalive / conn_churn: Table 4 legs on long-lived servers -------------

constexpr Bytes kServerMemory = 512 * kMiB;
constexpr int kClientRunsPerServer = 10;
constexpr int kRedisOps = 3000;        // Per client run, over kRedisConnections.
constexpr int kRedisConnections = 8;
constexpr int kRedisValueBytes = 64;
constexpr int kSessRequests = 2000;    // ab nginx-sess: 20 connections x 100.
constexpr int kSessPerConnection = 100;
constexpr int kChurnConnections = 400; // ab nginx-conn: one request each.

enum class Leg { kRedisGet, kRedisSet, kNginxConn, kNginxSess };
constexpr int kNumLegs = 4;

struct LegInfo {
  const char* name;
  double paper_ratio;  // Paper Table 4: lupine / microVM.
};
const LegInfo& Info(Leg leg) {
  static const LegInfo kInfo[kNumLegs] = {
      {"redis-get", 1.21}, {"redis-set", 1.22}, {"nginx-conn", 1.33}, {"nginx-sess", 1.14}};
  return kInfo[static_cast<int>(leg)];
}

// Requests one client run of `leg` attempts.
uint64_t Attempted(Leg leg) {
  switch (leg) {
    case Leg::kRedisGet:
    case Leg::kRedisSet:
      return kRedisOps;
    case Leg::kNginxConn:
      return kChurnConnections;
    case Leg::kNginxSess:
      return kSessRequests;
  }
  return 0;
}

// One server and the ten client runs it receives.
struct ServerPlan {
  std::string app;
  std::vector<Leg> runs;
};

struct ClientRun {
  size_t variant = 0;
  Leg leg = Leg::kRedisGet;
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t errors = 0;
  double virt_rps = 0.0;
  int64_t host_ns = 0;
  uint64_t syscalls = 0;
  uint64_t virt_syscall_ns = 0;
  uint64_t ctx_switches = 0;
  uint64_t epoll_waits = 0;
};

struct KernelCounters {
  uint64_t syscalls = 0;
  uint64_t virt_syscall_ns = 0;
  uint64_t ctx_switches = 0;
  uint64_t epoll_waits = 0;
};

KernelCounters ReadCounters(guestos::Kernel& kernel) {
  KernelCounters out;
  for (const guestos::SyscallStat& stat : kernel.trace().syscall_stats()) {
    out.syscalls += stat.count;
    out.virt_syscall_ns += stat.total_ns;
  }
  const auto& stats = kernel.trace().syscall_stats();
  out.epoll_waits = stats[static_cast<size_t>(kbuild::Sys::kEpollWait)].count +
                    stats[static_cast<size_t>(kbuild::Sys::kEpollPwait)].count;
  out.ctx_switches = kernel.sched().stats().context_switches;
  return out;
}

class AppServerWorkload : public Workload {
 public:
  AppServerWorkload(std::vector<ServerPlan> plans, std::vector<Leg> legs, size_t rss_rounds)
      : plans_(std::move(plans)), legs_(std::move(legs)), rss_rounds_(rss_rounds) {}

  size_t RssIterations() const override { return rss_rounds_; }

  bool Setup(RunContext& ctx) override {
    systems_.push_back(std::make_unique<unikernels::LinuxSystem>(unikernels::LupineSpec()));
    systems_.push_back(std::make_unique<unikernels::LinuxSystem>(unikernels::MicrovmSpec()));
    return MakeServers(ctx);
  }

  Sample Iterate(RunContext& ctx) override {
    if (servers_.empty() && !MakeServers(ctx)) {
      // Every client run of the round is lost.
      uint64_t planned = 0;
      for (const ServerPlan& plan : plans_) {
        for (Leg leg : plan.runs) {
          planned += systems_.size() * Attempted(leg);
        }
      }
      ledger_.AddRun(planned, planned, false);
      servers_.clear();
      return {};
    }
    Sample sample;
    std::vector<ClientRun> runs;
    for (Server& server : servers_) {
      const size_t first = runs.size();
      for (Leg leg : server.plan->runs) {
        runs.push_back(RunClient(ctx, server, leg));
      }
      // Host cost growth of each leg on this server: its last client run
      // against its first, so a server alternating GET and SET compares GET
      // with GET.
      for (Leg leg : legs_) {
        const ClientRun* a = nullptr;
        const ClientRun* b = nullptr;
        for (size_t i = first; i < runs.size(); ++i) {
          if (runs[i].leg == leg) {
            a = a == nullptr ? &runs[i] : a;
            b = &runs[i];
          }
        }
        if (a != b && a->completed > 0 && b->completed > 0) {
          growth_[leg].push_back(Ratio(static_cast<double>(b->host_ns) / b->completed,
                                       static_cast<double>(a->host_ns) / a->completed));
        }
      }
    }
    // The simulation is deterministic: every round must reproduce round 0's
    // simulated figures exactly.
    Digest round;
    for (const ClientRun& run : runs) {
      round.AddText(std::string(Info(run.leg).name) + "/" + std::to_string(run.variant));
      round.Add("rps", run.virt_rps);
      round.Add("completed", static_cast<int64_t>(run.completed));
      round.Add("syscalls", static_cast<int64_t>(run.syscalls));
      round.Add("virt_ns", static_cast<int64_t>(run.virt_syscall_ns));
      round.Add("switches", static_cast<int64_t>(run.ctx_switches));
    }
    if (reference_runs_.empty()) {
      reference_runs_ = runs;
      reference_digest_ = round.value();
    }
    const bool deterministic = round.value() == reference_digest_;
    size_t index = 0;
    for (const Server& server : servers_) {
      for (size_t r = 0; r < server.plan->runs.size(); ++r, ++index) {
        const ClientRun& run = runs[index];
        const bool ok = server.ready && deterministic && run.errors == 0 &&
                        run.completed == run.attempted;
        ledger_.AddRun(run.attempted,
                       run.errors + run.attempted - std::min(run.completed, run.attempted), ok);
        sample.ops += run.completed;
        sample.host_ns += run.host_ns;
      }
    }
    if (!deterministic) {
      ++nondeterministic_rounds_;
    }
    all_runs_.insert(all_runs_.end(), runs.begin(), runs.end());
    servers_.clear();  // Each server serves exactly ten client runs.
    return sample;
  }

  void Finish(RunContext& ctx, Report& report) override {
    report.ledger = ledger_;
    report.ledger.AddCheck("every round reproduces round 0's simulated figures",
                           nondeterministic_rounds_ == 0);
    report.ledger.AddCheck("every server printed its ready line", all_ready_);

    // Simulated figures come from round 0 (fixed work, deterministic).
    std::map<std::pair<size_t, Leg>, std::pair<double, double>> legs;  // requests, virt s
    KernelCounters variant_totals[2];
    uint64_t variant_requests[2] = {0, 0};
    for (const ClientRun& run : reference_runs_) {
      auto& [requests, seconds] = legs[{run.variant, run.leg}];
      requests += static_cast<double>(run.completed);
      seconds += run.virt_rps > 0 ? static_cast<double>(run.completed) / run.virt_rps : 0.0;
      variant_totals[run.variant].syscalls += run.syscalls;
      variant_totals[run.variant].virt_syscall_ns += run.virt_syscall_ns;
      variant_requests[run.variant] += run.completed;
    }
    std::vector<double> lupine_rps;
    double err_sum = 0.0;
    for (Leg leg : legs_) {
      const auto& [lr, ls] = legs[{0, leg}];
      const auto& [mr, ms] = legs[{1, leg}];
      const double lupine = Ratio(lr, ls);
      const double microvm = Ratio(mr, ms);
      const double ratio = Ratio(lupine, microvm);
      const double err = std::fabs(ratio - Info(leg).paper_ratio) / Info(leg).paper_ratio * 100;
      lupine_rps.push_back(lupine);
      err_sum += err;
      report.digest.Add(std::string(Info(leg).name) + ".lupine", lupine);
      report.digest.Add(std::string(Info(leg).name) + ".microvm", microvm);
      report.lines.push_back(std::string(Info(leg).name) +
                             Format(": lupine %.1f req/virt_s, microvm %.1f req/virt_s, "
                                    "lupine/microvm %.2f (paper %.2f)",
                                    lupine, microvm, ratio, Info(leg).paper_ratio));
    }
    const double virt_req_per_s = GeoMean(lupine_rps);
    const double virt_err = legs_.empty() ? 0.0 : err_sum / static_cast<double>(legs_.size());
    report.virt_ops_per_s = virt_req_per_s;
    report.lines.push_back(Format("virt_req_per_s = %.1f req/virt_s (lupine, geomean over legs)",
                                  virt_req_per_s));
    report.lines.push_back(
        Format("virt_err_vs_paper_pct = %.3f %% (mean |ratio - paper| / paper)", virt_err));
    for (double ms : boot_virt_ms_) {
      report.digest.Add("to_init_ms", ms);
    }
    report.digest.Add("round0", static_cast<int64_t>(reference_digest_));

    // Per-layer metrics.
    KernelCounters all;
    uint64_t requests = 0;
    int64_t host_ns = 0;
    uint64_t errors = 0;
    for (const ClientRun& run : all_runs_) {
      all.syscalls += run.syscalls;
      all.ctx_switches += run.ctx_switches;
      all.epoll_waits += run.epoll_waits;
      requests += run.completed;
      host_ns += run.host_ns;
      errors += run.errors;
    }
    auto& layer = report.layer;
    layer.push_back({"guestos.host_ns_per_syscall",
                     Ratio(static_cast<double>(host_ns), static_cast<double>(all.syscalls)),
                     "ns"});
    for (Leg leg : legs_) {
      layer.push_back({std::string("guestos.host_cost_growth.") + Info(leg).name,
                       Percentile(growth_[leg], 50), "ratio"});
    }
    layer.push_back({"guestos.epoll_waits_per_req",
                     Ratio(static_cast<double>(all.epoll_waits), static_cast<double>(requests)),
                     "count"});
    layer.push_back({"guestos.ctx_switches_per_req",
                     Ratio(static_cast<double>(all.ctx_switches), static_cast<double>(requests)),
                     "count"});
    const char* variant_names[2] = {"lupine", "microvm"};
    for (size_t v = 0; v < 2; ++v) {
      const double per_req = Ratio(static_cast<double>(variant_totals[v].syscalls),
                                   static_cast<double>(variant_requests[v]));
      const double virt_ns = Ratio(static_cast<double>(variant_totals[v].virt_syscall_ns),
                                   static_cast<double>(variant_totals[v].syscalls));
      layer.push_back({std::string("guestos.syscalls_per_req.") + variant_names[v], per_req,
                       "count"});
      layer.push_back({std::string("guestos.virt_ns_per_syscall.") + variant_names[v], virt_ns,
                       "virt_ns"});
    }
    layer.push_back({"util.fiber_share",
                     Ratio(static_cast<double>(all.ctx_switches) * ctx.fiber_round_trip_ns,
                           static_cast<double>(host_ns)),
                     "ratio"});
    layer.push_back({"unikernels.make_vm_ms", Percentile(make_vm_ms_, 50), "ms"});
    layer.push_back({"workload.host_us_per_req",
                     Ratio(static_cast<double>(host_ns) / 1e3, static_cast<double>(requests)),
                     "us"});
    layer.push_back({"workload.errors", static_cast<double>(errors), "count"});
    layer.push_back({"workload.virt_req_per_s", virt_req_per_s, "req/virt_s"});
    layer.push_back({"workload.virt_err_vs_paper_pct", virt_err, "%"});
    layer.push_back({"workload.boot_app_server_us", Percentile(boot_app_server_us_, 50), "us"});
    layer.push_back({"vmm.boot_virt_ms", Percentile(boot_virt_ms_, 50), "virt_ms"});
  }

 private:
  struct Server {
    std::unique_ptr<vmm::Vm> vm;
    size_t variant = 0;
    const ServerPlan* plan = nullptr;
    bool ready = false;
  };

  // Builds and boots one server per (variant, plan) to its ready line.
  bool MakeServers(RunContext& ctx) {
    for (size_t v = 0; v < systems_.size(); ++v) {
      for (const ServerPlan& plan : plans_) {
        const uint64_t op = ctx.spans.NewOp();
        const int64_t t0 = NowNs();
        Result<std::unique_ptr<vmm::Vm>> vm = Status(Err::kInval, "not built");
        {
          SpanRecorder::Scope span(ctx.spans, "unikernels", "LinuxSystem::MakeVm", op);
          vm = systems_[v]->MakeVm(plan.app, kServerMemory);
        }
        const int64_t t1 = NowNs();
        if (!vm.ok()) {
          std::fprintf(stderr, "perfbench: MakeVm(%s): %s\n", plan.app.c_str(),
                       vm.status().ToString().c_str());
          return false;
        }
        Server server;
        server.vm = vm.take();
        server.variant = v;
        server.plan = &plan;
        const apps::AppManifest* manifest = apps::FindManifest(plan.app);
        {
          SpanRecorder::Scope span(ctx.spans, "workload", "BootAppServer", op);
          server.ready = manifest != nullptr &&
                         workload::BootAppServer(*server.vm, manifest->ready_line);
        }
        const int64_t t2 = NowNs();
        all_ready_ = all_ready_ && server.ready;
        make_vm_ms_.push_back(static_cast<double>(t1 - t0) / 1e6);
        boot_app_server_us_.push_back(static_cast<double>(t2 - t1) / 1e3);
        if (boot_virt_ms_.size() < systems_.size() * plans_.size()) {
          boot_virt_ms_.push_back(ToMillis(server.vm->boot_report().to_init));
        }
        servers_.push_back(std::move(server));
      }
    }
    return true;
  }

  ClientRun RunClient(RunContext& ctx, Server& server, Leg leg) {
    guestos::Kernel& kernel = server.vm->kernel();
    const KernelCounters before = ReadCounters(kernel);
    const uint64_t op = ctx.spans.NewOp();
    ClientRun run;
    run.variant = server.variant;
    run.leg = leg;
    workload::ThroughputResult result;
    run.attempted = Attempted(leg);
    if (!server.ready) {
      return run;  // Nothing completes on a server that never came up.
    }
    const int64_t t0 = NowNs();
    {
      SpanRecorder::Scope span(ctx.spans, "workload", Info(leg).name, op);
      switch (leg) {
        case Leg::kRedisGet:
        case Leg::kRedisSet:
          result = workload::RunRedisBenchmark(*server.vm, leg == Leg::kRedisSet, kRedisOps,
                                               kRedisConnections, kRedisValueBytes);
          break;
        case Leg::kNginxConn:
          result = workload::RunApacheBench(*server.vm, kChurnConnections, 1);
          break;
        case Leg::kNginxSess:
          result = workload::RunApacheBench(*server.vm, kSessRequests, kSessPerConnection);
          break;
      }
    }
    run.host_ns = NowNs() - t0;
    const KernelCounters after = ReadCounters(kernel);
    run.completed = result.completed;
    run.errors = result.errors;
    run.virt_rps = result.requests_per_sec;
    run.syscalls = after.syscalls - before.syscalls;
    run.virt_syscall_ns = after.virt_syscall_ns - before.virt_syscall_ns;
    run.ctx_switches = after.ctx_switches - before.ctx_switches;
    run.epoll_waits = after.epoll_waits - before.epoll_waits;
    return run;
  }

  std::vector<ServerPlan> plans_;
  std::vector<Leg> legs_;  // Legs compared against Table 4.
  size_t rss_rounds_;
  std::vector<std::unique_ptr<unikernels::LinuxSystem>> systems_;  // lupine, microvm.
  std::vector<Server> servers_;  // The current round's servers.

  ErrorLedger ledger_;
  bool all_ready_ = true;
  std::vector<ClientRun> reference_runs_;  // Round 0.
  uint64_t reference_digest_ = 0;
  size_t nondeterministic_rounds_ = 0;
  std::vector<ClientRun> all_runs_;
  std::map<Leg, std::vector<double>> growth_;
  std::vector<double> make_vm_ms_;
  std::vector<double> boot_app_server_us_;
  std::vector<double> boot_virt_ms_;
};

std::unique_ptr<Workload> MakeKeepalive() {
  ServerPlan redis{"redis", {}};
  for (int i = 0; i < kClientRunsPerServer; ++i) {
    redis.runs.push_back(i % 2 == 0 ? Leg::kRedisGet : Leg::kRedisSet);
  }
  ServerPlan nginx{"nginx", std::vector<Leg>(kClientRunsPerServer, Leg::kNginxSess)};
  return std::make_unique<AppServerWorkload>(
      std::vector<ServerPlan>{redis, nginx},
      std::vector<Leg>{Leg::kRedisGet, Leg::kRedisSet, Leg::kNginxSess}, /*rss_rounds=*/6);
}

std::unique_ptr<Workload> MakeConnChurn() {
  ServerPlan nginx{"nginx", std::vector<Leg>(kClientRunsPerServer, Leg::kNginxConn)};
  return std::make_unique<AppServerWorkload>(std::vector<ServerPlan>{nginx},
                                             std::vector<Leg>{Leg::kNginxConn},
                                             /*rss_rounds=*/6);
}

// --- fleet_provision: cold top-20 provisioning -------------------------------

constexpr size_t kHostWorkers = 4;
constexpr size_t kFleetRounds = 2;

double StageMs(telemetry::MetricRegistry& registry, const char* stage) {
  return registry.GetHistogram("build.stage_ns", {{"stage", stage}}).Snapshot().sum / 1e6;
}

double CounterRatio(telemetry::MetricRegistry& registry, const char* num, const char* den) {
  return Ratio(static_cast<double>(registry.GetCounter(num).value()),
               static_cast<double>(registry.GetCounter(den).value()));
}

// Simulated fleet figures. `worker_independent` keeps only those the
// determinism contract promises across worker counts.
std::string FleetFigures(const core::FleetBootResult& r, bool worker_independent) {
  Digest d;
  d.Add("boots", static_cast<int64_t>(r.boots));
  d.Add("failures", static_cast<int64_t>(r.failures));
  d.Add("virtual_boot_total", static_cast<int64_t>(r.virtual_boot_total));
  d.Add("captures", static_cast<int64_t>(r.snapshot_captures));
  d.Add("restores", static_cast<int64_t>(r.snapshot_restores));
  d.Add("restore_total", static_cast<int64_t>(r.virtual_restore_total));
  d.Add("coldboot_total", static_cast<int64_t>(r.virtual_coldboot_total));
  d.Add("retries", static_cast<int64_t>(r.retries));
  for (const std::string& line : r.fault_log) {
    d.AddText(line + "\n");
  }
  if (!worker_independent) {
    d.Add("makespan", static_cast<int64_t>(r.virtual_makespan));
    d.Add("steals", static_cast<int64_t>(r.steals));
    for (Nanos busy : r.worker_virtual) {
      d.Add("worker_virtual", static_cast<int64_t>(busy));
    }
  }
  return d.Hex();
}

class FleetProvision : public Workload {
 public:
  size_t HostThreads() const override { return kHostWorkers; }
  size_t RssIterations() const override { return 50; }

  bool Setup(RunContext& ctx) override {
    // Lazily built statics: app registry, option DB and presets.
    apps::RegisterBuiltinApps();
    (void)kconfig::MicrovmConfig();
    (void)kconfig::LupineBase();
    apps_ = kconfig::Top20AppNames();
    Prng prng(ctx.seed);
    for (size_t i = apps_.size(); i > 1; --i) {
      std::swap(apps_[i - 1], apps_[prng.NextBelow(i)]);
    }
    return !apps_.empty();
  }

  Sample Iterate(RunContext& ctx) override {
    std::unique_ptr<telemetry::MetricRegistry> registry;
    if (ctx.tracing()) {
      registry = std::make_unique<telemetry::MetricRegistry>();
    }
    core::KernelCache cache;
    core::SnapshotCache snapshots;
    cache.set_metrics(registry.get());
    snapshots.set_metrics(registry.get());
    core::FleetBootOptions options = Options(kHostWorkers);
    options.snapshots = &snapshots;
    options.metrics = registry.get();

    const uint64_t attempted = apps_.size() * kFleetRounds;
    const uint64_t op = ctx.spans.NewOp();
    const int64_t t0 = NowNs();
    Result<core::FleetBootResult> result = Status(Err::kInval, "not run");
    {
      SpanRecorder::Scope span(ctx.spans, "core", "RunFleetBoot", op);
      result = core::RunFleetBoot(cache, options);
    }
    Sample sample;
    sample.host_ns = NowNs() - t0;
    if (!result.ok()) {
      std::fprintf(stderr, "perfbench: RunFleetBoot: %s\n", result.status().ToString().c_str());
      ledger_.AddRun(attempted, attempted, false);
      return sample;
    }
    const core::FleetBootResult& r = result.value();
    const std::string figures = FleetFigures(r, false);
    if (!reference_) {
      reference_ = r;
      reference_figures_ = figures;
    }
    const bool ok = r.failures == 0 && r.boots == attempted && figures == reference_figures_;
    ledger_.AddRun(attempted, attempted - std::min<uint64_t>(r.boots, attempted), ok);
    sample.ops = r.boots;
    fleet_ms_.push_back(static_cast<double>(sample.host_ns) / 1e6);

    if (registry && !traced_) {
      traced_ = true;
      auto& layer = layer_;
      layer.push_back({"kconfig.resolve_ms", StageMs(*registry, "resolve"), "ms"});
      layer.push_back({"kbuild.build_ms", StageMs(*registry, "build"), "ms"});
      layer.push_back({"kbuild.kernel_builds", static_cast<double>(cache.stats().builds),
                       "count"});
      layer.push_back({"apps.rootfs_ms", StageMs(*registry, "load-rootfs"), "ms"});
      const apps::RootfsCache::Stats rootfs = cache.rootfs_stats();
      layer.push_back({"apps.rootfs_hit_ratio",
                       Ratio(static_cast<double>(rootfs.hits),
                             static_cast<double>(rootfs.requests)),
                       "ratio"});
      layer.push_back({"core.kernel_cache_hit_ratio",
                       CounterRatio(*registry, "kernelcache.app_hits", "kernelcache.requests"),
                       "ratio"});
      const core::SnapshotCache::Stats snaps = snapshots.stats();
      layer.push_back({"core.snapshot_hit_ratio",
                       Ratio(static_cast<double>(snaps.hits),
                             static_cast<double>(snaps.hits + snaps.misses)),
                       "ratio"});
    }
    return sample;
  }

  void Finish(RunContext& /*ctx*/, Report& report) override {
    report.ledger = ledger_;
    if (!reference_) {
      return;
    }
    const core::FleetBootResult& r = *reference_;
    // The determinism contract: a 1-worker replay yields the same
    // worker-independent figures as the 4-worker iterations.
    core::KernelCache cache;
    core::SnapshotCache snapshots;
    core::FleetBootOptions options = Options(1);
    options.snapshots = &snapshots;
    auto replay = core::RunFleetBoot(cache, options);
    report.ledger.AddCheck("fleet 1-worker replay matches the 4-worker figures",
                           replay.ok() && FleetFigures(*replay, true) == FleetFigures(r, true));

    const double makespan_s = ToSeconds(r.virtual_makespan);
    report.virt_ops_per_s = Ratio(static_cast<double>(r.boots), makespan_s);
    report.digest.AddText(FleetFigures(r, false));
    std::string order = "fleet app order:";
    for (const std::string& app : apps_) {
      order += " " + app;
    }
    report.lines.push_back(order);
    report.lines.push_back(Format("virt_makespan_s = %.6f virt_s (%.0f launches, %.0f workers)",
                                  makespan_s, static_cast<double>(r.boots),
                                  static_cast<double>(kHostWorkers)));
    report.lines.push_back(Format("launches: %.0f cold boots + captures, %.0f restores",
                                  static_cast<double>(r.snapshot_captures),
                                  static_cast<double>(r.snapshot_restores)));

    Nanos busy = 0;
    for (Nanos w : r.worker_virtual) {
      busy += w;
    }
    const size_t cold = r.boots - std::min(r.boots, r.snapshot_restores);
    auto& layer = report.layer;
    layer = layer_;
    layer.push_back({"core.fleet_ms", Percentile(fleet_ms_, 50), "ms"});
    layer.push_back({"core.snapshot_captures", static_cast<double>(r.snapshot_captures),
                     "count"});
    layer.push_back({"core.snapshot_restores", static_cast<double>(r.snapshot_restores),
                     "count"});
    layer.push_back({"core.fleet_busy_share",
                     Ratio(static_cast<double>(busy),
                           static_cast<double>(kHostWorkers) *
                               static_cast<double>(r.virtual_makespan)),
                     "ratio"});
    layer.push_back({"core.fleet_failures", static_cast<double>(r.failures), "count"});
    layer.push_back({"core.fleet_retries", static_cast<double>(r.retries), "count"});
    layer.push_back({"core.virt_makespan_s", makespan_s, "virt_s"});
    layer.push_back({"util.sched_steals", static_cast<double>(r.steals), "count"});
    layer.push_back({"vmm.boot_virt_ms",
                     Ratio(ToMillis(r.virtual_coldboot_total), static_cast<double>(cold)),
                     "virt_ms"});
    layer.push_back({"vmm.restore_virt_ms",
                     Ratio(ToMillis(r.virtual_restore_total),
                           static_cast<double>(r.snapshot_restores)),
                     "virt_ms"});
  }

 private:
  core::FleetBootOptions Options(size_t workers) const {
    core::FleetBootOptions options;
    options.apps = apps_;
    options.workers = workers;
    options.rounds = kFleetRounds;
    options.schedule = core::FleetSchedule::kPipelined;
    return options;
  }

  std::vector<std::string> apps_;  // Top-20, in seeded order.
  ErrorLedger ledger_;
  std::optional<core::FleetBootResult> reference_;  // The first iteration.
  std::string reference_figures_;
  std::vector<double> fleet_ms_;
  bool traced_ = false;
  std::vector<Metric> layer_;  // From the first traced iteration.
};

// --- serve_openloop: open-loop serving at three fixed rates -----------------

constexpr double kSloMs = 10.0;
constexpr Nanos kServeWindow = Seconds(20);

struct RateSpec {
  const char* name;
  double rate;  // Aggregate requests per virtual second.
};
constexpr RateSpec kRates[] = {{"low", 250.0}, {"mid", 750.0}, {"high", 1500.0}};
constexpr size_t kNumRates = sizeof(kRates) / sizeof(kRates[0]);

// Tenants nginx:redis:postgres at 2:2:1 of the aggregate rate.
std::vector<serve::TenantSpec> Tenants(double rate) {
  return {{"nginx", rate * 0.4}, {"redis", rate * 0.4}, {"postgres", rate * 0.2}};
}

// Every deterministic serving figure and per-request record.
uint64_t ServeFigures(const serve::ServeResult& r) {
  Digest d;
  d.Add("requests", static_cast<int64_t>(r.requests));
  d.Add("warm", static_cast<int64_t>(r.warm_hits));
  d.Add("restores", static_cast<int64_t>(r.restores));
  d.Add("cold", static_cast<int64_t>(r.cold_boots));
  d.Add("captures", static_cast<int64_t>(r.captures));
  d.Add("refills", static_cast<int64_t>(r.refills));
  d.Add("restore_failures", static_cast<int64_t>(r.restore_failures));
  d.Add("queue_waits", static_cast<int64_t>(r.queue_waits));
  d.Add("p50", static_cast<int64_t>(r.ttfr_p50));
  d.Add("p99", static_cast<int64_t>(r.ttfr_p99));
  d.Add("max", static_cast<int64_t>(r.ttfr_max));
  d.Add("qp99", static_cast<int64_t>(r.queue_wait_p99));
  d.Add("end", static_cast<int64_t>(r.virtual_end));
  for (const serve::AppServeCost& cost : r.costs) {
    d.AddText(cost.app);
    d.Add("cold_ns", static_cast<int64_t>(cost.cold_ns));
    d.Add("restore_ns", static_cast<int64_t>(cost.restore_ns));
  }
  for (const serve::RequestRecord& rec : r.records) {
    d.AddText(rec.app + rec.path);
    d.Add("arrival", static_cast<int64_t>(rec.arrival));
    d.Add("ttfr", static_cast<int64_t>(rec.ttfr));
  }
  return d.value();
}

class ServeOpenLoop : public Workload {
 public:
  size_t HostThreads() const override { return kHostWorkers; }
  size_t RssIterations() const override { return 3; }

  bool Setup(RunContext& ctx) override {
    if (ctx.trace_run) {
      cache_.set_metrics(&registry_);
    }
    for (const serve::TenantSpec& tenant : Tenants(1.0)) {
      SpanRecorder::Scope span(ctx.spans, "core", "KernelCache::GetOrBuild", ctx.spans.NewOp());
      if (auto artifact = cache_.GetOrBuild(tenant.app); !artifact.ok()) {
        std::fprintf(stderr, "perfbench: GetOrBuild(%s): %s\n", tenant.app.c_str(),
                     artifact.status().ToString().c_str());
        return false;
      }
    }
    for (size_t i = 0; i < kNumRates; ++i) {
      arrivals_[i] =
          serve::GenerateOpenLoopArrivals(Tenants(kRates[i].rate), kServeWindow, ctx.seed).size();
    }
    return true;
  }

  Sample Iterate(RunContext& ctx) override {
    Sample sample;
    for (size_t i = 0; i < kNumRates; ++i) {
      std::unique_ptr<telemetry::MetricRegistry> registry;
      if (ctx.tracing()) {
        registry = std::make_unique<telemetry::MetricRegistry>();
      }
      core::SnapshotCache snapshots;
      snapshots.set_metrics(registry.get());
      serve::ServeOptions options = Options(i, ctx.seed, kHostWorkers);
      options.metrics = registry.get();
      const uint64_t op = ctx.spans.NewOp();
      const int64_t t0 = NowNs();
      Result<serve::ServeResult> result = Status(Err::kInval, "not run");
      {
        SpanRecorder::Scope span(ctx.spans, "serve", "RunServing", op);
        result = serve::RunServing(cache_, snapshots, options);
      }
      const int64_t host_ns = NowNs() - t0;
      sample.host_ns += host_ns;
      if (!result.ok()) {
        std::fprintf(stderr, "perfbench: RunServing: %s\n", result.status().ToString().c_str());
        ledger_.AddRun(arrivals_[i], arrivals_[i], false);
        continue;
      }
      serve::ServeResult& r = result.value();
      const uint64_t figures = ServeFigures(r);
      if (!reference_[i]) {
        reference_figures_[i] = figures;
      }
      const uint64_t served = std::min<uint64_t>(r.records.size(), arrivals_[i]);
      const bool ok = r.exec_divergence == 0 && r.records.size() == r.requests &&
                      r.requests == arrivals_[i] && figures == reference_figures_[i];
      ledger_.AddRun(arrivals_[i], arrivals_[i] - served, ok);
      sample.ops += served;
      divergence_[i] += r.exec_divergence;
      if (ctx.tracing()) {
        call_ms_[i].push_back(static_cast<double>(host_ns) / 1e6);
        if (!traced_[i]) {
          traced_[i] = true;
          const core::SnapshotCache::Stats snaps = snapshots.stats();
          snapshot_hits_ += snaps.hits;
          snapshot_lookups_ += snaps.hits + snaps.misses;
          snapshot_captures_ += snaps.captures;
          snapshot_restores_ += snaps.restores;
          admission_denied_ += r.exec_admission_denied;
          steals_ += r.steals;
        }
      }
      if (!reference_[i]) {
        r.records.shrink_to_fit();
        reference_[i] = std::move(r);
      }
    }
    return sample;
  }

  void Finish(RunContext& ctx, Report& report) override {
    report.ledger = ledger_;
    for (size_t i = 0; i < kNumRates; ++i) {
      if (!reference_[i]) {
        return;
      }
    }
    // The determinism contract: a 1-worker replay of the low rate yields the
    // 4-worker figures.
    {
      core::SnapshotCache snapshots;
      auto replay = serve::RunServing(cache_, snapshots, Options(0, ctx.seed, 1));
      report.ledger.AddCheck("serve 1-worker replay matches the 4-worker figures",
                             replay.ok() && ServeFigures(*replay) == reference_figures_[0]);
    }

    auto& layer = report.layer;
    std::vector<RatePoint> points;
    double good = 0.0;
    std::vector<double> restore_ms;
    std::vector<double> cold_ms;
    for (size_t i = 0; i < kNumRates; ++i) {
      const serve::ServeResult& r = *reference_[i];
      const std::string rate = kRates[i].name;
      RatePoint point;
      point.rate = kRates[i].rate;
      for (const serve::RequestRecord& rec : r.records) {
        point.ttfr_ms.push_back(ToMillis(rec.ttfr));
        good += ToMillis(rec.ttfr) <= kSloMs ? 1.0 : 0.0;
      }
      point.failed = arrivals_[i] - std::min<size_t>(arrivals_[i], r.records.size());
      for (const telemetry::CounterSeries& track : r.counter_tracks) {
        if (track.name == "serve.queue_depth") {
          point.backlog_mid = TrackValueAt(track.points, kServeWindow / 2);
          point.backlog_end = TrackValueAt(track.points, kServeWindow);
        }
      }
      const QualifiedPercentile p50 = PercentileWithSupport(point.ttfr_ms, 50);
      const QualifiedPercentile p99 = PercentileWithSupport(point.ttfr_ms, 99);
      report.digest.Add("serve." + rate, static_cast<int64_t>(reference_figures_[i]));
      report.lines.push_back(
          "virt_ttfr_p50_ms." + rate +
          Format(" = %.3f virt_ms (p%.0f over %.0f requests, %.0f beyond)", p50.value,
                 static_cast<double>(p50.pct), static_cast<double>(p50.count),
                 static_cast<double>(p50.beyond)));
      report.lines.push_back(
          "virt_ttfr_p99_ms." + rate +
          Format(" = %.3f virt_ms (p%.0f over %.0f requests, %.0f beyond)", p99.value,
                 static_cast<double>(p99.pct), static_cast<double>(p99.count),
                 static_cast<double>(p99.beyond)));
      report.lines.push_back(
          rate + Format(": %.0f req/virt_s offered, warm-hit %.3f, queue depth %.0f at mid "
                        "-> %.0f at end",
                        kRates[i].rate, r.warm_hit_ratio, point.backlog_mid,
                        point.backlog_end));
      layer.push_back({"serve.requests." + rate, static_cast<double>(r.requests), "count"});
      layer.push_back({"serve.warm_hit_ratio." + rate, r.warm_hit_ratio, "ratio"});
      layer.push_back({"serve.queue_waits." + rate, static_cast<double>(r.queue_waits),
                       "count"});
      layer.push_back({"serve.queue_wait_p99_ms." + rate, ToMillis(r.queue_wait_p99),
                       "virt_ms"});
      layer.push_back({"serve.restores." + rate, static_cast<double>(r.restores), "count"});
      layer.push_back({"serve.refills." + rate, static_cast<double>(r.refills), "count"});
      layer.push_back({"serve.cold_boots." + rate, static_cast<double>(r.cold_boots),
                       "count"});
      layer.push_back({"serve.call_ms." + rate, Percentile(call_ms_[i], 50), "ms"});
      layer.push_back({"serve.divergence." + rate, static_cast<double>(divergence_[i]),
                       "count"});
      layer.push_back({"serve.virt_ttfr_p50_ms." + rate, p50.value, "virt_ms"});
      layer.push_back({"serve.virt_ttfr_p99_ms." + rate, p99.value, "virt_ms"});
      points.push_back(std::move(point));
      if (i == 0) {
        for (const serve::AppServeCost& cost : r.costs) {
          restore_ms.push_back(ToMillis(cost.restore_ns));
          cold_ms.push_back(ToMillis(cost.cold_ns));
        }
      }
    }
    const double max_rps = MaxRateAtSlo(points, kSloMs);
    report.virt_ops_per_s = good / (ToSeconds(kServeWindow) * kNumRates);
    report.lines.push_back(Format("virt_max_rps_at_slo = %.0f req/virt_s (p99 TTFR <= %.0f "
                                  "virt_ms, no growing backlog)",
                                  max_rps, kSloMs));
    report.lines.push_back(
        Format("SLO goodput = %.3f req/virt_s (requests within %.0f virt_ms over all rates)",
               report.virt_ops_per_s, kSloMs));
    report.lines.push_back(
        "generator lateness = 0 ms: TTFR counts from the scheduled arrival in the "
        "discrete-event simulation");
    layer.push_back({"serve.virt_max_rps_at_slo", max_rps, "req/virt_s"});
    layer.push_back({"util.sched_steals", static_cast<double>(steals_), "count"});
    layer.push_back({"vmm.restore_virt_ms", Percentile(restore_ms, 50), "virt_ms"});
    layer.push_back({"vmm.boot_virt_ms", Percentile(cold_ms, 50), "virt_ms"});
    layer.push_back({"vmm.admission_denied", static_cast<double>(admission_denied_), "count"});
    layer.push_back({"core.snapshot_hit_ratio",
                     Ratio(static_cast<double>(snapshot_hits_),
                           static_cast<double>(snapshot_lookups_)),
                     "ratio"});
    layer.push_back({"core.snapshot_captures", static_cast<double>(snapshot_captures_),
                     "count"});
    layer.push_back({"core.snapshot_restores", static_cast<double>(snapshot_restores_),
                     "count"});
    if (ctx.trace_run) {
      layer.push_back({"core.kernel_cache_hit_ratio",
                       CounterRatio(registry_, "kernelcache.app_hits", "kernelcache.requests"),
                       "ratio"});
      layer.push_back({"kconfig.resolve_ms", StageMs(registry_, "resolve"), "ms"});
      layer.push_back({"kbuild.build_ms", StageMs(registry_, "build"), "ms"});
      layer.push_back({"apps.rootfs_ms", StageMs(registry_, "load-rootfs"), "ms"});
    }
    layer.push_back({"kbuild.kernel_builds", static_cast<double>(cache_.stats().builds),
                     "count"});
    const apps::RootfsCache::Stats rootfs = cache_.rootfs_stats();
    layer.push_back({"apps.rootfs_hit_ratio",
                     Ratio(static_cast<double>(rootfs.hits), static_cast<double>(rootfs.requests)),
                     "ratio"});
  }

 private:
  serve::ServeOptions Options(size_t rate_index, uint64_t seed, size_t workers) const {
    serve::ServeOptions options;
    options.tenants = Tenants(kRates[rate_index].rate);
    options.duration = kServeWindow;
    options.seed = seed;
    options.workers = workers;
    return options;
  }

  telemetry::MetricRegistry registry_;  // Outlives cache_ (declared first).
  core::KernelCache cache_;
  size_t arrivals_[kNumRates] = {};
  ErrorLedger ledger_;
  std::optional<serve::ServeResult> reference_[kNumRates];  // First iteration.
  uint64_t reference_figures_[kNumRates] = {};
  size_t divergence_[kNumRates] = {};
  std::vector<double> call_ms_[kNumRates];
  bool traced_[kNumRates] = {};
  uint64_t snapshot_hits_ = 0;
  uint64_t snapshot_lookups_ = 0;
  uint64_t snapshot_captures_ = 0;
  uint64_t snapshot_restores_ = 0;
  size_t admission_denied_ = 0;
  size_t steals_ = 0;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"keepalive", "conn_churn", "fleet_provision",
                                                  "serve_openloop"};
  return kNames;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "keepalive") {
    return MakeKeepalive();
  }
  if (name == "conn_churn") {
    return MakeConnChurn();
  }
  if (name == "fleet_provision") {
    return std::make_unique<FleetProvision>();
  }
  if (name == "serve_openloop") {
    return std::make_unique<ServeOpenLoop>();
  }
  return nullptr;
}

double MeasureFiberRoundTripNs() {
  constexpr int kTrips = 20000;
  std::vector<double> per_trip;
  for (int repeat = 0; repeat < 5; ++repeat) {
    bool stop = false;
    Fiber fiber([&stop] {
      while (!stop) {
        Fiber::Yield();
      }
    });
    fiber.Resume();  // Enter the loop once before timing.
    const int64_t t0 = NowNs();
    for (int i = 0; i < kTrips; ++i) {
      fiber.Resume();
    }
    per_trip.push_back(static_cast<double>(NowNs() - t0) / kTrips);
    stop = true;
    fiber.Resume();
  }
  return Percentile(per_trip, 50);
}

}  // namespace lupine::perfbench

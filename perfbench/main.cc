// perfbench: one benchmark run of one workload.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--setup-only] [--trace-out <file>]
//
// Prints `perfbench: setup-done` once set-up finished (run.py times set-up
// from process start to that line). With --setup-only it then prints the
// host slowdown measured right after set-up and exits. Otherwise it measures
// for --seconds of host time, runs the output checks, prints the figures by
// name and ends with one JSON line of raw results for run.py. --trace 1
// alternates untraced and traced iterations: spans around every call into a
// layer, the simulator's metric sinks attached, per-layer metrics and the
// tracing overhead.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "calibrate.h"
#include "src/util/json.h"
#include "src/util/stats.h"
#include "workloads.h"

using namespace lupine;
using namespace lupine::perfbench;

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string trace_out;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\nusage: perfbench --workload <", why);
  for (size_t i = 0; i < WorkloadNames().size(); ++i) {
    std::fprintf(stderr, "%s%s", i ? "|" : "", WorkloadNames()[i].c_str());
  }
  std::fprintf(stderr,
               "> --seed <n> --seconds <s> --trace <0|1> [--setup-only] "
               "[--trace-out <file>]\n");
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      args.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      Usage(("bad value for " + flag).c_str());
    }
  }
  if (args.workload.empty()) {
    Usage("--workload is required");
  }
  return args;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// Ops per host second of each iteration; `rescaled` multiplies each by its
// host slowdown, giving the rate on a machine whose calibration kernel takes
// the nominal time (on a slower moment of the machine both slow down alike).
std::vector<double> IterationRates(const std::vector<Sample>& samples, bool traced,
                                   bool rescaled) {
  std::vector<double> rates;
  for (const Sample& s : samples) {
    if (s.traced == traced && s.host_ns > 0) {
      rates.push_back(static_cast<double>(s.ops) / (static_cast<double>(s.host_ns) / 1e9) *
                      (rescaled ? s.slowdown : 1.0));
    }
  }
  return rates;
}

// How often the window re-measures host speed (see calibrate.h).
constexpr int64_t kCalibrationEveryNs = 200'000'000;
// Calibration kernels timed after a --setup-only set-up.
constexpr int kSetupCalibrations = 3;

// Layers the benchmark opens spans into (see workloads.cc).
const char* const kSpanLayers[] = {"unikernels", "workload", "core", "serve"};

}  // namespace

int main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload);
  if (!workload) {
    Usage(("unknown workload " + args.workload).c_str());
  }
  RunContext ctx;
  ctx.seed = args.seed;
  ctx.trace_run = args.trace;
  ctx.spans.set_enabled(args.trace);
  if (!workload->Setup(ctx)) {
    std::fprintf(stderr, "perfbench: %s set-up failed\n", args.workload.c_str());
    return 1;
  }
  std::printf("perfbench: setup-done\n");
  std::fflush(stdout);
  if (args.setup_only) {
    // Host speed right after this set-up, so run.py can rescale its time
    // like ops_per_host_s (median of kSetupCalibrations kernels).
    std::vector<double> calibration_ns;
    for (int i = 0; i < kSetupCalibrations; ++i) {
      calibration_ns.push_back(static_cast<double>(MeasureCalibrationNs()));
    }
    std::printf("perfbench: setup-slowdown %.17g\n",
                Percentile(calibration_ns, 50) / kNominalCalibrationNs);
    return 0;
  }
  const size_t setup_spans = ctx.spans.spans().size();
  ctx.spans.set_enabled(false);
  if (args.trace) {
    ctx.fiber_round_trip_ns = MeasureFiberRoundTripNs();
  }

  // The measured window: whole iterations until --seconds of host time
  // passed. A traced run alternates untraced and traced iterations. Peak RSS
  // is read after a fixed number of iterations, so it does not depend on how
  // many iterations the host fits into the window. Host speed is calibrated
  // between iterations, at most every kCalibrationEveryNs, so the
  // calibrations sample the window evenly, and each iteration is rescaled by
  // the calibration taken last before it.
  std::vector<Sample> samples;
  std::vector<double> calibration_ns;
  int64_t last_calibration = 0;
  double peak_rss_mb = 0.0;
  const size_t rss_iterations = workload->RssIterations();
  const int64_t window_start = NowNs();
  const auto window_ns = static_cast<int64_t>(args.seconds * 1e9);
  do {
    if (calibration_ns.empty() || NowNs() - last_calibration >= kCalibrationEveryNs) {
      last_calibration = NowNs();
      calibration_ns.push_back(
          static_cast<double>(MeasureCalibrationNs(workload->HostThreads())));
    }
    const bool traced = args.trace && samples.size() % 2 == 1;
    ctx.spans.set_enabled(traced);
    Sample sample = workload->Iterate(ctx);
    sample.traced = traced;
    sample.slowdown = calibration_ns.back() / kNominalCalibrationNs;
    samples.push_back(sample);
    if (samples.size() == rss_iterations) {
      peak_rss_mb = PeakRssMb();
    }
  } while (NowNs() - window_start < window_ns || samples.size() < rss_iterations);
  ctx.spans.set_enabled(false);
  const double window_s = static_cast<double>(NowNs() - window_start) / 1e9;
  auto ops_per_host_s_at = [&](bool traced) {
    return Percentile(IterationRates(samples, traced, /*rescaled=*/true), 50);
  };

  Report report;
  workload->Finish(ctx, report);

  const double ops_per_host_s = ops_per_host_s_at(false);
  const ErrorLedger& ledger = report.ledger;

  std::printf("workload %s, seed %" PRIu64 ", %zu iterations in %.2f s%s\n",
              args.workload.c_str(), args.seed, samples.size(), window_s,
              args.trace ? " (traced run: odd iterations traced)" : "");
  for (const std::string& line : report.lines) {
    std::printf("  %s\n", line.c_str());
  }
  std::vector<double> rates = IterationRates(samples, false, /*rescaled=*/false);
  std::sort(rates.begin(), rates.end());
  std::printf("  ops_per_host_s = %.1f ops/s (median over %zu untraced iterations of ops per "
              "host second x host slowdown)\n",
              ops_per_host_s, rates.size());
  std::printf("  raw ops per host second: median %.1f, range %.1f to %.1f; host slowdown = "
              "calibration kernel on %zu thread(s) %.3f ms (median of %zu) / nominal %.3f ms\n",
              Percentile(rates, 50), rates.empty() ? 0.0 : rates.front(),
              rates.empty() ? 0.0 : rates.back(), workload->HostThreads(),
              Percentile(calibration_ns, 50) / 1e6, calibration_ns.size(),
              kNominalCalibrationNs / 1e6);
  std::printf("  host_peak_rss_mb = %.1f MB (after %zu iterations; %.1f MB after all %zu)\n",
              peak_rss_mb, rss_iterations, PeakRssMb(), samples.size());
  std::printf("  virt_ops_per_s = %.3f ops/virt_s\n", report.virt_ops_per_s);
  std::printf("  error_rate = %.6f (%" PRIu64 " failed of %" PRIu64 " attempted)\n",
              ledger.rate(), ledger.failed(), ledger.attempted());
  for (const std::string& check : ledger.failed_checks()) {
    std::printf("  CHECK FAILED: %s\n", check.c_str());
  }
  std::printf("  virt_digest = %s\n", report.digest.Hex().c_str());

  std::vector<Metric> layer = report.layer;
  if (args.trace) {
    const double traced_ops = ops_per_host_s_at(true);
    size_t traced_iterations = 0;
    for (const Sample& s : samples) {
      traced_iterations += s.traced ? 1 : 0;
    }
    std::vector<SpanRecord> setup(ctx.spans.spans().begin(),
                                  ctx.spans.spans().begin() + setup_spans);
    std::vector<SpanRecord> window(ctx.spans.spans().begin() + setup_spans,
                                   ctx.spans.spans().end());
    for (SpanRecord& span : window) {
      span.parent = span.parent >= static_cast<int>(setup_spans)
                        ? span.parent - static_cast<int>(setup_spans)
                        : -1;
    }
    const auto setup_self = SelfTimeByLayer(setup);
    const auto window_self = SelfTimeByLayer(window);
    std::printf("  layer self time (host ms): set-up | per traced iteration\n");
    for (const char* name : kSpanLayers) {
      const auto s = setup_self.find(name);
      const auto w = window_self.find(name);
      const double setup_ms = s == setup_self.end() ? 0.0 : s->second / 1e6;
      const double per_iter =
          w == window_self.end() ? 0.0 : w->second / 1e6 / static_cast<double>(traced_iterations);
      std::printf("    %-10s %10.3f | %10.3f\n", name, setup_ms, per_iter);
      layer.push_back({std::string(name) + ".self_ms", per_iter, "ms"});
    }
    layer.push_back({"util.fiber_switch_ns", ctx.fiber_round_trip_ns, "ns"});
    layer.push_back({"perfbench.traced_ops_ratio",
                     ops_per_host_s > 0 ? traced_ops / ops_per_host_s : 0.0, "ratio"});
    std::printf("  tracing overhead: traced %.1f ops/s vs untraced %.1f ops/s (ratio %.4f)\n",
                traced_ops, ops_per_host_s, ops_per_host_s > 0 ? traced_ops / ops_per_host_s : 0);
    std::printf("  per-layer metrics:\n");
    for (const Metric& m : layer) {
      std::printf("    %-36s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    if (!args.trace_out.empty()) {
      std::ofstream out(args.trace_out);
      out << ctx.spans.ToChromeTrace();
      std::printf("  spans: %zu written to %s\n", ctx.spans.spans().size(),
                  args.trace_out.c_str());
    }
  }

  // Raw results for run.py: one JSON object on the last line.
  std::string json = "{\"workload\":\"" + JsonEscape(args.workload) + "\"";
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                ",\"seed\":%" PRIu64 ",\"iterations\":%zu,\"ops_per_host_s\":%.17g"
                ",\"host_peak_rss_mb\":%.17g,\"virt_ops_per_s\":%.17g,\"virt_digest\":\"%s\""
                ",\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64 ",\"checks_ok\":%s",
                args.seed, samples.size(), ops_per_host_s, peak_rss_mb, report.virt_ops_per_s,
                report.digest.Hex().c_str(), ledger.attempted(), ledger.failed(),
                ledger.all_checks_ok() ? "true" : "false");
  json += buf;
  json += ",\"layer\":{";
  for (size_t i = 0; i < layer.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", i ? "," : "",
                  JsonEscape(layer[i].name).c_str(), layer[i].value,
                  JsonEscape(layer[i].unit).c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

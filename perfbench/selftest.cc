// Self-tests of the benchmark's own arithmetic: span self time, the
// percentile rule, the SLO-capacity selection and error accounting.
// Exit code 0 when every check passes; run.py runs this before each run.
#include <cmath>
#include <cstdio>
#include <vector>

#include "figures.h"
#include "spans.h"

using namespace lupine::perfbench;

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

SpanRecord Span(const char* layer, int64_t start, int64_t end, int parent) {
  SpanRecord span;
  span.layer = layer;
  span.name = layer;
  span.start_ns = start;
  span.end_ns = end;
  span.parent = parent;
  return span;
}

void SpanSelfTime() {
  // core [0,100] > vmm [10,30] > guestos [15,20]; core > serve [50,90];
  // core > workload [95,120] runs past its parent and is clipped to 100.
  const std::vector<SpanRecord> spans = {
      Span("core", 0, 100, -1),    Span("vmm", 10, 30, 0),       Span("guestos", 15, 20, 1),
      Span("serve", 50, 90, 0),    Span("workload", 95, 120, 0), Span("core", 200, 210, -1)};
  const std::vector<int64_t> self = SelfTimes(spans);
  Check(self[0] == 100 - 20 - 40 - 5, "parent self time subtracts direct children only");
  Check(self[1] == 15, "child self time subtracts its own child");
  Check(self[2] == 5 && self[3] == 40 && self[4] == 25, "leaf self time is its duration");
  const auto by_layer = SelfTimeByLayer(spans);
  Check(by_layer.at("core") == 35 + 10, "layer self time sums the layer's spans");

  // Overlapping children are counted once.
  const std::vector<SpanRecord> overlap = {Span("core", 0, 100, -1), Span("vmm", 10, 50, 0),
                                           Span("vmm", 40, 60, 0)};
  Check(SelfTimes(overlap)[0] == 50, "overlapping children cover their union");

  // The recorder links parents and shares nothing across ops.
  SpanRecorder recorder;
  recorder.set_enabled(true);
  {
    SpanRecorder::Scope outer(recorder, "core", "outer", recorder.NewOp());
    SpanRecorder::Scope inner(recorder, "vmm", "inner", 1);
  }
  { SpanRecorder::Scope next(recorder, "serve", "next", recorder.NewOp()); }
  recorder.set_enabled(false);
  { SpanRecorder::Scope off(recorder, "serve", "off", recorder.NewOp()); }
  const auto& recorded = recorder.spans();
  Check(recorded.size() == 3, "a disabled recorder records nothing");
  Check(recorded[0].parent == -1 && recorded[1].parent == 0 && recorded[2].parent == -1,
        "scopes record their enclosing span as parent");
  Check(recorded[0].op == 1 && recorded[2].op == 2, "op ids are fresh per op");
  Check(recorded[1].end_ns <= recorded[0].end_ns && recorded[1].start_ns >= recorded[0].start_ns,
        "a child span lies inside its parent");
}

std::vector<double> Ramp(size_t n) {
  std::vector<double> out;
  for (size_t i = 1; i <= n; ++i) {
    out.push_back(static_cast<double>(n + 1 - i));  // Unsorted on purpose.
  }
  return out;
}

void PercentileRule() {
  const QualifiedPercentile p99 = PercentileWithSupport(Ramp(1000), 99);
  Check(p99.pct == 99 && p99.beyond == 10 && p99.value == 990.0 && p99.count == 1000,
        "1000 samples support p99 with 10 beyond");
  const QualifiedPercentile fallback = PercentileWithSupport(Ramp(500), 99);
  Check(fallback.pct == 98 && fallback.beyond == 10 && fallback.value == 490.0,
        "500 samples fall back to p98, the highest with 10 beyond");
  const QualifiedPercentile p50 = PercentileWithSupport(Ramp(101), 50);
  Check(p50.pct == 50 && p50.value == 51.0, "p50 uses sorted[pct * (n - 1) / 100]");
  Check(!PercentileWithSupport(Ramp(10), 50).qualified(), "10 samples support no percentile");
  Check(!PercentileWithSupport({}, 99).qualified(), "no samples, no percentile");
}

RatePoint Point(double rate, size_t n, double typical_ms, size_t slow, double slow_ms) {
  RatePoint point;
  point.rate = rate;
  for (size_t i = 0; i < n; ++i) {
    point.ttfr_ms.push_back(i < slow ? slow_ms : typical_ms);
  }
  return point;
}

void SloSelection() {
  const double limit = 10.0;
  RatePoint low = Point(250, 1000, 3.0, 5, 50.0);    // 5 slow: p99 is fast.
  RatePoint mid = Point(750, 3000, 3.5, 20, 60.0);   // 20 slow of 3000: p99 fast.
  RatePoint high = Point(1500, 6000, 6.0, 600, 90.0);  // 10% slow.
  Check(MeetsSlo(low, limit) && MeetsSlo(mid, limit) && !MeetsSlo(high, limit),
        "p99 against the limit");
  Check(MaxRateAtSlo({low, mid, high}, limit) == 750.0, "highest qualifying rate");

  RatePoint growing = mid;
  growing.backlog_mid = 3;
  growing.backlog_end = 4;
  Check(!MeetsSlo(growing, limit), "a growing backlog misses the limit");
  Check(MaxRateAtSlo({low, growing, high}, limit) == 250.0, "growing backlog excluded");
  RatePoint draining = mid;
  draining.backlog_mid = 4;
  draining.backlog_end = 4;
  Check(MeetsSlo(draining, limit), "an unchanged backlog is not growing");

  RatePoint failing = mid;
  failing.failed = 20;  // 20 slow + 20 failed = 40 of 3020 beyond the limit.
  Check(!MeetsSlo(failing, limit), "failed requests count as missing the limit");
  Check(MaxRateAtSlo({low, failing, high}, limit) == 250.0, "failed requests excluded");

  RatePoint thin = Point(1000, 500, 1.0, 0, 0.0);  // p99 lacks 10 samples beyond.
  Check(!MeetsSlo(thin, limit), "a rate whose p99 is unsupported cannot meet the limit");
  Check(MaxRateAtSlo({high}, limit) == 0.0, "no qualifying rate gives 0");

  const std::vector<std::pair<int64_t, double>> track = {{10, 1}, {20, 3}, {40, 2}};
  Check(TrackValueAt(track, 5) == 0 && TrackValueAt(track, 20) == 3 &&
            TrackValueAt(track, 39) == 3 && TrackValueAt(track, 100) == 2,
        "counter track is a step function");
}

void ErrorAccounting() {
  ErrorLedger ledger;
  ledger.AddRun(100, 0, true);
  ledger.AddRun(50, 2, true);
  ledger.AddRun(30, 1, false);  // Injected failed check: all 30 ops fail.
  Check(ledger.attempted() == 180 && ledger.failed() == 32, "a failed check fails the run");
  Check(std::fabs(ledger.rate() - 32.0 / 180.0) < 1e-12, "error_rate = failed / attempted");
  Check(ledger.all_checks_ok(), "no run-wide check failed yet");
  ledger.AddCheck("replay", true);
  Check(ledger.failed() == 32, "a passed run-wide check fails nothing");
  ledger.AddCheck("injected", false);
  Check(!ledger.all_checks_ok() && ledger.failed_checks().size() == 1,
        "a failed run-wide check is recorded");
  Check(ledger.failed() == ledger.attempted() && ledger.rate() == 1.0,
        "a failed run-wide check fails every op");
  Check(ErrorLedger().rate() == 0.0, "nothing attempted, nothing failed");
}

void Helpers() {
  Check(std::fabs(GeoMean({2, 8}) - 4.0) < 1e-12 && GeoMean({1, 0}) == 0, "geometric mean");
  Digest digest;
  digest.AddText("a");
  Check(digest.Hex() == "af63dc4c8601ec8c", "FNV-1a 64 of \"a\"");
}

}  // namespace

int main() {
  SpanSelfTime();
  PercentileRule();
  SloSelection();
  ErrorAccounting();
  Helpers();
  if (failures == 0) {
    std::printf("perfbench selftest: all checks passed\n");
  }
  return failures == 0 ? 0 : 1;
}

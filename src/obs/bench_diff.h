// Regression differ for BENCH_*.metrics.json snapshots.
//
// Turns two metrics snapshots (parsed with obs/json.h) into a list of
// per-metric deltas and a single regression verdict, so the bench
// trajectory is machine-checkable: `sdxmon diff before.json after.json`
// exits non-zero when any delta crosses its threshold.
//
// Flagging rules:
//   * counters (and histogram observation counts): flagged when BOTH the
//     relative change exceeds `max_counter_rel` AND the absolute change
//     exceeds `min_counter_abs` — either direction; a counter that moves
//     that much between supposedly comparable runs needs a human;
//   * histogram p50/p95/p99: flagged when after/before exceeds the per-
//     quantile ratio AND both values sit above `noise_floor_seconds`
//     (sub-noise latencies ping-pong between runs and mean nothing).
//     Only slowdowns are flagged — getting faster is not a regression;
//   * gauges: reported when changed, never flagged (they describe shape —
//     table sizes, group counts — not performance).
#pragma once

#include <string>
#include <vector>

#include "obs/json.h"

namespace sdx::obs {

struct BenchDiffOptions {
  double max_counter_rel = 0.5;     // relative counter change allowed
  double min_counter_abs = 16.0;    // absolute counter slack (small tallies)
  // "batch."-prefixed counters (and the batch.depth histogram count)
  // describe the ingest pipeline's shape — batches drained, updates
  // coalesced, compiles skipped. On a fixed bench workload they should be
  // near-deterministic, so they get a tighter relative band and much less
  // absolute slack than generic tallies: a drifting coalesce count means
  // the batcher changed behavior, not that the run was noisy.
  double max_batch_counter_rel = 0.25;
  double min_batch_counter_abs = 2.0;
  double max_p50_ratio = 2.0;
  double max_p95_ratio = 1.5;
  double max_p99_ratio = 2.0;
  double noise_floor_seconds = 20e-6;
  // The telemetry.overhead_ratio gauge carries the sampled-telemetry-on vs
  // off time ratio measured by the bench (1.0 = free). Unlike other gauges
  // it IS flagged — an absolute band, not a before/after ratio: any run
  // whose overhead gauge lands above this budget is a regression. (Only
  // the exact gauge: its overhead_ns / overhead_ratio_compiled companions
  // are informational and live on other scales.)
  double max_telemetry_overhead = 1.05;
  // "fastpath.speedup"-prefixed gauges carry the compiled-classifier vs
  // linear-scan packets/sec ratio (DESIGN.md §11). Also an absolute band,
  // in the opposite direction: any run whose speedup lands BELOW this
  // floor is a regression — the compiled backend stopped paying for
  // itself.
  double min_fastpath_speedup = 10.0;
  // Absolute ceiling on the p99 of "convergence."-prefixed histograms
  // (DESIGN.md §12): per-update convergence tail latency in seconds. The
  // paper's claim is sub-second convergence; any run whose after-side
  // convergence p99 lands above this band is a regression regardless of
  // how slow the before side was. Checked whenever the after value is
  // above the band — even when before == after.
  double max_convergence_p99_seconds = 2.0;
  // The convergence.overhead_ratio gauge mirrors telemetry.overhead_ratio:
  // tracker-on vs tracker-off time on the ingest+batch path, measured by
  // microbench_core's gate. Absolute budget, exact-name gauge only.
  double max_convergence_overhead = 1.05;
  // "rules.isdx_reduction"-prefixed gauges carry the legacy-rules over
  // encoded-rules ratio measured by fig7's iSDX column (sdx/reach.h,
  // DESIGN.md §14). Absolute floor like the fastpath band, 0 (off) by
  // default; the CI bench lane opts in via --min-rule-reduction. Checked
  // whenever the after value sits below the floor, even when
  // before == after.
  double min_rule_reduction = 0.0;
};

struct BenchDelta {
  std::string metric;   // "counter foo", "histogram bar p95", "gauge baz"
  double before = 0.0;
  double after = 0.0;
  bool regressed = false;
  std::string note;     // threshold that tripped, empty when informational
};

struct BenchDiff {
  std::vector<BenchDelta> deltas;          // changed metrics, flagged first
  std::vector<std::string> only_before;    // metrics that disappeared
  std::vector<std::string> only_after;     // metrics that appeared
  bool regression = false;                 // any delta flagged

  // Human-readable report, one delta per line; empty diff renders as a
  // single "no differences" line.
  std::string Render() const;
};

// `before` and `after` are parsed BENCH_*.metrics.json documents (the
// MetricsSnapshot::ToJson schema). Throws std::runtime_error when either
// document lacks the snapshot structure.
BenchDiff DiffMetrics(const json::Value& before, const json::Value& after,
                      const BenchDiffOptions& options = {});

}  // namespace sdx::obs

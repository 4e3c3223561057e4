// End-to-end convergence latency tracking (DESIGN.md §12).
//
// The SDX paper's scaling story is about control-plane reaction time: how
// long from a BGP update arriving at the exchange until the forwarding
// state that reflects it is installed. The journal already carries the
// causal chain (provenance ids threaded session → route server → FIB);
// this tracker turns that chain into per-update latency:
//
//   ingest stamp            batch start              flush complete
//   (kBgpSessionRx /        (RunBatch drains          (FIB + VNH + re-
//    kUpdateEnqueued /       the queue)                advertise done)
//    kBgpUpdateBegin)
//        |---- queue_wait ------|---- decision/compile/flush ----|
//        |------------------------- e2e -------------------------|
//
// The runtime reports one ConvergenceBatch per drained batch; the tracker
// lazily syncs ingest stamps from the journal (TailSince cursor), matches
// the batch's applied + coalesced provenance ids against them, and
// aggregates into sharded histograms (p50/p95/p99/max) per segment plus a
// per-AS worst-offender table. Coalesced (superseded) updates converge
// when their *absorbing* batch flushes — the update's effect reached the
// dataplane then, via the update that won — so losers are attributed to
// that batch using their own ingest stamps.
//
// Graceful degradation: the journal is a ring. If an ingest stamp was
// overwritten before the tracker synced it (tiny ring, giant batch), the
// update's chain is truncated — the tracker counts it in chain_truncated
// and records only the batch-local segments for it, never a fabricated
// end-to-end time. Same when no journal is attached at all.
//
// Thread safety: RecordBatch runs on the control thread (it reads the
// journal, which is not thread-safe — same thread that writes it).
// Snapshot / AppendSeries / FillMetrics are safe from any thread (the
// time-series sampler calls them concurrently): histograms are sharded
// atomics, counters are atomics, and the pending/offender maps take mu_.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/sharded.h"

namespace sdx::obs {

// What the runtime hands the tracker after one batch's flush completes.
// All times are on the journal's clock (Journal::NowSeconds()), the same
// clock its ingest events were stamped against.
struct ConvergenceBatch {
  double end_seconds = 0.0;    // when the FIB/VNH/re-advertise flush finished
  double batch_seconds = 0.0;  // whole-batch wall time (start = end - this)
  double decision_seconds = 0.0;  // rib_update stage (wall time)
  double compile_seconds = 0.0;   // group_construction + slice_compile
  double flush_seconds = 0.0;     // rule_install + readvertise
  // Updates applied by this batch: (provenance id, sender AS). The AS is
  // carried from the update itself so truncated chains still attribute.
  std::vector<std::pair<UpdateId, std::uint32_t>> applied;
  // Provenance ids coalesced away pre-decision, absorbed by this batch.
  std::vector<UpdateId> coalesced;
};

struct ConvergenceStats {
  struct SegmentView {
    std::uint64_t count = 0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double max = 0.0;
    double sum = 0.0;
  };
  SegmentView e2e;         // ingest → flush complete
  SegmentView queue_wait;  // ingest → batch start
  SegmentView decision;
  SegmentView compile;
  SegmentView flush;

  std::uint64_t tracked = 0;          // updates with a full e2e measurement
  std::uint64_t chain_truncated = 0;  // ingest stamp lost (ring overwrite /
                                      // pending-map overflow / no journal)
  std::uint64_t coalesced_attributed = 0;  // losers measured via absorber
  std::uint64_t pending = 0;               // stamps awaiting their batch

  // Cumulative wall time of the rib_update stage across all batches.
  double decision_wall_seconds = 0.0;

  struct Offender {
    std::uint32_t as = 0;
    std::uint64_t updates = 0;     // e2e-measured updates from this AS
    double worst_seconds = 0.0;    // slowest e2e
    double total_seconds = 0.0;    // sum of e2e (mean = total/updates)
  };
  std::vector<Offender> worst_by_as;  // sorted by worst_seconds, descending

  // Human-readable summary table (benches, sdxmon).
  std::string ToText() const;
};

class ConvergenceTracker {
 public:
  // `max_pending` bounds the ingest-stamp map: stamps beyond it are
  // dropped on arrival (counted, and later surfacing as chain_truncated)
  // rather than growing without bound when updates never drain.
  explicit ConvergenceTracker(std::size_t max_pending = std::size_t{1} << 16);

  ConvergenceTracker(const ConvergenceTracker&) = delete;
  ConvergenceTracker& operator=(const ConvergenceTracker&) = delete;

  // (Re)binds the journal the ingest stamps are read from; resets the
  // tail cursor to the journal's oldest retained event. Null detaches —
  // every subsequent update counts as chain-truncated.
  void AttachJournal(const Journal* journal);

  // Control-thread only (reads the journal). Syncs new ingest stamps,
  // then accounts every applied + coalesced id in `batch`.
  void RecordBatch(const ConvergenceBatch& batch);

  // Thread-safe readers.
  ConvergenceStats Snapshot(std::size_t top_offenders = 8) const;
  std::uint64_t tracked() const {
    return tracked_.load(std::memory_order_relaxed);
  }
  std::uint64_t chain_truncated() const {
    return chain_truncated_.load(std::memory_order_relaxed);
  }
  std::uint64_t coalesced_attributed() const {
    return coalesced_attributed_.load(std::memory_order_relaxed);
  }
  std::uint64_t pending_overflow() const {
    return pending_overflow_.load(std::memory_order_relaxed);
  }

  // Merges the convergence histograms + counters into a metrics snapshot
  // under "convergence.*" names (see DESIGN.md §12 for the table), so
  // BENCH_*.metrics.json and sdxmon diff consume them like any registry
  // metric. Thread-safe.
  void FillMetrics(MetricsSnapshot* snapshot) const;

  // Flat name→value series sample (percentiles, counters, top offenders
  // as convergence.as<N>.*) for the time-series layer. Thread-safe.
  void AppendSeries(std::map<std::string, double>* values,
                    std::size_t top_offenders = 4) const;

 private:
  struct Ingest {
    double seconds = 0.0;
    std::uint32_t sender_as = 0;
  };
  struct AsTally {
    std::uint64_t updates = 0;
    double worst_seconds = 0.0;
    double total_seconds = 0.0;
  };

  // All three called with mu_ held.
  void SyncFromJournalLocked();
  void AccountLocked(UpdateId id, std::uint32_t fallback_as,
                     double start_seconds, double end_seconds,
                     bool coalesced);
  static ConvergenceStats::SegmentView ViewOf(const ShardedHistogram& h);

  mutable std::mutex mu_;
  const Journal* journal_ = nullptr;
  std::uint64_t cursor_ = 0;  // next journal seq to sync from
  std::unordered_map<UpdateId, Ingest> pending_;
  const std::size_t max_pending_;
  std::map<std::uint32_t, AsTally> by_as_;
  // Batch decision-segment totals (mu_-guarded: written by RecordBatch on
  // the control thread, read by Snapshot from any thread).
  double decision_wall_seconds_ = 0.0;

  ShardedHistogram e2e_;
  ShardedHistogram queue_wait_;
  ShardedHistogram decision_;
  ShardedHistogram compile_;
  ShardedHistogram flush_;

  std::atomic<std::uint64_t> tracked_{0};
  std::atomic<std::uint64_t> chain_truncated_{0};
  std::atomic<std::uint64_t> coalesced_attributed_{0};
  std::atomic<std::uint64_t> pending_overflow_{0};
};

}  // namespace sdx::obs

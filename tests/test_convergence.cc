// ConvergenceTracker (DESIGN.md §12): ingest-stamp sync from the journal,
// end-to-end / queue-wait accounting against an injected clock, coalesced
// attribution to the absorbing batch, chain truncation under journal ring
// overwrite (never a fabricated e2e), the pending-map bound, and the
// runtime integration — StampIngress provenance at enqueue, RecordBatch
// on flush, convergence.* spliced into SnapshotMetrics.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "obs/convergence.h"
#include "obs/journal.h"
#include "sdx/runtime.h"

namespace sdx::obs {
namespace {

class ConvergenceTrackerTest : public ::testing::Test {
 protected:
  // A journal on a deterministic, hand-advanced clock.
  void MakeJournal(std::size_t capacity) {
    journal_ = std::make_unique<Journal>(capacity);
    journal_->clock().SetClockForTest([this] { return now_; });
  }

  // One ingest stamp: enqueue event for a fresh provenance id at `now_`.
  UpdateId Enqueue(std::uint64_t sender_as) {
    const UpdateId id = journal_->NextUpdateId();
    journal_->Record(JournalEventType::kUpdateEnqueued, id, sender_as, 1, 0,
                     "10.0.0.0/8");
    return id;
  }

  double now_ = 0.0;
  std::unique_ptr<Journal> journal_;
};

TEST_F(ConvergenceTrackerTest, MeasuresEndToEndAndQueueWait) {
  MakeJournal(Journal::kDefaultCapacity);
  ConvergenceTracker tracker;
  tracker.AttachJournal(journal_.get());

  now_ = 1.0;
  const UpdateId a = Enqueue(100);
  now_ = 2.0;
  const UpdateId b = Enqueue(200);

  ConvergenceBatch batch;
  batch.end_seconds = 10.0;
  batch.batch_seconds = 4.0;  // batch start = 6.0
  batch.decision_seconds = 1.0;
  batch.compile_seconds = 2.0;
  batch.flush_seconds = 0.5;
  batch.applied = {{a, 100}, {b, 200}};
  tracker.RecordBatch(batch);

  EXPECT_EQ(tracker.tracked(), 2u);
  EXPECT_EQ(tracker.chain_truncated(), 0u);

  const ConvergenceStats stats = tracker.Snapshot();
  EXPECT_EQ(stats.e2e.count, 2u);
  // e2e: 10-1=9 and 10-2=8; queue_wait: 6-1=5 and 6-2=4.
  EXPECT_DOUBLE_EQ(stats.e2e.sum, 17.0);
  EXPECT_DOUBLE_EQ(stats.queue_wait.sum, 9.0);
  EXPECT_DOUBLE_EQ(stats.e2e.max, 9.0);
  EXPECT_DOUBLE_EQ(stats.queue_wait.max, 5.0);
  // Batch-local segments observed once per applied update.
  EXPECT_EQ(stats.decision.count, 2u);
  EXPECT_DOUBLE_EQ(stats.decision.sum, 2.0);
  EXPECT_DOUBLE_EQ(stats.compile.sum, 4.0);
  EXPECT_DOUBLE_EQ(stats.flush.sum, 1.0);
  EXPECT_EQ(stats.pending, 0u);

  // Offender table: AS 100 owns the slower update.
  ASSERT_EQ(stats.worst_by_as.size(), 2u);
  EXPECT_EQ(stats.worst_by_as[0].as, 100u);
  EXPECT_DOUBLE_EQ(stats.worst_by_as[0].worst_seconds, 9.0);
  EXPECT_EQ(stats.worst_by_as[0].updates, 1u);
}

TEST_F(ConvergenceTrackerTest, CoalescedLosersAttributedToAbsorbingBatch) {
  MakeJournal(Journal::kDefaultCapacity);
  ConvergenceTracker tracker;
  tracker.AttachJournal(journal_.get());

  now_ = 1.0;
  const UpdateId loser = Enqueue(100);
  now_ = 2.0;
  const UpdateId winner = Enqueue(100);

  ConvergenceBatch batch;
  batch.end_seconds = 5.0;
  batch.batch_seconds = 1.0;
  batch.applied = {{winner, 100}};
  batch.coalesced = {loser};
  tracker.RecordBatch(batch);

  EXPECT_EQ(tracker.tracked(), 1u);
  EXPECT_EQ(tracker.coalesced_attributed(), 1u);
  EXPECT_EQ(tracker.chain_truncated(), 0u);
  const ConvergenceStats stats = tracker.Snapshot();
  // Both converge at the absorber's flush: e2e 4.0 (loser) + 3.0 (winner).
  EXPECT_EQ(stats.e2e.count, 2u);
  EXPECT_DOUBLE_EQ(stats.e2e.sum, 7.0);
  // Segments belong to applied updates only.
  EXPECT_EQ(stats.decision.count, 1u);
}

TEST_F(ConvergenceTrackerTest, RingOverwriteTruncatesChainsNeverFabricates) {
  // A 4-slot ring: stamps for the first updates are long gone by the time
  // the tracker syncs. They must land in chain_truncated with NO e2e
  // observation — a fabricated latency would poison the percentiles.
  MakeJournal(4);
  ConvergenceTracker tracker;
  tracker.AttachJournal(journal_.get());

  std::vector<UpdateId> ids;
  for (int i = 0; i < 12; ++i) {
    now_ = static_cast<double>(i);
    ids.push_back(Enqueue(100 + static_cast<std::uint64_t>(i)));
  }

  ConvergenceBatch batch;
  batch.end_seconds = 100.0;
  batch.batch_seconds = 1.0;
  for (const UpdateId id : ids) batch.applied.emplace_back(id, 0u);
  tracker.RecordBatch(batch);

  // Only the 4 stamps still in the ring survive.
  EXPECT_EQ(tracker.tracked(), 4u);
  EXPECT_EQ(tracker.chain_truncated(), 8u);
  const ConvergenceStats stats = tracker.Snapshot();
  EXPECT_EQ(stats.e2e.count, 4u);
  // The survivors are the LAST four enqueues (t=8..11): e2e sums to
  // (100-8)+(100-9)+(100-10)+(100-11).
  EXPECT_DOUBLE_EQ(stats.e2e.sum, 362.0);
  // Batch-local segments still cover every applied update.
  EXPECT_EQ(stats.decision.count, 12u);
}

TEST_F(ConvergenceTrackerTest, DetachedJournalCountsEverythingTruncated) {
  ConvergenceTracker tracker;  // never attached
  ConvergenceBatch batch;
  batch.end_seconds = 1.0;
  batch.batch_seconds = 0.5;
  batch.applied = {{7, 100}};
  batch.coalesced = {8};
  tracker.RecordBatch(batch);
  EXPECT_EQ(tracker.tracked(), 0u);
  EXPECT_EQ(tracker.coalesced_attributed(), 0u);
  EXPECT_EQ(tracker.chain_truncated(), 2u);
  EXPECT_EQ(tracker.Snapshot().e2e.count, 0u);
}

TEST_F(ConvergenceTrackerTest, PendingMapIsBounded) {
  MakeJournal(Journal::kDefaultCapacity);
  ConvergenceTracker tracker(/*max_pending=*/2);
  tracker.AttachJournal(journal_.get());

  const UpdateId a = Enqueue(1);
  const UpdateId b = Enqueue(2);
  const UpdateId c = Enqueue(3);  // over the bound: dropped on sync

  ConvergenceBatch batch;
  batch.end_seconds = 1.0;
  batch.batch_seconds = 0.5;
  batch.applied = {{a, 1}, {b, 2}, {c, 3}};
  tracker.RecordBatch(batch);

  EXPECT_EQ(tracker.pending_overflow(), 1u);
  EXPECT_EQ(tracker.tracked(), 2u);
  EXPECT_EQ(tracker.chain_truncated(), 1u);
}

TEST_F(ConvergenceTrackerTest, FillMetricsAndAppendSeriesExportNames) {
  MakeJournal(Journal::kDefaultCapacity);
  ConvergenceTracker tracker;
  tracker.AttachJournal(journal_.get());
  now_ = 1.0;
  const UpdateId id = Enqueue(42);
  ConvergenceBatch batch;
  batch.end_seconds = 2.0;
  batch.batch_seconds = 0.5;
  batch.applied = {{id, 42}};
  tracker.RecordBatch(batch);

  MetricsSnapshot snapshot;
  tracker.FillMetrics(&snapshot);
  EXPECT_EQ(snapshot.histograms.count("convergence.e2e.seconds"), 1u);
  EXPECT_EQ(snapshot.histograms.count("convergence.queue_wait.seconds"), 1u);
  EXPECT_EQ(snapshot.counters.at("convergence.tracked"), 1u);
  EXPECT_EQ(snapshot.counters.at("convergence.chain_truncated"), 0u);

  std::map<std::string, double> values;
  tracker.AppendSeries(&values);
  EXPECT_EQ(values.count("convergence.e2e.p99"), 1u);
  EXPECT_EQ(values.count("convergence.queue_wait.p50"), 1u);
  EXPECT_DOUBLE_EQ(values.at("convergence.tracked"), 1.0);
  EXPECT_DOUBLE_EQ(values.at("convergence.as42.updates"), 1.0);
  EXPECT_DOUBLE_EQ(values.at("convergence.as42.worst_seconds"), 1.0);
}

// ---------------------------------------------------------------------------
// Runtime integration.

class ConvergenceRuntimeTest : public ::testing::Test {
 protected:
  static constexpr core::AsNumber kA = 100;
  static constexpr core::AsNumber kB = 200;

  void SetUp() override {
    runtime_.AddParticipant(kA, 1);
    runtime_.AddParticipant(kB, 2);
    for (int i = 1; i <= 8; ++i) {
      runtime_.AnnouncePrefix(kB, P(i), {kB, 900});
    }
    runtime_.FullCompile();
  }

  static net::IPv4Prefix P(int i) {
    return net::IPv4Prefix(
        net::IPv4Address(10, static_cast<uint8_t>(i), 0, 0), 16);
  }

  bgp::BgpUpdate Announce(core::AsNumber from, const net::IPv4Prefix& prefix,
                          std::uint32_t local_pref) {
    bgp::Announcement a;
    a.from_as = from;
    a.route.prefix = prefix;
    a.route.next_hop = runtime_.RouterIp(from);
    a.route.as_path = {from};
    a.route.local_pref = local_pref;
    return bgp::BgpUpdate{a};
  }

  core::SdxRuntime runtime_;
};

TEST_F(ConvergenceRuntimeTest, EnqueueFlushProducesEndToEndMeasurements) {
  runtime_.EnableConvergenceTracking();
  for (int i = 1; i <= 4; ++i) {
    runtime_.EnqueueUpdate(Announce(kB, P(i), 1000 + i));
  }
  // Two flaps on the same (peer, prefix): the loser coalesces away but
  // still converges with the absorbing batch.
  runtime_.EnqueueUpdate(Announce(kB, P(1), 2000));
  runtime_.Flush();

  EXPECT_EQ(runtime_.convergence()->tracked(), 4u);
  EXPECT_EQ(runtime_.convergence()->coalesced_attributed(), 1u);
  EXPECT_EQ(runtime_.convergence()->chain_truncated(), 0u);
  const ConvergenceStats stats = runtime_.convergence()->Snapshot();
  EXPECT_EQ(stats.e2e.count, 5u);
  EXPECT_GE(stats.e2e.max, 0.0);
  EXPECT_EQ(stats.decision.count, 4u);

  // Decision-segment attribution: the wall total is the batch's
  // rib_update segment, observed once per applied update in the decision
  // histogram.
  EXPECT_NEAR(stats.decision_wall_seconds, stats.decision.sum / 4.0, 1e-9)
      << "wall total must stay the batch rib_update segment, observed once "
         "per applied update in the decision histogram";

  // The tracker's histograms + counters ride along in SnapshotMetrics.
  const MetricsSnapshot snapshot = runtime_.SnapshotMetrics();
  EXPECT_EQ(snapshot.histograms.count("convergence.e2e.seconds"), 1u);
  EXPECT_EQ(snapshot.counters.at("convergence.tracked"), 4u);
  EXPECT_EQ(snapshot.gauges.count("convergence.decision.wall_seconds_total"),
            1u);
}

TEST_F(ConvergenceRuntimeTest, ApplyBgpUpdateFallsBackToBeginStamp) {
  // The batch-of-one path has no separate enqueue hop: kBgpUpdateBegin is
  // the ingest stamp, so queue_wait collapses to ~0 but e2e still lands.
  runtime_.EnableConvergenceTracking();
  runtime_.ApplyBgpUpdate(Announce(kB, P(1), 3000));
  EXPECT_EQ(runtime_.convergence()->tracked(), 1u);
  EXPECT_EQ(runtime_.convergence()->chain_truncated(), 0u);
}

TEST_F(ConvergenceRuntimeTest, JournalRingOverflowCountsTruncated) {
  // Satellite regression test: a journal ring far smaller than the batch.
  // By the time the batch flushes, the kUpdateEnqueued (and most
  // kBgpUpdateBegin) events of early updates were evicted — those updates
  // must land in convergence.chain_truncated, not be mis-attributed to a
  // surviving stamp.
  runtime_.EnableJournal(/*capacity=*/8);
  runtime_.EnableConvergenceTracking();
  const int kUpdates = 32;
  for (int i = 0; i < kUpdates; ++i) {
    runtime_.EnqueueUpdate(
        Announce(kB, P(1 + (i % 8)), 5000 + static_cast<std::uint32_t>(i)));
  }
  runtime_.Flush();

  const std::uint64_t accounted = runtime_.convergence()->tracked() +
                                  runtime_.convergence()->coalesced_attributed() +
                                  runtime_.convergence()->chain_truncated();
  EXPECT_EQ(accounted, static_cast<std::uint64_t>(kUpdates));
  // The ring holds 8 events against 32 updates' worth of chains: most
  // ingest stamps cannot have survived.
  EXPECT_GE(runtime_.convergence()->chain_truncated(),
            static_cast<std::uint64_t>(kUpdates - 8));
  // Whatever was measured came from a real surviving stamp: e2e
  // observations exactly match the non-truncated count.
  const ConvergenceStats stats = runtime_.convergence()->Snapshot();
  EXPECT_EQ(stats.e2e.count,
            runtime_.convergence()->tracked() +
                runtime_.convergence()->coalesced_attributed());
  EXPECT_EQ(stats.chain_truncated, runtime_.convergence()->chain_truncated());

  // Disabling the journal mid-flight detaches the tracker: everything
  // afterwards is truncated, nothing crashes.
  runtime_.DisableJournal();
  runtime_.EnqueueUpdate(Announce(kB, P(1), 9000));
  runtime_.Flush();
  EXPECT_GT(runtime_.convergence()->chain_truncated(),
            static_cast<std::uint64_t>(kUpdates - 8));
}

}  // namespace
}  // namespace sdx::obs

// Batched control-plane ingest (DESIGN.md §9): ApplyUpdates coalescing
// semantics and edge cases, the EnqueueUpdate/Flush batch-window knob,
// provenance of superseded update ids, compile-skip on no-change batches,
// state equivalence with a sequential ApplyBgpUpdate replay, run-to-run
// determinism of the journal stream, and the live decision.updates counter
// under a concurrent time-series sampler. The packet-level equivalence
// gate lives in tests/oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sdx/runtime.h"

namespace sdx::core {
namespace {

using policy::Predicate;

constexpr AsNumber kA = 100;
constexpr AsNumber kB = 200;
constexpr AsNumber kC = 300;

class BatchIngestTest : public ::testing::Test {
 protected:
  void SetUp() override { Populate(runtime_); }

  // The fixture topology: A, B (two ports) and C; B and C announce
  // P(1..4); A steers web traffic to B. Ends with a FullCompile.
  static void Populate(SdxRuntime& runtime) {
    runtime.AddParticipant(kA, 1);
    runtime.AddParticipant(kB, 2);
    runtime.AddParticipant(kC, 1);
    for (int i = 1; i <= 4; ++i) runtime.AnnouncePrefix(kB, P(i), {kB, 900});
    for (int i = 1; i <= 4; ++i) runtime.AnnouncePrefix(kC, P(i), {kC, 901});
    OutboundClause web;
    web.match = Predicate::DstPort(80);
    web.to = kB;
    runtime.SetOutboundPolicy(kA, {web});
    runtime.FullCompile();
  }

  // `rounds` mixed batches over P(1..8): B and C alternate as announcer
  // with escalating local-pref, every fifth (round, prefix) is a
  // withdrawal, and every third prefix flaps twice so coalescing
  // participates. P(5..8) are announced only here.
  std::vector<std::vector<bgp::BgpUpdate>> MixedBatches(int rounds) {
    std::vector<std::vector<bgp::BgpUpdate>> batches;
    for (int round = 0; round < rounds; ++round) {
      std::vector<bgp::BgpUpdate> batch;
      for (int i = 1; i <= 8; ++i) {
        const AsNumber from = (i + round) % 2 == 0 ? kB : kC;
        const auto pref = static_cast<std::uint32_t>(round * 8 + i);
        if (round > 0 && (i + round) % 5 == 0) {
          batch.push_back(Withdraw(from, P(i)));
        } else {
          batch.push_back(Announce(from, P(i), 1000 + pref));
        }
        if (i % 3 == 0) batch.push_back(Announce(from, P(i), 2000 + pref));
      }
      batches.push_back(std::move(batch));
    }
    return batches;
  }

  static net::IPv4Prefix P(int i) {
    return net::IPv4Prefix(net::IPv4Address(10, static_cast<uint8_t>(i), 0, 0),
                           16);
  }

  bgp::BgpUpdate Announce(AsNumber from, const net::IPv4Prefix& prefix,
                          std::uint32_t local_pref,
                          std::uint64_t provenance = 0) {
    bgp::Announcement a;
    a.from_as = from;
    a.route.prefix = prefix;
    a.route.next_hop = runtime_.RouterIp(from);
    a.route.as_path = {from};
    a.route.local_pref = local_pref;
    a.update_id = provenance;
    return bgp::BgpUpdate{a};
  }

  static bgp::BgpUpdate Withdraw(AsNumber from, const net::IPv4Prefix& prefix,
                                 std::uint64_t provenance = 0) {
    bgp::Withdrawal w;
    w.from_as = from;
    w.prefix = prefix;
    w.update_id = provenance;
    return bgp::BgpUpdate{w};
  }

  static std::vector<std::string> Names(
      const std::vector<obs::SpanRecord>& spans) {
    std::vector<std::string> out;
    out.reserve(spans.size());
    for (const auto& span : spans) out.push_back(span.name);
    return out;
  }

  static bool Contains(const std::vector<std::string>& names,
                       const char* name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  }

  std::vector<obs::JournalEvent> EventsOfType(std::uint64_t since,
                                              obs::JournalEventType type) {
    std::vector<obs::JournalEvent> out;
    for (const auto& event : runtime_.journal()->TailSince(since)) {
      if (event.type == type) out.push_back(event);
    }
    return out;
  }

  SdxRuntime runtime_;
};

// ---------------------------------------------------------------------------
// Coalescing semantics

TEST_F(BatchIngestTest, AnnounceWithdrawAnnounceCoalescesToFinalState) {
  // Same (peer, prefix) three times in one batch: only the last announce
  // may reach the route server, and the final state must reflect it.
  const net::IPv4Prefix p = P(1);
  std::vector<bgp::BgpUpdate> batch = {
      Announce(kC, p, 500),
      Withdraw(kC, p),
      Announce(kC, p, 700),
  };
  const BatchStats stats = runtime_.ApplyUpdates(batch);

  EXPECT_EQ(stats.updates_in, 3u);
  EXPECT_EQ(stats.updates_applied, 1u);
  EXPECT_EQ(stats.updates_coalesced, 2u);
  EXPECT_EQ(stats.prefixes_changed, 1u);
  EXPECT_TRUE(stats.compiled);
  ASSERT_EQ(stats.outcomes.size(), 1u);
  EXPECT_TRUE(stats.outcomes[0].best_route_changed);

  const bgp::BgpRoute* best = runtime_.route_server().BestRoute(kA, p);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->peer_as, kC);
  EXPECT_EQ(best->local_pref, 700u);
  // One coalesced survivor => exactly one fresh fast-path group.
  EXPECT_EQ(runtime_.fast_path_groups(), 1u);
}

TEST_F(BatchIngestTest, AnnounceThenWithdrawNetsToWithdrawal) {
  // A prefix only C announces: announce-then-withdraw of a NEW prefix in
  // one batch must net out to "never there".
  const net::IPv4Prefix fresh(net::IPv4Address(10, 9, 0, 0), 16);
  std::vector<bgp::BgpUpdate> batch = {
      Announce(kC, fresh, 500),
      Withdraw(kC, fresh),
  };
  const BatchStats stats = runtime_.ApplyUpdates(batch);

  EXPECT_EQ(stats.updates_applied, 1u);
  EXPECT_EQ(stats.updates_coalesced, 1u);
  // The surviving withdrawal hits an empty Adj-RIB-In: nothing changes.
  EXPECT_EQ(stats.prefixes_changed, 0u);
  EXPECT_FALSE(stats.compiled);
  EXPECT_EQ(runtime_.route_server().BestRoute(kA, fresh), nullptr);
}

TEST_F(BatchIngestTest, WithdrawOfNeverAnnouncedPrefixIsHarmless) {
  const net::IPv4Prefix unknown(net::IPv4Address(172, 16, 0, 0), 16);
  const std::size_t groups_before = runtime_.fast_path_groups();
  std::vector<bgp::BgpUpdate> batch = {Withdraw(kB, unknown)};
  const BatchStats stats = runtime_.ApplyUpdates(batch);

  EXPECT_EQ(stats.updates_applied, 1u);
  EXPECT_EQ(stats.prefixes_changed, 0u);
  EXPECT_FALSE(stats.compiled);
  EXPECT_EQ(stats.rules_added, 0u);
  EXPECT_EQ(runtime_.fast_path_groups(), groups_before);
}

TEST_F(BatchIngestTest, DistinctPeersSamePrefixDoNotCoalesce) {
  const net::IPv4Prefix p = P(2);
  std::vector<bgp::BgpUpdate> batch = {
      Announce(kB, p, 400),
      Announce(kC, p, 600),
  };
  const BatchStats stats = runtime_.ApplyUpdates(batch);
  EXPECT_EQ(stats.updates_applied, 2u);
  EXPECT_EQ(stats.updates_coalesced, 0u);

  const bgp::BgpRoute* best = runtime_.route_server().BestRoute(kA, p);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->peer_as, kC);  // higher local-pref wins the decision
}

// ---------------------------------------------------------------------------
// No-change batches must skip the compile entirely

TEST_F(BatchIngestTest, NoChangeBatchSkipsCompileEntirely) {
  // Re-announcing the exact routes the RIB already holds changes nothing.
  std::vector<bgp::BgpUpdate> batch;
  for (int i = 1; i <= 3; ++i) {
    bgp::Announcement a;
    a.from_as = kB;
    a.route.prefix = P(i);
    a.route.next_hop = runtime_.RouterIp(kB);
    a.route.as_path = {kB, 900};
    batch.push_back(bgp::BgpUpdate{a});
  }

  const auto before = runtime_.SnapshotMetrics();
  const std::size_t groups_before = runtime_.fast_path_groups();
  const BatchStats stats = runtime_.ApplyUpdates(batch);

  EXPECT_EQ(stats.updates_applied, 3u);
  EXPECT_EQ(stats.prefixes_changed, 0u);
  EXPECT_FALSE(stats.compiled);
  EXPECT_EQ(stats.rules_added, 0u);
  EXPECT_EQ(runtime_.fast_path_groups(), groups_before);

  // Stage check: the RIB pass ran, the compile stages did not.
  const auto names = Names(stats.stages);
  EXPECT_TRUE(Contains(names, "apply_update_batch"));
  EXPECT_TRUE(Contains(names, "rib_update"));
  EXPECT_FALSE(Contains(names, "group_construction"));
  EXPECT_FALSE(Contains(names, "slice_compile"));
  EXPECT_FALSE(Contains(names, "rule_install"));

  // Metrics check: no FullCompile ran behind our back (compile.count and
  // the incremental-reuse tally are untouched), and the batch recorded
  // itself as compile-skipped.
  const auto after = runtime_.SnapshotMetrics();
  EXPECT_EQ(after.counters.at("compile.count"),
            before.counters.at("compile.count"));
  EXPECT_EQ(after.counters.at("compile.incremental_reuse"),
            before.counters.at("compile.incremental_reuse"));
  EXPECT_EQ(after.counters.at("batch.compile_skipped"), 1u);
  EXPECT_EQ(after.counters.at("batch.coalesced"), 0u);
}

// ---------------------------------------------------------------------------
// Provenance across coalescing

TEST_F(BatchIngestTest, SupersededUpdateIdsAreJournaled) {
  const net::IPv4Prefix p = P(3);
  const std::uint64_t mark = runtime_.journal()->next_seq();
  std::vector<bgp::BgpUpdate> batch = {
      Announce(kC, p, 500, /*provenance=*/9001),
      Announce(kC, p, 600, /*provenance=*/9002),
      Announce(kC, p, 700, /*provenance=*/9003),
  };
  runtime_.ApplyUpdates(batch);

  // Each absorbed update's fate is journaled under ITS OWN id, pointing at
  // the winner, so `sdxmon chain 9001` explains why it never hit the RIB.
  const auto coalesced =
      EventsOfType(mark, obs::JournalEventType::kUpdateCoalesced);
  ASSERT_EQ(coalesced.size(), 2u);
  EXPECT_EQ(coalesced[0].update_id, 9001u);
  EXPECT_EQ(coalesced[0].arg0, 9003u);
  EXPECT_EQ(coalesced[1].update_id, 9002u);
  EXPECT_EQ(coalesced[1].arg0, 9003u);

  // The winner keeps a complete classic chain: begin, decision, group,
  // vnh, flow-mod, end — all under its id.
  std::vector<obs::JournalEventType> winner_types;
  for (const auto& event : runtime_.journal()->TailSince(mark)) {
    if (event.update_id == 9003u) winner_types.push_back(event.type);
  }
  for (obs::JournalEventType expected :
       {obs::JournalEventType::kBgpUpdateBegin,
        obs::JournalEventType::kRsDecision,
        obs::JournalEventType::kFecGroupCreate,
        obs::JournalEventType::kVnhBind,
        obs::JournalEventType::kFlowRuleInstall,
        obs::JournalEventType::kBgpUpdateEnd}) {
    EXPECT_TRUE(std::find(winner_types.begin(), winner_types.end(),
                          expected) != winner_types.end())
        << obs::JournalEventTypeName(expected);
  }

  // Losers never reach the RIB: no rs_decision under their ids.
  for (const auto& event : runtime_.journal()->TailSince(mark)) {
    if (event.update_id == 9001u || event.update_id == 9002u) {
      EXPECT_EQ(event.type, obs::JournalEventType::kUpdateCoalesced);
    }
  }
}

TEST_F(BatchIngestTest, BatchBeginEndBracketTheDrain) {
  const std::uint64_t mark = runtime_.journal()->next_seq();
  std::vector<bgp::BgpUpdate> batch = {
      Announce(kC, P(1), 500),
      Announce(kC, P(1), 600),
      Announce(kC, P(2), 500),
  };
  runtime_.ApplyUpdates(batch);

  const auto begins = EventsOfType(mark, obs::JournalEventType::kBatchBegin);
  const auto ends = EventsOfType(mark, obs::JournalEventType::kBatchEnd);
  ASSERT_EQ(begins.size(), 1u);
  ASSERT_EQ(ends.size(), 1u);
  EXPECT_EQ(begins[0].update_id, obs::kNoUpdateId);
  EXPECT_EQ(begins[0].arg0, 3u);  // raw
  EXPECT_EQ(begins[0].arg1, 2u);  // applied
  EXPECT_EQ(begins[0].arg2, 1u);  // coalesced away
  EXPECT_EQ(ends[0].arg0, 2u);    // prefixes changed
}

// ---------------------------------------------------------------------------
// Queue + batch window

TEST_F(BatchIngestTest, BatchWindowAutoFlushes) {
  runtime_.SetBatchWindow(4);
  EXPECT_EQ(runtime_.batch_window(), 4u);

  EXPECT_FALSE(runtime_.EnqueueUpdate(Announce(kC, P(1), 500)));
  EXPECT_FALSE(runtime_.EnqueueUpdate(Announce(kC, P(1), 600)));
  EXPECT_FALSE(runtime_.EnqueueUpdate(Announce(kC, P(2), 500)));
  EXPECT_EQ(runtime_.pending_updates(), 3u);
  EXPECT_EQ(runtime_.fast_path_groups(), 0u);  // nothing drained yet

  EXPECT_TRUE(runtime_.EnqueueUpdate(Announce(kC, P(2), 600)));
  EXPECT_EQ(runtime_.pending_updates(), 0u);
  EXPECT_EQ(runtime_.last_batch().updates_in, 4u);
  EXPECT_EQ(runtime_.last_batch().updates_applied, 2u);
  EXPECT_EQ(runtime_.last_batch().updates_coalesced, 2u);
  EXPECT_EQ(runtime_.fast_path_groups(), 2u);
}

TEST_F(BatchIngestTest, FlushOnEmptyQueueIsNoOp) {
  const std::uint64_t mark = runtime_.journal()->next_seq();
  const auto before = runtime_.SnapshotMetrics();
  const BatchStats stats = runtime_.Flush();
  EXPECT_EQ(stats.updates_in, 0u);
  EXPECT_EQ(stats.updates_applied, 0u);
  EXPECT_TRUE(runtime_.journal()->TailSince(mark).empty());
  const auto after = runtime_.SnapshotMetrics();
  EXPECT_EQ(after.counters.count("batch.count"),
            before.counters.count("batch.count"));
}

TEST_F(BatchIngestTest, ApplyUpdatesJoinsPendingQueue) {
  // Updates already pending via EnqueueUpdate coalesce with the explicit
  // span: same (peer, prefix) in both only survives once.
  runtime_.EnqueueUpdate(Announce(kC, P(1), 500));
  std::vector<bgp::BgpUpdate> batch = {Announce(kC, P(1), 900)};
  const BatchStats stats = runtime_.ApplyUpdates(batch);
  EXPECT_EQ(stats.updates_in, 2u);
  EXPECT_EQ(stats.updates_applied, 1u);
  const bgp::BgpRoute* best = runtime_.route_server().BestRoute(kA, P(1));
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->local_pref, 900u);
}

// ---------------------------------------------------------------------------
// Equivalence with a sequential replay (control-plane state level)

TEST_F(BatchIngestTest, BatchedStateMatchesSequentialReplay) {
  // A second runtime with identical setup replays the same flap-heavy
  // burst one update at a time through the classic entry point.
  SdxRuntime sequential;
  Populate(sequential);

  // Interleaved flaps: prefixes 1..4 each re-announced three times with
  // escalating preference, round-robin so coalescing is exercised across
  // keys, plus one withdrawal that sticks (and absorbs P(4)'s announces:
  // same peer, same prefix).
  std::vector<bgp::BgpUpdate> burst;
  for (std::uint32_t round = 0; round < 3; ++round) {
    for (int i = 1; i <= 4; ++i) {
      burst.push_back(Announce(kC, P(i), 500 + round * 10));
    }
  }
  burst.push_back(Withdraw(kC, P(4)));

  for (const auto& update : burst) sequential.ApplyBgpUpdate(update);
  const BatchStats stats = runtime_.ApplyUpdates(burst);
  EXPECT_EQ(stats.updates_applied, 4u);  // 3 announce survivors + withdraw
  EXPECT_EQ(stats.updates_coalesced, 9u);

  // Identical best routes for every receiver and prefix, and identical
  // FIB reachability (VNH identities may differ; presence must not).
  for (AsNumber receiver : {kA, kB, kC}) {
    for (int i = 1; i <= 4; ++i) {
      const bgp::BgpRoute* lhs =
          sequential.route_server().BestRoute(receiver, P(i));
      const bgp::BgpRoute* rhs =
          runtime_.route_server().BestRoute(receiver, P(i));
      ASSERT_EQ(lhs == nullptr, rhs == nullptr)
          << "receiver AS" << receiver << " prefix " << i;
      if (lhs != nullptr) {
        EXPECT_EQ(lhs->peer_as, rhs->peer_as);
        EXPECT_EQ(lhs->local_pref, rhs->local_pref);
      }
      EXPECT_EQ(sequential.AdvertisedNextHop(receiver, P(i)).has_value(),
                runtime_.AdvertisedNextHop(receiver, P(i)).has_value());
    }
  }
}

// ---------------------------------------------------------------------------
// ApplyBgpUpdate is a batch of one with the classic observable surface

TEST_F(BatchIngestTest, SingleUpdateKeepsClassicSurface) {
  const auto before = runtime_.SnapshotMetrics();
  const UpdateStats stats = runtime_.ApplyBgpUpdate(Announce(kC, P(1), 800));
  EXPECT_TRUE(stats.best_route_changed);
  EXPECT_GT(stats.rules_added, 0u);

  const auto names = Names(stats.stages);
  EXPECT_TRUE(Contains(names, "apply_bgp_update"));
  EXPECT_TRUE(Contains(names, "rib_update"));
  EXPECT_TRUE(Contains(names, "slice_compile"));
  EXPECT_FALSE(Contains(names, "apply_update_batch"));

  const auto after = runtime_.SnapshotMetrics();
  const auto before_count = before.counters.count("bgp_update.count")
                                ? before.counters.at("bgp_update.count")
                                : 0;
  EXPECT_EQ(after.counters.at("bgp_update.count"), before_count + 1);
  // No batch aggregates for the single-update wrapper.
  EXPECT_EQ(after.counters.count("batch.count"),
            before.counters.count("batch.count"));
}

// ---------------------------------------------------------------------------
// SetCompileOptions redesign

TEST_F(BatchIngestTest, SetCompileOptionsReturnsPreviousAndJournals) {
  CompileOptions sequential_opts;
  sequential_opts.parallel = false;
  sequential_opts.incremental = false;

  const std::uint64_t mark = runtime_.journal()->next_seq();
  const CompileOptions previous = runtime_.SetCompileOptions(sequential_opts);
  EXPECT_TRUE(previous.parallel);  // the defaults
  EXPECT_TRUE(previous.incremental);
  EXPECT_FALSE(runtime_.compile_options().parallel);

  const auto events =
      EventsOfType(mark, obs::JournalEventType::kCompileOptionsChanged);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].arg0, 0u);  // new: parallel=0, incremental=0
  EXPECT_EQ(events[0].arg1, 3u);  // old: parallel=1, incremental=1

  // Round-trip: restoring the returned options journals the reverse flip.
  const CompileOptions restored = runtime_.SetCompileOptions(previous);
  EXPECT_FALSE(restored.parallel);
  EXPECT_TRUE(runtime_.compile_options().parallel);
}

// The runtime's bundled sinks track journal enable/disable.
TEST_F(BatchIngestTest, SinksTrackJournalLifecycle) {
  obs::Sinks sinks = runtime_.sinks();
  EXPECT_EQ(sinks.metrics, &runtime_.metrics());
  EXPECT_EQ(sinks.journal, runtime_.journal());
  ASSERT_NE(sinks.journal, nullptr);

  runtime_.DisableJournal();
  EXPECT_EQ(runtime_.sinks().journal, nullptr);
  // Batches still work with recording disabled.
  const BatchStats stats =
      runtime_.ApplyUpdates(std::vector<bgp::BgpUpdate>{
          Announce(kC, P(1), 650)});
  EXPECT_EQ(stats.updates_applied, 1u);
  runtime_.EnableJournal();
  EXPECT_EQ(runtime_.sinks().journal, runtime_.journal());
}

// ---------------------------------------------------------------------------
// Run-to-run determinism: the same fixture and batches twice give a
// byte-identical journal JSONL (timestamps and measured durations
// stripped) and identical metric counters, with the compile pool on.

// Removes the "ts":<float> field from every line of ToJsonl() output, and
// masks the trailing duration arg of *_end events (measured µs — wall
// clock, not behavior). The remainder must be byte-identical across runs.
std::string StripTimestamps(const std::string& jsonl) {
  std::string out;
  std::size_t pos = 0;
  while (pos < jsonl.size()) {
    const std::size_t eol = jsonl.find('\n', pos);
    const std::size_t end = eol == std::string::npos ? jsonl.size() : eol;
    std::string line = jsonl.substr(pos, end - pos);
    const std::size_t ts = line.find("\"ts\":");
    if (ts != std::string::npos) {
      const std::size_t comma = line.find(',', ts);
      if (comma != std::string::npos) line.erase(ts, comma - ts + 1);
    }
    if (line.find("_end\"") != std::string::npos) {
      const std::size_t open = line.find("\"args\": [");
      const std::size_t close = line.find(']', open);
      if (open != std::string::npos && close != std::string::npos) {
        const std::size_t last_comma = line.rfind(',', close);
        if (last_comma != std::string::npos && last_comma > open) {
          line.replace(last_comma + 1, close - last_comma - 1, " _");
        }
      }
    }
    out += line;
    out += '\n';
    pos = end + 1;
  }
  return out;
}

TEST_F(BatchIngestTest, ApplyUpdatesIsRunToRunDeterministic) {
  const auto batches = MixedBatches(/*rounds=*/3);
  std::string first_journal;
  std::map<std::string, std::uint64_t> first_counters;
  for (int run = 0; run < 2; ++run) {
    auto runtime = std::make_unique<SdxRuntime>();
    RuntimeOptions options;
    options.compile.threads = 4;
    runtime->Configure(options);
    Populate(*runtime);
    for (const auto& batch : batches) runtime->ApplyUpdates(batch);
    const std::string journal = StripTimestamps(runtime->journal()->ToJsonl());
    const obs::MetricsSnapshot snapshot = runtime->SnapshotMetrics();
    if (run == 0) {
      first_journal = journal;
      first_counters = snapshot.counters;
      EXPECT_FALSE(first_journal.empty());
    } else {
      EXPECT_EQ(first_journal, journal)
          << "journal JSONL must be byte-identical across runs";
      EXPECT_EQ(first_counters, snapshot.counters)
          << "metric counters must be identical across runs";
    }
  }
}

// ---------------------------------------------------------------------------
// The live decision.updates counter: the control thread increments it per
// slot while the time-series sampler thread reads it
// (CollectTimeSeriesValues) and health is polled between batches. CI runs
// this under the thread sanitizer; here it asserts the count lands exactly.

TEST_F(BatchIngestTest, LiveDecisionCounterRacesTimeSeriesSampler) {
  runtime_.EnableConvergenceTracking();
  runtime_.EnableTimeSeries(/*interval_seconds=*/0.0005);
  const double base = runtime_.CollectTimeSeriesValues().at("decision.updates");

  std::size_t applied = 0;
  for (const auto& batch : MixedBatches(/*rounds=*/12)) {
    applied += runtime_.ApplyUpdates(batch).updates_applied;
    runtime_.PublishHealth();
    EXPECT_GE(runtime_.HealthSnapshot().last_decision_seconds, 0.0);
  }
  runtime_.SampleTimeSeriesNow();
  runtime_.DisableTimeSeries();

  const auto values = runtime_.CollectTimeSeriesValues();
  ASSERT_EQ(values.count("decision.updates"), 1u);
  EXPECT_EQ(values.at("decision.updates") - base,
            static_cast<double>(applied));
  ASSERT_NE(runtime_.timeseries(), nullptr);
  EXPECT_GT(runtime_.timeseries()->size(), 0u);
}

}  // namespace
}  // namespace sdx::core

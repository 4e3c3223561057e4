// The control-plane flight recorder: ring/overwrite semantics, cursors,
// JSONL round trips, and the end-to-end provenance guarantee — one BGP
// announcement's update id is recoverable from session ingress through the
// route-server decision, group/VNH construction, and every flow-mod it
// caused, all the way to the re-advertisements it triggered.
#include <gtest/gtest.h>

#include <set>

#include "obs/journal.h"
#include "sdx/multi_switch.h"
#include "sdx/session_frontend.h"

namespace sdx::core {
namespace {

using obs::Journal;
using obs::JournalEvent;
using obs::JournalEventType;
using obs::kNoUpdateId;

net::IPv4Prefix Pfx(const char* text) {
  return *net::IPv4Prefix::Parse(text);
}

// --- Ring semantics -------------------------------------------------------

TEST(Journal, RecordsEventsInOrder) {
  Journal journal(8);
  journal.Record(JournalEventType::kCompileBegin, kNoUpdateId);
  journal.Record(JournalEventType::kCompileEnd, kNoUpdateId, 3, 42, 17);
  auto events = journal.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[0].type, JournalEventType::kCompileBegin);
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_EQ(events[1].arg0, 3u);
  EXPECT_EQ(events[1].arg1, 42u);
  EXPECT_EQ(events[1].arg2, 17u);
  EXPECT_GE(events[1].seconds, events[0].seconds);
}

TEST(Journal, RingOverwritesOldestButSeqsNeverReused) {
  Journal journal(4);
  for (std::uint64_t i = 0; i < 6; ++i) {
    journal.Record(JournalEventType::kRsDecision, i + 1, i);
  }
  EXPECT_EQ(journal.capacity(), 4u);
  EXPECT_EQ(journal.size(), 4u);
  EXPECT_EQ(journal.total_recorded(), 6u);
  EXPECT_EQ(journal.overwritten(), 2u);
  EXPECT_EQ(journal.oldest_seq(), 2u);
  EXPECT_EQ(journal.next_seq(), 6u);
  auto events = journal.Events();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 2 + i);
    EXPECT_EQ(events[i].arg0, 2 + i);  // payload followed the overwrite
  }
}

TEST(Journal, TailSinceResumesAndDetectsGaps) {
  Journal journal(4);
  journal.Record(JournalEventType::kRsDecision, 1);
  journal.Record(JournalEventType::kRsDecision, 2);
  auto first = journal.TailSince(0);
  ASSERT_EQ(first.size(), 2u);
  const std::uint64_t cursor = first.back().seq + 1;

  // Overwrite the whole ring: the cursor's window is gone.
  for (int i = 0; i < 5; ++i) {
    journal.Record(JournalEventType::kVnhBind, 3);
  }
  auto tail = journal.TailSince(cursor);
  ASSERT_EQ(tail.size(), 4u);
  // The gap is visible: the first returned seq is past the cursor.
  EXPECT_GT(tail.front().seq, cursor);
  EXPECT_EQ(tail.back().seq, journal.next_seq() - 1);

  // A cursor at next_seq() returns nothing.
  EXPECT_TRUE(journal.TailSince(journal.next_seq()).empty());
}

TEST(Journal, ClearKeepsSeqNumberingAndUpdateIds) {
  Journal journal(8);
  const obs::UpdateId id = journal.NextUpdateId();
  journal.Record(JournalEventType::kRsDecision, id);
  journal.Clear();
  EXPECT_TRUE(journal.empty());
  EXPECT_EQ(journal.total_recorded(), 1u);
  EXPECT_EQ(journal.oldest_seq(), journal.next_seq());

  journal.Record(JournalEventType::kRsDecision, journal.NextUpdateId());
  auto events = journal.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].seq, 1u);        // numbering continued
  EXPECT_EQ(events[0].update_id, 2u);  // ids continued
}

TEST(Journal, UpdateIdsStartAtOneAndAreMonotonic) {
  Journal journal(4);
  EXPECT_EQ(journal.NextUpdateId(), 1u);
  EXPECT_EQ(journal.NextUpdateId(), 2u);
  EXPECT_EQ(journal.current_update_id(), kNoUpdateId);
}

TEST(Journal, UpdateIdScopeSetsAndRestores) {
  Journal journal(4);
  journal.set_current_update_id(7);
  {
    obs::UpdateIdScope scope(&journal, 9);
    EXPECT_EQ(journal.current_update_id(), 9u);
    {
      obs::UpdateIdScope inner(&journal, 11);
      EXPECT_EQ(journal.current_update_id(), 11u);
    }
    EXPECT_EQ(journal.current_update_id(), 9u);
  }
  EXPECT_EQ(journal.current_update_id(), 7u);
  // Null journal: the scope is a no-op, not a crash.
  obs::UpdateIdScope null_scope(nullptr, 3);
  obs::JournalRecord(nullptr, JournalEventType::kRsDecision, 3);
}

// --- JSONL ----------------------------------------------------------------

TEST(Journal, TypeNamesRoundTrip) {
  for (int i = 0; i <= static_cast<int>(JournalEventType::kFlowRulesRetire);
       ++i) {
    const auto type = static_cast<JournalEventType>(i);
    JournalEventType back;
    ASSERT_TRUE(
        obs::JournalEventTypeFromName(obs::JournalEventTypeName(type), &back));
    EXPECT_EQ(back, type);
  }
  JournalEventType out;
  EXPECT_FALSE(obs::JournalEventTypeFromName("not_a_type", &out));
}

TEST(Journal, JsonlRoundTripsIncludingEscapes) {
  Journal journal(8);
  journal.Record(JournalEventType::kFlowRuleInstall, 5, 1, 1000, 2,
                 "match \"dst\\port\"\n10.0.0.0/8");
  journal.Record(JournalEventType::kCompileEnd, kNoUpdateId, 7, 8, 9);
  const std::string jsonl = journal.ToJsonl();
  auto parsed = Journal::FromJsonl(jsonl);
  auto original = journal.Events();
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].seq, original[i].seq);
    EXPECT_EQ(parsed[i].update_id, original[i].update_id);
    EXPECT_EQ(parsed[i].type, original[i].type);
    EXPECT_EQ(parsed[i].arg0, original[i].arg0);
    EXPECT_EQ(parsed[i].arg1, original[i].arg1);
    EXPECT_EQ(parsed[i].arg2, original[i].arg2);
    EXPECT_EQ(parsed[i].detail, original[i].detail);
    EXPECT_NEAR(parsed[i].seconds, original[i].seconds, 1e-6);
  }
}

TEST(Journal, FromJsonlRejectsMalformedLines) {
  EXPECT_THROW(Journal::FromJsonl("{\"seq\": }"), std::runtime_error);
  EXPECT_THROW(
      Journal::FromJsonl(
          "{\"seq\":0,\"ts\":0,\"update\":0,\"type\":\"bogus_event\","
          "\"args\":[0,0,0],\"detail\":\"\"}"),
      std::runtime_error);
  EXPECT_TRUE(Journal::FromJsonl("\n\n").empty());
}

// --- End-to-end provenance ------------------------------------------------

class JournalProvenanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    runtime_.AddParticipant(100, 1);
    runtime_.AddParticipant(200, 1);
    runtime_.AddParticipant(300, 1);
    OutboundClause web;
    web.match = policy::Predicate::DstPort(80);
    web.to = 200;
    runtime_.SetOutboundPolicy(100, {web});
    runtime_.FullCompile();

    frontend_ = std::make_unique<SessionFrontend>(runtime_);
    for (AsNumber as : {100u, 200u, 300u}) frontend_->Connect(as);
  }

  bgp::BgpUpdate Announce(AsNumber from, const char* prefix) {
    bgp::Announcement a;
    a.from_as = from;
    a.route.prefix = Pfx(prefix);
    a.route.as_path = {from};
    a.route.next_hop = runtime_.RouterIp(from);
    return bgp::BgpUpdate{a};
  }

  // Direct injection: one update as a batch of one.
  BatchStats Apply(const bgp::BgpUpdate& update) {
    return runtime_.ApplyUpdates({&update, 1});
  }

  // Recreates (or, with enabled = false, removes) the journal.
  void SetJournal(bool enabled, std::size_t capacity) {
    obs::TelemetryOptions telemetry = runtime_.telemetry_options();
    telemetry.journal = {.enabled = enabled, .capacity = capacity};
    runtime_.ConfigureTelemetry(telemetry);
  }

  SdxRuntime runtime_;
  std::unique_ptr<SessionFrontend> frontend_;
};

TEST_F(JournalProvenanceTest, OneAnnouncementTraceableEndToEnd) {
  obs::Journal* journal = runtime_.journal();
  ASSERT_NE(journal, nullptr);
  const std::uint64_t before = journal->next_seq();

  frontend_->FindSession(200)->SendToPeer(Announce(200, "10.0.0.0/8"));
  ASSERT_EQ(frontend_->Pump(), 1u);

  // The announcement got a fresh nonzero id at session ingress.
  auto events = journal->TailSince(before);
  ASSERT_FALSE(events.empty());
  ASSERT_EQ(events.front().type, JournalEventType::kBgpSessionRx);
  const obs::UpdateId id = events.front().update_id;
  ASSERT_NE(id, kNoUpdateId);

  // Every pipeline stage shows up carrying that same id.
  std::set<JournalEventType> stages;
  for (const JournalEvent& e : events) {
    if (e.update_id == id) stages.insert(e.type);
  }
  EXPECT_TRUE(stages.count(JournalEventType::kBgpSessionRx));
  EXPECT_TRUE(stages.count(JournalEventType::kBgpUpdateBegin));
  EXPECT_TRUE(stages.count(JournalEventType::kRsDecision));
  EXPECT_TRUE(stages.count(JournalEventType::kFecGroupCreate));
  EXPECT_TRUE(stages.count(JournalEventType::kVnhBind));
  EXPECT_TRUE(stages.count(JournalEventType::kFlowRuleInstall));
  EXPECT_TRUE(stages.count(JournalEventType::kBgpUpdateEnd));
  EXPECT_TRUE(stages.count(JournalEventType::kBgpSessionTx));

  // No other update id appears: this pump processed exactly one update.
  for (const JournalEvent& e : events) {
    EXPECT_TRUE(e.update_id == id || e.update_id == kNoUpdateId)
        << "unexpected id " << e.update_id << " on "
        << obs::JournalEventTypeName(e.type);
  }

  // A second announcement gets the next id — ids never repeat.
  const std::uint64_t mark = journal->next_seq();
  frontend_->FindSession(300)->SendToPeer(Announce(300, "20.0.0.0/8"));
  frontend_->Pump();
  auto next = journal->TailSince(mark);
  ASSERT_FALSE(next.empty());
  EXPECT_EQ(next.front().type, JournalEventType::kBgpSessionRx);
  EXPECT_GT(next.front().update_id, id);
}

TEST_F(JournalProvenanceTest, FullCompileJournaledAsAmbientAggregates) {
  obs::Journal* journal = runtime_.journal();
  const std::uint64_t before = journal->next_seq();
  runtime_.FullCompile();
  auto events = journal->TailSince(before);
  bool saw_begin = false, saw_end = false, saw_bulk = false;
  for (const JournalEvent& e : events) {
    EXPECT_EQ(e.update_id, kNoUpdateId)
        << obs::JournalEventTypeName(e.type);
    // A generation swap journals aggregates, never per-rule events.
    EXPECT_NE(e.type, JournalEventType::kFlowRuleInstall);
    EXPECT_NE(e.type, JournalEventType::kFlowRuleDelete);
    saw_begin |= e.type == JournalEventType::kCompileBegin;
    saw_end |= e.type == JournalEventType::kCompileEnd;
    saw_bulk |= e.type == JournalEventType::kFlowRulesBulk;
  }
  EXPECT_TRUE(saw_begin);
  EXPECT_TRUE(saw_end);
  EXPECT_TRUE(saw_bulk);
}

TEST_F(JournalProvenanceTest, DisableJournalTurnsRecordingOff) {
  SetJournal(false, obs::Journal::kDefaultCapacity);
  EXPECT_EQ(runtime_.journal(), nullptr);
  // The pipeline still works; nothing records, nothing crashes. (Sessions
  // connected before the disable keep their old pointer by design, so use
  // the direct-injection entry point here.)
  EXPECT_EQ(Apply(Announce(300, "30.0.0.0/8")).prefixes_changed, 1u);

  // Re-enabling swaps in a fresh ring, whose only event is the option
  // change itself.
  SetJournal(true, 16);
  ASSERT_NE(runtime_.journal(), nullptr);
  EXPECT_EQ(runtime_.journal()->capacity(), 16u);
  const auto events = runtime_.journal()->Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, JournalEventType::kTelemetryOptionsChanged);
}

TEST_F(JournalProvenanceTest, ShrunkRingStillAnswersRecentPast) {
  SetJournal(true, 8);  // rewires RS + flow table to the tiny ring
  obs::Journal* journal = runtime_.journal();
  Apply(Announce(200, "10.0.0.0/8"));
  Apply(Announce(300, "20.0.0.0/8"));
  EXPECT_LE(journal->size(), 8u);
  EXPECT_GT(journal->total_recorded(), journal->size());
  // The most recent events survive and are contiguous up to next_seq().
  auto events = journal->Events();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().seq, journal->next_seq() - 1);
}

TEST(MultiSwitchJournal, FlowModsAttributedPerSwitch) {
  SdxRuntime runtime;
  runtime.AddParticipant(100, 1);
  runtime.AddParticipant(200, 1);
  runtime.AddParticipant(300, 1);
  OutboundClause web;
  web.match = policy::Predicate::DstPort(80);
  web.to = 200;
  runtime.SetOutboundPolicy(100, {web});
  runtime.AnnouncePrefix(200, Pfx("10.0.0.0/8"));
  runtime.FullCompile();

  MultiSwitchDeployment deployment(runtime.topology(), 2);
  deployment.SetSinks(runtime.sinks());
  const std::uint64_t before = runtime.journal()->next_seq();
  deployment.Install(runtime.data_plane().table().rules());

  std::set<std::uint64_t> switches;
  for (const JournalEvent& e : runtime.journal()->TailSince(before)) {
    if (e.type == JournalEventType::kFlowRuleInstall ||
        e.type == JournalEventType::kFlowRulesBulk) {
      switches.insert(e.arg0);
    }
  }
  // Core (0) and both edges (1, 2) all produced flow-mod events.
  EXPECT_TRUE(switches.count(0));
  EXPECT_TRUE(switches.count(1));
  EXPECT_TRUE(switches.count(2));
}

}  // namespace
}  // namespace sdx::core

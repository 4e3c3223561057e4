// FlowRecorder (DESIGN.md §10): deterministic sampling, sFlow-style
// volume estimation, bounded-cache eviction, idle/active timeouts, and
// byte-identical JSONL export for a fixed seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "obs/flow_recorder.h"

namespace sdx::obs {
namespace {

FlowRecorder::Options SampleEverything() {
  FlowRecorder::Options options;
  options.sample_rate = 1;
  return options;
}

FlowRecorder::Sample MakeSample(std::uint32_t in_port, std::uint32_t out_port,
                                std::uint64_t cookie = 7,
                                std::uint32_t bytes = 100) {
  FlowRecorder::Sample s;
  s.in_port = in_port;
  s.out_port = out_port;
  s.rule_cookie = cookie;
  s.priority = 100;
  s.fec = 0xAA00 + cookie;
  s.size_bytes = bytes;
  return s;
}

// ---------------------------------------------------------------------------
// Sampling decision

TEST(FlowRecorderSampling, IsAPureFunctionOfSeedAndSeq) {
  for (std::uint64_t seq = 0; seq < 1000; ++seq) {
    EXPECT_EQ(FlowRecorder::Sampled(42, seq, 64),
              FlowRecorder::Sampled(42, seq, 64));
  }
}

TEST(FlowRecorderSampling, RateOneSamplesEverything) {
  for (std::uint64_t seq = 0; seq < 100; ++seq) {
    EXPECT_TRUE(FlowRecorder::Sampled(7, seq, 1));
    EXPECT_TRUE(FlowRecorder::Sampled(7, seq, 0));  // sanitized to 1
  }
}

TEST(FlowRecorderSampling, HitsRoughlyTheConfiguredRate) {
  constexpr std::uint64_t kPackets = 1 << 16;
  constexpr std::uint32_t kRate = 64;
  std::uint64_t sampled = 0;
  for (std::uint64_t seq = 0; seq < kPackets; ++seq) {
    if (FlowRecorder::Sampled(42, seq, kRate)) ++sampled;
  }
  const double expected = static_cast<double>(kPackets) / kRate;  // 1024
  EXPECT_GT(sampled, expected / 2);
  EXPECT_LT(sampled, expected * 2);
}

TEST(FlowRecorderSampling, DifferentSeedsPickDifferentPackets) {
  bool diverged = false;
  for (std::uint64_t seq = 0; seq < 10000 && !diverged; ++seq) {
    diverged = FlowRecorder::Sampled(1, seq, 64) !=
               FlowRecorder::Sampled(2, seq, 64);
  }
  EXPECT_TRUE(diverged);
}

// ---------------------------------------------------------------------------
// Volume estimation

TEST(FlowRecorder, EstimatesScaleSampledVolumeByRate) {
  FlowRecorder::Options options;
  options.seed = 5;
  options.sample_rate = 4;
  FlowRecorder recorder(options);
  for (int i = 0; i < 4000; ++i) {
    recorder.RecordPacket(MakeSample(1, 2, /*cookie=*/7, /*bytes=*/100));
  }
  recorder.FlushAll();
  const std::vector<FlowRecord> records = recorder.Drain();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].est_packets, records[0].sampled_packets * 4);
  EXPECT_EQ(records[0].est_bytes, records[0].sampled_bytes * 4);
  EXPECT_EQ(records[0].sampled_bytes, records[0].sampled_packets * 100);
  EXPECT_EQ(recorder.packets_seen(), 4000u);
  EXPECT_EQ(recorder.packets_sampled(), records[0].sampled_packets);
}

// ---------------------------------------------------------------------------
// Deterministic export

std::string RunFixedStream(std::uint64_t seed) {
  FlowRecorder::Options options;
  options.seed = seed;
  options.sample_rate = 8;
  FlowRecorder recorder(options);
  recorder.SetPortOwner(1, 100);
  recorder.SetPortOwner(2, 200);
  recorder.SetPortOwner(3, 300);
  for (int i = 0; i < 5000; ++i) {
    recorder.RecordPacket(MakeSample(1 + i % 2, 3, /*cookie=*/10 + i % 3,
                                     /*bytes=*/64 + i % 700));
  }
  recorder.FlushAll();
  return recorder.DrainJsonl(/*timestamps=*/false);
}

TEST(FlowRecorder, FixedSeedExportIsByteIdentical) {
  const std::string a = RunFixedStream(42);
  const std::string b = RunFixedStream(42);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(FlowRecorder, DifferentSeedsProduceDifferentExports) {
  EXPECT_NE(RunFixedStream(1), RunFixedStream(2));
}

TEST(FlowRecord, ToJsonOmitsTimestampsOnRequest) {
  FlowRecord record;
  record.first_seconds = 1.5;
  record.last_seconds = 2.5;
  record.close_reason = "flush";
  EXPECT_NE(record.ToJson(/*timestamps=*/true).find("first_ts"),
            std::string::npos);
  EXPECT_EQ(record.ToJson(/*timestamps=*/false).find("first_ts"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Participant resolution

TEST(FlowRecorder, ResolvesPortOwnersAtExportTime) {
  FlowRecorder recorder(SampleEverything());
  recorder.RecordPacket(MakeSample(1, 2));
  // Owners declared AFTER the packet: export-time resolution still works.
  recorder.SetPortOwner(1, 65001);
  recorder.SetPortOwner(2, 65002);
  recorder.FlushAll();
  const auto records = recorder.Drain();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].src_as, 65001u);
  EXPECT_EQ(records[0].dst_as, 65002u);
}

TEST(FlowRecorder, UnknownPortsExportAsZero) {
  FlowRecorder recorder(SampleEverything());
  recorder.RecordPacket(MakeSample(9, 10));
  recorder.FlushAll();
  const auto records = recorder.Drain();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].src_as, 0u);
  EXPECT_EQ(records[0].dst_as, 0u);
}

// ---------------------------------------------------------------------------
// Cache bounds

TEST(FlowRecorder, EvictsTheOldestFlowDeterministically) {
  FlowRecorder::Options options;
  options.sample_rate = 1;
  options.cache_capacity = 2;
  FlowRecorder recorder(options);
  recorder.RecordPacket(MakeSample(1, 2, /*cookie=*/1));  // seq 0
  recorder.RecordPacket(MakeSample(3, 4, /*cookie=*/2));  // seq 1
  recorder.RecordPacket(MakeSample(5, 6, /*cookie=*/3));  // seq 2 -> evict
  EXPECT_EQ(recorder.cache_evictions(), 1u);
  EXPECT_EQ(recorder.live_flows(), 2u);
  const auto records = recorder.Drain();
  ASSERT_EQ(records.size(), 1u);
  // The victim is the flow whose last sample is oldest: cookie 1, seq 0.
  EXPECT_EQ(records[0].rule_cookie, 1u);
  EXPECT_STREQ(records[0].close_reason, "evict");
}

TEST(FlowRecorder, TouchingAFlowSavesItFromEviction) {
  FlowRecorder::Options options;
  options.sample_rate = 1;
  options.cache_capacity = 2;
  FlowRecorder recorder(options);
  recorder.RecordPacket(MakeSample(1, 2, /*cookie=*/1));  // seq 0
  recorder.RecordPacket(MakeSample(3, 4, /*cookie=*/2));  // seq 1
  recorder.RecordPacket(MakeSample(1, 2, /*cookie=*/1));  // seq 2: refresh
  recorder.RecordPacket(MakeSample(5, 6, /*cookie=*/3));  // seq 3 -> evict
  const auto records = recorder.Drain();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].rule_cookie, 2u);  // cookie 1 was refreshed
}

TEST(FlowRecorder, AnUndrainedExportQueueStaysAtItsCapacity) {
  FlowRecorder::Options options;
  options.sample_rate = 1;
  options.cache_capacity = 1;  // every new flow evicts (closes) the last
  FlowRecorder recorder(options);
  constexpr std::uint64_t kExtra = 40;
  const std::uint64_t flows = FlowRecorder::kExportCapacity + kExtra;
  for (std::uint64_t cookie = 0; cookie < flows; ++cookie) {
    recorder.RecordPacket(MakeSample(1, 2, cookie));
  }
  recorder.FlushAll();
  // Every flow closed: the first kExportCapacity queued, the rest dropped.
  EXPECT_EQ(recorder.cache_evictions(), flows - 1);
  EXPECT_EQ(recorder.flows_exported(), FlowRecorder::kExportCapacity);
  EXPECT_EQ(recorder.flows_dropped(), kExtra);
  auto records = recorder.Drain();
  ASSERT_EQ(records.size(), FlowRecorder::kExportCapacity);
  EXPECT_EQ(records.front().rule_cookie, 0u);
  EXPECT_EQ(records.back().rule_cookie, FlowRecorder::kExportCapacity - 1);
  // Draining makes room again.
  recorder.RecordPacket(MakeSample(1, 2, flows));
  recorder.FlushAll();
  records = recorder.Drain();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].rule_cookie, flows);
  EXPECT_EQ(recorder.flows_dropped(), kExtra);
}

TEST(FlowRecorder, FlushExportsInDeterministicKeyOrder) {
  FlowRecorder recorder(SampleEverything());
  recorder.RecordPacket(MakeSample(9, 1, /*cookie=*/3));
  recorder.RecordPacket(MakeSample(2, 1, /*cookie=*/1));
  recorder.RecordPacket(MakeSample(5, 1, /*cookie=*/2));
  recorder.FlushAll();
  const auto records = recorder.Drain();
  ASSERT_EQ(records.size(), 3u);
  // Key order, not insertion order: sorted by in_port first.
  EXPECT_EQ(records[0].in_port, 2u);
  EXPECT_EQ(records[1].in_port, 5u);
  EXPECT_EQ(records[2].in_port, 9u);
  for (const auto& record : records) {
    EXPECT_STREQ(record.close_reason, "flush");
  }
  EXPECT_EQ(recorder.live_flows(), 0u);
  EXPECT_EQ(recorder.flows_exported(), 3u);
}

// The flow cache is an open-addressing table with the LRU list threaded
// through its slots; erasing shifts entries and growing rehashes them.
// A plain list-based LRU model must export the same records in the same
// order, through growth (capacity 300 over 200 keys) and through steady
// eviction (capacity 37).
TEST(FlowRecorder, CacheMatchesAReferenceLru) {
  for (const std::size_t capacity : {std::size_t{37}, std::size_t{300}}) {
    FlowRecorder::Options options;
    options.sample_rate = 1;
    options.cache_capacity = capacity;
    FlowRecorder recorder(options);

    struct Model {
      std::uint32_t in_port;
      std::uint64_t cookie;
      std::uint64_t packets = 0;
      std::uint64_t bytes = 0;
      std::uint64_t first_seq = 0;
      std::uint64_t last_seq = 0;
    };
    std::vector<Model> lru;  // front = least recently sampled
    std::vector<Model> expected;
    std::uint64_t evictions = 0;
    std::uint64_t state = 12345;
    for (std::uint64_t seq = 0; seq < 20000; ++seq) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      // Skewed keys: a hot few and a long tail, 200 in all.
      const std::uint64_t draw = (state >> 33) % 1000;
      const std::uint64_t key = draw < 500 ? draw % 10 : draw % 200;
      const auto in_port = static_cast<std::uint32_t>(key % 16);
      const std::uint64_t cookie = key;
      const auto bytes = static_cast<std::uint32_t>(64 + seq % 7);
      recorder.RecordPacket(MakeSample(in_port, 1, cookie, bytes));

      auto it = std::find_if(lru.begin(), lru.end(), [&](const Model& m) {
        return m.cookie == cookie;
      });
      Model touched;
      if (it != lru.end()) {
        touched = *it;
        lru.erase(it);
      } else {
        if (lru.size() == capacity) {
          expected.push_back(lru.front());
          lru.erase(lru.begin());
          ++evictions;
        }
        touched = Model{in_port, cookie};
        touched.first_seq = seq;
      }
      touched.packets += 1;
      touched.bytes += bytes;
      touched.last_seq = seq;
      lru.push_back(touched);
    }
    EXPECT_EQ(recorder.live_flows(), lru.size());
    EXPECT_EQ(recorder.cache_evictions(), evictions);
    recorder.FlushAll();
    std::sort(lru.begin(), lru.end(), [](const Model& a, const Model& b) {
      return std::pair(a.in_port, a.cookie) < std::pair(b.in_port, b.cookie);
    });
    const std::size_t evicted = expected.size();
    expected.insert(expected.end(), lru.begin(), lru.end());

    const auto records = recorder.Drain();
    ASSERT_EQ(records.size(), expected.size()) << "capacity=" << capacity;
    for (std::size_t i = 0; i < records.size(); ++i) {
      SCOPED_TRACE(::testing::Message()
                   << "capacity=" << capacity << " record " << i);
      EXPECT_EQ(records[i].in_port, expected[i].in_port);
      EXPECT_EQ(records[i].rule_cookie, expected[i].cookie);
      EXPECT_EQ(records[i].sampled_packets, expected[i].packets);
      EXPECT_EQ(records[i].sampled_bytes, expected[i].bytes);
      EXPECT_EQ(records[i].first_seq, expected[i].first_seq);
      EXPECT_EQ(records[i].last_seq, expected[i].last_seq);
      EXPECT_STREQ(records[i].close_reason, i < evicted ? "evict" : "flush");
    }
  }
}

// ---------------------------------------------------------------------------
// Timeouts (driven by a fake clock)

TEST(FlowRecorder, IdleFlowsCloseAndRestartOnTheNextSample) {
  FlowRecorder::Options options;
  options.sample_rate = 1;
  options.idle_timeout_seconds = 15.0;
  options.active_timeout_seconds = 0.0;  // disabled
  FlowRecorder recorder(options);
  double now = 0.0;
  recorder.SetClockForTest([&now] { return now; });

  recorder.RecordPacket(MakeSample(1, 2));
  now = 10.0;
  recorder.RecordPacket(MakeSample(1, 2));  // within idle window
  EXPECT_EQ(recorder.flows_exported(), 0u);

  now = 30.0;  // 20s since last sample > 15s idle
  recorder.RecordPacket(MakeSample(1, 2));
  EXPECT_EQ(recorder.flows_exported(), 1u);
  EXPECT_EQ(recorder.live_flows(), 1u);  // restarted
  const auto records = recorder.Drain();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_STREQ(records[0].close_reason, "idle");
  EXPECT_EQ(records[0].sampled_packets, 2u);
}

TEST(FlowRecorder, LongLivedFlowsHitTheActiveTimeout) {
  FlowRecorder::Options options;
  options.sample_rate = 1;
  options.idle_timeout_seconds = 1e9;  // effectively disabled
  options.active_timeout_seconds = 60.0;
  FlowRecorder recorder(options);
  double now = 0.0;
  recorder.SetClockForTest([&now] { return now; });

  recorder.RecordPacket(MakeSample(1, 2));
  now = 30.0;
  recorder.RecordPacket(MakeSample(1, 2));
  now = 70.0;  // 70s since first sample > 60s active
  recorder.RecordPacket(MakeSample(1, 2));
  const auto records = recorder.Drain();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_STREQ(records[0].close_reason, "active");
  EXPECT_EQ(records[0].sampled_packets, 2u);
  EXPECT_EQ(recorder.live_flows(), 1u);  // the third sample started fresh
}

}  // namespace
}  // namespace sdx::obs

// Unit tests for the observability primitives: histogram bucketing and
// percentile extraction, span nesting, registry handle stability, drop
// counters, and the snapshot JSON/text exporters (including a grammar-level
// validation of ToJson()'s output).
#include <gtest/gtest.h>

#include <cctype>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/drop_reason.h"
#include "obs/metrics.h"
#include "obs/sharded.h"
#include "obs/timer.h"
#include "obs/trace.h"

namespace sdx::obs {
namespace {

// ---------------------------------------------------------------------------
// Histogram

TEST(Histogram, EmptyIsAllZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.Percentile(0.5), 0.0);
}

TEST(Histogram, BucketsObservationsByUpperBound) {
  Histogram h({1.0, 10.0, 100.0});
  ASSERT_EQ(h.bucket_counts().size(), 4u);  // 3 finite + overflow

  h.Observe(0.5);    // <= 1
  h.Observe(1.0);    // <= 1 (bounds are inclusive)
  h.Observe(5.0);    // <= 10
  h.Observe(100.0);  // <= 100
  h.Observe(1e6);    // overflow

  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 1u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 5.0 + 100.0 + 1e6);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 1e6);
}

TEST(Histogram, PercentileInterpolatesWithinBucket) {
  Histogram h({10.0, 20.0, 30.0});
  // 10 observations in (10, 20]: percentiles land inside that bucket.
  for (int i = 1; i <= 10; ++i) h.Observe(10.0 + i);
  const double p50 = h.Percentile(0.5);
  EXPECT_GE(p50, 10.0);
  EXPECT_LE(p50, 20.0);
  // p0/p100 clamp to the observed extremes, not the bucket edges.
  EXPECT_DOUBLE_EQ(h.Percentile(0.0), 11.0);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 20.0);
}

TEST(Histogram, PercentilePicksTheRightBucket) {
  Histogram h({1.0, 2.0, 3.0, 4.0});
  // 90 observations <= 1, 10 in (3, 4]: p50 is in the first bucket, p99 in
  // the last.
  for (int i = 0; i < 90; ++i) h.Observe(0.5);
  for (int i = 0; i < 10; ++i) h.Observe(3.5);
  EXPECT_LE(h.Percentile(0.50), 1.0);
  EXPECT_GT(h.Percentile(0.99), 3.0);
}

TEST(Histogram, PercentileExtremesWithSingleObservation) {
  Histogram h({1.0, 10.0});
  h.Observe(3.0);
  // One observation: every quantile is that observation.
  EXPECT_DOUBLE_EQ(h.Percentile(0.0), 3.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 3.0);
}

TEST(Histogram, PercentileExtremesClampToObservedRange) {
  Histogram h({10.0, 20.0});
  h.Observe(2.0);
  h.Observe(15.0);
  // q=0 and q=1 never interpolate past what was actually seen.
  EXPECT_DOUBLE_EQ(h.Percentile(0.0), 2.0);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 15.0);
  // Overflow-bucket observations clamp to the max, not to infinity.
  h.Observe(1e9);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 1e9);
}

TEST(Histogram, DefaultLatencyBucketsAreStrictlyIncreasing) {
  const auto bounds = Histogram::LatencyBuckets();
  ASSERT_GE(bounds.size(), 2u);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
  EXPECT_LE(bounds.front(), 1e-6);  // covers microsecond compiles
  EXPECT_GE(bounds.back(), 60.0);   // covers pathological minute-long ones
}

// ---------------------------------------------------------------------------
// Tracer / TraceSpan

TEST(Tracer, RecordsNestedSpansInPreOrder) {
  Tracer tracer;
  {
    TraceSpan root(&tracer, "root");
    {
      TraceSpan a(&tracer, "a");
      TraceSpan a1(&tracer, "a1");
    }
    TraceSpan b(&tracer, "b");
  }
  const auto& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].name, "root");
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_EQ(spans[0].parent, SpanRecord::kNoParent);
  EXPECT_EQ(spans[1].name, "a");
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(spans[1].parent, 0u);
  EXPECT_EQ(spans[2].name, "a1");
  EXPECT_EQ(spans[2].depth, 2);
  EXPECT_EQ(spans[2].parent, 1u);
  EXPECT_EQ(spans[3].name, "b");
  EXPECT_EQ(spans[3].depth, 1);
  EXPECT_EQ(spans[3].parent, 0u);
  // Parent spans cover their children.
  EXPECT_GE(spans[0].seconds, spans[1].seconds);
  EXPECT_GE(spans[1].seconds, spans[2].seconds);
}

TEST(Tracer, SecondsForAndClear) {
  Tracer tracer;
  const std::size_t idx = tracer.BeginSpan("work");
  tracer.EndSpan(idx, 1.5);
  EXPECT_DOUBLE_EQ(tracer.SecondsFor("work"), 1.5);
  EXPECT_DOUBLE_EQ(tracer.SecondsFor("absent"), 0.0);
  tracer.Clear();
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(Tracer, EndSpanOutOfOrderPopsDownToTheClosedSpan) {
  Tracer tracer;
  const std::size_t root = tracer.BeginSpan("root");
  const std::size_t a = tracer.BeginSpan("a");
  const std::size_t a1 = tracer.BeginSpan("a1");
  // Close the middle span without closing its child first: the stack pops
  // down to `a`, implicitly abandoning `a1` (which keeps its 0 duration).
  tracer.EndSpan(a, 2.0);
  // The next span nests under root, not under the abandoned subtree.
  const std::size_t b = tracer.BeginSpan("b");
  tracer.EndSpan(b, 1.0);
  tracer.EndSpan(root, 5.0);

  const auto& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_DOUBLE_EQ(spans[a].seconds, 2.0);
  EXPECT_DOUBLE_EQ(spans[a1].seconds, 0.0);  // never closed
  EXPECT_EQ(spans[b].parent, root);
  EXPECT_EQ(spans[b].depth, 1);
  // Closing a bogus index is ignored, not a crash.
  tracer.EndSpan(999, 1.0);
}

TEST(Tracer, NullTracerSpanIsANoOp) {
  TraceSpan span(nullptr, "ignored");  // must not crash
  SUCCEED();
}

TEST(Tracer, RenderIndentsByDepth) {
  Tracer tracer;
  {
    TraceSpan root(&tracer, "root");
    TraceSpan child(&tracer, "child");
  }
  const std::string text = tracer.Render();
  EXPECT_NE(text.find("root"), std::string::npos);
  EXPECT_NE(text.find("child"), std::string::npos);
}

TEST(ScopedTimer, AccumulatesIntoSinkAndHistogram) {
  double sink = 0.0;
  Histogram h;
  {
    ScopedTimer timer(&sink, &h);
  }
  {
    ScopedTimer timer(&sink, &h);
  }
  EXPECT_GE(sink, 0.0);
  EXPECT_EQ(h.count(), 2u);
  { ScopedTimer none(static_cast<double*>(nullptr)); }  // null sink ok
}

// ---------------------------------------------------------------------------
// DropCounters

TEST(DropCounters, RecordsAndMerges) {
  DropCounters a;
  a.Record(DropReason::kTableMiss);
  a.Record(DropReason::kTableMiss);
  a.Record(DropReason::kNoFibRoute);
  EXPECT_EQ(a.count(DropReason::kTableMiss), 2u);
  EXPECT_EQ(a.total(), 3u);

  DropCounters b;
  b.Record(DropReason::kTableMiss);
  b.Record(DropReason::kHopLimit);
  a += b;
  EXPECT_EQ(a.count(DropReason::kTableMiss), 3u);
  EXPECT_EQ(a.count(DropReason::kHopLimit), 1u);
  EXPECT_EQ(a.total(), 5u);

  a.Reset();
  EXPECT_EQ(a.total(), 0u);
}

TEST(DropCounters, EveryReasonHasAUniqueName) {
  std::set<std::string> names;
  for (DropReason reason : kAllDropReasons) {
    names.insert(DropReasonName(reason));
  }
  EXPECT_EQ(names.size(), kDropReasonCount);
}

// ---------------------------------------------------------------------------
// Registry + snapshot

TEST(MetricsRegistry, HandlesAreStableAndShared) {
  MetricsRegistry registry;
  Counter& c1 = registry.GetCounter("x");
  c1.Increment(2);
  Counter& c2 = registry.GetCounter("x");
  EXPECT_EQ(&c1, &c2);
  EXPECT_EQ(c2.value(), 2u);
  // Same name in different kinds are distinct metrics.
  registry.GetGauge("x").Set(1.5);
  registry.GetHistogram("x").Observe(0.25);
  EXPECT_EQ(registry.size(), 3u);
}

TEST(MetricsRegistry, HistogramBoundsConflictIsDetectedNotSilent) {
  MetricsRegistry registry;
  registry.GetHistogram("lat", {1.0, 2.0}).Observe(0.5);
  // Re-resolving with the same layout is the normal handle pattern.
  registry.GetHistogram("lat", {1.0, 2.0});
  registry.GetHistogram("lat");  // bound-less lookup never conflicts
  EXPECT_EQ(registry.histogram_bounds_conflicts(), 0u);

  // A different layout for an existing histogram is a caller bug:
  // first-wins (re-bucketing live observations is impossible), an assert
  // fires in debug builds, and release builds count the conflict.
  EXPECT_DEBUG_DEATH(registry.GetHistogram("lat", {5.0}), "bucket bounds");
#ifdef NDEBUG
  EXPECT_EQ(registry.histogram_bounds_conflicts(), 1u);
#endif
  // The original layout and its observations survive either way.
  const Histogram& h = registry.GetHistogram("lat");
  EXPECT_EQ(h.upper_bounds(), (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(h.count(), 1u);
}

TEST(MetricsRegistry, SnapshotCopiesEverything) {
  MetricsRegistry registry;
  registry.GetCounter("hits").Increment(7);
  registry.GetGauge("fill").Set(0.5);
  Histogram& h = registry.GetHistogram("lat", {1.0, 2.0});
  h.Observe(0.5);
  h.Observe(1.5);

  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("hits"), 7u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("fill"), 0.5);
  const auto& view = snap.histograms.at("lat");
  EXPECT_EQ(view.count, 2u);
  EXPECT_DOUBLE_EQ(view.sum, 2.0);
  EXPECT_DOUBLE_EQ(view.min, 0.5);
  EXPECT_DOUBLE_EQ(view.max, 1.5);
  EXPECT_GT(view.p50, 0.0);
  ASSERT_EQ(view.upper_bounds.size(), 2u);
  ASSERT_EQ(view.bucket_counts.size(), 3u);
}

// Minimal JSON grammar checker — enough to prove ToJson() emits valid JSON
// and to collect an object's keys, without a JSON dependency.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Valid() {
    pos_ = 0;
    if (!Value()) return false;
    Space();
    return pos_ == text_.size();
  }

  // Keys of the top-level object (empty if the value is not an object).
  std::set<std::string> TopLevelKeys() {
    pos_ = 0;
    top_keys_.clear();
    collect_depth_ = 1;
    Value();
    return top_keys_;
  }

 private:
  void Space() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Literal(const char* word) {
    const std::size_t n = std::string(word).size();
    if (text_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  bool String(std::string* out = nullptr) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    std::string value;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
      }
      value.push_back(text_[pos_++]);
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    if (out != nullptr) *out = value;
    return true;
  }

  bool Number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Value() {
    Space();
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    ++depth_;
    Space();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      --depth_;
      return true;
    }
    while (true) {
      Space();
      std::string key;
      if (!String(&key)) return false;
      if (depth_ == collect_depth_) top_keys_.insert(key);
      Space();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      if (!Value()) return false;
      Space();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    if (pos_ >= text_.size() || text_[pos_] != '}') return false;
    ++pos_;
    --depth_;
    return true;
  }

  bool Array() {
    ++pos_;  // '['
    Space();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      if (!Value()) return false;
      Space();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    if (pos_ >= text_.size() || text_[pos_] != ']') return false;
    ++pos_;
    return true;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  int collect_depth_ = -1;
  std::set<std::string> top_keys_;
};

TEST(MetricsSnapshot, ToJsonIsValidJsonWithTheDocumentedSchema) {
  MetricsRegistry registry;
  registry.GetCounter("drop.table_miss").Increment(3);
  registry.GetGauge("cache.fill").Set(0.75);
  Histogram& h = registry.GetHistogram("compile.seconds");
  h.Observe(0.001);
  h.Observe(0.25);

  const std::string json = registry.Snapshot().ToJson();
  JsonChecker checker(json);
  ASSERT_TRUE(checker.Valid()) << json;
  EXPECT_EQ(checker.TopLevelKeys(),
            (std::set<std::string>{"counters", "gauges", "histograms"}));

  // Histogram entries expose the documented fields.
  for (const char* field :
       {"\"count\"", "\"sum\"", "\"min\"", "\"max\"", "\"p50\"", "\"p95\"",
        "\"p99\"", "\"buckets\"", "\"le\""}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }
  EXPECT_NE(json.find("\"drop.table_miss\": 3"), std::string::npos) << json;
}

TEST(MetricsSnapshot, ToJsonEscapesStrings) {
  MetricsRegistry registry;
  registry.GetCounter("weird\"name\\with\nstuff").Increment();
  const std::string json = registry.Snapshot().ToJson();
  JsonChecker checker(json);
  EXPECT_TRUE(checker.Valid()) << json;
}

TEST(MetricsSnapshot, EmptyRegistrySnapshotsToValidJson) {
  MetricsRegistry registry;
  const std::string json = registry.Snapshot().ToJson();
  JsonChecker checker(json);
  EXPECT_TRUE(checker.Valid()) << json;
}

TEST(MetricsSnapshot, ToTextMentionsEveryMetric) {
  MetricsRegistry registry;
  registry.GetCounter("a.count").Increment();
  registry.GetGauge("b.fill").Set(1.0);
  registry.GetHistogram("c.seconds").Observe(0.1);
  const std::string text = registry.Snapshot().ToText();
  EXPECT_NE(text.find("a.count"), std::string::npos);
  EXPECT_NE(text.find("b.fill"), std::string::npos);
  EXPECT_NE(text.find("c.seconds"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Sharded hot-path counters (DESIGN.md §10)

TEST(ShardedCounter, CountsAndResets) {
  ShardedCounter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(9);
  EXPECT_EQ(c.value(), 10u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ShardedCounter, MergesIncrementsAcrossThreads) {
  ShardedCounter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (auto& t : threads) t.join();
  // Quiescent read: every increment is visible.
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(ShardedDropCounters, SnapshotMatchesThePlainCounters) {
  ShardedDropCounters sharded;
  sharded.Record(DropReason::kTableMiss);
  sharded.Record(DropReason::kTableMiss);
  sharded.Record(DropReason::kNoFibRoute);
  EXPECT_EQ(sharded.count(DropReason::kTableMiss), 2u);
  EXPECT_EQ(sharded.total(), 3u);

  const DropCounters snap = sharded.Snapshot();
  for (DropReason reason : kAllDropReasons) {
    EXPECT_EQ(snap.count(reason), sharded.count(reason))
        << DropReasonName(reason);
  }
  EXPECT_EQ(snap.total(), 3u);

  sharded.Reset();
  EXPECT_EQ(sharded.total(), 0u);
}

TEST(ShardedDropCounters, ConcurrentRecordsAllLand) {
  ShardedDropCounters drops;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&drops, t] {
      const DropReason reason =
          t % 2 == 0 ? DropReason::kExplicitDrop : DropReason::kNoFibRoute;
      for (int i = 0; i < kPerThread; ++i) drops.Record(reason);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(drops.total(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(drops.count(DropReason::kExplicitDrop),
            drops.count(DropReason::kNoFibRoute));
}

TEST(ShardedHistogram, BucketsLikeThePlainHistogram) {
  ShardedHistogram sharded({1.0, 10.0, 100.0});
  Histogram plain({1.0, 10.0, 100.0});
  for (double v : {0.5, 1.0, 5.0, 100.0, 1e6}) {
    sharded.Observe(v);
    plain.Observe(v);
  }
  EXPECT_EQ(sharded.count(), plain.count());
  EXPECT_EQ(sharded.bucket_counts(), plain.bucket_counts());
  EXPECT_DOUBLE_EQ(sharded.min(), plain.min());
  EXPECT_DOUBLE_EQ(sharded.max(), plain.max());
  // Sum is kept in integer nanounits: equal within that granularity.
  EXPECT_NEAR(sharded.sum(), plain.sum(), 1e-6 * plain.count());

  sharded.Reset();
  EXPECT_EQ(sharded.count(), 0u);
  EXPECT_EQ(sharded.sum(), 0.0);
  EXPECT_EQ(sharded.min(), 0.0);
  EXPECT_EQ(sharded.max(), 0.0);
}

// The batched entry points record exactly what one Observe per value does.
TEST(ShardedHistogram, BatchedObservationsMatchOneByOne) {
  const std::vector<double> values = {0.5, 1.0, 5.0, 5.0, 100.0, 1e6, 0.25};
  ShardedHistogram one_by_one({1.0, 10.0, 100.0});
  ShardedHistogram batched({1.0, 10.0, 100.0});
  for (double v : values) one_by_one.Observe(v);
  for (int i = 0; i < 3; ++i) one_by_one.Observe(7.5);
  batched.ObserveAll(values);
  batched.Observe(7.5, 3);
  batched.ObserveAll({});
  EXPECT_EQ(batched.count(), one_by_one.count());
  EXPECT_EQ(batched.bucket_counts(), one_by_one.bucket_counts());
  EXPECT_EQ(batched.sum(), one_by_one.sum());
  EXPECT_EQ(batched.min(), one_by_one.min());
  EXPECT_EQ(batched.max(), one_by_one.max());
}

TEST(ShardedHistogram, PercentilesComeFromTheSharedHelper) {
  ShardedHistogram h({10.0, 20.0, 30.0});
  for (int i = 1; i <= 10; ++i) h.Observe(10.0 + i);
  const double p50 = PercentileFromBuckets(h.upper_bounds(),
                                           h.bucket_counts(), h.count(),
                                           h.min(), h.max(), 0.5);
  EXPECT_GE(p50, 10.0);
  EXPECT_LE(p50, 20.0);
}

TEST(ShardedHistogram, ConcurrentObservationsMergeExactly) {
  ShardedHistogram h({0.25, 0.5, 1.0});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Observe(t % 2 == 0 ? 0.1 : 0.75);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  const auto buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], static_cast<std::uint64_t>(kThreads / 2) *
                            kPerThread);  // the 0.1 observations
  EXPECT_EQ(buckets[3], 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.1);
  EXPECT_DOUBLE_EQ(h.max(), 0.75);
}

// ---------------------------------------------------------------------------
// Registry concurrency (satellite: snapshot-vs-increment races). Run under
// TSan these would flag any unsynchronized metric access.

TEST(MetricsRegistry, SnapshotIsSafeAgainstConcurrentMutation) {
  MetricsRegistry registry;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&registry, &stop, t] {
      const std::string name = "w" + std::to_string(t);
      Counter& counter = registry.GetCounter(name + ".count");
      Gauge& gauge = registry.GetGauge(name + ".fill");
      Histogram& hist = registry.GetHistogram(name + ".seconds");
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        counter.Increment();
        gauge.Add(0.5);
        hist.Observe(static_cast<double>(i % 100) * 1e-4);
        ++i;
      }
    });
  }
  // Readers snapshot while writers mutate AND register new metrics.
  for (int round = 0; round < 50; ++round) {
    registry.GetCounter("reader.round" + std::to_string(round)).Increment();
    const MetricsSnapshot snap = registry.Snapshot();
    for (const auto& [name, view] : snap.histograms) {
      // Internal consistency of each histogram view: buckets sum to count.
      std::uint64_t bucket_sum = 0;
      for (std::uint64_t b : view.bucket_counts) bucket_sum += b;
      EXPECT_EQ(bucket_sum, view.count) << name;
    }
  }
  stop.store(true);
  for (auto& t : writers) t.join();

  const MetricsSnapshot final_snap = registry.Snapshot();
  for (int t = 0; t < 4; ++t) {
    const std::string name = "w" + std::to_string(t);
    // Quiescent: counter, gauge, and histogram all saw the same event count.
    EXPECT_EQ(final_snap.counters.at(name + ".count"),
              final_snap.histograms.at(name + ".seconds").count);
    EXPECT_DOUBLE_EQ(
        final_snap.gauges.at(name + ".fill"),
        0.5 * static_cast<double>(final_snap.counters.at(name + ".count")));
  }
}

// ---------------------------------------------------------------------------
// Timer

TEST(Timer, SecondsSinceIsNonNegativeAndMonotone) {
  const auto start = Now();
  const double a = SecondsSince(start);
  const double b = SecondsSince(start);
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
}

}  // namespace
}  // namespace sdx::obs

// Sharded hot-path counters (DESIGN.md §10).
//
// The single-cell counters in FlowTable/Fabric serialize every packet on
// one cache line the moment processing is batched or multi-threaded. The
// sharded variants here split each tally across kShardCount cache-line-
// padded cells; a writer touches only its own shard (relaxed atomic
// increment, no RMW contention in the common case) and readers merge the
// cells lazily. Merged reads are *eventually* exact: a read concurrent
// with increments may miss in-flight additions, but a quiescent read sees
// every prior increment (the same guarantee the plain counters gave).
//
// Shard selection is per-thread: each thread gets a sticky shard id,
// assigned round-robin on first use. Single-threaded code therefore
// always hits shard 0 and stays fully deterministic.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "obs/drop_reason.h"

namespace sdx::obs {

inline constexpr std::size_t kShardCount = 16;  // power of two
static_assert((kShardCount & (kShardCount - 1)) == 0);

namespace internal {

// Sticky per-thread shard id, round-robin over threads. The counter may
// wrap; the mask keeps the result in range either way.
inline std::size_t CurrentShard() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) & (kShardCount - 1);
  return shard;
}

}  // namespace internal

// Drop-in replacement for a plain uint64 tally on the packet path.
// Non-copyable (atomics); snapshot with value().
class ShardedCounter {
 public:
  ShardedCounter() = default;
  ShardedCounter(const ShardedCounter&) = delete;
  ShardedCounter& operator=(const ShardedCounter&) = delete;

  void Increment(std::uint64_t n = 1) {
    cells_[internal::CurrentShard()].v.fetch_add(n,
                                                 std::memory_order_relaxed);
  }

  std::uint64_t value() const {
    std::uint64_t sum = 0;
    for (const Cell& c : cells_) sum += c.v.load(std::memory_order_relaxed);
    return sum;
  }

  void Reset() {
    for (Cell& c : cells_) c.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Cell, kShardCount> cells_;
};

// Sharded per-reason drop accounting. Snapshot() returns the plain
// DropCounters value the exporters and tests already consume.
class ShardedDropCounters {
 public:
  ShardedDropCounters() = default;
  ShardedDropCounters(const ShardedDropCounters&) = delete;
  ShardedDropCounters& operator=(const ShardedDropCounters&) = delete;

  void Record(DropReason reason) {
    cells_[internal::CurrentShard()]
        .counts[static_cast<std::size_t>(reason)]
        .fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t count(DropReason reason) const {
    std::uint64_t sum = 0;
    for (const Cell& c : cells_) {
      sum += c.counts[static_cast<std::size_t>(reason)].load(
          std::memory_order_relaxed);
    }
    return sum;
  }

  std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (DropReason r : kAllDropReasons) sum += count(r);
    return sum;
  }

  DropCounters Snapshot() const {
    DropCounters out;
    for (DropReason r : kAllDropReasons) out.Record(r, count(r));
    return out;
  }

  void Reset() {
    for (Cell& c : cells_) {
      for (auto& a : c.counts) a.store(0, std::memory_order_relaxed);
    }
  }

 private:
  // One reason-array per shard; 6 × 8B = 48B fits a single cache line.
  struct alignas(64) Cell {
    std::array<std::atomic<std::uint64_t>, kDropReasonCount> counts{};
  };
  std::array<Cell, kShardCount> cells_;
};

// Sharded fixed-bucket histogram. Buckets are defined by strictly
// increasing upper bounds (implicit +inf overflow bucket, same layout as
// obs::Histogram); Observe() touches only the caller's shard. Sum is
// accumulated as integer nanounits to stay lock-free without atomic<double>
// CAS loops: values are latencies/byte counts where 1e-9 relative
// granularity is far below measurement noise. Min/max use a CAS loop on
// the shard cell (rarely contended: only when a new extreme lands).
class ShardedHistogram {
 public:
  explicit ShardedHistogram(std::vector<double> upper_bounds)
      : upper_bounds_(std::move(upper_bounds)) {
    assert(upper_bounds_.size() < kMaxBuckets);
  }
  ShardedHistogram(const ShardedHistogram&) = delete;
  ShardedHistogram& operator=(const ShardedHistogram&) = delete;

  // Records `value` `times` times over (one pass, same result as a loop).
  void Observe(double value, std::uint64_t times = 1) {
    Cell& cell = cells_[internal::CurrentShard()];
    cell.buckets[BucketOf(value)].fetch_add(times, std::memory_order_relaxed);
    cell.count.fetch_add(times, std::memory_order_relaxed);
    cell.sum_nano.fetch_add(static_cast<std::int64_t>(value * 1e9) *
                                static_cast<std::int64_t>(times),
                            std::memory_order_relaxed);
    UpdateMin(cell, value);
    UpdateMax(cell, value);
  }

  // Observe() for each of `values`, tallied locally first: one atomic add
  // per touched bucket instead of three per value.
  void ObserveAll(std::span<const double> values) {
    if (values.empty()) return;
    std::array<std::uint64_t, kMaxBuckets> counts{};
    std::int64_t sum_nano = 0;
    const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
    for (const double value : values) {
      ++counts[BucketOf(value)];
      sum_nano += static_cast<std::int64_t>(value * 1e9);
    }
    Cell& cell = cells_[internal::CurrentShard()];
    for (std::size_t b = 0; b <= upper_bounds_.size(); ++b) {
      if (counts[b] != 0) {
        cell.buckets[b].fetch_add(counts[b], std::memory_order_relaxed);
      }
    }
    cell.count.fetch_add(values.size(), std::memory_order_relaxed);
    cell.sum_nano.fetch_add(sum_nano, std::memory_order_relaxed);
    UpdateMin(cell, *lo);
    UpdateMax(cell, *hi);
  }

  std::uint64_t count() const {
    std::uint64_t sum = 0;
    for (const Cell& c : cells_) {
      sum += c.count.load(std::memory_order_relaxed);
    }
    return sum;
  }

  double sum() const {
    std::int64_t nano = 0;
    for (const Cell& c : cells_) {
      nano += c.sum_nano.load(std::memory_order_relaxed);
    }
    return static_cast<double>(nano) * 1e-9;
  }

  const std::vector<double>& upper_bounds() const { return upper_bounds_; }

  // Merged bucket counts, size = upper_bounds + 1 (overflow last).
  std::vector<std::uint64_t> bucket_counts() const {
    std::vector<std::uint64_t> merged(upper_bounds_.size() + 1, 0);
    for (const Cell& c : cells_) {
      for (std::size_t i = 0; i < merged.size() && i < kMaxBuckets; ++i) {
        merged[i] += c.buckets[i].load(std::memory_order_relaxed);
      }
    }
    return merged;
  }

  double min() const {
    double m = 0.0;
    bool any = false;
    for (const Cell& c : cells_) {
      if (c.count.load(std::memory_order_relaxed) == 0) continue;
      const double v = ToDouble(c.min_bits.load(std::memory_order_relaxed));
      m = any ? std::min(m, v) : v;
      any = true;
    }
    return m;
  }

  double max() const {
    double m = 0.0;
    bool any = false;
    for (const Cell& c : cells_) {
      if (c.count.load(std::memory_order_relaxed) == 0) continue;
      const double v = ToDouble(c.max_bits.load(std::memory_order_relaxed));
      m = any ? std::max(m, v) : v;
      any = true;
    }
    return m;
  }

  void Reset() {
    for (Cell& c : cells_) {
      for (auto& b : c.buckets) b.store(0, std::memory_order_relaxed);
      c.count.store(0, std::memory_order_relaxed);
      c.sum_nano.store(0, std::memory_order_relaxed);
      c.min_bits.store(ToBits(kInf), std::memory_order_relaxed);
      c.max_bits.store(ToBits(-kInf), std::memory_order_relaxed);
    }
  }

  // Largest bucket layout a cell can hold (bounds + overflow).
  static constexpr std::size_t kMaxBuckets = 32;

 private:
  static constexpr double kInf = 1e300;

  static std::uint64_t ToBits(double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    return bits;
  }
  static double ToDouble(std::uint64_t bits) {
    double v;
    __builtin_memcpy(&v, &bits, sizeof(v));
    return v;
  }

  struct Cell {
    std::array<std::atomic<std::uint64_t>, kMaxBuckets> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::int64_t> sum_nano{0};
    std::atomic<std::uint64_t> min_bits{ToBits(kInf)};
    std::atomic<std::uint64_t> max_bits{ToBits(-kInf)};
    // Pad the mutable tail out of the next cell's line; the bucket array
    // itself is large enough that cross-cell false sharing is marginal.
    char pad[64];
  };

  // Index of the first bucket whose upper bound holds `value` (the
  // overflow bucket past the last bound).
  std::size_t BucketOf(double value) const {
    for (std::size_t i = 0; i < upper_bounds_.size(); ++i) {
      if (value <= upper_bounds_[i]) return i;
    }
    return upper_bounds_.size();
  }

  static void UpdateMin(Cell& cell, double value) {
    std::uint64_t cur = cell.min_bits.load(std::memory_order_relaxed);
    while (value < ToDouble(cur) &&
           !cell.min_bits.compare_exchange_weak(cur, ToBits(value),
                                                std::memory_order_relaxed)) {
    }
  }
  static void UpdateMax(Cell& cell, double value) {
    std::uint64_t cur = cell.max_bits.load(std::memory_order_relaxed);
    while (value > ToDouble(cur) &&
           !cell.max_bits.compare_exchange_weak(cur, ToBits(value),
                                                std::memory_order_relaxed)) {
    }
  }

  std::vector<double> upper_bounds_;
  std::array<Cell, kShardCount> cells_;
};

}  // namespace sdx::obs

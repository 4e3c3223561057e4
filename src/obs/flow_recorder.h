// Sampled flow export (DESIGN.md §10): sFlow-style 1-in-N packet sampling
// with a bounded flow cache and JSONL export.
//
// Counting every packet per (in-port, out-port, rule) tuple would put a
// map lookup on the packet path; sampling keeps the common case to one
// atomic sequence increment plus one multiply (the sampling decision).
// Only the 1-in-N sampled packets touch the flow cache. Per-flow packet
// and byte totals are then *estimates*: sampled count × sampling rate,
// which is the standard sFlow estimator and is unbiased for flows large
// enough to be worth exporting.
//
// Determinism (no std::random_device anywhere): the sampling decision for
// packet #seq is a pure function of (seed, seq) — a splitmix64 finalizer
// (util/mix.h, the same mixer as workload::DeriveSeed) applied to seed^seq.
// A fixed seed plus a fixed packet order therefore yields a byte-identical
// export (modulo wall-clock timestamp fields, which DrainJsonl can omit).
// Seeds come from the caller, typically via workload::DeriveSeed; the
// mixer is header-only, so obs stays dependency-free.
//
// Flow identity is a tuple of plain integers — obs does not know about
// net::Packet. The dataplane passes (in-port, out-port, matched rule
// cookie, priority, FEC tag); src/dst participant ASes are resolved at
// export time from a port→owner map seeded by the runtime, so the hot
// path never does that lookup.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/timer.h"
#include "util/mix.h"

namespace sdx::obs {

// The packet-path sampling decision inlines into the dataplane.
using util::Mix64;

// One exported flow: the key tuple, resolved participants, sampled and
// estimated volumes, and the sample-sequence/time window it covers.
struct FlowRecord {
  std::uint32_t in_port = 0;
  std::uint32_t out_port = 0;
  std::uint64_t rule_cookie = 0;
  std::int32_t priority = 0;
  std::uint64_t fec = 0;       // VMAC tag of the forwarding equivalence class
  std::uint32_t src_as = 0;    // owner of in_port (0 = unresolved)
  std::uint32_t dst_as = 0;    // owner of out_port (0 = unresolved)
  std::uint64_t sampled_packets = 0;
  std::uint64_t sampled_bytes = 0;
  std::uint64_t est_packets = 0;  // sampled_packets × sample_rate
  std::uint64_t est_bytes = 0;
  std::uint64_t first_seq = 0;  // packet sequence numbers (not sample count)
  std::uint64_t last_seq = 0;
  double first_seconds = 0.0;
  double last_seconds = 0.0;
  const char* close_reason = "";  // "idle" | "active" | "evict" | "flush"

  // One JSON object, single line. `timestamps` = false omits the two
  // wall-clock fields so fixed-seed runs are byte-identical.
  std::string ToJson(bool timestamps = true) const;
};

class FlowRecorder {
 public:
  struct Options {
    std::uint64_t seed = 1;            // workload::DeriveSeed output
    std::uint32_t sample_rate = 64;    // sample 1 in N packets; >= 1
    std::size_t cache_capacity = 1024; // live flows before eviction (≥ 1)
    double idle_timeout_seconds = 15.0;
    double active_timeout_seconds = 60.0;  // 0 disables active timeouts

    friend bool operator==(const Options&, const Options&) = default;
  };

  // What the dataplane hands us per forwarded packet.
  struct Sample {
    std::uint32_t in_port = 0;
    std::uint32_t out_port = 0;
    std::uint64_t rule_cookie = 0;
    std::int32_t priority = 0;
    std::uint64_t fec = 0;
    std::uint32_t size_bytes = 0;
  };

  FlowRecorder();  // default Options
  explicit FlowRecorder(Options options);
  FlowRecorder(const FlowRecorder&) = delete;
  FlowRecorder& operator=(const FlowRecorder&) = delete;

  // Hot path: one relaxed atomic increment, the mixer, and a compare
  // against a precomputed threshold — no divide, no call — for the
  // 1-in-rate unsampled common case; only sampled packets take the cache
  // mutex (in RecordSampled, which stays out of line).
  void RecordPacket(const Sample& sample) {
    const std::uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed);
    if (Mix64(options_.seed ^ seq) > sample_threshold_) return;
    RecordSampled(sample, seq);
  }

  // Declares `as` as the participant owning `port` (used to resolve
  // src_as/dst_as at export time).
  void SetPortOwner(std::uint32_t port, std::uint32_t as);

  // Closes every live flow (reason "flush") into the export queue, in
  // deterministic key order.
  void FlushAll();

  // Moves the export queue out (records appear in close order).
  std::vector<FlowRecord> Drain();
  // Drains and renders as JSONL, one record per line.
  std::string DrainJsonl(bool timestamps = true);

  // Telemetry about the telemetry.
  std::uint64_t packets_seen() const;
  std::uint64_t packets_sampled() const;
  std::uint64_t flows_exported() const;
  std::uint64_t cache_evictions() const;
  std::size_t live_flows() const;

  const Options& options() const { return options_; }

  // Replaces the wall clock (seconds since an arbitrary epoch) so tests
  // can drive idle/active timeouts without sleeping.
  void SetClockForTest(std::function<double()> clock);

  // Mix64 output is uniform over 2^64, so accepting mixed values at or
  // below 2^64/rate samples ~1 in rate packets. Precomputing this turns
  // the per-packet decision into one compare (no hardware divide).
  static constexpr std::uint64_t SampleThreshold(std::uint32_t sample_rate) {
    return sample_rate <= 1 ? ~0ull : ~0ull / sample_rate;
  }

  // The sampling decision for packet #seq under `seed`: pure, stateless,
  // exposed for tests. Must agree with the inlined RecordPacket test.
  static constexpr bool Sampled(std::uint64_t seed, std::uint64_t seq,
                                std::uint32_t sample_rate) {
    return Mix64(seed ^ seq) <= SampleThreshold(sample_rate);
  }

 private:
  struct FlowKey {
    std::uint32_t in_port;
    std::uint32_t out_port;
    std::uint64_t rule_cookie;
    std::int32_t priority;
    std::uint64_t fec;
    auto operator<=>(const FlowKey&) const = default;
  };

  struct FlowKeyHash {
    std::size_t operator()(const FlowKey& k) const {
      std::uint64_t h =
          (static_cast<std::uint64_t>(k.in_port) << 32) | k.out_port;
      h = Mix64(h ^ k.rule_cookie);
      h = Mix64(h ^ k.fec ^
                (static_cast<std::uint64_t>(
                     static_cast<std::uint32_t>(k.priority))
                 << 32));
      return static_cast<std::size_t>(h);
    }
  };

  struct FlowState {
    std::uint64_t sampled_packets = 0;
    std::uint64_t sampled_bytes = 0;
    std::uint64_t first_seq = 0;
    std::uint64_t last_seq = 0;
    double first_seconds = 0.0;
    double last_seconds = 0.0;
  };

  // One flow-cache slot; `prev`/`next` thread the LRU list through the
  // slot array by index.
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  struct Slot {
    FlowKey key{};
    FlowState state;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
    bool used = false;
  };

  // The 1-in-rate slow path: counts the sample and touches the flow cache.
  void RecordSampled(const Sample& sample, std::uint64_t seq);

  double NowSeconds() const;
  // The rest are called with mu_ held.
  void CloseLocked(const FlowKey& key, const FlowState& state,
                   const char* reason);
  // The slot holding `key`, or the empty slot that ends its probe.
  std::uint32_t FindSlot(const FlowKey& key) const;
  void LinkBack(std::uint32_t slot);
  void Unlink(std::uint32_t slot);
  // Frees `slot`, shifting later entries of its probe run back into the
  // hole (no tombstones), and relinks every entry it moves.
  void EraseSlot(std::uint32_t slot);
  // Doubles the slot array, keeping the LRU order.
  void Grow();

  Options options_;  // sanitized in the ctor, constant afterwards
  std::uint64_t sample_threshold_ = ~0ull;  // SampleThreshold(sample_rate)
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::uint64_t> packets_sampled_{0};

  mutable std::mutex mu_;
  // Flow cache on the sampled path: open addressing with linear probing
  // over a power-of-two slot array kept at most half full, so a sample
  // touches a slot or two and allocates nothing once the array has grown
  // to twice the capacity. The deterministic key order the export format
  // promises is recovered by a sort in FlushAll, which is cold.
  std::vector<Slot> slots_;
  std::size_t live_ = 0;
  // Touch order: head = least recently sampled (equivalently, smallest
  // last_seq — seq is unique and each touch moves the flow to the tail),
  // so eviction stays deterministic at O(1) per insert instead of a scan.
  std::uint32_t lru_head_ = kNil;
  std::uint32_t lru_tail_ = kNil;
  std::map<std::uint32_t, std::uint32_t> port_owner_;
  // Closed flows awaiting Drain. A deque, not a vector: it grows without
  // moving what it holds, so closing a flow never copies the backlog.
  std::deque<FlowRecord> exported_;
  std::uint64_t flows_exported_ = 0;
  std::uint64_t cache_evictions_ = 0;
  ClockSource clock_;  // injectable via SetClockForTest (under mu_)
};

}  // namespace sdx::obs

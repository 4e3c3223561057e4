#include "obs/flow_recorder.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <iterator>

namespace sdx::obs {

namespace {

std::string JsonDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

std::string FlowRecord::ToJson(bool timestamps) const {
  std::string out = "{";
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "\"in_port\": %u, \"out_port\": %u, \"cookie\": %llu, "
      "\"priority\": %d, \"fec\": %llu, \"src_as\": %u, \"dst_as\": %u",
      in_port, out_port, static_cast<unsigned long long>(rule_cookie),
      priority, static_cast<unsigned long long>(fec), src_as, dst_as);
  out += buf;
  std::snprintf(
      buf, sizeof(buf),
      ", \"sampled_packets\": %llu, \"sampled_bytes\": %llu, "
      "\"est_packets\": %llu, \"est_bytes\": %llu, "
      "\"first_seq\": %llu, \"last_seq\": %llu",
      static_cast<unsigned long long>(sampled_packets),
      static_cast<unsigned long long>(sampled_bytes),
      static_cast<unsigned long long>(est_packets),
      static_cast<unsigned long long>(est_bytes),
      static_cast<unsigned long long>(first_seq),
      static_cast<unsigned long long>(last_seq));
  out += buf;
  out += ", \"close\": \"";
  out += close_reason;
  out += "\"";
  if (timestamps) {
    out += ", \"first_ts\": " + JsonDouble(first_seconds);
    out += ", \"last_ts\": " + JsonDouble(last_seconds);
  }
  out += "}";
  return out;
}

FlowRecorder::FlowRecorder() : FlowRecorder(Options()) {}

FlowRecorder::FlowRecorder(Options options) : options_(options) {
  // A zero rate would make the estimators degenerate; treat it as
  // "sample everything".
  options_.sample_rate = std::max<std::uint32_t>(1, options_.sample_rate);
  sample_threshold_ = SampleThreshold(options_.sample_rate);
  // A full cache makes room by evicting one live flow, so it must hold one.
  options_.cache_capacity = std::max<std::size_t>(1, options_.cache_capacity);
  // Starts small; Grow() doubles up to twice the capacity.
  slots_.resize(
      std::min<std::size_t>(64, std::bit_ceil(2 * options_.cache_capacity)));
}

double FlowRecorder::NowSeconds() const { return clock_.NowSeconds(); }

void FlowRecorder::RecordSampled(const Sample& sample, std::uint64_t seq) {
  packets_sampled_.fetch_add(1, std::memory_order_relaxed);

  const FlowKey key{sample.in_port, sample.out_port, sample.rule_cookie,
                    sample.priority, sample.fec};
  std::lock_guard<std::mutex> lock(mu_);
  const double now = NowSeconds();
  std::uint32_t slot = FindSlot(key);
  if (slots_[slot].used) {
    FlowState& state = slots_[slot].state;
    // Timeout check happens on touch: a flow idle past the idle timeout,
    // or active past the active timeout, is closed and restarted.
    const bool idle = now - state.last_seconds > options_.idle_timeout_seconds;
    const bool active =
        options_.active_timeout_seconds > 0.0 &&
        now - state.first_seconds > options_.active_timeout_seconds;
    if (idle || active) {
      CloseLocked(key, state, idle ? "idle" : "active");
      state = FlowState{};
      state.first_seq = seq;
      state.first_seconds = now;
    }
    Unlink(slot);
  } else {
    if (live_ == options_.cache_capacity) {
      // Full: evict the least recently sampled flow.
      const std::uint32_t victim = lru_head_;
      CloseLocked(slots_[victim].key, slots_[victim].state, "evict");
      ++cache_evictions_;
      EraseSlot(victim);
      slot = FindSlot(key);  // the erase may have shifted the probe run
    } else if (2 * (live_ + 1) > slots_.size()) {
      Grow();
      slot = FindSlot(key);
    }
    Slot& fresh = slots_[slot];
    fresh.key = key;
    fresh.state = FlowState{};
    fresh.state.first_seq = seq;
    fresh.state.first_seconds = now;
    fresh.used = true;
    ++live_;
  }
  LinkBack(slot);
  FlowState& state = slots_[slot].state;
  state.sampled_packets += 1;
  state.sampled_bytes += sample.size_bytes;
  state.last_seq = seq;
  state.last_seconds = now;
}

std::uint32_t FlowRecorder::FindSlot(const FlowKey& key) const {
  const std::size_t wrap = slots_.size() - 1;
  std::size_t i = FlowKeyHash{}(key) & wrap;
  while (slots_[i].used && !(slots_[i].key == key)) i = (i + 1) & wrap;
  return static_cast<std::uint32_t>(i);
}

void FlowRecorder::LinkBack(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.prev = lru_tail_;
  s.next = kNil;
  (lru_tail_ == kNil ? lru_head_ : slots_[lru_tail_].next) = slot;
  lru_tail_ = slot;
}

void FlowRecorder::Unlink(std::uint32_t slot) {
  const Slot& s = slots_[slot];
  (s.prev == kNil ? lru_head_ : slots_[s.prev].next) = s.next;
  (s.next == kNil ? lru_tail_ : slots_[s.next].prev) = s.prev;
}

void FlowRecorder::EraseSlot(std::uint32_t slot) {
  Unlink(slot);
  --live_;
  const std::size_t wrap = slots_.size() - 1;
  std::size_t hole = slot;
  for (std::size_t j = (hole + 1) & wrap; slots_[j].used; j = (j + 1) & wrap) {
    // The entry at j may fill the hole iff the hole lies on its probe
    // path: cyclically no farther from j than its home slot is.
    const std::size_t home = FlowKeyHash{}(slots_[j].key) & wrap;
    if (((j - home) & wrap) < ((j - hole) & wrap)) continue;
    Slot& moved = slots_[hole];
    moved = slots_[j];
    const auto to = static_cast<std::uint32_t>(hole);
    (moved.prev == kNil ? lru_head_ : slots_[moved.prev].next) = to;
    (moved.next == kNil ? lru_tail_ : slots_[moved.next].prev) = to;
    hole = j;
  }
  slots_[hole].used = false;
}

void FlowRecorder::Grow() {
  std::vector<Slot> old(2 * slots_.size());
  old.swap(slots_);
  std::uint32_t from = lru_head_;
  lru_head_ = lru_tail_ = kNil;
  for (; from != kNil; from = old[from].next) {
    const std::uint32_t slot = FindSlot(old[from].key);
    slots_[slot].key = old[from].key;
    slots_[slot].state = old[from].state;
    slots_[slot].used = true;
    LinkBack(slot);
  }
}

void FlowRecorder::SetPortOwner(std::uint32_t port, std::uint32_t as) {
  std::lock_guard<std::mutex> lock(mu_);
  port_owner_[port] = as;
}

void FlowRecorder::CloseLocked(const FlowKey& key, const FlowState& state,
                               const char* reason) {
  if (exported_.size() >= kExportCapacity) {
    ++flows_dropped_;
    return;
  }
  FlowRecord record;
  record.in_port = key.in_port;
  record.out_port = key.out_port;
  record.rule_cookie = key.rule_cookie;
  record.priority = key.priority;
  record.fec = key.fec;
  auto src = port_owner_.find(key.in_port);
  if (src != port_owner_.end()) record.src_as = src->second;
  auto dst = port_owner_.find(key.out_port);
  if (dst != port_owner_.end()) record.dst_as = dst->second;
  record.sampled_packets = state.sampled_packets;
  record.sampled_bytes = state.sampled_bytes;
  record.est_packets = state.sampled_packets * options_.sample_rate;
  record.est_bytes = state.sampled_bytes * options_.sample_rate;
  record.first_seq = state.first_seq;
  record.last_seq = state.last_seq;
  record.first_seconds = state.first_seconds;
  record.last_seconds = state.last_seconds;
  record.close_reason = reason;
  exported_.push_back(std::move(record));
  ++flows_exported_;
}

void FlowRecorder::FlushAll() {
  std::lock_guard<std::mutex> lock(mu_);
  // The cache hashes, but the export format promises deterministic key
  // order on flush; this path is cold, so sort here.
  std::vector<const Slot*> live;
  live.reserve(live_);
  for (const Slot& slot : slots_) {
    if (slot.used) live.push_back(&slot);
  }
  std::sort(live.begin(), live.end(),
            [](const Slot* a, const Slot* b) { return a->key < b->key; });
  for (const Slot* slot : live) CloseLocked(slot->key, slot->state, "flush");
  for (Slot& slot : slots_) slot.used = false;
  live_ = 0;
  lru_head_ = lru_tail_ = kNil;
}

std::vector<FlowRecord> FlowRecorder::Drain() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FlowRecord> out(std::make_move_iterator(exported_.begin()),
                              std::make_move_iterator(exported_.end()));
  exported_.clear();
  return out;
}

std::string FlowRecorder::DrainJsonl(bool timestamps) {
  std::string out;
  for (const FlowRecord& record : Drain()) {
    out += record.ToJson(timestamps);
    out += "\n";
  }
  return out;
}

std::uint64_t FlowRecorder::packets_seen() const {
  return seq_.load(std::memory_order_relaxed);
}

std::uint64_t FlowRecorder::packets_sampled() const {
  return packets_sampled_.load(std::memory_order_relaxed);
}

std::uint64_t FlowRecorder::flows_exported() const {
  std::lock_guard<std::mutex> lock(mu_);
  return flows_exported_;
}

std::uint64_t FlowRecorder::flows_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return flows_dropped_;
}

std::uint64_t FlowRecorder::cache_evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_evictions_;
}

std::size_t FlowRecorder::live_flows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_;
}

void FlowRecorder::SetClockForTest(std::function<double()> clock) {
  std::lock_guard<std::mutex> lock(mu_);
  clock_.SetClockForTest(std::move(clock));
}

}  // namespace sdx::obs

// Burst-absorbing BGP update queue (DESIGN.md §9).
//
// Real IXP route servers see updates arrive in bursts that revisit the same
// prefix many times (path exploration, flapping — Table 1 / §4.3.2). The
// queue absorbs such bursts before they reach the decision process:
//
//   * Coalescing: updates are keyed by (announcing peer, prefix). A later
//     update for a key the queue already holds REPLACES the pending one
//     (last-writer-wins) — BGP is a replacement protocol, so the final
//     Adj-RIB-In state after applying every update of a burst equals the
//     state after applying only each key's last update. The superseded
//     update never reaches the route server.
//   * Ordering: slots drain in FIFO order of each key's FIRST enqueue
//     ("FIFO of prefixes"). Because per-key application is order-free across
//     distinct keys (each key touches its own Adj-RIB-In entry), any drain
//     order yields the same routing state; FIFO keeps drains deterministic
//     and starvation-free.
//   * Provenance: a superseding update records the provenance ids it
//     absorbed (CoalescedUpdate::superseded), so the flight recorder can
//     journal an update_coalesced event per loser — `sdxmon chain <id>`
//     explains every update's fate even when it never hit the RIB.
//
// The queue is a plain single-threaded value: the runtime drains it on the
// caller's thread, and SdxRuntime::EnqueueUpdate/Flush add the batch-window
// policy on top.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "bgp/update.h"
#include "net/ipv4.h"

namespace sdx::bgp {

// One drained slot: the surviving update for its (peer, prefix) key plus
// the provenance ids of every earlier update it replaced (unstamped losers
// — id 0 — are counted in `absorbed` but not listed).
struct CoalescedUpdate {
  BgpUpdate update;
  std::vector<std::uint64_t> superseded;  // provenance ids, oldest first
  std::size_t absorbed = 0;               // total updates replaced by this one
};

class UpdateQueue {
 public:
  // Adds one update, last-writer-wins per (peer, prefix). Returns true when
  // the update opened a new slot, false when it replaced a pending one.
  bool Enqueue(BgpUpdate update);

  // Pending slots (distinct (peer, prefix) keys).
  std::size_t size() const { return slots_.size(); }
  bool empty() const { return slots_.empty(); }

  // Raw updates enqueued since the last Drain (>= size()).
  std::size_t pending_updates() const { return raw_; }
  // Updates absorbed by coalescing since the last Drain (= pending - size).
  std::size_t pending_coalesced() const { return raw_ - slots_.size(); }

  // Removes and returns every slot in FIFO-of-first-enqueue order and
  // resets the raw/coalesced tallies.
  std::vector<CoalescedUpdate> Drain();

 private:
  std::vector<CoalescedUpdate> slots_;
  // key -> index into slots_ of the pending update for that key.
  std::map<std::pair<AsNumber, net::IPv4Prefix>, std::size_t> index_;
  std::size_t raw_ = 0;
};

}  // namespace sdx::bgp

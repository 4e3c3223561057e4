// The border routers' shared forwarding table (§4.2).
//
// Each border router's FIB holds the routes the route server advertises to
// it, and almost all of them agree across routers: a grouped prefix maps to
// its group's VNH whoever the receiver is, and an ungrouped one to the
// router address of the global best route, except at the few receivers
// whose own best route differs (the announcer of that route, or a receiver
// an export policy hides it from). That is the point of §4.2's VNHs: they
// give border routers a compact set of next hops. So the runtime keeps ONE
// table for all routers. Per prefix it holds the shared next hop, the value
// most routers hold, plus a short list of per-router exceptions, each
// either another next hop or "absent" (the router has no route for it).
//
// Lookup is a longest-prefix match over flat per-length open-addressing
// tables, probed longest first through a mask of the lengths in use (the
// per-length hash LPM, of the lineage of DIR-24-8), so a table that holds
// only /24s costs one probe. At a hit, the router's exceptions come first:
//   * an override returns its own next hop;
//   * an "absent" exception, or a shared "none" the router does not
//     override, does NOT end the search: the router has no route for this
//     prefix, so it falls back to its next shorter covering prefix, exactly
//     as a per-router trie without the entry would.
//
// Routers are named by a dense index (BorderRouter::fib_index). Next hop
// 0.0.0.0 encodes "no route" and is never a real next hop.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "net/ipv4.h"

namespace sdx::core {

class Fib {
 public:
  // One router's deviation from an entry's shared next hop.
  struct Exception {
    std::uint32_t router = 0;
    net::IPv4Address next_hop;  // 0.0.0.0 = absent: no route at this prefix

    friend bool operator==(const Exception&, const Exception&) = default;
  };

  // Sets `prefix`'s entry: every router not named in `exceptions` holds
  // `shared` (0.0.0.0 = none). `exceptions` may come in any order but names
  // each router at most once. O(exceptions) plus one probe; an entry that
  // leaves every router without a route is erased.
  void Set(const net::IPv4Prefix& prefix, net::IPv4Address shared,
           std::vector<Exception> exceptions);
  // Removes `prefix`'s entry for every router.
  void Erase(const net::IPv4Prefix& prefix);
  void Clear();

  // Longest-prefix match of `dst` in `router`'s view: nullopt when the
  // router has no route covering it.
  std::optional<net::IPv4Address> Lookup(std::uint32_t router,
                                         net::IPv4Address dst) const;

  // `router`'s next hop at exactly `prefix` (no fallback to shorter ones).
  std::optional<net::IPv4Address> Find(std::uint32_t router,
                                       const net::IPv4Prefix& prefix) const;

  // How many prefixes `router` has a route for.
  std::size_t RouteCount(std::uint32_t router) const;

  // Prefixes with an entry.
  std::size_t size() const;

 private:
  struct Slot {
    std::uint32_t network = 0;
    std::uint32_t next_hop = 0;  // shared next hop; 0 = none
    std::uint32_t list = 0;      // 1 + index into lists_; 0 = no exceptions
    std::uint32_t used = 0;
  };
  // One prefix length: linear probing over a power-of-two slot array kept
  // at most half full, with backward-shift deletion (no tombstones).
  struct Table {
    std::vector<Slot> slots;
    std::size_t size = 0;
    int shift = 64;  // 64 - log2(slots.size()): Fibonacci hashing
  };

  static std::size_t Home(const Table& table, std::uint32_t network) {
    return static_cast<std::size_t>(
        (network * 0x9E3779B97F4A7C15ull) >> table.shift);
  }
  static const Slot* FindSlot(const Table& table, std::uint32_t network) {
    const std::size_t mask = table.slots.size() - 1;
    for (std::size_t i = Home(table, network);; i = (i + 1) & mask) {
      const Slot& slot = table.slots[i];
      if (slot.used == 0) return nullptr;
      if (slot.network == network) return &slot;
    }
  }
  // The router's next hop at a slot whose exceptions are `list` (sorted by
  // router) and whose shared next hop is `shared`.
  static std::uint32_t HopFor(const std::vector<Exception>& list,
                              std::uint32_t router, std::uint32_t shared) {
    for (const Exception& exception : list) {
      if (exception.router == router) return exception.next_hop.value();
      if (exception.router > router) break;
    }
    return shared;
  }
  std::uint32_t HopAt(const Slot& slot, std::uint32_t router) const {
    return slot.list == 0 ? slot.next_hop
                          : HopFor(lists_[slot.list - 1], router,
                                   slot.next_hop);
  }

  Slot& Insert(Table& table, std::uint32_t network);
  static void Grow(Table& table);
  // Adds (sign +1) or removes (-1) one entry's routes from the counts.
  void Account(std::uint32_t shared, const std::vector<Exception>* list,
               int sign);

  std::array<Table, 33> tables_;
  std::uint64_t lengths_ = 0;  // bit L set while tables_[L] is non-empty
  // Exception lists, sorted by router; slots name them by index. Freed
  // lists are recycled through free_lists_.
  std::vector<std::vector<Exception>> lists_;
  std::vector<std::uint32_t> free_lists_;
  // RouteCount(r) = shared_routes_ + route_delta_[r]: entries with a
  // shared next hop, corrected by r's absent and override exceptions.
  std::size_t shared_routes_ = 0;
  std::vector<std::int64_t> route_delta_;
};

inline std::optional<net::IPv4Address> Fib::Lookup(
    std::uint32_t router, net::IPv4Address dst) const {
  for (std::uint64_t lengths = lengths_; lengths != 0;) {
    const int length = 63 - std::countl_zero(lengths);
    lengths ^= 1ull << length;
    const Slot* slot = FindSlot(
        tables_[static_cast<std::size_t>(length)],
        dst.value() &
            net::IPv4Prefix::Mask(static_cast<std::uint8_t>(length)));
    if (slot == nullptr) continue;
    const std::uint32_t hop = HopAt(*slot, router);
    if (hop != 0) return net::IPv4Address(hop);
  }
  return std::nullopt;
}

}  // namespace sdx::core

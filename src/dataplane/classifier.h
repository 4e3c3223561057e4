// Two-stage tuple-space-search classifier compiled from a rule set in
// ascending precedence order.
//
// The linear reference backend answers a lookup by scanning the rule
// vector from the back — O(rules) per packet. This classifier exploits the
// structure the SDX compiler actually emits: thousands of rules sharing a
// handful of mask shapes (same constrained fields, same prefix lengths),
// nearly all of them pinning a destination VMAC (§4.2: the border routers
// tag each packet with its prefix group's VMAC, and the fabric matches on
// it). Lookup runs in two stages:
//
//   1. Dispatch on dst MAC. Rules are grouped by net::MaskSignature into
//      *tuples*. One open-addressing probe on the packet's dst MAC yields
//      that VMAC's short list of (tuple, best index the VMAC has there)
//      entries; rules that leave dst MAC wildcarded sit in one wildcard
//      list that every lookup scans. A packet only ever probes the tuples
//      that hold a rule for its own VMAC, plus the wildcard ones.
//   2. Tuple probe. Each tuple is a flat open-addressing table keyed by
//      the packet projected onto the tuple's mask (net::ProjectKey: the
//      packet is packed once, then ANDed per tuple), so one probe resolves
//      every rule of that shape.
//
// Precedence: FlowTable keeps its rule vector in ascending precedence
// (ascending priority; among equal priorities the earliest install sits
// highest), so "largest vector index among all matches" IS the answer.
// Each tuple slot stores only the largest rule index for its key; each
// list is sorted by its entries' best index, descending, so a scan stops
// as soon as no remaining entry could beat the current candidate. The
// answer is the larger of the two lists' results. The §4.3.2 fast path
// installs above every stored rule, so its inserts renumber nothing
// (DESIGN.md §11).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dataplane/flow_rule.h"
#include "net/flowspace.h"
#include "net/packet.h"

namespace sdx::dataplane {

class CompiledClassifier {
 public:
  static constexpr std::uint32_t kNotFound = 0xFFFFFFFFu;

  // Full compile from a rule vector in ascending precedence order: one
  // pass over the rules.
  void Build(const std::vector<FlowRule>& rules);

  // Incremental recompile for a single insertion: `rules` is the table's
  // vector *after* inserting a rule at `index` into the exact state this
  // classifier was last compiled from. Previously stored indices at or
  // above `index` are shifted up by one (in the tuple slots and in every
  // list entry), then the new rule is added. An insert above the whole
  // table shifts nothing — no rehash, no rebuild.
  void InsertRule(const std::vector<FlowRule>& rules, std::size_t index);

  // Index (into the rule vector this was compiled from) of the matching
  // rule with the highest precedence, or kNotFound on a table miss.
  std::uint32_t LookupIndex(const net::PacketHeader& header) const;

  void Clear();

  // Distinct mask signatures, however many lists reference each.
  std::size_t tuple_count() const { return tuples_.size(); }
  std::size_t rule_count() const { return rule_count_; }

 private:
  // Stage 2: one flat table per mask signature. Linear probing over a
  // power-of-two slot array kept at most half full; an empty slot holds
  // index kNotFound.
  struct Tuple {
    struct Slot {
      net::MaskedKey key{};
      std::uint32_t index = kNotFound;
    };
    net::MaskSignature sig;
    net::MaskedKey mask;          // net::KeyMask(sig)
    std::uint32_t max_index = 0;  // largest index stored
    std::size_t size = 0;
    std::vector<Slot> slots;

    std::uint32_t Find(const net::MaskedKey& key) const;
    // Stores max(existing, index) under `key`.
    void Raise(const net::MaskedKey& key, std::uint32_t index);
  };

  // Stage 1: a list entry names a tuple and the largest index the list's
  // VMAC (or the wildcard list) holds in it. Lists are kept sorted by
  // max_index, descending; within one list every max_index is distinct.
  struct Entry {
    std::uint32_t max_index;
    std::uint32_t tuple;
  };
  using List = std::vector<Entry>;

  // The dst-MAC dispatch table: linear probing, at most half full; an
  // empty slot holds kNoMac (wider than any 48-bit MAC).
  static constexpr std::uint64_t kNoMac = ~std::uint64_t{0};
  struct MacSlot {
    std::uint64_t mac = kNoMac;
    List list;
  };

  // Adds rules[index] to its tuple (creating the tuple if new) and raises
  // its list entry, keeping every maximum and the list order.
  void Add(const std::vector<FlowRule>& rules, std::size_t index);
  std::uint32_t TupleFor(const net::MaskSignature& sig);
  List& ListFor(std::uint64_t mac);
  const List* FindList(std::uint64_t mac) const;

  std::vector<Tuple> tuples_;    // stable ids: list entries refer by index
  List wildcard_;                // tuples that leave dst MAC wildcarded
  std::vector<MacSlot> by_mac_;  // VMAC → tuples that pin it
  std::size_t mac_count_ = 0;
  std::size_t rule_count_ = 0;
};

}  // namespace sdx::dataplane

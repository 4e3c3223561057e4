// Tuple-space-search classifier compiled from a priority-ordered rule set.
//
// The linear reference backend answers a lookup by scanning the rule
// vector from the back — O(rules) per packet. This classifier exploits the
// structure the SDX compiler actually emits: thousands of rules sharing a
// handful of mask shapes (same constrained fields, same prefix lengths).
// Rules are grouped by net::MaskSignature into *tuples*; within a tuple,
// all rules differ only in constrained values, so one hash probe of the
// packet's projected key (net::ProjectKey) resolves the whole group.
// Lookup cost is O(tuples), independent of the rule count.
//
// Precedence: the classifier is built from FlowTable's rule vector, which
// is kept in ascending precedence order (ascending priority; among equal
// priorities the earliest install sits highest) — so "largest vector index
// among all matches" IS the lookup answer. Each tuple bucket therefore
// stores only the largest matching rule index for its key, and tuples are
// scanned in descending order of their own best index so the scan can stop
// as soon as no remaining tuple could beat the current candidate. The
// §4.3.2 fast path installs above every stored rule, so its inserts land
// above every stored index and renumber nothing (DESIGN.md §11).
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "dataplane/flow_rule.h"
#include "net/flowspace.h"
#include "net/packet.h"

namespace sdx::dataplane {

class CompiledClassifier {
 public:
  static constexpr std::uint32_t kNotFound = 0xFFFFFFFFu;

  // Full compile from a rule vector in ascending precedence order.
  void Build(const std::vector<FlowRule>& rules);

  // Incremental recompile for a single insertion: `rules` is the table's
  // vector *after* inserting a rule at `index` into the exact state this
  // classifier was last compiled from. Previously stored indices at or
  // above `index` are shifted up by one, then the new rule is added.
  // Cost is one pass over the entries of the tuples holding an index at or
  // above `index` (none for an insert above the whole table) — no rehash,
  // no rebuild.
  void InsertRule(const std::vector<FlowRule>& rules, std::size_t index);

  // Index (into the rule vector this was compiled from) of the matching
  // rule with the highest precedence, or kNotFound on a table miss.
  std::uint32_t LookupIndex(const net::PacketHeader& header) const;

  void Clear();

  std::size_t tuple_count() const { return tuples_.size(); }
  std::size_t rule_count() const { return rule_count_; }

 private:
  struct KeyHash {
    std::size_t operator()(const net::MaskedKey& key) const {
      return net::HashValue(key);
    }
  };

  struct Tuple {
    net::MaskSignature sig;
    std::uint32_t max_index = 0;  // best (largest) index stored
    std::unordered_map<net::MaskedKey, std::uint32_t, KeyHash> best;
  };

  // Adds rules[index] to its tuple (creating the tuple if new), keeping
  // per-key and per-tuple maxima. Does not re-sort tuples_.
  void Add(const std::vector<FlowRule>& rules, std::size_t index);
  void SortTuples();

  std::vector<Tuple> tuples_;  // descending max_index, for early exit
  std::size_t rule_count_ = 0;
};

}  // namespace sdx::dataplane

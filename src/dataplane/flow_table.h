// Priority-ordered flow table with OpenFlow lookup semantics.
//
// Rules are stored in ascending precedence order: ascending priority, and
// among equal priorities the earliest-installed rule sits highest, so it
// wins (matching how the compiler emits ordered classifiers). Lookup
// returns the matching rule with the largest index. The §4.3.2 fast path
// installs above every existing rule, so each of its installs is an
// append plus a shift within its own band, not a move of the whole table.
//
// Two lookup backends implement that contract (DESIGN.md §11):
//
//   * kCompiled (default) — a two-stage tuple-space-search classifier
//     (dataplane/classifier.h) compiled from the rule vector: one probe
//     on the packet's dst MAC picks the few tuples its VMAC has rules in,
//     plus the dst-MAC-wildcard ones, and one flat-table probe per tuple
//     resolves each — instead of O(rules). Every mutation bumps a version
//     counter; the classifier records the version it was compiled at, and
//     a lookup consults it only when the two agree — a stale compile is
//     never consulted (the lookup falls back to the linear scan and the
//     next Compile() catches up). Single-rule Installs recompile
//     incrementally (CompiledClassifier::InsertRule); bulk mutations
//     trigger a full rebuild, deferred to the next lookup so a burst of
//     flow-mods pays one compile.
//   * kLinear — the reference scan, kept selectable so the equivalence
//     oracle can diff the two backends packet-for-packet.
//
// Concurrency: mutations require external synchronization against
// lookups (exactly as the rule vector always has); concurrent *lookups*
// are safe with each other — the compile step is serialized by a mutex
// and publishes via an atomic version, and counters are sharded.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "dataplane/classifier.h"
#include "dataplane/flow_rule.h"
#include "net/packet.h"
#include "obs/journal.h"
#include "obs/sharded.h"

namespace sdx::dataplane {

class FlowTable {
 public:
  enum class Backend { kLinear, kCompiled };

  // Wires the control-plane flight recorder (null → no-op). Flow-mod
  // events are tagged with the journal's ambient update id, so rules
  // installed by the §4.3.2 fast path name the BGP update that caused
  // them. Per-rule events are recorded for the incremental paths
  // (Install, and RemoveByCookie under a live update id); the bulk paths
  // (InstallAll, generation retirement) record one aggregate event — a
  // full compile is a generation swap, not per-update causality.
  // `switch_id` distinguishes tables in multi-switch deployments.
  void SetJournal(obs::Journal* journal, std::uint32_t switch_id = 0) {
    journal_ = journal;
    switch_id_ = switch_id;
  }
  obs::Journal* journal() const { return journal_; }

  // Installs a rule below every existing rule of equal priority (the
  // earlier install keeps winning ties).
  void Install(FlowRule rule);

  // Installs a batch; more efficient than repeated Install. Among equal
  // priorities, existing rules win over the batch, and earlier batch
  // entries win over later ones.
  void InstallAll(std::vector<FlowRule> rules);

  // Removes every rule carrying `cookie`; returns the number removed.
  std::size_t RemoveByCookie(Cookie cookie);

  // Removes all rules.
  void Clear();

  // Highest-priority rule matching `header`, or nullptr on table miss.
  const FlowRule* Lookup(const net::PacketHeader& header) const;

  // Looks up and applies: returns the matched rule's actions (empty list on
  // an explicit drop rule) or nullopt on a table miss. Updates counters.
  std::optional<ActionList> Process(const net::Packet& packet) const;

  // Process() variant returning the matched rule itself (nullptr on a
  // table miss), for callers that need the rule identity — the flow
  // recorder keys samples by (rule cookie, priority). Same counter
  // updates as Process().
  const FlowRule* ProcessMatched(const net::Packet& packet) const;

  // Storage order: ascending precedence, so the winning rule is last.
  const std::vector<FlowRule>& rules() const { return rules_; }
  std::size_t size() const { return rules_.size(); }
  bool empty() const { return rules_.empty(); }

  // Selects the lookup backend. Switching is cheap: the compiled
  // classifier is (re)built lazily on the next lookup that needs it.
  void SetBackend(Backend backend) { backend_ = backend; }
  Backend backend() const { return backend_; }

  // Monotonic rule-set version; bumped on every mutation of the rule set.
  std::uint64_t version() const { return version_; }
  // Version the classifier was last compiled at (0 = never compiled). A
  // compiled lookup only consults the classifier when this equals
  // version(); anything else is stale and takes the linear path instead.
  std::uint64_t compiled_version() const {
    return compiled_version_.load(std::memory_order_acquire);
  }

  // Brings the compiled classifier up to date now (lookups otherwise
  // compile on demand). Safe to call concurrently with lookups.
  void Compile() const;

  // Distinct mask signatures (tuples) of the current compile — shape
  // introspection for tests and benches (0 when never compiled).
  std::size_t CompiledTupleCount() const { return classifier_.tuple_count(); }

  // Lookup outcome counters. A "hit" is any matched rule (including
  // explicit drop rules); a "miss" is no rule matching at all. Sharded
  // (obs/sharded.h) so concurrent packet processing does not serialize on
  // one tally cache line; reads merge the shards.
  std::uint64_t hit_count() const { return hit_count_.value(); }
  std::uint64_t miss_count() const { return miss_count_.value(); }
  void ResetCounters() {
    hit_count_.Reset();
    miss_count_.Reset();
  }

 private:
  // Records a mutation: bumps the version and folds the change into the
  // pending recompile plan. `insert_pos` is the vector position of a
  // single-rule insert, or kBulkChange for anything else.
  static constexpr std::size_t kBulkChange = static_cast<std::size_t>(-1);
  void NoteMutation(std::size_t insert_pos);

  // Linear reference scan (also the fallback while a compile is stale).
  const FlowRule* LinearLookup(const net::PacketHeader& header) const;

  std::vector<FlowRule> rules_;  // ascending precedence
  obs::Journal* journal_ = nullptr;
  std::uint32_t switch_id_ = 0;
  // `mutable` because Process() is logically const (it does not change
  // which packets match which rules) but must tally outcomes — the same
  // convention as the per-rule packet/byte counters it updates.
  mutable obs::ShardedCounter hit_count_;
  mutable obs::ShardedCounter miss_count_;

  // --- Compiled backend state ----------------------------------------
  Backend backend_ = Backend::kCompiled;
  std::uint64_t version_ = 1;  // rule-set version; mutations bump it
  // Replay log for the incremental path: vector positions of single-rule
  // Installs since the last compile, in order. pending_full_ forces a
  // rebuild instead (bulk mutation, or the log overflowed).
  // `mutable` + the mutex: the log is *written* by mutations (externally
  // synchronized, like rules_) and *consumed* under compile_mu_ by the
  // first lookup that needs a fresh compile.
  mutable std::vector<std::size_t> pending_inserts_;
  mutable bool pending_full_ = false;
  mutable CompiledClassifier classifier_;
  mutable std::atomic<std::uint64_t> compiled_version_{0};
  mutable std::mutex compile_mu_;
};

}  // namespace sdx::dataplane

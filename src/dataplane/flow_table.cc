#include "dataplane/flow_table.h"

#include <algorithm>

namespace sdx::dataplane {

namespace {
// Install bursts longer than this recompile from scratch rather than
// replaying per-rule inserts: one O(rules) rebuild beats many O(entries)
// shift passes.
constexpr std::size_t kMaxPendingInserts = 32;
}  // namespace

void FlowTable::NoteMutation(std::size_t insert_pos) {
  ++version_;
  if (insert_pos == kBulkChange || pending_full_ ||
      pending_inserts_.size() >= kMaxPendingInserts ||
      compiled_version_.load(std::memory_order_relaxed) == 0) {
    // Bulk change, overflowed log, or nothing compiled yet to patch:
    // the next compile rebuilds from scratch.
    pending_full_ = true;
    pending_inserts_.clear();
    return;
  }
  pending_inserts_.push_back(insert_pos);
}

void FlowTable::Install(FlowRule rule) {
  if (journal_ != nullptr) {
    journal_->Record(obs::JournalEventType::kFlowRuleInstall,
                     journal_->current_update_id(), switch_id_,
                     static_cast<std::uint64_t>(rule.priority), rule.cookie,
                     rule.ToString());
  }
  // Storage is ascending precedence: insert below every rule of equal
  // priority, so the earliest-installed one keeps the larger index and wins.
  auto pos = std::lower_bound(
      rules_.begin(), rules_.end(), rule.priority,
      [](const FlowRule& r, std::int32_t priority) {
        return r.priority < priority;
      });
  const auto index = static_cast<std::size_t>(pos - rules_.begin());
  rules_.insert(pos, std::move(rule));
  NoteMutation(index);
}

void FlowTable::InstallAll(std::vector<FlowRule> rules) {
  if (rules.empty()) return;
  if (journal_ != nullptr) {
    journal_->Record(obs::JournalEventType::kFlowRulesBulk,
                     journal_->current_update_id(), switch_id_,
                     rules.size(), rules.front().cookie);
  }
  // Ascending precedence: reversing first puts earlier input above later
  // input of equal priority; merging the batch first puts it below rules_.
  const auto ascending = [](const FlowRule& a, const FlowRule& b) {
    return a.priority < b.priority;
  };
  std::reverse(rules.begin(), rules.end());
  std::stable_sort(rules.begin(), rules.end(), ascending);
  if (rules_.empty()) {
    rules_ = std::move(rules);
    NoteMutation(kBulkChange);
    return;
  }
  std::vector<FlowRule> merged;
  merged.reserve(rules_.size() + rules.size());
  std::merge(rules.begin(), rules.end(), rules_.begin(), rules_.end(),
             std::back_inserter(merged), ascending);
  rules_ = std::move(merged);
  NoteMutation(kBulkChange);
}

std::size_t FlowTable::RemoveByCookie(Cookie cookie) {
  const auto before = rules_.size();
  // Under a live update id every removed rule is journaled individually —
  // that id caused each deletion; background retirement is one aggregate.
  const bool per_rule =
      journal_ != nullptr &&
      journal_->current_update_id() != obs::kNoUpdateId;
  std::erase_if(rules_, [&](const FlowRule& rule) {
    if (rule.cookie != cookie) return false;
    if (per_rule) {
      journal_->Record(obs::JournalEventType::kFlowRuleDelete,
                       journal_->current_update_id(), switch_id_,
                       static_cast<std::uint64_t>(rule.priority), rule.cookie,
                       rule.ToString());
    }
    return true;
  });
  const std::size_t removed = before - rules_.size();
  if (journal_ != nullptr && !per_rule && removed > 0) {
    journal_->Record(obs::JournalEventType::kFlowRulesRetire,
                     journal_->current_update_id(), switch_id_, removed,
                     cookie);
  }
  if (removed > 0) NoteMutation(kBulkChange);
  return removed;
}

void FlowTable::Clear() {
  if (rules_.empty()) return;
  if (journal_ != nullptr) {
    journal_->Record(obs::JournalEventType::kFlowRulesRetire,
                     journal_->current_update_id(), switch_id_, rules_.size(),
                     kNoCookie, "clear");
  }
  rules_.clear();
  NoteMutation(kBulkChange);
}

void FlowTable::Compile() const {
  std::lock_guard<std::mutex> lock(compile_mu_);
  if (compiled_version_.load(std::memory_order_relaxed) == version_) return;
  if (!pending_full_ && !pending_inserts_.empty() &&
      compiled_version_.load(std::memory_order_relaxed) +
              pending_inserts_.size() ==
          version_) {
    // Every version bump since the last compile was a logged single-rule
    // insert. Each logged position is relative to the vector state at its
    // own install time, but InsertRule reads from the *current* vector —
    // so first map every logged position to where that rule sits now
    // (each later insert at or below it shifted it up by one; O(k²) with
    // k ≤ kMaxPendingInserts), then replay in ascending current-position
    // order, which reconstructs the current vector exactly: an earlier
    // (lower) insert is never displaced by a later (higher) one, and a
    // stored entry shifts once per new rule at or below it (a fast-path
    // band sits above every stored rule, so it shifts none).
    std::vector<std::size_t> positions(pending_inserts_.begin(),
                                       pending_inserts_.end());
    for (std::size_t j = 1; j < positions.size(); ++j) {
      for (std::size_t i = 0; i < j; ++i) {
        if (positions[i] >= pending_inserts_[j]) ++positions[i];
      }
    }
    std::sort(positions.begin(), positions.end());
    for (const std::size_t pos : positions) {
      classifier_.InsertRule(rules_, pos);
    }
  } else {
    classifier_.Build(rules_);
  }
  pending_inserts_.clear();
  pending_full_ = false;
  compiled_version_.store(version_, std::memory_order_release);
}

const FlowRule* FlowTable::LinearLookup(const net::PacketHeader& header) const {
  for (auto it = rules_.rbegin(); it != rules_.rend(); ++it) {
    if (it->match.Matches(header)) return &*it;
  }
  return nullptr;
}

const FlowRule* FlowTable::Lookup(const net::PacketHeader& header) const {
  if (backend_ == Backend::kCompiled) {
    if (compiled_version_.load(std::memory_order_acquire) != version_) {
      Compile();
    }
    // The guard: only a compile of exactly the current rule set is ever
    // consulted. (After Compile() this always holds; the check is the
    // invariant, not an expected branch.)
    if (compiled_version_.load(std::memory_order_acquire) == version_) {
      const std::uint32_t index = classifier_.LookupIndex(header);
      return index == CompiledClassifier::kNotFound ? nullptr
                                                    : &rules_[index];
    }
  }
  return LinearLookup(header);
}

const FlowRule* FlowTable::ProcessMatched(const net::Packet& packet) const {
  const FlowRule* rule = Lookup(packet.header);
  if (rule == nullptr) {
    miss_count_.Increment();
    return nullptr;
  }
  hit_count_.Increment();
  ++rule->packet_count;
  rule->byte_count += packet.size_bytes;
  return rule;
}

std::optional<ActionList> FlowTable::Process(const net::Packet& packet) const {
  const FlowRule* rule = ProcessMatched(packet);
  if (rule == nullptr) return std::nullopt;
  return rule->actions;
}

}  // namespace sdx::dataplane

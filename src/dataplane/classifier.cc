#include "dataplane/classifier.h"

#include <algorithm>

namespace sdx::dataplane {

void CompiledClassifier::Build(const std::vector<FlowRule>& rules) {
  Clear();
  for (std::size_t i = 0; i < rules.size(); ++i) Add(rules, i);
  rule_count_ = rules.size();
  SortTuples();
}

void CompiledClassifier::Add(const std::vector<FlowRule>& rules,
                             std::size_t index) {
  const net::MaskSignature sig = net::MaskSignatureOf(rules[index].match);
  Tuple* tuple = nullptr;
  for (Tuple& candidate : tuples_) {
    if (candidate.sig == sig) {
      tuple = &candidate;
      break;
    }
  }
  if (tuple == nullptr) {
    tuple = &tuples_.emplace_back();
    tuple->sig = sig;
  }
  const auto idx = static_cast<std::uint32_t>(index);
  const net::MaskedKey key = net::ProjectKey(rules[index].match, sig);
  auto [it, inserted] = tuple->best.try_emplace(key, idx);
  if (!inserted) it->second = std::max(it->second, idx);
  tuple->max_index = std::max(tuple->max_index, idx);
}

void CompiledClassifier::InsertRule(const std::vector<FlowRule>& rules,
                                    std::size_t index) {
  const auto at = static_cast<std::uint32_t>(index);
  for (Tuple& tuple : tuples_) {
    // Sorted by max_index descending: the rest hold only lower indices.
    if (tuple.max_index < at) break;
    ++tuple.max_index;
    for (auto& [key, idx] : tuple.best) {
      if (idx >= at) ++idx;
    }
  }
  Add(rules, index);
  ++rule_count_;
  SortTuples();
}

std::uint32_t CompiledClassifier::LookupIndex(
    const net::PacketHeader& header) const {
  std::int64_t best = -1;
  for (const Tuple& tuple : tuples_) {
    // Tuples are sorted by their own best index: once even a tuple's best
    // rule cannot beat the candidate, no later tuple can either.
    if (tuple.max_index <= best) break;
    const auto it = tuple.best.find(net::ProjectKey(header, tuple.sig));
    if (it != tuple.best.end() && it->second > best) best = it->second;
  }
  return best < 0 ? kNotFound : static_cast<std::uint32_t>(best);
}

void CompiledClassifier::Clear() {
  tuples_.clear();
  rule_count_ = 0;
}

void CompiledClassifier::SortTuples() {
  std::sort(tuples_.begin(), tuples_.end(),
            [](const Tuple& a, const Tuple& b) {
              return a.max_index > b.max_index;
            });
}

}  // namespace sdx::dataplane

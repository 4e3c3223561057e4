#include "dataplane/classifier.h"

#include <algorithm>
#include <utility>

#include "util/mix.h"

namespace sdx::dataplane {

namespace {
constexpr std::size_t kMinSlots = 8;
}  // namespace

std::uint32_t CompiledClassifier::Tuple::Find(
    const net::MaskedKey& key) const {
  const std::size_t wrap = slots.size() - 1;
  for (std::size_t i = net::HashValue(key) & wrap;; i = (i + 1) & wrap) {
    const Slot& slot = slots[i];
    if (slot.index == kNotFound || slot.key == key) return slot.index;
  }
}

void CompiledClassifier::Tuple::Raise(const net::MaskedKey& key,
                                      std::uint32_t index) {
  if ((size + 1) * 2 > slots.size()) {
    std::vector<Slot> old(std::max(kMinSlots, 2 * slots.size()));
    old.swap(slots);
    size = 0;
    for (const Slot& slot : old) {
      if (slot.index != kNotFound) Raise(slot.key, slot.index);
    }
  }
  const std::size_t wrap = slots.size() - 1;
  for (std::size_t i = net::HashValue(key) & wrap;; i = (i + 1) & wrap) {
    Slot& slot = slots[i];
    if (slot.index == kNotFound) {
      slot.key = key;
      slot.index = index;
      ++size;
      break;
    }
    if (slot.key == key) {
      slot.index = std::max(slot.index, index);
      break;
    }
  }
  max_index = std::max(max_index, index);
}

void CompiledClassifier::Build(const std::vector<FlowRule>& rules) {
  Clear();
  for (std::size_t i = 0; i < rules.size(); ++i) Add(rules, i);
  rule_count_ = rules.size();
}

std::uint32_t CompiledClassifier::TupleFor(const net::MaskSignature& sig) {
  for (std::size_t t = 0; t < tuples_.size(); ++t) {
    if (tuples_[t].sig == sig) return static_cast<std::uint32_t>(t);
  }
  Tuple& tuple = tuples_.emplace_back();
  tuple.sig = sig;
  tuple.mask = net::KeyMask(sig);
  return static_cast<std::uint32_t>(tuples_.size() - 1);
}

CompiledClassifier::List& CompiledClassifier::ListFor(std::uint64_t mac) {
  if ((mac_count_ + 1) * 2 > by_mac_.size()) {
    std::vector<MacSlot> old(std::max(kMinSlots, 2 * by_mac_.size()));
    old.swap(by_mac_);
    mac_count_ = 0;
    for (MacSlot& slot : old) {
      if (slot.mac != kNoMac) ListFor(slot.mac) = std::move(slot.list);
    }
  }
  const std::size_t wrap = by_mac_.size() - 1;
  for (std::size_t i = util::Mix64(mac) & wrap;; i = (i + 1) & wrap) {
    MacSlot& slot = by_mac_[i];
    if (slot.mac == mac) return slot.list;
    if (slot.mac == kNoMac) {
      slot.mac = mac;
      ++mac_count_;
      return slot.list;
    }
  }
}

const CompiledClassifier::List* CompiledClassifier::FindList(
    std::uint64_t mac) const {
  if (by_mac_.empty()) return nullptr;
  const std::size_t wrap = by_mac_.size() - 1;
  for (std::size_t i = util::Mix64(mac) & wrap;; i = (i + 1) & wrap) {
    const MacSlot& slot = by_mac_[i];
    if (slot.mac == mac) return &slot.list;
    if (slot.mac == kNoMac) return nullptr;
  }
}

void CompiledClassifier::Add(const std::vector<FlowRule>& rules,
                             std::size_t index) {
  const net::FieldMatch& match = rules[index].match;
  const net::MaskSignature sig = net::MaskSignatureOf(match);
  const std::uint32_t tuple = TupleFor(sig);
  const auto idx = static_cast<std::uint32_t>(index);
  tuples_[tuple].Raise(net::ProjectKey(match, sig), idx);

  List& list = match.dst_mac() ? ListFor(match.dst_mac()->value()) : wildcard_;
  auto it = std::find_if(list.begin(), list.end(), [&](const Entry& entry) {
    return entry.tuple == tuple;
  });
  if (it == list.end()) {
    it = list.insert(list.end(), Entry{idx, tuple});
  } else if (it->max_index < idx) {
    it->max_index = idx;
  } else {
    return;
  }
  // Only this entry rose: move it forward to restore descending order.
  for (; it != list.begin() && std::prev(it)->max_index < it->max_index;
       --it) {
    std::iter_swap(it, std::prev(it));
  }
}

void CompiledClassifier::InsertRule(const std::vector<FlowRule>& rules,
                                    std::size_t index) {
  const auto at = static_cast<std::uint32_t>(index);
  if (index < rule_count_) {
    // A mid-table insert: every stored index at or above `at` moves up.
    for (Tuple& tuple : tuples_) {
      if (tuple.max_index < at) continue;
      ++tuple.max_index;
      for (Tuple::Slot& slot : tuple.slots) {
        if (slot.index != kNotFound && slot.index >= at) ++slot.index;
      }
    }
    const auto shift = [at](List& list) {
      // Descending: the rest of the list holds only lower indices.
      for (Entry& entry : list) {
        if (entry.max_index < at) break;
        ++entry.max_index;
      }
    };
    shift(wildcard_);
    for (MacSlot& slot : by_mac_) shift(slot.list);
  }
  Add(rules, index);
  ++rule_count_;
}

std::uint32_t CompiledClassifier::LookupIndex(
    const net::PacketHeader& header) const {
  const net::MaskedKey packed = net::PackHeader(header);
  std::int64_t best = -1;
  const auto scan = [&](const List& list) {
    for (const Entry& entry : list) {
      // Once even this entry's best rule cannot beat the candidate, no
      // later entry of the list can either.
      if (entry.max_index <= best) break;
      const Tuple& tuple = tuples_[entry.tuple];
      const std::uint32_t hit = tuple.Find(net::ApplyMask(packed, tuple.mask));
      if (hit != kNotFound && hit > best) best = hit;
    }
  };
  // Scan the list with the larger best entry first, so its match can cut
  // the other list short.
  const List* vmac = FindList(header.dst_mac.value());
  if (vmac != nullptr &&
      (wildcard_.empty() ||
       vmac->front().max_index > wildcard_.front().max_index)) {
    scan(*vmac);
    scan(wildcard_);
  } else {
    scan(wildcard_);
    if (vmac != nullptr) scan(*vmac);
  }
  return best < 0 ? kNotFound : static_cast<std::uint32_t>(best);
}

void CompiledClassifier::Clear() {
  tuples_.clear();
  wildcard_.clear();
  by_mac_.clear();
  mac_count_ = 0;
  rule_count_ = 0;
}

}  // namespace sdx::dataplane

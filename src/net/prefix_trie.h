// Binary trie keyed by IPv4 prefix with longest-prefix-match lookup.
//
// PrefixMap<T> is the generic container; PrefixSet is the common
// payload-free case. The BGP-consistency filters (sdx/bgp_filter.cc)
// index a clause's destination restrictions in one. One node per prefix
// bit keeps it simple rather than fast: the border routers' FIB is the
// flat shared table of sdx/fib.h, and tests keep one PrefixMap per router
// as that table's reference model.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "net/ipv4.h"

namespace sdx::net {

template <typename T>
class PrefixMap {
 public:
  PrefixMap() : root_(std::make_unique<Node>()) {}

  // Inserts or overwrites the value at `prefix`. Returns true when the
  // prefix was newly inserted.
  bool Insert(const IPv4Prefix& prefix, T value) {
    Node* node = Descend(prefix, /*create=*/true);
    const bool inserted = !node->value.has_value();
    node->value = std::move(value);
    if (inserted) ++size_;
    return inserted;
  }

  // Removes the entry at `prefix` (exact match). Returns true if present.
  bool Erase(const IPv4Prefix& prefix) {
    Node* node = Descend(prefix, /*create=*/false);
    if (node == nullptr || !node->value.has_value()) return false;
    node->value.reset();
    --size_;
    return true;
  }

  // Exact-prefix lookup.
  const T* Find(const IPv4Prefix& prefix) const {
    const Node* node = Descend(prefix, /*create=*/false);
    return (node && node->value) ? &*node->value : nullptr;
  }
  T* Find(const IPv4Prefix& prefix) {
    Node* node = Descend(prefix, /*create=*/false);
    return (node && node->value) ? &*node->value : nullptr;
  }

  // Longest-prefix-match for an address; nullopt when nothing covers it.
  std::optional<std::pair<IPv4Prefix, const T*>> LongestMatch(
      IPv4Address address) const {
    const Node* node = root_.get();
    const Node* best = node->value ? node : nullptr;
    std::uint8_t best_depth = 0;
    std::uint8_t depth = 0;
    std::uint32_t bits = address.value();
    while (depth < 32) {
      const bool bit = (bits >> (31 - depth)) & 1u;
      const Node* next = bit ? node->one.get() : node->zero.get();
      if (next == nullptr) break;
      node = next;
      ++depth;
      if (node->value) {
        best = node;
        best_depth = depth;
      }
    }
    if (best == nullptr) return std::nullopt;
    return std::make_pair(
        IPv4Prefix(IPv4Address(address.value() & IPv4Prefix::Mask(best_depth)),
                   best_depth),
        &*best->value);
  }

  // All entries whose prefix covers `address`, shortest first.
  std::vector<std::pair<IPv4Prefix, const T*>> AllMatches(
      IPv4Address address) const {
    std::vector<std::pair<IPv4Prefix, const T*>> out;
    const Node* node = root_.get();
    std::uint8_t depth = 0;
    std::uint32_t bits = address.value();
    if (node->value) out.emplace_back(IPv4Prefix(IPv4Address(0), 0),
                                      &*node->value);
    while (depth < 32) {
      const bool bit = (bits >> (31 - depth)) & 1u;
      const Node* next = bit ? node->one.get() : node->zero.get();
      if (next == nullptr) break;
      node = next;
      ++depth;
      if (node->value) {
        out.emplace_back(
            IPv4Prefix(IPv4Address(bits & IPv4Prefix::Mask(depth)), depth),
            &*node->value);
      }
    }
    return out;
  }

  // Depth-first enumeration of all (prefix, value) entries.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    Walk(root_.get(), 0, 0, fn);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void Clear() {
    root_ = std::make_unique<Node>();
    size_ = 0;
  }

 private:
  struct Node {
    std::optional<T> value;
    std::unique_ptr<Node> zero;
    std::unique_ptr<Node> one;
  };

  Node* Descend(const IPv4Prefix& prefix, bool create) {
    Node* node = root_.get();
    const std::uint32_t bits = prefix.network().value();
    for (std::uint8_t depth = 0; depth < prefix.length(); ++depth) {
      const bool bit = (bits >> (31 - depth)) & 1u;
      std::unique_ptr<Node>& next = bit ? node->one : node->zero;
      if (next == nullptr) {
        if (!create) return nullptr;
        next = std::make_unique<Node>();
      }
      node = next.get();
    }
    return node;
  }

  const Node* Descend(const IPv4Prefix& prefix, bool create) const {
    // The const overload never creates.
    (void)create;
    return const_cast<PrefixMap*>(this)->Descend(prefix, /*create=*/false);
  }

  template <typename Fn>
  static void Walk(const Node* node, std::uint32_t bits, std::uint8_t depth,
                   Fn& fn) {
    if (node->value) {
      fn(IPv4Prefix(IPv4Address(bits), depth), *node->value);
    }
    if (node->zero) Walk(node->zero.get(), bits, depth + 1, fn);
    if (node->one) {
      Walk(node->one.get(), bits | (1u << (31 - depth)), depth + 1, fn);
    }
  }

  std::unique_ptr<Node> root_;
  std::size_t size_ = 0;
};

// Prefix membership set with longest-match semantics.
class PrefixSet {
 public:
  bool Insert(const IPv4Prefix& prefix);
  bool Erase(const IPv4Prefix& prefix);
  bool Contains(const IPv4Prefix& prefix) const;

  // True when some member prefix covers `address`.
  bool Covers(IPv4Address address) const;

  // The longest member prefix covering `address`.
  std::optional<IPv4Prefix> LongestMatch(IPv4Address address) const;

  std::vector<IPv4Prefix> ToVector() const;

  std::size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  void Clear() { map_.Clear(); }

 private:
  struct Unit {};
  PrefixMap<Unit> map_;
};

}  // namespace sdx::net

// The SDX policy language (§3.1): a Pyretic-style algebra of packet-
// processing functions.
//
// A policy maps a located packet to a set of located packets:
//   * Drop            — the empty set.
//   * Identity        — {packet}, unchanged.
//   * Filter(pred)    — {packet} if pred holds, else {}.
//   * Mod(rewrites)   — {packet with fields rewritten}.
//   * Fwd(port)       — {packet moved to `port`}.
//   * p + q           — parallel composition: union of both outputs.
//   * p >> q          — sequential composition: q applied to p's outputs.
//   * If(pred, p, q)  — branch.
//
// Policies are immutable ASTs with structural sharing; the same participant
// policy object is composed many times during SDX compilation and compiled
// once thanks to pointer-identity memoization (§4.3.1).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dataplane/action.h"
#include "net/packet.h"
#include "policy/predicate.h"

namespace sdx::policy {

class Policy {
 public:
  enum class Kind : std::uint8_t {
    kDrop,
    kIdentity,
    kFilter,
    kMod,
    kFwd,
    kParallel,
    kSequential,
    kIf,
  };

  // --- Constructors ------------------------------------------------------
  static Policy Drop();
  static Policy Identity();
  static Policy Filter(Predicate predicate);
  static Policy Mod(dataplane::Rewrites rewrites);
  static Policy Fwd(net::PortId port);
  static Policy If(Predicate predicate, Policy then_policy,
                   Policy else_policy);

  // Parallel (+) and sequential (>>) composition.
  friend Policy operator+(const Policy& a, const Policy& b);
  friend Policy operator>>(const Policy& a, const Policy& b);

  // match(pred) >> policy, the idiom from the paper's examples.
  static Policy Guarded(Predicate predicate, Policy policy) {
    return Filter(std::move(predicate)) >> std::move(policy);
  }

  // --- Introspection -------------------------------------------------------
  Kind kind() const;
  const Predicate& predicate() const;          // kFilter/kIf
  const dataplane::Rewrites& rewrites() const; // kMod
  net::PortId port() const;                    // kFwd
  Policy left() const;                         // kParallel/kSequential/kIf then
  Policy right() const;                        // kParallel/kSequential/kIf else

  // Direct interpretation: ground truth for differential tests. The
  // returned headers carry their new location in `in_port` (kNoPort means
  // "still at the ingress location").
  std::vector<net::PacketHeader> Eval(const net::PacketHeader& header) const;

  std::string ToString() const;

  friend bool operator==(const Policy& a, const Policy& b) {
    return a.node_ == b.node_;
  }

 private:
  struct Node;
  explicit Policy(std::shared_ptr<const Node> node) : node_(std::move(node)) {}

  std::shared_ptr<const Node> node_;
};

}  // namespace sdx::policy

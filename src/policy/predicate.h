// Boolean predicates over packets (the `match(...)` layer of the paper's
// Pyretic-based policy language, §3.1).
//
// A predicate is an immutable AST with structural sharing (cheap to copy,
// safe to reuse across compositions).
// Leaves are conjunctive FieldMatches; internal nodes are And/Or/Not.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/flowspace.h"
#include "net/packet.h"

namespace sdx::policy {

class Predicate {
 public:
  enum class Kind : std::uint8_t { kTrue, kFalse, kTest, kAnd, kOr, kNot };

  // --- Constructors ----------------------------------------------------
  static Predicate True();
  static Predicate False();
  static Predicate Test(net::FieldMatch match);

  // Convenience single-field tests mirroring the paper's match() calls.
  static Predicate InPort(net::PortId port);
  static Predicate SrcMac(net::MacAddress mac);
  static Predicate DstMac(net::MacAddress mac);
  static Predicate SrcIp(net::IPv4Prefix prefix);
  static Predicate DstIp(net::IPv4Prefix prefix);
  static Predicate Proto(std::uint8_t proto);
  static Predicate SrcPort(std::uint16_t port);
  static Predicate DstPort(std::uint16_t port);

  // Matches any of the given ports (the paper's match(port=B) shorthand for
  // "any of B's virtual ports").
  static Predicate AnyInPort(const std::vector<net::PortId>& ports);

  // Matches any of the given destination (or source) prefixes — used by the
  // BGP-consistency transformation and RIB-derived matches.
  static Predicate AnyDstIp(const std::vector<net::IPv4Prefix>& prefixes);
  static Predicate AnySrcIp(const std::vector<net::IPv4Prefix>& prefixes);

  // --- Combinators -------------------------------------------------------
  Predicate operator&&(const Predicate& other) const;
  Predicate operator||(const Predicate& other) const;
  Predicate operator!() const;

  // --- Introspection -----------------------------------------------------
  Kind kind() const;
  const net::FieldMatch& test() const;  // kTest only
  Predicate left() const;               // kAnd/kOr
  Predicate right() const;              // kAnd/kOr
  Predicate operand() const;            // kNot

  // Direct interpretation; ground truth for the compiler's property tests.
  bool Eval(const net::PacketHeader& header) const;

  // True when the expression contains a Not node anywhere. Positive-only
  // predicates compile to classifiers whose only drop rule is the trailing
  // wildcard — a property the SDX composer's rule-stacking relies on for
  // outbound clauses.
  bool ContainsNegation() const;

  std::string ToString() const;

  // Node identity: copies share nodes; separately built expressions do not.
  friend bool operator==(const Predicate& a, const Predicate& b) {
    return a.node_ == b.node_;
  }

 private:
  struct Node;
  explicit Predicate(std::shared_ptr<const Node> node)
      : node_(std::move(node)) {}

  std::shared_ptr<const Node> node_;
};

}  // namespace sdx::policy

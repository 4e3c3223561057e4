// SDX participants: their structured policies and their border routers.
//
// Participants express policies as priority-ordered clause lists — the
// form every §2 application takes and the form the scalable compilation
// pipeline of §4 consumes:
//
//   * OutboundClause — "traffic I send matching M (optionally restricted to
//     destination prefixes P) goes to participant T instead of my BGP best
//     route". First matching clause wins; unmatched traffic defaults to BGP.
//   * InboundClause — "traffic arriving for me matching M is (optionally
//     rewritten and) delivered to my port K (or a hosting participant's
//     port, for remote participants)". Unmatched traffic goes to port 0.
//
// BorderRouter models the participant's unmodified BGP router: it forwards
// by the routes the SDX route server advertises to it (next hop = VNH),
// resolves next hops through the controller's ARP responder, and tags
// outgoing packets with the resolved (V)MAC — the "first stage" of the
// multi-stage FIB of §4.2, implemented for free on the participant's router.
// Its FIB is a view: all routers share the runtime's one Fib (sdx/fib.h),
// which stores each prefix's common next hop once plus the few routers
// whose route differs or is absent.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "dataplane/action.h"
#include "dataplane/arp.h"
#include "net/ipv4.h"
#include "net/packet.h"
#include "obs/drop_reason.h"
#include "policy/predicate.h"
#include "sdx/fib.h"
#include "sdx/vswitch.h"

namespace sdx::core {

struct OutboundClause {
  // Match over header fields other than destination IP (dst-port, src-ip,
  // proto, ...). Destination restrictions go in `dst_prefixes`. Must be a
  // POSITIVE predicate (no negation) — exclusions are expressed by clause
  // ordering, since earlier clauses win. Enforced by
  // SdxRuntime::SetOutboundPolicy.
  policy::Predicate match = policy::Predicate::True();
  // When set, the clause only applies to these destination prefixes (e.g.
  // the Amazon /16, or a RIB.filter() result). When empty, it applies to
  // every prefix the target exports to this participant.
  std::vector<net::IPv4Prefix> dst_prefixes;
  // Forward eligible traffic to this participant.
  AsNumber to = 0;

  std::string ToString() const;
};

// One middlebox hop of a service chain: a physical port hosting a
// transparent middlebox (it re-injects processed traffic on the same port).
struct ChainHop {
  AsNumber via = 0;
  int port_index = 0;

  friend bool operator==(const ChainHop&, const ChainHop&) = default;
};

struct InboundClause {
  policy::Predicate match = policy::Predicate::True();
  // Optional header rewrites (e.g. the wide-area load balancer's
  // mod(dstip=replica)), applied at final delivery.
  dataplane::Rewrites rewrites;
  // Deliver to this physical port. Defaults to the participant's own port
  // `port_index`; remote participants (no physical presence) must name a
  // hosting participant via `via_participant` (Figure 4b delivers the AWS
  // tenant's traffic through its upstreams' ports).
  int port_index = 0;
  std::optional<AsNumber> via_participant;
  // Service chaining (§8): traffic traverses these middlebox ports, in
  // order, before final delivery. Each middlebox is transparent — it
  // re-injects the packet on its own port and the fabric steers it to the
  // next hop (the clause's match fields must survive the middlebox).
  std::vector<ChainHop> chain;

  std::string ToString() const;
};

class Participant {
 public:
  Participant(AsNumber as, int physical_ports)
      : as_(as), physical_ports_(physical_ports) {}

  AsNumber as() const { return as_; }
  int physical_ports() const { return physical_ports_; }
  bool remote() const { return physical_ports_ == 0; }

  void SetOutbound(std::vector<OutboundClause> clauses) {
    outbound_ = std::move(clauses);
    ++outbound_version_;
  }
  void SetInbound(std::vector<InboundClause> clauses) {
    inbound_ = std::move(clauses);
    ++inbound_version_;
  }

  const std::vector<OutboundClause>& outbound() const { return outbound_; }
  const std::vector<InboundClause>& inbound() const { return inbound_; }

  bool HasPolicies() const { return !outbound_.empty() || !inbound_.empty(); }

  // Monotonic edit counters, bumped by every policy set. The incremental
  // compiler folds them into block fingerprints (DESIGN.md §8), so a policy
  // edit is guaranteed to dirty every compiled block derived from it.
  std::uint64_t outbound_version() const { return outbound_version_; }
  std::uint64_t inbound_version() const { return inbound_version_; }

 private:
  AsNumber as_;
  int physical_ports_;
  std::vector<OutboundClause> outbound_;
  std::vector<InboundClause> inbound_;
  std::uint64_t outbound_version_ = 0;
  std::uint64_t inbound_version_ = 0;
};

// The participant's border router, as seen from the fabric.
class BorderRouter {
 public:
  // A view of `fib` as router `fib_index`; `fib` must outlive the router.
  // The FIB's owner maintains it from the route server's advertisements
  // to this participant (next hop = a VNH for grouped prefixes, or the
  // real next-hop router address for untouched ones).
  BorderRouter(AsNumber as, net::PortId attach_port, net::MacAddress port_mac,
               const Fib& fib, std::uint32_t fib_index)
      : as_(as),
        attach_port_(attach_port),
        port_mac_(port_mac),
        shared_fib_(&fib),
        fib_index_(fib_index) {}

  AsNumber as() const { return as_; }
  std::uint32_t fib_index() const { return fib_index_; }

  // Routes in this router's FIB.
  std::size_t fib_size() const { return shared_fib_->RouteCount(fib_index_); }
  // Longest-prefix match in this router's FIB.
  std::optional<net::IPv4Address> NextHopFor(net::IPv4Address dst) const;

  // Emits a packet into the fabric: longest-prefix-match in the FIB, ARP
  // the next hop (VMAC for VNHs, real port MAC otherwise), set dst MAC and
  // the ingress port. Returns nullopt when the destination is unroutable or
  // ARP fails — the router drops it, which is how the SDX guarantees a
  // participant never sends traffic it has no route for. When provided,
  // `drop_reason` is set to kNoFibRoute / kArpUnresolved on failure.
  std::optional<net::Packet> EmitPacket(net::Packet packet,
                                        const dataplane::ArpResponder& arp,
                                        obs::DropReason* drop_reason =
                                            nullptr) const;

 private:
  AsNumber as_;
  net::PortId attach_port_;
  net::MacAddress port_mac_;
  const Fib* shared_fib_;
  std::uint32_t fib_index_;
};

}  // namespace sdx::core

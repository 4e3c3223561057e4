// Deploying the compiled SDX policy across multiple physical switches
// (§4.1: "we can rely on ... topology abstraction to combine a policy
// written for a single SDX switch with another policy for routing across
// multiple physical switches").
//
// Topology: a star — one core switch, K edge switches, each participant
// port hosted on one edge. The single-switch classifier deploys as:
//
//   * edge, delivery band (top): traffic arriving on the uplink is pure
//     L2 — (in_port = uplink, dst_mac = local port MAC) → local port; an
//     uplink guard drops anything else from the core so policy rules are
//     never applied twice;
//   * edge, policy band: every SDX rule whose in-port constraint is local
//     (or absent), with non-local egress actions redirected to the uplink —
//     correctness rests on the §4.2 invariant that every forwarding action
//     has already rewritten dst MAC to the final physical port's MAC, so
//     the rest of the journey is plain L2;
//   * core: (dst_mac = port MAC) → the downlink toward the hosting edge.
#pragma once

#include <map>
#include <span>

#include "dataplane/fabric.h"
#include "dataplane/flow_rule.h"
#include "obs/journal.h"
#include "obs/sinks.h"
#include "sdx/vswitch.h"

namespace sdx::core {

class MultiSwitchDeployment {
 public:
  // Distributes the topology's physical ports across `edge_switches` edges
  // (round-robin by participant, keeping one participant's ports together).
  MultiSwitchDeployment(const VirtualTopology& topo, int edge_switches);

  // Installs a compiled single-switch rule set across the fabric,
  // replacing any previous deployment. `rules` is in FlowTable storage
  // order (ascending precedence, as FlowTable::rules() returns it).
  void Install(const std::vector<dataplane::FlowRule>& rules);

  // Wires every switch's flow table to the observability backends: the
  // journal sink records flow-mod events per switch, each under its own
  // switch id (core = 0, edges = 1..edge_count). Null members → no-op.
  void SetSinks(const obs::Sinks& sinks);

  dataplane::MultiSwitchFabric& fabric() { return fabric_; }
  const dataplane::MultiSwitchFabric& fabric() const { return fabric_; }

  dataplane::SwitchId EdgeOf(net::PortId port) const;
  int edge_count() const { return edge_switches_; }

  // Runs a router-tagged packet through the fabric end to end.
  std::vector<dataplane::Emission> Process(const net::Packet& packet) {
    return fabric_.ProcessFromEdge(packet);
  }

  // Batched variant (dataplane fast path): one fabric pass per burst.
  std::vector<dataplane::Emission> ProcessBatch(
      std::span<const net::Packet> packets) {
    return fabric_.ProcessFromEdgeBatch(packets);
  }

  // Selects the lookup backend on every member switch's flow table.
  void SetBackend(dataplane::FlowTable::Backend backend);

 private:
  static constexpr dataplane::SwitchId kCore = 0;
  static constexpr net::PortId kLinkPortBase = 1u << 22;

  net::PortId UplinkOf(dataplane::SwitchId edge) const {
    return kLinkPortBase + 2 * edge;
  }
  net::PortId DownlinkTo(dataplane::SwitchId edge) const {
    return kLinkPortBase + 2 * edge + 1;
  }

  const VirtualTopology* topo_;
  int edge_switches_;
  dataplane::MultiSwitchFabric fabric_;
  std::map<net::PortId, dataplane::SwitchId> edge_of_port_;
};

}  // namespace sdx::core

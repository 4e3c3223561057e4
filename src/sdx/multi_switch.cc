#include "sdx/multi_switch.h"

#include <ranges>
#include <stdexcept>

namespace sdx::core {

namespace {
// Priority bands: delivery and guard sit above every compiled policy rule
// (fast-path rules live at 1'000'000 + outstanding-groups × 4096, far
// below these).
constexpr std::int32_t kDeliveryPriority = 100'000'000;
constexpr std::int32_t kGuardPriority = 90'000'000;
constexpr dataplane::Cookie kDeploymentCookie = 0xD15C0;
}  // namespace

MultiSwitchDeployment::MultiSwitchDeployment(const VirtualTopology& topo,
                                             int edge_switches)
    : topo_(&topo), edge_switches_(edge_switches) {
  if (edge_switches < 1) {
    throw std::invalid_argument("need at least one edge switch");
  }
  fabric_.AddSwitch(kCore);
  for (int e = 1; e <= edge_switches; ++e) {
    auto edge = static_cast<dataplane::SwitchId>(e);
    fabric_.AddSwitch(edge);
    fabric_.Connect(kCore, DownlinkTo(edge), edge, UplinkOf(edge));
  }
  // Round-robin participants (not ports) over edges so one participant's
  // ports share a switch, like a member's LAG at a real IXP.
  int index = 0;
  for (AsNumber as : topo.Participants()) {
    const auto edge =
        static_cast<dataplane::SwitchId>(1 + (index++ % edge_switches));
    for (net::PortId port : topo.PhysicalPortIds(as)) {
      edge_of_port_[port] = edge;
      fabric_.AssignEdgePort(port, edge);
    }
  }
}

void MultiSwitchDeployment::SetBackend(dataplane::FlowTable::Backend backend) {
  fabric_.FindSwitch(kCore)->table().SetBackend(backend);
  for (int e = 1; e <= edge_switches_; ++e) {
    fabric_.FindSwitch(static_cast<dataplane::SwitchId>(e))
        ->table()
        .SetBackend(backend);
  }
}

void MultiSwitchDeployment::SetSinks(const obs::Sinks& sinks) {
  fabric_.FindSwitch(kCore)->table().SetJournal(sinks.journal, kCore);
  fabric_.FindSwitch(kCore)->SetFlowRecorder(sinks.flows);
  for (int e = 1; e <= edge_switches_; ++e) {
    auto edge = static_cast<dataplane::SwitchId>(e);
    fabric_.FindSwitch(edge)->table().SetJournal(
        sinks.journal, static_cast<std::uint32_t>(edge));
    fabric_.FindSwitch(edge)->SetFlowRecorder(sinks.flows);
  }
}

dataplane::SwitchId MultiSwitchDeployment::EdgeOf(net::PortId port) const {
  auto it = edge_of_port_.find(port);
  if (it == edge_of_port_.end()) {
    throw std::out_of_range("port not hosted by any edge switch");
  }
  return it->second;
}

void MultiSwitchDeployment::Install(
    const std::vector<dataplane::FlowRule>& rules) {
  // Reset every table.
  fabric_.FindSwitch(kCore)->table().Clear();
  for (int e = 1; e <= edge_switches_; ++e) {
    fabric_.FindSwitch(static_cast<dataplane::SwitchId>(e))->table().Clear();
  }

  // Core: L2 by destination port MAC.
  auto& core_table = fabric_.FindSwitch(kCore)->table();
  for (const PhysicalPort& port : topo_->AllPhysicalPorts()) {
    dataplane::FlowRule rule;
    rule.priority = kDeliveryPriority;
    rule.match = net::FieldMatch::DstMac(port.mac);
    rule.actions = {dataplane::Action{{}, DownlinkTo(EdgeOf(port.id))}};
    rule.cookie = kDeploymentCookie;
    core_table.Install(std::move(rule));
  }

  for (int e = 1; e <= edge_switches_; ++e) {
    const auto edge = static_cast<dataplane::SwitchId>(e);
    auto& table = fabric_.FindSwitch(edge)->table();
    std::vector<dataplane::FlowRule> batch;

    // Delivery band: traffic from the uplink goes straight to local ports.
    for (const auto& [port, hosting_edge] : edge_of_port_) {
      if (hosting_edge != edge) continue;
      const PhysicalPort* info = topo_->FindPhysicalPort(port);
      dataplane::FlowRule rule;
      rule.priority = kDeliveryPriority;
      rule.match =
          net::FieldMatch::InPort(UplinkOf(edge)).WithDstMac(info->mac);
      rule.actions = {dataplane::Action{{}, port}};
      rule.cookie = kDeploymentCookie;
      batch.push_back(std::move(rule));
    }
    // Guard: nothing else from the core may re-enter the policy band.
    {
      dataplane::FlowRule guard;
      guard.priority = kGuardPriority;
      guard.match = net::FieldMatch::InPort(UplinkOf(edge));
      guard.cookie = kDeploymentCookie;
      batch.push_back(std::move(guard));
    }

    // Policy band: the SDX rules relevant to this edge's ingress ports,
    // highest precedence first, since InstallAll breaks priority ties by
    // input order and `rules` is in ascending precedence.
    for (const dataplane::FlowRule& rule : rules | std::views::reverse) {
      if (rule.match.in_port().has_value()) {
        auto hosted = edge_of_port_.find(*rule.match.in_port());
        if (hosted == edge_of_port_.end() || hosted->second != edge) {
          continue;  // ingress-constrained to another edge
        }
      }
      dataplane::FlowRule mapped = rule;
      for (dataplane::Action& action : mapped.actions) {
        auto hosted = edge_of_port_.find(action.out_port);
        if (hosted == edge_of_port_.end() || hosted->second != edge) {
          action.out_port = UplinkOf(edge);  // egress elsewhere: via core
        }
      }
      batch.push_back(std::move(mapped));
    }
    table.InstallAll(std::move(batch));
  }
}

}  // namespace sdx::core

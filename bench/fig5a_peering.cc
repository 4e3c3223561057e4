// Figure 5a: traffic patterns of the live application-specific peering
// experiment.
//
// Reproduces the deployment of §5.2/Figure 4a on the simulated substrate:
// a client behind AS C sends three 1 Mbps UDP flows toward an AWS-hosted
// destination reachable via AS A (BGP best) and AS B. At t=565 s AS C
// installs an application-specific peering policy diverting port-80 traffic
// via AS B; at t=1253 s AS B withdraws its route and the SDX immediately
// restores consistency, shifting everything back to AS A. One line per
// second: the full series behind the figure.
#include <cstdio>

#include "sdx/runtime.h"
#include "sim/flow_sim.h"
#include "sweep_common.h"
#include "workload/traffic_gen.h"

using namespace sdx;

int main() {
  core::SdxRuntime sdx;
  constexpr bgp::AsNumber kAsA = 100, kAsB = 200, kAsC = 300;
  sdx.AddParticipant(kAsA, 1);
  sdx.AddParticipant(kAsB, 1);
  sdx.AddParticipant(kAsC, 1);

  const auto aws = *net::IPv4Prefix::Parse("54.230.0.0/16");
  sdx.AnnouncePrefix(kAsA, aws, {kAsA, 16509});
  sdx.AnnouncePrefix(kAsB, aws, {kAsB, 64000, 16509});
  sdx.FullCompile();

  auto flows = workload::ClientFlows(
      kAsC, *net::IPv4Address::Parse("204.57.0.64"),
      *net::IPv4Address::Parse("54.230.9.9"), 3, 80);
  flows[1].header.dst_port = 4321;
  flows[2].header.dst_port = 4322;

  sim::FlowSimulator simulator(sdx, flows);
  simulator.ScheduleControl(565.0, [&sdx] {
    core::OutboundClause web;
    web.match = policy::Predicate::DstPort(80);
    web.to = kAsB;
    sdx.SetOutboundPolicy(kAsC, {web});
    sdx.FullCompile();
    std::fprintf(stderr, "t=565: application-specific peering installed\n");
  });
  simulator.ScheduleControl(1253.0, [&sdx] {
    bgp::Withdrawal withdrawal;
    withdrawal.from_as = kAsB;
    withdrawal.prefix = *net::IPv4Prefix::Parse("54.230.0.0/16");
    const bgp::BgpUpdate update{withdrawal};
    sdx.ApplyUpdates({&update, 1});
    std::fprintf(stderr, "t=1253: AS B withdrew the route\n");
  });

  auto samples = simulator.Run(1800.0, 1.0);

  const net::PortId port_a = sdx.topology().PhysicalPortOf(kAsA, 0).id;
  const net::PortId port_b = sdx.topology().PhysicalPortOf(kAsB, 0).id;
  std::printf("# Figure 5a series: time_s AS-A_mbps AS-B_mbps\n");
  for (const auto& sample : samples) {
    auto rate = [&](net::PortId port) {
      auto it = sample.mbps_by_port.find(port);
      return it == sample.mbps_by_port.end() ? 0.0 : it->second;
    };
    std::printf("%6.0f %6.2f %6.2f\n", sample.time, rate(port_a),
                rate(port_b));
  }
  std::printf("# expected shape (paper): all traffic via AS A until 565 s; "
              "port-80 flow via AS B in [565, 1253); everything back via "
              "AS A after the withdrawal at 1253 s.\n");
  bench::WriteMetricsSnapshot(sdx, "fig5a_peering");
  return 0;
}

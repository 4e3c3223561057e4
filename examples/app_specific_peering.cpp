// Application-specific peering — the paper's first deployment experiment
// (Figure 4a / Figure 5a).
//
// AS C hosts a client that talks to an AWS-hosted service reachable through
// two upstreams, AS A and AS B. Initially all traffic follows the BGP best
// route (via A). At t=565 s, AS C installs an application-specific peering
// policy sending port-80 traffic via B; at t=1253 s, B withdraws its route
// (a failure) and the SDX shifts the diverted traffic back to A within one
// control-plane update. We print the per-upstream traffic rates over time —
// the series behind Figure 5a.
#include <cstdio>

#include "sdx/runtime.h"
#include "sim/flow_sim.h"
#include "workload/traffic_gen.h"

using namespace sdx;

int main() {
  core::SdxRuntime sdx;
  constexpr bgp::AsNumber kAsA = 100, kAsB = 200, kAsC = 300;
  sdx.AddParticipant(kAsA, 1);
  sdx.AddParticipant(kAsB, 1);
  sdx.AddParticipant(kAsC, 1);

  // Both upstreams reach the Amazon prefix (Transit Portal at Wisconsin and
  // Clemson in the paper); A's route is preferred by default.
  const auto aws = *net::IPv4Prefix::Parse("54.230.0.0/16");
  sdx.AnnouncePrefix(kAsA, aws, {kAsA, 16509});
  sdx.AnnouncePrefix(kAsB, aws, {kAsB, 64000, 16509});
  sdx.FullCompile();

  // The client behind AS C: three 1 Mbps UDP flows, one of them port 80.
  auto flows = workload::ClientFlows(kAsC, *net::IPv4Address::Parse(
                                               "204.57.0.64"),
                                     *net::IPv4Address::Parse("54.230.9.9"),
                                     /*count=*/3, /*dst_port=*/80);
  flows[1].header.dst_port = 4321;  // non-web flows keep the default path
  flows[2].header.dst_port = 4322;

  sim::FlowSimulator simulator(sdx, flows);

  // t=565 s: install the application-specific peering policy at the SDX.
  simulator.ScheduleControl(565.0, [&sdx] {
    core::OutboundClause web;
    web.match = policy::Predicate::DstPort(80);
    web.to = kAsB;
    sdx.SetOutboundPolicy(kAsC, {web});
    auto stats = sdx.FullCompile();
    std::printf("# t=565s: installed application-specific peering "
                "(recompiled %zu rules in %.3f s)\n",
                stats.flow_rule_count, stats.seconds);
  });

  // t=1253 s: B withdraws its route — the fast path restores consistency.
  simulator.ScheduleControl(1253.0, [&sdx] {
    bgp::Withdrawal withdrawal;
    withdrawal.from_as = kAsB;
    withdrawal.prefix = *net::IPv4Prefix::Parse("54.230.0.0/16");
    const bgp::BgpUpdate update{withdrawal};
    const core::BatchStats stats = sdx.ApplyUpdates({&update, 1});
    std::printf("# t=1253s: AS B withdrew the route (fast path: %zu rules "
                "in %.1f ms)\n",
                stats.rules_added, stats.seconds * 1e3);
  });

  auto samples = simulator.Run(1800.0, /*interval=*/1.0);

  const net::PortId port_a = sdx.topology().PhysicalPortOf(kAsA, 0).id;
  const net::PortId port_b = sdx.topology().PhysicalPortOf(kAsB, 0).id;
  std::printf("# time_s  via_AS_A_mbps  via_AS_B_mbps\n");
  for (std::size_t t = 0; t < samples.size(); t += 30) {
    auto rate = [&](net::PortId port) {
      auto it = samples[t].mbps_by_port.find(port);
      return it == samples[t].mbps_by_port.end() ? 0.0 : it->second;
    };
    std::printf("%7zu  %13.1f  %13.1f\n", t, rate(port_a), rate(port_b));
  }
  return 0;
}

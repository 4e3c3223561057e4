// Flow-level traffic simulator over a live SdxRuntime (the Fig. 5
// deployment experiments).
//
// Every sample interval, each active flow injects one representative packet
// through its sender's border router into the fabric; the flow's rate is
// attributed to whichever egress port (and rewritten destination) the
// compiled rules chose. Control actions — installing a policy, withdrawing
// a route — are events on the same virtual clock, so traffic shifts exactly
// at the instant the paper's figures show.
#pragma once

#include <functional>
#include <map>
#include <vector>

#include "net/packet.h"
#include "sdx/runtime.h"
#include "sim/event_queue.h"
#include "workload/traffic_gen.h"

namespace sdx::sim {

struct RateSample {
  SimTime time = 0.0;
  // Mbps attributed to each fabric egress port this interval.
  std::map<net::PortId, double> mbps_by_port;
  // Mbps by delivered destination address (distinguishes the two AWS
  // instances in Fig. 5b, which share an egress).
  std::map<net::IPv4Address, double> mbps_by_dst;
  double dropped_mbps = 0.0;
};

class FlowSimulator {
 public:
  FlowSimulator(core::SdxRuntime& runtime, std::vector<workload::Flow> flows)
      : runtime_(&runtime), flows_(std::move(flows)) {}

  // Schedules a control action (e.g. install a policy + FullCompile, or
  // ApplyUpdates) at time `at`.
  void ScheduleControl(SimTime at, std::function<void()> action);

  // Runs [0, duration) sampling every `interval` seconds; returns one
  // sample per interval.
  std::vector<RateSample> Run(SimTime duration, SimTime interval = 1.0);

 private:
  RateSample SampleOnce(SimTime t);

  core::SdxRuntime* runtime_;
  std::vector<workload::Flow> flows_;
  EventQueue queue_;
};

}  // namespace sdx::sim

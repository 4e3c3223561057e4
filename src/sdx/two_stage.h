// The two-stage compilation scheduler of §4.3.2.
//
// "BGP bursts are separated by large periods with no changes, enabling
// quick, suboptimal reactions followed by background re-optimization."
//
// The scheduler feeds every BGP update through the runtime's fast path and
// watches the update arrival process: once the stream has been quiet for
// `idle_threshold` (and at least one fast-path rule set is outstanding), it
// runs the full background recompilation that coalesces the accumulated
// singleton groups back into minimal tables. A hard cap on outstanding
// fast-path groups forces re-optimization even under a continuous stream,
// bounding table growth.
//
// Time is caller-supplied (timestamps on updates + explicit Tick calls), so
// the scheduler composes with the discrete-event simulator and with the
// Table-1-calibrated update traces.
#pragma once

#include <cstdint>

#include "bgp/update.h"
#include "sdx/runtime.h"

namespace sdx::core {

struct TwoStageConfig {
  // Quiet time after which the background pass runs (the paper observes
  // 75% of burst inter-arrivals are >= 10 s; half exceed a minute).
  double idle_threshold_s = 10.0;
  // Re-optimize regardless of quiet time once this many fast-path groups
  // are outstanding.
  std::size_t max_outstanding = 1000;
};

class TwoStageScheduler {
 public:
  TwoStageScheduler(SdxRuntime& runtime, TwoStageConfig config = {})
      : runtime_(&runtime), config_(config) {}

  // Applies one update at its timestamp through the fast path. May trigger
  // a background pass FIRST if the gap since the previous update exceeded
  // the idle threshold. Returns the stats of the update's batch of one.
  BatchStats OnUpdate(const bgp::BgpUpdate& update);

  // Advances the clock without an update (e.g. a periodic timer); runs the
  // background pass when the stream has been quiet long enough.
  // Returns true when a background pass ran.
  bool Tick(double now_s);

  std::uint64_t background_runs() const { return background_runs_; }
  std::uint64_t fast_path_runs() const { return fast_path_runs_; }
  double last_update_time_s() const { return last_update_s_; }

 private:
  bool MaybeOptimize(double now_s, bool force);

  SdxRuntime* runtime_;
  TwoStageConfig config_;
  double last_update_s_ = -1e300;
  std::uint64_t background_runs_ = 0;
  std::uint64_t fast_path_runs_ = 0;
};

}  // namespace sdx::core

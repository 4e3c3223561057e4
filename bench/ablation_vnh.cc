// Ablation: the two §4 design choices that make the SDX compile at all.
//
//   1. Data-plane state (§4.2): VMAC prefix-grouping vs the naive
//      destination-prefix compilation ((ΣP)>>(ΣP) over prefix filters).
//      The paper motivates VNHs by noting naive compilation "could easily
//      lead to millions of forwarding rules"; here we compile both on the
//      same scenarios and report rule counts. The naive path explodes, so
//      it only runs at small scale.
//   2. Control-plane computation (§4.3.1): generic parallel composition of
//      the default-forwarding policy vs the composer's disjoint emission.
//      (Reuse across compiles is fig8_compile_time's incremental column.)
#include <cstdio>

#include "obs/timer.h"
#include "policy/compile.h"
#include "sdx/composer.h"
#include "sdx/default_fwd.h"
#include "sweep_common.h"

using namespace sdx;

int main() {
  std::printf("Ablation 1 (§4.2): VMAC prefix grouping vs naive "
              "destination-prefix compilation\n");
  std::printf("%13s %9s %12s %12s %12s\n", "participants", "prefixes",
              "vnh_rules", "naive_rules", "blowup");
  for (auto [participants, prefixes] :
       {std::pair{10, 50}, {15, 100}, {20, 200}, {25, 300}}) {
    core::SdxRuntime runtime;
    auto built =
        bench::MakeScenario(participants, prefixes, /*seed=*/77);
    auto stats = bench::BuildAndCompile(runtime, built);

    core::Composer composer(runtime.topology(), runtime.route_server());
    auto naive = policy::Compile(
        composer.BuildFaithfulPolicy(runtime.participants()));
    std::printf("%13d %9d %12zu %12zu %11.1fx\n", participants, prefixes,
                stats.flow_rule_count, naive.size(),
                static_cast<double>(naive.size()) /
                    static_cast<double>(stats.flow_rule_count));
  }

  std::printf("\nAblation 2 (§4.3.1): \"most SDX policies are disjoint\" — "
              "generic parallel composition of the default-forwarding "
              "policy vs the composer's direct disjoint emission\n");
  std::printf("%13s %9s %8s %15s %17s\n", "participants", "prefixes",
              "groups", "parallel_sec", "disjoint_sec");
  for (auto [participants, prefixes] :
       {std::pair{100, 2000}, {100, 5000}, {100, 10000}}) {
    core::SdxRuntime runtime;
    auto built = bench::MakeScenario(participants, prefixes, /*seed=*/99,
                                     /*policy_scale=*/1.0,
                                     /*coverage_fanout=*/participants);
    bench::BuildAndCompile(runtime, built);

    // Generic path: build the default policy as a big parallel composition
    // and run it through the general-purpose compiler (quadratic).
    auto start = obs::Now();
    auto generic = policy::Compile(
        core::DefaultFabricPolicy(runtime.topology(), runtime.groups()));
    const double parallel_sec = obs::SecondsSince(start);

    // Disjoint path: what the composer actually does — emit one rule per
    // group/port directly (linear). Re-measure by timing a full Compose,
    // whose default block uses the direct path.
    core::Composer composer(runtime.topology(), runtime.route_server());
    start = obs::Now();
    composer.Compose(runtime.participants(), runtime.groups(),
                     runtime.clause_set_ids());
    const double disjoint_sec = obs::SecondsSince(start);

    std::printf("%13d %9d %8zu %15.3f %17.3f\n", participants, prefixes,
                runtime.groups().groups.size(), parallel_sec, disjoint_sec);
    (void)generic;
    if (prefixes == 10000) {
      bench::WriteMetricsSnapshot(runtime, "ablation_vnh");
    }
  }

  std::printf("\nexpected: naive rules explode super-linearly (the paper's "
              "\"millions of rules\" motivation); generic parallel "
              "composition of the (disjoint) default policy is quadratic "
              "while direct emission stays linear — and the disjoint column "
              "covers the ENTIRE compose, not just the default block.\n");
  return 0;
}

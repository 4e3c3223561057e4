// Figure 7: number of forwarding rules as a function of the number of
// prefix groups, for 100/200/300 participants.
//
// We sweep the prefix population (which moves the resulting prefix-group
// count), compile the full SDX policy through the real pipeline, and
// report (prefix groups, flow rules) pairs. The paper's shape: roughly
// linear growth in the number of prefix groups, steeper with more
// participants (~30k rules at 1000 groups / 300 participants).
//
// `--quick` runs the single 300-participant / 5000-prefix configuration
// (the CI bench lane).
#include <cstdio>
#include <cstring>
#include <vector>

#include "sweep_common.h"

using namespace sdx;

namespace {

// Cap on coverage clauses per sender. Fixed, so the sweep's rule counts
// stay comparable across revisions.
constexpr int kCoverageMaxPerSender = 24;

}  // namespace

int main(int argc, char** argv) {
  const bool quick =
      argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  std::printf("Figure 7: flow rules vs prefix groups%s\n",
              quick ? " [quick]" : "");
  std::printf("%13s %13s %13s %13s\n", "participants", "prefixes",
              "prefix_groups", "flow_rules");
  const std::vector<int> participant_counts =
      quick ? std::vector<int>{300} : std::vector<int>{100, 200, 300};
  const std::vector<int> prefix_counts =
      quick ? std::vector<int>{5000}
            : std::vector<int>{2000, 5000, 10000, 15000, 20000, 25000};
  for (int participants : participant_counts) {
    for (int prefixes : prefix_counts) {
      // Coverage clauses are dealt over many senders (capped per sender)
      // rather than piled onto the top transits: same prefix-group
      // diversity, but many participants each with a handful of policy
      // targets.
      auto built = bench::MakeScenario(
          participants, prefixes,
          /*seed=*/1000 + participants,
          /*policy_scale=*/1.0,
          /*coverage_fanout=*/participants,
          /*coverage_max_per_sender=*/kCoverageMaxPerSender);

      core::SdxRuntime runtime;
      auto stats = bench::BuildAndCompile(runtime, built);
      std::printf("%13d %13d %13zu %13zu\n", participants, prefixes,
                  stats.prefix_group_count, stats.flow_rule_count);

      const bool snapshot_config =
          participants == participant_counts.back() &&
          prefixes == prefix_counts.back();
      if (snapshot_config) {
        runtime.metrics()
            .GetGauge("rules.flow_count")
            .Set(static_cast<double>(stats.flow_rule_count));
        bench::WriteMetricsSnapshot(runtime, "fig7_flow_rules");
      }
    }
    std::printf("\n");
  }
  std::printf("expected shape (paper): linear in prefix groups, more "
              "participants => more rules.\n");
  return 0;
}

// Figure 9: additional forwarding rules installed by the fast path as a
// function of BGP-update burst size, for 100/200/300 participants —
// sequential replay (one batch of one per update) vs the batched
// ApplyUpdates pipeline (DESIGN.md §9), with a packet-level oracle check on
// every burst.
//
// Worst-case replay as in the paper: every update in the burst changes the
// best path (escalating local-pref re-announcements), so the sequential
// path allocates a fresh VNH and installs a policy slice per update. The
// burst is flap-heavy — each touched prefix is re-announced several times
// — so the batched path coalesces per (peer, prefix) and installs one
// slice per *surviving* key, which is where the rule (and time) savings
// come from. Expected shape: sequential linear in burst size; batched
// linear in distinct prefixes touched.
//
// Flags: --quick trims the sweep for the CI bench lane.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <random>
#include <vector>

#include "oracle.h"
#include "sweep_common.h"

using namespace sdx;

namespace {

struct FlapKey {
  bgp::AsNumber as;
  net::IPv4Prefix prefix;
};

// All (announcer, prefix) candidates, shuffled once so consecutive bursts
// touch different keys but the sequence is deterministic.
std::vector<FlapKey> ShuffledKeys(const workload::IxpScenario& scenario,
                                  std::uint64_t seed) {
  std::vector<FlapKey> keys;
  for (const auto& member : scenario.members) {
    for (const auto& prefix : member.announced) {
      keys.push_back({member.as, prefix});
    }
  }
  std::mt19937 rng(static_cast<std::uint32_t>(seed));
  std::shuffle(keys.begin(), keys.end(), rng);
  return keys;
}

// A flap-heavy burst of `size` updates over ceil(size/8) distinct keys,
// interleaved round-robin with escalating local-pref (so every update
// changes the best path, and coalescing has to work across keys).
std::vector<bgp::BgpUpdate> MakeFlapBurst(const core::SdxRuntime& runtime,
                                          const std::vector<FlapKey>& keys,
                                          std::size_t& next_key, int size,
                                          std::uint32_t& escalation) {
  const std::size_t distinct =
      std::max<std::size_t>(1, (static_cast<std::size_t>(size) + 7) / 8);
  std::vector<FlapKey> picked;
  for (std::size_t i = 0; i < distinct; ++i) {
    picked.push_back(keys[(next_key + i) % keys.size()]);
  }
  next_key = (next_key + distinct) % keys.size();

  std::vector<bgp::BgpUpdate> burst;
  burst.reserve(static_cast<std::size_t>(size));
  while (burst.size() < static_cast<std::size_t>(size)) {
    const std::uint32_t pref = escalation++;
    for (const FlapKey& key : picked) {
      if (burst.size() == static_cast<std::size_t>(size)) break;
      bgp::Announcement a;
      a.from_as = key.as;
      a.route.prefix = key.prefix;
      a.route.as_path = {key.as};
      a.route.local_pref = pref;
      a.route.next_hop = runtime.RouterIp(key.as);
      burst.push_back(bgp::BgpUpdate{a});
    }
  }
  return burst;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const std::vector<int> participant_counts =
      quick ? std::vector<int>{100} : std::vector<int>{100, 200, 300};
  const std::vector<int> bursts = quick
                                      ? std::vector<int>{10, 40}
                                      : std::vector<int>{10, 20, 40, 60,
                                                         80, 100};
  const std::size_t oracle_packets = quick ? 150 : 400;

  std::printf("Figure 9: additional rules vs BGP update burst size "
              "(flap-heavy worst case; sequential replay vs batched "
              "ingest)\n");
  std::printf("%13s %11s %9s %9s %9s %11s %7s\n", "participants",
              "burst_size", "seq_rules", "bat_rules", "coalesced",
              "table_after", "oracle");
  for (int participants : participant_counts) {
    auto built = bench::MakeScenario(participants, /*prefixes=*/4000,
                                     /*seed=*/3000 + participants,
                                     /*policy_scale=*/1.0,
                                     /*coverage_fanout=*/participants);
    core::SdxRuntime seq;
    core::SdxRuntime bat;
    bench::BuildAndCompile(seq, built);
    bench::BuildAndCompile(bat, built);

    const auto keys = ShuffledKeys(built.scenario, 99);
    std::size_t next_key = 0;
    std::uint32_t escalation = 200;
    for (int burst_size : bursts) {
      const auto burst =
          MakeFlapBurst(seq, keys, next_key, burst_size, escalation);

      std::size_t seq_rules = 0;
      for (const auto& update : burst) {
        seq_rules += seq.ApplyUpdates({&update, 1}).rules_added;
      }
      const core::BatchStats stats = bat.ApplyUpdates(burst);

      // Both replicas must be packet-for-packet identical after the
      // burst, VNH identities aside: the oracle gate for the batched
      // ingest pipeline.
      const oracle::OracleResult check = oracle::ComparePacketBehavior(
          seq, bat, built.scenario,
          /*seed=*/7000 + static_cast<std::uint64_t>(burst_size),
          oracle_packets);
      std::printf("%13d %11d %9zu %9zu %9zu %11zu %7s\n", participants,
                  burst_size, seq_rules, stats.rules_added,
                  stats.updates_coalesced,
                  bat.data_plane().table().size(),
                  check.equivalent ? "ok" : "FAIL");
      if (!check.equivalent) {
        std::fprintf(stderr, "oracle divergence at burst %d:\n%s\n",
                     burst_size, check.report.c_str());
        return 1;
      }
      // The background pass coalesces the fast-path rules before the next
      // burst, exactly as the runtime does between real bursts (§4.3.2).
      seq.FullCompile();
      bat.FullCompile();
    }
    if (participants == participant_counts.back()) {
      bench::WriteMetricsSnapshot(seq, "fig9_burst_rules");
      bench::WriteMetricsSnapshot(bat, "fig9_batched");
    }
    std::printf("\n");
  }
  std::printf("expected shape (paper): sequential linear in burst size, "
              "slope grows with participant count; batched linear in "
              "distinct prefixes touched (burst/8 here).\n");
  return 0;
}

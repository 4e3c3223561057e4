// Google-benchmark microbenchmarks of the hot paths under every figure:
// flow-space intersection, classifier composition, longest-prefix match
// (the trie and the border routers' shared FIB), FEC computation, and
// flow-table lookup.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "dataplane/switch.h"
#include "net/prefix_trie.h"
#include "obs/flow_recorder.h"
#include "obs/timer.h"
#include "policy/compile.h"
#include "sdx/fec.h"
#include "sdx/participant.h"
#include "sweep_common.h"
#include "workload/seed.h"
#include "workload/topology_gen.h"

using namespace sdx;

namespace {

net::FieldMatch RandomMatch(std::mt19937& rng) {
  net::FieldMatch m;
  if (rng() % 2) m.WithInPort(rng() % 16);
  if (rng() % 2) m.WithDstPort(rng() % 2 ? 80 : 443);
  if (rng() % 2) {
    m.WithDstIp(net::IPv4Prefix(
        net::IPv4Address(static_cast<std::uint32_t>(rng())),
        static_cast<std::uint8_t>(8 + rng() % 17)));
  }
  return m;
}

void BM_FieldMatchIntersect(benchmark::State& state) {
  std::mt19937 rng(1);
  std::vector<net::FieldMatch> matches;
  for (int i = 0; i < 256; ++i) matches.push_back(RandomMatch(rng));
  std::size_t i = 0;
  for (auto _ : state) {
    auto result = matches[i % 256].Intersect(matches[(i * 7 + 3) % 256]);
    benchmark::DoNotOptimize(result);
    ++i;
  }
}
BENCHMARK(BM_FieldMatchIntersect);

void BM_ClassifierParallel(benchmark::State& state) {
  const auto rules = static_cast<int>(state.range(0));
  std::mt19937 rng(2);
  std::vector<policy::Rule> a_rules, b_rules;
  for (int i = 0; i < rules; ++i) {
    a_rules.push_back({net::FieldMatch::DstPort(
                           static_cast<std::uint16_t>(1000 + i)),
                       {dataplane::Action{{}, 1}}});
    b_rules.push_back({net::FieldMatch::SrcPort(
                           static_cast<std::uint16_t>(2000 + i)),
                       {dataplane::Action{{}, 2}}});
  }
  a_rules.push_back({net::FieldMatch(), {}});
  b_rules.push_back({net::FieldMatch(), {}});
  policy::Classifier a(a_rules), b(b_rules);
  for (auto _ : state) {
    auto c = a.Parallel(b);
    benchmark::DoNotOptimize(c);
  }
  state.SetComplexityN(rules);
}
BENCHMARK(BM_ClassifierParallel)->Range(8, 128)->Complexity();

void BM_ClassifierSequential(benchmark::State& state) {
  const auto rules = static_cast<int>(state.range(0));
  std::vector<policy::Rule> a_rules, b_rules;
  for (int i = 0; i < rules; ++i) {
    a_rules.push_back({net::FieldMatch::DstPort(
                           static_cast<std::uint16_t>(1000 + i)),
                       {dataplane::Action{{}, static_cast<net::PortId>(i)}}});
    b_rules.push_back(
        {net::FieldMatch::InPort(static_cast<net::PortId>(i)),
         {dataplane::Action{{}, 99}}});
  }
  a_rules.push_back({net::FieldMatch(), {}});
  b_rules.push_back({net::FieldMatch(), {}});
  policy::Classifier a(a_rules), b(b_rules);
  for (auto _ : state) {
    auto c = a.Sequential(b);
    benchmark::DoNotOptimize(c);
  }
  state.SetComplexityN(rules);
}
BENCHMARK(BM_ClassifierSequential)->Range(8, 128)->Complexity();

void BM_PrefixTrieLongestMatch(benchmark::State& state) {
  net::PrefixMap<int> trie;
  std::mt19937 rng(3);
  for (int i = 0; i < 100000; ++i) {
    trie.Insert(workload::TopologyGenerator::PrefixNumber(i), i);
  }
  std::uint32_t x = 12345;
  for (auto _ : state) {
    x = x * 1664525 + 1013904223;
    auto hit = trie.LongestMatch(
        net::IPv4Address((16u << 24) | (x & 0x00FFFFFFu)));
    benchmark::DoNotOptimize(hit);
  }
}
BENCHMARK(BM_PrefixTrieLongestMatch);

// Border-router FIB lookups at perfbench's shape: one shared FIB viewed by
// 300 routers, 4,000 dense /24s, one exception per prefix (0.33% of the
// router × prefix pairs: the best route's announcer, absent or routed
// elsewhere), and 21% of lookups to addresses no prefix covers. Each
// lookup goes through BorderRouter::NextHopFor, out of line, as the
// runtime's packet path does.
void BM_BorderRouterNextHopSdxShape(benchmark::State& state) {
  constexpr int kRouters = 300;
  constexpr int kPrefixes = 4000;
  core::Fib fib;
  for (int i = 0; i < kPrefixes; ++i) {
    const auto announcer = static_cast<std::uint32_t>(i % kRouters);
    const net::IPv4Address shared(0xC0A80000u + 1 + (i * 7) % kRouters);
    const net::IPv4Address other(0xC0A80000u + 1 + (i * 11) % kRouters);
    fib.Set(workload::TopologyGenerator::PrefixNumber(i), shared,
            {{announcer, i % 2 == 0 ? net::IPv4Address() : other}});
  }
  std::vector<core::BorderRouter> routers;
  for (int r = 0; r < kRouters; ++r) {
    routers.emplace_back(static_cast<core::AsNumber>(1000 + r),
                         static_cast<net::PortId>(r), net::MacAddress(), fib,
                         static_cast<std::uint32_t>(r));
  }
  struct Probe {
    const core::BorderRouter* router;
    net::IPv4Address dst;
  };
  std::mt19937 rng = workload::MakeRng(workload::DeriveSeed(42, 11));
  std::vector<Probe> probes(4096);
  for (Probe& probe : probes) {
    probe.router = &routers[rng() % kRouters];
    const std::uint32_t host = rng() & 0xFFu;
    probe.dst =
        rng() % 100 < 21
            ? net::IPv4Address((64u << 24) | (rng() & 0xFFFF00u) | host)
            : net::IPv4Address(workload::TopologyGenerator::PrefixNumber(
                                   static_cast<int>(rng() % kPrefixes))
                                   .network()
                                   .value() |
                               host);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const Probe& probe = probes[i % probes.size()];
    auto hop = probe.router->NextHopFor(probe.dst);
    benchmark::DoNotOptimize(hop);
    ++i;
  }
}
BENCHMARK(BM_BorderRouterNextHopSdxShape);

void BM_FecCompute(benchmark::State& state) {
  const auto prefixes = static_cast<int>(state.range(0));
  workload::TopologyParams params;
  params.participants = 100;
  params.total_prefixes = prefixes;
  auto scenario = workload::TopologyGenerator(params).Generate();
  for (auto _ : state) {
    core::FecComputer fec;
    for (const auto& member : scenario.members) {
      if (!member.announced.empty()) fec.AddBehaviorSet(member.announced);
    }
    auto groups = fec.Compute();
    benchmark::DoNotOptimize(groups);
  }
  state.SetComplexityN(prefixes);
}
BENCHMARK(BM_FecCompute)->Range(1000, 16000)->Complexity();

void BM_PolicyCompile(benchmark::State& state) {
  using policy::Policy;
  using policy::Predicate;
  Policy p = Policy::Drop();
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    p = p + Policy::Guarded(
                Predicate::DstPort(static_cast<std::uint16_t>(80 + i)),
                Policy::Fwd(static_cast<net::PortId>(i)));
  }
  for (auto _ : state) {
    auto c = policy::Compile(p);
    benchmark::DoNotOptimize(c);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PolicyCompile)->Range(8, 256)->Complexity();

// Shared fixture for the flow-table benchmark and the telemetry overhead
// gate: a switch loaded with 256 exact dst-port rules plus the SDX
// catch-all drop, and a seeded packet stream where ~80% of packets hit a
// forwarding rule (the rest hit the explicit drop, which skips the flow
// recorder — the realistic mix for measuring recorder overhead).
constexpr int kFlowRules = 256;

void LoadSwitch(dataplane::SwitchDataPlane& sw) {
  std::vector<dataplane::FlowRule> rules;
  for (int i = 0; i < kFlowRules; ++i) {
    dataplane::FlowRule rule;
    rule.priority = 100;
    rule.match = net::FieldMatch::DstPort(static_cast<std::uint16_t>(1000 + i));
    rule.actions = {dataplane::Action{{}, static_cast<net::PortId>(16 + i % 16)}};
    rule.cookie = 1000 + static_cast<dataplane::Cookie>(i);
    rules.push_back(std::move(rule));
  }
  dataplane::FlowRule catch_all;
  catch_all.priority = 0;
  catch_all.cookie = 1;
  rules.push_back(std::move(catch_all));
  sw.table().InstallAll(std::move(rules));
}

std::vector<net::Packet> MakePacketWorkload(std::size_t count,
                                            std::uint64_t seed) {
  std::mt19937 rng = workload::MakeRng(seed);
  std::vector<net::Packet> packets;
  packets.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    net::Packet p;
    p.header.in_port = rng() % 16;
    p.header.dst_port = static_cast<std::uint16_t>(1000 + rng() % 320);
    p.header.dst_mac = net::MacAddress(0x0A0000000000ull | (rng() % 64));
    p.size_bytes = 64 + rng() % 1400;
    packets.push_back(p);
  }
  return packets;
}

void BM_FlowTableProcess(benchmark::State& state) {
  dataplane::SwitchDataPlane sw;
  LoadSwitch(sw);
  const auto packets = MakePacketWorkload(4096, workload::DeriveSeed(42, 0));
  std::size_t i = 0;
  for (auto _ : state) {
    auto emissions = sw.Process(packets[i % packets.size()]);
    benchmark::DoNotOptimize(emissions);
    ++i;
  }
}
BENCHMARK(BM_FlowTableProcess);

// --- Data-plane fast path (DESIGN.md §11) ------------------------------
//
// A rule set shaped like a real SDX deployment at scale: several distinct
// mask shapes (tuples), thousands of rules. The linear reference scans
// ~half the table per packet; the compiled tuple-space-search backend does
// one hash probe per tuple. This fixture is what the ≥10× speedup gate
// measures.
constexpr int kFastPathRulesPerBand = 1024;

void LoadFastPathSwitch(dataplane::SwitchDataPlane& sw,
                        dataplane::FlowTable::Backend backend) {
  sw.table().SetBackend(backend);
  std::vector<dataplane::FlowRule> rules;
  // Band 1: exact dst-port (the policy band's most common shape).
  for (int i = 0; i < kFastPathRulesPerBand; ++i) {
    dataplane::FlowRule rule;
    rule.priority = 300;
    rule.match = net::FieldMatch::DstPort(static_cast<std::uint16_t>(1000 + i));
    rule.actions = {dataplane::Action{{}, static_cast<net::PortId>(16 + i % 16)}};
    rule.cookie = 10;
    rules.push_back(std::move(rule));
  }
  // Band 2: (in_port, dst_port) pairs — ingress-constrained policy rules.
  for (int i = 0; i < kFastPathRulesPerBand; ++i) {
    dataplane::FlowRule rule;
    rule.priority = 200;
    rule.match =
        net::FieldMatch::InPort(i % 16).WithDstPort(
            static_cast<std::uint16_t>(4000 + i / 16));
    rule.actions = {dataplane::Action{{}, static_cast<net::PortId>(32 + i % 16)}};
    rule.cookie = 11;
    rules.push_back(std::move(rule));
  }
  // Band 3: dst_ip /24 prefixes — the forwarding band.
  for (int i = 0; i < kFastPathRulesPerBand; ++i) {
    dataplane::FlowRule rule;
    rule.priority = 100;
    rule.match = net::FieldMatch::DstIp(net::IPv4Prefix(
        net::IPv4Address(10, static_cast<std::uint8_t>(i / 256),
                         static_cast<std::uint8_t>(i % 256), 0),
        24));
    rule.actions = {dataplane::Action{{}, static_cast<net::PortId>(48 + i % 16)}};
    rule.cookie = 12;
    rules.push_back(std::move(rule));
  }
  // Band 4: exact dst_mac — L2 delivery rules (multi-switch style).
  for (int i = 0; i < kFastPathRulesPerBand; ++i) {
    dataplane::FlowRule rule;
    rule.priority = 50;
    rule.match = net::FieldMatch::DstMac(
        net::MacAddress(0x0A0000000000ull + static_cast<std::uint64_t>(i)));
    rule.actions = {dataplane::Action{{}, static_cast<net::PortId>(64 + i % 16)}};
    rule.cookie = 13;
    rules.push_back(std::move(rule));
  }
  dataplane::FlowRule catch_all;
  catch_all.priority = 0;
  catch_all.cookie = 1;
  rules.push_back(std::move(catch_all));
  sw.table().InstallAll(std::move(rules));
}

std::vector<net::Packet> MakeFastPathWorkload(std::size_t count,
                                              std::uint64_t seed) {
  std::mt19937 rng = workload::MakeRng(seed);
  std::vector<net::Packet> packets;
  packets.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    net::Packet p;
    p.header.in_port = rng() % 16;
    // Spread hits across all four bands plus some catch-all traffic, so
    // the linear scan's average depth reflects the whole table.
    switch (rng() % 5) {
      case 0:
        p.header.dst_port = static_cast<std::uint16_t>(1000 + rng() % 1280);
        break;
      case 1:
        p.header.dst_port = static_cast<std::uint16_t>(4000 + rng() % 80);
        break;
      case 2:
        p.header.dst_ip = net::IPv4Address(
            10, static_cast<std::uint8_t>(rng() % 5),
            static_cast<std::uint8_t>(rng() % 256),
            static_cast<std::uint8_t>(rng() % 256));
        break;
      case 3:
        p.header.dst_mac =
            net::MacAddress(0x0A0000000000ull + rng() % 1280);
        break;
      default:
        p.header.src_port = static_cast<std::uint16_t>(rng());
        break;
    }
    p.size_bytes = 64 + rng() % 1400;
    packets.push_back(p);
  }
  return packets;
}

void BM_FlowTableProcessLinear(benchmark::State& state) {
  dataplane::SwitchDataPlane sw;
  LoadFastPathSwitch(sw, dataplane::FlowTable::Backend::kLinear);
  const auto packets =
      MakeFastPathWorkload(4096, workload::DeriveSeed(42, 7));
  std::size_t i = 0;
  for (auto _ : state) {
    auto emissions = sw.Process(packets[i % packets.size()]);
    benchmark::DoNotOptimize(emissions);
    ++i;
  }
}
BENCHMARK(BM_FlowTableProcessLinear);

void BM_SwitchProcessBatch(benchmark::State& state) {
  dataplane::SwitchDataPlane sw;
  LoadFastPathSwitch(sw, dataplane::FlowTable::Backend::kCompiled);
  const auto packets =
      MakeFastPathWorkload(4096, workload::DeriveSeed(42, 7));
  sw.ProcessBatch(packets);  // compile before timing
  constexpr std::size_t kChunk = 256;
  std::size_t offset = 0;
  for (auto _ : state) {
    auto emissions = sw.ProcessBatch(
        std::span<const net::Packet>(packets).subspan(offset, kChunk));
    benchmark::DoNotOptimize(emissions);
    offset = (offset + kChunk) % packets.size();
  }
  state.SetItemsProcessed(state.iterations() * kChunk);
}
BENCHMARK(BM_SwitchProcessBatch);

// --- SDX-shaped fixture (DESIGN.md §11) --------------------------------
//
// Mirrors the tuple census of perfbench's first compile (300 participants
// × 4,000 prefixes: 6,188 rules, 733 VMACs, 17 mask signatures): every
// rule but the catch-all pins a dst MAC (§4.2 VMACs), and every rule has
// its own priority. Each VMAC has one delivery rule (dst MAC alone); above
// those, the policy rules spread over a few hundred VMACs in the census'
// shape mix of in_port / src_port / dst_port / src_ip-/1 on top of the
// VMAC. Packets carry a VMAC, as the border routers' ARP tag makes them,
// and a few carry a MAC no rule pins. The fast-path fixture above
// wildcards dst MAC in three of its four bands, so only this fixture
// reaches the classifier's dst-MAC dispatch stage.
constexpr int kSdxVmacs = 700;
constexpr int kSdxPolicyVmacs = 200;
constexpr int kSdxPorts = 16;
constexpr std::uint64_t kSdxVmacBase = 0x0A0000000000ull;
constexpr std::uint16_t kSdxServicePorts[] = {80, 443, 8080, 1935};

void LoadSdxShapeSwitch(dataplane::SwitchDataPlane& sw,
                        dataplane::FlowTable::Backend backend) {
  sw.table().SetBackend(backend);
  std::mt19937 rng = workload::MakeRng(workload::DeriveSeed(42, 9));
  const auto service_port = [&]() {
    return kSdxServicePorts[rng() % std::size(kSdxServicePorts)];
  };
  // Policy shapes on top of dst MAC, with their rule counts in the census.
  struct Shape {
    bool in_port, src_ip, src_port, dst_port;
    int rules;
  };
  constexpr Shape kShapes[] = {
      {true, false, false, false, 299}, {false, true, false, false, 226},
      {true, true, false, false, 44},   {false, false, true, false, 236},
      {true, false, true, false, 67},   {false, true, true, false, 196},
      {true, true, true, false, 5},     {false, false, false, true, 110},
      {true, false, false, true, 2308}, {false, true, false, true, 34},
      {true, true, false, true, 635},   {false, false, true, true, 4},
      {true, false, true, true, 875},   {false, true, true, true, 4},
      {true, true, true, true, 411},
  };
  std::vector<net::FieldMatch> policy;
  for (const Shape& shape : kShapes) {
    for (int i = 0; i < shape.rules; ++i) {
      net::FieldMatch m = net::FieldMatch::DstMac(
          net::MacAddress(kSdxVmacBase + rng() % kSdxPolicyVmacs));
      if (shape.in_port) m.WithInPort(rng() % kSdxPorts);
      if (shape.src_ip) {
        m.WithSrcIp(net::IPv4Prefix(
            net::IPv4Address(rng() % 2 ? 0x80000000u : 0u), 1));
      }
      if (shape.src_port) m.WithSrcPort(service_port());
      if (shape.dst_port) m.WithDstPort(service_port());
      policy.push_back(std::move(m));
    }
  }
  std::shuffle(policy.begin(), policy.end(), rng);

  std::vector<dataplane::FlowRule> rules;
  const auto add = [&](std::int32_t priority, net::FieldMatch match) {
    const auto out = static_cast<net::PortId>(rng() % kSdxPorts);
    dataplane::FlowRule rule;
    rule.priority = priority;
    rule.match = std::move(match);
    const net::MacAddress next_hop(0x020000000000ull + out);
    rule.actions = {
        dataplane::Action{dataplane::Rewrites().SetDstMac(next_hop), out}};
    rule.cookie = 20;
    rules.push_back(std::move(rule));
  };
  std::int32_t priority = 1;
  for (int v = 0; v < kSdxVmacs; ++v) {
    add(priority++, net::FieldMatch::DstMac(net::MacAddress(kSdxVmacBase + v)));
  }
  for (net::FieldMatch& match : policy) add(priority++, std::move(match));
  dataplane::FlowRule catch_all;
  catch_all.priority = 0;
  catch_all.cookie = 1;
  rules.push_back(std::move(catch_all));
  sw.table().InstallAll(std::move(rules));
}

std::vector<net::Packet> MakeSdxShapeWorkload(std::size_t count,
                                              std::uint64_t seed) {
  std::mt19937 rng = workload::MakeRng(seed);
  std::vector<net::Packet> packets;
  packets.reserve(count);
  // Half the packets use a port some policy rule names.
  const auto port = [&]() -> std::uint16_t {
    return rng() % 2 ? kSdxServicePorts[rng() % std::size(kSdxServicePorts)]
                     : static_cast<std::uint16_t>(rng());
  };
  for (std::size_t i = 0; i < count; ++i) {
    net::Packet p;
    p.header.in_port = rng() % kSdxPorts;
    p.header.src_ip = net::IPv4Address(static_cast<std::uint32_t>(rng()));
    p.header.src_port = port();
    p.header.dst_port = port();
    // 3 in 5 to a policy VMAC, 1 in 3 to a delivery-only one, the rest to
    // a MAC the dispatch table does not hold.
    const std::uint32_t pick = rng() % 15;
    const std::uint64_t vmac =
        pick < 9    ? rng() % kSdxPolicyVmacs
        : pick < 14 ? kSdxPolicyVmacs + rng() % (kSdxVmacs - kSdxPolicyVmacs)
                    : kSdxVmacs + rng() % 1024;
    p.header.dst_mac = net::MacAddress(kSdxVmacBase + vmac);
    p.size_bytes = 64 + rng() % 1400;
    packets.push_back(p);
  }
  return packets;
}

void BM_FlowTableProcessSdxShape(benchmark::State& state) {
  dataplane::SwitchDataPlane sw;
  LoadSdxShapeSwitch(sw, dataplane::FlowTable::Backend::kCompiled);
  const auto packets =
      MakeSdxShapeWorkload(4096, workload::DeriveSeed(42, 10));
  std::size_t i = 0;
  for (auto _ : state) {
    auto emissions = sw.Process(packets[i % packets.size()]);
    benchmark::DoNotOptimize(emissions);
    ++i;
  }
}
BENCHMARK(BM_FlowTableProcessSdxShape);

// The telemetry budget: sampled flow export may cost at most 5% on the
// packet path, recorder detached vs attached at the production sampling
// rate over a fixed seeded packet stream. Whole-stream passes (~45 ms)
// were too coarse for a shared host: best-of-9 pass pairs read anywhere
// from 0.91 to 1.12 across runs of one binary, because a noise episode
// lasting a few passes hit one mode's minimum and not the other's. So the
// stream is cut into short chunks (~1.4 ms of linear-path work), each
// chunk is timed off and on back to back (which mode goes first
// alternates), and each mode's total is the sum over chunks of that
// chunk's best time across rounds: both modes see the same noise at the
// same moment, and noise only ever adds time, so the per-chunk minima are
// the honest floor. Unmeasured warm-up passes with the recorder attached
// come first: each pass samples a mostly-fresh flow-key set, so the flow
// cache only reaches capacity (and measured chunks only pay steady-state
// eviction costs) after ~3 passes — an O(n)-eviction regression once hid
// behind exactly those warm-up passes. The ratio lands in the metrics
// snapshot as gauge `telemetry.overhead_ratio`, where the `sdxmon diff`
// band (BenchDiffOptions::max_telemetry_overhead) flags it across PRs.
// The gate also fails THIS run (nonzero exit) when the budget is blown.
constexpr double kTelemetryOverheadBudget = 1.05;

struct OverheadSeconds {
  double off = 0.0;
  double on = 0.0;
};

OverheadSeconds MeasureRecorderOverhead(dataplane::SwitchDataPlane& sw,
                                        obs::FlowRecorder& recorder,
                                        std::span<const net::Packet> packets) {
  constexpr std::size_t kChunk = 1 << 12;
  constexpr int kWarmupPasses = 3;
  constexpr int kRounds = 16;
  const std::size_t chunks = (packets.size() + kChunk - 1) / kChunk;
  const auto chunk_seconds = [&](std::size_t chunk) {
    const auto slice = packets.subspan(
        chunk * kChunk, std::min(kChunk, packets.size() - chunk * kChunk));
    const auto start = obs::Now();
    for (const net::Packet& packet : slice) {
      auto emissions = sw.Process(packet);
      benchmark::DoNotOptimize(emissions);
    }
    return obs::SecondsSince(start);
  };

  sw.SetFlowRecorder(&recorder);
  for (int pass = 0; pass < kWarmupPasses; ++pass) {
    for (std::size_t chunk = 0; chunk < chunks; ++chunk) chunk_seconds(chunk);
  }
  std::vector<double> best_off(chunks, std::numeric_limits<double>::infinity());
  std::vector<double> best_on(chunks, std::numeric_limits<double>::infinity());
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
      for (std::size_t turn = 0; turn < 2; ++turn) {
        const bool on = (round + chunk + turn) % 2 == 1;
        sw.SetFlowRecorder(on ? &recorder : nullptr);
        double& best = on ? best_on[chunk] : best_off[chunk];
        best = std::min(best, chunk_seconds(chunk));
      }
    }
  }
  sw.SetFlowRecorder(nullptr);
  OverheadSeconds total;
  for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
    total.off += best_off[chunk];
    total.on += best_on[chunk];
  }
  return total;
}

int RunTelemetryOverheadGate(obs::MetricsRegistry& metrics) {
  constexpr std::size_t kPackets = 1 << 17;
  const auto packets = MakePacketWorkload(kPackets, workload::DeriveSeed(42, 0));
  dataplane::SwitchDataPlane sw;
  LoadSwitch(sw);
  // The budget was set against the linear reference scan, and that is what
  // this gate keeps measuring: the recorder's per-packet cost (one relaxed
  // atomic + mixer + compare) is backend-independent, so pinning the
  // backend isolates the quantity under test. Against the compiled fast
  // path the same absolute cost is a larger *fraction* of a much smaller
  // denominator — that ratio is exported below as an ungated gauge
  // (telemetry.overhead_ratio_compiled), and the absolute per-packet cost
  // (telemetry.overhead_ns) is the backend-proof invariant to watch.
  sw.table().SetBackend(dataplane::FlowTable::Backend::kLinear);

  obs::FlowRecorder::Options options;
  options.seed = workload::DeriveSeed(42, 1);
  options.sample_rate = 64;
  options.cache_capacity = 4096;
  obs::FlowRecorder recorder(options);

  const auto [off_seconds, on_seconds] =
      MeasureRecorderOverhead(sw, recorder, packets);
  const double ratio = on_seconds / off_seconds;
  metrics.GetGauge("telemetry.overhead_ratio").Set(ratio);
  metrics.GetGauge("telemetry.off_seconds").Set(off_seconds);
  metrics.GetGauge("telemetry.on_seconds").Set(on_seconds);
  metrics.GetGauge("telemetry.overhead_ns")
      .Set((on_seconds - off_seconds) / static_cast<double>(kPackets) * 1e9);

  // Informational: the same recorder cost relative to the compiled fast
  // path. Not gated — the recorder did not get more expensive when the
  // base path got 10× faster — but worth tracking across PRs.
  {
    dataplane::SwitchDataPlane fast;
    LoadSwitch(fast);
    const OverheadSeconds compiled =
        MeasureRecorderOverhead(fast, recorder, packets);
    metrics.GetGauge("telemetry.overhead_ratio_compiled")
        .Set(compiled.on / compiled.off);
  }

  // Deterministic export artifact: a fresh recorder over one pass of the
  // same packet stream. Fixed seed + fixed packet order + no timestamps
  // means this file is byte-identical across runs (the acceptance check).
  obs::FlowRecorder exporter(options);
  sw.ResetStats();
  sw.SetFlowRecorder(&exporter);
  for (const net::Packet& packet : packets) sw.Process(packet);
  sw.SetFlowRecorder(nullptr);
  exporter.FlushAll();
  std::ofstream("BENCH_microbench_flows.jsonl")
      << exporter.DrainJsonl(/*timestamps=*/false);
  metrics.GetCounter("telemetry.packets_seen").Set(exporter.packets_seen());
  metrics.GetCounter("telemetry.packets_sampled")
      .Set(exporter.packets_sampled());
  metrics.GetCounter("telemetry.flows_exported").Set(exporter.flows_exported());

  std::printf(
      "telemetry overhead: off=%.6fs on=%.6fs ratio=%.4f (budget %.2f); "
      "%llu/%llu packets sampled, %llu flows -> "
      "BENCH_microbench_flows.jsonl\n",
      off_seconds, on_seconds, ratio, kTelemetryOverheadBudget,
      static_cast<unsigned long long>(exporter.packets_sampled()),
      static_cast<unsigned long long>(exporter.packets_seen()),
      static_cast<unsigned long long>(exporter.flows_exported()));
  if (ratio > kTelemetryOverheadBudget) {
    std::fprintf(stderr,
                 "FAIL: telemetry overhead ratio %.4f exceeds budget %.2f\n",
                 ratio, kTelemetryOverheadBudget);
    return 1;
  }
  return 0;
}

// The fast-path gate: the compiled classifier backend must process at
// least 10× the packets/sec of the linear reference scan on the
// multi-tuple fixture above — measured honestly, after an equivalence
// pre-check proving the two backends agree packet-for-packet (emissions
// AND per-reason drops) on the same seeded stream, and on the SDX-shaped
// fixture's stream too (the only one that exercises dst-MAC dispatch).
// Timing is interleaved best-of pass pairs: noise only ever adds time,
// so the per-mode minima are the honest floor. The ratio lands in the
// metrics snapshot as gauge `fastpath.speedup_ratio`, where the `sdxmon
// diff` band (BenchDiffOptions::min_fastpath_speedup) flags it across
// PRs; the gate also fails THIS run (nonzero exit) when the floor is
// missed.
constexpr double kFastPathSpeedupFloor = 10.0;

// The equivalence pre-check: the two switches (linear and compiled
// backend, same rules) must agree on `packets` — emissions compared in
// order (batch is defined to preserve packet order), drops per reason.
bool BackendsAgree(const char* fixture, dataplane::SwitchDataPlane& linear,
                   dataplane::SwitchDataPlane& compiled,
                   std::span<const net::Packet> packets) {
  std::vector<dataplane::Emission> expected;
  for (const net::Packet& packet : packets) {
    for (auto& e : linear.Process(packet)) expected.push_back(std::move(e));
  }
  const auto got = compiled.ProcessBatch(packets);
  if (got.size() != expected.size()) {
    std::fprintf(stderr,
                 "FAIL: %s equivalence: %zu emissions compiled vs %zu "
                 "linear\n",
                 fixture, got.size(), expected.size());
    return false;
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].out_port != expected[i].out_port ||
        !(got[i].packet.header == expected[i].packet.header)) {
      std::fprintf(stderr,
                   "FAIL: %s equivalence: emission %zu differs (port %u vs "
                   "%u)\n",
                   fixture, i, got[i].out_port, expected[i].out_port);
      return false;
    }
  }
  for (const obs::DropReason reason : obs::kAllDropReasons) {
    if (compiled.drops().count(reason) != linear.drops().count(reason)) {
      std::fprintf(
          stderr,
          "FAIL: %s equivalence: drop reason %s: %llu compiled vs %llu "
          "linear\n",
          fixture, obs::DropReasonName(reason),
          static_cast<unsigned long long>(compiled.drops().count(reason)),
          static_cast<unsigned long long>(linear.drops().count(reason)));
      return false;
    }
  }
  return true;
}

int RunFastPathGate(obs::MetricsRegistry& metrics) {
  constexpr std::size_t kPackets = 1 << 14;
  constexpr std::size_t kChunk = 256;
  constexpr int kPairs = 8;
  constexpr int kWarmupPairs = 2;
  const auto packets =
      MakeFastPathWorkload(kPackets, workload::DeriveSeed(42, 7));

  dataplane::SwitchDataPlane linear;
  LoadFastPathSwitch(linear, dataplane::FlowTable::Backend::kLinear);
  dataplane::SwitchDataPlane compiled;
  LoadFastPathSwitch(compiled, dataplane::FlowTable::Backend::kCompiled);

  // Equivalence first, on this fixture and on the SDX-shaped one: a fast
  // wrong answer is worthless.
  if (!BackendsAgree("fast-path", linear, compiled, packets)) return 1;
  {
    dataplane::SwitchDataPlane sdx_linear;
    LoadSdxShapeSwitch(sdx_linear, dataplane::FlowTable::Backend::kLinear);
    dataplane::SwitchDataPlane sdx_compiled;
    LoadSdxShapeSwitch(sdx_compiled, dataplane::FlowTable::Backend::kCompiled);
    const auto sdx_packets =
        MakeSdxShapeWorkload(1 << 12, workload::DeriveSeed(42, 10));
    if (!BackendsAgree("sdx-shape", sdx_linear, sdx_compiled, sdx_packets)) {
      return 1;
    }
    std::printf(
        "fastpath: sdx-shape fixture agrees on %zu packets (%zu rules in %zu "
        "tuples)\n",
        sdx_packets.size(), sdx_compiled.table().size(),
        sdx_compiled.table().CompiledTupleCount());
  }

  // Interleaved timing. Linear runs the per-packet path (its production
  // shape); compiled runs the batched fast path in ring-buffer chunks.
  const auto linear_pass = [&]() {
    const auto start = obs::Now();
    for (const net::Packet& packet : packets) {
      auto emissions = linear.Process(packet);
      benchmark::DoNotOptimize(emissions);
    }
    return obs::SecondsSince(start);
  };
  const auto compiled_pass = [&]() {
    const std::span<const net::Packet> all(packets);
    const auto start = obs::Now();
    for (std::size_t offset = 0; offset < all.size(); offset += kChunk) {
      auto emissions =
          compiled.ProcessBatch(all.subspan(offset, std::min(kChunk, all.size() - offset)));
      benchmark::DoNotOptimize(emissions);
    }
    return obs::SecondsSince(start);
  };

  double linear_seconds = std::numeric_limits<double>::infinity();
  double compiled_seconds = std::numeric_limits<double>::infinity();
  for (int pair = 0; pair < kPairs; ++pair) {
    const double lin = linear_pass();
    const double comp = compiled_pass();
    if (pair < kWarmupPairs) continue;
    linear_seconds = std::min(linear_seconds, lin);
    compiled_seconds = std::min(compiled_seconds, comp);
  }
  const double speedup = linear_seconds / compiled_seconds;
  const double linear_mpps =
      static_cast<double>(kPackets) / linear_seconds / 1e6;
  const double compiled_mpps =
      static_cast<double>(kPackets) / compiled_seconds / 1e6;
  metrics.GetGauge("fastpath.speedup_ratio").Set(speedup);
  metrics.GetGauge("fastpath.linear_mpps").Set(linear_mpps);
  metrics.GetGauge("fastpath.compiled_mpps").Set(compiled_mpps);
  metrics.GetGauge("fastpath.rules")
      .Set(static_cast<double>(compiled.table().size()));
  metrics.GetGauge("fastpath.tuples")
      .Set(static_cast<double>(compiled.table().CompiledTupleCount()));

  std::printf(
      "fastpath: linear=%.3f Mpps compiled=%.3f Mpps speedup=%.1fx "
      "(floor %.0fx) over %zu rules in %zu tuples\n",
      linear_mpps, compiled_mpps, speedup, kFastPathSpeedupFloor,
      compiled.table().size(), compiled.table().CompiledTupleCount());
  if (speedup < kFastPathSpeedupFloor) {
    std::fprintf(stderr,
                 "FAIL: fastpath speedup %.2fx below floor %.0fx\n",
                 speedup, kFastPathSpeedupFloor);
    return 1;
  }
  return 0;
}

// The convergence tracker's budget, mirroring the telemetry gate: per-
// update convergence accounting (ingest stamping, journal tail sync,
// per-batch histogram writes — DESIGN.md §12) may cost at most 5% on the
// ingest+batch path. Measured as interleaved tracking-off/on pass pairs
// over identical flap bursts through EnqueueUpdate/Flush on one runtime,
// best pass per mode (noise only ever adds time). One burst's Flush lasts
// ~0.17 ms on a 4-core host, so each pass times kBurstsPerPass of them: at
// one burst per pass the verdict flipped between runs, at 32 the ratio
// still spread 1.02–1.05, at 64 it reads 1.01–1.035.
// Every pass starts from the same state: a FullCompile retires the fast-
// path bands earlier passes installed (as the §4.3.2 background recompile
// does), so the later mode of a pair does not pay for a larger table,
// then an unmeasured warm-up burst syncs the tracker cursor past the ring,
// so the measured bursts pay its steady-state incremental journal scan,
// not the one-time catch-up. The ratio lands in the snapshot as gauge
// `convergence.overhead_ratio`, banded across PRs by
// BenchDiffOptions::max_convergence_overhead; the gate also fails THIS
// run when the budget is blown.
constexpr double kConvergenceOverheadBudget = 1.05;

int RunConvergenceOverheadGate(obs::MetricsRegistry& metrics) {
  constexpr int kPairs = 12;
  constexpr int kWarmupPairs = 3;
  constexpr std::size_t kDistinct = 8;
  constexpr std::size_t kBurst = 64;
  constexpr int kBurstsPerPass = 64;

  auto built = bench::MakeScenario(/*participants=*/20, /*prefixes=*/500,
                                   /*seed=*/4242, /*policy_scale=*/1.0,
                                   /*coverage_fanout=*/10);
  core::SdxRuntime runtime;
  bench::BuildAndCompile(runtime, built);

  struct Key {
    bgp::AsNumber as;
    net::IPv4Prefix prefix;
  };
  std::vector<Key> keys;
  for (const auto& member : built.scenario.members) {
    if (member.announced.empty()) continue;
    keys.push_back({member.as, member.announced.front()});
    if (keys.size() == kDistinct) break;
  }

  // One flap burst: kDistinct prefixes re-announced with escalating
  // local-pref (every update changes the best path; the queue coalesces
  // kBurst -> kDistinct survivors), then one Flush through the batch
  // pipeline. Identical work per pass, tracking on or off.
  std::uint32_t escalation = 1000;
  const auto run_burst = [&]() {
    std::size_t sent = 0;
    while (sent < kBurst) {
      const std::uint32_t pref = escalation++;
      for (const Key& key : keys) {
        if (sent == kBurst) break;
        bgp::Announcement a;
        a.from_as = key.as;
        a.route.prefix = key.prefix;
        a.route.as_path = {key.as};
        a.route.local_pref = pref;
        a.route.next_hop = runtime.RouterIp(key.as);
        runtime.EnqueueUpdate(bgp::BgpUpdate{a});
        ++sent;
      }
    }
    runtime.Flush();
  };
  const auto pass_seconds = [&]() {
    runtime.FullCompile();  // unmeasured: retires earlier passes' bands
    run_burst();            // unmeasured: syncs the tracker cursor
    const auto start = obs::Now();
    for (int burst = 0; burst < kBurstsPerPass; ++burst) run_burst();
    return obs::SecondsSince(start);
  };

  double off_seconds = std::numeric_limits<double>::infinity();
  double on_seconds = std::numeric_limits<double>::infinity();
  std::uint64_t accounted = 0;
  for (int pair = 0; pair < kPairs; ++pair) {
    const double off = pass_seconds();
    obs::TelemetryOptions telemetry = runtime.telemetry_options();
    telemetry.convergence.enabled = true;
    runtime.ConfigureTelemetry(telemetry);
    const double on = pass_seconds();
    accounted = runtime.convergence()->tracked() +
                runtime.convergence()->coalesced_attributed();
    telemetry.convergence.enabled = false;
    runtime.ConfigureTelemetry(telemetry);
    if (pair < kWarmupPairs) continue;
    off_seconds = std::min(off_seconds, off);
    on_seconds = std::min(on_seconds, on);
  }
  const double ratio = on_seconds / off_seconds;
  metrics.GetGauge("convergence.overhead_ratio").Set(ratio);
  metrics.GetGauge("convergence.off_seconds").Set(off_seconds);
  metrics.GetGauge("convergence.on_seconds").Set(on_seconds);
  metrics.GetGauge("convergence.overhead_ns")
      .Set((on_seconds - off_seconds) /
           static_cast<double>(kBurst * kBurstsPerPass) * 1e9);

  std::printf(
      "convergence overhead: off=%.6fs on=%.6fs ratio=%.4f (budget %.2f); "
      "%llu update(s) accounted per tracked pass\n",
      off_seconds, on_seconds, ratio, kConvergenceOverheadBudget,
      static_cast<unsigned long long>(accounted));
  // A vacuous measurement would pass any budget: the final tracked pass
  // must have accounted for the warm-up plus every measured burst.
  const std::size_t expected = (kBurstsPerPass + 1) * kBurst;
  if (accounted < expected) {
    std::fprintf(stderr,
                 "FAIL: convergence gate accounted %llu update(s), expected "
                 ">= %zu — tracker not observing the bursts\n",
                 static_cast<unsigned long long>(accounted), expected);
    return 1;
  }
  if (ratio > kConvergenceOverheadBudget) {
    std::fprintf(stderr,
                 "FAIL: convergence overhead ratio %.4f exceeds budget %.2f\n",
                 ratio, kConvergenceOverheadBudget);
    return 1;
  }
  return 0;
}

// Console reporter that also tees each benchmark's per-iteration real time
// into a latency histogram (one observation per run), so microbench
// timings land in BENCH_microbench_core.metrics.json and the `sdxmon diff`
// percentile-ratio thresholds apply to them across PRs.
class MetricsReporter : public benchmark::ConsoleReporter {
 public:
  explicit MetricsReporter(obs::MetricsRegistry* metrics)
      : metrics_(metrics) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      if (run.iterations == 0) continue;
      std::string name = "microbench." + run.benchmark_name() + ".seconds";
      for (char& c : name) {
        if (c == '/') c = '.';
      }
      metrics_->GetHistogram(name).Observe(run.real_accumulated_time /
                                           static_cast<double>(run.iterations));
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  obs::MetricsRegistry* metrics_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  obs::MetricsRegistry metrics;
  MetricsReporter reporter(&metrics);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  int gate = RunTelemetryOverheadGate(metrics);
  gate |= RunFastPathGate(metrics);
  gate |= RunConvergenceOverheadGate(metrics);
  bench::WriteMetricsSnapshot(metrics.Snapshot(), "microbench_core");
  return gate;
}

// The scenario-configuration DSL (config/loader.h).
#include <gtest/gtest.h>

#include <random>

#include "config/loader.h"

namespace sdx::config {
namespace {

net::IPv4Prefix Pfx(const char* text) {
  return *net::IPv4Prefix::Parse(text);
}

constexpr char kFigure1[] = R"(
# Figure 1 in config form
participant 100 ports=1
participant 200 ports=2
participant 300 ports=1

announce 200 10.1.0.0/16 path=200,900
announce 200 10.2.0.0/16 path=200,900
announce 200 10.3.0.0/16 path=200,900
announce 200 10.4.0.0/16 path=200,900
announce 300 10.1.0.0/16 path=300
announce 300 10.2.0.0/16 path=300
announce 300 10.3.0.0/16 path=300,901,902
announce 300 10.4.0.0/16 path=300
deny-export 200 100 10.4.0.0/16

outbound 100 match=dstport:80 to=200
outbound 100 match=dstport:443 to=300
inbound 200 match=srcip:0.0.0.0/1 port=0
inbound 200 match=srcip:128.0.0.0/1 port=1
compile
)";

net::Packet MakePacket(const char* dst, std::uint16_t dst_port,
                       const char* src = "10.99.0.1") {
  net::Packet packet;
  packet.header.src_ip = *net::IPv4Address::Parse(src);
  packet.header.dst_ip = *net::IPv4Address::Parse(dst);
  packet.header.proto = net::kProtoTcp;
  packet.header.dst_port = dst_port;
  packet.size_bytes = 100;
  return packet;
}

TEST(ScenarioLoader, LoadsFigure1AndForwards) {
  core::SdxRuntime runtime;
  ScenarioLoader loader(runtime);
  std::string error;
  ASSERT_TRUE(loader.LoadString(kFigure1, &error)) << error;
  EXPECT_TRUE(loader.compiled());

  // Web traffic diverted to B (port by inbound TE), HTTPS to C, SSH default.
  auto emissions = runtime.InjectFromParticipant(
      100, MakePacket("10.1.2.3", 80));
  ASSERT_EQ(emissions.size(), 1u);
  EXPECT_EQ(emissions[0].out_port,
            runtime.topology().PhysicalPortOf(200, 0).id);

  emissions = runtime.InjectFromParticipant(
      100, MakePacket("10.1.2.3", 80, "200.1.1.1"));
  ASSERT_EQ(emissions.size(), 1u);
  EXPECT_EQ(emissions[0].out_port,
            runtime.topology().PhysicalPortOf(200, 1).id);

  emissions = runtime.InjectFromParticipant(100, MakePacket("10.1.2.3", 443));
  ASSERT_EQ(emissions.size(), 1u);
  EXPECT_EQ(emissions[0].out_port,
            runtime.topology().PhysicalPortOf(300, 0).id);

  // p4 not exported by B to A: web traffic falls back to the default via C.
  emissions = runtime.InjectFromParticipant(100, MakePacket("10.4.2.3", 80));
  ASSERT_EQ(emissions.size(), 1u);
  EXPECT_EQ(emissions[0].out_port,
            runtime.topology().PhysicalPortOf(300, 0).id);
}

TEST(ScenarioLoader, PostCompileUpdatesUseFastPath) {
  core::SdxRuntime runtime;
  ScenarioLoader loader(runtime);
  std::string error;
  ASSERT_TRUE(loader.LoadString(kFigure1, &error)) << error;
  ASSERT_TRUE(loader.ProcessLine("withdraw 300 10.1.0.0/16", &error))
      << error;
  EXPECT_EQ(runtime.fast_path_groups(), 1u);
  auto emissions = runtime.InjectFromParticipant(100, MakePacket("10.1.2.3", 22));
  ASSERT_EQ(emissions.size(), 1u);
  EXPECT_EQ(emissions[0].out_port,
            runtime.topology().PhysicalPortOf(200, 0).id);
}

TEST(ScenarioLoader, AnnouncementOptions) {
  core::SdxRuntime runtime;
  ScenarioLoader loader(runtime);
  std::string error;
  ASSERT_TRUE(loader.LoadString(R"(
participant 100 ports=1
participant 200 ports=1
announce 200 10.0.0.0/8 path=200,900 lp=150 med=7 communities=0:100
)",
                                &error))
      << error;
  // The 0:100 community hides the route from AS 100.
  EXPECT_EQ(runtime.route_server().BestRoute(100, Pfx("10.0.0.0/8")),
            nullptr);
  // But the route exists with its attributes (visible to no one else here).
  runtime.AddParticipant(300, 1);
  runtime.AnnouncePrefix(300, Pfx("20.0.0.0/8"));
  const auto* best = runtime.route_server().GlobalBest(Pfx("10.0.0.0/8"));
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->local_pref, 150u);
  EXPECT_EQ(best->med, 7u);
}

TEST(ScenarioLoader, RemoteParticipantWithOrigination) {
  core::SdxRuntime runtime;
  ScenarioLoader loader(runtime);
  std::string error;
  ASSERT_TRUE(loader.LoadString(R"(
participant 100 ports=1
participant 200 ports=2
participant 400 ports=0
own 400 74.125.1.0/24
originate 400 74.125.1.0/24 74.125.1.1
inbound 400 match=dstip:74.125.1.1/32 rewrite=dstip:74.125.224.161 port=0 via=200
compile
)",
                                &error))
      << error;
  auto emissions = runtime.InjectFromParticipant(
      100, MakePacket("74.125.1.1", 80));
  ASSERT_EQ(emissions.size(), 1u);
  EXPECT_EQ(emissions[0].packet.header.dst_ip,
            *net::IPv4Address::Parse("74.125.224.161"));
}

TEST(ScenarioLoader, ChainSyntax) {
  core::SdxRuntime runtime;
  ScenarioLoader loader(runtime);
  std::string error;
  ASSERT_TRUE(loader.LoadString(R"(
participant 100 ports=1
participant 200 ports=3
announce 200 203.0.113.0/24
inbound 200 match=dstport:80 chain=200:1,200:2 port=0
compile
)",
                                &error))
      << error;
  auto emissions = runtime.InjectFromParticipant(
      100, MakePacket("203.0.113.5", 80));
  ASSERT_EQ(emissions.size(), 1u);
  EXPECT_EQ(emissions[0].out_port,
            runtime.topology().PhysicalPortOf(200, 1).id);
}

TEST(ScenarioLoader, CommentsAndBlankLines) {
  core::SdxRuntime runtime;
  ScenarioLoader loader(runtime);
  std::string error;
  EXPECT_TRUE(loader.LoadString("\n  # nothing but comments\n\n", &error));
  EXPECT_EQ(loader.directives_processed(), 0u);
}

struct BadInput {
  const char* name;
  const char* text;
};

class ScenarioLoaderErrors : public ::testing::TestWithParam<BadInput> {};

TEST_P(ScenarioLoaderErrors, RejectedWithLineNumber) {
  core::SdxRuntime runtime;
  runtime.AddParticipant(100, 1);
  runtime.AddParticipant(200, 1);
  ScenarioLoader loader(runtime);
  std::string error;
  EXPECT_FALSE(loader.LoadString(GetParam().text, &error));
  EXPECT_NE(error.find("line"), std::string::npos) << error;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ScenarioLoaderErrors,
    ::testing::Values(
        BadInput{"unknown_directive", "frobnicate 1 2 3\n"},
        BadInput{"non_numeric_as_number", "participant abc\n"},
        BadInput{"rewrite_octet_too_big",
                 "inbound 100 rewrite=dstip:999.1.1.1\n"},
        BadInput{"noncanonical_prefix", "announce 100 10.1.2.3/8\n"},
        BadInput{"outbound_without_target", "outbound 100 match=dstport:80\n"},
        BadInput{"bad_match_field", "outbound 100 match=color:red to=200\n"},
        BadInput{"bad_match_value", "outbound 100 match=dstport:xx to=200\n"},
        BadInput{"prefix_length_over_32", "announce 100 10.0.0.0/99\n"},
        BadInput{"chain_hop_not_as_port", "inbound 100 chain=foo\n"},
        BadInput{"unknown_participant_policy",
                 "outbound 999 match=dstport:80 to=200\n"},
        BadInput{"duplicate_participant", "participant 100 ports=1\n"},
        BadInput{"unregistered_origination",
                 "originate 100 10.0.0.0/8 10.0.0.1\n"},
        BadInput{"announce_unknown_as", "announce 999 10.0.0.0/8\n"}),
    [](const ::testing::TestParamInfo<BadInput>& info) {
      return info.param.name;
    });

// Robustness: random garbage must be rejected cleanly (error, no crash,
// no state corruption — the runtime keeps compiling and forwarding).
TEST(ScenarioLoaderFuzz, GarbageNeverCrashes) {
  std::mt19937 rng(20240705);
  const char alphabet[] =
      "abcdefghijklmnopqrstuvwxyz0123456789 .:,=/#-\t";
  core::SdxRuntime runtime;
  ScenarioLoader loader(runtime);
  std::string error;
  ASSERT_TRUE(loader.LoadString(
      "participant 100 ports=1\nparticipant 200 ports=1\n"
      "announce 200 10.0.0.0/8\ncompile\n",
      &error))
      << error;

  const char* directives[] = {"participant", "announce",  "withdraw",
                              "deny-export", "outbound",  "inbound",
                              "own",         "originate", "compile"};
  for (int trial = 0; trial < 3000; ++trial) {
    std::string line;
    if (rng() % 2) line += std::string(directives[rng() % 9]) + " ";
    const std::size_t length = rng() % 40;
    for (std::size_t i = 0; i < length; ++i) {
      line += alphabet[rng() % (sizeof(alphabet) - 1)];
    }
    std::string message;
    loader.ProcessLine(line, &message);  // must not throw or crash
  }

  // The runtime still works after the abuse.
  runtime.FullCompile();
  net::Packet packet;
  packet.header.dst_ip = net::IPv4Address(10, 1, 2, 3);
  packet.header.proto = net::kProtoTcp;
  packet.header.dst_port = 80;
  packet.size_bytes = 64;
  EXPECT_EQ(runtime.InjectFromParticipant(100, packet).size(), 1u);
}

}  // namespace
}  // namespace sdx::config

#include "dataplane/flow_table.h"

#include <gtest/gtest.h>

namespace sdx::dataplane {
namespace {

using net::FieldMatch;
using net::PacketHeader;

FlowRule MakeRule(std::int32_t priority, FieldMatch match, net::PortId out,
                  Cookie cookie = kNoCookie) {
  FlowRule rule;
  rule.priority = priority;
  rule.match = std::move(match);
  rule.actions = {Action{{}, out}};
  rule.cookie = cookie;
  return rule;
}

PacketHeader PortPacket(std::uint16_t dst_port) {
  PacketHeader h;
  h.in_port = 1;
  h.dst_port = dst_port;
  return h;
}

TEST(FlowTable, HigherPriorityWins) {
  FlowTable table;
  table.Install(MakeRule(10, FieldMatch(), 1));
  table.Install(MakeRule(20, FieldMatch::DstPort(80), 2));

  const FlowRule* hit = table.Lookup(PortPacket(80));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->actions[0].out_port, 2u);

  hit = table.Lookup(PortPacket(443));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->actions[0].out_port, 1u);
}

TEST(FlowTable, StableOrderForEqualPriorities) {
  FlowTable table;
  table.Install(MakeRule(10, FieldMatch::DstPort(80), 1));
  table.Install(MakeRule(10, FieldMatch::DstPort(80), 2));
  const FlowRule* hit = table.Lookup(PortPacket(80));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->actions[0].out_port, 1u);  // first installed wins
}

TEST(FlowTable, InstallAllSortsByPriority) {
  FlowTable table;
  std::vector<FlowRule> rules;
  rules.push_back(MakeRule(5, FieldMatch(), 1));
  rules.push_back(MakeRule(50, FieldMatch::DstPort(80), 2));
  rules.push_back(MakeRule(25, FieldMatch::DstPort(443), 3));
  table.InstallAll(std::move(rules));
  ASSERT_EQ(table.size(), 3u);
  // Storage is ascending precedence: the winning rule is last.
  EXPECT_EQ(table.rules()[0].priority, 5);
  EXPECT_EQ(table.rules()[1].priority, 25);
  EXPECT_EQ(table.rules()[2].priority, 50);
}

TEST(FlowTable, InstallAllMergesWithExisting) {
  FlowTable table;
  table.Install(MakeRule(30, FieldMatch::DstPort(22), 9));
  std::vector<FlowRule> batch;
  batch.push_back(MakeRule(40, FieldMatch::DstPort(80), 2));
  batch.push_back(MakeRule(10, FieldMatch(), 1));
  table.InstallAll(std::move(batch));
  ASSERT_EQ(table.size(), 3u);
  EXPECT_EQ(table.rules()[0].priority, 10);
  EXPECT_EQ(table.rules()[1].priority, 30);
  EXPECT_EQ(table.rules()[2].priority, 40);
}

TEST(FlowTable, RemoveByCookie) {
  FlowTable table;
  table.Install(MakeRule(10, FieldMatch(), 1, /*cookie=*/7));
  table.Install(MakeRule(20, FieldMatch::DstPort(80), 2, /*cookie=*/7));
  table.Install(MakeRule(30, FieldMatch::DstPort(443), 3, /*cookie=*/8));
  EXPECT_EQ(table.RemoveByCookie(7), 2u);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.rules()[0].cookie, Cookie{8});
  EXPECT_EQ(table.RemoveByCookie(7), 0u);
}

TEST(FlowTable, ProcessCountsPacketsAndBytes) {
  FlowTable table;
  table.Install(MakeRule(10, FieldMatch::DstPort(80), 2));
  net::Packet packet{PortPacket(80), 1500};
  auto actions = table.Process(packet);
  ASSERT_TRUE(actions);
  ASSERT_EQ(actions->size(), 1u);
  EXPECT_EQ(table.rules()[0].packet_count, 1u);
  EXPECT_EQ(table.rules()[0].byte_count, 1500u);
}

TEST(FlowTable, ProcessMissCounts) {
  FlowTable table;
  table.Install(MakeRule(10, FieldMatch::DstPort(80), 2));
  net::Packet packet{PortPacket(443), 100};
  EXPECT_FALSE(table.Process(packet));
  EXPECT_EQ(table.miss_count(), 1u);
}

TEST(FlowTable, ExplicitDropRuleIsNotAMiss) {
  FlowTable table;
  FlowRule drop;
  drop.priority = 1;
  table.Install(drop);
  net::Packet packet{PortPacket(443), 100};
  auto actions = table.Process(packet);
  ASSERT_TRUE(actions);
  EXPECT_TRUE(actions->empty());
  EXPECT_EQ(table.miss_count(), 0u);
}

TEST(FlowTable, ClearEmptiesTable) {
  FlowTable table;
  table.Install(MakeRule(10, FieldMatch(), 1));
  table.Clear();
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.Lookup(PortPacket(80)), nullptr);
}

}  // namespace
}  // namespace sdx::dataplane

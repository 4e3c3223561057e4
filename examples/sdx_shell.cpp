// sdx_shell — an operator console for the SDX controller.
//
// Usage:  sdx_shell [scenario.conf]
//
// Loads an optional scenario file (see src/config/loader.h for the DSL),
// then reads commands from stdin. All scenario directives work
// interactively too; additional commands:
//
//   send <as> dst=<ip> [src=<ip>] [dstport=<n>] [srcport=<n>] [proto=tcp|udp]
//   table [n]        show the first n flow rules (default 20)
//   groups           show the prefix-group table
//   stats            compile + traffic statistics
//   help             this text
//   quit
//
// Example session:
//   $ ./build/examples/sdx_shell
//   sdx> participant 100 ports=1
//   sdx> participant 200 ports=1
//   sdx> announce 200 10.0.0.0/8
//   sdx> outbound 100 match=dstport:80 to=200
//   sdx> compile
//   sdx> send 100 dst=10.1.2.3 dstport=80
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "config/loader.h"
#include "sdx/runtime.h"

using namespace sdx;

namespace {

std::optional<std::string_view> KeyValue(const std::string& line,
                                         std::string_view key,
                                         std::string& storage) {
  std::istringstream stream(line);
  std::string token;
  while (stream >> token) {
    if (token.size() > key.size() + 1 &&
        std::string_view(token).substr(0, key.size()) == key &&
        token[key.size()] == '=') {
      storage = token.substr(key.size() + 1);
      return storage;
    }
  }
  return std::nullopt;
}

void CmdSend(core::SdxRuntime& sdx, const std::string& line) {
  std::istringstream stream(line);
  std::string command;
  bgp::AsNumber from = 0;
  stream >> command >> from;
  std::string storage;
  net::Packet packet;
  packet.size_bytes = 1000;
  packet.header.proto = net::kProtoTcp;
  if (auto v = KeyValue(line, "dst", storage)) {
    auto ip = net::IPv4Address::Parse(*v);
    if (!ip) {
      std::printf("bad dst=\n");
      return;
    }
    packet.header.dst_ip = *ip;
  } else {
    std::printf("send needs dst=<ip>\n");
    return;
  }
  if (auto v = KeyValue(line, "src", storage)) {
    if (auto ip = net::IPv4Address::Parse(*v)) packet.header.src_ip = *ip;
  }
  if (auto v = KeyValue(line, "dstport", storage)) {
    packet.header.dst_port = static_cast<std::uint16_t>(std::stoi(std::string(*v)));
  }
  if (auto v = KeyValue(line, "srcport", storage)) {
    packet.header.src_port = static_cast<std::uint16_t>(std::stoi(std::string(*v)));
  }
  if (auto v = KeyValue(line, "proto", storage)) {
    packet.header.proto = (*v == "udp") ? net::kProtoUdp : net::kProtoTcp;
  }

  auto emissions = sdx.InjectFromParticipant(from, packet);
  if (emissions.empty()) {
    std::printf("dropped\n");
    return;
  }
  for (const auto& emission : emissions) {
    const auto* port = sdx.topology().FindPhysicalPort(emission.out_port);
    std::printf("-> AS%u port %d (%s), delivered header %s\n",
                port ? port->owner : 0, port ? port->index : -1,
                port ? port->mac.ToString().c_str() : "?",
                emission.packet.header.ToString().c_str());
  }
}

void CmdTable(core::SdxRuntime& sdx, const std::string& line) {
  std::istringstream stream(line);
  std::string command;
  std::size_t limit = 20;
  stream >> command >> limit;
  const auto& rules = sdx.data_plane().table().rules();
  std::printf("%zu rules installed\n", rules.size());
  // Storage is ascending precedence; print the highest-precedence first.
  for (auto it = rules.rbegin(); it != rules.rend() && limit > 0;
       ++it, --limit) {
    std::printf("  %s  (hits %llu)\n", it->ToString().c_str(),
                static_cast<unsigned long long>(it->packet_count));
  }
}

void CmdGroups(core::SdxRuntime& sdx) {
  const auto& groups = sdx.groups();
  std::printf("%zu prefix groups (+%zu fast-path singletons)\n",
              groups.groups.size(), sdx.fast_path_groups());
  for (const auto& group : groups.groups) {
    std::printf("  group %u: vnh %s vmac %s best AS%u, %zu prefixes\n",
                group.id, group.binding.vnh.ToString().c_str(),
                group.binding.vmac.ToString().c_str(), group.best_hop,
                group.prefixes.size());
  }
}

void CmdStats(core::SdxRuntime& sdx) {
  std::printf("participants: %zu   flow rules: %zu   prefix groups: %zu\n",
              sdx.participants().size(), sdx.data_plane().table().size(),
              sdx.groups().groups.size());
  for (const auto& [as, traffic] : sdx.TrafficByParticipant()) {
    if (traffic.sent_packets == 0 && traffic.received_packets == 0) continue;
    std::printf("  AS%-8u sent %llu pkts / %llu B   received %llu pkts / "
                "%llu B\n",
                as, static_cast<unsigned long long>(traffic.sent_packets),
                static_cast<unsigned long long>(traffic.sent_bytes),
                static_cast<unsigned long long>(traffic.received_packets),
                static_cast<unsigned long long>(traffic.received_bytes));
  }
}

}  // namespace

int main(int argc, char** argv) {
  core::SdxRuntime sdx;
  config::ScenarioLoader loader(sdx);

  if (argc > 1) {
    std::ifstream file(argv[1]);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::string error;
    if (!loader.LoadStream(file, &error)) {
      std::fprintf(stderr, "%s: %s\n", argv[1], error.c_str());
      return 1;
    }
    std::printf("loaded %s (%zu directives)\n", argv[1],
                loader.directives_processed());
  }

  const bool interactive = isatty(0);
  std::string line;
  while (true) {
    if (interactive) {
      std::printf("sdx> ");
      std::fflush(stdout);
    }
    if (!std::getline(std::cin, line)) break;
    std::istringstream stream(line);
    std::string command;
    stream >> command;
    if (command.empty()) continue;
    if (command == "quit" || command == "exit") break;
    if (command == "help") {
      std::printf("scenario directives (participant/announce/outbound/...)\n"
                  "plus: send <as> dst=<ip> [dstport=..] | table [n] | "
                  "groups | stats | quit\n");
    } else if (command == "send") {
      CmdSend(sdx, line);
    } else if (command == "table") {
      CmdTable(sdx, line);
    } else if (command == "groups") {
      CmdGroups(sdx);
    } else if (command == "stats") {
      CmdStats(sdx);
    } else {
      std::string error;
      if (!loader.ProcessLine(line, &error)) {
        std::printf("error: %s\n", error.c_str());
      } else if (interactive) {
        std::printf("ok\n");
      }
    }
  }
  return 0;
}

#include "config/loader.h"

#include <charconv>
#include <sstream>
#include <vector>

#include "bgp/communities.h"

namespace sdx::config {
namespace {

using policy::Predicate;

// --- Tokenizing helpers ---------------------------------------------------

std::vector<std::string_view> SplitWhitespace(std::string_view line) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && std::isspace(static_cast<unsigned char>(
                                  line[i]))) {
      ++i;
    }
    std::size_t start = i;
    while (i < line.size() && !std::isspace(static_cast<unsigned char>(
                                   line[i]))) {
      ++i;
    }
    if (i > start) out.push_back(line.substr(start, i - start));
  }
  return out;
}

std::vector<std::string_view> SplitOn(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(text.substr(start));
      return out;
    }
    out.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

// "key=value" -> value for a given key; nullopt when absent.
std::optional<std::string_view> KeyValue(
    const std::vector<std::string_view>& tokens, std::string_view key) {
  for (std::string_view token : tokens) {
    if (token.size() > key.size() + 1 && token.substr(0, key.size()) == key &&
        token[key.size()] == '=') {
      return token.substr(key.size() + 1);
    }
  }
  return std::nullopt;
}

template <typename T>
bool ParseNumber(std::string_view text, T& out) {
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(),
                                   out);
  return ec == std::errc() && ptr == text.data() + text.size();
}

bool ParseProto(std::string_view text, std::uint8_t& out) {
  if (text == "tcp") {
    out = net::kProtoTcp;
    return true;
  }
  if (text == "udp") {
    out = net::kProtoUdp;
    return true;
  }
  unsigned value = 0;
  if (!ParseNumber(text, value) || value > 255) return false;
  out = static_cast<std::uint8_t>(value);
  return true;
}

// Builds a conjunctive predicate from "field:value,field:value".
bool ParseMatch(std::string_view spec, Predicate& out, std::string& error) {
  out = Predicate::True();
  for (std::string_view term : SplitOn(spec, ',')) {
    auto colon = term.find(':');
    if (colon == std::string_view::npos) {
      error = "match term '" + std::string(term) + "' needs field:value";
      return false;
    }
    std::string_view field = term.substr(0, colon);
    std::string_view value = term.substr(colon + 1);
    if (field == "srcip" || field == "dstip") {
      auto prefix = net::IPv4Prefix::Parse(value);
      if (!prefix) {
        error = "bad prefix '" + std::string(value) + "'";
        return false;
      }
      out = out && (field == "srcip" ? Predicate::SrcIp(*prefix)
                                     : Predicate::DstIp(*prefix));
    } else if (field == "srcport" || field == "dstport") {
      std::uint16_t port = 0;
      if (!ParseNumber(value, port)) {
        error = "bad port '" + std::string(value) + "'";
        return false;
      }
      out = out && (field == "srcport" ? Predicate::SrcPort(port)
                                       : Predicate::DstPort(port));
    } else if (field == "proto") {
      std::uint8_t proto = 0;
      if (!ParseProto(value, proto)) {
        error = "bad proto '" + std::string(value) + "'";
        return false;
      }
      out = out && Predicate::Proto(proto);
    } else {
      error = "unknown match field '" + std::string(field) + "'";
      return false;
    }
  }
  return true;
}

bool ParseRewrites(std::string_view spec, dataplane::Rewrites& out,
                   std::string& error) {
  for (std::string_view term : SplitOn(spec, ',')) {
    auto colon = term.find(':');
    if (colon == std::string_view::npos) {
      error = "rewrite term '" + std::string(term) + "' needs field:value";
      return false;
    }
    std::string_view field = term.substr(0, colon);
    std::string_view value = term.substr(colon + 1);
    if (field == "srcip" || field == "dstip") {
      auto address = net::IPv4Address::Parse(value);
      if (!address) {
        error = "bad address '" + std::string(value) + "'";
        return false;
      }
      if (field == "srcip") {
        out.SetSrcIp(*address);
      } else {
        out.SetDstIp(*address);
      }
    } else if (field == "srcport" || field == "dstport") {
      std::uint16_t port = 0;
      if (!ParseNumber(value, port)) {
        error = "bad port '" + std::string(value) + "'";
        return false;
      }
      if (field == "srcport") {
        out.SetSrcPort(port);
      } else {
        out.SetDstPort(port);
      }
    } else if (field == "srcmac" || field == "dstmac") {
      auto mac = net::MacAddress::Parse(value);
      if (!mac) {
        error = "bad mac '" + std::string(value) + "'";
        return false;
      }
      if (field == "srcmac") {
        out.SetSrcMac(*mac);
      } else {
        out.SetDstMac(*mac);
      }
    } else {
      error = "unknown rewrite field '" + std::string(field) + "'";
      return false;
    }
  }
  return true;
}

}  // namespace

bool ScenarioLoader::ProcessLine(std::string_view line, std::string* error) {
  auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  // Before the first compile an update only loads the RIB; after it, each
  // one is a batch of one through the fast path.
  auto apply = [&](const bgp::BgpUpdate& update) {
    if (compiled_) {
      runtime_->ApplyUpdates({&update, 1});
    } else {
      runtime_->route_server().HandleUpdate(update);
    }
  };

  // Strip comments.
  auto hash = line.find('#');
  if (hash != std::string_view::npos) line = line.substr(0, hash);
  auto tokens = SplitWhitespace(line);
  if (tokens.empty()) return true;
  const std::string_view directive = tokens[0];
  ++directives_;

  try {
    if (directive == "participant") {
      if (tokens.size() < 2) return fail("participant needs an AS number");
      bgp::AsNumber as = 0;
      if (!ParseNumber(tokens[1], as)) return fail("bad AS number");
      int ports = 1;
      if (auto value = KeyValue(tokens, "ports")) {
        if (!ParseNumber(*value, ports) || ports < 0) {
          return fail("bad ports=");
        }
      }
      runtime_->AddParticipant(as, ports);
      return true;
    }

    if (directive == "announce" || directive == "withdraw") {
      if (tokens.size() < 3) return fail("need: <as> <prefix>");
      bgp::AsNumber as = 0;
      if (!ParseNumber(tokens[1], as)) return fail("bad AS number");
      auto prefix = net::IPv4Prefix::Parse(tokens[2]);
      if (!prefix) return fail("bad prefix");

      if (directive == "withdraw") {
        bgp::Withdrawal withdrawal;
        withdrawal.from_as = as;
        withdrawal.prefix = *prefix;
        apply(bgp::BgpUpdate{withdrawal});
        return true;
      }

      bgp::Announcement announcement;
      announcement.from_as = as;
      announcement.route.prefix = *prefix;
      announcement.route.next_hop = runtime_->RouterIp(as);
      announcement.route.as_path = {as};
      if (auto value = KeyValue(tokens, "path")) {
        announcement.route.as_path.clear();
        for (std::string_view hop : SplitOn(*value, ',')) {
          bgp::AsNumber hop_as = 0;
          if (!ParseNumber(hop, hop_as)) return fail("bad path=");
          announcement.route.as_path.push_back(hop_as);
        }
      }
      if (auto value = KeyValue(tokens, "lp")) {
        if (!ParseNumber(*value, announcement.route.local_pref)) {
          return fail("bad lp=");
        }
      }
      if (auto value = KeyValue(tokens, "med")) {
        if (!ParseNumber(*value, announcement.route.med)) {
          return fail("bad med=");
        }
      }
      if (auto value = KeyValue(tokens, "communities")) {
        for (std::string_view community : SplitOn(*value, ',')) {
          auto colon = community.find(':');
          std::uint16_t high = 0, low = 0;
          if (colon == std::string_view::npos ||
              !ParseNumber(community.substr(0, colon), high) ||
              !ParseNumber(community.substr(colon + 1), low)) {
            return fail("bad communities= (want high:low)");
          }
          announcement.route.communities.push_back(
              bgp::MakeCommunity(high, low));
        }
      }
      apply(bgp::BgpUpdate{announcement});
      return true;
    }

    if (directive == "deny-export") {
      if (tokens.size() != 4) {
        return fail("need: deny-export <announcer> <receiver> <prefix>");
      }
      bgp::AsNumber announcer = 0, receiver = 0;
      auto prefix = net::IPv4Prefix::Parse(tokens[3]);
      if (!ParseNumber(tokens[1], announcer) ||
          !ParseNumber(tokens[2], receiver) || !prefix) {
        return fail("bad deny-export arguments");
      }
      runtime_->route_server().DenyExport(announcer, receiver, *prefix);
      return true;
    }

    if (directive == "own") {
      if (tokens.size() != 3) return fail("need: own <as> <prefix>");
      bgp::AsNumber as = 0;
      auto prefix = net::IPv4Prefix::Parse(tokens[2]);
      if (!ParseNumber(tokens[1], as) || !prefix) return fail("bad own");
      runtime_->route_server().RegisterOwnership(as, *prefix);
      return true;
    }

    if (directive == "originate") {
      if (tokens.size() != 4) {
        return fail("need: originate <as> <prefix> <next-hop>");
      }
      bgp::AsNumber as = 0;
      auto prefix = net::IPv4Prefix::Parse(tokens[2]);
      auto next_hop = net::IPv4Address::Parse(tokens[3]);
      if (!ParseNumber(tokens[1], as) || !prefix || !next_hop) {
        return fail("bad originate arguments");
      }
      if (!runtime_->route_server().Announce(as, *prefix, *next_hop)) {
        return fail("origination rejected (ownership not registered)");
      }
      return true;
    }

    if (directive == "outbound") {
      if (tokens.size() < 2) return fail("outbound needs an AS number");
      bgp::AsNumber as = 0;
      if (!ParseNumber(tokens[1], as)) return fail("bad AS number");
      core::OutboundClause clause;
      auto to = KeyValue(tokens, "to");
      if (!to || !ParseNumber(*to, clause.to)) {
        return fail("outbound needs to=<as>");
      }
      if (auto value = KeyValue(tokens, "match")) {
        std::string message;
        if (!ParseMatch(*value, clause.match, message)) return fail(message);
      }
      if (auto value = KeyValue(tokens, "dst")) {
        for (std::string_view text : SplitOn(*value, ',')) {
          auto prefix = net::IPv4Prefix::Parse(text);
          if (!prefix) return fail("bad dst= prefix");
          clause.dst_prefixes.push_back(*prefix);
        }
      }
      const core::Participant* participant = runtime_->FindParticipant(as);
      if (participant == nullptr) return fail("unknown participant");
      auto clauses = participant->outbound();
      clauses.push_back(std::move(clause));
      runtime_->SetOutboundPolicy(as, std::move(clauses));
      return true;
    }

    if (directive == "inbound") {
      if (tokens.size() < 2) return fail("inbound needs an AS number");
      bgp::AsNumber as = 0;
      if (!ParseNumber(tokens[1], as)) return fail("bad AS number");
      core::InboundClause clause;
      if (auto value = KeyValue(tokens, "match")) {
        std::string message;
        if (!ParseMatch(*value, clause.match, message)) return fail(message);
      }
      if (auto value = KeyValue(tokens, "rewrite")) {
        std::string message;
        if (!ParseRewrites(*value, clause.rewrites, message)) {
          return fail(message);
        }
      }
      if (auto value = KeyValue(tokens, "port")) {
        if (!ParseNumber(*value, clause.port_index)) return fail("bad port=");
      }
      if (auto value = KeyValue(tokens, "via")) {
        bgp::AsNumber via = 0;
        if (!ParseNumber(*value, via)) return fail("bad via=");
        clause.via_participant = via;
      }
      if (auto value = KeyValue(tokens, "chain")) {
        for (std::string_view hop_text : SplitOn(*value, ',')) {
          auto colon = hop_text.find(':');
          core::ChainHop hop;
          if (colon == std::string_view::npos ||
              !ParseNumber(hop_text.substr(0, colon), hop.via) ||
              !ParseNumber(hop_text.substr(colon + 1), hop.port_index)) {
            return fail("bad chain= (want as:port,...)");
          }
          clause.chain.push_back(hop);
        }
      }
      const core::Participant* participant = runtime_->FindParticipant(as);
      if (participant == nullptr) return fail("unknown participant");
      auto clauses = participant->inbound();
      clauses.push_back(std::move(clause));
      runtime_->SetInboundPolicy(as, std::move(clauses));
      return true;
    }

    if (directive == "compile") {
      runtime_->FullCompile();
      compiled_ = true;
      return true;
    }
  } catch (const std::exception& exception) {
    return fail(exception.what());
  }

  return fail("unknown directive '" + std::string(directive) + "'");
}

bool ScenarioLoader::LoadStream(std::istream& in, std::string* error) {
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    std::string message;
    if (!ProcessLine(line, &message)) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_number) + ": " + message;
      }
      return false;
    }
  }
  return true;
}

bool ScenarioLoader::LoadString(std::string_view text, std::string* error) {
  std::istringstream stream{std::string(text)};
  return LoadStream(stream, error);
}

}  // namespace sdx::config

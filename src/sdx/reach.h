// iSDX-style VMAC reachability encoding (the SDX authors' follow-up work).
//
// The legacy encoding (vnh.h) spends the whole VMAC naming one prefix
// group, so the fabric needs one rule per (group, policy clause) — Fig. 7's
// rule counts grow with groups × policies. The encoded mode instead packs
// *meaning* into the VMAC the ARP responder hands each sender:
//
//        47        40 39                24 23                     0
//       +------------+-------------------+------------------------+
//       | 0x0E marker| next-hop roster ix| per-sender clause bits  |
//       +------------+-------------------+------------------------+
//
//   * marker byte 0x0E — disjoint from the legacy VMAC OUI (0x0A) and the
//     physical port-MAC OUI (0x02), so all three coexist in one fabric;
//   * next-hop field — the 1-based roster index of the participant whose
//     ingress should carry this sender's default traffic for the group
//     (per_sender_best folded into the ARP answer; 0 = no usable route);
//   * clause bits — bit i set when outbound clause i of the *querying*
//     sender is eligible for the group (the clause's behavior set contains
//     the group), so one masked rule per clause replaces per-group rules.
//
// The fabric then needs one masked rule per (sender, clause) and one masked
// default rule per next-hop participant — group-count-independent. Clauses
// past kEncodedClauseBits overflow to per-group exact-match rules, keeping
// correctness at any policy size.
//
// Everything here is pure encoding/decoding plus the reachability bitmap;
// the composer emits the masked rules and the runtime wires the ARP
// answers. Packet-level equivalence with the legacy encoding is enforced
// by the oracle harness (tests/oracle/test_oracle_encoding.cc).
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "bgp/route.h"
#include "net/mac.h"

namespace sdx::rs {
class RouteServer;
}  // namespace sdx::rs

namespace sdx::core {

struct AnnotatedGroup;

// (sender AS, outbound-clause index) -> behavior-set id used during FEC
// computation. Owned by the runtime; the composer and the encoded-VMAC
// helpers below consume it to find each clause's eligible groups.
using ClauseSetIds = std::map<std::pair<bgp::AsNumber, int>, std::uint32_t>;

// Which VMAC encoding the runtime compiles for. kAuto defers to the
// SDX_VMAC_ENCODING environment variable ("encoded" / "legacy"), resolved
// once per FullCompile, and defaults to legacy.
enum class VmacEncoding : std::uint8_t { kAuto, kLegacy, kEncoded };

constexpr const char* VmacEncodingName(VmacEncoding encoding) {
  switch (encoding) {
    case VmacEncoding::kAuto:
      return "auto";
    case VmacEncoding::kLegacy:
      return "legacy";
    case VmacEncoding::kEncoded:
      return "encoded";
  }
  return "?";
}

// --- Encoded VMAC layout ----------------------------------------------

inline constexpr std::uint64_t kEncodedMarker = 0x0E;
inline constexpr int kEncodedMarkerShift = 40;
inline constexpr std::uint64_t kEncodedMarkerMask = 0xFFull
                                                    << kEncodedMarkerShift;
inline constexpr int kEncodedNhShift = 24;
inline constexpr std::uint64_t kEncodedNhMask = 0xFFFFull << kEncodedNhShift;
// Clause indices representable as bits; higher clauses overflow to
// per-group exact-match rules.
inline constexpr int kEncodedClauseBits = 24;
inline constexpr std::uint64_t kEncodedClauseMask =
    (1ull << kEncodedClauseBits) - 1;

constexpr net::MacAddress EncodeVmac(std::uint32_t nh_index,
                                     std::uint32_t clause_bits) {
  return net::MacAddress((kEncodedMarker << kEncodedMarkerShift) |
                         ((std::uint64_t{nh_index} << kEncodedNhShift) &
                          kEncodedNhMask) |
                         (clause_bits & kEncodedClauseMask));
}

constexpr bool IsEncodedVmac(net::MacAddress mac) {
  return (mac.value() & kEncodedMarkerMask) ==
         (kEncodedMarker << kEncodedMarkerShift);
}

constexpr std::uint32_t EncodedNhIndex(net::MacAddress mac) {
  return static_cast<std::uint32_t>((mac.value() & kEncodedNhMask) >>
                                    kEncodedNhShift);
}

constexpr std::uint32_t EncodedClauseBits(net::MacAddress mac) {
  return static_cast<std::uint32_t>(mac.value() & kEncodedClauseMask);
}

// --- Participant roster ------------------------------------------------

// Dense 1-based numbering of the participant ASes, in ascending AS order.
// Index 0 is reserved for "no usable route" in the VMAC next-hop field.
class Roster {
 public:
  Roster() = default;
  // `ases` must be sorted ascending and duplicate-free (the natural key
  // order of the runtime's participant map).
  explicit Roster(std::vector<bgp::AsNumber> ases);

  // 1-based index of `as`; 0 when `as` is not a participant.
  std::uint32_t IndexOf(bgp::AsNumber as) const;
  // Inverse of IndexOf; 0 when `index` is 0 or out of range.
  bgp::AsNumber AsAt(std::uint32_t index) const;

  std::size_t size() const { return ases_.size(); }
  const std::vector<bgp::AsNumber>& ases() const { return ases_; }

  friend bool operator==(const Roster&, const Roster&) = default;

 private:
  std::vector<bgp::AsNumber> ases_;  // sorted; index i holds roster index i+1
};

// --- Reachability bitmap -----------------------------------------------

// Bit set per 1-based roster index; multi-word so rosters past 64
// participants keep working (tested at >64 in test_reach).
class ReachabilityBitmap {
 public:
  ReachabilityBitmap() = default;

  void Set(std::uint32_t index);
  bool Test(std::uint32_t index) const;
  // Number of set bits.
  std::size_t Count() const;
  bool Empty() const { return Count() == 0; }

  const std::vector<std::uint64_t>& words() const { return words_; }

  friend bool operator==(const ReachabilityBitmap&,
                         const ReachabilityBitmap&) = default;

 private:
  std::vector<std::uint64_t> words_;  // grows on demand; no trailing trim
};

// --- Per-sender encoding -----------------------------------------------

struct SenderClauseView {
  std::uint32_t bits = 0;   // clause i eligible -> bit i (i < 24 only)
  bool overflow = false;    // some eligible clause index >= kEncodedClauseBits
};

// The querying sender's clause-eligibility bits for `group`: bit i set
// when clause i's behavior set is among the group's member_of sets.
SenderClauseView SenderClauseBitsFor(const AnnotatedGroup& group,
                                     bgp::AsNumber sender,
                                     const ClauseSetIds& clause_set_ids);

// The full encoded VMAC the ARP responder answers `sender` with for
// `group`'s VNH: per-sender next hop (per_sender_best overriding best_hop)
// in the nh field, clause-eligibility bits below. Single source of truth —
// the composer's overflow rules match exactly this value.
net::MacAddress EncodedVmacFor(const AnnotatedGroup& group,
                               bgp::AsNumber sender, const Roster& roster,
                               const ClauseSetIds& clause_set_ids);

// Reachability view of `group`: bit IndexOf(as) set for every participant
// `as` that announces ALL of the group's prefixes to the route server.
ReachabilityBitmap ComputeReach(const AnnotatedGroup& group,
                                const Roster& roster,
                                const rs::RouteServer& rs);

}  // namespace sdx::core

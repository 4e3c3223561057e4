// FieldMatch: a conjunctive match over packet header fields.
//
// This is the flow-space algebra everything else is built on. A FieldMatch
// constrains any subset of {in_port, src_mac, dst_mac, src_ip, dst_ip,
// proto, src_port, dst_port}; IP fields are constrained by CIDR prefixes,
// the rest by exact values. The classifier compiler needs three operations:
//
//   * Matches(header)      — does a concrete packet satisfy the match?
//   * Intersect(other)     — conjunction; empty result means disjoint.
//   * IsSubsetOf(other)    — used for shadow elimination.
//
// A FieldMatch with no constraints matches every packet (the wildcard).
// The empty flow space is NOT representable as a FieldMatch — operations
// that can produce it return std::optional.
#pragma once

#include <array>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>

#include "net/ipv4.h"
#include "net/mac.h"
#include "net/packet.h"
#include "util/mix.h"

namespace sdx::net {

// Header fields a match may constrain or an action may rewrite.
enum class Field : std::uint8_t {
  kInPort,
  kSrcMac,
  kDstMac,
  kSrcIp,
  kDstIp,
  kProto,
  kSrcPort,
  kDstPort,
};

std::string_view FieldName(Field field);

class FieldMatch {
 public:
  // The wildcard match.
  FieldMatch() = default;

  // --- Named constructors for single-field matches --------------------
  static FieldMatch InPort(PortId port);
  static FieldMatch SrcMac(MacAddress mac);
  static FieldMatch DstMac(MacAddress mac);
  static FieldMatch SrcIp(IPv4Prefix prefix);
  static FieldMatch DstIp(IPv4Prefix prefix);
  static FieldMatch Proto(std::uint8_t proto);
  static FieldMatch SrcPort(std::uint16_t port);
  static FieldMatch DstPort(std::uint16_t port);

  // --- Fluent setters (return *this for chaining) ---------------------
  FieldMatch& WithInPort(PortId port);
  FieldMatch& WithSrcMac(MacAddress mac);
  FieldMatch& WithDstMac(MacAddress mac);
  FieldMatch& WithSrcIp(IPv4Prefix prefix);
  FieldMatch& WithDstIp(IPv4Prefix prefix);
  FieldMatch& WithProto(std::uint8_t proto);
  FieldMatch& WithSrcPort(std::uint16_t port);
  FieldMatch& WithDstPort(std::uint16_t port);

  // --- Accessors -------------------------------------------------------
  const std::optional<PortId>& in_port() const { return in_port_; }
  const std::optional<MacAddress>& src_mac() const { return src_mac_; }
  const std::optional<MacAddress>& dst_mac() const { return dst_mac_; }
  const std::optional<IPv4Prefix>& src_ip() const { return src_ip_; }
  const std::optional<IPv4Prefix>& dst_ip() const { return dst_ip_; }
  const std::optional<std::uint8_t>& proto() const { return proto_; }
  const std::optional<std::uint16_t>& src_port() const { return src_port_; }
  const std::optional<std::uint16_t>& dst_port() const { return dst_port_; }

  bool IsWildcard() const;

  // Number of constrained fields; a rough specificity measure used when
  // ordering rules of equal provenance.
  int ConstrainedFieldCount() const;

  bool Matches(const PacketHeader& header) const;

  // Conjunction of two matches; nullopt when they are disjoint.
  std::optional<FieldMatch> Intersect(const FieldMatch& other) const;

  // True when every packet matching *this also matches `other`.
  bool IsSubsetOf(const FieldMatch& other) const;

  bool IsDisjoint(const FieldMatch& other) const {
    return !Intersect(other).has_value();
  }

  // Removes any constraint on `field`. Used when pulling a match backwards
  // through a header rewrite of that field.
  FieldMatch& ClearField(Field field);

  // True when `field` carries a constraint.
  bool Constrains(Field field) const;

  std::string ToString() const;

  friend bool operator==(const FieldMatch&, const FieldMatch&) = default;

 private:
  std::optional<PortId> in_port_;
  std::optional<MacAddress> src_mac_;
  std::optional<MacAddress> dst_mac_;
  std::optional<IPv4Prefix> src_ip_;
  std::optional<IPv4Prefix> dst_ip_;
  std::optional<std::uint8_t> proto_;
  std::optional<std::uint16_t> src_port_;
  std::optional<std::uint16_t> dst_port_;
};

std::ostream& operator<<(std::ostream& os, const FieldMatch& match);

std::size_t HashValue(const FieldMatch& match);

// --- Mask extraction for compiled classifiers -------------------------
//
// A MaskSignature names which fields a match constrains — and, for the IP
// fields, at which prefix length. Every exact-match field is an implicit
// full-width mask, so two matches with the same signature differ only in
// the constrained *values*: projecting both a match and a packet header
// onto the signature reduces "does the packet match?" to key equality.
// This is the decomposition tuple-space-search classifiers are built on
// (dataplane/classifier.h): one hash table per signature.

// Bit for `field` in MaskSignature::fields (Field has exactly 8 members).
constexpr std::uint8_t FieldBit(Field field) {
  return static_cast<std::uint8_t>(1u << static_cast<unsigned>(field));
}

struct MaskSignature {
  std::uint8_t fields = 0;       // FieldBit(f) set when f is constrained
  std::uint8_t src_ip_bits = 0;  // prefix length; meaningful iff kSrcIp set
  std::uint8_t dst_ip_bits = 0;  // prefix length; meaningful iff kDstIp set

  friend constexpr auto operator<=>(const MaskSignature&,
                                    const MaskSignature&) = default;
};

// Every header field projected under a signature, packed into four words;
// unconstrained fields contribute zero. The classifier's correctness
// hinge, for sig = MaskSignatureOf(m):
//   m.Matches(h)  <=>  ProjectKey(m, sig) == ProjectKey(h, sig)
// which holds because non-IP constraints are exact values and IP
// constraints compare only the top `*_ip_bits` bits on both sides.
//
// Layout: word 0 holds in-port (high half) and src IP (low half); word 1
// dst IP (high half) and the transport ports; word 2 the protocol (bits
// 48-55) and src MAC (48 bits); word 3 the dst MAC. No two fields share a
// bit, so projecting is a bitwise AND of the fully packed header with the
// signature's mask (KeyMask) — a classifier packs each packet once and
// projects it onto every tuple with four ANDs.
using MaskedKey = std::array<std::uint64_t, 4>;

// The signature of the fields `match` constrains.
MaskSignature MaskSignatureOf(const FieldMatch& match);

// The match's constrained values under `sig`; `sig` must equal
// MaskSignatureOf(match).
MaskedKey ProjectKey(const FieldMatch& match, const MaskSignature& sig);

// Every field of `header`, unmasked, in the MaskedKey layout.
inline MaskedKey PackHeader(const PacketHeader& header) {
  return {(std::uint64_t{header.in_port} << 32) | header.src_ip.value(),
          (std::uint64_t{header.dst_ip.value()} << 32) |
              (std::uint64_t{header.src_port} << 16) | header.dst_port,
          (std::uint64_t{header.proto} << 48) | header.src_mac.value(),
          header.dst_mac.value()};
}

// The bits of the MaskedKey layout that `sig` constrains.
inline MaskedKey KeyMask(const MaskSignature& sig) {
  const auto has = [&](Field field) {
    return (sig.fields & FieldBit(field)) != 0;
  };
  constexpr std::uint64_t kMac = 0xFFFFFFFFFFFFull;
  MaskedKey mask{};
  if (has(Field::kInPort)) mask[0] |= 0xFFFFFFFFull << 32;
  if (has(Field::kSrcIp)) mask[0] |= IPv4Prefix::Mask(sig.src_ip_bits);
  if (has(Field::kDstIp)) {
    mask[1] |= std::uint64_t{IPv4Prefix::Mask(sig.dst_ip_bits)} << 32;
  }
  if (has(Field::kSrcPort)) mask[1] |= 0xFFFFull << 16;
  if (has(Field::kDstPort)) mask[1] |= 0xFFFFull;
  if (has(Field::kProto)) mask[2] |= 0xFFull << 48;
  if (has(Field::kSrcMac)) mask[2] |= kMac;
  if (has(Field::kDstMac)) mask[3] = kMac;
  return mask;
}

inline MaskedKey ApplyMask(const MaskedKey& packed, const MaskedKey& mask) {
  return {packed[0] & mask[0], packed[1] & mask[1], packed[2] & mask[2],
          packed[3] & mask[3]};
}

// The header's fields projected under `sig` (IP fields masked to the
// signature's prefix lengths).
inline MaskedKey ProjectKey(const PacketHeader& header,
                            const MaskSignature& sig) {
  return ApplyMask(PackHeader(header), KeyMask(sig));
}

// Each word scaled by its own odd constant (a key differing in one word
// always hashes differently before the mix), then one 64-bit finalizer,
// so open-addressing tables can index by the low bits.
inline std::size_t HashValue(const MaskedKey& key) {
  return util::Mix64(key[0] * 0x9E3779B97F4A7C15ull +
               key[1] * 0xC2B2AE3D27D4EB4Full +
               key[2] * 0x165667B19E3779F9ull +
               key[3] * 0xD6E8FEB86659FD93ull);
}

}  // namespace sdx::net

template <>
struct std::hash<sdx::net::FieldMatch> {
  std::size_t operator()(const sdx::net::FieldMatch& m) const noexcept {
    return sdx::net::HashValue(m);
  }
};

// Splitmix64 finalizer: a cheap 64-bit mixer in which every input bit
// reaches every output bit. Shared by seed derivation (workload), packet
// sampling and flow-cache hashing (obs) and the classifier's hash tables
// (net, dataplane), which index power-of-two tables by the low bits.
// Header-only, so every layer can use it without a link dependency.
#pragma once

#include <cstdint>

namespace sdx::util {

inline constexpr std::uint64_t Mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace sdx::util

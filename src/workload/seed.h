// Deterministic RNG construction for every workload generator.
//
// All generators take an explicit 64-bit seed — never std::random_device —
// so any run (and any test failure) can be replayed exactly from the seed
// printed in its output. MakeRng folds the seed to the 32-bit state
// std::mt19937 expects in a way that leaves streams for seeds < 2^32
// byte-identical to the historical `std::mt19937(uint32_t seed)` call,
// keeping existing test and benchmark expectations stable.
#pragma once

#include <cstdint>
#include <random>

#include "util/mix.h"

namespace sdx::workload {

inline std::mt19937 MakeRng(std::uint64_t seed) {
  return std::mt19937(
      static_cast<std::uint32_t>(seed ^ (seed >> 32)));
}

// Derives an independent sub-stream seed (e.g. one per participant or per
// round) without correlating neighboring seeds: splitmix64 finalizer.
inline std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t lane) {
  return util::Mix64(seed + 0x9e3779b97f4a7c15ull * (lane + 1));
}

}  // namespace sdx::workload

// FNV-1a over 64-bit words and bit-pattern doubles: the one hash behind
// every determinism digest (fleet and session digests, workload and
// ingest-schedule digests, ControlLog digests, trace structure digests).
#pragma once

#include <bit>
#include <cstdint>

namespace uwp {

inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

// The bit pattern of `v`: digests and bit-identity checks compare doubles
// by it, so -0.0 vs +0.0 and NaN payloads count as different, NaN == NaN.
inline std::uint64_t double_bits(double v) { return std::bit_cast<std::uint64_t>(v); }
inline bool same_bits(double a, double b) { return double_bits(a) == double_bits(b); }

// Folds the 8 bytes of `v`, little-endian, into `h`.
inline void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xffu;
    h *= kFnvPrime;
  }
}
inline void fnv_mix(std::uint64_t& h, double v) { fnv_mix(h, double_bits(v)); }

}  // namespace uwp

// Word-parallel 64-bit hash over raw bytes: the binary CSR sidecar
// checksum and the serving content key both run it over the CSR arrays.
//
// Four independent lanes each take every fourth 8-byte word as
//   lane = rotl((lane ^ word) * odd, 31)
// so four multiply chains run side by side instead of one serial chain
// per byte. Every lane step is a bijection of the
// lane state, so changing any single word always changes its lane; the
// lanes are folded with rotations and XOR (a bijection in each lane) and
// finished with hash_combine, so it always changes the result too. The
// byte length seeds the lanes, and a partial last word is zero-padded
// into the next lane. Words are read in host byte order, like the
// sidecar arrays themselves.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/rng.hpp"

namespace spmvml {

namespace detail {

inline std::uint64_t hash_lane_step(std::uint64_t lane, std::uint64_t word) {
  return std::rotl((lane ^ word) * 0x9e3779b97f4a7c15ULL, 31);
}

inline std::uint64_t load_word(const unsigned char* p) {
  std::uint64_t w = 0;
  std::memcpy(&w, p, sizeof w);
  return w;
}

}  // namespace detail

/// Hash `n` bytes at `data`. Chainable: pass one call's result as the
/// next call's `seed` to hash several arrays without concatenating them.
inline std::uint64_t hash_bytes(const void* data, std::size_t n,
                                std::uint64_t seed = 0) {
  using detail::hash_lane_step;
  using detail::load_word;
  const auto* p = static_cast<const unsigned char*>(data);
  const std::uint64_t base = hash_combine(seed, n);
  // Named lanes, not an array, so they stay in registers.
  std::uint64_t l0 = hash_combine(base, 0), l1 = hash_combine(base, 1);
  std::uint64_t l2 = hash_combine(base, 2), l3 = hash_combine(base, 3);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    l0 = hash_lane_step(l0, load_word(p + i));
    l1 = hash_lane_step(l1, load_word(p + i + 8));
    l2 = hash_lane_step(l2, load_word(p + i + 16));
    l3 = hash_lane_step(l3, load_word(p + i + 24));
  }
  // Up to three whole words and a zero-padded partial word remain; they
  // continue the round-robin into l0, l1, l2, l3 in turn.
  std::uint64_t* lanes[] = {&l0, &l1, &l2, &l3};
  for (std::uint64_t** lane = lanes; i < n; i += 8, ++lane) {
    std::uint64_t word = 0;
    std::memcpy(&word, p + i, n - i < 8 ? n - i : 8);
    **lane = hash_lane_step(**lane, word);
  }
  return hash_combine(base, l0 ^ std::rotl(l1, 16) ^ std::rotl(l2, 32) ^
                                std::rotl(l3, 48));
}

}  // namespace spmvml

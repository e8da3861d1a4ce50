/// \file sha256_shani.cpp
/// SHA-256 block-run kernels on the x86 SHA extensions (sha256rnds2,
/// sha256msg1/2).  Compiled with -msha -msse4.1 in its own translation
/// unit so no SHA-NI instruction can reach the baseline code; sha256.cpp
/// calls in only after sha256_shani_runtime() says the CPU is capable.
///
/// sha256rnds2 does two rounds per instruction but each depends on the
/// previous one's result, so one stream leaves the unit idle most of its
/// latency.  The S-stream body below interleaves S independent messages
/// quad by quad; S = 2 fills that latency within the 16 XMM registers.

#include "src/crypto/sha256_shani.hpp"

#include <immintrin.h>

#include "src/crypto/sha256_core.hpp"

namespace rasc::crypto::detail {

namespace {

/// Four message words, loaded big-endian from any alignment.
inline __m128i load_words(const std::uint8_t* p) {
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  return _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)), bswap);
}

/// State words a..h -> the (ABEF, CDGH) register pair sha256rnds2 uses.
inline void load_state(const std::uint32_t s[8], __m128i& abef, __m128i& cdgh) {
  const __m128i cdab =
      _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(s)), 0xB1);
  const __m128i efgh =
      _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(s + 4)), 0x1B);
  abef = _mm_alignr_epi8(cdab, efgh, 8);
  cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
}

inline void store_state(__m128i abef, __m128i cdgh, std::uint32_t s[8]) {
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(s), _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(s + 4), _mm_alignr_epi8(dchg, feba, 8));
}

/// Rounds 4q .. 4q+3 with message words `w`.
inline void rounds4(__m128i& abef, __m128i& cdgh, __m128i w, int q) {
  const __m128i wk = _mm_add_epi32(
      w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kSha256K + 4 * q)));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

/// Message words W[4q..4q+3] from the previous sixteen, W[4q-16..4q-1].
inline __m128i schedule(__m128i w0, __m128i w1, __m128i w2, __m128i w3) {
  return _mm_sha256msg2_epu32(
      _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4)), w3);
}

/// S streams, interleaved quad by quad.  Every loop is fully unrolled so
/// the state, saved state and message window of each stream stay in XMM
/// registers (GCC's -O2 leaves the stream loops rolled otherwise, which
/// spills and costs the two-stream kernel most of its gain).
template <int S>
void blocks_interleaved(std::uint32_t* const state[S], const std::uint8_t* const data[S],
                        std::size_t nblocks) {
  __m128i abef[S], cdgh[S];
#pragma GCC unroll 2
  for (int j = 0; j < S; ++j) load_state(state[j], abef[j], cdgh[j]);
  for (std::size_t b = 0; b < nblocks; ++b) {
    __m128i abef_in[S], cdgh_in[S], w[S][4];
#pragma GCC unroll 2
    for (int j = 0; j < S; ++j) {
      abef_in[j] = abef[j];
      cdgh_in[j] = cdgh[j];
    }
#pragma GCC unroll 4
    for (int q = 0; q < 4; ++q) {
#pragma GCC unroll 2
      for (int j = 0; j < S; ++j) {
        w[j][q] = load_words(data[j] + 64 * b + 16 * q);
        rounds4(abef[j], cdgh[j], w[j][q], q);
      }
    }
    // W[q] overwrites W[q-4] in the four-register window.
#pragma GCC unroll 12
    for (int q = 4; q < 16; ++q) {
#pragma GCC unroll 2
      for (int j = 0; j < S; ++j) {
        w[j][q & 3] = schedule(w[j][q & 3], w[j][(q + 1) & 3], w[j][(q + 2) & 3],
                               w[j][(q + 3) & 3]);
        rounds4(abef[j], cdgh[j], w[j][q & 3], q);
      }
    }
#pragma GCC unroll 2
    for (int j = 0; j < S; ++j) {
      abef[j] = _mm_add_epi32(abef[j], abef_in[j]);
      cdgh[j] = _mm_add_epi32(cdgh[j], cdgh_in[j]);
    }
  }
#pragma GCC unroll 2
  for (int j = 0; j < S; ++j) store_state(abef[j], cdgh[j], state[j]);
}

}  // namespace

bool sha256_shani_runtime() noexcept {
  // Explicit init: the answer may be asked for from a static initializer.
  __builtin_cpu_init();
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
}

void sha256_blocks_shani(std::uint32_t state[8], const std::uint8_t* data,
                         std::size_t nblocks) {
  std::uint32_t* const states[1] = {state};
  const std::uint8_t* const datas[1] = {data};
  blocks_interleaved<1>(states, datas, nblocks);
}

void sha256_blocks_shani_x2(std::uint32_t state0[8], const std::uint8_t* data0,
                            std::uint32_t state1[8], const std::uint8_t* data1,
                            std::size_t nblocks) {
  std::uint32_t* const states[2] = {state0, state1};
  const std::uint8_t* const datas[2] = {data0, data1};
  blocks_interleaved<2>(states, datas, nblocks);
}

}  // namespace rasc::crypto::detail

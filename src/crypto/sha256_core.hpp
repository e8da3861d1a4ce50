#pragma once
/// \file sha256_core.hpp
/// The one SHA-256 compression core.  Every SHA-256 in the library — the
/// streaming Sha256 class (and with it HMAC, the DRBG and the verifier),
/// per-block measurement digests and the multi-lane tail finisher —
/// compresses through sha256_blocks(), which runs the SHA-NI kernel
/// (sha256_shani.cpp, x86 SHA extensions) when it is compiled in and the
/// CPU has it, and the portable FIPS 180-4 round function otherwise.  The
/// choice is made once per process and both kernels produce the same bytes.
///
/// The round constants and IV are shared with the lockstep lane kernels
/// (lanes_kernels.hpp), which vectorise the portable round function and
/// finish divergent-length lanes through sha256_finish(), so lane-vs-scalar
/// byte identity is structural rather than coincidental.

#include <cstddef>
#include <cstdint>

#include "src/support/bytes.hpp"

namespace rasc::crypto::detail {

inline constexpr std::uint32_t kSha256K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline constexpr std::uint32_t kSha256Iv[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                               0xa54ff53a, 0x510e527f, 0x9b05688c,
                                               0x1f83d9ab, 0x5be0cd19};

/// A block-run kernel: compress `nblocks` consecutive 64-byte blocks at
/// `data` (any alignment) into `state`.
using Sha256BlocksFn = void (*)(std::uint32_t state[8], const std::uint8_t* data,
                                std::size_t nblocks);

/// The portable FIPS 180-4 round function — the arithmetic the lane
/// kernels vectorise, and the reference the SHA-NI kernel is tested against.
void sha256_blocks_portable(std::uint32_t state[8], const std::uint8_t* data,
                            std::size_t nblocks);

/// The dispatched core: SHA-NI when sha256_shani_active(), else portable.
void sha256_blocks(std::uint32_t state[8], const std::uint8_t* data, std::size_t nblocks);

/// Two independent streams of `nblocks` blocks each.  With SHA-NI they run
/// interleaved (sha256rnds2 is latency-bound, so a second message fills
/// the pipeline); otherwise one after the other on the portable kernel.
void sha256_blocks_x2(std::uint32_t state0[8], const std::uint8_t* data0,
                      std::uint32_t state1[8], const std::uint8_t* data1,
                      std::size_t nblocks);

/// True when the SHA-NI kernel is compiled in and the CPU supports it.
bool sha256_shani_active() noexcept;

/// Finish a message: consume the `rem` bytes at `p` (whole blocks, then
/// the padded tail) into `state`, with `total` the full message length in
/// bytes for the bit count, and write the big-endian digest to `out32`.
void sha256_finish(std::uint32_t state[8], const std::uint8_t* p, std::size_t rem,
                   std::uint64_t total, std::uint8_t* out32,
                   Sha256BlocksFn blocks = sha256_blocks);

/// One-shot digest of `msg` into `out32` on `blocks`.
void sha256_digest(support::ByteView msg, std::uint8_t* out32,
                   Sha256BlocksFn blocks = sha256_blocks);

/// One-shot digests of two messages through sha256_blocks_x2: equal
/// lengths run interleaved to the end; staggered lengths share their
/// common whole blocks and finish one stream at a time.
void sha256_digest_x2(support::ByteView msg0, std::uint8_t* out0, support::ByteView msg1,
                      std::uint8_t* out1);

}  // namespace rasc::crypto::detail

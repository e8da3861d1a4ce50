#pragma once
/// \file sha256_shani.hpp
/// Private interface to the SHA-NI translation unit (sha256_shani.cpp,
/// compiled with -msha -msse4.1 when the toolchain supports it).  Only
/// included by sha256.cpp, and only when CMake defines
/// RASC_CRYPTO_HAVE_SHANI; the dispatcher gates every entry point on
/// sha256_shani_runtime().

#include <cstddef>
#include <cstdint>

namespace rasc::crypto::detail {

/// True when the executing CPU reports the SHA extensions and SSE4.1.
bool sha256_shani_runtime() noexcept;

void sha256_blocks_shani(std::uint32_t state[8], const std::uint8_t* data,
                         std::size_t nblocks);

void sha256_blocks_shani_x2(std::uint32_t state0[8], const std::uint8_t* data0,
                            std::uint32_t state1[8], const std::uint8_t* data1,
                            std::size_t nblocks);

}  // namespace rasc::crypto::detail

#pragma once
/// \file sha256.hpp
/// SHA-256 (FIPS 180-4), streaming implementation over the dispatched
/// compression core (sha256_core.hpp).

#include <array>
#include <cstdint>

#include "src/crypto/hash.hpp"

namespace rasc::crypto {

class Sha256 final : public Hash {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;

  Sha256() { reset(); }

  void update(support::ByteView data) override;
  support::Bytes finalize() override;
  void finalize_into(support::MutableByteView out) override;
  std::size_t digest_size() const noexcept override { return kDigestSize; }
  std::size_t block_size() const noexcept override { return kBlockSize; }
  std::unique_ptr<Hash> clone() const override { return std::make_unique<Sha256>(*this); }
  void reset() override;

 private:
  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, kBlockSize> buffer_{};
  std::size_t buffered_ = 0;
  std::uint64_t total_len_ = 0;
};

/// Which SHA-256 compression kernel this process runs: "sha-ni" or
/// "portable".  For bench headers and logs.
const char* sha256_kernel_name() noexcept;

}  // namespace rasc::crypto

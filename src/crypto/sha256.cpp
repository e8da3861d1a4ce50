#include "src/crypto/sha256.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "src/crypto/sha256_core.hpp"

#if defined(RASC_CRYPTO_HAVE_SHANI)
#include "src/crypto/sha256_shani.hpp"
#endif

namespace rasc::crypto {

namespace detail {

namespace {

inline std::uint32_t load_be32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

void store_digest(const std::uint32_t state[8], std::uint8_t* out32) {
  for (int i = 0; i < 8; ++i) {
    out32[4 * i] = static_cast<std::uint8_t>(state[i] >> 24);
    out32[4 * i + 1] = static_cast<std::uint8_t>(state[i] >> 16);
    out32[4 * i + 2] = static_cast<std::uint8_t>(state[i] >> 8);
    out32[4 * i + 3] = static_cast<std::uint8_t>(state[i]);
  }
}

/// Write the padded final block(s) of a message whose last `rem` (< 64)
/// bytes are at `p` into `tail`: the bytes, 0x80, zeros to 56 mod 64, then
/// the 64-bit big-endian bit length of `total` bytes.  Returns 1 or 2.
std::size_t pad_tail(std::uint8_t tail[128], const std::uint8_t* p, std::size_t rem,
                     std::uint64_t total) {
  const std::size_t blocks = rem < 56 ? 1 : 2;
  std::memset(tail, 0, blocks * 64);
  if (rem != 0) std::memcpy(tail, p, rem);
  tail[rem] = 0x80;
  const std::uint64_t bits = total * 8;
  for (int i = 0; i < 8; ++i) {
    tail[blocks * 64 - 1 - i] = static_cast<std::uint8_t>(bits >> (8 * i));
  }
  return blocks;
}

}  // namespace

void sha256_blocks_portable(std::uint32_t state[8], const std::uint8_t* data,
                            std::size_t nblocks) {
  for (; nblocks > 0; --nblocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) w[i] = load_be32(data + 4 * i);
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          std::rotr(w[i - 15], 7) ^ std::rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          std::rotr(w[i - 2], 17) ^ std::rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kSha256K[i] + w[i];
      const std::uint32_t s0 = std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

bool sha256_shani_active() noexcept {
#if defined(RASC_CRYPTO_HAVE_SHANI)
  static const bool active = sha256_shani_runtime();
  return active;
#else
  return false;
#endif
}

void sha256_blocks(std::uint32_t state[8], const std::uint8_t* data, std::size_t nblocks) {
#if defined(RASC_CRYPTO_HAVE_SHANI)
  if (sha256_shani_active()) {
    sha256_blocks_shani(state, data, nblocks);
    return;
  }
#endif
  sha256_blocks_portable(state, data, nblocks);
}

void sha256_blocks_x2(std::uint32_t state0[8], const std::uint8_t* data0,
                      std::uint32_t state1[8], const std::uint8_t* data1,
                      std::size_t nblocks) {
#if defined(RASC_CRYPTO_HAVE_SHANI)
  if (sha256_shani_active()) {
    sha256_blocks_shani_x2(state0, data0, state1, data1, nblocks);
    return;
  }
#endif
  sha256_blocks_portable(state0, data0, nblocks);
  sha256_blocks_portable(state1, data1, nblocks);
}

void sha256_finish(std::uint32_t state[8], const std::uint8_t* p, std::size_t rem,
                   std::uint64_t total, std::uint8_t* out32, Sha256BlocksFn blocks) {
  const std::size_t whole = rem / 64;
  if (whole != 0) blocks(state, p, whole);
  std::uint8_t tail[128];
  blocks(state, tail, pad_tail(tail, p + 64 * whole, rem % 64, total));
  store_digest(state, out32);
}

void sha256_digest(support::ByteView msg, std::uint8_t* out32, Sha256BlocksFn blocks) {
  std::uint32_t state[8];
  std::copy_n(kSha256Iv, 8, state);
  sha256_finish(state, msg.data(), msg.size(), msg.size(), out32, blocks);
}

void sha256_digest_x2(support::ByteView msg0, std::uint8_t* out0, support::ByteView msg1,
                      std::uint8_t* out1) {
  std::uint32_t s0[8], s1[8];
  std::copy_n(kSha256Iv, 8, s0);
  std::copy_n(kSha256Iv, 8, s1);
  const std::size_t whole = std::min(msg0.size(), msg1.size()) / 64;
  sha256_blocks_x2(s0, msg0.data(), s1, msg1.data(), whole);
  const std::size_t done = 64 * whole;
  if (msg0.size() != msg1.size()) {
    sha256_finish(s0, msg0.data() + done, msg0.size() - done, msg0.size(), out0);
    sha256_finish(s1, msg1.data() + done, msg1.size() - done, msg1.size(), out1);
    return;
  }
  std::uint8_t t0[128], t1[128];
  pad_tail(t0, msg0.data() + done, msg0.size() - done, msg0.size());
  const std::size_t tail = pad_tail(t1, msg1.data() + done, msg1.size() - done, msg1.size());
  sha256_blocks_x2(s0, t0, s1, t1, tail);
  store_digest(s0, out0);
  store_digest(s1, out1);
}

}  // namespace detail

const char* sha256_kernel_name() noexcept {
  return detail::sha256_shani_active() ? "sha-ni" : "portable";
}

void Sha256::reset() {
  std::copy_n(detail::kSha256Iv, 8, state_.begin());
  buffered_ = 0;
  total_len_ = 0;
}

void Sha256::update(support::ByteView data) {
  if (data.empty()) return;  // empty spans may carry a null data()
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(kBlockSize - buffered_, data.size());
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ == kBlockSize) {
      detail::sha256_blocks(state_.data(), buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  const std::size_t whole = (data.size() - offset) / kBlockSize;
  if (whole > 0) {
    detail::sha256_blocks(state_.data(), data.data() + offset, whole);
    offset += whole * kBlockSize;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

void Sha256::finalize_into(support::MutableByteView out) {
  if (out.size() < kDigestSize) {
    throw std::invalid_argument("Sha256::finalize_into: output buffer too small");
  }
  detail::sha256_finish(state_.data(), buffer_.data(), buffered_, total_len_, out.data());
  reset();
}

support::Bytes Sha256::finalize() {
  support::Bytes digest(kDigestSize);
  finalize_into(digest);
  return digest;
}

}  // namespace rasc::crypto

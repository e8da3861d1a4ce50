/// SHA-256 kernel identity: the SHA-NI one-stream and two-stream kernels
/// must match the portable round function bit for bit — at every length
/// around the padding boundaries, from unaligned input, from a continued
/// (non-IV) state and for staggered-length pairs — and the known-answer
/// vectors must hold through every path that reaches the dispatched core.
/// SHA-NI cases skip on a CPU or build without the extension, so a missing
/// kernel shows as a skip, never as a pass.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "src/attest/measurement.hpp"
#include "src/crypto/hmac.hpp"
#include "src/crypto/lanes.hpp"
#include "src/crypto/sha256.hpp"
#include "src/crypto/sha256_core.hpp"
#include "src/support/hex.hpp"
#include "src/support/rng.hpp"

namespace rasc::crypto {
namespace {

using support::Bytes;
using support::ByteView;
using support::hex_encode;
using support::random_bytes;
using support::to_bytes;

#define REQUIRE_SHANI()                                                \
  if (!detail::sha256_shani_active()) {                               \
    GTEST_SKIP() << "SHA-NI kernel not compiled in or CPU lacks it"; \
  }

constexpr std::size_t kLens[] = {0, 1, 55, 56, 63, 64, 65, 119, 120, 127, 128, 1024, 4096};
constexpr std::size_t kOffsets[] = {0, 1, 3};

/// `len` random bytes starting `offset` bytes into their buffer, so the
/// kernels see unaligned loads.
struct Message {
  Bytes buffer;
  std::size_t offset;
  ByteView view() const { return ByteView(buffer.data() + offset, buffer.size() - offset); }
};

Message message(std::size_t len, std::size_t offset, std::uint64_t seed) {
  return {random_bytes(len + offset, seed), offset};
}

/// A continued state: the IV advanced by one random block on the portable
/// kernel, as after a key block or an earlier update.
std::vector<std::uint32_t> continued_state(std::uint64_t seed) {
  std::vector<std::uint32_t> state(detail::kSha256Iv, detail::kSha256Iv + 8);
  detail::sha256_blocks_portable(state.data(), random_bytes(64, seed).data(), 1);
  return state;
}

Bytes digest_on(ByteView msg, detail::Sha256BlocksFn blocks) {
  Bytes out(32);
  detail::sha256_digest(msg, out.data(), blocks);
  return out;
}

TEST(Sha256Kernel, NameMatchesDispatch) {
  EXPECT_STREQ(sha256_kernel_name(),
               detail::sha256_shani_active() ? "sha-ni" : "portable");
  // The SHA-NI kernel is a SIMD kernel: a -DRASC_ENABLE_SIMD=OFF build
  // runs only the portable one.
  if (!simd_compiled()) {
    EXPECT_STREQ(sha256_kernel_name(), "portable");
  }
}

TEST(Sha256Kernel, ShaNiOneStreamMatchesPortable) {
  REQUIRE_SHANI();
  for (const std::size_t len : kLens) {
    for (const std::size_t offset : kOffsets) {
      const Message msg = message(len, offset, 0x5a0 + 7 * len + offset);
      const ByteView view = msg.view();
      EXPECT_EQ(digest_on(view, detail::sha256_blocks),
                digest_on(view, detail::sha256_blocks_portable))
          << "len=" << len << " offset=" << offset;

      // Continued state: the whole blocks, then the padded tail.
      std::vector<std::uint32_t> shani = continued_state(len + offset);
      std::vector<std::uint32_t> portable = shani;
      detail::sha256_blocks(shani.data(), view.data(), len / 64);
      detail::sha256_blocks_portable(portable.data(), view.data(), len / 64);
      EXPECT_EQ(shani, portable) << "len=" << len << " offset=" << offset;
      Bytes a(32), b(32);
      detail::sha256_finish(shani.data(), view.data(), len, len + 64, a.data());
      detail::sha256_finish(portable.data(), view.data(), len, len + 64, b.data(),
                            detail::sha256_blocks_portable);
      EXPECT_EQ(a, b) << "finish len=" << len << " offset=" << offset;
    }
  }
}

TEST(Sha256Kernel, ShaNiTwoStreamMatchesPortable) {
  REQUIRE_SHANI();
  for (const std::size_t len : kLens) {
    for (const std::size_t offset : kOffsets) {
      const std::size_t nblocks = len / 64;
      const Message m0 = message(len, offset, 0x2b0 + len);
      const Message m1 = message(len, 3 - offset, 0x2b1 + len);
      std::vector<std::uint32_t> s0 = continued_state(0x71 + len);
      std::vector<std::uint32_t> s1 = continued_state(0x72 + len);
      std::vector<std::uint32_t> p0 = s0, p1 = s1;
      detail::sha256_blocks_x2(s0.data(), m0.view().data(), s1.data(), m1.view().data(),
                               nblocks);
      detail::sha256_blocks_portable(p0.data(), m0.view().data(), nblocks);
      detail::sha256_blocks_portable(p1.data(), m1.view().data(), nblocks);
      EXPECT_EQ(s0, p0) << "stream 0 len=" << len << " offset=" << offset;
      EXPECT_EQ(s1, p1) << "stream 1 len=" << len << " offset=" << offset;
    }
  }
}

TEST(Sha256Kernel, TwoStreamDigestsMatchPortableForStaggeredPairs) {
  // Runs on every CPU: without SHA-NI the pair falls back to the portable
  // kernel one stream at a time, which must give the same bytes.
  for (const std::size_t len0 : kLens) {
    for (const std::size_t len1 : kLens) {
      const Message m0 = message(len0, 1, 0x3c0 + len0);
      const Message m1 = message(len1, 0, 0x3c1 + len1);
      Bytes d0(32), d1(32);
      detail::sha256_digest_x2(m0.view(), d0.data(), m1.view(), d1.data());
      EXPECT_EQ(d0, digest_on(m0.view(), detail::sha256_blocks_portable))
          << "len0=" << len0 << " len1=" << len1;
      EXPECT_EQ(d1, digest_on(m1.view(), detail::sha256_blocks_portable))
          << "len0=" << len0 << " len1=" << len1;
    }
  }
}

// FIPS 180-4 (NIST example) messages and their SHA-256 digests.
struct Vector {
  std::string message;
  const char* digest;
};

std::vector<Vector> fips_vectors() {
  return {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopq"
       "klmnopqrlmnopqrsmnopqrstnopqrstu",
       "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
      {std::string(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
}

TEST(Sha256Kernel, FipsVectorsThroughEveryPath) {
  const std::vector<Vector> vectors = fips_vectors();
  // Each vector twice (equal-length pairs), then each once more
  // (staggered pairs and a trailing single message).
  std::vector<ByteView> views;
  std::vector<std::string> wants;
  for (const int copies : {2, 1}) {
    for (const Vector& v : vectors) {
      for (int c = 0; c < copies; ++c) {
        views.emplace_back(reinterpret_cast<const std::uint8_t*>(v.message.data()),
                           v.message.size());
        wants.push_back(v.digest);
      }
    }
  }
  std::vector<Bytes> many(views.size(), Bytes(32));
  std::vector<support::MutableByteView> outs(many.begin(), many.end());
  digest_many(HashKind::kSha256, views, outs);

  attest::BlockDigester digester(attest::MacKind::kHmac, HashKind::kSha256, Bytes(16, 1));
  std::vector<attest::Digest> batch(views.size());
  std::vector<attest::Digest*> batch_outs;
  for (attest::Digest& d : batch) batch_outs.push_back(&d);
  digester.digest_batch(views, batch_outs);

  for (std::size_t i = 0; i < views.size(); ++i) {
    const std::string& want = wants[i];
    const std::string len = " len=" + std::to_string(views[i].size());
    Sha256 streaming;
    // Odd-sized updates cross block boundaries at every offset.
    for (std::size_t at = 0; at < views[i].size(); at += 37) {
      streaming.update(views[i].subspan(at, std::min<std::size_t>(37, views[i].size() - at)));
    }
    EXPECT_EQ(hex_encode(streaming.finalize()), want) << "Sha256" << len;
    EXPECT_EQ(hex_encode(digest_on(views[i], detail::sha256_blocks_portable)), want)
        << "portable" << len;
    EXPECT_EQ(hex_encode(many[i]), want) << "digest_many i=" << i << len;
    EXPECT_EQ(hex_encode(batch[i].view()), want) << "digest_batch i=" << i << len;
  }
}

TEST(Sha256Kernel, Rfc4231VectorsThroughHmac) {
  const Bytes key131(131, 0xaa);
  Bytes key25(25);
  for (std::size_t i = 0; i < key25.size(); ++i) key25[i] = static_cast<std::uint8_t>(i + 1);
  struct Case {
    int number;
    Bytes key;
    Bytes data;
    const char* tag;
  };
  const Case cases[] = {
      {1, Bytes(20, 0x0b), to_bytes("Hi There"),
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {2, to_bytes("Jefe"), to_bytes("what do ya want for nothing?"),
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {3, Bytes(20, 0xaa), Bytes(50, 0xdd),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {4, key25, Bytes(50, 0xcd),
       "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
      {6, key131, to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"),
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
      {7, key131,
       to_bytes("This is a test using a larger than block-size key and a larger than "
                "block-size data. The key needs to be hashed before being used by the "
                "HMAC algorithm."),
       "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(hex_encode(Hmac::compute(HashKind::kSha256, c.key, c.data)), c.tag)
        << "RFC 4231 case " << c.number;
  }
}

}  // namespace
}  // namespace rasc::crypto

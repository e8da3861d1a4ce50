/// Multi-lane digest identity: LaneHasher<N> must produce byte-identical
/// digests to the scalar path for every (hash, lane-count, backend, length)
/// cell, including staggered per-lane lengths and randomized fuzz — plus
/// the allocation and concurrency contracts of the hot path.

#include "src/crypto/lanes.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "src/crypto/hash.hpp"
#include "src/exp/campaign.hpp"
#include "src/support/rng.hpp"

// --- allocation counter ------------------------------------------------------
// Replacing global operator new lets the zero-allocation tests observe every
// heap allocation in the process (counting only; behavior is unchanged).

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}

// GCC flags free() inside a replaced operator delete as mismatched; the
// paired operator new above allocates with malloc, so it is matched.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

using namespace rasc;

using support::random_bytes;

std::vector<crypto::LaneBackend> backends_under_test() {
  std::vector<crypto::LaneBackend> backends = {crypto::LaneBackend::kPortable};
  if (crypto::simd_compiled()) backends.push_back(crypto::LaneBackend::kSimd);
  return backends;
}

constexpr crypto::HashKind kLaneKinds[] = {crypto::HashKind::kSha256,
                                           crypto::HashKind::kBlake2s};

/// Digest `messages` through LaneHasher<N> and compare every lane against
/// hash_oneshot.
template <std::size_t N>
void expect_lane_identity(crypto::HashKind kind, crypto::LaneBackend backend,
                          const std::vector<support::Bytes>& messages) {
  ASSERT_EQ(messages.size(), N);
  const std::size_t digest_size = crypto::hash_digest_size(kind);
  support::ByteView views[N];
  std::vector<support::Bytes> actual(N, support::Bytes(digest_size));
  support::MutableByteView outs[N];
  for (std::size_t l = 0; l < N; ++l) {
    views[l] = messages[l];
    outs[l] = support::MutableByteView(actual[l]);
  }
  crypto::LaneHasher<N> lanes(kind, backend);
  lanes.digest(std::span<const support::ByteView>(views, N),
               std::span<const support::MutableByteView>(outs, N));
  for (std::size_t l = 0; l < N; ++l) {
    EXPECT_EQ(actual[l], crypto::hash_oneshot(kind, messages[l]))
        << crypto::hash_name(kind) << " N=" << N << " lane=" << l
        << " len=" << messages[l].size()
        << " backend=" << crypto::lane_backend_name(backend);
  }
}

template <std::size_t N>
void run_length_matrix(crypto::HashKind kind, crypto::LaneBackend backend) {
  // Boundary lengths: empty, sub-block, block +/- 1, two-block boundary,
  // multi-block, and large messages (SHA-256 two-tail-block threshold 56
  // and the BLAKE2s hold-back-one-byte boundary both covered).
  const std::size_t lens[] = {0, 1, 31, 55, 56, 63, 64, 65, 119, 127, 128, 129,
                              256, 4096, 5000};
  for (const std::size_t len : lens) {
    std::vector<support::Bytes> uniform;
    std::vector<support::Bytes> staggered;
    for (std::size_t l = 0; l < N; ++l) {
      uniform.push_back(random_bytes(len, 0xfeed0 + 131 * len + l));
      staggered.push_back(
          random_bytes((len * (l + 1)) / N, 0xfeed1 + 131 * len + l));
    }
    expect_lane_identity<N>(kind, backend, uniform);
    expect_lane_identity<N>(kind, backend, staggered);
  }
}

TEST(LaneHasher, MatchesScalarAcrossLengthMatrix) {
  for (const auto kind : kLaneKinds) {
    for (const auto backend : backends_under_test()) {
      run_length_matrix<2>(kind, backend);
      run_length_matrix<4>(kind, backend);
      run_length_matrix<8>(kind, backend);
    }
  }
}

TEST(LaneHasher, MatchesScalarOnRandomizedLengths) {
  support::Xoshiro256 rng(0x1a7e5);
  for (const auto kind : kLaneKinds) {
    for (const auto backend : backends_under_test()) {
      for (int iter = 0; iter < 64; ++iter) {
        std::vector<support::Bytes> messages;
        for (std::size_t l = 0; l < 4; ++l) {
          messages.push_back(
              random_bytes(static_cast<std::size_t>(rng.below(700)),
                           0xabc + 1000 * iter + l));
        }
        expect_lane_identity<4>(kind, backend, messages);
      }
    }
  }
}

TEST(LaneHasher, SupportedKindsAndErrors) {
  EXPECT_TRUE(crypto::lanes_supported(crypto::HashKind::kSha256));
  EXPECT_TRUE(crypto::lanes_supported(crypto::HashKind::kBlake2s));
  EXPECT_FALSE(crypto::lanes_supported(crypto::HashKind::kSha512));
  EXPECT_FALSE(crypto::lanes_supported(crypto::HashKind::kBlake2b));
  EXPECT_THROW(crypto::LaneHasher<4> lanes(crypto::HashKind::kSha512),
               std::invalid_argument);
  EXPECT_GE(crypto::preferred_lanes(), std::size_t{4});

  // Mismatched output sizes must be rejected, not truncated.
  const support::Bytes msg = random_bytes(64, 1);
  support::Bytes small(16);
  support::ByteView views[2] = {msg, msg};
  support::MutableByteView outs[2] = {support::MutableByteView(small),
                                      support::MutableByteView(small)};
  crypto::LaneHasher<2> lanes(crypto::HashKind::kSha256);
  EXPECT_THROW(lanes.digest(std::span<const support::ByteView>(views, 2),
                            std::span<const support::MutableByteView>(outs, 2)),
               std::invalid_argument);
}

TEST(DigestMany, MatchesScalarForAnyCountAndKind) {
  // digest_many packs lane-capable kinds and falls back to a reused scalar
  // state otherwise — identical bytes either way, for any batch size
  // (including sizes that leave scalar tails behind full waves).
  for (const auto kind : {crypto::HashKind::kSha256, crypto::HashKind::kSha512,
                          crypto::HashKind::kBlake2b, crypto::HashKind::kBlake2s}) {
    const std::size_t digest_size = crypto::hash_digest_size(kind);
    for (const std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                                    std::size_t{3}, std::size_t{5}, std::size_t{8},
                                    std::size_t{9}, std::size_t{17}}) {
      std::vector<support::Bytes> messages;
      std::vector<support::Bytes> actual(count, support::Bytes(digest_size));
      std::vector<support::ByteView> views;
      std::vector<support::MutableByteView> outs;
      for (std::size_t i = 0; i < count; ++i) {
        messages.push_back(random_bytes(37 * i + (i % 3), 0x9d + i));
        views.push_back(messages[i]);
        outs.push_back(support::MutableByteView(actual[i]));
      }
      crypto::digest_many(kind, views, outs);
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(actual[i], crypto::hash_oneshot(kind, messages[i]))
            << crypto::hash_name(kind) << " count=" << count << " i=" << i;
      }
    }
  }
}

TEST(LaneHasher, HotLoopDoesNotAllocate) {
  // The lane digest path must be heap-free: one warm-up wave, then any
  // number of waves without a single operator-new call.  (The reusable
  // scalar overloads hash_oneshot_into / finalize_into share this bar —
  // BlockDigester builds on both.)
  const support::Bytes msg = random_bytes(4096, 7);
  support::Bytes sink(32 * 8);
  support::ByteView views[8];
  support::MutableByteView outs[8];
  for (std::size_t l = 0; l < 8; ++l) {
    views[l] = msg;
    outs[l] = support::MutableByteView(sink.data() + 32 * l, 32);
  }
  for (const auto kind : kLaneKinds) {
    crypto::LaneHasher<8> lanes(kind);
    auto scalar = crypto::make_hash(kind);
    lanes.digest(std::span<const support::ByteView>(views, 8),
                 std::span<const support::MutableByteView>(outs, 8));
    crypto::hash_oneshot_into(*scalar, msg, outs[0]);

    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    for (int iter = 0; iter < 16; ++iter) {
      lanes.digest(std::span<const support::ByteView>(views, 8),
                   std::span<const support::MutableByteView>(outs, 8));
      crypto::hash_oneshot_into(*scalar, msg, outs[0]);
    }
    const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(before, after) << crypto::hash_name(kind)
                             << ": hot loop allocated on the heap";
  }
}

TEST(LaneHasher, ConcurrentBatchesFromShardPool) {
  // TSan payload: many shard-pool workers drive independent LaneHasher
  // batches concurrently (the fleet/golden usage pattern).  Each trial
  // verifies its own lanes against the scalar path; the campaign engine
  // asserts every trial succeeded on every thread.
  exp::CampaignSpec spec;
  spec.name = "lane_concurrency";
  spec.trials_per_point = 64;
  spec.threads = 4;
  spec.shard_size = 4;
  spec.trial = [](const exp::GridPoint&, exp::TrialContext& context) {
    exp::TrialOutput out;
    for (const auto kind : kLaneKinds) {
      std::vector<support::Bytes> messages;
      support::ByteView views[4];
      support::Bytes actual[4];
      support::MutableByteView outs[4];
      const std::size_t digest_size = crypto::hash_digest_size(kind);
      for (std::size_t l = 0; l < 4; ++l) {
        messages.push_back(random_bytes(
            static_cast<std::size_t>(context.rng.below(300)),
            context.seed ^ (0x51ab + l)));
        views[l] = messages[l];
        actual[l].resize(digest_size);
        outs[l] = support::MutableByteView(actual[l]);
      }
      crypto::LaneHasher<4> lanes(kind);
      lanes.digest(std::span<const support::ByteView>(views, 4),
                   std::span<const support::MutableByteView>(outs, 4));
      for (std::size_t l = 0; l < 4; ++l) {
        out.bernoulli(actual[l] == crypto::hash_oneshot(kind, messages[l]));
      }
    }
    out.require(out.successes == out.attempts,
                "lane digests diverged from scalar under concurrency");
    return out;
  };
  const exp::CampaignResult result = exp::run_campaign(spec);
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_EQ(result.cells[0].successes, result.cells[0].attempts);
}

}  // namespace

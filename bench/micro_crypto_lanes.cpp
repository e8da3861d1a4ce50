/// Multi-lane digest gate: identity, throughput and per-block MAC cost for
/// the lane-packed crypto hot path (src/crypto/lanes.hpp).
///
/// Three sections, all folded into BENCH_crypto_lanes.json:
///
///  1. Identity sweep — every (hash, lane-count, backend, length) cell,
///     including staggered per-lane lengths, must produce digests
///     byte-identical to the scalar path.  Deterministic; a fingerprint of
///     the scalar digests is emitted so the baseline gate catches silent
///     digest drift across platforms, not just lane/scalar divergence.
///  2. Lane throughput — lanes=1 (the portable one-stream SHA-256 kernel;
///     the reused BLAKE2s streaming state) vs LaneHasher<4> and
///     LaneHasher<8> on the portable fallback and, when compiled, the
///     SIMD backend.  On a SHA-NI CPU, also the SHA-NI one-stream kernel
///     (the streaming Sha256 class) and its two-stream pairs (digest_many).
///     Best-of-K timing; exits non-zero unless portable 4-way SHA-256 is
///     at least 2x the portable one-stream loop, or, when SHA-NI is active,
///     unless its one stream is at least 3x that loop (ratios are taken
///     within one process run so they survive noisy CI machines).
///  3. Per-block MAC cost — CBC-MAC vs HMAC-SHA256 vs BLAKE2s through
///     BlockDigester::digest at the exact measurement block sizes (64 B
///     fleet blocks, 4096 B micro_measurement blocks), in blocks/s.
///
/// Wall-clock leaves ("seconds", "per_s") are machine-dependent; CI diffs
/// the artifact with those ignored and only the deterministic leaves and
/// (loosely) the speedups gated — see .github/workflows/ci.yml.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "src/attest/measurement.hpp"
#include "src/crypto/hash.hpp"
#include "src/crypto/lanes.hpp"
#include "src/crypto/sha256.hpp"
#include "src/crypto/sha256_core.hpp"
#include "src/obs/bench_io.hpp"
#include "src/obs/metrics.hpp"
#include "src/support/rng.hpp"
#include "src/support/table.hpp"

using namespace rasc;

namespace {

bool expect(bool condition, const char* what) {
  std::printf("  [%s] %s\n", condition ? "ok" : "FAIL", what);
  return condition;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

using support::random_bytes;

std::string hash_label(crypto::HashKind kind) {
  return kind == crypto::HashKind::kSha256 ? "sha256" : "blake2s";
}

// --- 1. identity -----------------------------------------------------------

/// Run every lane configuration over `lens` (uniform and staggered) and
/// compare against the scalar digests.  Returns cells checked; failures
/// are counted into `failures`.  XORs the first 8 bytes of every scalar
/// digest into `fingerprint` (deterministic across platforms).
template <std::size_t N>
std::size_t identity_cells(crypto::HashKind kind, crypto::LaneBackend backend,
                           const std::vector<std::size_t>& lens,
                           std::size_t& failures, std::uint64_t& fingerprint) {
  const std::size_t digest_size = crypto::hash_digest_size(kind);
  auto hasher = crypto::make_hash(kind);
  std::size_t cells = 0;
  // One uniform pack per length plus one staggered pack ((len*(l+1))/N per
  // lane) — the staggered pack forces the divergent scalar-tail path.
  for (const bool staggered : {false, true}) {
    for (const std::size_t len : lens) {
      support::Bytes messages[N];
      support::Bytes expected[N];
      support::Bytes actual[N];
      support::ByteView views[N];
      support::MutableByteView outs[N];
      for (std::size_t l = 0; l < N; ++l) {
        const std::size_t lane_len = staggered ? (len * (l + 1)) / N : len;
        messages[l] = random_bytes(lane_len, 0x1a5e + 977 * len + l);
        expected[l].resize(digest_size);
        actual[l].resize(digest_size);
        crypto::hash_oneshot_into(*hasher, messages[l],
                                  support::MutableByteView(expected[l]));
        views[l] = messages[l];
        outs[l] = support::MutableByteView(actual[l]);
        for (std::size_t i = 0; i + 8 <= digest_size; i += 8) {
          std::uint64_t word = 0;
          for (std::size_t b = 0; b < 8; ++b) {
            word = (word << 8) | expected[l][i + b];
          }
          // Multiply-accumulate (not XOR): repeated identical digests must
          // not cancel out of the fold.
          fingerprint = fingerprint * 0x100000001b3ull + word;
        }
      }
      crypto::LaneHasher<N> lanes(kind, backend);
      lanes.digest(std::span<const support::ByteView>(views, N),
                   std::span<const support::MutableByteView>(outs, N));
      for (std::size_t l = 0; l < N; ++l) {
        ++cells;
        if (actual[l] != expected[l]) ++failures;
      }
    }
  }
  return cells;
}

// --- 2. throughput ---------------------------------------------------------

constexpr std::size_t kMsgBytes = 4096;
constexpr std::size_t kMsgCount = 2048;  ///< per rep; 8 MiB hashed per rep
constexpr int kReps = 7;                 ///< best-of, for noisy machines

struct Throughput {
  double seconds = 0.0;   ///< best rep
  double mb_per_s = 0.0;
};

Throughput best_of(const std::function<void()>& rep) {
  double best = 1e300;
  for (int r = 0; r < kReps; ++r) {
    const double start = now_seconds();
    rep();
    best = std::min(best, now_seconds() - start);
  }
  return {best, static_cast<double>(kMsgBytes * kMsgCount) / best / 1e6};
}

/// One reused streaming hash state on the library's own core — SHA-NI for
/// SHA-256 when it is active.
Throughput stream_throughput(crypto::HashKind kind, const support::Bytes& pool,
                             support::Bytes& sink) {
  auto hasher = crypto::make_hash(kind);
  const std::size_t digest_size = hasher->digest_size();
  return best_of([&] {
    for (std::size_t m = 0; m < kMsgCount; ++m) {
      crypto::hash_oneshot_into(
          *hasher, support::ByteView(pool.data() + m * kMsgBytes, kMsgBytes),
          support::MutableByteView(sink.data() + m * digest_size, digest_size));
    }
  });
}

/// One-stream reference loop: for SHA-256 the portable kernel explicitly —
/// the arithmetic the lanes vectorise — and for BLAKE2s one reused hash
/// state (what BlockDigester's scalar path does per block).
Throughput scalar_throughput(crypto::HashKind kind, const support::Bytes& pool,
                             support::Bytes& sink) {
  if (kind == crypto::HashKind::kSha256) {
    return best_of([&] {
      for (std::size_t m = 0; m < kMsgCount; ++m) {
        crypto::detail::sha256_digest(
            support::ByteView(pool.data() + m * kMsgBytes, kMsgBytes),
            sink.data() + m * 32, crypto::detail::sha256_blocks_portable);
      }
    });
  }
  return stream_throughput(kind, pool, sink);
}

/// SHA-256 pairs on the two-stream kernel, through digest_many.
Throughput pair_throughput(const support::Bytes& pool, support::Bytes& sink) {
  std::vector<support::ByteView> views;
  std::vector<support::MutableByteView> outs;
  for (std::size_t m = 0; m < kMsgCount; ++m) {
    views.emplace_back(pool.data() + m * kMsgBytes, kMsgBytes);
    outs.emplace_back(sink.data() + m * 32, 32);
  }
  return best_of([&] { crypto::digest_many(crypto::HashKind::kSha256, views, outs); });
}

template <std::size_t N>
Throughput lane_throughput(crypto::HashKind kind, crypto::LaneBackend backend,
                           const support::Bytes& pool, support::Bytes& sink) {
  crypto::LaneHasher<N> lanes(kind, backend);
  const std::size_t digest_size = lanes.digest_size();
  support::ByteView views[N];
  support::MutableByteView outs[N];
  return best_of([&] {
    for (std::size_t m = 0; m + N <= kMsgCount; m += N) {
      for (std::size_t l = 0; l < N; ++l) {
        views[l] = support::ByteView(pool.data() + (m + l) * kMsgBytes, kMsgBytes);
        outs[l] =
            support::MutableByteView(sink.data() + (m + l) * digest_size, digest_size);
      }
      lanes.digest(std::span<const support::ByteView>(views, N),
                   std::span<const support::MutableByteView>(outs, N));
    }
  });
}

// --- 3. per-block MAC cost -------------------------------------------------

double block_mac_blocks_per_s(attest::MacKind mac, crypto::HashKind hash,
                              const support::Bytes& key, std::size_t block_size,
                              const support::Bytes& pool) {
  attest::BlockDigester digester(mac, hash, key);
  attest::Digest out;
  const std::size_t blocks = pool.size() / block_size;
  const Throughput t = best_of([&] {
    // Same total bytes as the lane section so one rep is comparable.
    for (std::size_t pass = 0; pass * blocks * block_size <
                               kMsgBytes * kMsgCount;
         ++pass) {
      for (std::size_t b = 0; b < blocks; ++b) {
        digester.digest(support::ByteView(pool.data() + b * block_size, block_size),
                        out);
      }
    }
  });
  const double passes =
      static_cast<double>(kMsgBytes * kMsgCount) / (blocks * block_size);
  return static_cast<double>(blocks) * passes / t.seconds;
}

}  // namespace

int main() {
  std::printf("=== multi-lane digest gate ===\n");
  std::printf("backends: portable%s%s; auto packs %zu lanes (%s); sha256 kernel: %s\n\n",
              crypto::simd_compiled() ? ", simd" : "",
              crypto::avx2_active() ? " (avx2)" : "",
              crypto::preferred_lanes(), crypto::lane_backend_name(),
              crypto::sha256_kernel_name());

  obs::MetricsRegistry registry;
  bool ok = true;

  const std::vector<std::size_t> lens = {0, 1, 55, 63, 64, 65, 127, 128, 4096, 5000};
  const std::vector<crypto::HashKind> kinds = {crypto::HashKind::kSha256,
                                               crypto::HashKind::kBlake2s};
  std::vector<crypto::LaneBackend> backends = {crypto::LaneBackend::kPortable};
  if (crypto::simd_compiled()) backends.push_back(crypto::LaneBackend::kSimd);

  // 1. identity
  std::size_t cells = 0;
  std::size_t failures = 0;
  std::uint64_t fingerprint = 0;
  for (const auto kind : kinds) {
    for (const auto backend : backends) {
      cells += identity_cells<2>(kind, backend, lens, failures, fingerprint);
      cells += identity_cells<4>(kind, backend, lens, failures, fingerprint);
      cells += identity_cells<8>(kind, backend, lens, failures, fingerprint);
    }
  }
  registry.gauge("crypto_lanes.identity_cells").set(static_cast<double>(cells));
  registry.gauge("crypto_lanes.identity_failures").set(static_cast<double>(failures));
  // Fold to 52 bits so the value survives the double-typed metrics gauge.
  registry.gauge("crypto_lanes.digest_fingerprint")
      .set(static_cast<double>(fingerprint & ((std::uint64_t{1} << 52) - 1)));
  char line[128];
  std::snprintf(line, sizeof(line), "lane digests byte-identical to scalar (%zu cells)",
                cells);
  ok &= expect(failures == 0, line);

  // 2. throughput
  const support::Bytes pool = random_bytes(kMsgBytes * kMsgCount, 0xfeed);
  support::Bytes sink(kMsgCount * 32);
  double sha256_portable_x4 = 0.0;
  double sha256_shani_x1 = 0.0;
  support::Table table(
      {"hash", "backend", "lanes", "best s", "MB/s", "speedup"});
  for (const auto kind : kinds) {
    const std::string label = hash_label(kind);
    const Throughput scalar = scalar_throughput(kind, pool, sink);
    registry.gauge("crypto_lanes." + label + ".scalar_seconds").set(scalar.seconds);
    registry.gauge("crypto_lanes." + label + ".scalar_mb_per_s").set(scalar.mb_per_s);
    table.add_row({label, "scalar", "1", support::fmt_double(scalar.seconds, 4),
                   support::fmt_double(scalar.mb_per_s, 1), "1.0"});
    if (kind == crypto::HashKind::kSha256 && crypto::detail::sha256_shani_active()) {
      const Throughput x1 = stream_throughput(kind, pool, sink);
      const Throughput x2 = pair_throughput(pool, sink);
      sha256_shani_x1 = scalar.seconds / x1.seconds;
      const double s2 = scalar.seconds / x2.seconds;
      registry.gauge("crypto_lanes.sha256.shani_x1_speedup").set(sha256_shani_x1);
      registry.gauge("crypto_lanes.sha256.shani_x1_mb_per_s").set(x1.mb_per_s);
      registry.gauge("crypto_lanes.sha256.shani_x2_speedup").set(s2);
      registry.gauge("crypto_lanes.sha256.shani_x2_mb_per_s").set(x2.mb_per_s);
      table.add_row({label, "sha-ni", "1", support::fmt_double(x1.seconds, 4),
                     support::fmt_double(x1.mb_per_s, 1),
                     support::fmt_double(sha256_shani_x1, 2)});
      table.add_row({label, "sha-ni", "2", support::fmt_double(x2.seconds, 4),
                     support::fmt_double(x2.mb_per_s, 1), support::fmt_double(s2, 2)});
    }
    for (const auto backend : backends) {
      const bool portable = backend == crypto::LaneBackend::kPortable;
      const std::string bname =
          portable ? "portable" : crypto::lane_backend_name(backend);
      const Throughput x4 = lane_throughput<4>(kind, backend, pool, sink);
      const Throughput x8 = lane_throughput<8>(kind, backend, pool, sink);
      const double s4 = scalar.seconds / x4.seconds;
      const double s8 = scalar.seconds / x8.seconds;
      if (portable && kind == crypto::HashKind::kSha256) sha256_portable_x4 = s4;
      registry.gauge("crypto_lanes." + label + "." + bname + "_x4_speedup").set(s4);
      registry.gauge("crypto_lanes." + label + "." + bname + "_x8_speedup").set(s8);
      registry.gauge("crypto_lanes." + label + "." + bname + "_x8_mb_per_s")
          .set(x8.mb_per_s);
      table.add_row({label, bname, "4", support::fmt_double(x4.seconds, 4),
                     support::fmt_double(x4.mb_per_s, 1), support::fmt_double(s4, 2)});
      table.add_row({label, bname, "8", support::fmt_double(x8.seconds, 4),
                     support::fmt_double(x8.mb_per_s, 1), support::fmt_double(s8, 2)});
    }
  }
  std::printf("\n%s\n", table.render().c_str());
  std::snprintf(line, sizeof(line),
                "portable 4-way SHA-256 >= 2x scalar (measured %.2fx)",
                sha256_portable_x4);
  ok &= expect(sha256_portable_x4 >= 2.0, line);
  if (crypto::detail::sha256_shani_active()) {
    std::snprintf(line, sizeof(line),
                  "SHA-NI one-stream SHA-256 >= 3x portable (measured %.2fx)",
                  sha256_shani_x1);
    ok &= expect(sha256_shani_x1 >= 3.0, line);
  }

  // 3. per-block MAC cost at the measurement block sizes
  const support::Bytes key = random_bytes(16, 0x6e7);
  support::Table mac_table({"F", "block B", "blocks/s"});
  for (const std::size_t block_size : {std::size_t{64}, std::size_t{4096}}) {
    struct Row {
      const char* label;
      attest::MacKind mac;
      crypto::HashKind hash;
    };
    const Row rows[] = {
        {"cbcmac_aes", attest::MacKind::kCbcMac, crypto::HashKind::kSha256},
        {"hash_sha256", attest::MacKind::kHmac, crypto::HashKind::kSha256},
        {"hash_blake2s", attest::MacKind::kHmac, crypto::HashKind::kBlake2s},
    };
    for (const Row& row : rows) {
      const double bps = block_mac_blocks_per_s(row.mac, row.hash, key, block_size, pool);
      registry
          .gauge("crypto_lanes.block_mac." + std::string(row.label) + "_" +
                 std::to_string(block_size) + "_blocks_per_s")
          .set(bps);
      mac_table.add_row({row.label, std::to_string(block_size),
                         support::fmt_double(bps / 1e3, 1) + "k"});
    }
  }
  std::printf("%s\n", mac_table.render().c_str());

  registry.gauge("crypto_lanes.simd_compiled")
      .set(crypto::simd_compiled() ? 1.0 : 0.0);

  const std::string path = obs::write_bench_json(registry, "crypto_lanes");
  if (!path.empty()) std::printf("machine-readable results: %s\n", path.c_str());

  if (!ok) {
    std::fprintf(stderr, "FAIL: lane identity or speedup gate failed\n");
    return 1;
  }
  return 0;
}

/// Layer probes: time one layer's hot public function in isolation, on
/// inputs shaped like the workload that owns the layer (fleet_lossy: the
/// campaign's 4 x 64 B shard image, 16 B shard key and 16 B challenge;
/// prover_churn: 4 KiB blocks; device_writer: the sim event queue).
/// Each figure is the median over repetitions of the per-call time.

#include <functional>
#include <memory>

#include "harness/common.hpp"
#include "src/apps/scenario.hpp"
#include "src/attest/golden.hpp"
#include "src/attest/measurement.hpp"
#include "src/attest/protocol.hpp"
#include "src/attest/report.hpp"
#include "src/attest/verifier.hpp"
#include "src/crypto/drbg.hpp"
#include "src/crypto/hmac.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/rng.hpp"

namespace hostbench {

namespace {

constexpr int kReps = 7;

/// Median over kReps of (time of `iters` calls) / iters, in ns.
double per_call_ns(std::size_t iters, const std::function<void()>& fn) {
  std::vector<double> reps;
  for (int r = 0; r < kReps; ++r) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < iters; ++i) fn();
    reps.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(iters));
  }
  return median(reps);
}

volatile std::uint8_t g_sink;  // keeps probe results observable

}  // namespace

void run_layer_probes(std::uint64_t seed, WorkloadResult& out) {
  using namespace rasc;
  const support::Bytes key = apps::provision_image(16, mix(seed, 0x6e7f));
  const support::Bytes challenge = apps::provision_image(16, mix(seed, 0xc4a1));
  const support::Bytes shard_image = apps::provision_image(4 * 64, mix(seed, 0x1a9e));
  auto golden = std::make_shared<const attest::GoldenMeasurement>(
      shard_image, 64, crypto::HashKind::kSha256, key);

  // crypto: one short-message HMAC the way the callers make it today
  // (a 16 B challenge plus an 8 B counter, under the shard key).
  support::Bytes message = challenge;
  message.resize(24, 0x5a);
  out.metric("crypto.hmac_short_ns", per_call_ns(20000, [&] {
               g_sink = crypto::Hmac::compute(crypto::HashKind::kSha256, key, message)[0];
             }),
             "ns");

  support::Bytes drbg_seed(8);
  support::put_u64_be(drbg_seed, mix(seed, 0xd7b9));
  out.metric("crypto.drbg_seed_ns", per_call_ns(5000, [&] {
               crypto::HmacDrbg drbg(drbg_seed);
               g_sink = drbg.generate(1)[0];
             }),
             "ns");

  // attest: challenge request seal + open; Verifier construction (every
  // fleet wake builds one); verification of a valid flat report.
  const attest::ChallengeRequest request{mix(seed, 3), challenge};
  out.metric("attest.seal_open_ns", per_call_ns(10000, [&] {
               const support::Bytes wire = attest::seal_challenge_request(request, key);
               g_sink = attest::open_challenge_request(wire, key).has_value();
             }),
             "ns");
  out.metric("attest.verifier_ctor_ns", per_call_ns(5000, [&] {
               attest::Verifier v(golden, key, seed);
               g_sink = static_cast<std::uint8_t>(v.last_counter());
             }),
             "ns");

  attest::Verifier verifier(golden, key, seed);
  attest::Report report;
  report.device_id = "prv-probe";
  report.challenge = verifier.issue_challenge();
  report.counter = 1;
  report.measurement =
      golden->expected({report.device_id, report.challenge, report.counter});
  attest::authenticate_report(report, key);
  if (!verifier.verify(report).ok()) {
    out.violations.push_back("probe: a valid report failed verification");
  }
  out.metric("attest.verify_ns", per_call_ns(5000, [&] {
               g_sink = verifier.verify(report).ok();
             }),
             "ns");

  // crypto: BlockDigester on 4 KiB blocks, batch (what atomic
  // measurement uses) and scalar.
  constexpr std::size_t kDigestBlocks = 64;
  constexpr std::size_t kBlock = 4096;
  const support::Bytes blocks = apps::provision_image(kDigestBlocks * kBlock, mix(seed, 4));
  attest::BlockDigester digester(attest::MacKind::kHmac, crypto::HashKind::kSha256, key);
  std::vector<support::ByteView> views;
  std::vector<attest::Digest> digests(kDigestBlocks);
  std::vector<attest::Digest*> outs;
  for (std::size_t b = 0; b < kDigestBlocks; ++b) {
    views.emplace_back(blocks.data() + b * kBlock, kBlock);
    outs.push_back(&digests[b]);
  }
  const double kib = static_cast<double>(kDigestBlocks * kBlock) / 1024.0;
  out.metric("crypto.block_digest_ns_per_kib",
             per_call_ns(4, [&] { digester.digest_batch(views, outs); }) / kib, "ns");
  out.metric("crypto.block_digest_scalar_ns_per_kib", per_call_ns(4, [&] {
               for (std::size_t b = 0; b < kDigestBlocks; ++b) {
                 digester.digest(views[b], digests[b]);
               }
             }) / kib,
             "ns");

  // sim: schedule_at plus firing of no-op events at seeded times.
  constexpr std::size_t kEvents = 20000;
  std::vector<sim::Time> times(kEvents);
  support::Xoshiro256 rng(mix(seed, 5));
  for (auto& t : times) t = rng.below(sim::kSecond);
  std::size_t fired = 0;
  const double per_batch = per_call_ns(3, [&] {
    sim::Simulator simulator;
    for (sim::Time t : times) simulator.schedule_at(t, [&fired] { ++fired; });
    simulator.run();
  });
  if (fired != 3 * kReps * kEvents) {
    out.violations.push_back("probe: simulator fired the wrong number of events");
  }
  out.metric("sim.event_ns", per_batch / static_cast<double>(kEvents), "ns");
}

}  // namespace hostbench

/// prover_churn: one large-memory prover measured round after round.
/// Before each round the application rewrites a dirty fraction of the
/// blocks (1% to 100%, log-spaced) with their provisioned content, so
/// generations change but the verdict stays "verified".  Half the rounds
/// measure flat through the process's digest cache, half in Merkle-tree
/// mode; every report is checked by an attest::Verifier against one
/// shared golden.  A batch is one pass over every (fraction, mode) pair
/// in a seeded order; the prover is provisioned afresh every 8 batches.

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "harness/common.hpp"
#include "src/apps/scenario.hpp"
#include "src/attest/golden.hpp"
#include "src/attest/measurement.hpp"
#include "src/attest/prover.hpp"
#include "src/attest/verifier.hpp"
#include "src/mtree/incremental.hpp"
#include "src/sim/device.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/rng.hpp"

namespace hostbench {

namespace {

constexpr std::size_t kBlocks = 512;
constexpr std::size_t kTinyBlocks = 32;
constexpr std::size_t kBlockSize = 4096;
constexpr std::size_t kFractions = 16;  ///< log-spaced from 1% to 100%
constexpr std::size_t kRebuildEvery = 8;  ///< batches per provisioning
constexpr std::size_t kMinBatches = 3;

/// Everything a round needs; built once per set-up.
struct Prover {
  Prover(std::uint64_t seed, std::size_t blocks)
      : image(rasc::apps::provision_image(blocks * kBlockSize, mix(seed, 0x1a9e))),
        key(rasc::apps::provision_image(16, mix(seed, 0x6e7f))),
        device(sim, device_config(blocks, key)),
        golden(std::make_shared<const rasc::attest::GoldenMeasurement>(
            image, kBlockSize, rasc::crypto::HashKind::kSha256, key)),
        flat_vrf(golden, key, mix(seed, 1)),
        tree_vrf(golden, key, mix(seed, 2)),
        flat_mp(device, prover_config(false)),
        tree_mp(device, prover_config(true)) {
    device.memory().load(image);
    // Bound the write log: rounds never read it, and an unbounded log
    // would make peak RSS depend on how many rounds a run completes.
    device.memory().set_write_log_capacity(1024);
    tree_mp.prime_tree();
  }

  static rasc::sim::DeviceConfig device_config(std::size_t blocks,
                                               const rasc::support::Bytes& key) {
    rasc::sim::DeviceConfig c;
    c.id = "prv-churn";
    c.memory_size = blocks * kBlockSize;
    c.block_size = kBlockSize;
    c.attestation_key = key;
    return c;
  }

  static rasc::attest::ProverConfig prover_config(bool tree) {
    rasc::attest::ProverConfig c;
    c.mode = rasc::attest::ExecutionMode::kAtomic;
    c.use_digest_cache = true;
    c.use_merkle_tree = tree;
    return c;
  }

  rasc::support::Bytes image;
  rasc::support::Bytes key;
  rasc::sim::Simulator sim;
  rasc::sim::Device device;
  std::shared_ptr<const rasc::attest::GoldenMeasurement> golden;
  rasc::attest::Verifier flat_vrf;
  rasc::attest::Verifier tree_vrf;
  rasc::attest::AttestationProcess flat_mp;
  rasc::attest::AttestationProcess tree_mp;
  std::uint64_t counter = 0;
};

struct Step {
  double fraction;
  bool tree;
  std::size_t cls;  ///< index in the unshuffled pass
};

constexpr std::size_t kClasses = 2 * kFractions;

std::vector<Step> shuffled_pass(std::uint64_t pass_seed) {
  std::vector<Step> steps;
  for (std::size_t i = 0; i < kFractions; ++i) {
    const double f = 0.01 * std::pow(100.0, static_cast<double>(i) / (kFractions - 1));
    steps.push_back({f, false, steps.size()});
    steps.push_back({f, true, steps.size()});
  }
  rasc::support::Xoshiro256 rng(pass_seed);
  for (std::size_t i = steps.size(); i > 1; --i) {
    std::swap(steps[i - 1], steps[static_cast<std::size_t>(rng.below(i))]);
  }
  return steps;
}

/// `count` distinct blocks out of `blocks`, seeded.
std::vector<std::size_t> pick_blocks(std::size_t blocks, std::size_t count,
                                     std::uint64_t seed) {
  std::vector<std::size_t> all(blocks);
  for (std::size_t i = 0; i < blocks; ++i) all[i] = i;
  rasc::support::Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    std::swap(all[i], all[i + static_cast<std::size_t>(rng.below(blocks - i))]);
  }
  all.resize(count);
  std::sort(all.begin(), all.end());
  return all;
}

/// Rewrite `dirty` blocks with their provisioned bytes (generation bump,
/// same content).
void rewrite(Prover& p, const std::vector<std::size_t>& dirty) {
  for (std::size_t b : dirty) {
    const rasc::support::ByteView content(p.image.data() + b * kBlockSize, kBlockSize);
    p.device.memory().write(b * kBlockSize, content, p.sim.now(),
                            rasc::sim::Actor::kApplication);
  }
}

struct Counts {
  double digested = 0;
  double hits = 0;
  double misses = 0;
  double rounds = 0;
};

/// One pass, adding each round's host ms to `times`.  `dirty_log`
/// (optional) receives the dirty set of every tree-mode round.
void run_pass(Prover& p, std::size_t blocks, std::uint64_t pass_seed, Tracer* tracer,
              WorkloadResult& out, Fingerprint* fp, Counts& counts, RoundTimes& times,
              std::vector<std::vector<std::size_t>>* dirty_log) {
  const std::vector<Step> steps = shuffled_pass(pass_seed);
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const Step& step = steps[i];
    const auto count = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(step.fraction * static_cast<double>(blocks))));
    const std::vector<std::size_t> dirty = pick_blocks(blocks, count, mix(pass_seed, i));
    if (step.tree && dirty_log != nullptr) dirty_log->push_back(dirty);

    rasc::attest::AttestationProcess& mp = step.tree ? p.tree_mp : p.flat_mp;
    rasc::attest::Verifier& vrf = step.tree ? p.tree_vrf : p.flat_vrf;
    const std::uint64_t hits0 = p.flat_mp.digest_cache().hits();
    const std::uint64_t misses0 = p.flat_mp.digest_cache().misses();

    const std::int64_t t0 = now_ns();
    std::optional<rasc::attest::AttestationResult> result;
    rasc::attest::VerifyOutcome verdict;
    {
      Tracer::Scope s(tracer, "apps.rewrite");
      rewrite(p, dirty);
    }
    {
      Tracer::Scope s(tracer, "attest.measure");
      rasc::attest::MeasurementContext context{p.device.id(), vrf.issue_challenge(),
                                               ++p.counter};
      mp.start(std::move(context),
               [&result](rasc::attest::AttestationResult r) { result = std::move(r); });
      p.sim.run();
    }
    if (result) {
      Tracer::Scope s(tracer, "attest.verify");
      verdict = vrf.verify(result->report, /*expect_challenge=*/true);
    }
    times.add(step.cls, static_cast<double>(now_ns() - t0) / 1e6);

    // Ground truth: the content always equals the golden image.
    if (!result) ++out.unresolved;
    if (!result || !verdict.ok()) ++out.misjudged;

    std::size_t visited = 0;
    if (result) {
      for (const auto& t : result->visit_times) visited += t.has_value() ? 1 : 0;
    }
    const double round_misses =
        static_cast<double>(p.flat_mp.digest_cache().misses() - misses0);
    counts.rounds += 1;
    if (step.tree) {
      counts.digested += static_cast<double>(visited);
    } else {
      counts.digested += round_misses;
      counts.hits += static_cast<double>(p.flat_mp.digest_cache().hits() - hits0);
      counts.misses += round_misses;
    }

    if (fp != nullptr) {
      fp->add(static_cast<std::uint64_t>(step.tree));
      fp->add(static_cast<std::uint64_t>(dirty.size()));
      fp->add(static_cast<std::uint64_t>(result.has_value()));
      if (result) {
        const auto& m = result->report.measurement;
        fp->add_bytes(m.data(), m.size());
        fp->add(static_cast<std::uint64_t>(result->t_e - result->t_s));
        fp->add(static_cast<std::uint64_t>(visited));
        for (bool b : {verdict.mac_ok, verdict.digest_ok, verdict.challenge_ok,
                       verdict.counter_ok, verdict.used_tree, verdict.proofs_ok}) {
          fp->add(static_cast<std::uint64_t>(b));
        }
      }
    }
  }
}

/// mtree layer on the workload's own inputs: a standalone incremental
/// tree over a copy of the image, fed the dirty sets of the traced tree
/// rounds; times IncrementalTree::refresh and counts re-hashed nodes.
void mtree_layer(const Prover& p, std::size_t blocks,
                 const std::vector<std::vector<std::size_t>>& dirty_log, Tracer* tracer,
                 WorkloadResult& out) {
  rasc::sim::DeviceMemory memory(blocks * kBlockSize, kBlockSize);
  memory.load(p.image);
  memory.set_write_log_capacity(1024);
  rasc::attest::BlockDigester digester(rasc::attest::MacKind::kHmac,
                                       rasc::crypto::HashKind::kSha256, p.key);
  rasc::mtree::IncrementalTree tree(
      memory, rasc::crypto::HashKind::kSha256,
      [&digester](std::size_t, rasc::support::ByteView content, rasc::attest::Digest& d) {
        digester.digest(content, d);
      });
  tree.rebuild();
  double rehashed = 0;
  for (const auto& dirty : dirty_log) {
    for (std::size_t b : dirty) {
      memory.write(b * kBlockSize,
                   rasc::support::ByteView(p.image.data() + b * kBlockSize, kBlockSize), 0,
                   rasc::sim::Actor::kApplication);
    }
    Tracer::Scope s(tracer, "mtree.refresh");
    rehashed += static_cast<double>(tree.refresh().nodes_rehashed);
  }
  out.metric("mtree.refresh_ms", median(tracer->durations("mtree.refresh")) / 1e6, "ms");
  out.metric("mtree.rehash_per_round",
             dirty_log.empty() ? 0.0 : rehashed / static_cast<double>(dirty_log.size()),
             "count");
}

}  // namespace

WorkloadResult run_prover_churn(const RunSpec& spec, Tracer* tracer) {
  const std::size_t blocks = spec.tiny ? kTinyBlocks : kBlocks;
  WorkloadResult out;
  Counts counts;
  std::vector<double> setups;
  RoundTimes times(kClasses);
  std::vector<std::vector<std::size_t>> dirty_log;
  std::unique_ptr<Prover> prover;

  {
    Tracer::Scope root(tracer, "workload");
    double timed_s = 0.0;
    for (std::size_t batch = 0;; ++batch) {
      // Re-provision every kRebuildEvery batches: each build is a set-up
      // sample, so the best set-up is taken over the whole run like the
      // rounds' best times.
      if (batch % kRebuildEvery == 0) {
        prover.reset();
        const std::int64_t t0 = now_ns();
        {
          Tracer::Scope s(tracer, "setup");
          prover = std::make_unique<Prover>(spec.seed, blocks);
        }
        setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
      }
      Fingerprint fp;
      const std::int64_t t0 = now_ns();
      run_pass(*prover, blocks, mix(spec.seed, 0x100 + batch), tracer, out,
               batch == 0 ? &fp : nullptr, counts, times,
               spec.trace && batch == 0 ? &dirty_log : nullptr);
      timed_s += static_cast<double>(now_ns() - t0) / 1e9;
      if (batch == 0) out.fingerprint = fp.hex();
      if (spec.fingerprint_only) return out;
      out.attempted += kClasses;
      if (timed_s >= spec.seconds && batch + 1 >= kMinBatches) break;
    }
  }

  add_end_to_end(out, times, setups);
  if (!spec.trace) return out;

  out.metric("attest.measure_ms", median(tracer->durations("attest.measure")) / 1e6, "ms");
  out.metric("attest.verify_ns", median(tracer->durations("attest.verify")), "ns");
  out.metric("attest.blocks_digested_per_round", counts.digested / counts.rounds, "count");
  const double lookups = counts.hits + counts.misses;
  out.metric("attest.digest_cache.hit_ratio", lookups > 0 ? counts.hits / lookups : 0.0,
             "share");
  mtree_layer(*prover, blocks, dirty_log, tracer, out);
  return out;
}

}  // namespace hostbench

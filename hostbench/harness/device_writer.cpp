/// device_writer: the paper's safety-critical conflict on one device.
/// Each round is one apps::run_lock_scenario: an interruptible
/// measurement of a 64 KiB image while the data-logging writer runs.  A
/// batch is one pass over every Table 1 lock mechanism crossed with the
/// adversaries none / transient / relocating, in a seeded order.  Each
/// round builds its own device inside run_lock_scenario, so no state
/// carries between rounds; the set-up figure times that build on its own
/// (provisioning image plus golden measurement), once before each pass.

#include <algorithm>
#include <iterator>
#include <stdexcept>

#include "harness/common.hpp"
#include "src/apps/scenario.hpp"
#include "src/attest/golden.hpp"
#include "src/locking/policies.hpp"
#include "src/support/rng.hpp"

namespace hostbench {

namespace {

constexpr std::size_t kBlocks = 64;
constexpr std::size_t kTinyBlocks = 16;
constexpr std::size_t kBlockSize = 1024;
constexpr std::size_t kMinBatches = 3;

constexpr rasc::apps::AdversaryKind kAdversaries[] = {
    rasc::apps::AdversaryKind::kNone,
    rasc::apps::AdversaryKind::kTransientLeaver,
    rasc::apps::AdversaryKind::kRelocChase,
};

struct Combo {
  rasc::locking::LockMechanism lock;
  rasc::apps::AdversaryKind adversary;
  std::size_t cls;  ///< index in the unshuffled pass
};

constexpr std::size_t kClasses =
    std::size(rasc::locking::kAllLockMechanisms) * std::size(kAdversaries);

std::vector<Combo> shuffled_pass(std::uint64_t pass_seed) {
  std::vector<Combo> combos;
  for (auto lock : rasc::locking::kAllLockMechanisms) {
    for (auto adversary : kAdversaries) combos.push_back({lock, adversary, combos.size()});
  }
  rasc::support::Xoshiro256 rng(pass_seed);
  for (std::size_t i = combos.size(); i > 1; --i) {
    std::swap(combos[i - 1], combos[static_cast<std::size_t>(rng.below(i))]);
  }
  return combos;
}

bool extended(rasc::locking::LockMechanism lock) {
  return lock == rasc::locking::LockMechanism::kAllLockExt ||
         lock == rasc::locking::LockMechanism::kIncLockExt;
}

struct Totals {
  double writes = 0;
  double blocked = 0;
  double rounds = 0;
};

/// Runs one pass, adding each round's host ms to `times`.
void run_pass(const RunSpec& spec, std::uint64_t pass, Tracer* tracer, WorkloadResult& out,
              Fingerprint* fp, Totals& totals, RoundTimes& times) {
  const std::vector<Combo> combos = shuffled_pass(mix(spec.seed, pass));
  for (std::size_t i = 0; i < combos.size(); ++i) {
    rasc::apps::LockScenarioConfig config;
    config.blocks = spec.tiny ? kTinyBlocks : kBlocks;
    config.block_size = kBlockSize;
    config.mode = rasc::attest::ExecutionMode::kInterruptible;
    config.lock = combos[i].lock;
    config.release_delay = extended(config.lock) ? 2 * rasc::sim::kMillisecond : 0;
    config.adversary = combos[i].adversary;
    config.writer_enabled = true;
    config.seed = mix(mix(spec.seed, pass), i);

    rasc::apps::LockScenarioOutcome o;
    const std::int64_t t0 = now_ns();
    {
      Tracer::Scope s(tracer, "apps.scenario");
      o = rasc::apps::run_lock_scenario(config);
    }
    times.add(combos[i].cls, static_cast<double>(now_ns() - t0) / 1e6);

    // Ground truth: malware is present at t_s exactly when an adversary
    // runs; the right verdict is then "detected".
    if (!o.completed) ++out.unresolved;
    if (!o.completed || o.detected != o.malware_present_at_ts) ++out.misjudged;
    totals.writes += static_cast<double>(o.writer_attempts_during);
    totals.blocked += static_cast<double>(o.writer_blocked_during);
    totals.rounds += 1;

    if (fp != nullptr) {
      fp->add(static_cast<std::uint64_t>(config.lock));
      fp->add(static_cast<std::uint64_t>(config.adversary));
      for (bool b : {o.completed, o.verdict.mac_ok, o.verdict.digest_ok,
                     o.verdict.challenge_ok, o.verdict.counter_ok, o.detected,
                     o.consistency.at_ts, o.consistency.at_te, o.consistency.at_tr,
                     o.malware_escaped}) {
        fp->add(static_cast<std::uint64_t>(b));
      }
      fp->add(static_cast<std::uint64_t>(o.measurement_duration));
      fp->add(static_cast<std::uint64_t>(o.writer_attempts_during));
      fp->add(static_cast<std::uint64_t>(o.writer_blocked_during));
      fp->add(o.writer_availability);
      fp->add(static_cast<std::uint64_t>(o.malware_blocked_actions));
    }
  }
}

/// Host seconds to build one round's device inputs through the public
/// APIs run_lock_scenario builds them with: the provisioning image and
/// the golden measurement its verifier digests.
double provision_s(const RunSpec& spec, std::uint64_t pass) {
  const std::size_t blocks = spec.tiny ? kTinyBlocks : kBlocks;
  const rasc::support::Bytes key = rasc::support::to_bytes("table1-shared-key");
  const std::int64_t t0 = now_ns();
  const rasc::support::Bytes image =
      rasc::apps::provision_image(blocks * kBlockSize, mix(spec.seed, pass));
  const rasc::attest::GoldenMeasurement golden(image, kBlockSize,
                                               rasc::crypto::HashKind::kSha256, key);
  const double s = static_cast<double>(now_ns() - t0) / 1e9;
  if (golden.block_count() != blocks) throw std::logic_error("golden block count");
  return s;
}

}  // namespace

WorkloadResult run_device_writer(const RunSpec& spec, Tracer* tracer) {
  WorkloadResult out;
  Totals totals;
  std::vector<double> setups;
  RoundTimes times(kClasses);

  {
    Tracer::Scope root(tracer, "workload");
    double timed_s = 0.0;
    for (std::size_t pass = 0;; ++pass) {
      {
        Tracer::Scope s(tracer, "setup");
        setups.push_back(provision_s(spec, pass));
      }
      Fingerprint fp;
      const std::int64_t t0 = now_ns();
      run_pass(spec, pass, tracer, out, pass == 0 ? &fp : nullptr, totals, times);
      timed_s += static_cast<double>(now_ns() - t0) / 1e9;
      if (pass == 0) out.fingerprint = fp.hex();
      if (spec.fingerprint_only) return out;
      out.attempted += kClasses;
      if (timed_s >= spec.seconds && pass + 1 >= kMinBatches) break;
    }
  }

  add_end_to_end(out, times, setups);
  if (!spec.trace) return out;

  out.metric("apps.scenario_ms", median(tracer->durations("apps.scenario")) / 1e6, "ms");
  out.metric("apps.writer_writes_per_round", totals.writes / totals.rounds, "count");
  out.metric("locking.blocked_writes_per_round", totals.blocked / totals.rounds, "count");
  return out;
}

}  // namespace hostbench

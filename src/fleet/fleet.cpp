#include "src/fleet/fleet.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <stdexcept>

#include "src/exp/seeding.hpp"
#include "src/support/rng.hpp"

namespace rasc::fleet {

namespace detail {

std::uint64_t device_stream(std::uint64_t fleet_seed, std::uint64_t device,
                            std::uint64_t salt) noexcept {
  return exp::mix64(fleet_seed ^ exp::mix64(device ^ exp::mix64(salt)));
}

std::uint64_t shard_stream(std::uint64_t fleet_seed, std::uint64_t shard,
                           std::uint64_t salt) noexcept {
  return exp::mix64(exp::mix64(fleet_seed ^ salt) + shard);
}

std::size_t resolve_shards(const FleetConfig& config) noexcept {
  if (config.shards != 0) {
    return std::min(config.shards, std::max<std::size_t>(config.devices, 1));
  }
  const std::size_t autos = (config.devices + 4095) / 4096;
  return std::max<std::size_t>(autos, 1);
}

std::pair<std::size_t, std::size_t> infection_range(const FleetConfig& config) noexcept {
  const std::size_t count =
      std::min(std::max<std::size_t>(config.infection_blocks, 1), config.blocks);
  // Centered like the legacy single-byte patch (block size/2), clamped so
  // the range fits; count == 1 reproduces the legacy patch exactly.
  const std::size_t first = std::min(config.blocks / 2, config.blocks - count);
  return {first, count};
}

}  // namespace detail

std::string stagger_policy_name(StaggerPolicy policy) {
  switch (policy) {
    case StaggerPolicy::kBurst: return "burst";
    case StaggerPolicy::kUniform: return "uniform";
    case StaggerPolicy::kShardPhased: return "shard_phased";
  }
  return "?";
}

StaggerPolicy parse_stagger_policy(const std::string& name) {
  for (StaggerPolicy policy : {StaggerPolicy::kBurst, StaggerPolicy::kUniform,
                               StaggerPolicy::kShardPhased}) {
    if (stagger_policy_name(policy) == name) return policy;
  }
  throw std::invalid_argument("unknown stagger policy '" + name + "'");
}

const RoundRecord& FleetResult::round(std::size_t device, std::size_t epoch) const {
  if (epoch >= epochs) {
    throw std::out_of_range("FleetResult::round: epoch out of range");
  }
  return rounds.at(device * epochs + epoch);
}

std::vector<sim::Time> FleetResult::start_times(std::size_t device) const {
  std::vector<sim::Time> times;
  times.reserve(epochs);
  for (std::size_t e = 0; e < epochs; ++e) times.push_back(round(device, e).started);
  return times;
}

namespace {

using detail::device_stream;
using detail::shard_stream;

// Fixed salts for the per-device / per-shard seed streams.  Treat like a
// wire format: the recorded BENCH_fleet baselines depend on them.
constexpr std::uint64_t kChallengeSalt = 0xc0ffee01;
constexpr std::uint64_t kLinkForwardSalt = 0x11c40001;
constexpr std::uint64_t kLinkReverseSalt = 0x11c40002;
constexpr std::uint64_t kSessionSalt = 0x5e551001;
constexpr std::uint64_t kImageSalt = 0x1a9e0001;
constexpr std::uint64_t kKeySalt = 0x6e7f0001;
constexpr std::uint64_t kRosterSalt = 0x1f3c7ed1;

/// Estimated bytes of one DigestCache slot (the Slot layout is private;
/// the accounting only needs a stable, order-of-magnitude figure).
constexpr std::size_t kDigestCacheSlotBytes = sizeof(attest::Digest) + 32;
/// Per-device label strings (device id, trace tracks, session label) —
/// small and constant in N, estimated rather than introspected.
constexpr std::size_t kPerDeviceStringBytes = 128;
constexpr std::size_t kKeyBytes = 16;
/// Heap behind one HibernatedDevice record: the verifier DRBG snapshot
/// (K and V, 32 B each) plus the outstanding challenge.  The flat-mode
/// proof backlog is empty; tree-mode backlogs add 4 B per unacknowledged
/// block on top of this constant.
constexpr std::size_t kHibernatedHeapBytes = 96;

/// Order-independent stamp over the memory's generation counters.  A
/// rebuilt stack must reproduce it exactly (same load, same infection
/// patch): a mismatch means the rebuild diverged from the original
/// provisioning and the shared digest cache's generation keys are no
/// longer sound for this device.
std::uint64_t generation_summary(const sim::DeviceMemory& memory) {
  std::uint64_t h = exp::mix64(memory.generation());
  for (std::size_t b = 0; b < memory.block_count(); ++b) {
    h = exp::mix64(h ^ memory.block_generation(b));
  }
  return h;
}

std::uint64_t key_fingerprint(support::ByteView key) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (std::uint8_t b : key) h = exp::mix64(h ^ b);
  return h;
}

/// Compact between-rounds seed record of one device: everything a rebuilt
/// stack cannot re-derive from (FleetConfig, shard state, device id) —
/// a few hundred bytes against ~3 kB for a live DeviceStack, which is
/// what makes the 1M tier fit in host RAM.
struct HibernatedDevice {
  bool valid = false;
  std::uint32_t device = 0;
  std::uint32_t shard = 0;
  std::uint32_t wakes = 0;              ///< rebuilds consumed so far
  std::uint64_t key_fingerprint = 0;    ///< shard key stamp (sanity check)
  std::uint64_t generation_summary = 0; ///< memory generations at capture
  attest::ReliableSession::State session;
  attest::Verifier::SessionState verifier;
  attest::AttestationProcess::ProcessState process;
  sim::Link::State vrf_to_prv;
  sim::Link::State prv_to_vrf;
};

/// State shared by every device of one shard: identical provisioned
/// content, one key, one pre-digested golden, one prover-side digest
/// cache (sound to share because same image + same key + same infection
/// patch make block generation -> content a function within the shard).
struct ShardState {
  support::Bytes image;
  support::Bytes key;
  std::shared_ptr<const attest::GoldenMeasurement> golden;
  attest::DigestCache cache;
  obs::HealthRollup health;
};

ShardState make_shard_state(const FleetConfig& config, std::size_t shard) {
  ShardState state;
  state.image = support::random_bytes(config.blocks * config.block_size,
                                      shard_stream(config.seed, shard, kImageSalt));
  state.key = support::random_bytes(kKeyBytes, shard_stream(config.seed, shard, kKeySalt));
  state.golden = std::make_shared<const attest::GoldenMeasurement>(
      state.image, config.block_size, config.hash, state.key);
  return state;
}

sim::DeviceConfig make_device_config(const FleetConfig& config,
                                     const ShardState& shard, std::size_t device) {
  sim::DeviceConfig dev;
  dev.id = "prv-" + std::to_string(device);
  dev.memory_size = config.blocks * config.block_size;
  dev.block_size = config.block_size;
  dev.attestation_key = shard.key;
  return dev;
}

sim::LinkConfig make_link_config(const FleetConfig& config, std::size_t device,
                                 bool forward) {
  sim::LinkConfig link;
  link.name = forward ? "vrf->prv" : "prv->vrf";
  link.base_latency = config.link_latency;
  link.jitter = config.link_jitter;
  link.drop_probability = config.drop_probability;
  link.duplicate_probability = config.duplicate_probability;
  link.corrupt_probability = config.corrupt_probability;
  link.reorder_probability = config.reorder_probability;
  link.seed = device_stream(config.seed, device,
                            forward ? kLinkForwardSalt : kLinkReverseSalt);
  return link;
}

attest::ProverConfig make_prover_config(const FleetConfig& config) {
  attest::ProverConfig prover;
  prover.hash = config.hash;
  prover.mode = config.mode;
  prover.use_merkle_tree = config.use_merkle_tree;
  return prover;
}

attest::SessionConfig make_session_config(const FleetConfig& config,
                                          std::size_t device) {
  attest::SessionConfig session = config.session;
  session.seed = device_stream(config.seed, device, kSessionSalt);
  return session;
}

/// One prover and everything the verifier keeps to talk to it.  CPU
/// segment completions and link deliveries capture references into the
/// stack, so it may only be torn down while quiescent() — no round in
/// flight, no measurement running, no protocol deferral pending, nothing
/// in flight on either link.  A stack is built at its device's first
/// admission.  Without a cap (FleetConfig::max_live_stacks == 0) it then
/// stays alive for the rest of the run; with one, idle quiescent stacks
/// collapse to HibernatedDevice records and are rebuilt from the shard
/// state on the next admission.  The admission window bounds *concurrent
/// sessions*, not live objects.
struct DeviceStack {
  sim::Device device;
  attest::Verifier verifier;
  attest::AttestationProcess mp;
  sim::Link vrf_to_prv;
  sim::Link prv_to_vrf;
  attest::ReliableSession session;

  DeviceStack(sim::Simulator& sim, const FleetConfig& config, ShardState& shard,
              std::size_t index)
      : device(sim, make_device_config(config, shard, index)),
        verifier(shard.golden, shard.key,
                 device_stream(config.seed, index, kChallengeSalt)),
        mp(device, make_prover_config(config)),
        vrf_to_prv(sim, make_link_config(config, index, /*forward=*/true)),
        prv_to_vrf(sim, make_link_config(config, index, /*forward=*/false)),
        session(device, verifier, mp, vrf_to_prv, prv_to_vrf,
                make_session_config(config, index)) {
    device.memory().load(shard.image);
    mp.set_shared_digest_cache(&shard.cache);
  }

  /// First-build provisioning (a rebuilt stack uses restore() instead).
  /// The order is fixed: prime from the *clean* image strictly before the
  /// infection patch lands, so the infection is the only dirtiness the
  /// first round sees and the subtree proofs localize exactly the
  /// infected range.
  void provision(const FleetConfig& config, const ShardState& shard,
                 bool infected) {
    if (config.use_merkle_tree) {
      // The shard golden already holds every block digest of the clean
      // image, computed once per shard in one multi-lane batch
      // (GoldenMeasurement's batched constructor).  Prime the tree from
      // those digests directly instead of re-digesting blocks * devices
      // times — the prover's (mac, hash, key) match the golden's by
      // construction (same FleetConfig, same shard key).
      mp.prime_tree_from(shard.golden->block_digests());
    }
    patch_infection(config, infected);
  }

  /// The infection writes alone — shard-deterministic: same blocks, same
  /// byte flips for every infected device of the shard, planted before
  /// any round.  Required both for soundly sharing the shard digest cache
  /// (the infected content at generation 2 is one value shard-wide) and
  /// for the roster's ground truth (correct verdict = kCompromised).  A
  /// rebuilt stack replays exactly these writes so its generation
  /// counters match the first build's (see generation_summary).
  void patch_infection(const FleetConfig& config, bool infected) {
    if (!infected) return;
    const auto [first, count] = detail::infection_range(config);
    for (std::size_t block = first; block < first + count; ++block) {
      const std::size_t addr = block * device.memory().block_size();
      const std::uint8_t original = device.memory().block_view(block)[0];
      const support::Bytes patch = {static_cast<std::uint8_t>(original ^ 0xff)};
      device.memory().write(addr, patch, 0, sim::Actor::kMalware);
    }
  }

  /// Safe-to-tear-down check: every event that could still reference this
  /// stack has fired.  Link in_flight covers deliveries; mp.busy covers
  /// CPU segments and the measurement callback chain; session.quiescent
  /// covers round state and the protocol's deferral events.
  bool quiescent() const noexcept {
    return session.quiescent() && !mp.busy() && vrf_to_prv.in_flight() == 0 &&
           prv_to_vrf.in_flight() == 0;
  }

  /// Collapse to the seed record.  Caller guarantees quiescent().
  HibernatedDevice hibernate(std::size_t index, std::size_t shard_index,
                             std::uint64_t key_fp, std::uint32_t wakes) const {
    HibernatedDevice h;
    h.valid = true;
    h.device = static_cast<std::uint32_t>(index);
    h.shard = static_cast<std::uint32_t>(shard_index);
    h.wakes = wakes;
    h.key_fingerprint = key_fp;
    h.generation_summary = generation_summary(device.memory());
    h.session = session.save_state();
    h.verifier = verifier.save_session_state();
    h.process = mp.save_process_state();
    h.vrf_to_prv = vrf_to_prv.save_state();
    h.prv_to_vrf = prv_to_vrf.save_state();
    return h;
  }

  /// Rebuild-from-seed path (the constructor already loaded the clean
  /// shard image): replay the infection patch, then — tree mode only —
  /// re-prime the tree from the *current* (patched) content.  The
  /// torn-down stack's tree was already consistent with that content, so
  /// re-priming from the golden digests here would spuriously re-dirty
  /// the infected blocks and change the next round's visit set.  Finally
  /// restore every captured protocol position.
  void restore(const FleetConfig& config, bool infected,
               const HibernatedDevice& h) {
    patch_infection(config, infected);
    if (config.use_merkle_tree) mp.prime_tree();
    session.restore_state(h.session);
    verifier.restore_session_state(h.verifier);
    mp.restore_process_state(h.process);
    vrf_to_prv.restore_state(h.vrf_to_prv);
    prv_to_vrf.restore_state(h.prv_to_vrf);
  }
};

}  // namespace

struct FleetVerifier::Impl {
  FleetConfig config;
  Roster roster;
  std::size_t shard_count = 1;
  std::size_t devices_per_shard = 1;
  std::size_t wave = 1;  ///< devices admitted per scheduler event
  bool ran = false;

  sim::Simulator simulator;
  obs::Observer observer;
  std::vector<ShardState> shards;
  std::vector<std::uint64_t> shard_key_fps;
  /// Null slots are hibernated (or not yet admitted) devices.
  std::vector<std::unique_ptr<DeviceStack>> stacks;
  std::vector<HibernatedDevice> hibernated;  ///< sized N at first hibernation
  std::size_t live_stacks = 0;

  /// Per-device scheduling record.  `pending` counts epochs whose stagger
  /// time has passed but whose round has not started yet (waiting on the
  /// admission window or on the device's previous round).
  struct DeviceRec {
    std::uint32_t pending = 0;
    std::uint32_t rounds_done = 0;
    bool queued = false;
    bool in_flight = false;
    bool idle_listed = false;  ///< sitting in idle_lru (hibernation only)
  };
  std::vector<DeviceRec> recs;
  std::deque<std::uint32_t> admission;
  /// Hibernation candidates, least-recently-idle first.  Entries are
  /// validated lazily at pop time (the device may have been readmitted).
  std::deque<std::uint32_t> idle_lru;
  std::size_t in_flight_count = 0;

  FleetResult result;
  sim::Time first_start = 0;
  sim::Time last_resolve = 0;
  bool any_started = false;

  Impl(FleetConfig cfg, Roster ros)
      : config(std::move(cfg)),
        roster(std::move(ros)),
        observer(nullptr, config.journal, config.metrics) {
    if (config.devices == 0) throw std::invalid_argument("FleetConfig.devices == 0");
    if (config.epochs == 0) throw std::invalid_argument("FleetConfig.epochs == 0");
    if (config.epoch_period == 0) {
      throw std::invalid_argument("FleetConfig.epoch_period == 0");
    }
    if (roster.size() != config.devices) {
      throw std::invalid_argument("roster size != FleetConfig.devices");
    }
    shard_count = detail::resolve_shards(config);
    devices_per_shard = (config.devices + shard_count - 1) / shard_count;
    wave = std::min(std::max<std::size_t>(config.devices / 64, 1),
                    devices_per_shard);

    simulator.set_observer(&observer);

    shards.reserve(shard_count);
    shard_key_fps.reserve(shard_count);
    for (std::size_t s = 0; s < shard_count; ++s) {
      shards.push_back(make_shard_state(config, s));
      shard_key_fps.push_back(key_fingerprint(shards.back().key));
    }
    stacks.resize(config.devices);
    recs.resize(config.devices);
  }

  std::size_t shard_of(std::size_t device) const noexcept {
    return std::min(device / devices_per_shard, shard_count - 1);
  }

  /// Live (or build) the stack for device d.  Rebuilds from the
  /// HibernatedDevice record when one exists, verifying the rebuild
  /// reproduced the captured key fingerprint and generation summary.
  DeviceStack& ensure_stack(std::size_t d) {
    if (stacks[d]) return *stacks[d];
    const std::size_t s = shard_of(d);
    auto stack = std::make_unique<DeviceStack>(simulator, config, shards[s], d);
    ++live_stacks;
    result.live_stacks_high_water =
        std::max(result.live_stacks_high_water, live_stacks);
    if (!hibernated.empty() && hibernated[d].valid) {
      HibernatedDevice& h = hibernated[d];
      stack->restore(config, roster.infected(d), h);
      if (generation_summary(stack->device.memory()) != h.generation_summary) {
        violation("device " + std::to_string(d) +
                  " rebuilt with mismatched generation summary");
      }
      if (shard_key_fps[s] != h.key_fingerprint) {
        violation("device " + std::to_string(d) +
                  " rebuilt with mismatched key fingerprint");
      }
      h.valid = false;
      ++h.wakes;
      ++result.wakes;
      simulator.emit(obs::JournalEventKind::kFleetWake, {stack->device.id()}, {}, 0,
                     h.wakes, live_stacks);
    } else {
      stack->provision(config, shards[s], roster.infected(d));
    }
    stacks[d] = std::move(stack);
    return *stacks[d];
  }

  void hibernate_stack(std::size_t d) {
    if (hibernated.empty()) hibernated.resize(config.devices);
    const std::size_t s = shard_of(d);
    hibernated[d] = stacks[d]->hibernate(d, s, shard_key_fps[s],
                                         hibernated[d].wakes);
    simulator.emit(obs::JournalEventKind::kFleetHibernate, {stacks[d]->device.id()}, {},
                   0, stacks[d]->session.rounds_resolved(), live_stacks - 1);
    stacks[d].reset();
    --live_stacks;
    ++result.hibernations;
  }

  /// Hibernate quiescent stacks until the pool is back under the (soft)
  /// cap, evicting from the *most recently idled* end: the candidate list
  /// fills in resolution order, which under a saturated admission window
  /// is also re-admission order — so the back holds the devices that will
  /// wait longest before their next round, and evicting there avoids
  /// tearing down a stack that is about to start.  Entries are validated
  /// lazily (the device may be mid-round again); still-settling stacks
  /// (e.g. a duplicated report copy in flight) are recycled and revisited
  /// on a later pool event — the scan bound keeps that from spinning.
  void shrink_pool() {
    if (config.max_live_stacks == 0) return;
    std::size_t scan = idle_lru.size();
    while (live_stacks > config.max_live_stacks && scan-- > 0) {
      const std::uint32_t d = idle_lru.back();
      idle_lru.pop_back();
      DeviceRec& rec = recs[d];
      rec.idle_listed = false;
      if (!stacks[d] || rec.in_flight) continue;
      if (!stacks[d]->quiescent()) {
        rec.idle_listed = true;
        idle_lru.push_front(d);
        continue;
      }
      hibernate_stack(d);
    }
  }

  sim::Duration stagger_offset(std::size_t device) const noexcept {
    const auto span_ns = static_cast<sim::Duration>(
        static_cast<double>(config.epoch_period) * kStaggerSpan);
    switch (config.stagger) {
      case StaggerPolicy::kBurst:
        return 0;
      case StaggerPolicy::kUniform:
        return span_ns * device / config.devices;
      case StaggerPolicy::kShardPhased:
        return span_ns * shard_of(device) / shard_count;
    }
    return 0;
  }

  void violation(std::string what) {
    result.invariant_violations.push_back(std::move(what));
  }

  /// Last device (exclusive) of the admission wave led by `first`.  A wave
  /// never crosses a shard boundary, so every member primes from the same
  /// shard golden and the wave admits with one batched provisioning pass.
  std::size_t wave_end(std::size_t first) const noexcept {
    return std::min({first + wave,
                     (shard_of(first) + 1) * devices_per_shard,
                     static_cast<std::size_t>(config.devices)});
  }

  /// One step of an epoch's dripper chain (the epoch issues from
  /// `start`), advancing a whole shard wave per firing: the wave is
  /// admitted at its *leader's* stagger offset, so the scheduler sees
  /// devices/wave events per epoch instead of N closures.  Per-device
  /// outcomes are unchanged by the grouping — each device's rng/session
  /// streams are seeded independently of admission time.
  void admit_from(sim::Time start, std::size_t next) {
    ++result.admission_events;
    while (next < config.devices &&
           start + stagger_offset(next) <= simulator.now()) {
      const std::size_t end = wave_end(next);
      for (std::size_t d = next; d < end; ++d) device_ready(d);
      next = end;
    }
    if (next < config.devices) {
      simulator.schedule_at(start + stagger_offset(next),
                            [this, start, next] { admit_from(start, next); });
    }
  }

  void device_ready(std::size_t d) {
    DeviceRec& rec = recs[d];
    ++rec.pending;
    if (!rec.queued && !rec.in_flight) {
      rec.queued = true;
      admission.push_back(static_cast<std::uint32_t>(d));
    }
    pump();
  }

  void pump() {
    while (!admission.empty() &&
           (config.max_in_flight == 0 || in_flight_count < config.max_in_flight)) {
      const std::size_t d = admission.front();
      admission.pop_front();
      start_round(d);
    }
    shrink_pool();
  }

  void start_round(std::size_t d) {
    DeviceRec& rec = recs[d];
    rec.queued = false;
    --rec.pending;
    rec.in_flight = true;
    ++in_flight_count;
    result.in_flight_high_water =
        std::max(result.in_flight_high_water, in_flight_count);
    EpochStats& es = result.epoch_stats[rec.rounds_done];
    if (es.admitted == 0) es.first_start = simulator.now();
    ++es.admitted;
    if (!any_started) {
      any_started = true;
      first_start = simulator.now();
    }
    ensure_stack(d).session.run(
        [this, d](attest::RoundResult r) { on_round_done(d, std::move(r)); });
  }

  void on_round_done(std::size_t d, attest::RoundResult r) {
    DeviceRec& rec = recs[d];
    const std::size_t epoch = rec.rounds_done;
    ++rec.rounds_done;
    rec.in_flight = false;
    --in_flight_count;

    const obs::RoundOutcome outcome = r.outcome;
    attest::record_round(shards[shard_of(d)].health, r);
    RoundRecord& record = result.rounds[d * config.epochs + epoch];
    record.started = r.t_started;
    record.outcome = outcome;
    record.attempts =
        static_cast<std::uint8_t>(std::min<std::size_t>(r.attempts, 255));
    record.resolved = true;
    if (r.verdict.used_tree && !r.verdict.localized.empty()) {
      record.localized_ranges =
          static_cast<std::uint32_t>(r.verdict.localized.size());
      record.localized_first =
          static_cast<std::uint32_t>(r.verdict.localized.front().first);
      record.localized_count =
          static_cast<std::uint32_t>(r.verdict.localized.front().count);
    }

    ++result.rounds_resolved;
    ++result.outcome_counts[static_cast<std::size_t>(outcome)];
    last_resolve = std::max(last_resolve, r.t_resolved);

    EpochStats& es = result.epoch_stats[epoch];
    ++es.resolved;
    es.last_resolve = std::max(es.last_resolve.value_or(0), r.t_resolved);
    // Independent epoch-grouped fold with the exact arguments
    // record_round() folds into the shard rollup — the two groupings must
    // agree.
    es.health.record_round(outcome, r.attempts, r.t_resolved - r.t_started,
                           r.measure_time, r.wasted_measure_time);

    const obs::RoundOutcome expected = roster.infected(d)
                                           ? obs::RoundOutcome::kCompromised
                                           : obs::RoundOutcome::kVerified;
    if (outcome != expected) {
      ++result.misjudged_rounds;
      ++es.misjudged;
    }

    if (r.attempts == 0 || r.attempts > config.session.max_attempts) {
      violation("device " + std::to_string(d) + " round " +
                std::to_string(epoch) + " used " + std::to_string(r.attempts) +
                " attempts (budget " +
                std::to_string(config.session.max_attempts) + ")");
    }

    if (rec.pending > 0 && !rec.queued) {
      rec.queued = true;
      admission.push_back(static_cast<std::uint32_t>(d));
    }
    if (config.max_live_stacks != 0 && !rec.idle_listed) {
      // Hibernation candidate — even when already re-queued: under a
      // saturated admission window a device can wait whole epochs between
      // resolve and next start, and that parked stack is exactly what the
      // pool must not keep live.  start_round wakes it when its turn
      // comes.
      rec.idle_listed = true;
      idle_lru.push_back(static_cast<std::uint32_t>(d));
    }
    pump();
    if (es.resolved == config.devices) check_epoch(epoch);
  }

  /// Invariants asserted the moment an epoch's last round resolves.
  void check_epoch(std::size_t epoch) {
    const EpochStats& es = result.epoch_stats[epoch];
    if (es.admitted != config.devices) {
      violation("epoch " + std::to_string(epoch) + " admitted " +
                std::to_string(es.admitted) + " of " +
                std::to_string(config.devices) + " devices");
    }
    if (es.health.rounds() != config.devices) {
      violation("epoch " + std::to_string(epoch) + " health rollup saw " +
                std::to_string(es.health.rounds()) + " rounds, expected " +
                std::to_string(config.devices));
    }
    if (config.max_in_flight != 0 &&
        result.in_flight_high_water > config.max_in_flight) {
      violation("in-flight high water " +
                std::to_string(result.in_flight_high_water) +
                " exceeded admission window " +
                std::to_string(config.max_in_flight));
    }
  }

  /// Compare two rollups' integer aggregates (double sums may differ in
  /// the last ulp between groupings; counts may not differ at all).
  static bool same_integer_aggregates(const obs::HealthRollup& a,
                                      const obs::HealthRollup& b) {
    if (a.rounds() != b.rounds()) return false;
    for (std::size_t i = 0; i < obs::kRoundOutcomeCount; ++i) {
      const auto outcome = static_cast<obs::RoundOutcome>(i);
      if (a.outcome_count(outcome) != b.outcome_count(outcome)) return false;
    }
    for (std::size_t depth = 1; depth <= obs::HealthRollup::kMaxRetryDepth;
         ++depth) {
      if (a.retry_depth(depth) != b.retry_depth(depth)) return false;
    }
    return a.latency_ms().count() == b.latency_ms().count();
  }

  void finalize() {
    const std::size_t expected_rounds = config.devices * config.epochs;
    if (result.rounds_resolved != expected_rounds) {
      violation("resolved " + std::to_string(result.rounds_resolved) + " of " +
                std::to_string(expected_rounds) + " rounds");
    }
    if (in_flight_count != 0 || !admission.empty()) {
      violation("simulation quiesced with " + std::to_string(in_flight_count) +
                " sessions in flight and " + std::to_string(admission.size()) +
                " queued");
    }
    for (std::size_t d = 0; d < config.devices; ++d) {
      if (recs[d].rounds_done != config.epochs || recs[d].pending != 0) {
        violation("device " + std::to_string(d) + " finished " +
                  std::to_string(recs[d].rounds_done) + " of " +
                  std::to_string(config.epochs) + " rounds (" +
                  std::to_string(recs[d].pending) + " pending)");
        break;  // one witness is enough; the counts above give the total
      }
      if (stacks[d] && stacks[d]->session.busy()) {
        violation("device " + std::to_string(d) +
                  " session still busy after drain");
        break;
      }
    }

    // Fleet total = shard-order merge of the per-shard rollups
    // on_round_done fed live.  It must agree (integer-exactly) with the merge
    // of the independently accumulated per-epoch rollups — the same
    // rounds grouped two different ways — and with a reversed-order merge
    // (associativity/commutativity witness on real data).
    result.shard_health.reserve(shards.size());
    for (const ShardState& shard : shards) {
      result.shard_health.push_back(shard.health);
    }
    for (const obs::HealthRollup& shard : result.shard_health) {
      result.health.merge(shard);
    }
    obs::HealthRollup by_epoch;
    for (const EpochStats& es : result.epoch_stats) by_epoch.merge(es.health);
    if (!same_integer_aggregates(result.health, by_epoch)) {
      violation("shard-grouped and epoch-grouped health rollups disagree");
    }
    obs::HealthRollup reversed;
    for (auto it = result.shard_health.rbegin(); it != result.shard_health.rend();
         ++it) {
      reversed.merge(*it);
    }
    if (!same_integer_aggregates(result.health, reversed)) {
      violation("shard rollup merge is order-sensitive");
    }
    std::uint64_t outcome_total = 0;
    for (std::size_t i = 0; i < obs::kRoundOutcomeCount; ++i) {
      const auto outcome = static_cast<obs::RoundOutcome>(i);
      outcome_total += result.outcome_counts[i];
      if (result.outcome_counts[i] != result.health.outcome_count(outcome)) {
        violation("per-round outcome tally disagrees with health rollup for " +
                  std::string(obs::round_outcome_name(outcome)));
      }
    }
    if (outcome_total != result.rounds_resolved) {
      violation("outcome counts do not sum to rounds resolved");
    }

    // Link counters survive hibernation inside the saved Link::State, so
    // the fleet totals cover live and hibernated devices alike.
    for (std::size_t d = 0; d < config.devices; ++d) {
      std::array<const sim::Link::Counters*, 2> links{};
      if (stacks[d]) {
        links = {&stacks[d]->vrf_to_prv.counters(), &stacks[d]->prv_to_vrf.counters()};
      } else if (!hibernated.empty() && hibernated[d].valid) {
        links = {&hibernated[d].vrf_to_prv.counters, &hibernated[d].prv_to_vrf.counters};
      }
      for (const sim::Link::Counters* link : links) {
        if (link == nullptr) continue;
        result.link_sent += link->sent;
        result.link_delivered += link->delivered;
        result.link_dropped += link->dropped;
        result.link_duplicated += link->duplicated;
        result.link_corrupted += link->corrupted;
        result.link_reordered += link->reordered;
      }
    }
    if (result.link_delivered !=
        result.link_sent - result.link_dropped + result.link_duplicated) {
      violation("link counter invariant delivered == sent - dropped + "
                "duplicated does not hold after drain");
    }

    result.makespan = any_started ? last_resolve - first_start : 0;
    result.rounds_per_sim_second =
        result.makespan == 0 ? 0.0
                             : static_cast<double>(result.rounds_resolved) /
                                   sim::to_seconds(result.makespan);

    // Full coverage: the epoch boundary by which every device had its
    // first round resolved (0 = some device never resolved one).
    if (!result.epoch_stats.empty() &&
        result.epoch_stats[0].resolved == config.devices &&
        result.epoch_stats[0].last_resolve.has_value()) {
      result.epochs_to_full_coverage = static_cast<std::size_t>(
          *result.epoch_stats[0].last_resolve / config.epoch_period) + 1;
    }

    if (config.metrics != nullptr) {
      config.metrics->gauge("fleet.live_stacks_high_water")
          .set(static_cast<double>(result.live_stacks_high_water));
      config.metrics->gauge("fleet.hibernations")
          .set(static_cast<double>(result.hibernations));
      config.metrics->gauge("fleet.wakes").set(static_cast<double>(result.wakes));
      config.metrics->gauge("fleet.admission_events")
          .set(static_cast<double>(result.admission_events));
    }

    result.memory = memory_stats();

    // Shard golden roots and their fleet aggregate — the one digest a
    // higher-tier verifier would pin for this fleet's expected state.
    result.shard_tree_roots.reserve(shards.size());
    for (const ShardState& shard : shards) {
      result.shard_tree_roots.push_back(shard.golden->tree().root());
    }
    result.fleet_tree_root =
        mtree::MerkleTree::combine_roots(result.shard_tree_roots, config.hash);
  }

  FleetMemoryStats memory_stats() const {
    FleetMemoryStats stats;
    for (const ShardState& shard : shards) {
      stats.shared_bytes += shard.image.capacity() + shard.key.capacity();
      stats.shared_bytes += sizeof(attest::GoldenMeasurement) +
                            shard.golden->block_count() * sizeof(attest::Digest) +
                            shard.golden->tree_memory_bytes() +
                            /*golden key copy*/ shard.key.capacity();
      stats.shared_bytes += sizeof(attest::DigestCache) +
                            config.blocks * kDigestCacheSlotBytes;
    }
    std::size_t per_device = sizeof(DeviceRec) +
                             config.epochs * sizeof(RoundRecord);
    if (config.max_live_stacks != 0) {
      // A hibernated device is its seed record (plus the heap its saved
      // session/verifier state holds).
      per_device += sizeof(HibernatedDevice) + kHibernatedHeapBytes;
    }
    stats.per_device_bytes = config.devices * per_device;
    // Every live stack is charged to the pool.  Pre-run the high-water is
    // still 0; charge the cap (N without one) so the estimate is an
    // honest a-priori budget, and the measured high-water once it exceeds
    // the cap (the cap is soft).
    const std::size_t cap =
        config.max_live_stacks == 0 ? config.devices : config.max_live_stacks;
    const std::size_t pool_stacks =
        std::max({result.live_stacks_high_water, live_stacks,
                  std::min(cap, config.devices)});
    stats.pool_bytes = pool_stacks * (sizeof(DeviceStack) +
                                      kPerDeviceStringBytes +
                                      /*verifier key copy*/ kKeyBytes);
    stats.roster_bytes = roster.memory_bytes();
    return stats;
  }

  FleetResult run() {
    if (ran) throw std::logic_error("FleetVerifier::run called twice");
    ran = true;
    result.devices = config.devices;
    result.epochs = config.epochs;
    result.shards = shard_count;
    result.rounds.resize(config.devices * config.epochs);
    result.epoch_stats.resize(config.epochs);
    for (std::size_t e = 0; e < config.epochs; ++e) {
      const sim::Time start = static_cast<sim::Time>(e) * config.epoch_period;
      simulator.schedule_at(start, [this, start] { admit_from(start, 0); });
    }
    simulator.run();
    finalize();
    if (config.enforce_invariants && !result.invariant_violations.empty()) {
      std::string what = "fleet invariants violated:";
      for (const std::string& v : result.invariant_violations) what += "\n  " + v;
      throw std::logic_error(what);
    }
    return std::move(result);
  }
};

FleetVerifier::FleetVerifier(FleetConfig config)
    : FleetVerifier(config,
                    Roster::with_infected_fraction(
                        config.devices, config.infected_fraction,
                        detail::device_stream(config.seed, 0, kRosterSalt))) {}

FleetVerifier::FleetVerifier(FleetConfig config, Roster roster)
    : impl_(std::make_unique<Impl>(std::move(config), std::move(roster))) {}

FleetVerifier::~FleetVerifier() = default;

FleetResult FleetVerifier::run() { return impl_->run(); }

const Roster& FleetVerifier::roster() const noexcept { return impl_->roster; }
std::size_t FleetVerifier::shard_count() const noexcept {
  return impl_->shard_count;
}
std::size_t FleetVerifier::shard_of(std::size_t device) const noexcept {
  return impl_->shard_of(device);
}
FleetMemoryStats FleetVerifier::memory_stats() const {
  return impl_->memory_stats();
}

std::vector<obs::RoundOutcome> replay_device(
    const FleetConfig& config, const Roster& roster, std::size_t device,
    const std::vector<sim::Time>& start_times) {
  if (device >= config.devices) {
    throw std::out_of_range("replay_device: device index out of range");
  }
  const std::size_t shard_count = detail::resolve_shards(config);
  const std::size_t devices_per_shard =
      (config.devices + shard_count - 1) / shard_count;
  const std::size_t shard_index =
      std::min(device / devices_per_shard, shard_count - 1);

  sim::Simulator simulator;
  // Fresh shard state: own golden, own digest cache (shared only with
  // itself) — cache hits are bit-identical to recomputation, so sharing
  // verifier state with fleet neighbors cannot change outcomes, and the
  // replay cross-check proves exactly that.
  ShardState shard = make_shard_state(config, shard_index);
  DeviceStack stack(simulator, config, shard, device);
  stack.provision(config, shard, roster.infected(device));

  std::vector<obs::RoundOutcome> outcomes;
  outcomes.reserve(start_times.size());
  // Chain rounds through the done callback (mirroring the fleet's
  // resolve-then-readmit pump) so a round whose recorded start coincides
  // with the previous round's resolve timestamp starts *after* that
  // resolution instead of hitting a busy session.
  std::function<void(std::size_t)> schedule_round = [&](std::size_t r) {
    if (r >= start_times.size()) return;
    simulator.schedule_at(start_times[r], [&, r] {
      stack.session.run([&, r](attest::RoundResult res) {
        outcomes.push_back(res.outcome);
        schedule_round(r + 1);
      });
    });
  };
  schedule_round(0);
  simulator.run();
  return outcomes;
}

}  // namespace rasc::fleet

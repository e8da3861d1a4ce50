#pragma once
/// \file fleet_fixtures.hpp
/// Shared test harnesses for everything that drives attestation rounds
/// over simulated links.  Before this header, attest/session_test.cpp,
/// attest/protocol_test.cpp and the apps tests each hand-rolled the same
/// ~25-line device + verifier + links + loaded-image fixture; the copies
/// had already drifted (different image seeds, key strings, block
/// geometry).  One parameterized harness keeps the wiring in one place,
/// and the fleet tests build on the same primitives so a fleet of N
/// devices is provably N of the single-device stacks the unit tests
/// exercise.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/attest/protocol.hpp"
#include "src/attest/session.hpp"
#include "src/fleet/fleet.hpp"
#include "src/support/rng.hpp"

namespace rasc::testfx {

/// Short, jitterless session timers so deterministic test timelines are
/// easy to reason about: one clean round completes in ~6 ms.
inline attest::SessionConfig fast_session_config() {
  attest::SessionConfig config;
  config.response_timeout = 20 * sim::kMillisecond;
  config.max_attempts = 3;
  config.backoff_base = 5 * sim::kMillisecond;
  config.backoff_jitter = 0.0;
  return config;
}

/// Bare simulator + device pair for app-level tests (fire alarm, sensor
/// tasks) that need a device but not the attestation stack.
struct DeviceHarness {
  sim::Simulator simulator;
  sim::Device device;
  explicit DeviceHarness(std::string id = "dev-f", std::size_t blocks = 4,
                         std::size_t block_size = 128, std::string key = "k")
      : device(simulator,
               sim::DeviceConfig{std::move(id), blocks * block_size, block_size,
                                 support::to_bytes(key)}) {}
};

struct SessionHarnessOptions {
  std::string device_id = "dev-session";
  std::string key = "session-key";
  std::size_t blocks = 16;
  std::size_t block_size = 256;
  /// Seed of the provisioned (and golden) image.
  std::uint64_t image_seed = 11;
  sim::LinkConfig to_prv{};
  sim::LinkConfig to_vrf{};
  attest::SessionConfig session = fast_session_config();
};

/// One prover-verifier stack over two configurable links, exposing both
/// the raw OnDemandProtocol (for wire/timeline tests) and the reliable
/// session built on it.  The golden image is loaded into the device at
/// construction, so a fresh harness verifies cleanly; call infect() to
/// plant the canonical one-byte malware patch.
struct SessionHarness {
  SessionHarnessOptions options;
  sim::Simulator simulator;
  sim::Device device;
  attest::Verifier verifier;
  attest::AttestationProcess mp;
  sim::Link vrf_to_prv;
  sim::Link prv_to_vrf;
  attest::ReliableSession session;
  attest::OnDemandProtocol protocol;

  explicit SessionHarness(SessionHarnessOptions opts = {})
      : options(std::move(opts)),
        device(simulator,
               sim::DeviceConfig{options.device_id,
                                 options.blocks * options.block_size,
                                 options.block_size,
                                 support::to_bytes(options.key)}),
        verifier(crypto::HashKind::kSha256, support::to_bytes(options.key),
                 [&] {
                   support::Bytes image = support::random_bytes(
                       options.blocks * options.block_size, options.image_seed);
                   device.memory().load(image);
                   return image;
                 }(),
                 options.block_size),
        mp(device, {}),
        vrf_to_prv(simulator, options.to_prv),
        prv_to_vrf(simulator, options.to_vrf),
        session(device, verifier, mp, vrf_to_prv, prv_to_vrf, options.session),
        protocol(device, verifier, mp, vrf_to_prv, prv_to_vrf) {}

  /// Convenience builders so call sites read like the old fixtures:
  ///   SessionHarness fx(testfx::with_links(lossy, {}));
  static SessionHarnessOptions with_links(
      sim::LinkConfig to_prv, sim::LinkConfig to_vrf,
      attest::SessionConfig session = fast_session_config()) {
    SessionHarnessOptions opts;
    opts.to_prv = std::move(to_prv);
    opts.to_vrf = std::move(to_vrf);
    opts.session = session;
    return opts;
  }
  static SessionHarnessOptions with_session(attest::SessionConfig session) {
    SessionHarnessOptions opts;
    opts.session = session;
    return opts;
  }

  /// The canonical malware patch (the same one fleet shards plant): flip
  /// one byte in the middle of attested memory.
  void infect() {
    const std::size_t addr = device.memory().size() / 2;
    const std::uint8_t original =
        device.memory().block_view(device.memory().block_of(addr))
            [addr % device.memory().block_size()];
    const support::Bytes patch = {static_cast<std::uint8_t>(original ^ 0xff)};
    (void)device.memory().write(addr, patch, 0, sim::Actor::kMalware);
  }

  /// Run one reliable round to quiescence and return its result,
  /// asserting the done callback did not leak.
  attest::RoundResult run_round() {
    attest::RoundResult result;
    bool fired = false;
    session.run([&](attest::RoundResult r) {
      result = std::move(r);
      fired = true;
    });
    simulator.run();
    EXPECT_TRUE(fired) << "round leaked its done callback";
    return result;
  }
};

// -- outcome matchers ---------------------------------------------------------

inline ::testing::AssertionResult resolved_as(const attest::RoundResult& result,
                                              attest::SessionOutcome expected) {
  if (result.outcome == expected) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "round resolved as " << obs::round_outcome_name(result.outcome)
         << ", expected " << obs::round_outcome_name(expected);
}

/// Every admitted round of every device reached a terminal outcome.
inline ::testing::AssertionResult fleet_fully_resolved(
    const fleet::FleetResult& result) {
  if (result.rounds_resolved == result.devices * result.epochs &&
      result.invariant_violations.empty()) {
    return ::testing::AssertionSuccess();
  }
  auto failure = ::testing::AssertionFailure()
                 << result.rounds_resolved << " of "
                 << result.devices * result.epochs << " rounds resolved";
  for (const std::string& v : result.invariant_violations) {
    failure << "\n  invariant: " << v;
  }
  return failure;
}

/// Device `d` was judged `expected` in every epoch.
inline ::testing::AssertionResult device_judged(const fleet::FleetResult& result,
                                                std::size_t device,
                                                obs::RoundOutcome expected) {
  for (std::size_t e = 0; e < result.epochs; ++e) {
    const fleet::RoundRecord& record = result.round(device, e);
    if (!record.resolved) {
      return ::testing::AssertionFailure()
             << "device " << device << " epoch " << e << " never resolved";
    }
    if (record.outcome != expected) {
      return ::testing::AssertionFailure()
             << "device " << device << " epoch " << e << " resolved as "
             << obs::round_outcome_name(record.outcome) << ", expected "
             << obs::round_outcome_name(expected);
    }
  }
  return ::testing::AssertionSuccess();
}

// -- fleet builders -----------------------------------------------------------

/// Fleet configuration scaled for unit tests: tiny devices, fast session
/// timers, short epochs — a 64-device 2-epoch fleet quiesces in well
/// under a second of host time.
inline fleet::FleetConfig fast_fleet_config(std::size_t devices,
                                            std::uint64_t seed = 1) {
  fleet::FleetConfig config;
  config.devices = devices;
  config.seed = seed;
  config.epochs = 2;
  config.epoch_period = 200 * sim::kMillisecond;
  config.stagger = fleet::StaggerPolicy::kUniform;
  config.session = fast_session_config();
  return config;
}

/// Roster with a deterministic infected fraction (at least one infected
/// device for any fraction > 0) — thin alias so tests read declaratively.
inline fleet::Roster infected_roster(std::size_t devices, double fraction,
                                     std::uint64_t seed = 7) {
  return fleet::Roster::with_infected_fraction(devices, fraction, seed);
}

}  // namespace rasc::testfx

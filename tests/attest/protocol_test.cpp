#include "src/attest/protocol.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "src/obs/observer.hpp"
#include "src/support/rng.hpp"
#include "tests/support/fleet_fixtures.hpp"

namespace rasc::attest {
namespace {

using support::to_bytes;
using testfx::SessionHarness;

TEST(Protocol, TimelineIsOrderedLikeFigure1) {
  SessionHarness fx;
  OnDemandTimings timings;
  bool done = false;
  fx.protocol.run(1, [&](OnDemandTimings t) {
    timings = t;
    done = true;
  });
  fx.simulator.run();
  ASSERT_TRUE(done);
  // Figure 1 ordering: request sent < received < MP start <= t_s < t_e
  // <= report received < verified.
  EXPECT_LT(timings.t_challenge_sent, timings.t_request_received);
  EXPECT_LT(timings.t_request_received, timings.t_mp_started);
  EXPECT_LE(timings.t_mp_started, timings.t_s);
  EXPECT_LT(timings.t_s, timings.t_e);
  EXPECT_LE(timings.t_e, timings.t_report_received);
  EXPECT_LT(timings.t_report_received, timings.t_verified);
}

TEST(Protocol, HonestProverPasses) {
  SessionHarness fx;
  bool ok = false;
  fx.protocol.run(1, [&](OnDemandTimings t) { ok = t.outcome.ok(); });
  fx.simulator.run();
  EXPECT_TRUE(ok);
}

TEST(Protocol, InfectedProverFails) {
  SessionHarness fx;
  (void)fx.device.memory().write(100, to_bytes("evil"), 0, sim::Actor::kMalware);
  bool done = false;
  VerifyOutcome outcome;
  fx.protocol.run(1, [&](OnDemandTimings t) {
    outcome = t.outcome;
    done = true;
  });
  fx.simulator.run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(outcome.mac_ok);
  EXPECT_FALSE(outcome.digest_ok);
}

TEST(Protocol, DeferralReflectsAuthDelay) {
  SessionHarness fx;
  OnDemandTimings timings;
  fx.protocol.run(1, [&](OnDemandTimings t) { timings = t; });
  fx.simulator.run();
  EXPECT_EQ(timings.t_mp_started - timings.t_request_received,
            300 * sim::kMicrosecond);
}

TEST(Protocol, SuccessiveRoundsWork) {
  SessionHarness fx;
  int passes = 0;
  fx.protocol.run(1, [&](OnDemandTimings t1) {
    if (t1.outcome.ok()) ++passes;
    fx.protocol.run(2, [&](OnDemandTimings t2) {
      if (t2.outcome.ok()) ++passes;
    });
  });
  fx.simulator.run();
  EXPECT_EQ(passes, 2);
}

TEST(Protocol, DroppedRequestNeverCompletes) {
  SessionHarness fx;
  sim::LinkConfig lossy;
  lossy.drop_probability = 1.0;
  sim::Link dead_link(fx.simulator, lossy);
  OnDemandProtocol broken(fx.device, fx.verifier, fx.mp, dead_link, fx.prv_to_vrf);
  bool done = false;
  broken.run(1, [&](OnDemandTimings) { done = true; });
  fx.simulator.run();
  EXPECT_FALSE(done);
}

TEST(Protocol, ChallengeRequestRoundTripsThroughWire) {
  const support::Bytes key = to_bytes("wire-key");
  ChallengeRequest request{42, to_bytes("nonce-0123456789")};
  const support::Bytes wire = seal_challenge_request(request, key);
  const auto opened = open_challenge_request(wire, key);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(opened->counter, 42u);
  EXPECT_EQ(opened->challenge, request.challenge);
}

TEST(Protocol, TamperedChallengeRequestIsRejected) {
  const support::Bytes key = to_bytes("wire-key");
  const support::Bytes wire =
      seal_challenge_request({7, to_bytes("nonce-0123456789")}, key);
  for (std::size_t i = 0; i < wire.size(); ++i) {
    support::Bytes tampered = wire;
    tampered[i] ^= 0x01;
    EXPECT_FALSE(open_challenge_request(tampered, key).has_value())
        << "byte " << i << " flip accepted";
  }
  // Wrong key and truncation fail too.
  EXPECT_FALSE(open_challenge_request(wire, to_bytes("other-key")).has_value());
  EXPECT_FALSE(
      open_challenge_request(support::ByteView(wire).subspan(0, wire.size() - 1), key)
          .has_value());
}

TEST(Protocol, ReportWireRoundTripsAndRejectsTruncation) {
  SessionHarness fx;
  Report captured;
  fx.protocol.run(1, [&](OnDemandTimings t) { captured = t.attestation.report; });
  fx.simulator.run();
  const support::Bytes wire = serialize_report_wire(captured);
  const auto parsed = parse_report_wire(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->counter, captured.counter);
  EXPECT_EQ(parsed->measurement, captured.measurement);
  EXPECT_EQ(parsed->mac, captured.mac);
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    EXPECT_FALSE(parse_report_wire(support::ByteView(wire).subspan(0, cut)).has_value())
        << "truncation to " << cut << " bytes parsed";
  }
}

TEST(Protocol, StaleCounterRequestIsIgnoredAsReplay) {
  SessionHarness fx;
  int completions = 0;
  fx.protocol.run(5, [&](OnDemandTimings) { ++completions; });
  fx.simulator.run();
  ASSERT_EQ(completions, 1);
  // Re-sending counter 5 (or lower) replays an old request: the prover
  // must ignore it, so the round never completes.
  fx.protocol.run(5, [&](OnDemandTimings) { ++completions; });
  fx.simulator.run();
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(fx.protocol.requests_rejected_replay(), 1u);
}

TEST(Protocol, RequestWhileMeasurementBusyIsIgnoredNotFatal) {
  SessionHarness fx;
  sim::LinkConfig dup;
  dup.duplicate_probability = 1.0;  // every challenge arrives twice
  sim::Link duplicating(fx.simulator, dup);
  OnDemandProtocol protocol(fx.device, fx.verifier, fx.mp, duplicating,
                            fx.prv_to_vrf);
  int completions = 0;
  // The duplicate copy lands while MP is measuring for the first copy;
  // without busy-gating AttestationProcess::start would throw.
  protocol.run(1, [&](OnDemandTimings t) {
    if (t.outcome.ok()) ++completions;
  });
  fx.simulator.run();
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(protocol.requests_ignored_busy() + protocol.requests_rejected_replay(),
            1u);
}

TEST(Protocol, EveryParsedReportEmitsOneVerdictFact) {
  // Every report is corrupted in transit: most still parse and fail
  // verification; those with a garbled length field do not parse and
  // must leave no verdict fact.
  sim::LinkConfig corrupting;
  corrupting.corrupt_probability = 1.0;
  SessionHarness fx(SessionHarness::with_links({}, corrupting));
  obs::EventJournal journal;
  obs::Observer observer(nullptr, &journal);
  fx.simulator.set_observer(&observer);
  std::vector<std::uint64_t> parsed_checks;
  std::size_t unparsable = 0;
  std::function<void(std::uint64_t)> run_round = [&](std::uint64_t counter) {
    fx.protocol.run(counter, [&, counter](OnDemandTimings t) {
      if (t.report_wire_ok) {
        parsed_checks.push_back(t.outcome.failed_checks());
      } else {
        ++unparsable;
      }
      if (counter < 40) run_round(counter + 1);
    });
  };
  run_round(1);
  fx.simulator.run();
  ASSERT_GT(unparsable, 0u);
  ASSERT_FALSE(parsed_checks.empty());

  obs::JournalFilter verdicts;
  verdicts.kind = obs::JournalEventKind::kVerifierVerdict;
  const std::vector<obs::JournalEvent> facts = journal.select(verdicts);
  ASSERT_EQ(facts.size(), parsed_checks.size());
  for (std::size_t i = 0; i < facts.size(); ++i) {
    EXPECT_EQ(facts[i].a, parsed_checks[i]);
    EXPECT_NE(facts[i].a & obs::kVerdictRejected, 0u);
    EXPECT_EQ(journal.actor_name(facts[i].actor), fx.device.id());
  }
}

}  // namespace
}  // namespace rasc::attest

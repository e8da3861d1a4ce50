#include "src/attest/verifier.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/obs/observer.hpp"
#include "src/support/rng.hpp"

namespace rasc::attest {
namespace {

using support::Bytes;
using support::to_bytes;

constexpr std::size_t kBlocks = 8;
constexpr std::size_t kBlockSize = 64;

Bytes golden_image(std::uint64_t seed = 3) {
  return support::random_bytes(kBlocks * kBlockSize, seed);
}

/// Produce a report as an honest prover with `image` in memory would.
Report honest_report(const Bytes& image, const Bytes& key, Bytes challenge,
                     std::uint64_t counter) {
  Report r;
  r.device_id = "dev-1";
  r.challenge = std::move(challenge);
  r.counter = counter;
  r.t_start = 10;
  r.t_end = 20;
  r.hash = crypto::HashKind::kSha256;
  MeasurementContext context{r.device_id, r.challenge, r.counter};
  r.measurement =
      Measurement::expected(image, kBlockSize, crypto::HashKind::kSha256, key, context);
  authenticate_report(r, key);
  return r;
}

class VerifierTest : public ::testing::Test {
 protected:
  Bytes key_ = to_bytes("shared-key");
  Bytes image_ = golden_image();
  Verifier verifier_{crypto::HashKind::kSha256, key_, image_, kBlockSize};
};

TEST_F(VerifierTest, AcceptsHonestReport) {
  const Bytes challenge = verifier_.issue_challenge();
  const auto outcome = verifier_.verify(honest_report(image_, key_, challenge, 1));
  EXPECT_TRUE(outcome.mac_ok);
  EXPECT_TRUE(outcome.digest_ok);
  EXPECT_TRUE(outcome.challenge_ok);
  EXPECT_TRUE(outcome.ok());
}

TEST_F(VerifierTest, RejectsInfectedMemory) {
  const Bytes challenge = verifier_.issue_challenge();
  Bytes infected = image_;
  infected[100] ^= 0xff;
  const auto outcome = verifier_.verify(honest_report(infected, key_, challenge, 1));
  EXPECT_TRUE(outcome.mac_ok);
  EXPECT_FALSE(outcome.digest_ok);
  EXPECT_FALSE(outcome.ok());
}

TEST_F(VerifierTest, RejectsWrongKeyProver) {
  const Bytes challenge = verifier_.issue_challenge();
  const auto outcome =
      verifier_.verify(honest_report(image_, to_bytes("stolen?"), challenge, 1));
  EXPECT_FALSE(outcome.mac_ok);
  EXPECT_FALSE(outcome.ok());
}

TEST_F(VerifierTest, RejectsStaleChallenge) {
  const Bytes old_challenge = verifier_.issue_challenge();
  (void)verifier_.issue_challenge();  // supersedes the old one
  const auto outcome = verifier_.verify(honest_report(image_, key_, old_challenge, 1));
  EXPECT_FALSE(outcome.challenge_ok);
  EXPECT_FALSE(outcome.ok());
}

TEST_F(VerifierTest, RejectsReportWithoutOutstandingChallenge) {
  const auto outcome = verifier_.verify(honest_report(image_, key_, to_bytes("made-up"), 1));
  EXPECT_FALSE(outcome.challenge_ok);
}

TEST_F(VerifierTest, ChallengesAreFreshEachTime) {
  EXPECT_NE(verifier_.issue_challenge(), verifier_.issue_challenge());
}

TEST_F(VerifierTest, ChallengeConsumedAfterSuccessfulVerify) {
  const Bytes challenge = verifier_.issue_challenge();
  const Report report = honest_report(image_, key_, challenge, 1);
  EXPECT_TRUE(verifier_.verify(report).ok());
  // Replaying the same (previously valid) report fails: no outstanding
  // challenge anymore.
  EXPECT_FALSE(verifier_.verify(report).ok());
}

TEST_F(VerifierTest, SelfMeasurementModeChecksCounterNotChallenge) {
  auto r1 = honest_report(image_, key_, {}, 1);
  auto r2 = honest_report(image_, key_, {}, 2);
  EXPECT_TRUE(verifier_.verify(r1, /*expect_challenge=*/false).ok());
  EXPECT_TRUE(verifier_.verify(r2, /*expect_challenge=*/false).ok());
  // Replay of counter 1 now fails.
  const auto replayed = verifier_.verify(r1, /*expect_challenge=*/false);
  EXPECT_FALSE(replayed.counter_ok);
  EXPECT_FALSE(replayed.ok());
  EXPECT_EQ(verifier_.last_counter(), 2u);
}

TEST_F(VerifierTest, ResetCounterAllowsReuse) {
  auto r1 = honest_report(image_, key_, {}, 5);
  EXPECT_TRUE(verifier_.verify(r1, false).ok());
  verifier_.reset_counter();
  EXPECT_TRUE(verifier_.verify(r1, false).ok());
}

TEST_F(VerifierTest, GoldenImageUpdate) {
  Bytes updated = image_;
  updated[0] ^= 1;
  verifier_.set_golden_image(updated);
  const Bytes challenge = verifier_.issue_challenge();
  EXPECT_TRUE(verifier_.verify(honest_report(updated, key_, challenge, 1)).ok());
}

TEST_F(VerifierTest, GoldenImageMustBeWholeBlocks) {
  EXPECT_THROW(verifier_.set_golden_image(Bytes(100)), std::invalid_argument);
  EXPECT_THROW(Verifier(crypto::HashKind::kSha256, key_, Bytes(100), kBlockSize),
               std::invalid_argument);
}

TEST_F(VerifierTest, DeterministicChallengesPerSeed) {
  Verifier a(crypto::HashKind::kSha256, key_, image_, kBlockSize, 99);
  Verifier b(crypto::HashKind::kSha256, key_, image_, kBlockSize, 99);
  EXPECT_EQ(a.issue_challenge(), b.issue_challenge());
}

/// A verifier.verdict fact bumps verify_total, verify_fail when rejected,
/// one fail_<check> per failed check (the tree checks only for tree-mode
/// reports) and localized_ranges by the localized range count.
TEST(VerdictFact, BumpsTheVerifierCountersOfEachFailedCheck) {
  VerifyOutcome pass;
  pass.mac_ok = true;
  pass.digest_ok = true;
  VerifyOutcome tree_pass = pass;
  tree_pass.used_tree = true;
  tree_pass.tree_root_bound = true;
  const auto failing = [](VerifyOutcome outcome, bool VerifyOutcome::*check) {
    outcome.*check = false;
    return outcome;
  };
  VerifyOutcome localized = failing(tree_pass, &VerifyOutcome::digest_ok);
  localized.localized = {{1, 2}, {5, 1}};
  struct Case {
    const char* name;
    VerifyOutcome outcome;
    std::map<std::string, std::uint64_t> counters;
  };
  const std::vector<Case> cases = {
      {"pass", pass, {{"verifier.verify_total", 1}}},
      {"mac", failing(pass, &VerifyOutcome::mac_ok),
       {{"verifier.verify_total", 1}, {"verifier.verify_fail", 1}, {"verifier.fail_mac", 1}}},
      {"digest", failing(pass, &VerifyOutcome::digest_ok),
       {{"verifier.verify_total", 1}, {"verifier.verify_fail", 1},
        {"verifier.fail_digest", 1}}},
      {"challenge", failing(pass, &VerifyOutcome::challenge_ok),
       {{"verifier.verify_total", 1}, {"verifier.verify_fail", 1},
        {"verifier.fail_challenge", 1}}},
      {"counter", failing(pass, &VerifyOutcome::counter_ok),
       {{"verifier.verify_total", 1}, {"verifier.verify_fail", 1},
        {"verifier.fail_counter", 1}}},
      {"tree pass", tree_pass, {{"verifier.verify_total", 1}}},
      {"tree binding", failing(tree_pass, &VerifyOutcome::tree_root_bound),
       {{"verifier.verify_total", 1}, {"verifier.fail_tree_binding", 1}}},
      {"proof", failing(tree_pass, &VerifyOutcome::proofs_ok),
       {{"verifier.verify_total", 1}, {"verifier.fail_proof", 1}}},
      {"localized", localized,
       {{"verifier.verify_total", 1}, {"verifier.verify_fail", 1},
        {"verifier.fail_digest", 1}, {"verifier.localized_ranges", 2}}},
  };

  for (const Case& c : cases) {
    obs::MetricsRegistry metrics;
    obs::Observer observer(nullptr, nullptr, &metrics);
    observer.emit(0, obs::JournalEventKind::kVerifierVerdict, {"dev-1"}, {}, 0,
                  c.outcome.failed_checks(), c.outcome.localized.size());
    std::map<std::string, std::uint64_t> counted;
    for (const auto& [name, counter] : metrics.counters()) counted[name] = counter.value();
    EXPECT_EQ(counted, c.counters) << c.name;
  }
}

}  // namespace
}  // namespace rasc::attest

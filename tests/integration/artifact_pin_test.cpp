/// Byte pins on every observability artifact of three reference runs: a
/// lossy network scenario (N), the Section 2.5 fire alarm (F) and a lossy
/// tree-mode fleet with hibernation (L).  Each artifact is compared by its
/// SHA-256 against a constant recorded once; any change to what the
/// journal, trace, metrics or health channels record — an event dropped,
/// duplicated, renamed, reordered or re-attributed — changes a digest.
/// Together the runs cover every journal event kind except
/// session.replay_rejected, cache.invalidate and smarm.round.
///
/// The N and L journals are pinned twice: whole, and without their
/// verifier.verdict lines.  The second pin predates that kind, so it
/// shows the verdict facts were added without moving any other event.

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "src/apps/scenario.hpp"
#include "src/crypto/hash.hpp"
#include "src/fleet/fleet.hpp"
#include "src/obs/health.hpp"
#include "src/obs/journal.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/observer.hpp"
#include "src/obs/trace.hpp"
#include "src/support/hex.hpp"

namespace rasc {
namespace {

std::string sha256_hex(const std::string& artifact) {
  return support::hex_encode(crypto::hash_oneshot(
      crypto::HashKind::kSha256, support::to_bytes(artifact)));
}

std::string without_verdicts(const std::string& ndjson) {
  std::string out;
  std::size_t begin = 0;
  while (begin < ndjson.size()) {
    const std::size_t newline = ndjson.find('\n', begin);
    const std::size_t end = newline == std::string::npos ? ndjson.size() : newline + 1;
    const std::string_view line(ndjson.data() + begin, end - begin);
    if (line.find("\"kind\":\"verifier.verdict\"") == std::string_view::npos) out += line;
    begin = end;
  }
  return out;
}

TEST(ArtifactPin, LossyNetworkScenario) {
  obs::TraceSink trace;
  obs::EventJournal journal;
  obs::MetricsRegistry metrics;
  obs::HealthRollup health;
  obs::Observer observer(&trace, &journal, &metrics);
  apps::NetworkScenarioConfig config;
  config.rounds = 16;
  config.drop_probability = 0.2;
  config.duplicate_probability = 0.1;
  config.corrupt_probability = 0.05;
  config.reorder_probability = 0.1;
  config.partitions = {{100 * sim::kMillisecond, 250 * sim::kMillisecond}};
  config.session.max_attempts = 4;
  config.session.response_timeout = 60 * sim::kMillisecond;
  config.seed = 8;
  config.observer = &observer;
  config.health = &health;
  apps::run_network_scenario(config);

  EXPECT_EQ(sha256_hex(without_verdicts(journal.to_ndjson())),
            "f392c3b4a3a09d2d648333c255805f154bb6d416aca53b6a9fb29dd677d7c824");
  EXPECT_EQ(sha256_hex(journal.to_ndjson()),
            "d9c9bfe79f0a34ee6c0573fe60bab591843e999e8740fdcb8e4130a3abe06141");
  EXPECT_EQ(sha256_hex(trace.to_chrome_json()),
            "fe6cc365dddcc62962f41b28f7db01460aba672996b7558d0ca08ff8d38770a9");
  EXPECT_EQ(sha256_hex(metrics.to_json()),
            "cebf5cc83a6add48073662f1a77fa57329d4a31c722ecfd48a6807f137836299");
  EXPECT_EQ(sha256_hex(health.to_json()),
            "6a158ad4c7d715b406330abad1b086275fc331560a01e2f9b8dc2172e430cf3e");
}

TEST(ArtifactPin, FireAlarmScenario) {
  obs::TraceSink trace;
  obs::EventJournal journal;
  obs::MetricsRegistry metrics;
  obs::Observer observer(&trace, &journal, &metrics);
  apps::FireAlarmScenarioConfig config;
  config.observer = &observer;
  apps::run_fire_alarm_scenario(config);

  EXPECT_EQ(sha256_hex(journal.to_ndjson()),
            "49f5da23f73c0648d69f35c9ebcd2dd1fd37510b73202aef20ded8223e6aac1c");
  EXPECT_EQ(sha256_hex(trace.to_chrome_json()),
            "24c5c6c7329c2f60d335e5a362f5bbc7f1b7ac8496980f0a24384106efc517af");
  EXPECT_EQ(sha256_hex(metrics.to_json()),
            "cf9f01ebf9432994172f11ff1fc42dbddc6389fe1a94d8ea184ef6873a12a270");
}

TEST(ArtifactPin, LossyTreeFleetWithHibernation) {
  obs::EventJournal journal(1 << 20);
  obs::MetricsRegistry metrics;
  fleet::FleetConfig config;
  config.devices = 64;
  config.epochs = 3;
  config.max_live_stacks = 8;
  config.max_in_flight = 16;
  config.use_merkle_tree = true;
  config.infected_fraction = 0.25;
  config.drop_probability = 0.2;
  config.duplicate_probability = 0.05;
  config.corrupt_probability = 0.02;
  config.reorder_probability = 0.05;
  config.seed = 11;
  config.journal = &journal;
  config.metrics = &metrics;
  const fleet::FleetResult result = fleet::FleetVerifier(config).run();

  EXPECT_EQ(sha256_hex(without_verdicts(journal.to_ndjson())),
            "6dc9c2952092a879d8bf63d4f89b7cbd035cff803ee2e8d16e4cfc2b6e4a48df");
  EXPECT_EQ(sha256_hex(journal.to_ndjson()),
            "600f14f4e52e75201888dddb734f3672fd2e1471cb62fb2106c069cd8cc7ca6f");
  EXPECT_EQ(sha256_hex(metrics.to_json()),
            "defe2f380671fe32cb65f85fe4671434f8ebfdf97f3930b465bd2b34a794c25c");
  EXPECT_EQ(sha256_hex(result.health.to_json()),
            "c751be944d1d24aff0e5c47f9d8e00f0c86e09b28585d7886dc962ebff7760c0");
}

}  // namespace
}  // namespace rasc

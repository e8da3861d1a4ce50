#pragma once
/// \file network.hpp
/// Point-to-point link between verifier and prover with latency, jitter,
/// serialization delay and a deterministic fault model — loss, duplication,
/// reordering, payload corruption and timed partition windows — enough to
/// model the paper's networking delays (Fig. 1 deferral), SeED's
/// dropped-response false positives, and the lossy-fleet scenarios the
/// reliable session layer (attest::ReliableSession) is built to survive.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/sim/simulator.hpp"
#include "src/support/bytes.hpp"
#include "src/support/rng.hpp"

namespace rasc::sim {

/// Total outage interval [start, end): every message *sent* inside the
/// window is dropped (messages already in flight still arrive — the model
/// is a sender-side blackout, e.g. a gateway reboot).
struct PartitionWindow {
  Time start = 0;
  Time end = 0;
};

struct LinkConfig {
  /// Label for observability (journal actor, e.g. "vrf->prv").  Links with
  /// distinct names stay distinguishable in one journal.
  std::string name = "net";
  Duration base_latency = 2 * kMillisecond;
  Duration jitter = 500 * kMicrosecond;  ///< uniform extra delay in [0, jitter]
  double drop_probability = 0.0;
  /// Probability that a delivered message arrives twice; the duplicate
  /// takes an independently drawn second transit after the original.
  double duplicate_probability = 0.0;
  /// Probability that one byte of the payload is flipped in transit (the
  /// flip is drawn from the link RNG, so runs are reproducible).
  double corrupt_probability = 0.0;
  /// Probability that a message is held back by `reorder_delay`, letting
  /// later messages overtake it.
  double reorder_probability = 0.0;
  Duration reorder_delay = 10 * kMillisecond;
  double bytes_per_second = 1e6;  ///< serialization rate (1 MB/s default)
  std::uint64_t seed = 0x11ce;
  /// Timed blackout windows (see PartitionWindow); checked at send time.
  std::vector<PartitionWindow> partitions;
};

class Link {
 public:
  using Handler = std::function<void(support::Bytes)>;

  Link(Simulator& sim, LinkConfig config = {})
      : sim_(sim), config_(config), rng_(config.seed) {}

  /// Queue a message; the handler fires after the simulated transit time
  /// for every delivered copy (possibly twice under duplication, possibly
  /// with a flipped byte under corruption) unless the message is dropped.
  /// In-flight deliveries hold only a weak reference to the link, so
  /// destroying a Link cancels them instead of dereferencing freed memory.
  /// Each send is assigned a per-link message id (1, 2, ...) carried by
  /// every link.* fact of its fate — each emitted once, through the
  /// simulator's observer — so a flight recording names the exact message
  /// that was dropped/duplicated/corrupted.
  void send(support::Bytes payload, Handler on_delivery);

  /// Lifetime fates of the messages sent.  Duplicates count once each in
  /// `delivered`, so after the queue drains:
  /// delivered == sent - dropped + duplicated.
  struct Counters {
    std::size_t sent = 0;
    std::size_t delivered = 0;
    std::size_t dropped = 0;
    std::size_t duplicated = 0;
    std::size_t corrupted = 0;
    std::size_t reordered = 0;
    std::size_t partition_dropped = 0;  ///< subset of dropped: partition windows
  };
  const Counters& counters() const noexcept { return counters_; }
  std::size_t sent() const noexcept { return counters_.sent; }
  std::size_t delivered() const noexcept { return counters_.delivered; }
  std::size_t dropped() const noexcept { return counters_.dropped; }
  std::size_t duplicated() const noexcept { return counters_.duplicated; }
  std::size_t corrupted() const noexcept { return counters_.corrupted; }
  std::size_t reordered() const noexcept { return counters_.reordered; }
  std::size_t partition_dropped() const noexcept { return counters_.partition_dropped; }

  /// Zero every counter so a harness reusing one link across trials can
  /// assert the delivered == sent - dropped + duplicated invariant per
  /// trial instead of cumulatively.  Message ids keep counting up (they
  /// tag journal events, and a restart would alias fates across trials);
  /// the fault RNG is likewise not rewound.
  void reset_counters() noexcept { counters_ = {}; }

  const LinkConfig& config() const noexcept { return config_; }

  /// Deliveries scheduled but not yet fired.  A link is quiescent (safe to
  /// hibernate) only when this is zero; tearing it down earlier would
  /// silently cancel in-flight messages and change delivery outcomes.
  std::size_t in_flight() const noexcept { return in_flight_; }

  /// Serializable fault-model state: the RNG position, the message-id
  /// counter, and every lifetime fault counter.  Restoring a snapshot into
  /// a freshly constructed Link (same config) resumes the fault stream
  /// exactly, so the fates of all future messages are unchanged.
  struct State {
    support::Xoshiro256::State rng{};
    std::uint64_t next_msg_id = 0;
    Counters counters;
  };

  State save_state() const noexcept { return {rng_.state(), next_msg_id_, counters_}; }
  void restore_state(const State& s) noexcept {
    rng_.set_state(s.rng);
    next_msg_id_ = s.next_msg_id;
    counters_ = s.counters;
  }

 private:
  /// base latency + jitter draw + rounded-to-nearest serialization delay
  /// (>= 1 ns for any nonzero payload so distinct sizes never alias to a
  /// free transit).
  Duration transit_time(std::size_t bytes);
  bool in_partition(Time t) const noexcept;
  void deliver_after(Duration transit, support::Bytes payload, Handler handler,
                     std::uint64_t msg_id);
  /// One fact about message `msg_id` (journal actor = the link name).
  void emit(obs::JournalEventKind kind, std::uint64_t msg_id, std::uint64_t b);

  Simulator& sim_;
  LinkConfig config_;
  support::Xoshiro256 rng_;
  Counters counters_;
  std::size_t in_flight_ = 0;
  std::uint64_t next_msg_id_ = 0;
  obs::ActorId journal_actor_;
  /// Lifetime token observed (weakly) by in-flight delivery events.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace rasc::sim

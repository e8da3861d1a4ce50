#include "src/attest/protocol.hpp"

#include <memory>

#include "src/crypto/hmac.hpp"

namespace rasc::attest {

namespace {

constexpr crypto::HashKind kRequestMacHash = crypto::HashKind::kSha256;
constexpr std::size_t kRequestMacSize = 32;

support::Bytes request_mac_input(const ChallengeRequest& request) {
  support::Bytes material = support::to_bytes("ra-challenge-request");
  support::append_u64_be(material, request.counter);
  support::append(material, request.challenge);
  return material;
}

}  // namespace

support::Bytes seal_challenge_request(const ChallengeRequest& request,
                                      support::ByteView key) {
  support::Bytes wire;
  support::append_u64_be(wire, request.counter);
  support::append_u32_be(wire, static_cast<std::uint32_t>(request.challenge.size()));
  support::append(wire, request.challenge);
  support::append(wire, crypto::Hmac::compute(kRequestMacHash, key,
                                              request_mac_input(request)));
  return wire;
}

std::optional<ChallengeRequest> open_challenge_request(support::ByteView wire,
                                                       support::ByteView key) {
  if (wire.size() < 8 + 4 + kRequestMacSize) return std::nullopt;
  ChallengeRequest request;
  request.counter = support::get_u64_be(wire.subspan(0, 8));
  const std::uint32_t challenge_len = support::get_u32_be(wire.subspan(8, 4));
  if (wire.size() != 8 + 4 + challenge_len + kRequestMacSize) return std::nullopt;
  request.challenge.assign(wire.begin() + 12, wire.begin() + 12 + challenge_len);
  const support::ByteView mac = wire.subspan(12 + challenge_len, kRequestMacSize);
  const support::Bytes expected =
      crypto::Hmac::compute(kRequestMacHash, key, request_mac_input(request));
  if (!support::ct_equal(mac, expected)) return std::nullopt;
  return request;
}

OnDemandProtocol::OnDemandProtocol(sim::Device& prover_device, Verifier& verifier,
                                   AttestationProcess& mp, sim::Link& vrf_to_prv,
                                   sim::Link& prv_to_vrf, Config config)
    : device_(prover_device),
      verifier_(verifier),
      mp_(mp),
      vrf_to_prv_(vrf_to_prv),
      prv_to_vrf_(prv_to_vrf),
      config_(config) {}

void OnDemandProtocol::run(std::uint64_t counter,
                           std::function<void(OnDemandTimings)> done) {
  auto timings = std::make_shared<OnDemandTimings>();
  auto& sim = device_.sim();

  const support::Bytes challenge = verifier_.issue_challenge(config_.challenge_size);
  timings->t_challenge_sent = sim.now();
  if (auto* sink = sim.trace_sink()) {
    sink->begin(sim.now(), "vrf", "ra.round", {obs::arg("counter", counter)});
    sink->instant(sim.now(), "vrf", "vrf.challenge_sent");
    // Flow arrow from this round's span to the measurement span it starts
    // on the prover track (finished at t_mp_started below).
    sink->flow_start(sim.now(), "vrf", "ra.challenge", counter);
  }

  support::Bytes request_wire =
      seal_challenge_request({counter, challenge}, device_.attestation_key());
  vrf_to_prv_.send(std::move(request_wire), [this, timings, done = std::move(done)](
                                                support::Bytes request_bytes) mutable {
    auto& sim = device_.sim();
    const auto request =
        open_challenge_request(request_bytes, device_.attestation_key());
    if (!request) {
      ++rejected_auth_;
      if (auto* sink = sim.trace_sink()) {
        sink->instant(sim.now(), "prv", "prv.request_rejected_auth");
      }
      return;
    }
    if (prover_counter_seen_ && request->counter <= prover_last_counter_) {
      ++rejected_replay_;
      if (auto* sink = sim.trace_sink()) {
        sink->instant(sim.now(), "prv", "prv.request_rejected_replay",
                      {obs::arg("counter", request->counter)});
      }
      return;
    }
    if (mp_.busy()) {
      // A measurement for an earlier request is still running; that
      // request's report will answer the verifier (or time out upstream).
      ++ignored_busy_;
      if (auto* sink = sim.trace_sink()) {
        sink->instant(sim.now(), "prv", "prv.request_ignored_busy",
                      {obs::arg("counter", request->counter)});
      }
      return;
    }
    prover_counter_seen_ = true;
    prover_last_counter_ = request->counter;
    timings->t_request_received = sim.now();

    // Deferral: authenticate the request / wind down the previous task.
    ++pending_events_;
    sim.schedule_in(config_.request_auth_delay, [this, timings,
                                                 request = *request,
                                                 done = std::move(done)]() mutable {
      --pending_events_;
      timings->t_mp_started = device_.sim().now();
      const std::uint64_t req_counter = request.counter;
      MeasurementContext context{device_.id(), std::move(request.challenge),
                                 request.counter};
      auto on_measured = [this, timings, done = std::move(done)](
                             AttestationResult result) mutable {
        timings->t_s = result.t_s;
        timings->t_e = result.t_e;
        timings->t_r = result.t_r;
        timings->attestation = std::move(result);

        // Ship the report; the wire bytes are what the verifier judges.
        // Flow arrow from the measurement span back to the verifier round
        // (finished at vrf.report_received).
        if (auto* sink = device_.sim().trace_sink()) {
          sink->flow_start(device_.sim().now(), mp_.trace_track(), "ra.report",
                           timings->attestation.report.counter);
        }
        prv_to_vrf_.send(serialize_report_wire(timings->attestation.report),
                         [this, timings, done = std::move(done)](
                             support::Bytes report_wire) mutable {
          auto& sim = device_.sim();
          timings->t_report_received = sim.now();
          if (auto* sink = sim.trace_sink()) {
            sink->instant(sim.now(), "vrf", "vrf.report_received");
            sink->flow_finish(sim.now(), "vrf", "ra.report",
                              timings->attestation.report.counter);
          }
          ++pending_events_;
          sim.schedule_in(config_.verify_delay,
                          [this, timings, report_wire = std::move(report_wire),
                           done = std::move(done)]() mutable {
            --pending_events_;
            auto& sim = device_.sim();
            timings->t_verified = sim.now();
            const auto parsed = parse_report_wire(report_wire);
            if (parsed) {
              timings->outcome = verifier_.verify(*parsed, /*expect_challenge=*/true);
              sim.emit(obs::JournalEventKind::kVerifierVerdict, {device_.id()}, {}, 0,
                       timings->outcome.failed_checks(), timings->outcome.localized.size());
            } else {
              timings->report_wire_ok = false;
              timings->outcome = VerifyOutcome{};
              timings->outcome.challenge_ok = false;
              timings->outcome.counter_ok = false;
            }
            if (auto* sink = sim.trace_sink()) {
              sink->end(timings->t_verified, "vrf",
                        {obs::arg("verdict",
                                  std::string(timings->outcome.ok() ? "ok" : "fail"))});
            }
            done(*timings);
          });
        });
      };
      mp_.start(std::move(context), std::move(on_measured));
      // The measurement span just opened on the prover track; land the
      // challenge flow arrow on it.
      if (auto* sink = device_.sim().trace_sink()) {
        sink->flow_finish(timings->t_mp_started, mp_.trace_track(), "ra.challenge",
                          req_counter);
      }
    });
  });
}

}  // namespace rasc::attest

#include "src/selfmeasure/erasmus.hpp"

namespace rasc::selfm {

namespace {
attest::ProverConfig to_prover_config(const ErasmusConfig& config) {
  attest::ProverConfig out;
  out.hash = config.hash;
  out.mode = config.mode;
  out.order = config.order;
  out.priority = config.priority;
  return out;
}
}  // namespace

ErasmusProver::ErasmusProver(sim::Device& device, ErasmusConfig config,
                             attest::LockPolicy* policy)
    : device_(device), config_(config), mp_(device, to_prover_config(config), policy) {}

void ErasmusProver::start(sim::Time until) {
  until_ = until;
  auto& sim = device_.sim();
  const sim::Time first = sim.now();  // ticks in [first, until)
  const std::uint64_t ticks = until <= first ? 0 : (until - first - 1) / config_.period + 1;
  sim.schedule_every(first, config_.period, ticks, [this] { tick(); });
}

void ErasmusProver::tick() {
  auto* sink = device_.sim().trace_sink();
  if (mp_.busy()) {
    ++deferrals_;  // previous measurement overran its slot
    if (sink != nullptr) {
      sink->instant(device_.sim().now(), "erasmus", "erasmus.deferral",
                    {obs::arg("cause", std::string("mp-busy"))});
    }
    return;
  }
  if (config_.context_aware && device_.cpu().busy()) {
    // Give way to the application: retry shortly instead of contending.
    ++deferrals_;
    if (sink != nullptr) {
      sink->instant(device_.sim().now(), "erasmus", "erasmus.deferral",
                    {obs::arg("cause", std::string("cpu-busy"))});
    }
    device_.sim().schedule_in(10 * sim::kMillisecond, [this] {
      if (device_.sim().now() < until_) tick();
    });
    return;
  }
  attest::MeasurementContext context{device_.id(), {}, ++counter_};
  mp_.start(std::move(context),
            [this](attest::AttestationResult result) { store(std::move(result.report)); });
}

void ErasmusProver::measure_on_demand(support::Bytes challenge,
                                      std::function<void(attest::Report)> done) {
  attest::MeasurementContext context{device_.id(), std::move(challenge), ++counter_};
  mp_.start(std::move(context),
            [this, done = std::move(done)](attest::AttestationResult result) {
              store(result.report);
              done(std::move(result.report));
            });
}

void ErasmusProver::store(attest::Report report) {
  measurement_times_.push_back(report.t_end);
  if (auto* sink = device_.sim().trace_sink()) {
    sink->instant(device_.sim().now(), "erasmus", "erasmus.stored",
                  {obs::arg("counter", report.counter),
                   obs::arg("history", static_cast<std::uint64_t>(history_.size() + 1))});
  }
  history_.push_back(std::move(report));
  if (history_.size() > config_.history_capacity) history_.pop_front();
}

Collector::Collector(attest::Verifier& verifier, ErasmusProver& prover, sim::Link& to_prv,
                     sim::Link& to_vrf, sim::Duration period)
    : verifier_(verifier), prover_(prover), to_prv_(to_prv), to_vrf_(to_vrf),
      period_(period) {}

void Collector::start(sim::Time until) {
  // First collection one period in, so measurements can accumulate; the
  // last one before `until`.
  const std::uint64_t collections = until <= period_ ? 0 : (until - period_ - 1) / period_ + 1;
  prover_.simulator().schedule_every(period_, period_, collections, [this] {
    to_prv_.send({}, [this](support::Bytes) { collect(); });
  });
}

void Collector::collect() {
  // Snapshot the history and ship it back; payload size approximates the
  // real serialized size.
  auto reports = std::make_shared<std::vector<attest::Report>>(
      prover_.history().begin(), prover_.history().end());
  support::Bytes payload;
  for (const auto& r : *reports) {
    support::append(payload, r.serialize_body());
    support::append(payload, r.mac);
  }
  to_vrf_.send(std::move(payload), [this, reports](support::Bytes) {
    CollectionRecord record;
    record.at = prover_.simulator().now();
    for (const auto& report : *reports) {
      if (report.counter <= seen_up_to_) continue;
      seen_up_to_ = report.counter;
      ++record.reports_seen;
      const auto outcome = verifier_.verify(report, /*expect_challenge=*/false);
      if (!outcome.ok()) {
        ++record.reports_bad;
        record.detected = true;
        detection_times_.push_back(record.at);
      }
    }
    records_.push_back(record);
  });
}

}  // namespace rasc::selfm

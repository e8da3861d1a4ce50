#pragma once
/// \file common.hpp
/// Shared pieces of the host-time benchmark harness: run options, the
/// in-memory span tracer, the output fingerprint, order statistics and
/// the per-workload result record that main.cpp prints as JSON.

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace hostbench {

/// Options of one harness process (one workload, one seed).
struct RunSpec {
  std::uint64_t seed = 1;
  /// Host seconds of timed rounds to run (set-up excluded).
  double seconds = 10.0;
  /// Traced run: record spans and counters and report per-layer metrics.
  bool trace = false;
  /// Tiny inputs for the benchmark's self-tests (not a measurement).
  bool tiny = false;
  /// Run only the first batch of rounds: enough to compute the fingerprint.
  bool fingerprint_only = false;
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Spans kept in memory and written out when the run ends.  A span's
/// parent is the span open when it started; all spans of one workload run
/// share its run id.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    std::string run;
  };

  /// RAII span; a null tracer makes it a no-op.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  void set_run(std::string run) { run_ = std::move(run); }

  /// Durations (ns) of every closed span called `name`.
  std::vector<double> durations(const std::string& name) const;
  /// Of all spans named `root`, the share of their time not covered by a
  /// direct child span.
  double unattributed_share(const std::string& root) const;

  /// One JSON object per line: name, start_ns, end_ns, parent, run.
  void write_ndjson(std::ostream& out) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::string run_;
};

/// FNV-1a over the canonical bytes of a workload's deterministic outputs.
class Fingerprint {
 public:
  void add(std::uint64_t v);
  void add(double v);
  void add(const std::string& s);
  void add_bytes(const std::uint8_t* data, std::size_t n);
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct WorkloadResult {
  std::uint64_t attempted = 0;   ///< rounds attempted in the timed loop
  std::uint64_t misjudged = 0;   ///< verdict disagrees with ground truth
  std::uint64_t unresolved = 0;  ///< rounds that never reached a verdict
  std::string fingerprint;       ///< over the first batch of rounds
  std::vector<std::string> violations;  ///< must stay empty
  std::vector<Metric> metrics;
  /// Sample counts behind the timing metrics, by metric name.
  std::vector<std::pair<std::string, std::uint64_t>> samples;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Keep the metric of the same name from `other` if this has none.
  void adopt_missing(const WorkloadResult& other);
};

/// Linear-interpolated quantile q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

/// Peak resident set of this process, MiB.
double peak_rss_mb();

/// Deterministic 64-bit mixing for seed derivation.
std::uint64_t mix(std::uint64_t a, std::uint64_t b);

/// Host times of a run's timed rounds.  Every batch runs each input
/// class once (a lock mechanism and adversary, a dirty fraction and
/// mode, or the whole fleet); a class's best time is its fastest round in
/// the run.
struct RoundTimes {
  explicit RoundTimes(std::size_t classes);
  void add(std::size_t cls, double ms);

  std::vector<double> best_ms;  ///< per class; +inf until the class runs
  std::size_t rounds = 0;
};

/// Timing metrics common to every workload: rounds_per_s, round_ms_p50
/// and round_ms_max from the classes' best times, setup_s (the best of
/// `setups`) and peak_rss_mb.
void add_end_to_end(WorkloadResult& out, const RoundTimes& times,
                    const std::vector<double>& setups);

WorkloadResult run_fleet_lossy(const RunSpec& spec, Tracer* tracer);
WorkloadResult run_device_writer(const RunSpec& spec, Tracer* tracer);
WorkloadResult run_prover_churn(const RunSpec& spec, Tracer* tracer);

/// Layer probes: each times one layer's hot public function on inputs
/// derived from `seed` the way the workload that owns the layer derives
/// them.  Every traced run calls all of them.
void run_layer_probes(std::uint64_t seed, WorkloadResult& out);

}  // namespace hostbench

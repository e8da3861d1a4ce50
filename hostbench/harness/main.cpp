/// hostbench_harness: runs one benchmark workload in this process and
/// prints one JSON object (fingerprint, round counts, metrics) on stdout.
///
///   hostbench_harness --workload fleet_lossy|device_writer|prover_churn
///                     --seed N [--seconds S] [--trace 0|1] [--tiny]
///                     [--fingerprint-only] [--spans-out FILE]
///
/// With --trace 1 it also reports the per-layer metrics.  Those of layers
/// the traced workload does not own are taken from short traced runs of
/// the owning workloads at the same input size, so every traced run
/// reports every metric; read a per-layer metric on the workload that
/// owns it (see README.md).
/// run.py is the entry point that builds this, checks fingerprints and
/// prints the benchmark's result line.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/common.hpp"

namespace {

using hostbench::RunSpec;
using hostbench::Tracer;
using hostbench::WorkloadResult;

using RunFn = WorkloadResult (*)(const RunSpec&, Tracer*);

struct Workload {
  const char* name;
  RunFn run;
};

constexpr Workload kWorkloads[] = {
    {"fleet_lossy", hostbench::run_fleet_lossy},
    {"device_writer", hostbench::run_device_writer},
    {"prover_churn", hostbench::run_prover_churn},
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

void print(const std::string& workload, const RunSpec& spec, const WorkloadResult& r) {
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"fingerprint\":\"%s\"", workload.c_str(),
              static_cast<unsigned long long>(spec.seed), r.fingerprint.c_str());
  std::printf(",\"attempted\":%llu,\"misjudged\":%llu,\"unresolved\":%llu",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.misjudged),
              static_cast<unsigned long long>(r.unresolved));
  std::printf(",\"violations\":[");
  for (std::size_t i = 0; i < r.violations.size(); ++i) {
    std::printf("%s\"%s\"", i ? "," : "", json_escape(r.violations[i]).c_str());
  }
  std::printf("],\"metrics\":{");
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", i ? "," : "",
                r.metrics[i].name.c_str(), r.metrics[i].value, r.metrics[i].unit.c_str());
  }
  std::printf("},\"samples\":{");
  for (std::size_t i = 0; i < r.samples.size(); ++i) {
    std::printf("%s\"%s\":%llu", i ? "," : "", r.samples[i].first.c_str(),
                static_cast<unsigned long long>(r.samples[i].second));
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: hostbench_harness --workload NAME --seed N [--seconds S] "
               "[--trace 0|1] [--tiny] [--fingerprint-only] [--spans-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string spans_out;
  RunSpec spec;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      spec.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      spec.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      spec.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--spans-out" && has_value) {
      spans_out = argv[++i];
    } else if (arg == "--tiny") {
      spec.tiny = true;
    } else if (arg == "--fingerprint-only") {
      spec.fingerprint_only = true;
    } else {
      return usage();
    }
  }
  const Workload* selected = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload == w.name) selected = &w;
  }
  if (selected == nullptr) return usage();

  try {
    Tracer tracer;
    tracer.set_run(workload + "/" + std::to_string(spec.seed));
    WorkloadResult result = selected->run(spec, spec.trace ? &tracer : nullptr);
    if (spec.trace) {
      result.metric("obs.unattributed_share", tracer.unattributed_share("workload"),
                    "share");
      hostbench::run_layer_probes(spec.seed, result);
      std::vector<Tracer> fillers;
      for (const Workload& other : kWorkloads) {
        if (&other == selected) continue;
        RunSpec small = spec;
        small.seconds = 0.0;  // the minimum number of batches
        Tracer& other_tracer = fillers.emplace_back();
        other_tracer.set_run(std::string(other.name) + "/filler/" + std::to_string(spec.seed));
        const WorkloadResult filler = other.run(small, &other_tracer);
        result.adopt_missing(filler);
        result.violations.insert(result.violations.end(), filler.violations.begin(),
                                 filler.violations.end());
      }
      if (!spans_out.empty()) {
        std::ofstream out(spans_out);
        tracer.write_ndjson(out);
        for (const Tracer& t : fillers) t.write_ndjson(out);
        if (!out) throw std::runtime_error("cannot write spans to " + spans_out);
      }
    }
    print(workload, spec, result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hostbench_harness: %s\n", e.what());
    return 1;
  }
  return 0;
}

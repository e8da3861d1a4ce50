#include "harness/common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>

namespace hostbench {

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Span span;
  span.name = name;
  span.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  span.run = tracer_->run_;
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back(std::move(span));
  tracer_->open_.push_back(index_);
  tracer_->spans_.back().start_ns = now_ns();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[static_cast<std::size_t>(index_)].end_ns = now_ns();
  tracer_->open_.pop_back();
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  }
  return out;
}

double Tracer::unattributed_share(const std::string& root) const {
  double total = 0.0;
  double covered = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != root) continue;
    total += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    // Children of one span run one after another, so their durations add.
    for (const Span& c : spans_) {
      if (c.parent == static_cast<int>(i)) {
        covered += static_cast<double>(c.end_ns - c.start_ns);
      }
    }
  }
  return total > 0.0 ? (total - covered) / total : 0.0;
}

void Tracer::write_ndjson(std::ostream& out) const {
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent << ",\"run\":\""
        << s.run << "\"}\n";
  }
}

void Fingerprint::add_bytes(const std::uint8_t* data, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= data[i];
    h_ *= 0x100000001b3ULL;
  }
}

void Fingerprint::add(std::uint64_t v) {
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  add_bytes(b, 8);
}

void Fingerprint::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

void Fingerprint::add(const std::string& s) {
  add(static_cast<std::uint64_t>(s.size()));
  add_bytes(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

std::string Fingerprint::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

void WorkloadResult::adopt_missing(const WorkloadResult& other) {
  for (const Metric& m : other.metrics) {
    const bool present = std::any_of(metrics.begin(), metrics.end(),
                                     [&](const Metric& x) { return x.name == m.name; });
    if (!present) metrics.push_back(m);
  }
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water
  // mark of the process image that exec() replaced (the forked parent).
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

RoundTimes::RoundTimes(std::size_t classes)
    : best_ms(classes, std::numeric_limits<double>::infinity()) {}

void RoundTimes::add(std::size_t cls, double ms) {
  best_ms.at(cls) = std::min(best_ms[cls], ms);
  ++rounds;
}

void add_end_to_end(WorkloadResult& out, const RoundTimes& times,
                    const std::vector<double>& setups) {
  // Best times are what a round or a set-up costs when the shared host
  // leaves the core's caches alone; medians follow the host's contention
  // states instead (see README.md, "Noise").
  double best_sum_ms = 0.0;
  for (double ms : times.best_ms) best_sum_ms += ms;
  out.metric("setup_s", *std::min_element(setups.begin(), setups.end()), "s");
  out.metric("rounds_per_s", 1e3 * static_cast<double>(times.best_ms.size()) / best_sum_ms,
             "1/s");
  out.metric("round_ms_p50", median(times.best_ms), "ms");
  out.metric("round_ms_max", *std::max_element(times.best_ms.begin(), times.best_ms.end()),
             "ms");
  out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  out.samples.emplace_back("setup_s", setups.size());
  out.samples.emplace_back("classes", times.best_ms.size());
  out.samples.emplace_back("rounds", times.rounds);
}

}  // namespace hostbench

#include "bench_util.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Progress(const std::string& what) {
  static const uint64_t t0 = NowNs();
  std::fprintf(stderr, "perfbench: [%7.2f s] %s\n",
               static_cast<double>(NowNs() - t0) * 1e-9, what.c_str());
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  if (v.size() % 2 == 1) return v[mid];
  const double hi = v[mid];
  const double lo = *std::max_element(v.begin(), v.begin() + mid);
  return (lo + hi) / 2.0;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return v[rank - 1];
}

double TailQuantile(uint64_t guaranteed) {
  // Nearest-rank percentile n - 10 of n leaves exactly 10 samples beyond it;
  // above p95 a few hundred ms of host noise moves the value by 20-30%.
  if (guaranteed <= 20) return 0.5;
  return std::min(0.95, 1.0 - 10.0 / static_cast<double>(guaranteed));
}

std::string QuantileName(double q) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "p%g", q * 100.0);
  return buf;
}

namespace {

uint64_t StatusKb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtoull(line.c_str() + prefix.size(), nullptr, 10);
    }
  }
  return 0;
}

}  // namespace

bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  if (!out) return false;
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

uint64_t PeakRssKb() { return StatusKb("VmHWM"); }
uint64_t CurrentRssKb() { return StatusKb("VmRSS"); }

uint64_t SpanLog::TotalNs(const std::string& name) const {
  uint64_t total = 0;
  for (const Span& s : spans_) {
    if (name == s.name) total += s.end_ns - s.start_ns;
  }
  return total;
}

uint64_t SpanLog::TotalCalls(const std::string& name) const {
  uint64_t total = 0;
  for (const Span& s : spans_) {
    if (name == s.name) total += s.calls;
  }
  return total;
}

void SpanLog::WriteJsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  for (const Span& s : spans_) {
    out << "{\"op\":" << s.op << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns
        << ",\"dur_ns\":" << (s.end_ns - s.start_ns) << ",\"calls\":" << s.calls
        << "}\n";
  }
}

namespace {

template <typename T>
const T* FindIn(const std::vector<T>& v, const std::string& name) {
  for (const T& x : v) {
    if (x.name == name) return &x;
  }
  return nullptr;
}

}  // namespace

uint64_t RegistryDelta::Counter(const std::string& name) const {
  const auto* a = FindIn(after_.counters, name);
  const auto* b = FindIn(before_.counters, name);
  return (a ? a->value : 0) - (b ? b->value : 0);
}

rlc::obs::HistogramSnapshot RegistryDelta::Histogram(
    const std::string& name) const {
  rlc::obs::HistogramSnapshot d;
  d.name = name;
  const auto* a = FindIn(after_.histograms, name);
  if (a == nullptr) return d;
  const auto* b = FindIn(before_.histograms, name);
  d.buckets = a->buckets;
  d.max = a->max;
  d.sum = a->sum - (b ? b->sum : 0);
  for (size_t i = 0; i < d.buckets.size(); ++i) {
    if (b != nullptr && i < b->buckets.size()) d.buckets[i] -= b->buckets[i];
    d.count += d.buckets[i];
  }
  return d;
}

double HistogramTail(const rlc::obs::HistogramSnapshot& h) {
  return static_cast<double>(h.Percentile(TailQuantile(h.count)));
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

void Outcome::Metric(const std::string& name, double value,
                     const std::string& unit) {
  for (Entry& e : metrics_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void Outcome::Property(const std::string& name, double value,
                       const std::string& base) {
  std::ostringstream line;
  line.precision(6);
  line << "# property " << name << " = " << value;
  if (!base.empty()) line << "  (base: " << base << ")";
  lines_.push_back(line.str());
}

void Outcome::Note(const std::string& text) { lines_.push_back("# " + text); }

void Outcome::Mismatch(const std::string& what) {
  ++mismatches_;
  if (mismatches_ <= 10) std::fprintf(stderr, "perfbench: WRONG: %s\n", what.c_str());
}

bool Outcome::Has(const std::string& name) const {
  for (const Entry& e : metrics_) {
    if (e.name == name) return true;
  }
  return false;
}

void Outcome::Print(
    const std::vector<std::pair<std::string, std::string>>& names) const {
  for (const std::string& l : lines_) std::printf("%s\n", l.c_str());
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : names) {
    const Entry* found = nullptr;
    for (const Entry& e : metrics_) {
      if (e.name == name) found = &e;
    }
    if (found == nullptr) continue;
    const Entry& e = *found;
    char num[64];
    std::snprintf(num, sizeof(num), "%.9g",
                  std::isfinite(e.value) ? e.value : 0.0);
    json += first ? "" : ", ";
    first = false;
    json += "\"" + e.name + "\": {\"value\": " + num + ", \"unit\": \"" +
            e.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench

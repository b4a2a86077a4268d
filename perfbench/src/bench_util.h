// Shared plumbing of the end-to-end benchmark: command-line arguments,
// timing statistics, the benchmark-side span log, peak-memory probes,
// registry deltas and the result record printed as the last output line.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "rlc/obs/metrics.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke-test scale: small graphs, one set-up, short phases.
  bool tiny = false;
  /// Flips one probe answer before verification (the smoke test checks
  /// that the run then fails).
  bool inject_wrong = false;
  /// Scratch directory for durable state (inside the build tree).
  std::string work_dir;
};

uint64_t NowNs();

/// Progress line on stderr ("perfbench: [  1.23 s] <what>"), seconds since
/// the first progress line; stdout stays reserved for the result.
void Progress(const std::string& what);

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
double Median(std::vector<double> v);

/// Arithmetic mean of `v`; 0 when empty.
double Mean(const std::vector<double>& v);

/// Nearest-rank percentile of `v`, q in (0, 1].
double Percentile(std::vector<double> v, double q);

/// The tail percentile a workload reports: the highest one that leaves at
/// least 10 samples beyond it when the timed loop collects `guaranteed`
/// samples, 1 - 10/guaranteed, capped at p95 (0.5 below 20 samples). The
/// loop runs until it has that many, so the percentile does not move with
/// machine speed.
double TailQuantile(uint64_t guaranteed);

/// "p99", "p97.5", ... for a quantile from TailQuantile.
std::string QuantileName(double q);

/// Peak resident memory: ResetPeakRss() sets VmHWM back to the current RSS
/// (writes 5 to /proc/self/clear_refs); the *Kb() readers parse
/// /proc/self/status. Returns false when the reset is unsupported.
bool ResetPeakRss();
uint64_t PeakRssKb();
uint64_t CurrentRssKb();

/// Benchmark-side tracing: spans around each public call a workload makes,
/// kept in memory and written out once at the end. Spans of one operation
/// (a client round) share `op`; `calls` counts the library calls a span
/// covers (runs of scalar queries are one span, never one per call).
class SpanLog {
 public:
  struct Span {
    uint64_t op = 0;
    const char* name = "";
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    uint64_t calls = 1;
  };

  void set_enabled(bool on) { enabled_ = on; }
  uint64_t NewOp() { return ++last_op_; }
  void Record(uint64_t op, const char* name, uint64_t start_ns, uint64_t end_ns,
              uint64_t calls = 1) {
    if (enabled_) spans_.push_back({op, name, start_ns, end_ns, calls});
  }
  /// Summed duration and call count of every span named `name`.
  uint64_t TotalNs(const std::string& name) const;
  uint64_t TotalCalls(const std::string& name) const;
  /// One JSON object per line: {"op","name","start_ns","dur_ns","calls"}.
  void WriteJsonl(const std::string& path) const;

 private:
  bool enabled_ = false;
  uint64_t last_op_ = 0;
  std::vector<Span> spans_;
};

/// Difference of two registry snapshots taken around a timed phase.
class RegistryDelta {
 public:
  RegistryDelta(rlc::obs::MetricsSnapshot before,
                rlc::obs::MetricsSnapshot after)
      : before_(std::move(before)), after_(std::move(after)) {}
  uint64_t Counter(const std::string& name) const;
  /// Bucket-wise difference (percentiles from bucket midpoints).
  rlc::obs::HistogramSnapshot Histogram(const std::string& name) const;

 private:
  rlc::obs::MetricsSnapshot before_;
  rlc::obs::MetricsSnapshot after_;
};

/// Highest-rung tail of a histogram: the TailQuantile of its count.
double HistogramTail(const rlc::obs::HistogramSnapshot& h);

double Ratio(double num, double den);

/// What one run reports: the metrics of the selected mode, the input
/// properties (printed as "# property" lines) and the correctness tally.
class Outcome {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// A workload property with the base its share is taken over.
  void Property(const std::string& name, double value, const std::string& base);
  void Note(const std::string& text);
  /// Counts one verification failure (the run then exits non-zero).
  void Mismatch(const std::string& what);
  void AddAttempted(uint64_t n) { attempted_ += n; }
  void AddFailed(uint64_t n) { failed_ += n; }

  bool correct() const { return mismatches_ == 0; }
  bool Has(const std::string& name) const;
  /// Prints property/note lines, then the result JSON as the last line
  /// with the metrics `names` in that order.
  void Print(const std::vector<std::pair<std::string, std::string>>& names) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::string> lines_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t mismatches_ = 0;
};

/// Workload entry points (paper_index.cc, sharded.cc). Each fills `out`
/// with the end-to-end metrics (args.trace == false) or the per-layer
/// metrics (args.trace == true) and records every verification failure.
void RunPaperIndex(const Args& args, Outcome& out);
void RunCommunityRead(const Args& args, Outcome& out);
void RunChurnDurable(const Args& args, Outcome& out);
void RunHashSpill(const Args& args, Outcome& out);

/// Every per-layer metric name with its unit, in output order. A traced run
/// reports all of them; a layer a workload never calls reads 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

}  // namespace perfbench

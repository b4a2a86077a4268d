// Workload paper_index: the paper's operator on one whole-graph index.
//
// Graph: the Soc-Epinions (EP) Table III surrogate at scale 0.2 (15,000
// vertices, ~90,000 edges, 8 Zipf(2) labels), generated from a constant
// seed, k = 2. Set-up is
// RlcIndexBuilder(g, {k=2, num_threads=1}).Build(), repeated and reported
// as the median. Probes are length-2 constraints over uniform primitive
// label pairs: half are derived from random walks whose label word is
// (ab)^r, so they are true by construction; the other half have uniform
// endpoints and are classified on a seeded sample by online search. The
// timed loop alternates one ExecuteBatch of 16,384 probes with one run of
// 2,048 scalar RlcIndex::Query calls.

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "oracle.h"
#include "rlc/core/indexer.h"
#include "rlc/core/rlc_index.h"
#include "rlc/graph/datasets.h"
#include "rlc/serve/query_batch.h"
#include "rlc/util/rng.h"
#include "rlc/workload/query_gen.h"

namespace perfbench {
namespace {

using rlc::LabelSeq;
using rlc::VertexId;

struct Probe {
  VertexId s = 0;
  VertexId t = 0;
  LabelSeq seq;
  bool known_true = false;  ///< walk-derived: reachable by construction
};

/// A probe whose answer is true by construction: a walk s -a-> . -b-> ...
/// repeating (a b) one to three times, with a != b so (a b) is primitive.
bool WalkProbe(const rlc::DiGraph& g, rlc::Rng& rng, Probe* p) {
  const VertexId s = static_cast<VertexId>(rng.Below(g.num_vertices()));
  const auto out0 = g.OutEdges(s);
  if (out0.empty()) return false;
  const rlc::LabeledNeighbor e0 = out0[rng.Below(out0.size())];
  // Reservoir-pick an out-edge of e0.v with a label other than e0's.
  rlc::LabeledNeighbor e1{};
  uint64_t seen = 0;
  for (const rlc::LabeledNeighbor& e : g.OutEdges(e0.v)) {
    if (e.label != e0.label && rng.Below(++seen) == 0) e1 = e;
  }
  if (seen == 0) return false;
  VertexId t = e1.v;
  const uint64_t extra = rng.Below(3);
  for (uint64_t r = 0; r < extra; ++r) {
    const auto a = g.OutEdgesWithLabel(t, e0.label);
    if (a.empty()) break;
    const auto b = g.OutEdgesWithLabel(a[rng.Below(a.size())].v, e1.label);
    if (b.empty()) break;
    t = b[rng.Below(b.size())].v;
  }
  *p = {s, t, LabelSeq{e0.label, e1.label}, true};
  return true;
}

}  // namespace

void RunPaperIndex(const Args& args, Outcome& out) {
  const double scale = args.tiny ? 0.02 : 0.2;
  const size_t batch_size = args.tiny ? 512 : 16384;
  constexpr size_t kNumBatches = 4;
  const size_t scalar_run = args.tiny ? 256 : 2048;
  const size_t oracle_sample = args.tiny ? 64 : 512;
  const int setups = (args.trace || args.tiny) ? 1 : 3;
  // Batches take ~3 ms; the timed loop runs until it has this many (p95).
  const uint64_t min_batches =
      std::max<uint64_t>(20, static_cast<uint64_t>(args.seconds * 20));

  // ---- inputs (untimed) ----
  // The surrogate is a fixed dataset (constant seed), as the paper's graphs
  // are; --seed draws the probes and the verification sample.
  const rlc::DiGraph g = rlc::MakeSurrogate(*rlc::FindDataset("EP"), scale, 0xE9);
  rlc::Rng rng(args.seed * 0x9E3779B97F4A7C15ULL + 0x5EED);
  std::vector<Probe> pool;
  pool.reserve(kNumBatches * batch_size);
  while (pool.size() < kNumBatches * batch_size) {
    Probe p;
    if (pool.size() % 2 == 0) {
      if (!WalkProbe(g, rng, &p)) continue;
    } else {
      p.s = static_cast<VertexId>(rng.Below(g.num_vertices()));
      p.t = static_cast<VertexId>(rng.Below(g.num_vertices()));
      p.seq = rlc::RandomPrimitiveSeq(2, g.num_labels(), rng);
    }
    pool.push_back(p);
  }
  for (size_t i = pool.size(); i > 1; --i) {
    std::swap(pool[i - 1], pool[rng.Below(i)]);
  }
  std::vector<rlc::QueryBatch> batches(kNumBatches);
  for (size_t i = 0; i < pool.size(); ++i) {
    batches[i / batch_size].Add(pool[i].s, pool[i].t, pool[i].seq);
  }

  Progress("paper_index: inputs generated");
  // ---- set-up (timed, median of `setups`) ----
  const bool rss_reset = ResetPeakRss();
  const uint64_t rss_base_kb = CurrentRssKb();
  SpanLog spans;
  spans.set_enabled(args.trace);
  std::vector<double> setup_s;
  std::optional<rlc::RlcIndex> index;
  rlc::IndexerOptions opts;
  opts.k = 2;
  opts.num_threads = 1;
  for (int i = 0; i < setups; ++i) {
    index.reset();
    const uint64_t op = spans.NewOp();
    const uint64_t t0 = NowNs();
    rlc::RlcIndexBuilder builder(g, opts);
    index.emplace(builder.Build());
    const uint64_t t1 = NowNs();
    spans.Record(op, "Build", t0, t1);
    setup_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
  }

  Progress("set-up done");
  // ---- untimed pass: reference answers for every pool probe ----
  std::vector<uint8_t> ref(pool.size());
  for (size_t b = 0; b < kNumBatches; ++b) {
    const rlc::AnswerBatch a = rlc::ExecuteBatch(*index, batches[b]);
    std::copy(a.answers.begin(), a.answers.end(), ref.begin() + b * batch_size);
  }

  // ---- timed loop ----
  auto& global = rlc::obs::Registry::Global();
  const rlc::obs::MetricsSnapshot before = global.Snapshot();
  std::vector<double> batch_ms;
  std::vector<double> query_us;
  uint64_t ok_probes[2] = {0, 0};  // [traced]
  uint64_t read_ns[2] = {0, 0};
  uint64_t failed = 0;
  uint64_t diverged = 0;
  size_t next_batch = 0;
  size_t next_scalar = 0;
  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(args.seconds * 1e9);
  for (uint64_t now = start, round = 0;
       now < deadline || batch_ms.size() < min_batches; ++round) {
    const bool traced = args.trace && round % 2 == 0;  // alternate rounds
    spans.set_enabled(traced);
    const uint64_t op = spans.NewOp();
    const size_t b = next_batch;
    next_batch = (next_batch + 1) % kNumBatches;

    const uint64_t t0 = NowNs();
    const rlc::AnswerBatch a = rlc::ExecuteBatch(*index, batches[b]);
    const uint64_t t1 = NowNs();
    spans.Record(op, "ExecuteBatch", t0, t1, batch_size);
    batch_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    uint64_t ok = 0;
    for (size_t i = 0; i < a.answers.size(); ++i) {
      if (a.statuses[i] != rlc::ProbeStatus::kOk) continue;
      ++ok;
      diverged += a.answers[i] != ref[b * batch_size + i];
    }
    failed += batch_size - ok;

    const uint64_t q0 = NowNs();
    for (size_t j = 0; j < scalar_run; ++j) {
      const Probe& p = pool[next_scalar];
      diverged += index->Query(p.s, p.t, p.seq) != (ref[next_scalar] != 0);
      next_scalar = next_scalar + 1 == pool.size() ? 0 : next_scalar + 1;
    }
    const uint64_t q1 = NowNs();
    spans.Record(op, "Query", q0, q1, scalar_run);
    query_us.push_back(static_cast<double>(q1 - q0) * 1e-3 /
                       static_cast<double>(scalar_run));
    ok_probes[traced] += ok + scalar_run;
    read_ns[traced] += q1 - t0;
    now = q1;
  }
  const uint64_t loop_end = NowNs();
  Progress("timed loop done");
  const rlc::obs::MetricsSnapshot after = global.Snapshot();
  const double peak_mb =
      static_cast<double>(PeakRssKb() - std::min(PeakRssKb(), rss_base_kb)) *
      1024.0 / 1e6;
  const uint64_t attempted =
      batch_ms.size() * batch_size + query_us.size() * scalar_run;
  out.AddAttempted(attempted);
  out.AddFailed(failed);

  // ---- verification (untimed) ----
  if (diverged != 0) {
    out.Mismatch(std::to_string(diverged) +
                 " timed answers differ from the reference pass");
  }
  if (args.inject_wrong) {
    for (size_t i = 0; i < pool.size(); ++i) {
      if (pool[i].known_true) {
        ref[i] ^= 1;
        break;
      }
    }
  }
  uint64_t known_true = 0;
  for (size_t i = 0; i < pool.size(); ++i) {
    if (!pool[i].known_true) continue;
    ++known_true;
    if (ref[i] != 1) {
      out.Mismatch("walk-derived probe " + std::to_string(i) + " answered false");
    }
  }
  OnlineOracle oracle(g);
  rlc::Rng sample_rng(args.seed ^ 0x0AC1E);
  uint64_t sampled = 0;
  uint64_t sampled_true = 0;
  while (sampled < oracle_sample) {
    const size_t i = sample_rng.Below(pool.size());
    if (pool[i].known_true) continue;
    ++sampled;
    const bool truth = oracle.Reaches(pool[i].s, pool[i].t, pool[i].seq);
    sampled_true += truth;
    if (truth != (ref[i] != 0)) {
      out.Mismatch("uniform probe " + std::to_string(i) + " disagrees with BiBFS");
    }
  }

  Progress("verification done");
  // ---- report ----
  const uint64_t total_ok = ok_probes[0] + ok_probes[1];
  const double tail_q = TailQuantile(min_batches);
  out.Property("vertices", g.num_vertices(), "");
  out.Property("edges", static_cast<double>(g.num_edges()), "");
  out.Property("labels", g.num_labels(), "");
  out.Property("templates", 56, "primitive length-2 sequences over 8 labels");
  out.Property("walk_true_share", Ratio(known_true, pool.size()),
               std::to_string(pool.size()) + " pool probes");
  out.Property("uniform_true_share", Ratio(sampled_true, sampled),
               std::to_string(sampled) + " uniform probes checked by BiBFS");
  out.Property("index_entries", static_cast<double>(index->NumEntries()), "");
  out.Property("batch_size", static_cast<double>(batch_size), "probes");
  out.Note("batch_tail_ms is " + QuantileName(tail_q) + " of " +
           std::to_string(batch_ms.size()) + " batches; query_us is the mean of " +
           std::to_string(query_us.size()) + " runs of " +
           std::to_string(scalar_run) + " calls");
  if (!rss_reset) out.Note("VmHWM reset unsupported: rss_peak_mb is process peak");

  if (!args.trace) {
    out.Metric("setup_s", Median(setup_s), "s");
    out.Metric("batch_mean_ms", Mean(batch_ms), "ms");
    out.Metric("batch_tail_ms", Percentile(batch_ms, tail_q), "ms");
    out.Metric("probes_per_s",
               static_cast<double>(total_ok) * 1e9 /
                   static_cast<double>(loop_end - start),
               "1/s");
    out.Metric("query_us", Mean(query_us), "us");
    out.Metric("service_mb", static_cast<double>(index->MemoryBytes()) / 1e6, "MB");
    out.Metric("rss_peak_mb", peak_mb, "MB");
    return;
  }
  const RegistryDelta d(before, after);
  out.Metric("indexer.build_s", static_cast<double>(spans.TotalNs("Build")) * 1e-9, "s");
  out.Metric("indexer.entries", static_cast<double>(index->NumEntries()), "count");
  out.Metric("kernel.batch_ns_per_probe",
             Ratio(spans.TotalNs("ExecuteBatch"), spans.TotalCalls("ExecuteBatch")),
             "ns");
  out.Metric("kernel.query_ns",
             Ratio(spans.TotalNs("Query"), spans.TotalCalls("Query")), "ns");
  out.Metric("kernel.sig_refuted_share",
             Ratio(d.Counter("rlc.query.sig_refuted"), d.Counter("rlc.query.probes")),
             "1");
  out.Metric("trace.overhead",
             Ratio(Ratio(ok_probes[1], read_ns[1]), Ratio(ok_probes[0], read_ns[0])),
             "1");
  spans.WriteJsonl(args.work_dir + "/spans-paper_index.jsonl");
}

}  // namespace perfbench

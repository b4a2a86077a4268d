// The three ShardedRlcService workloads:
//
//  community_read  planted-partition graph (20,000 vertices, 100,000 edges,
//                  4 communities, 95% intra-community edges, Zipf(2) labels
//                  over 8), 4 kRangeOrdered shards, exec_threads = 1; four
//                  prepared templates with Zipf(1.0)-skewed endpoints; one
//                  untimed pass warms the caches first. Oracle: a
//                  whole-graph RlcIndex.
//  churn_durable   the same graph, partition and templates on a durable
//                  service (one WAL fsync per ApplyUpdates, lowered
//                  checkpoint threshold). A fixed 40 rounds, each of
//                  9 x --seconds x (Execute + scalar Query run) +
//                  ApplyUpdates(16) from a fixed mutation sequence, so the
//                  reopen replays the same WAL bytes every run.
//                  Oracle: online search over the mutated graph on a seeded
//                  sample; after close + reopen a sample is re-probed and
//                  must match the answers given before the close.
//  hash_spill      Erdos-Renyi graph (10,000 vertices, 50,000 edges, Zipf(2)
//                  labels over 8), 4 kHash shards, exec_threads = 2; uniform
//                  endpoints over all 64 primitive templates of length 1 and
//                  2, so the working set overflows the frontier cache. The
//                  untimed pass runs until the frontier LRU is full. Oracle:
//                  a whole-graph RlcIndex.
//
// The graphs and the mutation sequence are fixed datasets; --seed draws the
// probe traffic and the verification samples.

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "oracle.h"
#include "rlc/core/indexer.h"
#include "rlc/graph/generators.h"
#include "rlc/graph/label_assign.h"
#include "rlc/serve/sharded_service.h"
#include "rlc/util/rng.h"
#include "rlc/util/zipf.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using rlc::Edge;
using rlc::EdgeUpdate;
using rlc::LabelSeq;
using rlc::VertexId;

constexpr rlc::Label kNumLabels = 8;

struct Probe {
  VertexId s = 0;
  VertexId t = 0;
  uint32_t tmpl = 0;
};

/// Everything a service workload is made of; filled by the Make* functions.
struct Spec {
  const char* name = "";
  std::vector<Edge> edges;  ///< base graph
  VertexId num_vertices = 0;
  std::vector<uint32_t> community;  ///< per vertex (churn inserts)
  std::vector<LabelSeq> templates;
  rlc::ServiceOptions options;
  /// Probes in client order: a warm-up prefix of `warm_probes`, then the
  /// timed traffic (the cursor wraps back to the end of the prefix). Fresh
  /// i.i.d. probes all run long, so a run's medians do not hinge on a few
  /// hot probes of a small cycled pool.
  std::vector<Probe> stream;
  size_t warm_probes = 0;
  size_t batch_size = 0;
  size_t scalar_run = 0;  ///< scalar Query calls per timed run
  /// Execute + scalar-run steps per round (churn_durable: the reads between
  /// two ApplyUpdates calls).
  size_t reads_per_round = 1;
  /// The timed loop collects at least this many batches; it fixes the
  /// reported tail rung (TailQuantile).
  uint64_t min_batches = 0;
  /// Fresh constructions timed for setup_s (the median is reported).
  int setups = 3;
  /// hash_spill: the untimed pass runs until the frontier LRU is full.
  bool fill_frontier_cache = false;
  /// churn_durable: a fixed round count instead of a deadline.
  bool churn = false;
  uint64_t rounds = 0;
};

/// churn_durable: mutations per ApplyUpdates call.
constexpr size_t kMutationsPerRound = 16;

uint64_t EdgeKey(VertexId src, rlc::Label label, VertexId dst) {
  return ((static_cast<uint64_t>(src) << 32 | dst) << 3) | label;
}

/// The current edge set of a mutating graph with O(1) insert, delete and
/// uniform pick (the churn generator and the verification replay).
class EdgeSet {
 public:
  explicit EdgeSet(const std::vector<Edge>& edges) : edges_(edges) {
    pos_.reserve(edges.size() * 2);
    for (size_t i = 0; i < edges_.size(); ++i) {
      pos_[EdgeKey(edges_[i].src, edges_[i].label, edges_[i].dst)] = i;
    }
  }
  bool Contains(VertexId s, rlc::Label l, VertexId t) const {
    return pos_.count(EdgeKey(s, l, t)) != 0;
  }
  void Apply(const EdgeUpdate& u) {
    const uint64_t key = EdgeKey(u.src, u.label, u.dst);
    if (u.op == rlc::EdgeOp::kInsert) {
      if (pos_.emplace(key, edges_.size()).second) {
        edges_.push_back({u.src, u.dst, u.label});
      }
      return;
    }
    const auto it = pos_.find(key);
    if (it == pos_.end()) return;
    const size_t i = it->second;
    pos_.erase(it);
    if (i + 1 != edges_.size()) {
      edges_[i] = edges_.back();
      pos_[EdgeKey(edges_[i].src, edges_[i].label, edges_[i].dst)] = i;
    }
    edges_.pop_back();
  }
  const std::vector<Edge>& edges() const { return edges_; }

 private:
  std::vector<Edge> edges_;
  std::unordered_map<uint64_t, size_t> pos_;
};

/// Zipf(1.0)-skewed endpoints: rank r is the vertex with the r-th highest
/// total degree (ties by id), so the popular endpoints are the graph's hubs,
/// as in a real query log. Templates are uniform.
std::vector<Probe> ZipfStream(size_t count, const std::vector<Edge>& edges,
                            VertexId n, uint32_t num_templates, rlc::Rng& rng) {
  std::vector<uint64_t> degree(n, 0);
  for (const Edge& e : edges) {
    ++degree[e.src];
    ++degree[e.dst];
  }
  std::vector<VertexId> by_rank(n);
  for (VertexId v = 0; v < n; ++v) by_rank[v] = v;
  std::stable_sort(by_rank.begin(), by_rank.end(), [&](VertexId a, VertexId b) {
    return degree[a] > degree[b];
  });
  const rlc::ZipfSampler zipf(n, 1.0);
  std::vector<Probe> stream(count);
  for (Probe& p : stream) {
    p.s = by_rank[zipf.Sample(rng)];
    p.t = by_rank[zipf.Sample(rng)];
    p.tmpl = static_cast<uint32_t>(rng.Below(num_templates));
  }
  return stream;
}

Spec MakeCommunity(const Args& args, bool churn) {
  Spec spec;
  spec.name = churn ? "churn_durable" : "community_read";
  spec.num_vertices = args.tiny ? 2'000 : 20'000;
  const uint64_t num_edges = args.tiny ? 10'000 : 100'000;
  // The graph is a fixed dataset (constant seed); --seed draws the traffic.
  rlc::Rng graph_rng(0xC0);
  spec.edges = rlc::PlantedPartitionEdges(spec.num_vertices, num_edges, 4, 0.95,
                                          graph_rng, &spec.community);
  rlc::AssignZipfLabels(&spec.edges, kNumLabels, 2.0, graph_rng);
  rlc::Rng rng(args.seed * 0x9E3779B97F4A7C15ULL + 0xC0);
  // Four prepared templates, fixed across seeds. Templates over only the
  // two most frequent labels ((0), (0 1), (1 0)) cost 0.4-0.7 ms per
  // composed probe even warm (the source-shard BFS spans the community's
  // giant component) and would swamp every batch; these mix the most
  // frequent label with two mid-frequency ones.
  spec.templates = {LabelSeq{0, 2}, LabelSeq{2, 0}, LabelSeq{0, 3}, LabelSeq{3, 0}};
  spec.options.partition.num_shards = 4;
  spec.options.partition.policy = rlc::PartitionPolicy::kRangeOrdered;
  spec.options.indexer.k = 2;
  spec.options.build_threads = 1;
  spec.options.exec_threads = 1;
  if (!churn) {
    spec.batch_size = args.tiny ? 64 : 256;
    spec.scalar_run = args.tiny ? 16 : 128;
    spec.warm_probes = args.tiny ? 1024 : 16384;
    spec.stream = ZipfStream(
        spec.warm_probes + static_cast<size_t>(args.seconds * 150'000),
        spec.edges, spec.num_vertices, 4, rng);
    spec.min_batches =
        std::max<uint64_t>(20, static_cast<uint64_t>(args.seconds * 20));
    return spec;
  }
  spec.churn = true;
  // A fixed 40 rounds of 16 mutations (640 in all), so every run applies
  // the same writes and the reopen replays the same WAL bytes. Each
  // ApplyUpdates(16) takes ~80 ms on a 4-vCPU Xeon VM, so reads at a 5%
  // mutation share would fill only ~2 s of a run and their means would
  // hinge on a few host phases; the read steps per round grow with
  // --seconds instead, so the reads fill most of the run.
  spec.rounds = args.tiny ? 10 : 40;
  spec.reads_per_round =
      args.tiny ? 5 : std::max<size_t>(5, static_cast<size_t>(args.seconds * 9));
  spec.batch_size = args.tiny ? 16 : 40;
  spec.scalar_run = args.tiny ? 16 : 24;
  spec.stream = ZipfStream(
      spec.rounds * spec.reads_per_round * (spec.batch_size + spec.scalar_run) + 256,
      spec.edges, spec.num_vertices, 4, rng);
  spec.min_batches = spec.rounds * spec.reads_per_round;
  spec.options.durability.checkpoint_wal_bytes = args.tiny ? 4096 : 3000;
  // Inline reseals: a background merge swaps in at a moment that varies
  // from run to run, so identical inputs would query different index
  // states. Inline, the reseal cost lands in the ApplyUpdates call that
  // triggers it (update_tail_ms).
  spec.options.reseal.background = false;
  return spec;
}

Spec MakeHashSpill(const Args& args) {
  Spec spec;
  spec.name = "hash_spill";
  spec.num_vertices = args.tiny ? 1'000 : 10'000;
  rlc::Rng graph_rng(0x4A5);  // fixed dataset, like community_read's
  spec.edges = rlc::ErdosRenyiEdges(spec.num_vertices,
                                    args.tiny ? 5'000 : 50'000, graph_rng);
  rlc::AssignZipfLabels(&spec.edges, kNumLabels, 2.0, graph_rng);
  rlc::Rng rng(args.seed * 0x9E3779B97F4A7C15ULL + 0x4A5);
  // All 64 primitive templates of length 1 and 2 over 8 labels.
  for (rlc::Label a = 0; a < kNumLabels; ++a) spec.templates.push_back(LabelSeq{a});
  for (rlc::Label a = 0; a < kNumLabels; ++a) {
    for (rlc::Label b = 0; b < kNumLabels; ++b) {
      if (a != b) spec.templates.push_back(LabelSeq{a, b});
    }
  }
  spec.options.partition.num_shards = 4;
  spec.options.partition.policy = rlc::PartitionPolicy::kHash;
  spec.options.indexer.k = 2;
  spec.options.build_threads = 1;
  spec.options.exec_threads = 2;
  spec.batch_size = args.tiny ? 8 : 32;
  spec.scalar_run = args.tiny ? 8 : 32;
  spec.warm_probes = args.tiny ? 2048 : 16384;
  spec.stream.resize(spec.warm_probes + static_cast<size_t>(args.seconds * 20'000));
  for (Probe& p : spec.stream) {
    p.s = static_cast<VertexId>(rng.Below(spec.num_vertices));
    p.t = static_cast<VertexId>(rng.Below(spec.num_vertices));
    p.tmpl = static_cast<uint32_t>(rng.Below(spec.templates.size()));
  }
  spec.fill_frontier_cache = true;
  spec.setups = 9;  // a set-up takes ~30 ms here
  // ~100 batches/s here; the timed loop runs until it has this many (p95).
  spec.min_batches =
      std::max<uint64_t>(20, static_cast<uint64_t>(args.seconds * 20));
  return spec;
}

/// The churn run's mutation sequence: inserts follow the graph's own
/// community distribution (95% intra-community, Zipf(2) labels) and deletes
/// pick an edge that exists at that point, half each. Like the graph it is
/// a fixed dataset (constant seed): single mutations differ in cost by
/// orders of magnitude, so a per-seed sequence of ~1,000 of them would make
/// the write-path numbers a property of the seed; --seed draws the reads.
std::vector<EdgeUpdate> MakeMutations(const Spec& spec) {
  rlc::Rng rng(0x3D7);
  uint32_t num_communities = 0;
  for (const uint32_t c : spec.community) num_communities = std::max(num_communities, c + 1);
  std::vector<std::vector<VertexId>> members(num_communities);
  for (VertexId v = 0; v < spec.num_vertices; ++v) {
    members[spec.community[v]].push_back(v);
  }
  const rlc::ZipfSampler label_zipf(kNumLabels, 2.0);
  EdgeSet live(spec.edges);
  std::vector<EdgeUpdate> muts;
  const uint64_t total = spec.rounds * kMutationsPerRound;
  muts.reserve(total);
  while (muts.size() < total) {
    EdgeUpdate u;
    if (rng.Below(2) == 0) {
      const Edge& e = live.edges()[rng.Below(live.edges().size())];
      u = {e.src, e.label, e.dst, rlc::EdgeOp::kDelete};
    } else {
      const VertexId s = static_cast<VertexId>(rng.Below(spec.num_vertices));
      const auto& group = members[spec.community[s]];
      const VertexId t =
          rng.Bernoulli(0.95)
              ? group[rng.Below(group.size())]
              : static_cast<VertexId>(rng.Below(spec.num_vertices));
      const rlc::Label l = static_cast<rlc::Label>(label_zipf.Sample(rng));
      if (s == t || live.Contains(s, l, t)) continue;
      u = {s, l, t, rlc::EdgeOp::kInsert};
    }
    live.Apply(u);
    muts.push_back(u);
  }
  return muts;
}

uint64_t TotalEntries(const rlc::ShardedRlcService& svc) {
  uint64_t total = 0;
  for (uint32_t s = 0; s < svc.partition().num_shards(); ++s) {
    total += svc.shard_index(s).NumEntries();
  }
  return total;
}

/// Answers recorded in one sampled churn round, checked afterwards against
/// online search over the graph as it was when the round ran.
struct SampledRound {
  uint64_t round = 0;
  std::vector<Probe> probes;
  std::vector<uint8_t> answers;
};

void RunService(const Args& args, Spec& spec, Outcome& out) {
  const rlc::DiGraph g(spec.num_vertices, spec.edges, kNumLabels);
  const std::vector<Probe>& stream = spec.stream;
  // One reusable batch: template i is interned as sequence id i.
  rlc::QueryBatch batch;
  for (const LabelSeq& t : spec.templates) batch.InternSequence(t);
  size_t cursor = 0;
  auto next_probe = [&]() {
    const size_t i = cursor;
    cursor = cursor + 1 == stream.size() ? spec.warm_probes : cursor + 1;
    return i;
  };
  std::vector<size_t> batch_idx(spec.batch_size);
  auto fill_batch = [&]() {
    batch.ClearProbes();
    for (size_t j = 0; j < spec.batch_size; ++j) {
      batch_idx[j] = next_probe();
      const Probe& p = stream[batch_idx[j]];
      batch.Add(p.s, p.t, p.tmpl);
    }
  };

  Progress(std::string(spec.name) + ": inputs generated");
  // Read-only workloads: every answer from a whole-graph index.
  std::vector<uint8_t> expected;
  if (!spec.churn) {
    const rlc::RlcIndex oracle = rlc::BuildRlcIndex(g, spec.options.indexer.k);
    expected.reserve(stream.size());
    for (const Probe& p : stream) {
      expected.push_back(oracle.Query(p.s, p.t, spec.templates[p.tmpl]) ? 1 : 0);
    }
  }
  std::vector<EdgeUpdate> muts;
  std::vector<uint64_t> sample_rounds;
  if (spec.churn) {
    muts = MakeMutations(spec);
    const uint64_t kSamples = 6;
    for (uint64_t i = 0; i < kSamples; ++i) {
      sample_rounds.push_back((spec.rounds - 1) * i / (kSamples - 1));
    }
  }
  Progress("oracle and mutations prepared");
  fs::create_directories(args.work_dir);
  const std::string dur_root = args.work_dir + "/" + spec.name;
  fs::remove_all(dur_root);

  // ---- set-up (timed, median over `setups` fresh constructions) ----
  const int setups = (args.trace || args.tiny) ? 1 : spec.setups;
  const bool rss_reset = ResetPeakRss();
  const uint64_t rss_base_kb = CurrentRssKb();
  SpanLog spans;
  spans.set_enabled(args.trace);
  std::vector<double> setup_s;
  std::unique_ptr<rlc::ShardedRlcService> svc;
  std::string live_dir;
  for (int i = 0; i < setups; ++i) {
    svc.reset();
    if (!live_dir.empty()) fs::remove_all(live_dir);
    rlc::ServiceOptions opts = spec.options;
    if (spec.churn) {
      live_dir = dur_root + "/setup-" + std::to_string(i);
      opts.durability.dir = live_dir;
    }
    const uint64_t op = spans.NewOp();
    const uint64_t t0 = NowNs();
    svc = std::make_unique<rlc::ShardedRlcService>(g, opts);
    const uint64_t t1 = NowNs();
    spans.Record(op, "ServiceCtor", t0, t1);
    setup_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
  }
  Progress("set-up done");
  const uint64_t entries_start = TotalEntries(*svc);
  const uint64_t boundary = svc->partition().num_boundary_vertices();
  const double partition_mb =
      static_cast<double>(svc->partition().MemoryBytes()) / 1e6;

  // ---- untimed warm pass ----
  uint64_t warm_probes = 0;
  {
    const uint64_t op = spans.NewOp();
    const uint64_t w0 = NowNs();
    while (cursor + spec.batch_size <= spec.warm_probes) {
      if (spec.fill_frontier_cache &&
          svc->composition().num_cached_frontiers() >=
              spec.options.compose.frontier_cache_entries) {
        break;
      }
      fill_batch();
      svc->Execute(batch);
      warm_probes += spec.batch_size;
    }
    cursor = spec.warm_probes;
    spans.Record(op, "WarmPass", w0, NowNs(), warm_probes);
  }

  Progress("warm pass done (" + std::to_string(warm_probes) + " probes)");
  // ---- timed loop ----
  auto& global = rlc::obs::Registry::Global();
  const rlc::obs::MetricsSnapshot svc_before = svc->metrics().Snapshot();
  const rlc::obs::MetricsSnapshot glob_before = global.Snapshot();
  std::vector<double> batch_ms;
  std::vector<double> query_us;
  std::vector<double> update_ms;
  uint64_t ok_probes[2] = {0, 0};  // [traced]
  uint64_t read_ns[2] = {0, 0};  // Execute + scalar run time
  uint64_t update_ns_total = 0;
  uint64_t failed = 0;
  uint64_t attempted = 0;
  uint64_t diverged = 0;
  std::vector<SampledRound> sampled;
  sampled.reserve(sample_rounds.size());  // `rec` below points into it
  size_t next_sample = 0;
  uint64_t step = 0;  // read steps
  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(args.seconds * 1e9);
  for (uint64_t round = 0, now = start;; ++round) {
    if (spec.churn ? round >= spec.rounds
                   : (now >= deadline && batch_ms.size() >= spec.min_batches)) {
      break;
    }
    const uint64_t op = spans.NewOp();
    SampledRound* rec = nullptr;
    if (next_sample < sample_rounds.size() && sample_rounds[next_sample] == round) {
      sampled.push_back({round, {}, {}});
      rec = &sampled.back();
      ++next_sample;
    }
    // Traced and untraced rounds alternate (a round's first read after an
    // ApplyUpdates runs on invalidated caches, so rounds are the unit).
    const bool traced = args.trace && round % 2 == 0;
    for (size_t r = 0; r < spec.reads_per_round; ++r, ++step) {
      spans.set_enabled(traced);
      fill_batch();
      const uint64_t t0 = NowNs();
      uint64_t ok = 0;
      try {
        const rlc::AnswerBatch a = svc->Execute(batch);
        const uint64_t t1 = NowNs();
        spans.Record(op, "Execute", t0, t1, spec.batch_size);
        batch_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
        for (size_t i = 0; i < a.answers.size(); ++i) {
          if (a.statuses[i] != rlc::ProbeStatus::kOk) continue;
          ++ok;
          const size_t pi = batch_idx[i];
          uint8_t got = a.answers[i];
          if (args.inject_wrong && !spec.churn && step == 0 && i == 0) got ^= 1;
          if (!spec.churn) {
            diverged += got != expected[pi];
          } else if (rec != nullptr) {
            rec->probes.push_back(stream[pi]);
            rec->answers.push_back(got);
          }
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: Execute threw: %s\n", e.what());
      }
      failed += spec.batch_size - ok;
      attempted += spec.batch_size;

      const uint64_t q0 = NowNs();
      uint64_t scalar_ok = 0;
      for (size_t j = 0; j < spec.scalar_run; ++j) {
        const size_t pi = next_probe();
        const Probe& p = stream[pi];
        try {
          const uint8_t got = svc->Query(p.s, p.t, spec.templates[p.tmpl]) ? 1 : 0;
          ++scalar_ok;
          if (!spec.churn) {
            diverged += got != expected[pi];
          } else if (rec != nullptr) {
            rec->probes.push_back(p);
            rec->answers.push_back(got);
          }
        } catch (const std::exception&) {
        }
      }
      const uint64_t q1 = NowNs();
      spans.Record(op, "Query", q0, q1, spec.scalar_run);
      query_us.push_back(static_cast<double>(q1 - q0) * 1e-3 /
                         static_cast<double>(spec.scalar_run));
      failed += spec.scalar_run - scalar_ok;
      attempted += spec.scalar_run;
      ok_probes[traced] += ok + scalar_ok;
      read_ns[traced] += q1 - t0;
      now = q1;
    }

    if (spec.churn) {
      spans.set_enabled(args.trace);
      const std::span<const EdgeUpdate> updates(
          muts.data() + round * kMutationsPerRound, kMutationsPerRound);
      const uint64_t u0 = NowNs();
      try {
        svc->ApplyUpdates(updates);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: ApplyUpdates threw: %s\n", e.what());
        failed += updates.size();
      }
      now = NowNs();
      spans.Record(op, "ApplyUpdates", u0, now, updates.size());
      update_ms.push_back(static_cast<double>(now - u0) * 1e-6);
      update_ns_total += now - u0;
      attempted += updates.size();
    }
  }
  const uint64_t loop_end = NowNs();
  Progress("timed loop done");
  spans.set_enabled(args.trace);
  const rlc::obs::MetricsSnapshot svc_after = svc->metrics().Snapshot();
  const rlc::obs::MetricsSnapshot glob_after = global.Snapshot();
  const double service_mb = static_cast<double>(svc->MemoryBytes()) / 1e6;
  const double compose_mb =
      static_cast<double>(svc->composition().MemoryBytes()) / 1e6;
  const size_t cached_frontiers = svc->composition().num_cached_frontiers();
  const uint64_t peak_kb = PeakRssKb();
  const double peak_mb =
      static_cast<double>(peak_kb - std::min(peak_kb, rss_base_kb)) * 1024.0 / 1e6;
  {
    const uint64_t op = spans.NewOp();
    const uint64_t f0 = NowNs();
    svc->FinishReseals();
    spans.Record(op, "FinishReseals", f0, NowNs());
  }
  const uint64_t entries_end = TotalEntries(*svc);
  const rlc::ServiceStats stats = svc->stats();
  out.AddAttempted(attempted);
  out.AddFailed(failed);

  // ---- verification (untimed) ----
  if (diverged != 0) {
    out.Mismatch(std::to_string(diverged) +
                 " answers differ from the whole-graph index");
  }
  std::vector<double> recover_s;
  uint64_t replayed = 0;
  if (spec.churn) {
    // Sampled rounds: online search over the graph each round saw.
    EdgeSet live(spec.edges);
    uint64_t applied = 0;
    rlc::Rng pick(args.seed ^ 0xC4EC);
    const size_t per_round = args.tiny ? 16 : 24;
    for (const SampledRound& r : sampled) {
      for (; applied < r.round * kMutationsPerRound; ++applied) {
        live.Apply(muts[applied]);
      }
      const rlc::DiGraph state(spec.num_vertices, live.edges(), kNumLabels);
      OnlineOracle oracle(state);
      for (size_t j = 0; j < per_round && !r.probes.empty(); ++j) {
        const size_t i = pick.Below(r.probes.size());
        const Probe& p = r.probes[i];
        bool got = r.answers[i] != 0;
        if (args.inject_wrong && &r == &sampled.front() && j == 0) got = !got;
        if (oracle.Reaches(p.s, p.t, spec.templates[p.tmpl]) != got) {
          out.Mismatch("round " + std::to_string(r.round) + " probe " +
                       std::to_string(i) + " disagrees with BiBFS");
        }
      }
    }
    for (; applied < muts.size(); ++applied) live.Apply(muts[applied]);
    const rlc::DiGraph final_graph(spec.num_vertices, live.edges(), kNumLabels);
    OnlineOracle final_oracle(final_graph);
    // Acknowledged writes survive a close + reopen: re-probe a sample.
    rlc::QueryBatch check;
    for (size_t j = 0; j < 256; ++j) {
      const Probe& p = stream[pick.Below(stream.size())];
      check.Add(p.s, p.t, spec.templates[p.tmpl]);
    }
    const rlc::AnswerBatch before_close = svc->Execute(check);
    for (size_t j = 0; j < 64; ++j) {
      const rlc::BatchProbe& p = check.probes()[j];
      if (final_oracle.Reaches(p.s, p.t, check.sequence(p.seq_id)) !=
          (before_close.answers[j] != 0)) {
        out.Mismatch("final-state probe " + std::to_string(j) +
                     " disagrees with BiBFS");
      }
    }
    const uint64_t lsn = svc->last_lsn();
    svc.reset();
    const int reopens = args.trace ? 3 : 1;
    for (int i = 0; i < reopens; ++i) {
      const std::string copy = dur_root + "/reopen-" + std::to_string(i);
      fs::remove_all(copy);
      fs::copy(live_dir, copy, fs::copy_options::recursive);
      rlc::ServiceOptions opts = spec.options;
      opts.durability.dir = copy;
      const uint64_t op = spans.NewOp();
      const uint64_t r0 = NowNs();
      auto reopened = std::make_unique<rlc::ShardedRlcService>(g, opts);
      const uint64_t r1 = NowNs();
      spans.Record(op, "ReopenCtor", r0, r1);
      recover_s.push_back(static_cast<double>(r1 - r0) * 1e-9);
      replayed = reopened->recovery_info().replayed_records;
      if (!reopened->recovery_info().recovered || reopened->last_lsn() != lsn) {
        out.Mismatch("reopen did not recover the acknowledged LSN");
      }
      const rlc::AnswerBatch after_open = reopened->Execute(check);
      if (after_open.answers != before_close.answers) {
        out.Mismatch("answers after reopen differ from before the close");
      }
      reopened.reset();
      fs::remove_all(copy);
    }
  }
  svc.reset();
  fs::remove_all(dur_root);
  Progress("verification done");

  // ---- report ----
  const RegistryDelta sd(svc_before, svc_after);
  const RegistryDelta gd(glob_before, glob_after);
  const double queries = static_cast<double>(sd.Counter("serve.queries"));
  const uint64_t hits = sd.Counter("serve.compose.frontier.hits");
  const uint64_t misses = sd.Counter("serve.compose.frontier.misses");
  const double tail_q = TailQuantile(spec.min_batches);
  uint64_t true_answers = 0;
  for (const uint8_t e : expected) true_answers += e;
  out.Property("vertices", spec.num_vertices, "");
  out.Property("edges", static_cast<double>(g.num_edges()), "");
  out.Property("boundary_share", Ratio(boundary, spec.num_vertices), "vertices");
  out.Property("templates", static_cast<double>(spec.templates.size()), "");
  if (!spec.churn) {
    out.Property("true_share", Ratio(true_answers, expected.size()),
                 std::to_string(expected.size()) + " generated probes");
  }
  out.Property("intra_true_share", Ratio(sd.Counter("serve.intra_true"), queries),
               "timed probes (serve.queries)");
  out.Property("refuted_share", Ratio(sd.Counter("serve.cross_refuted"), queries),
               "timed probes (serve.queries)");
  out.Property("composed_share", Ratio(sd.Counter("serve.compose.probes"), queries),
               "timed probes (serve.queries)");
  out.Property("frontier_hit_share", Ratio(hits, hits + misses),
               "frontier lookups (hits + misses)");
  if (spec.churn) {
    const double probes = static_cast<double>(
        spec.rounds * spec.reads_per_round * (spec.batch_size + spec.scalar_run));
    const double m = static_cast<double>(muts.size());
    uint64_t deletes = 0;
    for (const EdgeUpdate& u : muts) deletes += u.op == rlc::EdgeOp::kDelete;
    out.Property("mutation_share", m / (m + probes), "probes + mutations");
    out.Property("delete_share", Ratio(deletes, m), "mutations");
    out.Property("applied_share", Ratio(stats.updates_applied, m), "mutations");
  }
  out.Property("batch_size", static_cast<double>(spec.batch_size), "probes");
  out.Note("batch_tail_ms is " + QuantileName(tail_q) + " of " +
           std::to_string(batch_ms.size()) + " batches; query_us is the mean of " +
           std::to_string(query_us.size()) + " runs of " +
           std::to_string(spec.scalar_run) + " calls");
  if (!rss_reset) out.Note("VmHWM reset unsupported: rss_peak_mb is process peak");

  const double probes_per_s = static_cast<double>(ok_probes[0] + ok_probes[1]) *
                              1e9 / static_cast<double>(loop_end - start);
  if (!args.trace) {
    out.Metric("setup_s", Median(setup_s), "s");
    out.Metric("batch_mean_ms", Mean(batch_ms), "ms");
    out.Metric("batch_tail_ms", Percentile(batch_ms, tail_q), "ms");
    out.Metric("probes_per_s", probes_per_s, "1/s");
    out.Metric("query_us", Mean(query_us), "us");
    out.Metric("service_mb", service_mb, "MB");
    out.Metric("rss_peak_mb", peak_mb, "MB");
    return;
  }
  const double batches_run = static_cast<double>(sd.Counter("serve.batches"));
  const auto kernel = sd.Histogram("serve.stage.shard_kernel_job_ns");
  const auto compose_probe = sd.Histogram("serve.stage.compose_probe_ns");
  const double compose_probes = static_cast<double>(sd.Counter("serve.compose.probes"));
  out.Metric("indexer.build_s", stats.index_build_seconds, "s");
  out.Metric("indexer.entries", static_cast<double>(entries_start), "count");
  out.Metric("kernel.batch_ns_per_probe",
             Ratio(kernel.sum, sd.Counter("serve.intra_true") +
                                   sd.Counter("serve.intra_miss")),
             "ns");
  out.Metric("kernel.sig_refuted_share",
             Ratio(gd.Counter("rlc.query.sig_refuted"), gd.Counter("rlc.query.probes")),
             "1");
  out.Metric("router.resolve_ns",
             Ratio(sd.Histogram("serve.stage.resolve_ns").sum, batches_run), "ns");
  out.Metric("router.route_ns",
             Ratio(sd.Histogram("serve.stage.route_ns").sum, batches_run), "ns");
  out.Metric("router.shard_kernel_ns", Ratio(kernel.sum, batches_run), "ns");
  out.Metric("router.intra_true_share", Ratio(sd.Counter("serve.intra_true"), queries), "1");
  out.Metric("router.refuted_share", Ratio(sd.Counter("serve.cross_refuted"), queries), "1");
  out.Metric("router.composed_share", Ratio(compose_probes, queries), "1");
  out.Metric("router.query_ns", Ratio(spans.TotalNs("Query"), spans.TotalCalls("Query")),
             "ns");
  out.Metric("partition.s", stats.partition_seconds, "s");
  out.Metric("partition.boundary_share", Ratio(boundary, spec.num_vertices), "1");
  out.Metric("partition.mb", partition_mb, "MB");
  out.Metric("compose.probe_p50_ns", static_cast<double>(compose_probe.Percentile(0.5)),
             "ns");
  out.Metric("compose.probe_tail_ns", HistogramTail(compose_probe), "ns");
  out.Metric("compose.frontier_hit_share", Ratio(hits, hits + misses), "1");
  out.Metric("compose.skeleton_hops_per_probe",
             Ratio(sd.Counter("serve.compose.skeleton_hops"), compose_probes), "count");
  out.Metric("compose.expanded_per_probe",
             Ratio(sd.Counter("serve.compose.expanded"), compose_probes), "count");
  out.Metric("compose.table_rows_built",
             static_cast<double>(sd.Counter("serve.compose.table_builds")), "count");
  out.Metric("compose.invalidations",
             static_cast<double>(sd.Counter("serve.compose.invalidations")), "count");
  out.Metric("compose.mb", compose_mb, "MB");
  out.Metric("compose.cached_frontiers", static_cast<double>(cached_frontiers), "count");
  out.Metric("compose.cold_pass_s",
             static_cast<double>(spans.TotalNs("WarmPass")) * 1e-9, "s");
  const auto ins = gd.Histogram("dyn.insert_ns");
  const auto del = gd.Histogram("dyn.delete_ns");
  const auto merge = gd.Histogram("dyn.reseal.merge_ns");
  const auto fsync = gd.Histogram("wal.fsync_ns");
  const auto ckpt = sd.Histogram("serve.stage.checkpoint_ns");
  out.Metric("dyn.insert_p50_ns", static_cast<double>(ins.Percentile(0.5)), "ns");
  out.Metric("dyn.delete_p50_ns", static_cast<double>(del.Percentile(0.5)), "ns");
  out.Metric("dyn.delete_tail_ns", HistogramTail(del), "ns");
  out.Metric("dyn.reseals", static_cast<double>(gd.Counter("dyn.reseal.count")), "count");
  out.Metric("dyn.reseal_merge_ns", merge.Mean(), "ns");
  out.Metric("dyn.entries_growth", Ratio(entries_end, entries_start), "1");
  out.Metric("wal.fsync_p50_ns", static_cast<double>(fsync.Percentile(0.5)), "ns");
  out.Metric("wal.bytes_per_mutation",
             Ratio(gd.Counter("wal.append_bytes"), muts.size()), "B");
  out.Metric("checkpoint.count", static_cast<double>(ckpt.count), "count");
  out.Metric("checkpoint.p50_ms", static_cast<double>(ckpt.Percentile(0.5)) * 1e-6, "ms");
  out.Metric("recover.replayed_records", static_cast<double>(replayed), "count");
  out.Metric("pool.runs_per_batch", Ratio(gd.Counter("pool.runs"), batches_run), "count");
  if (spec.churn) {
    out.Metric("update_p50_ms", Median(update_ms), "ms");
    out.Metric("update_tail_ms", Percentile(update_ms, TailQuantile(spec.rounds)), "ms");
    out.Metric("updates_per_s",
               static_cast<double>(muts.size()) * 1e9 /
                   static_cast<double>(update_ns_total),
               "1/s");
    out.Metric("recover_s", Median(recover_s), "s");
  }
  out.Metric("trace.overhead",
             Ratio(Ratio(ok_probes[1], read_ns[1]), Ratio(ok_probes[0], read_ns[0])),
             "1");
  spans.WriteJsonl(args.work_dir + "/spans-" + spec.name + ".jsonl");
}

}  // namespace

void RunCommunityRead(const Args& args, Outcome& out) {
  Spec spec = MakeCommunity(args, /*churn=*/false);
  RunService(args, spec, out);
}

void RunChurnDurable(const Args& args, Outcome& out) {
  Spec spec = MakeCommunity(args, /*churn=*/true);
  RunService(args, spec, out);
}

void RunHashSpill(const Args& args, Outcome& out) {
  Spec spec = MakeHashSpill(args);
  RunService(args, spec, out);
}

}  // namespace perfbench

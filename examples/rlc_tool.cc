// rlc_tool — command-line interface to the library, the fourth "example":
//
//   rlc_tool build <graph.txt> <index.rlc> [k] [threads]
//       Load a SNAP-style edge list (2 or 3 columns, numeric or named
//       tokens), build the RLC index with recursion bound k (default 2)
//       and save it. threads > 1 uses the hub-batched parallel builder
//       (identical output; 0 = all hardware threads).
//
//   rlc_tool query <graph.txt> <index.rlc> <s> <t> "<constraint>"
//       Load graph + index and answer one query. The constraint uses the
//       textual syntax of PathConstraint::Parse, e.g. "(a b)+", "0+",
//       "(debits credits)+", "a+ b+" (extended queries run the hybrid
//       index+traversal plan).
//
//   rlc_tool stats <graph.txt | store-dir>
//       For a graph file: print Table III-style statistics. For a durable
//       store directory (MANIFEST, gen-<G>/ snapshot directories, WALs):
//       print the retained generations with the sizes of service.snap, the
//       shard snapshots and the WAL, then the newest generation rendered
//       through the metrics registry (Prometheus text): store.* gauges
//       from service.snap and one index.shard.<i>.* summary per shard.
//
//   rlc_tool inspect <index.rlc>
//       Print size breakdown, entry distribution and MR-length histogram of
//       a saved index.
//
//   rlc_tool recover <graph.txt> <store-dir> [k] [shards]
//       Open a durable store directory as a durable ShardedRlcService
//       (default 1 shard: the single-index store; see docs/durability.md),
//       run crash recovery, and report what was found: the generation
//       loaded, WAL batches replayed, torn bytes dropped, and any fallback
//       to an older generation. A directory with no durable state builds
//       fresh indexes (recursion bound k, default 2) instead. Either way
//       the store is left checkpointed at a clean generation. A store
//       written with another k or shard count is refused (exit 1).
//
//   rlc_tool checkpoint <graph.txt> <store-dir> [k] [shards]
//       Open a durable store (recovering if needed) and force an extra
//       checkpoint, folding any replayed WAL tail into a new snapshot
//       generation.
//
// Every command exits nonzero with a one-line error naming the offending
// file when an input cannot be read or parsed.

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "rlc/core/index_io.h"
#include "rlc/core/index_stats.h"
#include "rlc/core/indexer.h"
#include "rlc/engines/rlc_hybrid_engine.h"
#include "rlc/graph/edge_list_io.h"
#include "rlc/graph/stats.h"
#include "rlc/obs/metrics.h"
#include "rlc/serve/sharded_service.h"
#include "rlc/util/timer.h"

using namespace rlc;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  rlc_tool build <graph.txt> <index.rlc> [k] [threads]\n"
               "  rlc_tool query <graph.txt> <index.rlc> <s> <t> <constraint>\n"
               "  rlc_tool stats <graph.txt | store-dir>\n"
               "  rlc_tool inspect <index.rlc>\n"
               "  rlc_tool recover <graph.txt> <store-dir> [k] [shards]\n"
               "  rlc_tool checkpoint <graph.txt> <store-dir> [k] [shards]\n");
  return 2;
}

VertexId ResolveVertex(const DiGraph& g, const std::string& token) {
  if (auto v = g.FindVertex(token)) return *v;
  char* end = nullptr;
  const unsigned long v = std::strtoul(token.c_str(), &end, 10);
  if (end == token.c_str() || *end != '\0' || v >= g.num_vertices()) {
    throw std::invalid_argument("unknown vertex '" + token + "'");
  }
  return static_cast<VertexId>(v);
}

int CmdBuild(int argc, char** argv) {
  if (argc < 4) return Usage();
  const uint32_t k = argc > 4 ? static_cast<uint32_t>(std::atoi(argv[4])) : 2;
  long threads = 1;
  if (argc > 5) {
    char* end = nullptr;
    threads = std::strtol(argv[5], &end, 10);
    if (end == argv[5] || *end != '\0' || threads < 0 || threads > 4096) {
      std::fprintf(stderr, "invalid thread count '%s' (want 0..4096, 0 = all)\n",
                   argv[5]);
      return 2;
    }
  }
  Timer load_timer;
  const DiGraph g = LoadEdgeListText(argv[2]);
  std::printf("loaded %s: |V|=%u |E|=%llu |L|=%u (%.2f s)\n", argv[2],
              g.num_vertices(), static_cast<unsigned long long>(g.num_edges()),
              g.num_labels(), load_timer.ElapsedSeconds());

  IndexerOptions options;
  options.k = k;
  options.num_threads = static_cast<uint32_t>(threads);
  RlcIndexBuilder builder(g, options);
  const RlcIndex index = builder.Build();
  std::printf("index built: k=%u, %llu entries, %.2f MB, %.2f s\n", k,
              static_cast<unsigned long long>(index.NumEntries()),
              static_cast<double>(index.MemoryBytes()) / (1024 * 1024),
              builder.stats().build_seconds);
  SaveIndex(index, argv[3]);
  std::printf("saved to %s\n", argv[3]);
  return 0;
}

int CmdQuery(int argc, char** argv) {
  if (argc < 7) return Usage();
  const DiGraph g = LoadEdgeListText(argv[2]);
  const RlcIndex index = LoadIndex(argv[3]);
  if (index.num_vertices() != g.num_vertices()) {
    std::fprintf(stderr, "index/graph vertex count mismatch\n");
    return 1;
  }
  const VertexId s = ResolveVertex(g, argv[4]);
  const VertexId t = ResolveVertex(g, argv[5]);
  const PathConstraint constraint = PathConstraint::Parse(argv[6], g);

  RlcHybridEngine engine(g, index);
  Timer timer;
  const bool answer = engine.Evaluate(s, t, constraint);
  std::printf("query (%s, %s, %s) = %s   [%.1f us]\n", argv[4], argv[5],
              constraint.ToString(g).c_str(), answer ? "true" : "false",
              timer.ElapsedMicros());
  return 0;
}

uint64_t FileBytes(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

/// `stats` on a durable store directory: manifest + file sizes, then the
/// newest generation published as registry gauges so the output matches
/// what the server's periodic dumps expose.
int StoreStats(const std::string& dir) {
  const DurabilityManifest manifest = ReadManifest(dir);
  if (manifest.generations.empty()) {
    std::printf("%s: no durable generations (empty or fresh store)\n",
                dir.c_str());
    return 0;
  }
  auto gen_file = [&](uint64_t gen, const std::string& name) {
    return dir + "/gen-" + std::to_string(gen) + "/" + name;
  };
  auto shard_path = [&](uint64_t gen, uint32_t shard) {
    return gen_file(gen, "shard-" + std::to_string(shard) + ".snap");
  };
  auto num_shards = [&](uint64_t gen) {
    uint32_t n = 0;
    while (std::filesystem::exists(shard_path(gen, n))) ++n;
    return n;
  };
  std::printf("store %s: %zu retained generation(s), newest first\n",
              dir.c_str(), manifest.generations.size());
  for (const SnapshotGeneration& gen : manifest.generations) {
    const uint32_t shards = num_shards(gen.generation);
    uint64_t shard_bytes = 0;
    for (uint32_t s = 0; s < shards; ++s) {
      shard_bytes += FileBytes(shard_path(gen.generation, s));
    }
    std::printf("  gen %llu: applied_lsn=%llu service.snap %llu bytes, "
                "%u shard snapshot(s) %llu bytes, wal %llu bytes\n",
                static_cast<unsigned long long>(gen.generation),
                static_cast<unsigned long long>(gen.applied_lsn),
                static_cast<unsigned long long>(
                    FileBytes(gen_file(gen.generation, "service.snap"))),
                shards, static_cast<unsigned long long>(shard_bytes),
                static_cast<unsigned long long>(
                    FileBytes(WalPath(dir, gen.generation))));
  }

  const uint64_t newest = manifest.generations.front().generation;
  const LoadedSnapshot meta =
      LoadSnapshotFile(gen_file(newest, "service.snap"));
  const uint32_t shards = num_shards(newest);
  obs::Registry reg;
  reg.GetGauge("store.generation").Set(static_cast<int64_t>(newest));
  reg.GetGauge("store.applied_lsn").Set(static_cast<int64_t>(meta.applied_lsn));
  reg.GetGauge("store.overlay_inserted")
      .Set(static_cast<int64_t>(meta.inserted.size()));
  reg.GetGauge("store.overlay_removed")
      .Set(static_cast<int64_t>(meta.removed.size()));
  reg.GetGauge("store.wal_bytes")
      .Set(static_cast<int64_t>(FileBytes(WalPath(dir, newest))));
  reg.GetGauge("store.shards").Set(shards);
  for (uint32_t s = 0; s < shards; ++s) {
    const LoadedSnapshot snap = LoadSnapshotFile(shard_path(newest, s));
    if (!snap.index) {
      throw std::runtime_error(shard_path(newest, s) +
                               " has no embedded index");
    }
    PublishIndexSummary(Summarize(*snap.index), reg,
                        "index.shard." + std::to_string(s));
  }
  std::printf("%s", reg.Snapshot().ToPrometheusText().c_str());
  return 0;
}

int CmdStats(int argc, char** argv) {
  if (argc < 3) return Usage();
  struct stat st;
  if (::stat(argv[2], &st) == 0 && S_ISDIR(st.st_mode)) {
    return StoreStats(argv[2]);
  }
  const DiGraph g = LoadEdgeListText(argv[2]);
  const GraphStats s = ComputeStats(g, g.num_edges() <= 5'000'000);
  std::printf("|V|=%llu |E|=%llu |L|=%llu loops=%llu triangles=%llu "
              "avg-degree=%.2f max-out=%llu max-in=%llu\n",
              static_cast<unsigned long long>(s.num_vertices),
              static_cast<unsigned long long>(s.num_edges),
              static_cast<unsigned long long>(s.num_labels),
              static_cast<unsigned long long>(s.loop_count),
              static_cast<unsigned long long>(s.triangle_count), s.avg_degree,
              static_cast<unsigned long long>(s.max_out_degree),
              static_cast<unsigned long long>(s.max_in_degree));
  return 0;
}

int CmdInspect(int argc, char** argv) {
  if (argc < 3) return Usage();
  const RlcIndex index = LoadIndex(argv[2]);
  std::printf("%s", Describe(Summarize(index)).c_str());
  return 0;
}

int CmdDurable(int argc, char** argv, bool force_checkpoint) {
  if (argc < 4) return Usage();
  const uint32_t k = argc > 4 ? static_cast<uint32_t>(std::atoi(argv[4])) : 2;
  const long shards = argc > 5 ? std::atol(argv[5]) : 1;
  if (shards < 1 || shards > 4096) {
    std::fprintf(stderr, "invalid shard count (want 1..4096)\n");
    return 2;
  }
  const DiGraph g = LoadEdgeListText(argv[2]);
  ServiceOptions options;
  options.partition.num_shards = static_cast<uint32_t>(shards);
  options.indexer.k = k;
  options.build_threads = 1;
  options.durability.dir = argv[3];
  ShardedRlcService store(g, options);
  const RecoveryInfo& r = store.recovery_info();
  if (r.recovered) {
    std::printf("recovered generation %llu (snapshot lsn %llu): "
                "%llu WAL batches replayed, %llu torn bytes dropped\n",
                static_cast<unsigned long long>(r.generation),
                static_cast<unsigned long long>(r.snapshot_lsn),
                static_cast<unsigned long long>(r.replayed_records),
                static_cast<unsigned long long>(r.dropped_wal_bytes));
    if (r.fell_back) {
      std::printf("fell back past an unusable generation: %s\n",
                  r.fallback_reason.c_str());
    }
  } else {
    std::printf("no durable state in %s: built a fresh index (k=%u, "
                "%ld shard(s))\n",
                argv[3], k, shards);
  }
  if (force_checkpoint) store.Checkpoint();
  std::printf("store at generation %llu, lsn %llu\n",
              static_cast<unsigned long long>(store.generation()),
              static_cast<unsigned long long>(store.last_lsn()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "build") return CmdBuild(argc, argv);
    if (cmd == "query") return CmdQuery(argc, argv);
    if (cmd == "stats") return CmdStats(argc, argv);
    if (cmd == "inspect") return CmdInspect(argc, argv);
    if (cmd == "recover") return CmdDurable(argc, argv, false);
    if (cmd == "checkpoint") return CmdDurable(argc, argv, true);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return Usage();
}

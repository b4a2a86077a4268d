// Cross-shard query composition over the boundary skeleton.
//
// The sharded service answers a cross-shard RLC probe (s, t, L+) without
// any whole-graph structure by composing three exact pieces over the
// *product graph* — states (v, p) where p ∈ [0, |L|) counts labels
// consumed modulo |L|, so a walk (s, 0) ⇝ (t, 0) of >= 1 edge spells
// exactly L^z for some z >= 1:
//
//   1. source-shard suffix: a forward product BFS from (s, 0) inside
//      shard(s) (base subgraph + live mutation overlay) finds every
//      product state with an outgoing cross edge carrying the label the
//      position demands; the heads of those edges are the skeleton seeds.
//      Seeding with cross-edge *heads* enforces the >= 1-cross-edge
//      requirement, which keeps composition disjoint from the shard-index
//      intra tier: a purely intra-shard witness is the shard index's job.
//   2. skeleton closure: a BFS over skeleton entries (cross-edge heads)
//      alternates intra-shard closure with label-matched cross-edge hops.
//      Inside a shard whose boundary product graph fits the table budget
//      the hop comes from the per-(shard, constraint) boundary transition
//      table: row (b, p) is the sorted, deduplicated list of skeleton
//      entries reachable from (b, p) — the label-matched cross-edge heads
//      of every boundary state its intra product BFS reaches, (b, p)
//      included — built lazily, one product BFS per touched row, and
//      reused across probes. A table hop is therefore a short list walk
//      deduplicated by the probe's visited stamps. Over budget, the shard
//      expands on the fly: an incremental per-probe product BFS whose
//      visited set is shared by every entry into that shard (monotone, so
//      a probe expands each shard's product graph at most once).
//   3. target-shard prefix: a reverse product BFS from (t, 0) inside
//      shard(t) walks the accept set A — every product state that
//      intra-reaches (t, 0). The probe is true iff some skeleton entry
//      into shard(t) lies in A. Membership is intra-closed, so checking
//      entries is complete: an interior state of A reachable from an entry
//      puts the entry itself in A.
//
// Correctness does not depend on any shard index: every traversal walks
// the live mutated graph (shard subgraphs + DynamicRlcIndex overlays +
// the partition's cross-edge adjacency), so composed answers are exact on
// the mutated graph even while a shard's index is broken or resealing.
//
// Invalidation: transition rows are a function of one shard's intra
// product graph, its boundary list and the cross edges leaving it. The
// engine keeps a per-shard epoch, bumped by intra-shard mutations of that
// shard and by cross-edge changes incident to it (OnCrossMutation bumps
// both endpoint shards); PreparePlan lazily rebuilds exactly the stale
// shards' tables. Reseals do not bump epochs (tables depend on the graph,
// not the index).
//
// Frontier cache: the exhaustive skeleton closure of phases 1-2 is a pure
// function of (constraint, source vertex, graph) — the target only picks
// which slice to read. It is cached under that key and looked up before
// any traversal. A miss runs the source BFS and the exhaustive closure and
// publishes the frontier — every reachable skeleton entry, grouped by
// shard, each slice sorted once at publish time; a source whose BFS emits
// no seeds answers false and is not cached. A hit runs no source BFS and
// no closure. Either way the answer then comes from the frontier: an empty
// shard(t) slice answers false without touching shard(t); otherwise the
// phase-3 reverse BFS from (t, 0) stops at the first state it finds in the
// slice (binary search). Answers are bit-identical with the cache on or
// off; the cache-off path (frontier_cache_entries = 0) is the reference:
// phase 1, then the full accept set, then a skeleton BFS that exits at the
// first accepted entry. Builds are single-flight (the first prober runs
// the source BFS and builds, contemporaries wait on the published entry),
// which keeps the skeleton-hop/expansion counter totals identical for
// every thread count. Entries are tagged with the engine's mutation epoch
// — OnIntraMutation/OnCrossMutation invalidate every cached frontier,
// since a frontier depends on the whole graph, not one shard.
//
// Thread contract: PreparePlan and mutation notifications are
// owner-thread-only. ComposedQuery and IntraProductReaches on a prepared
// plan are safe to fan out across a worker pool (per-call Scratch; lazy
// row construction is published with acquire/release atomics under a
// per-shard build mutex; the frontier cache is guarded by its own mutex +
// condition variable).

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "rlc/core/dynamic_index.h"
#include "rlc/core/label_seq.h"
#include "rlc/serve/partitioner.h"
#include "rlc/serve/serving_status.h"

namespace rlc {

struct ComposeOptions {
  /// A shard's transition table is materialized only when its boundary
  /// product graph (|B_S| * |L|) has at most this many states; larger
  /// shards expand on the fly per probe. Bounds a (shard, constraint)
  /// table at budget rows, each the list of skeleton entries the row
  /// leads to. 16384 keeps the shards of a 4-way split of a 20K-vertex,
  /// 100K-edge community graph on tables for length-2 constraints (a
  /// table hop walks a short list; on-the-fly expansion is a per-probe
  /// BFS). At 2048 those shards expand on the fly and composed probes
  /// take ~2.5x as long.
  uint32_t table_budget_nodes = 16384;
  /// Plan-cache capacity (distinct constraints); the cache flushes when
  /// full, mirroring the service's constraint memo.
  size_t max_cached_plans = 1 << 12;
  /// Skeleton frontier cache capacity in entries: one per distinct
  /// (constraint, source vertex) whose source BFS emits seeds, LRU-evicted,
  /// epoch-invalidated by mutations. A hit skips the source BFS and the
  /// skeleton closure. 0 disables the cache (the reference path); answers
  /// are identical either way.
  size_t frontier_cache_entries = 1024;
};

/// Telemetry of one composed probe (the caller folds these into its
/// metrics registry; sums are independent of thread count).
struct ComposeResult {
  bool reachable = false;
  /// The deadline expired mid-traversal: `reachable` is meaningless, the
  /// probe carries no answer. Overrun is bounded by one deadline-check
  /// stride (kDeadlineCheckStride pops) or one table-row build.
  bool timed_out = false;
  bool frontier_hit = false;   ///< answered from a cached frontier (no
                               ///< source BFS, no skeleton closure ran)
  bool frontier_miss = false;  ///< this call built + cached a frontier
  uint32_t skeleton_hops = 0;  ///< skeleton entries popped
  uint32_t expanded = 0;       ///< product states visited on the fly
  uint32_t table_rows_built = 0;  ///< transition rows built by this call
  uint32_t frontier_evictions = 0;  ///< cache entries this call dropped
                                    ///< (stale, replaced, or LRU capacity)
};

class CompositionEngine {
 public:
  /// Deadline granularity: traversal loops read the clock once per this
  /// many pops/expansions, so deadline overrun inside a probe is bounded
  /// by one stride (plus at most one table-row build).
  static constexpr uint32_t kDeadlineCheckStride = 128;

  /// One boundary-transition row: the sorted, deduplicated global product
  /// ids (vertex * j + position) of the skeleton entries it leads to.
  struct BoundaryRow {
    std::vector<uint64_t> succ;
  };

  /// Per-(shard, constraint) composition state. Rows build lazily and are
  /// published via atomics; everything else is immutable after
  /// PreparePlan installs the struct.
  struct ShardPlan {
    uint64_t epoch = 0;   ///< engine shard epoch at build time
    bool tables = false;  ///< boundary product graph within budget
    uint32_t num_boundary = 0;
    /// local id -> boundary ordinal, -1 interior (tables only).
    std::vector<int32_t> boundary_ord;
    std::vector<std::atomic<const BoundaryRow*>> rows;  ///< |B| * j slots
    std::mutex build_mu;
    std::vector<std::unique_ptr<BoundaryRow>> owned;  ///< guarded by build_mu
    /// Row-build scratch, guarded by build_mu.
    std::vector<uint32_t> build_stamp;
    uint32_t build_counter = 0;
    std::vector<uint64_t> build_queue;
  };

  /// One constraint's composition plan.
  struct Plan {
    LabelSeq seq;
    uint32_t j = 0;  ///< |seq|
    std::vector<std::unique_ptr<ShardPlan>> shards;
  };

  /// Per-thread traversal scratch: stamped visited arrays over the global
  /// product space plus BFS queues. Reusable across probes and plans.
  struct Scratch {
    std::vector<uint32_t> fwd_stamp;  ///< source-shard forward BFS
    std::vector<uint32_t> acc_stamp;  ///< target-shard reverse BFS
    std::vector<uint32_t> exp_stamp;  ///< skeleton + on-the-fly expansion
    uint32_t stamp = 0;
    std::vector<uint64_t> fwd_queue;
    std::vector<uint64_t> acc_queue;
    std::vector<uint64_t> skel_queue;
    std::vector<uint64_t> exp_queue;
  };

  /// `partition` and `shards` must outlive the engine; `shards` is the
  /// service's per-shard dynamic-index vector (the engine reads shard
  /// graphs through the partition and mutation overlays through the
  /// dynamic indexes — never the sealed indexes themselves).
  CompositionEngine(const GraphPartition& partition,
                    const std::vector<std::unique_ptr<DynamicRlcIndex>>& shards,
                    ComposeOptions options = {});

  /// Gets (building or refreshing stale shards as needed) the plan for
  /// `seq`. Owner thread only; the returned reference is stable until the
  /// cache flushes (max_cached_plans). When `invalidated` is non-null it
  /// receives how many stale shard plans this call rebuilt.
  const Plan& PreparePlan(const LabelSeq& seq, uint32_t* invalidated = nullptr);

  /// True iff a path s ⇝ t spelling seq^z (z >= 1) with >= 1 cross-shard
  /// edge exists on the current mutated graph. Thread-safe on a prepared
  /// plan (see class comment). A set `deadline` is enforced inside every
  /// traversal loop (stride kDeadlineCheckStride); on expiry the result
  /// has timed_out = true and carries no answer, only partial-work
  /// telemetry.
  ComposeResult ComposedQuery(VertexId s, VertexId t, const Plan& plan,
                              Scratch& scratch,
                              const Deadline& deadline = {}) const;

  /// True iff a purely intra-shard path s ⇝ t spelling seq^z (z >= 1)
  /// exists (s and t must share a shard) — the index-free exact intra
  /// answer for degraded probes whose shard index is unavailable. A set
  /// `deadline` is stride-checked; on expiry returns false and sets
  /// *timed_out (when given).
  bool IntraProductReaches(VertexId s, VertexId t, const LabelSeq& seq,
                           Scratch& scratch, const Deadline& deadline = {},
                           bool* timed_out = nullptr) const;

  /// Mutation notifications (owner thread): bump the affected shards'
  /// epochs so stale tables refresh on next PreparePlan, and the global
  /// mutation epoch so cached skeleton frontiers (functions of the whole
  /// graph) lazily invalidate.
  void OnIntraMutation(uint32_t shard) {
    ++epochs_[shard];
    mutation_epoch_.fetch_add(1, std::memory_order_relaxed);
  }
  void OnCrossMutation(uint32_t src_shard, uint32_t dst_shard) {
    ++epochs_[src_shard];
    if (dst_shard != src_shard) ++epochs_[dst_shard];
    mutation_epoch_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Drops every cached plan and cached frontier (recovery / wholesale
  /// rebuild). Returns how many cached frontiers were dropped so the
  /// caller can fold them into its eviction counter.
  size_t InvalidateAll();

  const ComposeOptions& options() const { return options_; }
  size_t num_cached_plans() const { return plans_.size(); }
  /// Installed (fully built) frontier-cache entries right now.
  size_t num_cached_frontiers() const;

  /// Heap footprint of the plan cache (tables, ordinal maps) and the
  /// frontier cache in bytes.
  uint64_t MemoryBytes() const;

 private:
  /// Cache key of one skeleton frontier: the constraint plus the source
  /// vertex. The closure from a fixed source is independent of the target,
  /// so the key is known before any traversal runs.
  struct FrontierKey {
    LabelSeq seq;
    VertexId source = 0;
    bool operator==(const FrontierKey& o) const {
      return source == o.source && seq == o.seq;
    }
  };
  struct FrontierKeyHash {
    size_t operator()(const FrontierKey& k) const {
      return LabelSeqHash{}(k.seq) ^
             (std::hash<uint64_t>{}(k.source) * 0x9e3779b97f4a7c15ull);
    }
  };
  /// One cached frontier: every skeleton entry reachable from the source,
  /// grouped by shard, each slice sorted. `building` entries are
  /// placeholders owned by the in-flight builder (single-flight); they are
  /// not in the LRU list and readers wait on frontier_cv_ until the build
  /// completes or aborts.
  struct Frontier {
    uint64_t epoch = 0;  ///< mutation_epoch_ at build begin
    bool building = true;
    std::vector<std::vector<uint64_t>> by_shard;  ///< sorted entry pids
    std::list<FrontierKey>::iterator lru_it;      ///< valid when !building
  };

  /// (Re)creates the per-shard plan for shard `s` of `plan`.
  void BuildShardPlan(Plan& plan, uint32_t s);

  /// Returns the transition row for boundary product state `row_idx`
  /// of shard `s`, building and publishing it on first use. `built` is
  /// incremented when this call did the build.
  const BoundaryRow* GetRow(ShardPlan& sp, uint32_t s, uint32_t row_idx,
                            const Plan& plan, uint32_t* built) const;

  void EnsureScratch(Scratch& scratch, uint32_t j) const;

  /// Erases `it` from the frontier map (and the LRU list when installed).
  /// Caller holds frontier_mu_.
  void EraseFrontierLocked(
      std::unordered_map<FrontierKey, std::shared_ptr<Frontier>,
                         FrontierKeyHash>::iterator it) const;

  const GraphPartition& partition_;
  const std::vector<std::unique_ptr<DynamicRlcIndex>>& shards_;
  ComposeOptions options_;
  std::vector<uint64_t> epochs_;
  std::unordered_map<LabelSeq, std::unique_ptr<Plan>, LabelSeqHash> plans_;
  VertexId num_vertices_ = 0;

  /// Global mutation epoch: any graph mutation invalidates every cached
  /// frontier (read by worker threads at lookup, hence atomic).
  std::atomic<uint64_t> mutation_epoch_{0};

  /// Frontier cache (guarded by frontier_mu_; mutable because lookups
  /// from const ComposedQuery mutate LRU order and single-flight state).
  mutable std::mutex frontier_mu_;
  mutable std::condition_variable frontier_cv_;
  mutable std::unordered_map<FrontierKey, std::shared_ptr<Frontier>,
                             FrontierKeyHash>
      frontiers_;
  mutable std::list<FrontierKey> frontier_lru_;  ///< front = most recent
};

}  // namespace rlc

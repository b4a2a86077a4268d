#include "rlc/serve/compose.h"

#include <algorithm>
#include <chrono>

#include "rlc/obs/metrics.h"
#include "rlc/util/common.h"

namespace rlc {

CompositionEngine::CompositionEngine(
    const GraphPartition& partition,
    const std::vector<std::unique_ptr<DynamicRlcIndex>>& shards,
    ComposeOptions options)
    : partition_(partition),
      shards_(shards),
      options_(options),
      epochs_(partition.num_shards(), 0) {
  for (uint32_t s = 0; s < partition.num_shards(); ++s) {
    num_vertices_ += static_cast<VertexId>(partition.shard(s).global_of.size());
  }
}

void CompositionEngine::BuildShardPlan(Plan& plan, uint32_t s) {
  auto sp = std::make_unique<ShardPlan>();
  sp->epoch = epochs_[s];
  const ShardInfo& shard = partition_.shard(s);
  sp->num_boundary = static_cast<uint32_t>(shard.boundary.size());
  const uint64_t states = static_cast<uint64_t>(sp->num_boundary) * plan.j;
  sp->tables = states > 0 && states <= options_.table_budget_nodes;
  if (sp->tables) {
    sp->boundary_ord.assign(shard.graph.num_vertices(), -1);
    for (uint32_t i = 0; i < sp->num_boundary; ++i) {
      sp->boundary_ord[shard.boundary[i]] = static_cast<int32_t>(i);
    }
    sp->rows = std::vector<std::atomic<const BoundaryRow*>>(states);
  }
  plan.shards[s] = std::move(sp);
}

const CompositionEngine::Plan& CompositionEngine::PreparePlan(
    const LabelSeq& seq, uint32_t* invalidated) {
  if (invalidated) *invalidated = 0;
  auto it = plans_.find(seq);
  if (it == plans_.end()) {
    if (plans_.size() >= options_.max_cached_plans) plans_.clear();
    auto plan = std::make_unique<Plan>();
    plan->seq = seq;
    plan->j = seq.size();
    RLC_REQUIRE(plan->j >= 1, "CompositionEngine: empty constraint");
    plan->shards.resize(partition_.num_shards());
    for (uint32_t s = 0; s < partition_.num_shards(); ++s) {
      BuildShardPlan(*plan, s);
    }
    it = plans_.emplace(seq, std::move(plan)).first;
    return *it->second;
  }
  Plan& plan = *it->second;
  uint32_t stale = 0;
  for (uint32_t s = 0; s < partition_.num_shards(); ++s) {
    if (plan.shards[s]->epoch != epochs_[s]) {
      BuildShardPlan(plan, s);
      ++stale;
    }
  }
  if (invalidated) *invalidated = stale;
  return plan;
}

size_t CompositionEngine::InvalidateAll() {
  plans_.clear();
  std::lock_guard<std::mutex> lock(frontier_mu_);
  size_t dropped = 0;
  for (auto it = frontiers_.begin(); it != frontiers_.end();) {
    if (it->second->building) {
      // An in-flight builder owns its placeholder; it installs (or aborts)
      // after we return and stays consistent — mutation epochs, not this
      // wholesale flush, are what guard staleness.
      ++it;
      continue;
    }
    frontier_lru_.erase(it->second->lru_it);
    it = frontiers_.erase(it);
    ++dropped;
  }
  return dropped;
}

size_t CompositionEngine::num_cached_frontiers() const {
  std::lock_guard<std::mutex> lock(frontier_mu_);
  return frontier_lru_.size();
}

void CompositionEngine::EraseFrontierLocked(
    std::unordered_map<FrontierKey, std::shared_ptr<Frontier>,
                       FrontierKeyHash>::iterator it) const {
  if (!it->second->building) frontier_lru_.erase(it->second->lru_it);
  frontiers_.erase(it);
}

void CompositionEngine::EnsureScratch(Scratch& scratch, uint32_t j) const {
  const uint64_t states = static_cast<uint64_t>(num_vertices_) * j;
  const auto grow = [&](std::vector<uint32_t>& v) {
    if (v.size() < states) v.resize(states, 0);
  };
  grow(scratch.fwd_stamp);
  grow(scratch.acc_stamp);
  grow(scratch.exp_stamp);
  // Stamp 0 is reserved for "never visited" (fresh array cells), so a wrap
  // zeroes everything and restarts at 1.
  if (++scratch.stamp == 0) {
    std::fill(scratch.fwd_stamp.begin(), scratch.fwd_stamp.end(), 0u);
    std::fill(scratch.acc_stamp.begin(), scratch.acc_stamp.end(), 0u);
    std::fill(scratch.exp_stamp.begin(), scratch.exp_stamp.end(), 0u);
    scratch.stamp = 1;
  }
}

const CompositionEngine::BoundaryRow* CompositionEngine::GetRow(
    ShardPlan& sp, uint32_t s, uint32_t row_idx, const Plan& plan,
    uint32_t* built) const {
  const BoundaryRow* row = sp.rows[row_idx].load(std::memory_order_acquire);
  if (row) return row;
  std::lock_guard<std::mutex> lock(sp.build_mu);
  row = sp.rows[row_idx].load(std::memory_order_relaxed);
  if (row) return row;

  const uint32_t j = plan.j;
  const ShardInfo& shard = partition_.shard(s);
  const DynamicRlcIndex& dyn = *shards_[s];
  const uint64_t local_states =
      static_cast<uint64_t>(shard.graph.num_vertices()) * j;
  if (sp.build_stamp.size() < local_states) {
    sp.build_stamp.resize(local_states, 0);
  }
  if (++sp.build_counter == 0) {
    std::fill(sp.build_stamp.begin(), sp.build_stamp.end(), 0u);
    sp.build_counter = 1;
  }
  const uint32_t bstamp = sp.build_counter;

  // Intra product BFS from the row's boundary state over the shard's
  // mutated graph (base subgraph + overlay minus removals); every boundary
  // product state reached — including the start itself — contributes the
  // heads of its label-matched cross edges as skeleton entries.
  const VertexId b_local = shard.boundary[row_idx / j];
  sp.build_queue.clear();
  auto fresh = std::make_unique<BoundaryRow>();
  const uint64_t start = static_cast<uint64_t>(b_local) * j + row_idx % j;
  sp.build_stamp[start] = bstamp;
  sp.build_queue.push_back(start);
  for (size_t head = 0; head < sp.build_queue.size(); ++head) {
    const uint64_t pid = sp.build_queue[head];
    const VertexId lu = static_cast<VertexId>(pid / j);
    const uint32_t q = static_cast<uint32_t>(pid % j);
    const Label l = plan.seq[q];
    const uint32_t nq = (q + 1) % j;
    if (sp.boundary_ord[lu] >= 0) {
      for (const LabeledNeighbor& nb :
           partition_.CrossOutEdges(partition_.GlobalOf(s, lu))) {
        if (nb.label == l) {
          fresh->succ.push_back(static_cast<uint64_t>(nb.v) * j + nq);
        }
      }
    }
    const auto visit = [&](VertexId lv) {
      const uint64_t npid = static_cast<uint64_t>(lv) * j + nq;
      if (sp.build_stamp[npid] == bstamp) return;
      sp.build_stamp[npid] = bstamp;
      sp.build_queue.push_back(npid);
    };
    for (const LabeledNeighbor& nb : shard.graph.OutEdgesWithLabel(lu, l)) {
      if (!dyn.OutEdgeRemoved(lu, nb)) visit(nb.v);
    }
    for (const LabeledNeighbor& nb : dyn.ExtraOut(lu)) {
      if (nb.label == l) visit(nb.v);
    }
  }
  std::vector<uint64_t>& succ = fresh->succ;
  std::sort(succ.begin(), succ.end());
  succ.erase(std::unique(succ.begin(), succ.end()), succ.end());
  succ.shrink_to_fit();

  const BoundaryRow* ptr = fresh.get();
  sp.owned.push_back(std::move(fresh));
  sp.rows[row_idx].store(ptr, std::memory_order_release);
  if (built) ++(*built);
  return ptr;
}

ComposeResult CompositionEngine::ComposedQuery(VertexId s, VertexId t,
                                               const Plan& plan,
                                               Scratch& scratch,
                                               const Deadline& deadline) const {
  ComposeResult result;
  const uint32_t j = plan.j;
  EnsureScratch(scratch, j);
  const uint32_t stamp = scratch.stamp;
  const uint32_t ss = partition_.ShardOf(s);
  const uint32_t st = partition_.ShardOf(t);
  const auto pid_of = [j](VertexId v, uint32_t p) {
    return static_cast<uint64_t>(v) * j + p;
  };
  // In-BFS deadline gate: one clock read per kDeadlineCheckStride pops, so
  // overrun past the deadline is bounded by one stride of work (plus at
  // most one table-row build) instead of a whole skeleton walk.
  uint32_t dl_ticks = kDeadlineCheckStride;
  const bool bounded = deadline.active();
  const auto deadline_hit = [&]() {
    if (!bounded) return false;
    if (--dl_ticks != 0) return false;
    dl_ticks = kDeadlineCheckStride;
    return deadline.Expired(obs::NowNanos());
  };
  // A deadline that already expired (e.g. spent upstream in queueing or an
  // injected delay) aborts before any traversal — small probes must not
  // slip through inside the first stride.
  if (bounded && deadline.Expired(obs::NowNanos())) {
    result.timed_out = true;
    return result;
  }

  // Phase 3 — target-shard prefix: reverse product BFS from (t, 0) inside
  // shard(t) over the accept set A (states that intra-reach (t, 0)). With
  // a frontier slice it stops at the first state of A found in the slice
  // (the probe's answer); without one it marks all of A in acc_stamp for
  // the reference path's pop-time checks. Returns false on a timeout.
  const auto reverse_bfs = [&](const std::vector<uint64_t>* slice) {
    const auto in_slice = [slice](uint64_t pid) {
      return std::binary_search(slice->begin(), slice->end(), pid);
    };
    const ShardInfo& shard = partition_.shard(st);
    const DynamicRlcIndex& dyn = *shards_[st];
    scratch.acc_queue.clear();
    const uint64_t accept = pid_of(t, 0);
    scratch.acc_stamp[accept] = stamp;
    scratch.acc_queue.push_back(accept);
    bool found = slice != nullptr && in_slice(accept);
    for (size_t head = 0; head < scratch.acc_queue.size() && !found; ++head) {
      if (deadline_hit()) {
        result.timed_out = true;
        result.expanded += static_cast<uint32_t>(scratch.acc_queue.size());
        return false;
      }
      const uint64_t pid = scratch.acc_queue[head];
      const VertexId v = static_cast<VertexId>(pid / j);
      const uint32_t r = static_cast<uint32_t>(pid % j);
      const uint32_t q = (r + j - 1) % j;
      const Label l = plan.seq[q];
      const VertexId lv = partition_.LocalOf(v);
      const auto visit = [&](VertexId local_pred) {
        const uint64_t npid = pid_of(partition_.GlobalOf(st, local_pred), q);
        if (scratch.acc_stamp[npid] == stamp) return;
        scratch.acc_stamp[npid] = stamp;
        scratch.acc_queue.push_back(npid);
        if (slice != nullptr && in_slice(npid)) found = true;
      };
      for (const LabeledNeighbor& nb : shard.graph.InEdgesWithLabel(lv, l)) {
        if (!dyn.InEdgeRemoved(lv, nb)) visit(nb.v);
        if (found) break;
      }
      for (const LabeledNeighbor& nb : dyn.ExtraIn(lv)) {
        if (found) break;
        if (nb.label == l) visit(nb.v);
      }
    }
    result.expanded += static_cast<uint32_t>(scratch.acc_queue.size());
    result.reachable = found;
    return true;
  };
  // Answer from a complete frontier: true iff some entry of its shard(t)
  // slice lies in A. An empty slice never touches shard(t). The slice was
  // sorted at publish time and is only read here (never copied per probe).
  const auto answer_from = [&](const Frontier& f) {
    const std::vector<uint64_t>& slice = f.by_shard[st];
    if (!slice.empty()) reverse_bfs(&slice);
  };

  // Frontier cache: the exhaustive skeleton closure is a pure function of
  // (constraint, source vertex, graph), so the lookup runs before any
  // traversal and a hit skips the source BFS and the closure entirely.
  // Builds are single-flight: exactly one prober runs the source BFS and
  // the closure for each key, so hop/expansion counter totals stay
  // identical for every thread count.
  std::shared_ptr<Frontier> built;  // non-null → this call is the builder
  const FrontierKey key{plan.seq, s};
  if (options_.frontier_cache_entries > 0) {
    const uint64_t mepoch = mutation_epoch_.load(std::memory_order_relaxed);
    std::unique_lock<std::mutex> lk(frontier_mu_);
    for (;;) {
      auto it = frontiers_.find(key);
      if (it == frontiers_.end()) {
        built = std::make_shared<Frontier>();
        built->epoch = mepoch;
        frontiers_.emplace(key, built);
        break;
      }
      std::shared_ptr<Frontier> f = it->second;
      if (!f->building && f->epoch != mepoch) {
        // Built against a pre-mutation graph: drop it and rebuild.
        EraseFrontierLocked(it);
        ++result.frontier_evictions;
        continue;
      }
      if (f->building) {
        // Single-flight wait for the in-flight builder (its completion is
        // a hit; its abort sends the first waiter to build).
        if (bounded) {
          const uint64_t rem = deadline.RemainingNs(obs::NowNanos());
          if (rem == 0) {
            result.timed_out = true;
            return result;
          }
          frontier_cv_.wait_for(lk, std::chrono::nanoseconds(std::min<uint64_t>(
                                        rem, uint64_t{1000000})));
        } else {
          frontier_cv_.wait(lk);
        }
        continue;  // the map may have changed; re-resolve the key
      }
      frontier_lru_.splice(frontier_lru_.begin(), frontier_lru_, f->lru_it);
      lk.unlock();
      result.frontier_hit = true;
      answer_from(*f);
      return result;
    }
  }
  const bool exhaustive = built != nullptr;
  // A builder that bails (deadline, or no seeds) must clear its
  // placeholder so waiters wake and one of them takes over the build.
  const auto abort_build = [&]() {
    if (!exhaustive) return;
    std::lock_guard<std::mutex> lk(frontier_mu_);
    auto it = frontiers_.find(key);
    if (it != frontiers_.end() && it->second == built) frontiers_.erase(it);
    frontier_cv_.notify_all();
  };

  // Phase 1 — source-shard suffix: forward product BFS from (s, 0) inside
  // shard(s); label-matched cross edges leaving any visited state seed the
  // skeleton with their heads.
  const auto emit_cross = [&](VertexId u, uint32_t q) {
    const Label l = plan.seq[q];
    const uint32_t nq = (q + 1) % j;
    for (const LabeledNeighbor& nb : partition_.CrossOutEdges(u)) {
      if (nb.label != l) continue;
      const uint64_t npid = pid_of(nb.v, nq);
      if (scratch.exp_stamp[npid] == stamp) continue;
      scratch.exp_stamp[npid] = stamp;
      scratch.skel_queue.push_back(npid);
    }
  };
  scratch.fwd_queue.clear();
  scratch.skel_queue.clear();
  {
    const ShardInfo& shard = partition_.shard(ss);
    const DynamicRlcIndex& dyn = *shards_[ss];
    const uint64_t start = pid_of(s, 0);
    scratch.fwd_stamp[start] = stamp;
    scratch.fwd_queue.push_back(start);
    for (size_t head = 0; head < scratch.fwd_queue.size(); ++head) {
      if (deadline_hit()) {
        result.timed_out = true;
        result.expanded += static_cast<uint32_t>(scratch.fwd_queue.size());
        abort_build();
        return result;
      }
      const uint64_t pid = scratch.fwd_queue[head];
      const VertexId u = static_cast<VertexId>(pid / j);
      const uint32_t p = static_cast<uint32_t>(pid % j);
      emit_cross(u, p);
      const Label l = plan.seq[p];
      const uint32_t np = (p + 1) % j;
      const VertexId lu = partition_.LocalOf(u);
      const auto visit = [&](VertexId local_succ) {
        const uint64_t npid = pid_of(partition_.GlobalOf(ss, local_succ), np);
        if (scratch.fwd_stamp[npid] == stamp) return;
        scratch.fwd_stamp[npid] = stamp;
        scratch.fwd_queue.push_back(npid);
      };
      for (const LabeledNeighbor& nb : shard.graph.OutEdgesWithLabel(lu, l)) {
        if (!dyn.OutEdgeRemoved(lu, nb)) visit(nb.v);
      }
      for (const LabeledNeighbor& nb : dyn.ExtraOut(lu)) {
        if (nb.label == l) visit(nb.v);
      }
    }
    result.expanded += static_cast<uint32_t>(scratch.fwd_queue.size());
  }
  if (scratch.skel_queue.empty()) {
    // No cross edge leaves the source's closure: false, and not worth a
    // cache entry.
    abort_build();
    return result;
  }
  // The reference path (cache off) marks the whole accept set up front so
  // the skeleton BFS can exit at the first accepted entry.
  if (!exhaustive && !reverse_bfs(nullptr)) return result;

  // Phase 2 — skeleton BFS. The reference path checks entries against A at
  // pop time; that is complete because A is intra-closed: any state an
  // expansion marks inside shard(t) that lies in A puts its own entry in
  // A, and that entry's pop already answered true (so exp-stamp dedup of
  // later entries cannot hide an accepting one). A frontier build runs the
  // same loop to exhaustion with no accept set and answers afterwards from
  // the published frontier.
  for (size_t head = 0; head < scratch.skel_queue.size(); ++head) {
    if (deadline_hit()) {
      result.timed_out = true;
      abort_build();
      return result;
    }
    const uint64_t pid = scratch.skel_queue[head];
    const VertexId v = static_cast<VertexId>(pid / j);
    const uint32_t p = static_cast<uint32_t>(pid % j);
    ++result.skeleton_hops;
    const uint32_t sv = partition_.ShardOf(v);
    if (!exhaustive && sv == st && scratch.acc_stamp[pid] == stamp) {
      result.reachable = true;
      return result;
    }
    ShardPlan& sp = *plan.shards[sv];
    if (sp.tables) {
      // Boundary-transition row: the skeleton entries intra-reachable from
      // (v, p) through any boundary exit. Skeleton entries are cross-edge
      // heads, so v is always a boundary vertex with a valid ordinal.
      const int32_t ord = sp.boundary_ord[partition_.LocalOf(v)];
      const uint32_t row_idx = static_cast<uint32_t>(ord) * j + p;
      const BoundaryRow* row =
          GetRow(sp, sv, row_idx, plan, &result.table_rows_built);
      for (const uint64_t npid : row->succ) {
        if (scratch.exp_stamp[npid] == stamp) continue;
        scratch.exp_stamp[npid] = stamp;
        scratch.skel_queue.push_back(npid);
      }
    } else {
      // Over-budget shard: expand the product graph on the fly. exp_stamp
      // is shared across every entry into this shard within the probe, so
      // the shard's product graph is walked at most once per probe.
      const ShardInfo& shard = partition_.shard(sv);
      const DynamicRlcIndex& dyn = *shards_[sv];
      scratch.exp_queue.clear();
      scratch.exp_queue.push_back(pid);
      for (size_t eh = 0; eh < scratch.exp_queue.size(); ++eh) {
        if (deadline_hit()) {
          result.timed_out = true;
          result.expanded += static_cast<uint32_t>(scratch.exp_queue.size());
          abort_build();
          return result;
        }
        const uint64_t epid = scratch.exp_queue[eh];
        const VertexId u = static_cast<VertexId>(epid / j);
        const uint32_t q = static_cast<uint32_t>(epid % j);
        emit_cross(u, q);
        const Label l = plan.seq[q];
        const uint32_t nq = (q + 1) % j;
        const VertexId lu = partition_.LocalOf(u);
        const auto visit = [&](VertexId local_succ) {
          const uint64_t npid = pid_of(partition_.GlobalOf(sv, local_succ), nq);
          if (scratch.exp_stamp[npid] == stamp) return;
          scratch.exp_stamp[npid] = stamp;
          scratch.exp_queue.push_back(npid);
        };
        for (const LabeledNeighbor& nb : shard.graph.OutEdgesWithLabel(lu, l)) {
          if (!dyn.OutEdgeRemoved(lu, nb)) visit(nb.v);
        }
        for (const LabeledNeighbor& nb : dyn.ExtraOut(lu)) {
          if (nb.label == l) visit(nb.v);
        }
      }
      result.expanded += static_cast<uint32_t>(scratch.exp_queue.size());
    }
  }
  if (!exhaustive) return result;

  // skel_queue now holds every popped entry (append-only queue, fully
  // drained) — exactly the frontier. Group by shard, sort each slice once
  // (trimmed to size: the cache holds up to frontier_cache_entries of
  // them), publish, then answer from it like a hit.
  built->by_shard.resize(partition_.num_shards());
  for (const uint64_t epid : scratch.skel_queue) {
    built->by_shard[partition_.ShardOf(static_cast<VertexId>(epid / j))]
        .push_back(epid);
  }
  for (auto& slice : built->by_shard) {
    std::sort(slice.begin(), slice.end());
    slice.shrink_to_fit();
  }
  {
    std::lock_guard<std::mutex> lk(frontier_mu_);
    auto it = frontiers_.find(key);
    if (it != frontiers_.end() && it->second == built) {
      built->building = false;
      frontier_lru_.push_front(key);
      built->lru_it = frontier_lru_.begin();
      result.frontier_miss = true;
      while (frontier_lru_.size() > options_.frontier_cache_entries) {
        auto vit = frontiers_.find(frontier_lru_.back());
        EraseFrontierLocked(vit);
        ++result.frontier_evictions;
      }
    }
    frontier_cv_.notify_all();
  }
  answer_from(*built);
  return result;
}

bool CompositionEngine::IntraProductReaches(VertexId s, VertexId t,
                                            const LabelSeq& seq,
                                            Scratch& scratch,
                                            const Deadline& deadline,
                                            bool* timed_out) const {
  if (timed_out) *timed_out = false;
  const uint32_t ss = partition_.ShardOf(s);
  RLC_REQUIRE(ss == partition_.ShardOf(t),
              "IntraProductReaches: endpoints span shards "
                  << ss << " and " << partition_.ShardOf(t));
  const uint32_t j = seq.size();
  RLC_REQUIRE(j >= 1, "IntraProductReaches: empty constraint");
  EnsureScratch(scratch, j);
  const uint32_t stamp = scratch.stamp;
  const ShardInfo& shard = partition_.shard(ss);
  const DynamicRlcIndex& dyn = *shards_[ss];

  // Forward product BFS from (s, 0); accepting on *arrival* at (t, 0) via
  // an edge (never on the seed itself) enforces the >= 1-edge requirement,
  // which makes s == t demand a genuine aligned cycle.
  scratch.fwd_queue.clear();
  const uint64_t start = static_cast<uint64_t>(s) * j;
  scratch.fwd_stamp[start] = stamp;
  scratch.fwd_queue.push_back(start);
  uint32_t dl_ticks = kDeadlineCheckStride;
  const bool bounded = deadline.active();
  if (bounded && deadline.Expired(obs::NowNanos())) {
    if (timed_out) *timed_out = true;
    return false;
  }
  for (size_t head = 0; head < scratch.fwd_queue.size(); ++head) {
    if (bounded && --dl_ticks == 0) {
      dl_ticks = kDeadlineCheckStride;
      if (deadline.Expired(obs::NowNanos())) {
        if (timed_out) *timed_out = true;
        return false;
      }
    }
    const uint64_t pid = scratch.fwd_queue[head];
    const VertexId u = static_cast<VertexId>(pid / j);
    const uint32_t p = static_cast<uint32_t>(pid % j);
    const Label l = seq[p];
    const uint32_t np = (p + 1) % j;
    const VertexId lu = partition_.LocalOf(u);
    bool found = false;
    const auto visit = [&](VertexId local_succ) {
      const VertexId gv = partition_.GlobalOf(ss, local_succ);
      if (gv == t && np == 0) {
        found = true;
        return;
      }
      const uint64_t npid = static_cast<uint64_t>(gv) * j + np;
      if (scratch.fwd_stamp[npid] == stamp) return;
      scratch.fwd_stamp[npid] = stamp;
      scratch.fwd_queue.push_back(npid);
    };
    for (const LabeledNeighbor& nb : shard.graph.OutEdgesWithLabel(lu, l)) {
      if (!dyn.OutEdgeRemoved(lu, nb)) {
        visit(nb.v);
        if (found) return true;
      }
    }
    for (const LabeledNeighbor& nb : dyn.ExtraOut(lu)) {
      if (nb.label == l) {
        visit(nb.v);
        if (found) return true;
      }
    }
  }
  return false;
}

uint64_t CompositionEngine::MemoryBytes() const {
  uint64_t bytes = 0;
  for (const auto& [seq, plan] : plans_) {
    for (const auto& spp : plan->shards) {
      ShardPlan& sp = *spp;
      bytes += sizeof(ShardPlan);
      bytes += sp.boundary_ord.capacity() * sizeof(int32_t);
      bytes += sp.rows.size() * sizeof(std::atomic<const BoundaryRow*>);
      std::lock_guard<std::mutex> lock(sp.build_mu);
      for (const auto& row : sp.owned) {
        bytes += sizeof(BoundaryRow) + row->succ.capacity() * sizeof(uint64_t);
      }
      bytes += sp.build_stamp.capacity() * sizeof(uint32_t);
      bytes += sp.build_queue.capacity() * sizeof(uint64_t);
    }
  }
  {
    std::lock_guard<std::mutex> lock(frontier_mu_);
    for (const auto& [key, f] : frontiers_) {
      // The key lives twice (map node + LRU list node).
      bytes += sizeof(Frontier) + 2 * sizeof(FrontierKey);
      for (const auto& slice : f->by_shard) {
        bytes += slice.capacity() * sizeof(uint64_t);
      }
    }
  }
  return bytes;
}

}  // namespace rlc

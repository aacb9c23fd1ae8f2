#include "pattern/isomorphism.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <map>
#include <set>

#include "graph/intersect.h"
#include "parallel/delta_accumulator.h"
#include "parallel/parallel_for.h"

namespace dsd {

namespace {

// Orbit-stabilizer chain over Aut(Psi) (Grochow-Kellis): pick the smallest
// pattern vertex moved by the remaining automorphisms, demand its image be
// the minimum over its orbit's images, then recurse on the stabilizer.
// Each round multiplies the constraint factor by the orbit size, and the
// product of orbit sizes along the chain is exactly |Aut(Psi)| — so an
// embedding satisfies every condition iff it is the unique canonical
// representative of its instance.
std::vector<std::pair<int, int>> SymmetryBreakingConditions(
    const Pattern& pattern) {
  std::vector<std::vector<int>> autos = pattern.Automorphisms();
  std::vector<std::pair<int, int>> conditions;
  while (autos.size() > 1) {
    int pivot = -1;
    for (int v = 0; v < pattern.size() && pivot < 0; ++v) {
      for (const std::vector<int>& sigma : autos) {
        if (sigma[v] != v) {
          pivot = v;
          break;
        }
      }
    }
    assert(pivot >= 0);
    std::set<int> orbit;
    for (const std::vector<int>& sigma : autos) {
      if (sigma[pivot] != pivot) orbit.insert(sigma[pivot]);
    }
    for (int u : orbit) conditions.emplace_back(pivot, u);
    std::erase_if(autos, [pivot](const std::vector<int>& sigma) {
      return sigma[pivot] != pivot;
    });
  }
  return conditions;
}

// Greedy matching order from `start`: next is the unplaced vertex with the
// most already-placed neighbors (maximises pruning); connectivity of the
// pattern guarantees at least one placed neighbor at every level.
PatternPlan CompileRootedPlan(const Pattern& pattern,
                              const std::vector<std::pair<int, int>>& conditions,
                              int start) {
  const int k = pattern.size();
  std::vector<int> order = {start};
  uint32_t used = 1u << start;
  while (static_cast<int>(order.size()) < k) {
    int best = -1;
    int best_links = -1;
    for (int p = 0; p < k; ++p) {
      if ((used >> p) & 1u) continue;
      const int links = std::popcount(pattern.AdjacencyMask(p) & used);
      if (links > best_links) {
        best_links = links;
        best = p;
      }
    }
    assert(best_links >= 1);
    order.push_back(best);
    used |= 1u << best;
  }
  std::vector<int> level_of(k, -1);
  for (int i = 0; i < k; ++i) level_of[order[i]] = i;
  PatternPlan plan;
  plan.levels.resize(k);
  for (int i = 0; i < k; ++i) {
    PatternPlan::Level& level = plan.levels[i];
    level.pattern_vertex = order[i];
    const uint32_t adjacency = pattern.AdjacencyMask(order[i]);
    for (int j = 0; j < i; ++j) {
      if ((adjacency >> order[j]) & 1u) level.connected |= 1u << j;
    }
  }
  // A condition image[a] < image[b] compiles into the level where the
  // SECOND endpoint lands, so every condition is checked exactly once and
  // as early as possible — pruning whole automorphic subtrees.
  for (const auto& [a, b] : conditions) {
    const int la = level_of[a];
    const int lb = level_of[b];
    if (la < lb) {
      plan.levels[lb].greater |= 1u << la;
    } else {
      plan.levels[la].less |= 1u << lb;
    }
  }
  return plan;
}

}  // namespace

PatternPlanSet::PatternPlanSet(Pattern pattern, MatchSemantics semantics)
    : pattern_(std::move(pattern)), semantics_(semantics) {
  assert(pattern_.IsConnected());
  // Force the lazy automorphism cache now, even under kEmbeddings (whose
  // counts divide by |Aut|): a fully-compiled const plan set is safe to
  // share across worker threads.
  pattern_.AutomorphismCount();
  if (semantics_ == MatchSemantics::kInstances) {
    conditions_ = SymmetryBreakingConditions(pattern_);
  }
  rooted_.reserve(pattern_.size());
  for (int p = 0; p < pattern_.size(); ++p) {
    rooted_.push_back(CompileRootedPlan(pattern_, conditions_, p));
  }
}

// ---------------------------------------------------------------------------
// The extension/reduction core. A Policy supplies the per-level hooks:
//   - Admit(u)           optional toAdd filter beyond the plan constraints
//                        (the rank mask of the peel kernels);
//   - OnMatch(image)     materializing terminal: full image per match; OR
//   - OnTerminal(u) + OnLevelDone(count, plan, scratch)
//                        folded terminal: one call per last-level candidate
//                        and one per exhausted last-level candidate loop —
//                        counts and degrees never materialize embeddings.

namespace {

template <typename Policy>
constexpr bool kMaterializes =
    requires(Policy& p, std::span<const VertexId> image) { p.OnMatch(image); };

template <typename Policy>
constexpr bool kHasAdmit = requires(Policy& p, VertexId u) {
  { p.Admit(u) } -> std::convertible_to<bool>;
};

struct EmitPolicy {
  const EmbeddingCallback& cb;
  void OnMatch(std::span<const VertexId> image) { cb(image); }
};

struct CountPolicy {
  uint64_t count = 0;
  void OnTerminal(VertexId) {}
  void OnLevelDone(uint64_t hits, const PatternPlan&,
                   const PatternMatcher::Scratch&) {
    count += hits;
  }
};

struct DegreeVectorPolicy {
  std::vector<uint64_t>& hits;
  void OnTerminal(VertexId u) { ++hits[u]; }
  void OnLevelDone(uint64_t count, const PatternPlan& plan,
                   const PatternMatcher::Scratch& scratch) {
    for (size_t l = 0; l + 1 < plan.levels.size(); ++l) {
      hits[scratch.placed[l]] += count;
    }
  }
};

struct DegreeSinkPolicy {
  const DegreeSink& sink;
  void OnTerminal(VertexId u) { sink(u, 1); }
  void OnLevelDone(uint64_t count, const PatternPlan& plan,
                   const PatternMatcher::Scratch& scratch) {
    for (size_t l = 0; l + 1 < plan.levels.size(); ++l) {
      sink(scratch.placed[l], count);
    }
  }
};

// Rank-masked peel: Admit prunes members already peeled (rank < my_rank);
// the terminal hooks report survivor deltas only (level 0 is the peeled
// vertex itself and is skipped).
struct PeelPolicy {
  std::span<const uint32_t> rank;
  uint32_t my_rank;
  const DegreeSink& sink;
  uint64_t destroyed = 0;

  bool Admit(VertexId u) const { return rank.empty() || rank[u] >= my_rank; }
  bool Survivor(VertexId u) const {
    return rank.empty() || rank[u] == kNoPeelRank;
  }
  void OnTerminal(VertexId u) {
    if (Survivor(u)) sink(u, 1);
  }
  void OnLevelDone(uint64_t count, const PatternPlan& plan,
                   const PatternMatcher::Scratch& scratch) {
    destroyed += count;
    for (size_t l = 1; l + 1 < plan.levels.size(); ++l) {
      const VertexId u = scratch.placed[l];
      if (Survivor(u)) sink(u, count);
    }
  }
};

}  // namespace

template <typename Policy>
void PatternMatcher::Extend(const PatternPlan& plan, size_t level,
                            std::span<const char> alive, Scratch& scratch,
                            unsigned slice, unsigned num_slices,
                            Policy& policy) const {
  const PatternPlan::Level& lv = plan.levels[level];
  // toExtend: anchor on the placed neighbor level with the smallest data
  // degree; candidates come from the anchor's graph neighbors.
  const uint32_t connected = lv.connected;
  assert(connected != 0);
  int anchor = std::countr_zero(connected);
  for (uint32_t rest = connected & (connected - 1); rest != 0;
       rest &= rest - 1) {
    const int l = std::countr_zero(rest);
    if (graph_.Degree(scratch.placed[l]) <
        graph_.Degree(scratch.placed[anchor])) {
      anchor = l;
    }
  }
  // The symmetry conditions are id comparisons, so on the ascending
  // adjacency list they cut one range: ids above every `greater` image and
  // below every `less` image.
  const std::span<const VertexId> adjacency =
      graph_.Neighbors(scratch.placed[anchor]);
  size_t begin = 0;
  size_t end = adjacency.size();
  if (lv.greater != 0) {
    VertexId floor = 0;
    for (uint32_t m = lv.greater; m != 0; m &= m - 1) {
      floor = std::max(floor, scratch.placed[std::countr_zero(m)]);
    }
    begin = static_cast<size_t>(
        std::upper_bound(adjacency.begin(), adjacency.end(), floor) -
        adjacency.begin());
  }
  if (lv.less != 0) {
    VertexId ceiling = std::numeric_limits<VertexId>::max();
    for (uint32_t m = lv.less; m != 0; m &= m - 1) {
      ceiling = std::min(ceiling, scratch.placed[std::countr_zero(m)]);
    }
    end = static_cast<size_t>(
        std::lower_bound(adjacency.begin() + begin, adjacency.end(), ceiling) -
        adjacency.begin());
  }
  auto admit = [&](VertexId u) {
    if (!alive.empty() && !alive[u]) return false;
    if constexpr (kHasAdmit<Policy>) {
      if (!policy.Admit(u)) return false;
    }
    // Already on the path: patterns have at most 31 vertices, so scanning
    // the placed prefix keeps the scratch O(k) instead of an O(n) mark
    // array.
    for (size_t l = 0; l < level; ++l) {
      if (u == scratch.placed[l]) return false;
    }
    return true;
  };
  const bool terminal = level + 1 == plan.levels.size();
  uint64_t terminal_hits = 0;
  auto visit = [&](VertexId u) {
    if (terminal) {
      if constexpr (kMaterializes<Policy>) {
        scratch.placed[level] = u;
        scratch.image[lv.pattern_vertex] = u;
        policy.OnMatch(std::span<const VertexId>(scratch.image));
      } else {
        ++terminal_hits;
        policy.OnTerminal(u);
      }
    } else {
      scratch.placed[level] = u;
      scratch.image[lv.pattern_vertex] = u;
      Extend(plan, level + 1, alive, scratch, slice, num_slices, policy);
    }
  };
  const uint32_t others = connected & ~(1u << anchor);
  if (others == 0) {
    // One placed neighbor: the bounded range, filtered in place. Hub
    // slicing applies to the root's own candidate loop only (level 1, whose
    // one neighbor is the root): the stride is over positions in the full
    // adjacency list, before any bound or filter, so the slices partition
    // the loop regardless of alive mask, path checks, or policy filters.
    size_t step = 1;
    if (level == 1 && num_slices > 1) {
      step = num_slices;
      begin += (slice + num_slices - begin % num_slices) % num_slices;
    }
    for (size_t i = begin; i < end; i += step) {
      if (admit(adjacency[i])) visit(adjacency[i]);
    }
  } else {
    // toAdd by intersection: filter the bounded range into this level's
    // first buffer, then intersect it with the adjacency of every other
    // placed neighbor, alternating between the level's two buffers so no
    // IntersectSorted call writes over its input. Filtering first keeps
    // the lists short late in a peel, when most of an anchor's list is
    // dead. Intersection keeps ascending order, so the candidates are the
    // same ids in the same order as a per-candidate adjacency probe.
    assert(level > 1);
    std::vector<VertexId>& first = scratch.candidates[2 * level];
    std::vector<VertexId>& second = scratch.candidates[2 * level + 1];
    if (first.size() < end - begin) {
      first.resize(end - begin);
      second.resize(end - begin);
    }
    size_t size = 0;
    for (size_t i = begin; i < end; ++i) {
      if (admit(adjacency[i])) first[size++] = adjacency[i];
    }
    VertexId* candidates = first.data();
    VertexId* spare = second.data();
    for (uint32_t m = others; m != 0 && size != 0; m &= m - 1) {
      size = IntersectSorted(
          {candidates, size},
          graph_.Neighbors(scratch.placed[std::countr_zero(m)]), spare);
      std::swap(candidates, spare);
    }
    for (size_t i = 0; i < size; ++i) visit(candidates[i]);
  }
  if constexpr (!kMaterializes<Policy>) {
    if (terminal && terminal_hits > 0) {
      policy.OnLevelDone(terminal_hits, plan, scratch);
    }
  }
}

template <typename Policy>
void PatternMatcher::RunFromRoot(const PatternPlan& plan, VertexId root,
                                 bool check_root, std::span<const char> alive,
                                 Scratch& scratch, unsigned slice,
                                 unsigned num_slices, Policy& policy) const {
  if (check_root && !alive.empty() && !alive[root]) return;
  const int p0 = plan.levels[0].pattern_vertex;
  scratch.placed[0] = root;
  scratch.image[p0] = root;
  if (plan.levels.size() == 1) {
    // A single-vertex pattern has no candidate loop to stride: the root
    // alone is the match, owned by slice 0.
    if (num_slices > 1 && slice != 0) return;
    if constexpr (kMaterializes<Policy>) {
      policy.OnMatch(std::span<const VertexId>(scratch.image));
    } else {
      policy.OnTerminal(root);
      policy.OnLevelDone(1, plan, scratch);
    }
    return;
  }
  Extend(plan, 1, alive, scratch, slice, num_slices, policy);
}

// ---------------------------------------------------------------------------
// PatternMatcher

PatternMatcher::PatternMatcher(const Graph& graph, const PatternPlanSet& plans)
    : graph_(graph), plans_(&plans) {}

PatternMatcher::PatternMatcher(const Graph& graph, const Pattern& pattern,
                               MatchSemantics semantics)
    : graph_(graph),
      owned_(std::make_shared<const PatternPlanSet>(pattern, semantics)) {
  plans_ = owned_.get();
}

PatternMatcher::Scratch PatternMatcher::MakeScratch() const {
  const size_t k = static_cast<size_t>(pattern().size());
  return {std::vector<VertexId>(k), std::vector<VertexId>(k),
          std::vector<std::vector<VertexId>>(2 * k)};
}

PatternMatcher::Scratch& PatternMatcher::ThreadScratch() const {
  thread_local Scratch scratch;
  const size_t k = static_cast<size_t>(pattern().size());
  scratch.image.resize(k);
  scratch.placed.resize(k);
  if (scratch.candidates.size() < 2 * k) scratch.candidates.resize(2 * k);
  return scratch;
}

void PatternMatcher::MatchAll(std::span<const char> alive,
                              const EmbeddingCallback& cb) const {
  Scratch scratch = MakeScratch();
  EmitPolicy policy{cb};
  for (VertexId v = 0; v < graph_.NumVertices(); ++v) {
    RunFromRoot(plans_->Default(), v, /*check_root=*/true, alive, scratch, 0, 1,
                policy);
  }
}

void PatternMatcher::MatchFromRoot(VertexId root, std::span<const char> alive,
                                   Scratch& scratch, const EmbeddingCallback& cb,
                                   unsigned slice, unsigned num_slices) const {
  EmitPolicy policy{cb};
  RunFromRoot(plans_->Default(), root, /*check_root=*/true, alive, scratch,
              slice, num_slices, policy);
}

uint64_t PatternMatcher::CountFromRoot(VertexId root,
                                       std::span<const char> alive,
                                       Scratch& scratch, unsigned slice,
                                       unsigned num_slices) const {
  CountPolicy policy;
  RunFromRoot(plans_->Default(), root, /*check_root=*/true, alive, scratch,
              slice, num_slices, policy);
  return policy.count;
}

void PatternMatcher::DegreesFromRoot(VertexId root, std::span<const char> alive,
                                     Scratch& scratch, const DegreeSink& sink,
                                     unsigned slice, unsigned num_slices) const {
  DegreeSinkPolicy policy{sink};
  RunFromRoot(plans_->Default(), root, /*check_root=*/true, alive, scratch,
              slice, num_slices, policy);
}

void PatternMatcher::MatchContaining(VertexId v, std::span<const char> alive,
                                     Scratch& scratch,
                                     const EmbeddingCallback& cb) const {
  // Pin v to each pattern position in turn. Positions partition the
  // matches containing v: a match maps v at exactly one position, so each
  // is found once (under kInstances the canonical embedding fixes the
  // position; under kEmbeddings this is the classic all-positions loop).
  EmitPolicy policy{cb};
  for (int p = 0; p < pattern().size(); ++p) {
    RunFromRoot(plans_->RootedAt(p), v, /*check_root=*/false, alive, scratch,
                0, 1, policy);
  }
}

uint64_t PatternMatcher::PeelContaining(VertexId v,
                                        std::span<const uint32_t> rank,
                                        uint32_t my_rank,
                                        std::span<const char> alive,
                                        Scratch& scratch,
                                        const DegreeSink& sink) const {
  uint64_t destroyed = 0;
  for (int p = 0; p < pattern().size(); ++p) {
    destroyed +=
        PeelContainingPart(v, p, 0, 1, rank, my_rank, alive, scratch, sink);
  }
  return destroyed;
}

uint64_t PatternMatcher::PeelContainingPart(
    VertexId v, int position, unsigned slice, unsigned num_slices,
    std::span<const uint32_t> rank, uint32_t my_rank,
    std::span<const char> alive, Scratch& scratch,
    const DegreeSink& sink) const {
  assert(plans_->semantics() == MatchSemantics::kInstances);
  assert(pattern().size() >= 2);
  PeelPolicy policy{rank, my_rank, sink};
  RunFromRoot(plans_->RootedAt(position), v, /*check_root=*/false, alive,
              scratch, slice, num_slices, policy);
  return policy.destroyed;
}

namespace {

// One unit of threaded root-loop work: a root, or one candidate-loop slice
// of a hub root (MatchFromRoot's slice parameters).
struct RootSlice {
  VertexId root;
  uint32_t slice;
  uint32_t num_slices;
};

// Static per-root shards leave a hub root pinning one worker while the
// others drain; splitting the hub's first-extension candidate loop into
// strided slices evens the load without touching the reduction (slices
// partition the root's matches exactly). The threshold is relative to the
// average degree with an absolute floor, so regular graphs stay on the
// cheap one-item-per-root path.
std::vector<RootSlice> BuildRootSlices(const Graph& graph, unsigned t) {
  const VertexId n = graph.NumVertices();
  const uint64_t average =
      n > 0 ? 2 * static_cast<uint64_t>(graph.NumEdges()) / n : 0;
  const uint64_t threshold =
      std::max<uint64_t>(32, 4 * std::max<uint64_t>(average, 1));
  std::vector<RootSlice> items;
  items.reserve(n);
  for (VertexId v = 0; v < n; ++v) {
    const uint64_t degree = graph.Degree(v);
    uint32_t slices = 1;
    if (degree >= threshold) {
      slices = static_cast<uint32_t>(
          std::min<uint64_t>(t, (degree + threshold - 1) / threshold));
    }
    for (uint32_t s = 0; s < slices; ++s) items.push_back({v, s, slices});
  }
  return items;
}

}  // namespace

uint64_t PatternMatcher::CountInstances(std::span<const char> alive,
                                        unsigned threads) const {
  const VertexId n = graph_.NumVertices();
  const unsigned t = ResolveThreadCount(threads, n);
  uint64_t count = 0;
  if (t == 1) {
    Scratch scratch = MakeScratch();
    CountPolicy policy;
    for (VertexId v = 0; v < n; ++v) {
      RunFromRoot(plans_->Default(), v, /*check_root=*/true, alive, scratch,
                  0, 1, policy);
    }
    count = policy.count;
  } else {
    const std::vector<RootSlice> items = BuildRootSlices(graph_, t);
    std::vector<PaddedCounter> partial(t);
    ParallelForStrided(items.size(), t, [&](unsigned worker, uint64_t i) {
      const RootSlice& item = items[i];
      partial[worker].value +=
          CountFromRoot(item.root, alive, ThreadScratch(), item.slice,
                        item.num_slices);
    });
    for (const PaddedCounter& p : partial) count += p.value;
  }
  if (plans_->semantics() == MatchSemantics::kEmbeddings) {
    const uint64_t aut = pattern().AutomorphismCount();
    assert(count % aut == 0);
    return count / aut;
  }
  return count;
}

std::vector<uint64_t> PatternMatcher::Degrees(std::span<const char> alive,
                                              unsigned threads) const {
  const VertexId n = graph_.NumVertices();
  const unsigned t = ResolveThreadCount(threads, n);
  std::vector<uint64_t> hits;
  if (t == 1) {
    hits.assign(n, 0);
    Scratch scratch = MakeScratch();
    DegreeVectorPolicy policy{hits};
    for (VertexId v = 0; v < n; ++v) {
      RunFromRoot(plans_->Default(), v, /*check_root=*/true, alive, scratch,
                  0, 1, policy);
    }
  } else {
    const std::vector<RootSlice> items = BuildRootSlices(graph_, t);
    DeltaAccumulator accumulator(n, t);
    ParallelForStrided(items.size(), t, [&](unsigned worker, uint64_t i) {
      const RootSlice& item = items[i];
      DegreesFromRoot(
          item.root, alive, ThreadScratch(),
          [&](VertexId u, uint64_t count) { accumulator.Add(worker, u, count); },
          item.slice, item.num_slices);
    });
    hits = std::move(accumulator).Finish();
  }
  if (plans_->semantics() == MatchSemantics::kEmbeddings) {
    const uint64_t aut = pattern().AutomorphismCount();
    for (uint64_t& h : hits) {
      assert(h % aut == 0);
      h /= aut;
    }
  }
  return hits;
}

std::vector<InstanceGroup> PatternMatcher::Groups(
    std::span<const char> alive) const {
  std::vector<InstanceGroup> result;
  if (plans_->semantics() == MatchSemantics::kInstances) {
    // Each match IS one instance, so a group's multiplicity is a plain
    // match count per sorted vertex set — no edge-set deduplication.
    std::map<std::vector<VertexId>, uint64_t> groups;
    std::vector<VertexId> vertices(pattern().size());
    MatchAll(alive, [&](std::span<const VertexId> image) {
      vertices.assign(image.begin(), image.end());
      std::sort(vertices.begin(), vertices.end());
      ++groups[vertices];
    });
    result.reserve(groups.size());
    for (auto& [vertex_set, multiplicity] : groups) {
      result.push_back({vertex_set, multiplicity});
    }
    return result;
  }
  // Reference semantics: vertex set -> distinct image edge sets.
  std::map<std::vector<VertexId>, std::set<std::vector<Edge>>> groups;
  std::vector<VertexId> vertices(pattern().size());
  std::vector<Edge> edge_image;
  MatchAll(alive, [&](std::span<const VertexId> image) {
    vertices.assign(image.begin(), image.end());
    std::sort(vertices.begin(), vertices.end());
    edge_image.clear();
    for (const Edge& e : pattern().edges()) {
      edge_image.push_back(NormalizeEdge(image[e.first], image[e.second]));
    }
    std::sort(edge_image.begin(), edge_image.end());
    groups[vertices].insert(edge_image);
  });
  result.reserve(groups.size());
  for (auto& [vertex_set, edge_sets] : groups) {
    result.push_back({vertex_set, edge_sets.size()});
  }
  return result;
}

}  // namespace dsd

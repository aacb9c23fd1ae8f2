// Pattern matching as an extension/reduction engine over a compiled plan
// (the libpangolin VertexMiner shape: per-level toExtend/toAdd hooks with
// reductions folded into the last level instead of materialized embeddings).
//
// Each level's candidates come from sorted adjacency lists, never from
// per-candidate edge probes. toExtend takes the placed neighbor with the
// smallest degree as the anchor and cuts its ascending adjacency list to
// the range the level's symmetry conditions allow (two binary searches).
// When the level has further placed neighbors, toAdd filters that range
// (alive, policy mask, not already placed) into a per-level buffer and
// intersects it with each further neighbor's adjacency (IntersectSorted,
// graph/intersect.h). The candidates stay ascending ids, so every search
// visits the same matches in the same order as an edge-probing matcher.
//
// An *embedding* is an injective map f: V_Psi -> V_G preserving pattern edges
// (Definition 7; non-induced). Two embeddings describe the same *instance*
// (Definition 8) iff they have the same image edge set, which happens iff
// they differ by an automorphism of Psi. The engine can enumerate either
// space:
//   - MatchSemantics::kInstances (the default) breaks the automorphism
//     group with compiled symmetry constraints, so exactly ONE embedding
//     per instance survives — counts and degrees are instance-level with
//     no division, and the enumeration itself does |Aut(Psi)|x less work;
//   - MatchSemantics::kEmbeddings enumerates every embedding (the classic
//     backtracking matcher), kept as an independent reference for the
//     differential tests, which then apply
//         #instances        = #embeddings / |Aut(Psi)|
//         pattern-degree(v) = #embeddings containing v / |Aut(Psi)|.
//
// Symmetry breaking follows the orbit-stabilizer chain (Grochow-Kellis,
// also libpangolin's is_automorphism pruning): repeatedly pick a pattern
// vertex with a non-trivial orbit under the remaining automorphisms,
// require its data image to be the minimum over the orbit's images, and
// recurse on the stabilizer. The product of the orbit sizes is |Aut(Psi)|,
// so the resulting pairwise `image[a] < image[b]` conditions select exactly
// one representative per instance. Conditions compile into per-level
// bitmask checks (PatternPlan), evaluated as soon as both endpoints are
// placed — which prunes whole automorphic subtrees, not just leaves.
#ifndef DSD_PATTERN_ISOMORPHISM_H_
#define DSD_PATTERN_ISOMORPHISM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "pattern/pattern.h"

namespace dsd {

/// Callback receiving a match: images[p] = data-graph vertex assigned to
/// pattern vertex p.
using EmbeddingCallback = std::function<void(std::span<const VertexId>)>;

/// Receives (vertex, count) weight increments from the folded reductions.
using DegreeSink = std::function<void(VertexId, uint64_t)>;

/// Rank value marking a survivor in the rank-masked peel (see
/// PatternMatcher::PeelContaining and parallel/parallel_peel.h).
inline constexpr uint32_t kNoPeelRank = UINT32_MAX;

/// A group of pattern instances sharing the same vertex set (Algorithm 7's
/// Lambda' groups; for cliques every group has multiplicity 1).
struct InstanceGroup {
  std::vector<VertexId> vertices;  // sorted
  uint64_t multiplicity = 0;       // |g| = number of distinct edge sets
};

/// Which match space a plan enumerates (see file comment).
enum class MatchSemantics {
  kInstances,   // symmetry-broken: one canonical embedding per instance
  kEmbeddings,  // every embedding (reference semantics, |Aut|x the work)
};

/// One compiled matching order: level i places pattern vertex
/// levels[i].pattern_vertex, constrained against the already-placed levels
/// by three bitmasks (bit j refers to LEVEL j, not pattern vertex j).
/// `connected` is the level's connectivity code (libpangolin's ccode): the
/// candidate must be graph-adjacent to every set level. `greater` / `less`
/// carry the compiled symmetry-breaking conditions whose later endpoint is
/// this level: the candidate must compare >, resp. <, against the image of
/// every set level. Both endpoints of each condition are checked exactly
/// once — at the level where the second one is placed.
struct PatternPlan {
  struct Level {
    int pattern_vertex = 0;
    uint32_t connected = 0;  // candidate adjacent to image of these levels
    uint32_t greater = 0;    // candidate id > image of these levels
    uint32_t less = 0;       // candidate id < image of these levels
  };
  std::vector<Level> levels;
};

/// All rooted plans for one (pattern, semantics) pair, compiled once and
/// shared by every matcher over any data graph (plans depend only on the
/// pattern). RootedAt(p) starts its matching order at pattern vertex p —
/// the plan family behind MatchContaining, which pins a data vertex to each
/// possible pattern position in turn. Construction forces the pattern's
/// lazy automorphism cache, so a const PatternPlanSet is safe to share
/// across worker threads.
class PatternPlanSet {
 public:
  explicit PatternPlanSet(Pattern pattern,
                          MatchSemantics semantics = MatchSemantics::kInstances);

  const Pattern& pattern() const { return pattern_; }
  MatchSemantics semantics() const { return semantics_; }

  /// The plan whose level 0 is pattern vertex `p`.
  const PatternPlan& RootedAt(int p) const { return rooted_[p]; }

  /// The plan used by the root-partitioned entry points (level 0 is
  /// pattern vertex 0, as the pre-plan enumerator's default order was).
  const PatternPlan& Default() const { return rooted_[0]; }

  /// The compiled `image[first] < image[second]` conditions (empty under
  /// kEmbeddings). Exposed for tests: the product of the orbit sizes they
  /// encode equals |Aut(Psi)|.
  const std::vector<std::pair<int, int>>& SymmetryConditions() const {
    return conditions_;
  }

 private:
  Pattern pattern_;
  MatchSemantics semantics_;
  std::vector<std::pair<int, int>> conditions_;
  std::vector<PatternPlan> rooted_;
};

/// Drives a PatternPlanSet over one data graph. The matcher itself is
/// const-thread-safe: the parallel kernels share one matcher, and each
/// worker thread searches with its own Scratch (ThreadScratch).
class PatternMatcher {
 public:
  /// Reusable search buffers, sized by MakeScratch(): O(k) vectors and no
  /// graph-sized array. One per worker.
  struct Scratch {
    std::vector<VertexId> image;   // pattern vertex -> data vertex
    std::vector<VertexId> placed;  // level -> data vertex on the current path
    // Two candidate buffers per level, used by the levels with two or more
    // placed neighbors: the filtered anchor range and the intersections
    // alternate between them. Each grows to the longest anchor range its
    // level has filtered, so a reused Scratch stops allocating.
    std::vector<std::vector<VertexId>> candidates;
  };

  /// Non-owning view over caller-owned plans (the oracle path: plans are
  /// compiled once per oracle and shared by every query). Both referents
  /// must outlive the matcher.
  PatternMatcher(const Graph& graph, const PatternPlanSet& plans);

  /// Convenience owning constructor: compiles a plan set ad hoc.
  PatternMatcher(const Graph& graph, const Pattern& pattern,
                 MatchSemantics semantics = MatchSemantics::kInstances);

  /// Scratch buffers sized for this pattern.
  Scratch MakeScratch() const;

  /// The calling thread's Scratch, sized for this pattern. The parallel
  /// kernels use it rather than a vector of per-worker Scratch: O(k)
  /// buffers allocated side by side by one thread share cache lines, and
  /// workers writing their placed/image entries on every extension step
  /// would ping-pong those lines between cores.
  Scratch& ThreadScratch() const;

  /// Invokes cb for every match using only alive vertices. An empty
  /// `alive` span means every vertex is alive.
  void MatchAll(std::span<const char> alive, const EmbeddingCallback& cb) const;

  /// Invokes cb for every match that maps the default plan's level-0
  /// pattern vertex to `root` (skipped outright when root is not alive).
  /// Roots partition the match space — every match has exactly one such
  /// image — so MatchAll == union over all roots, which is what lets the
  /// threaded CountInstances and Degrees shard this loop per root.
  /// `scratch` must come from MakeScratch() and not be shared between
  /// concurrent calls; no state carries from one call to the next.
  ///
  /// (slice, num_slices) sub-partitions one root's matches for hub
  /// load-balancing: slice s covers the candidates at positions s, s+S,
  /// s+2S, ... of the root's first-extension candidate loop (a purely
  /// positional stride over the adjacency list, before any filtering, so
  /// the slices partition the root's matches exactly and their union over
  /// s = 0..S-1 equals the unsliced call). The default (0, 1) is the whole
  /// root.
  void MatchFromRoot(VertexId root, std::span<const char> alive,
                     Scratch& scratch, const EmbeddingCallback& cb,
                     unsigned slice = 0, unsigned num_slices = 1) const;

  /// Folded-reduction form of MatchFromRoot: the number of matches, counted
  /// at the last level without materializing images.
  uint64_t CountFromRoot(VertexId root, std::span<const char> alive,
                         Scratch& scratch, unsigned slice = 0,
                         unsigned num_slices = 1) const;

  /// Folded-reduction form for degrees: every match rooted here
  /// contributes 1 to each of its members, delivered as weighted
  /// (vertex, count) increments — the last level adds its candidates with
  /// weight 1 and each prefix vertex once with the level's candidate
  /// count. Sum over all roots == Degrees.
  void DegreesFromRoot(VertexId root, std::span<const char> alive,
                       Scratch& scratch, const DegreeSink& sink,
                       unsigned slice = 0, unsigned num_slices = 1) const;

  /// Invokes cb for every match whose image contains `v` (each match
  /// exactly once), restricted to alive vertices; v itself need not be
  /// alive. Under kInstances this visits every INSTANCE containing v
  /// exactly once: the rooted plans pin v to each pattern position in
  /// turn, and the symmetry conditions make the positions disjoint.
  void MatchContaining(VertexId v, std::span<const char> alive,
                       Scratch& scratch, const EmbeddingCallback& cb) const;

  /// Rank-masked peel reduction (kInstances only): counts the matches
  /// containing `v` whose other members u are alive AND, when `rank` is
  /// non-empty, satisfy rank[u] >= my_rank — i.e. survivors
  /// (rank[u] == kNoPeelRank) or bracket members peeled after v. Branches
  /// through lower-rank members are pruned mid-extension, which is what
  /// makes the min-rank-attribution of parallel_peel.h cheap. Each match
  /// reports, via `sink`, +1 for every member that is a survivor (every
  /// non-v member when `rank` is empty — the sequential PeelVertex case,
  /// where v's bracket prefix is already dead in `alive`). Returns the
  /// match (= destroyed instance) count.
  uint64_t PeelContaining(VertexId v, std::span<const uint32_t> rank,
                          uint32_t my_rank, std::span<const char> alive,
                          Scratch& scratch, const DegreeSink& sink) const;

  /// One part of PeelContaining: the matches that pin v to pattern
  /// position `position`, restricted to slice `slice` of `num_slices` of
  /// v's first-extension candidate loop (the MatchFromRoot stride). The
  /// parts over every position and slice partition PeelContaining's
  /// matches, so their counts and reports sum to it exactly — which lets
  /// one member's peel spread over several workers.
  uint64_t PeelContainingPart(VertexId v, int position, unsigned slice,
                              unsigned num_slices,
                              std::span<const uint32_t> rank, uint32_t my_rank,
                              std::span<const char> alive, Scratch& scratch,
                              const DegreeSink& sink) const;

  /// mu(G, Psi) restricted to alive vertices: the canonical match count
  /// under kInstances; embeddings / |Aut| under kEmbeddings. `threads`
  /// workers shard the root loop (Section 6.3), hub roots split into
  /// first-extension slices so one hub does not pin a worker; 0 means
  /// "auto", the count is clamped by the vertex count, and 1 is the plain
  /// sequential loop. Bit-identical for every thread count: workers only
  /// add uint64 counts.
  uint64_t CountInstances(std::span<const char> alive,
                          unsigned threads = 1) const;

  /// Pattern-degrees of all vertices restricted to alive vertices, with
  /// the same thread contract as CountInstances.
  std::vector<uint64_t> Degrees(std::span<const char> alive,
                                unsigned threads = 1) const;

  /// Distinct instances grouped by vertex set (for construct+). Restricted
  /// to alive vertices. Under kInstances the multiplicity is a plain match
  /// count per vertex set (each instance appears once); under kEmbeddings
  /// it deduplicates by image edge set.
  std::vector<InstanceGroup> Groups(std::span<const char> alive) const;

  const Pattern& pattern() const { return plans_->pattern(); }
  const PatternPlanSet& plans() const { return *plans_; }

 private:
  template <typename Policy>
  void Extend(const PatternPlan& plan, size_t level,
              std::span<const char> alive, Scratch& scratch, unsigned slice,
              unsigned num_slices, Policy& policy) const;

  template <typename Policy>
  void RunFromRoot(const PatternPlan& plan, VertexId root, bool check_root,
                   std::span<const char> alive, Scratch& scratch,
                   unsigned slice, unsigned num_slices, Policy& policy) const;

  const Graph& graph_;
  const PatternPlanSet* plans_;            // never null
  std::shared_ptr<const PatternPlanSet> owned_;  // set by the owning ctor
};

}  // namespace dsd

#endif  // DSD_PATTERN_ISOMORPHISM_H_

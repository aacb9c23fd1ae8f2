// Synthetic graph generators.
//
// The paper evaluates on three GTgraph synthetics (SSCA, ER, R-MAT) plus ten
// real SNAP/LAW graphs. This module implements the three synthetic families
// directly, and Barabasi-Albert / planted-dense-subgraph generators used to
// build offline replicas of the real datasets (bench/harness/datasets.h).
#ifndef DSD_GRAPH_GENERATORS_H_
#define DSD_GRAPH_GENERATORS_H_

#include <cstdint>

#include "graph/graph.h"

namespace dsd::gen {

/// Erdos-Renyi G(n, p): each of the C(n,2) edges present independently with
/// probability p. Uses geometric skipping, O(n + m) expected time.
Graph ErdosRenyi(VertexId n, double p, uint64_t seed);

/// R-MAT recursive-matrix power-law generator (Chakrabarti et al.), as used
/// by GTgraph. Draws `target_edges` directed samples in a 2^scale square and
/// keeps the distinct, loop-free undirected results. Defaults are GTgraph's
/// (a, b, c, d) = (0.45, 0.15, 0.15, 0.25).
Graph Rmat(VertexId n, EdgeId target_edges, uint64_t seed, double a = 0.45,
           double b = 0.15, double c = 0.15, double d = 0.25);

/// SSCA#2-style generator (GTgraph "SSCA"): vertices are partitioned into
/// random-size cliques (1..max_clique_size) which are fully connected, then
/// inter-clique edges are added with probability `inter_p` per clique pair
/// sampled sparsely. Produces many overlapping dense blocks, like the paper's
/// SSCA dataset.
Graph Ssca(VertexId n, VertexId max_clique_size, double inter_p,
           uint64_t seed);

/// Barabasi-Albert preferential attachment: each new vertex attaches
/// `edges_per_vertex` edges to existing vertices chosen proportionally to
/// degree. Power-law degree distribution, exponent ~3; our stand-in for
/// SNAP social/citation graphs.
Graph BarabasiAlbert(VertexId n, VertexId edges_per_vertex, uint64_t seed);

/// Barabasi-Albert backbone with `num_communities` planted near-cliques of
/// size `community_size` and intra-community edge probability `intra_p`
/// overlaid. Replica generator for collaboration networks (Netscience, DBLP)
/// whose densest subgraphs are large near-cliques.
Graph PowerLawWithCommunities(VertexId n, VertexId edges_per_vertex,
                              VertexId num_communities,
                              VertexId community_size, double intra_p,
                              uint64_t seed);

/// A G(n_background, p_background) background with one planted clique of
/// size `clique_size`. Handy for tests and examples: the densest subgraph is
/// the planted clique for suitable parameters.
Graph PlantedClique(VertexId n_background, double p_background,
                    VertexId clique_size, uint64_t seed);

/// Number of vertices in ServerReplayGraph. Kept >= 10^5 by contract: the
/// server replay bench measures latency percentiles on this graph, and
/// percentiles measured on toy graphs say nothing about production scale.
inline constexpr VertexId kServerReplayVertices = 100000;

/// Fixed-seed power-law preset for the dsd_server trace-replay bench (and
/// the first rung of the ROADMAP dataset-harness ladder): a 10^5-vertex
/// Barabasi-Albert backbone with 48 planted near-clique communities of 24
/// vertices, so peel/at-least/query traffic has hub-skewed degrees AND
/// non-trivial dense cores to find. Bit-reproducible everywhere (Rng is
/// seed-stable by design); every caller passing the default seed gets the
/// identical graph, which is what makes replayed latency runs comparable
/// across hosts and commits.
Graph ServerReplayGraph(uint64_t seed = 0xD5D5EED5ULL);

}  // namespace dsd::gen

#endif  // DSD_GRAPH_GENERATORS_H_

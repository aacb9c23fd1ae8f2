#include "pattern/pattern.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <numeric>

namespace dsd {

Pattern::Pattern(std::string name, int num_vertices, std::vector<Edge> edges)
    : name_(std::move(name)),
      num_vertices_(num_vertices),
      edges_(std::move(edges)),
      adjacency_(num_vertices, 0) {
  assert(num_vertices_ >= 1 && num_vertices_ <= 31);
  for (Edge& e : edges_) {
    e = NormalizeEdge(e.first, e.second);
    assert(e.first != e.second);
    assert(e.second < static_cast<VertexId>(num_vertices_));
    assert(!HasEdge(static_cast<int>(e.first), static_cast<int>(e.second)));
    adjacency_[e.first] |= 1u << e.second;
    adjacency_[e.second] |= 1u << e.first;
  }
  std::sort(edges_.begin(), edges_.end());
}

Pattern Pattern::EdgePattern() { return Pattern("edge", 2, {{0, 1}}); }

Pattern Pattern::Triangle() { return Clique(3); }

Pattern Pattern::Clique(int h) {
  assert(h >= 2);
  std::vector<Edge> edges;
  for (int u = 0; u < h; ++u) {
    for (int v = u + 1; v < h; ++v) {
      edges.emplace_back(u, v);
    }
  }
  std::string name = std::to_string(h);
  name += "-clique";
  return Pattern(std::move(name), h, std::move(edges));
}

Pattern Pattern::Star(int x) {
  assert(x >= 1);
  std::vector<Edge> edges;
  for (int t = 1; t <= x; ++t) edges.emplace_back(0, t);
  std::string name = std::to_string(x);
  name += "-star";
  return Pattern(std::move(name), x + 1, std::move(edges));
}

Pattern Pattern::TwoStar() { return Star(2); }

Pattern Pattern::ThreeStar() { return Star(3); }

Pattern Pattern::C3Star() {
  return Pattern("c3-star", 4, {{0, 1}, {0, 2}, {1, 2}, {0, 3}});
}

Pattern Pattern::Diamond() {
  Pattern p = Cycle(4);
  return Pattern("diamond", 4, p.edges());
}

Pattern Pattern::TwoTriangle() {
  return Pattern("2-triangle", 4, {{0, 1}, {0, 2}, {1, 2}, {0, 3}, {1, 3}});
}

Pattern Pattern::ThreeTriangle() {
  return Pattern("3-triangle", 5,
                 {{0, 1}, {0, 2}, {1, 2}, {0, 3}, {1, 3}, {0, 4}, {1, 4}});
}

Pattern Pattern::Basket() {
  // House graph: square 0-1-2-3 plus roof triangle 2-3-4.
  return Pattern("basket", 5, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {2, 4}, {3, 4}});
}

Pattern Pattern::Cycle(int len) {
  assert(len >= 3);
  std::vector<Edge> edges;
  for (int v = 0; v < len; ++v) {
    edges.push_back(NormalizeEdge(v, (v + 1) % len));
  }
  std::string name = "C";
  name += std::to_string(len);
  return Pattern(std::move(name), len, std::move(edges));
}

int Pattern::Degree(int u) const { return std::popcount(adjacency_[u]); }

bool Pattern::IsConnected() const {
  uint32_t seen = 1;
  uint32_t frontier = 1;
  while (frontier != 0) {
    uint32_t next = 0;
    for (int v = 0; v < num_vertices_; ++v) {
      if ((frontier >> v) & 1u) next |= adjacency_[v];
    }
    frontier = next & ~seen;
    seen |= next;
  }
  return seen == (1u << num_vertices_) - 1;  // num_vertices_ <= 31 by ctor

}

bool Pattern::IsClique() const {
  return static_cast<int>(edges_.size()) ==
         num_vertices_ * (num_vertices_ - 1) / 2;
}

int Pattern::StarTails() const {
  if (num_vertices_ < 3 ||
      static_cast<int>(edges_.size()) != num_vertices_ - 1) {
    return 0;
  }
  int centers = 0;
  for (int v = 0; v < num_vertices_; ++v) {
    int d = Degree(v);
    if (d == num_vertices_ - 1) {
      ++centers;
    } else if (d != 1) {
      return 0;
    }
  }
  return centers == 1 ? num_vertices_ - 1 : 0;
}

bool Pattern::IsomorphicTo(const Pattern& other) const {
  if (num_vertices_ != other.num_vertices_ ||
      edges_.size() != other.edges_.size()) {
    return false;
  }
  std::vector<int> perm(num_vertices_);
  std::iota(perm.begin(), perm.end(), 0);
  do {
    // Equal edge counts: mapping every edge onto an edge is a bijection.
    if (std::all_of(edges_.begin(), edges_.end(), [&](const Edge& e) {
          return other.HasEdge(perm[e.first], perm[e.second]);
        })) {
      return true;
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
  return false;
}

const std::vector<std::vector<int>>& Pattern::Automorphisms() const {
  if (!automorphisms_.empty()) return automorphisms_;
  std::vector<int> perm(num_vertices_);
  std::iota(perm.begin(), perm.end(), 0);
  do {
    bool ok = true;
    for (int u = 0; u < num_vertices_ && ok; ++u) {
      for (int v = u + 1; v < num_vertices_ && ok; ++v) {
        if (HasEdge(u, v) != HasEdge(perm[u], perm[v])) ok = false;
      }
    }
    if (ok) automorphisms_.push_back(perm);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return automorphisms_;
}

}  // namespace dsd

#include "graph/intersect.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <utility>

namespace dsd {

namespace {

// Above this length ratio, galloping through the longer list beats a merge.
constexpr size_t kGallopRatio = 16;

// Whether [out, out + out_size) and `in` share no element. std::less gives
// a total order over pointers into unrelated arrays.
[[maybe_unused]] bool Disjoint(const VertexId* out, size_t out_size,
                               std::span<const VertexId> in) {
  const std::less<const VertexId*> before;
  return out_size == 0 || in.empty() || !before(out, in.data() + in.size()) ||
         !before(in.data(), out + out_size);
}

}  // namespace

size_t IntersectSorted(std::span<const VertexId> a,
                       std::span<const VertexId> b, VertexId* out) {
  assert(Disjoint(out, std::min(a.size(), b.size()), a) &&
         Disjoint(out, std::min(a.size(), b.size()), b));
  if (a.size() > b.size()) std::swap(a, b);
  size_t size = 0;
  if (a.size() * kGallopRatio < b.size()) {
    // Exponential probe from the last match position, then binary search
    // inside the final doubling step.
    const VertexId* lo = b.data();
    const VertexId* const end = b.data() + b.size();
    for (VertexId x : a) {
      const size_t left = static_cast<size_t>(end - lo);
      size_t bound = 1;
      while (bound <= left && lo[bound - 1] < x) bound *= 2;
      lo = std::lower_bound(lo + bound / 2, lo + std::min(bound, left), x);
      if (lo == end) break;
      if (*lo == x) out[size++] = x;
    }
    return size;
  }
  // Branch-free merge: `out[size]` is written speculatively and kept only
  // on a match (size <= min(i, j), so the write stays in bounds).
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const VertexId x = a[i];
    const VertexId y = b[j];
    out[size] = x;
    size += x == y;
    i += x <= y;
    j += y <= x;
  }
  return size;
}

}  // namespace dsd

// Tests for util/: combinatorics, random, timer, status, bucket queue.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "util/bucket_queue.h"
#include "util/combinatorics.h"
#include "util/random.h"
#include "util/status.h"
#include "util/timer.h"

namespace dsd {
namespace {

TEST(Binomial, SmallValues) {
  EXPECT_EQ(Binomial(0, 0), 1u);
  EXPECT_EQ(Binomial(5, 0), 1u);
  EXPECT_EQ(Binomial(5, 5), 1u);
  EXPECT_EQ(Binomial(5, 1), 5u);
  EXPECT_EQ(Binomial(5, 2), 10u);
  EXPECT_EQ(Binomial(6, 3), 20u);
  EXPECT_EQ(Binomial(10, 4), 210u);
  EXPECT_EQ(Binomial(52, 5), 2598960u);
}

TEST(Binomial, KGreaterThanN) {
  EXPECT_EQ(Binomial(3, 4), 0u);
  EXPECT_EQ(Binomial(0, 1), 0u);
}

TEST(Binomial, Symmetry) {
  for (uint64_t n = 0; n <= 30; ++n) {
    for (uint64_t k = 0; k <= n; ++k) {
      EXPECT_EQ(Binomial(n, k), Binomial(n, n - k)) << n << " " << k;
    }
  }
}

TEST(Binomial, PascalIdentity) {
  for (uint64_t n = 1; n <= 40; ++n) {
    for (uint64_t k = 1; k <= n; ++k) {
      EXPECT_EQ(Binomial(n, k), Binomial(n - 1, k - 1) + Binomial(n - 1, k));
    }
  }
}

TEST(Binomial, LargeExactValue) {
  // C(61, 30) is near the top of what uint64 holds exactly.
  EXPECT_EQ(Binomial(60, 30), 118264581564861424ull);
}

TEST(Binomial, SaturatesOnOverflow) {
  EXPECT_EQ(Binomial(1000, 500), std::numeric_limits<uint64_t>::max());
  EXPECT_TRUE(BinomialOverflows(1000, 500));
  EXPECT_FALSE(BinomialOverflows(60, 30));
}

// ---------------------------------------------------------------------------
// BucketQueue: the monotone bucket queue behind the batch peeling engine.

// Accepts every entry as current (no external degree table).
const auto kAlwaysCurrent = [](VertexId, uint64_t) { return true; };

// PopMinBucket into a fresh buffer: the bracket, empty once none is left.
template <typename IsCurrent>
std::vector<VertexId> Pop(BucketQueue& queue, IsCurrent&& is_current,
                          uint64_t* degree) {
  std::vector<VertexId> bucket;
  queue.PopMinBucket(is_current, degree, &bucket);
  return bucket;
}

TEST(BucketQueue, PopsBucketsInDegreeOrder) {
  BucketQueue queue(/*near_limit=*/16);
  queue.Push(0, 3);
  queue.Push(1, 1);
  queue.Push(2, 3);
  queue.Push(3, 7);
  uint64_t degree = 0;
  std::vector<VertexId> bucket = Pop(queue, kAlwaysCurrent, &degree);
  EXPECT_EQ(degree, 1u);
  EXPECT_EQ(bucket, (std::vector<VertexId>{1}));
  bucket = Pop(queue, kAlwaysCurrent, &degree);
  EXPECT_EQ(degree, 3u);
  std::sort(bucket.begin(), bucket.end());
  EXPECT_EQ(bucket, (std::vector<VertexId>{0, 2}));
  bucket = Pop(queue, kAlwaysCurrent, &degree);
  EXPECT_EQ(degree, 7u);
  EXPECT_EQ(bucket, (std::vector<VertexId>{3}));
  EXPECT_TRUE(Pop(queue, kAlwaysCurrent, &degree).empty());
}

TEST(BucketQueue, StaleEntriesAreFiltered) {
  // Lazy updates: vertex 5's degree drops 9 -> 2, so two entries exist; the
  // caller's predicate keeps only the one matching the current degree.
  std::vector<uint64_t> current_degree(8, 0);
  current_degree[5] = 2;
  current_degree[6] = 9;
  auto is_current = [&](VertexId v, uint64_t d) {
    return current_degree[v] == d;
  };
  BucketQueue queue(/*near_limit=*/4);
  queue.Push(5, 9);  // goes to the far heap (>= near_limit)
  queue.Push(6, 9);
  queue.Push(5, 2);  // degree update lands in the near band
  uint64_t degree = 0;
  std::vector<VertexId> bucket = Pop(queue, is_current, &degree);
  EXPECT_EQ(degree, 2u);
  EXPECT_EQ(bucket, (std::vector<VertexId>{5}));
  // The far bucket at 9 still holds {5 (stale), 6}: only 6 survives.
  bucket = Pop(queue, is_current, &degree);
  EXPECT_EQ(degree, 9u);
  EXPECT_EQ(bucket, (std::vector<VertexId>{6}));
}

TEST(BucketQueue, CursorMovesBackwardOnLowPush) {
  BucketQueue queue(/*near_limit=*/64);
  queue.Push(0, 10);
  uint64_t degree = 0;
  EXPECT_EQ(Pop(queue, kAlwaysCurrent, &degree).size(), 1u);
  EXPECT_EQ(degree, 10u);
  // After popping at 10, a later push below 10 must still surface first.
  queue.Push(1, 12);
  queue.Push(2, 3);
  std::vector<VertexId> bucket = Pop(queue, kAlwaysCurrent, &degree);
  EXPECT_EQ(degree, 3u);
  EXPECT_EQ(bucket, (std::vector<VertexId>{2}));
  bucket = Pop(queue, kAlwaysCurrent, &degree);
  EXPECT_EQ(degree, 12u);
  EXPECT_EQ(bucket, (std::vector<VertexId>{1}));
}

TEST(BucketQueue, HugeDegreesSpillToFarMap) {
  // Motif-degrees can exceed any sane array size; the far heap handles them
  // without allocating the degree range.
  BucketQueue queue(/*near_limit=*/128);
  const uint64_t huge = uint64_t{1} << 60;
  queue.Push(0, huge);
  queue.Push(1, huge - 1);
  queue.Push(2, 5);
  uint64_t degree = 0;
  std::vector<VertexId> bucket = Pop(queue, kAlwaysCurrent, &degree);
  EXPECT_EQ(degree, 5u);
  bucket = Pop(queue, kAlwaysCurrent, &degree);
  EXPECT_EQ(degree, huge - 1);
  EXPECT_EQ(bucket, (std::vector<VertexId>{1}));
  bucket = Pop(queue, kAlwaysCurrent, &degree);
  EXPECT_EQ(degree, huge);
  EXPECT_EQ(bucket, (std::vector<VertexId>{0}));
}

TEST(BucketQueue, AllStaleBucketsAreSkipped) {
  BucketQueue queue(/*near_limit=*/8);
  queue.Push(0, 1);
  queue.Push(1, 2);
  auto only_vertex_1 = [](VertexId v, uint64_t) { return v == 1; };
  uint64_t degree = 0;
  std::vector<VertexId> bucket = Pop(queue, only_vertex_1, &degree);
  EXPECT_EQ(degree, 2u);
  EXPECT_EQ(bucket, (std::vector<VertexId>{1}));
  EXPECT_TRUE(Pop(queue, only_vertex_1, &degree).empty());
}

// A randomized peel-shaped run against an ordered multimap of every pushed
// (degree, vertex) entry: lazy decreasing updates filtered through a degree
// table, up to `max_updates` of them between pops, drawn from the [lo, hi)
// degree `bands` (pushes below the last popped degree included), and one
// reused output buffer. Every bracket must match the reference's as a
// sorted set, with its degree, and after every pop the far heap must hold
// at most twice the vertex count plus the sweep floor (a stale entry never
// becomes current again here, as in a peel). Returns the largest far heap
// met before a pop.
size_t CheckAgainstMultimapReference(
    uint32_t seed, uint64_t near_limit,
    std::span<const std::pair<uint64_t, uint64_t>> bands, int max_updates) {
  Rng rng(seed);
  constexpr VertexId kVertices = 300;
  constexpr uint64_t kDead = std::numeric_limits<uint64_t>::max();
  const size_t far_bound = 2 * kVertices + BucketQueue::kFarSweepFloor;

  BucketQueue queue(near_limit);
  std::multimap<uint64_t, VertexId> reference;
  std::vector<uint64_t> current(kVertices);
  auto push = [&](VertexId v, uint64_t d) {
    current[v] = d;
    queue.Push(v, d);
    reference.emplace(d, v);
  };
  auto is_current = [&](VertexId v, uint64_t d) { return current[v] == d; };
  for (VertexId v = 0; v < kVertices; ++v) {
    const auto [lo, hi] = bands[rng.NextBounded(bands.size())];
    push(v, lo + rng.NextBounded(hi - lo));
  }

  std::vector<VertexId> out;  // the caller's buffer, reused by every pop
  uint64_t last_popped = 0;
  size_t brackets = 0;
  size_t far_peak = 0;
  while (!reference.empty()) {
    // Lazy decreases between pops, some landing below the last popped
    // degree (behind the near cursor) or leaving the far band.
    for (int updates = static_cast<int>(rng.NextBounded(max_updates + 1));
         updates > 0; --updates) {
      const VertexId v = static_cast<VertexId>(rng.NextBounded(kVertices));
      if (current[v] == kDead || current[v] == 0) continue;
      auto [lo, hi] = bands[rng.NextBounded(bands.size())];
      if (rng.NextBounded(4) == 0) hi = std::min(hi, last_popped);
      hi = std::min(hi, current[v]);
      if (lo >= hi) continue;
      push(v, lo + rng.NextBounded(hi - lo));
    }
    // The reference pop: the lowest degree with a current entry; every
    // entry at or below it leaves the multimap.
    uint64_t want_degree = 0;
    std::vector<VertexId> want;
    while (want.empty() && !reference.empty()) {
      want_degree = reference.begin()->first;
      const auto range = reference.equal_range(want_degree);
      for (auto it = range.first; it != range.second; ++it) {
        if (is_current(it->second, want_degree)) want.push_back(it->second);
      }
      reference.erase(range.first, range.second);
    }
    std::sort(want.begin(), want.end());
    // Junk in the buffer must not leak into the bracket.
    if (rng.NextBounded(2) == 0) out.assign(3, kVertices + 1);
    far_peak = std::max(far_peak, queue.FarEntries());
    uint64_t got_degree = 0;
    const bool popped = queue.PopMinBucket(is_current, &got_degree, &out);
    EXPECT_LE(queue.FarEntries(), far_bound) << "bracket " << brackets;
    EXPECT_EQ(popped, !want.empty()) << "bracket " << brackets;
    if (!popped) {
      EXPECT_TRUE(out.empty());
      break;
    }
    std::sort(out.begin(), out.end());
    EXPECT_EQ(got_degree, want_degree) << "bracket " << brackets;
    EXPECT_EQ(out, want) << "bracket " << brackets;
    if (::testing::Test::HasFailure()) break;
    for (VertexId v : out) current[v] = kDead;  // peeled
    last_popped = got_degree;
    ++brackets;
  }
  EXPECT_GT(brackets, 0u);
  EXPECT_FALSE(queue.PopMinBucket(is_current, &last_popped, &out));
  EXPECT_TRUE(out.empty());
  return far_peak;
}

// Degrees in the near band, above it and at 2^60 and beyond, a few updates
// per pop. The seed is gtest's (0 unless --gtest_shuffle), so shuffled
// repeats try new ones.
TEST(BucketQueue, MatchesMultimapReference) {
  const uint32_t seed = ::testing::UnitTest::GetInstance()->random_seed();
  SCOPED_TRACE("seed=" + std::to_string(seed));
  constexpr uint64_t kNearLimit = 64;
  constexpr uint64_t kHuge = uint64_t{1} << 60;
  const std::pair<uint64_t, uint64_t> kBands[] = {
      {0, kNearLimit}, {kNearLimit, 4 * kNearLimit}, {kHuge, kHuge + 1000}};
  CheckAgainstMultimapReference(seed, kNearLimit, kBands, /*max_updates=*/4);
}

// Far-band degrees only, over a wide range, thousands of decreases between
// pops: superseded far entries pile up past the sweep threshold, and the
// sweeps must keep the heap bounded without changing a bracket.
TEST(BucketQueue, FarHeavyRunMatchesReferenceAndStaysSwept) {
  const uint32_t seed = ::testing::UnitTest::GetInstance()->random_seed();
  SCOPED_TRACE("seed=" + std::to_string(seed));
  constexpr uint64_t kNearLimit = 16;
  const std::pair<uint64_t, uint64_t> kBands[] = {
      {kNearLimit, uint64_t{1} << 40}};
  const size_t far_peak = CheckAgainstMultimapReference(
      seed, kNearLimit, kBands, /*max_updates=*/3000);
  // The run did outgrow the bound between pops, so the sweeps were needed.
  EXPECT_GT(far_peak, 2 * 300 + BucketQueue::kFarSweepFloor);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(Rng, BoundedStaysInRange) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(Rng, BoundedCoversAllResidues) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextBounded(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double x = rng.NextDouble();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, BernoulliRate) {
  Rng rng(5);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.NextBernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(Timer, MeasuresElapsedTime) {
  Timer timer;
  double first = timer.Seconds();
  EXPECT_GE(first, 0.0);
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(timer.Seconds(), first);
  timer.Reset();
  EXPECT_LT(timer.Seconds(), 1.0);
}

TEST(Status, OkState) {
  Status s = Status::Ok();
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorStates) {
  Status invalid = Status::InvalidArgument("bad line");
  EXPECT_FALSE(invalid.ok());
  EXPECT_TRUE(invalid.IsInvalidArgument());
  EXPECT_EQ(invalid.message(), "bad line");
  EXPECT_EQ(invalid.ToString(), "InvalidArgument: bad line");

  Status io = Status::IoError("missing file");
  EXPECT_TRUE(io.IsIoError());
  EXPECT_FALSE(io.IsInvalidArgument());
}

TEST(Status, ResourceExhaustedState) {
  Status shed = Status::ResourceExhausted("queue full");
  EXPECT_FALSE(shed.ok());
  EXPECT_TRUE(shed.IsResourceExhausted());
  // Shedding is not a deadline failure: the request never ran at all.
  EXPECT_FALSE(shed.IsDeadlineExceeded());
  EXPECT_EQ(shed.message(), "queue full");
  EXPECT_EQ(shed.ToString(), "ResourceExhausted: queue full");

  Status deadline = Status::DeadlineExceeded("late");
  EXPECT_TRUE(deadline.IsDeadlineExceeded());
  EXPECT_FALSE(deadline.IsResourceExhausted());
}

TEST(Status, CodeNamesAreStable) {
  // The server wire protocol transports errors by CodeName; these spellings
  // are frozen.
  EXPECT_STREQ(Status::Ok().CodeName(), "Ok");
  EXPECT_STREQ(Status::InvalidArgument("").CodeName(), "InvalidArgument");
  EXPECT_STREQ(Status::IoError("").CodeName(), "IoError");
  EXPECT_STREQ(Status::NotFound("").CodeName(), "NotFound");
  EXPECT_STREQ(Status::DeadlineExceeded("").CodeName(), "DeadlineExceeded");
  EXPECT_STREQ(Status::ResourceExhausted("").CodeName(),
               "ResourceExhausted");
}

TEST(StatusOr, HoldsValue) {
  StatusOr<int> result(41);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 41);
}

TEST(StatusOr, HoldsError) {
  StatusOr<int> result(Status::IoError("nope"));
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIoError());
}

}  // namespace
}  // namespace dsd

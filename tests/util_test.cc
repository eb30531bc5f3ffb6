// Unit tests for the utility layer: Status, Slice, Random/Zipfian,
// Histogram, CRC32.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "util/crc32.h"
#include "util/histogram.h"
#include "util/random.h"
#include "util/slice.h"
#include "util/status.h"

namespace sherman {
namespace {

// --- Status ---

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCodesAndMessages) {
  Status s = Status::NotFound("key 42");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: key 42");

  EXPECT_TRUE(Status::Corruption().IsCorruption());
  EXPECT_TRUE(Status::InvalidArgument().IsInvalidArgument());
  EXPECT_TRUE(Status::OutOfMemory().IsOutOfMemory());
  EXPECT_TRUE(Status::Retry().IsRetry());
  EXPECT_TRUE(Status::TimedOut().IsTimedOut());
  EXPECT_TRUE(Status::Internal().IsInternal());
}

TEST(StatusTest, EqualityComparesCodesOnly) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound() == Status::Retry());
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("nope");
  EXPECT_FALSE(v.ok());
  EXPECT_TRUE(v.status().IsNotFound());
}

// --- Slice ---

TEST(SliceTest, Basics) {
  Slice s("hello");
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s[0], 'h');
  EXPECT_EQ(s.ToString(), "hello");
  s.remove_prefix(2);
  EXPECT_EQ(s.ToString(), "llo");
}

TEST(SliceTest, Compare) {
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abd").compare(Slice("abc")), 0);
  EXPECT_EQ(Slice("abc").compare(Slice("abc")), 0);
  EXPECT_LT(Slice("ab").compare(Slice("abc")), 0);
  EXPECT_TRUE(Slice("x") == Slice("x"));
  EXPECT_TRUE(Slice("x") != Slice("y"));
}

// --- Random ---

TEST(RandomTest, DeterministicBySeed) {
  Random a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RandomTest, UniformInRange) {
  Random r(1);
  for (int i = 0; i < 1000; i++) {
    EXPECT_LT(r.Uniform(17), 17u);
  }
}

TEST(RandomTest, UniformCoversRange) {
  Random r(2);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100'000; i++) counts[r.Uniform(10)]++;
  for (int c : counts) {
    EXPECT_GT(c, 8'000);  // each decile within 20% of expectation
    EXPECT_LT(c, 12'000);
  }
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random r(3);
  for (int i = 0; i < 1000; i++) {
    const double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(ZipfianTest, RankZeroIsHottest) {
  ZipfianGenerator z(1000, 0.99);
  Random r(4);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 100'000; i++) counts[z.Next(r)]++;
  int max_count = 0;
  uint64_t max_rank = 0;
  for (const auto& [rank, c] : counts) {
    if (c > max_count) {
      max_count = c;
      max_rank = rank;
    }
  }
  EXPECT_EQ(max_rank, 0u);
  // theta=0.99, n=1000: p(rank 0) = 1/zeta ~= 13%.
  EXPECT_GT(max_count, 80'00);
  EXPECT_LT(max_count, 20'000);
}

TEST(ZipfianTest, HigherThetaMoreSkew) {
  Random r(5);
  auto top_share = [&r](double theta) {
    ZipfianGenerator z(10'000, theta);
    int hits = 0;
    for (int i = 0; i < 50'000; i++) {
      if (z.Next(r) == 0) hits++;
    }
    return hits;
  };
  const int low = top_share(0.5);
  const int high = top_share(0.99);
  EXPECT_GT(high, low * 2);
}

TEST(ZipfianTest, StaysInRange) {
  ZipfianGenerator z(100, 0.99);
  Random r(6);
  for (int i = 0; i < 10'000; i++) {
    EXPECT_LT(z.Next(r), 100u);
  }
}

TEST(ZipfianTest, MemoisedZetaIsTheDirectSumBitForBit) {
  constexpr double kTheta = 0.99;
  const auto direct = [](uint64_t n) {
    double sum = 0;
    for (uint64_t i = 0; i < n; i++) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), kTheta);
    }
    return sum;
  };
  // A miss, a hit, and a miss continued from the memoised prefix.
  for (const uint64_t n : {300'000ull, 300'000ull, 700'001ull}) {
    EXPECT_EQ(std::bit_cast<uint64_t>(ZipfianGenerator::Zeta(n, kTheta)),
              std::bit_cast<uint64_t>(direct(n)))
        << n;
  }
}

TEST(ZipfianTest, GrownGeneratorDrawsLikeAFreshOne) {
  ZipfianGenerator grown(100'000, 0.99);
  grown.GrowTo(250'000);
  ZipfianGenerator fresh(250'000, 0.99);
  Random a(7), b(7);
  for (int i = 0; i < 100'000; i++) {
    ASSERT_EQ(grown.Next(a), fresh.Next(b)) << i;
  }
}

TEST(ScrambledZipfianTest, SpreadsHotKeys) {
  // The scrambled generator's hottest values should NOT be adjacent.
  ScrambledZipfianGenerator z(1'000'000, 0.99);
  Random r(7);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 200'000; i++) counts[z.Next(r)]++;
  std::vector<std::pair<int, uint64_t>> by_count;
  for (const auto& [k, c] : counts) by_count.emplace_back(c, k);
  std::sort(by_count.rbegin(), by_count.rend());
  ASSERT_GE(by_count.size(), 2u);
  const uint64_t hot0 = by_count[0].second;
  const uint64_t hot1 = by_count[1].second;
  const uint64_t gap = hot0 > hot1 ? hot0 - hot1 : hot1 - hot0;
  EXPECT_GT(gap, 1000u);  // scrambled, not clustered
}

TEST(ScrambledZipfianTest, FnvHashIsStable) {
  EXPECT_EQ(ScrambledZipfianGenerator::FnvHash(0),
            ScrambledZipfianGenerator::FnvHash(0));
  EXPECT_NE(ScrambledZipfianGenerator::FnvHash(1),
            ScrambledZipfianGenerator::FnvHash(2));
}

// --- Histogram ---

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.P50(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Add(1000);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 1000u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_EQ(h.P50(), 1000u);
  EXPECT_EQ(h.P99(), 1000u);
  EXPECT_DOUBLE_EQ(h.Mean(), 1000.0);
}

TEST(HistogramTest, PercentilesOrderedAndBounded) {
  Histogram h;
  for (uint64_t v = 1; v <= 10'000; v++) h.Add(v);
  const uint64_t p50 = h.P50();
  const uint64_t p90 = h.P90();
  const uint64_t p99 = h.P99();
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  // Log buckets: within ~12.5% of the exact percentile.
  EXPECT_NEAR(static_cast<double>(p50), 5000.0, 700.0);
  EXPECT_NEAR(static_cast<double>(p90), 9000.0, 1200.0);
  EXPECT_NEAR(static_cast<double>(p99), 9900.0, 1300.0);
  EXPECT_GE(p50, h.min());
  EXPECT_LE(p99, h.max());
}

TEST(HistogramTest, SmallValuesExact) {
  Histogram h;
  for (uint64_t v = 0; v < 8; v++) h.Add(v);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 7u);
  EXPECT_LE(h.P50(), 4u);
}

TEST(HistogramTest, MergeAccumulates) {
  Histogram a, b;
  for (int i = 0; i < 100; i++) a.Add(10);
  for (int i = 0; i < 100; i++) b.Add(1'000'000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 1'000'000u);
  EXPECT_LE(a.P50(), 1000u);   // half the mass at 10
  EXPECT_GT(a.P99(), 500'000u);
}

TEST(HistogramTest, ClearResets) {
  Histogram h;
  h.Add(5);
  h.Clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(HistogramTest, BucketBoundsDefinedForEveryBucket) {
  // Buckets 8-23 decode to msb 1 or 2; the original sub-bucket math
  // shifted by (msb - 3) < 0 there — UB that a sanitizer build traps.
  // Evaluating the bounds of EVERY index must be defined; the reachable
  // buckets (0-7 linear, 24+ logarithmic — BucketFor never produces 8-23)
  // must additionally have ordered, monotone bounds.
  auto reachable = [](int b) { return b < 8 || b >= 24; };
  uint64_t prev_lower = 0;
  uint64_t prev_upper = 0;
  for (int b = 0; b < Histogram::kNumBuckets; b++) {
    const uint64_t lo = Histogram::BucketLower(b);
    const uint64_t hi = Histogram::BucketUpper(b);
    EXPECT_LE(lo, hi) << "bucket " << b;
    if (reachable(b)) {
      EXPECT_LT(lo, hi) << "bucket " << b;
      EXPECT_GE(lo, prev_lower) << "bucket " << b;
      EXPECT_GE(hi, prev_upper) << "bucket " << b;
      prev_lower = lo;
      prev_upper = hi;
    }
  }
  // The log range picks up exactly where the linear range ends.
  EXPECT_EQ(Histogram::BucketLower(24), 8u);
}

TEST(HistogramTest, BucketForLandsInsideItsBounds) {
  std::vector<uint64_t> values = {0, 1, 7, 8, 9, 15, 16, 100, 1000, 4095};
  for (int shift = 12; shift < 40; shift++) {
    values.push_back((1ull << shift) - 1);
    values.push_back(1ull << shift);
    values.push_back((1ull << shift) + (1ull << (shift - 2)));
  }
  for (uint64_t v : values) {
    const int b = Histogram::BucketFor(v);
    ASSERT_GE(b, 0);
    ASSERT_LT(b, Histogram::kNumBuckets);
    EXPECT_GE(v, Histogram::BucketLower(b)) << "value " << v;
    if (b < Histogram::kNumBuckets - 1) {  // last bucket clamps
      EXPECT_LT(v, Histogram::BucketUpper(b)) << "value " << v;
    }
  }
}

TEST(HistogramTest, HugeValuesClampToLastBucket) {
  Histogram h;
  h.Add(~0ull);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max(), ~0ull);
  EXPECT_GT(h.P50(), 0u);
}

// --- CRC32 ---

TEST(Crc32Test, KnownVector) {
  // CRC32-C("123456789") = 0xE3069283.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
}

TEST(Crc32Test, EmptyIsZero) { EXPECT_EQ(Crc32c("", 0), 0u); }

TEST(Crc32Test, SensitiveToEveryByte) {
  std::vector<uint8_t> buf(1024, 0xab);
  const uint32_t base = Crc32c(buf.data(), buf.size());
  for (size_t i = 0; i < buf.size(); i += 97) {
    buf[i] ^= 1;
    EXPECT_NE(Crc32c(buf.data(), buf.size()), base) << "byte " << i;
    buf[i] ^= 1;
  }
  EXPECT_EQ(Crc32c(buf.data(), buf.size()), base);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t full = Crc32c(data.data(), data.size());
  const uint32_t part = Crc32c(data.data() + 10, data.size() - 10,
                               Crc32c(data.data(), 10));
  EXPECT_EQ(full, part);
}

}  // namespace
}  // namespace sherman

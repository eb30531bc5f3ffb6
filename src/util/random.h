// Random number generation: a fast xorshift engine plus the YCSB key
// popularity distributions (uniform and scrambled Zipfian) used by the
// paper's workloads (§5.1.3).
#ifndef SHERMAN_UTIL_RANDOM_H_
#define SHERMAN_UTIL_RANDOM_H_

#include <cstdint>
#include <vector>

namespace sherman {

// One SplitMix64 finalization step: a strong 64-bit bijective mixer. Used
// to expand seeds and to derive independent per-client seed streams
// (fold fields in with successive SplitMix64(state ^ field) rounds).
uint64_t SplitMix64(uint64_t x);

// xorshift128+ engine: fast, decent quality, deterministic across platforms.
class Random {
 public:
  explicit Random(uint64_t seed);

  // Uniform in [0, 2^64).
  uint64_t Next();

  // Uniform in [0, n). n must be > 0.
  uint64_t Uniform(uint64_t n);

  // Uniform double in [0, 1).
  double NextDouble();

  // True with probability p (0 <= p <= 1).
  bool Bernoulli(double p) { return NextDouble() < p; }

 private:
  uint64_t s0_;
  uint64_t s1_;
};

// Zipfian generator over [0, n) with parameter theta, using the Gray et al.
// incremental method popularized by YCSB. Rank 0 is the most popular item.
class ZipfianGenerator {
 public:
  // theta in [0, 1): 0 degenerates to uniform-ish; 0.99 is the YCSB default.
  ZipfianGenerator(uint64_t n, double theta);

  uint64_t Next(Random& rng);

  // Extends the item space to `n` (no-op if not larger), updating the
  // zeta sum incrementally — O(n - n()) instead of a full recompute.
  // This is YCSB's growing-keyspace mode: workloads call it as live
  // inserts extend the drawable universe, so recently inserted items can
  // be drawn (and become hot) by later ops.
  void GrowTo(uint64_t n);

  uint64_t n() const { return n_; }
  double theta() const { return theta_; }

  // zeta(n, theta) = sum over i in [1, n] of 1 / i^theta, summed in
  // increasing i. Memoised in one process-wide table: every client of a
  // run builds a generator over the same (n, theta), and a miss continues
  // from the largest memoised prefix of the same theta. The additions run
  // in the same order either way, so the value is bit-identical to the
  // direct sum and GrowTo can keep extending it.
  static double Zeta(uint64_t n, double theta);

 private:
  uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
  double zeta2theta_;
};

// ScrambledZipfianGenerator spreads the Zipfian hot ranks over the whole key
// space with an FNV-style hash, as YCSB does, so hot keys are not clustered
// in one tree leaf unless they truly collide.
class ScrambledZipfianGenerator {
 public:
  ScrambledZipfianGenerator(uint64_t n, double theta);

  uint64_t Next(Random& rng);

  // See ZipfianGenerator::GrowTo. Ranks inside the construction-time
  // base keep scrambling with the FIXED base modulus, so a hot rank's
  // key stays stable as the space grows; grown ranks (>= base) pass
  // through unscrambled — they are already spread by insertion order.
  void GrowTo(uint64_t n);

  uint64_t n() const { return zipf_.n(); }

  // The hash applied to ranks; exposed for tests.
  static uint64_t FnvHash(uint64_t v);

 private:
  ZipfianGenerator zipf_;
  uint64_t base_;  // scramble modulus (construction-time n)
};

}  // namespace sherman

#endif  // SHERMAN_UTIL_RANDOM_H_

#include "util/random.h"

#include <cassert>
#include <cmath>
#include <iterator>
#include <map>
#include <mutex>
#include <utility>

namespace sherman {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

Random::Random(uint64_t seed) {
  s0_ = SplitMix64(seed);
  s1_ = SplitMix64(seed + 0x9e3779b97f4a7c15ULL);  // second stream step
  if (s0_ == 0 && s1_ == 0) s1_ = 1;  // xorshift state must be non-zero
}

uint64_t Random::Next() {
  uint64_t x = s0_;
  const uint64_t y = s1_;
  s0_ = y;
  x ^= x << 23;
  s1_ = x ^ y ^ (x >> 17) ^ (y >> 26);
  return s1_ + y;
}

uint64_t Random::Uniform(uint64_t n) {
  assert(n > 0);
  // Rejection-free modulo is fine here: n is tiny relative to 2^64 in all of
  // our uses, so the bias is negligible for benchmarking purposes.
  return Next() % n;
}

double Random::NextDouble() {
  // 53 random mantissa bits.
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

double ZipfianGenerator::Zeta(uint64_t n, double theta) {
  // (theta, n) -> zeta(n, theta). Ordered by n within a theta, so the
  // largest prefix at or below n is one lookup away.
  static std::mutex mu;
  static std::map<std::pair<double, uint64_t>, double> memo;
  std::lock_guard<std::mutex> lock(mu);
  auto it = memo.upper_bound({theta, n});
  uint64_t i = 0;
  double sum = 0;
  if (it != memo.begin() && std::prev(it)->first.first == theta) {
    --it;
    if (it->first.second == n) return it->second;
    i = it->first.second;
    sum = it->second;
  }
  for (; i < n; i++) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
  }
  memo.emplace(std::make_pair(theta, n), sum);
  return sum;
}

ZipfianGenerator::ZipfianGenerator(uint64_t n, double theta)
    : n_(n), theta_(theta) {
  assert(n > 0);
  assert(theta >= 0 && theta < 1);
  zetan_ = Zeta(n, theta);
  zeta2theta_ = Zeta(2, theta);
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
         (1.0 - zeta2theta_ / zetan_);
}

void ZipfianGenerator::GrowTo(uint64_t n) {
  if (n <= n_) return;
  for (uint64_t i = n_; i < n; i++) {
    zetan_ += 1.0 / std::pow(static_cast<double>(i + 1), theta_);
  }
  n_ = n;
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
         (1.0 - zeta2theta_ / zetan_);
}

uint64_t ZipfianGenerator::Next(Random& rng) {
  const double u = rng.NextDouble();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  const uint64_t rank = static_cast<uint64_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return rank >= n_ ? n_ - 1 : rank;
}

ScrambledZipfianGenerator::ScrambledZipfianGenerator(uint64_t n, double theta)
    : zipf_(n, theta), base_(n) {}

uint64_t ScrambledZipfianGenerator::FnvHash(uint64_t v) {
  // FNV-1a over the 8 bytes of v (as in YCSB's FNVhash64).
  const uint64_t kPrime = 1099511628211ULL;
  uint64_t hash = 14695981039346656037ULL;
  for (int i = 0; i < 8; i++) {
    hash ^= (v >> (i * 8)) & 0xff;
    hash *= kPrime;
  }
  return hash;
}

void ScrambledZipfianGenerator::GrowTo(uint64_t n) { zipf_.GrowTo(n); }

uint64_t ScrambledZipfianGenerator::Next(Random& rng) {
  const uint64_t r = zipf_.Next(rng);
  // Fixed-modulus scramble: rank r's key must not move when the space
  // grows, or the hot set churns on every insert (see GrowTo).
  return r < base_ ? FnvHash(r) % base_ : r;
}

}  // namespace sherman

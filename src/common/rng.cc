#include "common/rng.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace ipqs {

namespace {

// SplitMix64 finalizer (Vigna): a bijective avalanche mix, the standard
// way to turn structured counters into well-distributed seeds.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  // The SplitMix64 sequence started at `seed`, as the xoshiro authors
  // recommend: the four words are distinct outputs of a bijection, so the
  // state is never all zero.
  for (uint64_t& word : s_) {
    word = SplitMix64(seed);
    seed += 0x9e3779b97f4a7c15ULL;
  }
}

double Rng::Uniform(double lo, double hi) {
  IPQS_CHECK_LE(lo, hi);
  const double x = lo + (hi - lo) * Uniform01();
  // lo + (hi - lo) * u can round up to hi when u is within an ulp of 1.
  return x < hi ? x : lo;
}

uint64_t Rng::Bounded(uint64_t n) {
  unsigned __int128 m = static_cast<unsigned __int128>((*this)()) * n;
  uint64_t low = static_cast<uint64_t>(m);
  if (low < n) {
    // 2^64 mod n: products whose low word falls below it would make the
    // high words [0, n) unevenly likely.
    const uint64_t threshold = (0 - n) % n;
    while (low < threshold) {
      m = static_cast<unsigned __int128>((*this)()) * n;
      low = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int Rng::UniformInt(int lo, int hi) {
  IPQS_CHECK_LE(lo, hi);
  // The width of [lo, hi] is at most 2^32, so 64-bit arithmetic is exact.
  const uint64_t span =
      static_cast<uint64_t>(static_cast<int64_t>(hi) - lo) + 1;
  return static_cast<int>(lo + static_cast<int64_t>(Bounded(span)));
}

size_t Rng::UniformIndex(size_t n) {
  IPQS_CHECK_GT(n, 0u);
  return static_cast<size_t>(Bounded(n));
}

double Rng::Gaussian(double mu, double sigma) {
  if (has_spare_) {
    has_spare_ = false;
    return mu + sigma * spare_;
  }
  // Marsaglia's polar method: a uniform point in the unit disc (rejection
  // from the square, accepted with probability pi/4) gives two
  // independent standard normals.
  double u;
  double v;
  double s;
  do {
    u = 2.0 * Uniform01() - 1.0;
    v = 2.0 * Uniform01() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double scale = std::sqrt(-2.0 * std::log(s) / s);
  spare_ = v * scale;
  has_spare_ = true;
  return mu + sigma * (u * scale);
}

void Rng::GaussianBatch(double mu, double sigma, size_t n, double* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = Gaussian(mu, sigma);
  }
}

void Rng::Uniform01Batch(size_t n, double* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = Uniform01();
  }
}

bool Rng::Bernoulli(double p) {
  return Uniform01() < std::clamp(p, 0.0, 1.0);
}

size_t Rng::Categorical(const std::vector<double>& weights) {
  IPQS_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    IPQS_CHECK_GE(w, 0.0);
    total += w;
  }
  IPQS_CHECK_GT(total, 0.0);
  double u = Uniform(0.0, total);
  for (size_t i = 0; i < weights.size(); ++i) {
    u -= weights[i];
    if (u <= 0.0) {
      return i;
    }
  }
  // Floating point slack: fall back to the last positive-weight entry.
  for (size_t i = weights.size(); i-- > 0;) {
    if (weights[i] > 0.0) {
      return i;
    }
  }
  return weights.size() - 1;
}

Rng Rng::Fork() {
  // Derive the child seed from this stream, advancing it once.
  return Rng((*this)());
}

Rng Rng::ForStream(uint64_t seed, uint64_t stream, uint64_t substream) {
  // Chain the mixes so that (seed, stream, substream) triples that differ
  // in any coordinate land on unrelated seeds; a plain XOR of the three
  // would alias (a^b, b^a) style swaps onto the same generator.
  uint64_t h = SplitMix64(seed);
  h = SplitMix64(h ^ SplitMix64(stream));
  h = SplitMix64(h ^ SplitMix64(substream));
  return Rng(h);
}

}  // namespace ipqs

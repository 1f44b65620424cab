#ifndef IPQS_COMMON_RNG_H_
#define IPQS_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace ipqs {

// Deterministic random number generator shared by every stochastic component
// in the library (particle motion, sensing noise, trace generation, ...).
//
// All randomness flows through explicitly passed Rng& so that simulations
// and experiments are exactly reproducible from a single seed. Components
// never construct their own generators from wall-clock entropy.
//
// The engine and every distribution are written here, so the bits a seed
// produces are fixed by this file rather than by a standard library:
//   * engine: xoshiro256++ (Blackman & Vigna, 2018), 32 bytes of state,
//     seeded with four successive SplitMix64 outputs from the seed;
//   * Uniform01: the top 53 bits of one raw draw, times 2^-53;
//   * UniformIndex/UniformInt: Lemire's unbiased multiply-and-reject
//     bounded draw: one raw draw, redrawn with probability below n / 2^64
//     for a bound of n;
//   * Bernoulli(p): Uniform01() < p, always exactly one raw draw;
//   * Gaussian: Marsaglia's polar method. Each accepted pair yields two
//     standard normals; the first is returned and the second is kept as a
//     pending spare that the next Gaussian call (of any mu/sigma) returns
//     without drawing. Uniform/Bernoulli/integer draws in between do not
//     touch the spare. Its std::log is the one libm call on any path here.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  Rng(const Rng&) = delete;
  Rng& operator=(const Rng&) = delete;
  Rng(Rng&&) = default;
  Rng& operator=(Rng&&) = default;

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Uniform double in [0, 1).
  double Uniform01() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  // Uniform integer in [lo, hi] (inclusive).
  int UniformInt(int lo, int hi);

  // Uniform index in [0, n). Precondition: n > 0.
  size_t UniformIndex(size_t n);

  // Normal with mean `mu` and standard deviation `sigma`.
  double Gaussian(double mu, double sigma);

  // Batched draws for the data-oriented filter kernels: fills out[0..n)
  // with exactly the values n successive Gaussian()/Uniform01() calls
  // would produce, and leaves the generator (pending Gaussian spare
  // included) exactly where those calls would. Batching never changes
  // draw order.
  void GaussianBatch(double mu, double sigma, size_t n, double* out);
  void Uniform01Batch(size_t n, double* out);

  // True with probability `p` (clamped to [0, 1]).
  bool Bernoulli(double p);

  // Samples an index in [0, weights.size()) proportionally to weights.
  // Precondition: weights non-empty with non-negative entries and a
  // positive sum.
  size_t Categorical(const std::vector<double>& weights);

  // Forks an independent deterministic child stream. Used to give each
  // experiment trial its own stream without coupling consumption order.
  Rng Fork();

  // Counter-based stream split: an independent generator that is a pure
  // function of (seed, stream, substream) — no shared state, no dependence
  // on how much any other stream has consumed. Used to give every
  // (object, timestamp) inference its own stream so per-object filtering
  // is order- and thread-count-invariant. Costs a handful of SplitMix64
  // rounds, so a stream per inference or per reading is cheap.
  static Rng ForStream(uint64_t seed, uint64_t stream, uint64_t substream);

  // UniformRandomBitGenerator interface (std::shuffle and friends):
  // one raw 64-bit xoshiro256++ output per call.
  using result_type = uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }
  result_type operator()() {
    const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  // Unbiased draw in [0, n) for n > 0 (Lemire, "Fast Random Integer
  // Generation in an Interval", TOMACS 2019).
  uint64_t Bounded(uint64_t n);

  uint64_t s_[4];
  // Second variate of the last polar-method pair, valid iff has_spare_.
  double spare_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace ipqs

#endif  // IPQS_COMMON_RNG_H_

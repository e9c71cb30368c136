#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "rng/lfsr.h"
#include "rng/normal_clt.h"
#include "rng/xoshiro.h"

namespace qta::rng {
namespace {

// Maximal-length property: an LFSR of width w visits all 2^w - 1 nonzero
// states before repeating. Exhaustive for small widths.
class LfsrPeriodTest : public testing::TestWithParam<unsigned> {};

TEST_P(LfsrPeriodTest, IsMaximalLength) {
  const unsigned width = GetParam();
  Lfsr lfsr(width, 1);
  const std::uint64_t period = (std::uint64_t{1} << width) - 1;
  const std::uint64_t start = lfsr.state();
  std::uint64_t steps = 0;
  do {
    const std::uint64_t s = lfsr.step();
    ASSERT_NE(s, 0u) << "LFSR reached the absorbing zero state";
    ++steps;
    ASSERT_LE(steps, period);
  } while (lfsr.state() != start);
  EXPECT_EQ(steps, period);
}

INSTANTIATE_TEST_SUITE_P(Widths, LfsrPeriodTest,
                         testing::Values(2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u,
                                         10u, 11u, 12u, 13u, 14u, 15u, 16u,
                                         17u, 18u));

// Larger widths: verify a long run produces no zero state and no short
// cycle within a window.
class LfsrWideTest : public testing::TestWithParam<unsigned> {};

TEST_P(LfsrWideTest, NoShortCycle) {
  const unsigned width = GetParam();
  Lfsr lfsr(width, 0xdeadbeefcafeULL);
  const std::uint64_t start = lfsr.state();
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t s = lfsr.step();
    ASSERT_NE(s, 0u);
    ASSERT_NE(s, start) << "cycle shorter than 100000 at width " << width;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, LfsrWideTest,
                         testing::Values(24u, 32u, 40u, 48u, 56u, 64u));

TEST(Lfsr, ZeroSeedIsFixedUp) {
  Lfsr lfsr(16, 0);
  EXPECT_NE(lfsr.state(), 0u);
}

TEST(Lfsr, SeedIsMasked) {
  Lfsr lfsr(8, 0xFFFF);
  EXPECT_LE(lfsr.state(), 0xFFu);
}

TEST(Lfsr, DrawBitsWidths) {
  Lfsr lfsr(32, 99);
  for (unsigned n = 1; n <= 64; ++n) {
    const std::uint64_t v = lfsr.draw_bits(n);
    if (n < 64) {
      EXPECT_LT(v, std::uint64_t{1} << n) << n;
    }
  }
}

TEST(Lfsr, DrawBitsRoughlyUniform) {
  Lfsr lfsr(32, 7);
  // Count ones across many 32-bit draws; expect ~50%.
  std::uint64_t ones = 0;
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) {
    ones += static_cast<std::uint64_t>(__builtin_popcountll(
        lfsr.draw_bits(32)));
  }
  const double frac =
      static_cast<double>(ones) / (32.0 * static_cast<double>(draws));
  EXPECT_NEAR(frac, 0.5, 0.01);
}

TEST(Lfsr, BelowStaysInBounds) {
  Lfsr lfsr(32, 3);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 5ull, 100ull, 262144ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(lfsr.below(bound), bound);
    }
  }
}

TEST(Lfsr, BelowCoversRange) {
  Lfsr lfsr(32, 13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(lfsr.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Lfsr, DeterministicForSeed) {
  Lfsr a(32, 42), b(32, 42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.step(), b.step());
}

// Frozen output streams: every supported width, three seeds, 4,096
// draws each of draw_bits(n) for n in {1, 2, 3, 16, 32} and of below()
// over three bounds, folded with the final register into one FNV-1a
// digest per width. The digests were taken from the original bit-serial
// implementation; any rewrite of step/draw_bits/below must reproduce
// them, since every backend's replay is defined by these streams.
std::uint64_t draw_stream_digest(unsigned width) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto fold = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  for (std::uint64_t seed : {1ULL, 0xace1ULL, 0x9e3779b97f4a7c15ULL}) {
    Lfsr lfsr(width, seed);
    for (unsigned n : {1u, 2u, 3u, 16u, 32u}) {
      for (int i = 0; i < 4096; ++i) fold(lfsr.draw_bits(n));
    }
    for (std::uint64_t bound : {6ULL, 65536ULL, 1000003ULL}) {
      for (int i = 0; i < 4096; ++i) fold(lfsr.below(bound));
    }
    fold(lfsr.state());
  }
  return h;
}

TEST(Lfsr, DrawStreamGolden) {
  // kGolden[w - 2] is the digest for width w.
  static constexpr std::uint64_t kGolden[63] = {
      0x12b6e155b9f9c2a4ULL, 0xc123831b7296c015ULL, 0x9c448fc53e626075ULL,
      0x21a5fbb61093d573ULL, 0x97051bfb9eb219f3ULL, 0x3d50dcc4cfb744b1ULL,
      0x2f17496d37cd78e6ULL, 0xbdc5296b06272cafULL, 0x5c1da7726c112e0eULL,
      0x4419851a0e9407ccULL, 0x0b7b9dd882425acaULL, 0xfd96341890d579eaULL,
      0xee9a6206e9b47203ULL, 0xa210d8aa1e61abffULL, 0xe69d51dd91d1799eULL,
      0xf5b0615cc2e63e38ULL, 0x3b15aba1567c3b31ULL, 0xffada4954399b3baULL,
      0x9e2ec6afd7f8f2c8ULL, 0x85beffa99dd7d5c9ULL, 0x9f8a7dc715bbff1cULL,
      0x3dc98426869944baULL, 0x7861ecfa3f13c219ULL, 0x25df866c89fc7b2fULL,
      0x7bc9b4242b7cd3bbULL, 0xb4551c2296e0290eULL, 0xcb5a2bc1e9937957ULL,
      0x2c4da6e57b1c60ceULL, 0xbaabff9d5c26413fULL, 0x6a0a2dec91ca5b44ULL,
      0x31fe9bd6e056bb89ULL, 0xb4f443ddd4b243cdULL, 0x9ff8f9c7eb0482a1ULL,
      0xfaab82f2d50fb80eULL, 0x74c612b6c351eec6ULL, 0x30d2912a4cf415e0ULL,
      0x93d05ff7b621b51aULL, 0xace7bbc05c79c49fULL, 0xbbc831dc3870e2a4ULL,
      0xc012b57cbc1c248dULL, 0x898b137b866e8f1eULL, 0x70d1b56dc7b49b34ULL,
      0xaedf50d44c443a41ULL, 0x904f046c71a9a39aULL, 0x3e095fee1bffd644ULL,
      0x65c73cdf17e7b2dbULL, 0x8033c898eefd0424ULL, 0x8c07d519cccd6c8cULL,
      0xc2b620cc37a6db24ULL, 0x2947c1f9af92f9d3ULL, 0x1e172d38d0561e64ULL,
      0xa3fe8c0abebe5d32ULL, 0x667b2ed0aefd483bULL, 0xd7daa75e6266c503ULL,
      0xabe1d23bd9079707ULL, 0xd074ec81f7be6a6fULL, 0xa4c62aabbeabf696ULL,
      0x117e35fb1584b49dULL, 0xdde708e1b5a6f122ULL, 0x6e38ee7c9b18b0b2ULL,
      0xa3019fdb6c1a227bULL, 0xfc57d5965f26b64fULL, 0xeba83771eb0dfebdULL
  };
  for (unsigned width = 2; width <= 64; ++width) {
    EXPECT_EQ(draw_stream_digest(width), kGolden[width - 2])
        << "width " << width;
  }
}

TEST(Lfsr, Period) {
  EXPECT_EQ(Lfsr(16).period(), 65535u);
  EXPECT_EQ(Lfsr(32).period(), 4294967295u);
}

TEST(Lfsr, FlipFlops) { EXPECT_EQ(Lfsr(24).flip_flops(), 24u); }

TEST(NormalClt, MeanAndStddev) {
  NormalClt gen(123);
  double sum = 0.0, sumsq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = gen.sample_standard();
    sum += x;
    sumsq += x * x;
  }
  const double mean = sum / n;
  const double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(NormalClt, ScaledSample) {
  NormalClt gen(5);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += gen.sample(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(NormalClt, BoundedSupport) {
  // Irwin-Hall with k=12: support is +/- sqrt(12)/2 * ... => |x| <= 6.
  NormalClt gen(9, 12);
  for (int i = 0; i < 20000; ++i) {
    EXPECT_LE(std::abs(gen.sample_standard()), 6.001);
  }
}

TEST(NormalClt, FixedPointSample) {
  NormalClt gen(77);
  const fixed::Format f{18, 8};
  for (int i = 0; i < 100; ++i) {
    const fixed::raw_t r = gen.sample_fixed(0.0, 1.0, f);
    EXPECT_GE(r, f.min_raw());
    EXPECT_LE(r, f.max_raw());
  }
}

TEST(NormalClt, RoughlyGaussianShape) {
  // ~68% of samples within one stddev.
  NormalClt gen(31);
  int within = 0;
  const int n = 30000;
  for (int i = 0; i < n; ++i) {
    if (std::abs(gen.sample_standard()) <= 1.0) ++within;
  }
  EXPECT_NEAR(static_cast<double>(within) / n, 0.6827, 0.02);
}

TEST(Xoshiro, Deterministic) {
  Xoshiro256 a(1), b(1);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro, BelowUnbiasedCoverage) {
  Xoshiro256 rng(2);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.below(10)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.01);
  }
}

TEST(Xoshiro, UniformInRange) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Xoshiro, BernoulliFrequency) {
  Xoshiro256 rng(4);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(SplitMix, DistinctStreams) {
  SplitMix64 sm(1);
  const std::uint64_t a = sm.next();
  const std::uint64_t b = sm.next();
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace qta::rng

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "fixed/exp_lut.h"
#include "fixed/fixed_point.h"
#include "rng/xoshiro.h"

namespace qta::fixed {
namespace {

TEST(Format, Ranges) {
  const Format f{18, 8};  // s9.8
  EXPECT_EQ(f.int_bits(), 9u);
  EXPECT_EQ(f.max_raw(), (1 << 17) - 1);
  EXPECT_EQ(f.min_raw(), -(1 << 17));
  EXPECT_DOUBLE_EQ(f.resolution(), 1.0 / 256.0);
  EXPECT_NEAR(f.max_value(), 511.996, 0.001);
  EXPECT_DOUBLE_EQ(f.min_value(), -512.0);
}

TEST(Format, ToString) {
  EXPECT_EQ(to_string(Format{18, 8}), "s9.8 (18b)");
  EXPECT_EQ(to_string(Format{18, 16}), "s1.16 (18b)");
}

TEST(Conversion, RoundTripExactValues) {
  const Format f{18, 8};
  for (double v : {0.0, 1.0, -1.0, 0.5, -0.5, 255.0, -255.0, 511.0,
                   0.00390625 /* 2^-8 */}) {
    EXPECT_DOUBLE_EQ(to_double(from_double(v, f), f), v) << v;
  }
}

TEST(Conversion, RoundsHalfAwayFromZero) {
  const Format f{18, 8};
  // 0.001953125 = 0.5 * 2^-8: rounds to 1 raw ulp.
  EXPECT_EQ(from_double(0.001953125, f), 1);
  EXPECT_EQ(from_double(-0.001953125, f), -1);
}

TEST(Conversion, SaturatesAtBounds) {
  const Format f{18, 8};
  EXPECT_EQ(from_double(1e9, f), f.max_raw());
  EXPECT_EQ(from_double(-1e9, f), f.min_raw());
}

TEST(Conversion, QuantizationErrorWithinHalfUlp) {
  const Format f{18, 8};
  rng::Xoshiro256 rng(1);
  for (int i = 0; i < 2000; ++i) {
    const double v = rng.uniform(-500.0, 500.0);
    const double back = to_double(from_double(v, f), f);
    EXPECT_LE(std::abs(back - v), f.resolution() / 2.0 + 1e-12) << v;
  }
}

TEST(SatAdd, SaturatesAndFlags) {
  const Format f{18, 8};
  bool sat = false;
  EXPECT_EQ(sat_add(f.max_raw(), 1, f, &sat), f.max_raw());
  EXPECT_TRUE(sat);
  sat = false;
  EXPECT_EQ(sat_add(f.min_raw(), -1, f, &sat), f.min_raw());
  EXPECT_TRUE(sat);
  sat = false;
  EXPECT_EQ(sat_add(100, 28, f, &sat), 128);
  EXPECT_FALSE(sat);
}

TEST(SatSub, Works) {
  const Format f{18, 8};
  const raw_t one = from_double(1.0, f);
  const raw_t half = from_double(0.5, f);
  EXPECT_EQ(sat_sub(one, half, f), half);
  bool sat = false;
  EXPECT_EQ(sat_sub(f.min_raw(), 1, f, &sat), f.min_raw());
  EXPECT_TRUE(sat);
}

TEST(Mul, ExactProducts) {
  const Format q{18, 8};
  const Format c{18, 16};
  // 2.0 (q) * 0.5 (c) = 1.0 (q)
  EXPECT_EQ(mul(from_double(2.0, q), q, from_double(0.5, c), c, q),
            from_double(1.0, q));
  // -4.0 * 0.25 = -1.0
  EXPECT_EQ(mul(from_double(-4.0, q), q, from_double(0.25, c), c, q),
            from_double(-1.0, q));
}

TEST(Mul, MatchesDoubleWithinUlp) {
  const Format q{18, 8};
  const Format c{18, 16};
  rng::Xoshiro256 rng(2);
  for (int i = 0; i < 2000; ++i) {
    const double a = rng.uniform(-400.0, 400.0);
    const double b = rng.uniform(0.0, 1.0);
    const raw_t ra = from_double(a, q);
    const raw_t rb = from_double(b, c);
    const double exact = to_double(ra, q) * to_double(rb, c);
    const double got = to_double(mul(ra, q, rb, c, q), q);
    EXPECT_LE(std::abs(got - exact), q.resolution() / 2.0 + 1e-12)
        << a << " * " << b;
  }
}

TEST(Mul, RoundingIsSymmetric) {
  const Format q{18, 8};
  const Format c{18, 16};
  const raw_t b = from_double(0.3, c);
  for (raw_t a = -600; a <= 600; a += 7) {
    const raw_t pos = mul(a, q, b, c, q);
    const raw_t neg = mul(-a, q, b, c, q);
    EXPECT_EQ(pos, -neg) << a;
  }
}

TEST(Mul, SaturationFlag) {
  const Format q{18, 8};
  const Format wide{18, 2};  // values up to ~16000
  bool sat = false;
  // 500 * 500 in s9.8 -> way past max -> saturate.
  mul(from_double(500.0, q), q, from_double(500.0, wide), wide, q, &sat);
  EXPECT_TRUE(sat);
}

// The mirrored definition of round-half-away-from-zero that
// rshift_round's branchless form must reproduce.
raw_t reference_rshift_round(raw_t v, unsigned shift) {
  if (shift == 0) return v;
  const raw_t half = raw_t{1} << (shift - 1);
  return v >= 0 ? (v + half) >> shift : -((-v + half) >> shift);
}

TEST(RshiftRound, MatchesMirroredDefinition) {
  for (unsigned shift = 0; shift < 63; ++shift) {
    const raw_t step = raw_t{1} << (shift < 2 ? 0 : shift - 2);
    // Every residue around zero and around the rounding ties, and values
    // out to the 62-bit product range the multiplier admits.
    const raw_t k_max = std::min<raw_t>(40, ((raw_t{1} << 61) - 2) / step);
    for (raw_t k = -k_max; k <= k_max; ++k) {
      for (raw_t d = -2; d <= 2; ++d) {
        const raw_t v = k * step + d;
        ASSERT_EQ(rshift_round(v, shift), reference_rshift_round(v, shift))
            << v << " >> " << shift;
      }
    }
    for (raw_t v : {(raw_t{1} << 61) - 1, -(raw_t{1} << 61),
                    -(raw_t{1} << 61) + 1, raw_t{-1}, raw_t{1}}) {
      ASSERT_EQ(rshift_round(v, shift), reference_rshift_round(v, shift))
          << v << " >> " << shift;
    }
  }
}

// Multiplier (formats checked once) against the per-call definition:
// product, mirrored rounding shift or left shift, saturation.
TEST(Mul, MultiplierMatchesReference) {
  const Format formats[] = {{18, 8}, {18, 16}, {18, 2}, {24, 4}, {12, 11},
                            {30, 20}, {8, 0}};
  rng::Xoshiro256 rng(17);
  for (const Format fa : formats) {
    for (const Format fb : formats) {
      if (fa.width + fb.width > 62) continue;
      for (const Format out : formats) {
        const Multiplier m(fa, fb, out);
        for (int i = 0; i < 200; ++i) {
          const raw_t a = fa.min_raw() + static_cast<raw_t>(rng.below(
              static_cast<std::uint64_t>(fa.max_raw() - fa.min_raw() + 1)));
          const raw_t b = fb.min_raw() + static_cast<raw_t>(rng.below(
              static_cast<std::uint64_t>(fb.max_raw() - fb.min_raw() + 1)));
          const unsigned pfrac = fa.frac + fb.frac;
          const raw_t rescaled =
              pfrac >= out.frac
                  ? reference_rshift_round(a * b, pfrac - out.frac)
                  : (a * b) << (out.frac - pfrac);
          bool want_sat = false;
          const raw_t want = saturate(rescaled, out, &want_sat);
          bool got_sat = false;
          EXPECT_EQ(m(a, b, &got_sat), want) << a << " * " << b;
          EXPECT_EQ(got_sat, want_sat);
          EXPECT_EQ(mul(a, fa, b, fb, out), want);
        }
      }
    }
  }
}

TEST(Convert, BetweenFormats) {
  const Format a{18, 8};
  const Format b{18, 16};
  const raw_t half_a = from_double(0.5, a);
  EXPECT_EQ(convert(half_a, a, b), from_double(0.5, b));
  // Down-conversion rounds.
  const raw_t tiny_b = from_double(0.0000152587890625, b);  // 2^-16
  EXPECT_EQ(convert(tiny_b, b, a), 0);
}

TEST(Value, Wrapper) {
  const Value v = Value::of(1.5, Format{18, 8});
  EXPECT_DOUBLE_EQ(v.as_double(), 1.5);
}

// Property sweep over several formats: add is commutative, mul by the
// coefficient 1.0 is identity, and saturation clamps monotonically.
class FormatPropertyTest : public testing::TestWithParam<Format> {};

TEST_P(FormatPropertyTest, MulByOneIsIdentity) {
  const Format f = GetParam();
  const Format c{18, 16};
  const raw_t one = from_double(1.0, c);
  rng::Xoshiro256 rng(3);
  for (int i = 0; i < 500; ++i) {
    const raw_t v = from_double(
        rng.uniform(f.min_value() * 0.9, f.max_value() * 0.9), f);
    EXPECT_EQ(mul(v, f, one, c, f), v);
  }
}

TEST_P(FormatPropertyTest, AddCommutes) {
  const Format f = GetParam();
  rng::Xoshiro256 rng(4);
  for (int i = 0; i < 500; ++i) {
    const raw_t a = from_double(rng.uniform(-100.0, 100.0), f);
    const raw_t b = from_double(rng.uniform(-100.0, 100.0), f);
    EXPECT_EQ(sat_add(a, b, f), sat_add(b, a, f));
  }
}

TEST_P(FormatPropertyTest, SaturateIsIdempotent) {
  const Format f = GetParam();
  rng::Xoshiro256 rng(5);
  for (int i = 0; i < 500; ++i) {
    const raw_t v = static_cast<raw_t>(rng.next() >> 30) - (1ll << 33);
    const raw_t s1 = saturate(v, f);
    EXPECT_EQ(saturate(s1, f), s1);
    EXPECT_GE(s1, f.min_raw());
    EXPECT_LE(s1, f.max_raw());
  }
}

INSTANTIATE_TEST_SUITE_P(Formats, FormatPropertyTest,
                         testing::Values(Format{18, 8}, Format{16, 8},
                                         Format{18, 12}, Format{32, 16},
                                         Format{24, 10}),
                         [](const testing::TestParamInfo<Format>& param_info) {
                           return "w" + std::to_string(param_info.param.width) +
                                  "f" + std::to_string(param_info.param.frac);
                         });

TEST(ExpLut, ApproximatesExp) {
  const ExpLut lut(-8.0, 8.0, 12, Format{32, 12});
  // Relative error should be small over the domain; absolute error is
  // dominated by the large end (exp(8) ~ 2981).
  for (double x = -8.0; x <= 8.0; x += 0.37) {
    EXPECT_NEAR(lut.eval_double(x), std::exp(x),
                std::exp(x) * 0.01 + 0.01)
        << x;
  }
}

TEST(ExpLut, ClampsDomain) {
  const ExpLut lut(-4.0, 4.0, 10, Format{32, 12});
  EXPECT_DOUBLE_EQ(lut.eval_double(-100.0), lut.eval_double(-4.0));
  EXPECT_DOUBLE_EQ(lut.eval_double(100.0), lut.eval_double(4.0));
}

TEST(ExpLut, FixedPointEval) {
  const ExpLut lut(-4.0, 4.0, 12, Format{32, 12});
  const Format arg{18, 8};
  const raw_t x = from_double(1.0, arg);
  EXPECT_NEAR(to_double(lut.eval(x, arg), lut.value_fmt()), std::exp(1.0),
              0.01);
}

TEST(ExpLut, ErrorBoundReported) {
  const ExpLut lut(-2.0, 2.0, 12, Format{32, 16});
  EXPECT_LT(lut.max_abs_error(), 0.005);
}

TEST(ExpLut, StorageBits) {
  const ExpLut lut(-2.0, 2.0, 10, Format{32, 16});
  EXPECT_EQ(lut.entries(), 1024u);
  EXPECT_EQ(lut.storage_bits(), 1024u * 32u);
}

}  // namespace
}  // namespace qta::fixed

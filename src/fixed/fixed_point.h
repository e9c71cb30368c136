// Fixed-point arithmetic with the exact semantics of the simulated DSP
// datapath.
//
// The accelerator stores Q-values and rewards in 18-bit lanes (the natural
// word of an UltraScale BRAM18, and the B-port width of a DSP48E2 27x18
// multiplier). Learning-rate / discount coefficients use a high-fraction
// format since they live in [0, 1]. Formats are runtime values so benchmarks
// can sweep precision; raw values are carried sign-extended in int64.
//
// Rounding: round-half-away-from-zero (the cheap adder-based FPGA rounding).
// Overflow: saturation to the format's representable range; the pipeline
// counts saturation events so experiments can report precision loss.
//
// qtlint: allow-file(datapath-purity)
// This file IS the sanctioned host<->datapath conversion boundary:
// from_double/to_double and the resolution helpers are the only place the
// model is allowed to touch IEEE floats. Everything downstream carries
// raw_t only, which tools/qtlint enforces.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

#include "common/check.h"

namespace qta::fixed {

/// Raw fixed-point value: two's-complement, sign-extended into 64 bits.
using raw_t = std::int64_t;

/// A runtime Q-format: `width` total bits (including sign) of which `frac`
/// are fractional. width <= 48 so products of two values fit in int64 with
/// headroom (the DSP48 accumulator is 48 bits wide).
struct Format {
  unsigned width = 18;
  unsigned frac = 8;

  constexpr unsigned int_bits() const { return width - 1 - frac; }
  constexpr raw_t max_raw() const {
    return (raw_t{1} << (width - 1)) - 1;
  }
  constexpr raw_t min_raw() const { return -(raw_t{1} << (width - 1)); }
  constexpr double resolution() const {
    return 1.0 / static_cast<double>(raw_t{1} << frac);
  }
  constexpr double max_value() const {
    return static_cast<double>(max_raw()) * resolution();
  }
  constexpr double min_value() const {
    return static_cast<double>(min_raw()) * resolution();
  }

  friend constexpr bool operator==(const Format&, const Format&) = default;
};

/// Q-value / reward storage format: s9.8 in an 18-bit lane.
inline constexpr Format kQFormat{18, 8};
/// Coefficient format for alpha, gamma, alpha*gamma, 1-alpha: s1.16.
inline constexpr Format kCoeffFormat{18, 16};

/// "q9.8" style human-readable name.
std::string to_string(Format f);

/// Validates a format (2 <= width <= 48, frac < width). Aborts otherwise.
/// Inline (along with the arithmetic below): these run once per simulated
/// DSP operation, in the innermost loop of both backends, and the
/// cross-TU call overhead dominated profiles before they lived here.
inline void validate(Format f) {
  QTA_CHECK_MSG(f.width >= 2 && f.width <= 48,
                "fixed-point width must be in [2, 48]");
  QTA_CHECK_MSG(f.frac < f.width, "fractional bits must leave a sign bit");
}

/// Clamps a raw value into the representable range of `f`. Returns the
/// clamped value; `saturated` (if non-null) is set when clamping occurred.
inline raw_t saturate(raw_t v, Format f, bool* saturated = nullptr) {
  const raw_t lo = f.min_raw();
  const raw_t hi = f.max_raw();
  if (v < lo) {
    if (saturated) *saturated = true;
    return lo;
  }
  if (v > hi) {
    if (saturated) *saturated = true;
    return hi;
  }
  return v;
}

/// Quantizes a double to format `f` with round-half-away-from-zero and
/// saturation.
raw_t from_double(double v, Format f);

/// Exact value of a raw number in format `f`.
double to_double(raw_t v, Format f);

/// Saturating addition of two values in the same format.
inline raw_t sat_add(raw_t a, raw_t b, Format f,
                     bool* saturated = nullptr) {
  return saturate(a + b, f, saturated);
}

/// Saturating subtraction in the same format.
inline raw_t sat_sub(raw_t a, raw_t b, Format f,
                     bool* saturated = nullptr) {
  return saturate(a - b, f, saturated);
}

/// Arithmetic right shift with round-half-away-from-zero — the division
/// by a power of two the hardware uses for row means (adder tree output
/// >> log2|A|). Branchless: a negative v rounds as (v + half - 1) >> shift,
/// which equals the mirrored -((-v + half) >> shift) for every v whose
/// negation fits (all of them but INT64_MIN).
inline raw_t rshift_round(raw_t v, unsigned shift) {
  if (shift == 0) return v;
  QTA_CHECK(shift < 63);
  const raw_t half = raw_t{1} << (shift - 1);
  return (v + half + (v >> 63)) >> shift;  // v >> 63 is -1 when v < 0
}

/// A DSP multiplier wired for one (fa, fb, out) format triple: mul() with
/// the format checks done once, at construction, so a loop issuing many
/// products pays only the multiply, the rounding shift and the clamp.
/// Bit-identical to mul() with the same formats.
class Multiplier {
 public:
  Multiplier(Format fa, Format fb, Format out)
      : lo_(out.min_raw()), hi_(out.max_raw()) {
    validate(fa);
    validate(fb);
    validate(out);
    QTA_CHECK_MSG(fa.width + fb.width <= 62,
                  "product would overflow the 64-bit accumulator");
    const unsigned pfrac = fa.frac + fb.frac;  // frac bits of the product
    if (pfrac >= out.frac) {
      right_ = pfrac - out.frac;
      if (right_ != 0) {
        half_ = raw_t{1} << (right_ - 1);
        round_ = ~raw_t{0};
      }
    } else {
      left_ = out.frac - pfrac;
    }
  }

  /// a * b rescaled into the output format with rounding (rshift_round's
  /// arithmetic, without its per-call check) and saturation.
  raw_t operator()(raw_t a, raw_t b, bool* saturated = nullptr) const {
    const raw_t product = a * b;
    const raw_t rescaled =
        ((product << left_) + half_ + ((product >> 63) & round_)) >> right_;
    const raw_t clamped = std::clamp(rescaled, lo_, hi_);
    if (saturated != nullptr && clamped != rescaled) *saturated = true;
    return clamped;
  }

 private:
  unsigned left_ = 0;   // product frac bits below the output's: shift up
  unsigned right_ = 0;  // ... above the output's: rounding shift down
  raw_t half_ = 0;      // rounding constant, 0 when right_ == 0
  raw_t round_ = 0;     // all ones when right_ != 0 (negatives round down)
  raw_t lo_;
  raw_t hi_;
};

/// DSP multiply: a (format fa) times b (format fb), rescaled into `out`
/// with rounding and saturation. This is one DSP48 in the resource model.
inline raw_t mul(raw_t a, Format fa, raw_t b, Format fb, Format out,
                 bool* saturated = nullptr) {
  return Multiplier(fa, fb, out)(a, b, saturated);
}

/// Re-quantize a value from format `from` into format `to` (round+saturate).
inline raw_t convert(raw_t v, Format from, Format to,
                     bool* saturated = nullptr) {
  validate(from);
  validate(to);
  raw_t rescaled;
  if (from.frac >= to.frac) {
    rescaled = rshift_round(v, from.frac - to.frac);
  } else {
    rescaled = v << (to.frac - from.frac);
  }
  return saturate(rescaled, to, saturated);
}

/// Convenience wrapper pairing a raw value with its format, used at module
/// boundaries and in tests where mixing formats would be error-prone.
struct Value {
  raw_t raw = 0;
  Format fmt = kQFormat;

  static Value of(double v, Format f) { return {from_double(v, f), f}; }
  double as_double() const { return to_double(raw, fmt); }
};

}  // namespace qta::fixed

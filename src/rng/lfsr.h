// Linear-feedback shift registers — the paper's random number source for
// action selection and MAB reward sampling ("implemented using linear
// feedback shift registers", Section IV-A).
//
// Galois form (one XOR level per shifted bit, the cheap FPGA realization)
// with published maximal-length tap polynomials for widths 8..64 bits.
// Each consumer in the pipeline owns its own LFSR instance so the stream
// seen per purpose is independent of pipeline interleaving — this is what
// makes the pipelined accelerator bit-identical to the sequential golden
// model (see qtaccel/golden_model.h).
#pragma once

#include <cstdint>

#include "common/check.h"

namespace qta::rng {

/// Maximal-length Galois LFSR of configurable width (2..64 bits).
class Lfsr {
 public:
  /// `width` selects the tap polynomial; `seed` is folded into the state
  /// (a zero fold is replaced by 1, since the all-zero state is absorbing).
  explicit Lfsr(unsigned width = 32, std::uint64_t seed = 0xace1u);

  /// Advances one step and returns the full register state.
  /// Inline: this is the innermost operation of every random draw in the
  /// simulator's hot loops (one call per output bit).
  std::uint64_t step() {
    reg_ = advance(reg_);
    return state();
  }

  /// Draws `n` (1..64) pseudo-random bits from the output stream: one
  /// register step per bit (the hardware unrolls the feedback n times in
  /// combinational logic to produce n bits per cycle). Bit-serial
  /// collection keeps successive draws decorrelated, which whole-register
  /// snapshots would not.
  std::uint64_t draw_bits(unsigned n) {
    QTA_CHECK(n >= 1 && n <= 64);
    // Output bit i is the MSB shifted out by step i. Each enters the
    // accumulator at bit 63 and moves down one place per step, so after
    // n steps bit i sits at 64 - n + i. The register stays in a local so
    // the loop carries one dependency chain.
    std::uint64_t acc = 0;
    std::uint64_t reg = reg_;
    for (unsigned i = 0; i < n; ++i) {
      acc = (acc >> 1) | (reg & kMsb);
      reg = advance(reg);
    }
    reg_ = reg;
    return acc >> (64 - n);
  }

  /// Uniform value in [0, bound) via the fixed-point multiply trick
  /// (one DSP): (draw * bound) >> width. Slight bias of bound/2^width,
  /// identical to the hardware shortcut the paper describes for indexing
  /// "one of the Q-values" directly.
  std::uint64_t below(std::uint64_t bound) {
    QTA_CHECK(bound >= 1);
    if (bound == 1) return 0;
    __extension__ typedef unsigned __int128 u128;
    const std::uint64_t draw = draw_bits(32);
    return static_cast<std::uint64_t>((static_cast<u128>(draw) * bound) >>
                                      32);
  }

  /// Uniform double in [0, 1) using width bits (capped at 53).
  double uniform();

  std::uint64_t state() const { return reg_ >> (64 - width_); }

  /// Restores a previously observed register state (snapshot resume).
  /// The state must be a value this register can actually hold: nonzero
  /// (the all-zero state is absorbing) and within the register width.
  void set_state(std::uint64_t state) {
    QTA_CHECK_MSG(state != 0 && (state & mask_) == state,
                  "LFSR state outside the register's reachable set");
    reg_ = state << (64 - width_);
  }

  unsigned width() const { return width_; }

  /// Flip-flop cost of this register, for the resource ledger.
  unsigned flip_flops() const { return width_; }

  /// Period of a maximal-length LFSR of this width: 2^width - 1.
  std::uint64_t period() const;

 private:
  static constexpr std::uint64_t kMsb = std::uint64_t{1} << 63;

  // The register is held left-aligned in 64 bits (its MSB at bit 63, the
  // low 64 - width bits zero), so a step needs no mask and reads the
  // output bit with a constant shift. One Galois left shift: the bit
  // leaving at the MSB re-enters through the polynomial taps. Masked
  // rather than selected (`out ? taps : 0` compiles to a jump on a random
  // bit, mispredicted half the time).
  std::uint64_t advance(std::uint64_t reg) const {
    return (reg << 1) ^ (taps_ & (0 - (reg >> 63)));
  }

  unsigned width_;
  std::uint64_t mask_;
  std::uint64_t taps_;  // left-aligned like reg_
  std::uint64_t reg_;
};

/// The tap polynomial (bit mask) used for a given width; exposed for tests
/// that verify maximal periods.
std::uint64_t lfsr_taps(unsigned width);

}  // namespace qta::rng

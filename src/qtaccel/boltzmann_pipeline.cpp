#include "qtaccel/boltzmann_pipeline.h"

#include "common/bit_math.h"
#include "common/check.h"
#include "fixed/math_lut.h"
#include "qtaccel/resources.h"
#include "rng/xoshiro.h"

namespace qta::qtaccel {

BoltzmannPipeline::BoltzmannPipeline(const env::Environment& env,
                                     const BoltzmannConfig& config)
    : env_(env),
      config_(config),
      map_(make_address_map(env)),
      coeff_([&] {
        PipelineConfig pc;
        pc.alpha = config.alpha;
        pc.gamma = config.gamma;
        pc.q_fmt = config.q_fmt;
        pc.coeff_fmt = config.coeff_fmt;
        return make_coefficients(pc);
      }()),
      exp_lut_(config.lut_lo, config.lut_hi, config.exp_lut_log2_entries,
               config.weight_fmt),
      q_table_("q_table", map_.depth(), config.q_fmt.width, 2),
      r_table_("reward_table", map_.depth(), config.q_fmt.width, 1),
      p_table_("probability_table", map_.depth(), config.weight_fmt.width,
               2),
      start_lfsr_(32, rng::SplitMix64(config.seed).next()),
      select_lfsr_(32,
                   rng::SplitMix64(config.seed ^ 0x1234abcdULL).next()) {
  QTA_CHECK(config.alpha > 0.0 && config.alpha <= 1.0);
  QTA_CHECK(config.gamma >= 0.0 && config.gamma < 1.0);
  QTA_CHECK_MSG(config.temperature > 0.0, "temperature must be positive");
  const std::vector<fixed::raw_t> rewards =
      reward_image(env, map_, config.q_fmt);
  for (StateId s = 0; s < env.num_states(); ++s) {
    for (ActionId a = 0; a < env.num_actions(); ++a) {
      r_table_.preset(map_.q_addr(s, a), rewards[map_.q_addr(s, a)]);
      // Uniform initial policy: all weights = exp(0 / T) = 1.
      p_table_.preset(map_.q_addr(s, a), refreshed_weight(0));
    }
  }
}

// Host-side readback of the stored Q/P words for tests and reporting.
// qtlint: push-allow(datapath-purity)
double BoltzmannPipeline::q_value(StateId s, ActionId a) const {
  return fixed::to_double(q_table_.peek(map_.q_addr(s, a)), config_.q_fmt);
}

double BoltzmannPipeline::weight(StateId s, ActionId a) const {
  return fixed::to_double(p_table_.peek(map_.q_addr(s, a)),
                          config_.weight_fmt);
}

double BoltzmannPipeline::action_probability(StateId s, ActionId a) const {
  double sum = 0.0;
  for (ActionId k = 0; k < env_.num_actions(); ++k) sum += weight(s, k);
  QTA_CHECK(sum > 0.0);
  return weight(s, a) / sum;
}
// qtlint: pop-allow(datapath-purity)

fixed::raw_t BoltzmannPipeline::refreshed_weight(fixed::raw_t q) const {
  // f = expLUT(Q / T). The division runs on the shift-subtract divider;
  // the LUT clamps its own domain.
  const fixed::raw_t scaled = fixed::div_fixed(
      q, config_.q_fmt, fixed::from_double(config_.temperature, {32, 16}),
      {32, 16}, {32, 16});
  fixed::raw_t w = exp_lut_.eval(scaled, {32, 16});
  // A zero weight would make a row unsamplable; the hardware ORs in the
  // LSB (weights are unnormalized, so the floor only matters near
  // underflow).
  if (w <= 0) w = 1;
  return w;
}

std::uint64_t BoltzmannPipeline::row_sum(StateId s) const {
  std::uint64_t sum = 0;
  for (ActionId a = 0; a < env_.num_actions(); ++a) {
    sum += static_cast<std::uint64_t>(p_table_.peek(map_.q_addr(s, a)));
  }
  return sum;
}

ActionId BoltzmannPipeline::sample_action(StateId s) {
  const std::uint64_t sum = row_sum(s);
  QTA_CHECK(sum > 0);
  __extension__ typedef unsigned __int128 u128;
  const std::uint64_t u = static_cast<std::uint64_t>(
      (static_cast<u128>(select_lfsr_.draw_bits(32)) * sum) >> 32);
  // Binary search over prefix sums: ceil(log2 |A|) sequential P reads.
  std::uint64_t prefix = 0;
  for (ActionId a = 0; a < env_.num_actions(); ++a) {
    prefix += static_cast<std::uint64_t>(p_table_.peek(map_.q_addr(s, a)));
    if (u < prefix) return a;
  }
  return env_.num_actions() - 1;
}

ActionId BoltzmannPipeline::sample_action_for_test(StateId s) {
  return sample_action(s);
}

void BoltzmannPipeline::run_samples(std::uint64_t samples) {
  const unsigned stall = log2_ceil(env_.num_actions());
  while (stats_.samples < samples) {
    if (episode_start_) {
      state_ = static_cast<StateId>(start_lfsr_.below(env_.num_states()));
      episode_steps_ = 0;
      pending_action_ = kInvalidAction;
      if (env_.is_terminal(state_)) {
        ++stats_.bubbles;
        ++stats_.cycles;
        continue;
      }
      episode_start_ = false;
    }

    // Behavior action: on-policy carry, fresh sample at episode start.
    const ActionId a = pending_action_ != kInvalidAction
                           ? pending_action_
                           : sample_action(state_);
    const StateId s = state_;
    const StateId s_next = env_.transition(s, a);
    const fixed::raw_t r = r_table_.peek(map_.q_addr(s, a));
    ++episode_steps_;
    const bool end = env_.is_terminal(s_next) ||
                     episode_steps_ >= config_.max_episode_length;

    // Stage 2: probability-table selection for S' (the stalling step).
    fixed::raw_t q_next = 0;
    ActionId a_next = kInvalidAction;
    if (!end) {
      a_next = sample_action(s_next);
      q_next = q_table_.peek(map_.q_addr(s_next, a_next));
    }

    // Stage 3: the standard three-product datapath.
    const fixed::Format qf = config_.q_fmt;
    const fixed::Format cf = config_.coeff_fmt;
    const fixed::raw_t q_old = q_table_.peek(map_.q_addr(s, a));
    const fixed::raw_t new_q = fixed::sat_add(
        fixed::sat_add(fixed::mul(r, qf, coeff_.alpha, cf, qf),
                       fixed::mul(q_old, qf, coeff_.one_minus_alpha, cf, qf),
                       qf),
        fixed::mul(q_next, qf, coeff_.alpha_gamma, cf, qf), qf);

    // Stage 4: Q write-back + probability refresh.
    q_table_.preset(map_.q_addr(s, a), new_q);
    p_table_.preset(map_.q_addr(s, a), refreshed_weight(new_q));

    ++stats_.samples;
    stats_.cycles += 1 + stall;
    stats_.selection_stall_cycles += stall;

    if (end) {
      ++stats_.episodes;
      episode_start_ = true;
    } else {
      state_ = s_next;
      pending_action_ = a_next;
    }
  }
}

hw::ResourceLedger BoltzmannPipeline::resources() const {
  PipelineConfig pc;
  pc.alpha = config_.alpha;
  pc.gamma = config_.gamma;
  pc.q_fmt = config_.q_fmt;
  pc.coeff_fmt = config_.coeff_fmt;
  // The probability variant carries no Qmax table (the paper's "3 |S|*|A|
  // sized tables": Q, R, P); kExactScan drops it from the ledger, and its
  // comparator-tree LUT term stands in for the prefix-sum adder row.
  pc.qmax = QmaxMode::kExactScan;
  return build_resources_with_probability_table(
      env_, pc, config_.exp_lut_log2_entries);
}

}  // namespace qta::qtaccel

#include "qtaccel/config.h"

#include <array>
#include <bit>
#include <cmath>
#include <utility>

#include "common/bit_math.h"
#include "common/check.h"
#include "env/grid_world.h"

namespace qta::qtaccel {

AddressMap make_address_map(const env::Environment& env) {
  QTA_CHECK_MSG(is_pow2(env.num_actions()),
                "the accelerator bit-concatenates {state, action}; the "
                "action count must be a power of two");
  AddressMap map;
  map.state_bits = log2_ceil(env.num_states());
  map.action_bits = log2_ceil(env.num_actions());
  return map;
}

std::vector<fixed::raw_t> reward_image(const env::Environment& env,
                                       const AddressMap& map,
                                       fixed::Format fmt) {
  // Rewards take few distinct values (a grid world pays three), so each
  // is quantized once and memoized by bit pattern, with the last hit
  // checked first (neighbouring entries mostly pay the same). from_double
  // is pure, so the image is bit-identical to quantizing every entry.
  std::array<std::pair<std::uint64_t, fixed::raw_t>, 8> memo{};
  std::size_t memo_size = 0;
  std::size_t hit = 0;
  const auto quantize = [&](double r) {
    const auto bits = std::bit_cast<std::uint64_t>(r);
    if (memo_size > 0 && memo[hit].first == bits) return memo[hit].second;
    for (hit = 0; hit < memo_size; ++hit) {
      if (memo[hit].first == bits) return memo[hit].second;
    }
    const fixed::raw_t raw = fixed::from_double(r, fmt);
    hit = 0;
    if (memo_size < memo.size()) {
      hit = memo_size++;
      memo[hit] = {bits, raw};
    }
    return raw;
  };
  std::vector<fixed::raw_t> image(map.depth(), 0);
  const auto fill = [&](const auto& e) {
    const StateId states = e.num_states();
    const ActionId actions = e.num_actions();
    for (StateId s = 0; s < states; ++s) {
      for (ActionId a = 0; a < actions; ++a) {
        image[map.q_addr(s, a)] = quantize(e.reward(s, a));
      }
    }
  };
  if (const auto* grid = dynamic_cast<const env::GridWorld*>(&env)) {
    fill(*grid);  // final class: reward() inlines
  } else {
    fill(env);
  }
  return image;
}

void validate_config(const PipelineConfig& config,
                     const env::Environment& env) {
  QTA_CHECK(env.num_states() >= 2);
  QTA_CHECK(env.num_actions() >= 2);
  QTA_CHECK_MSG(is_pow2(env.num_actions()),
                "action count must be a power of two");
  QTA_CHECK(config.alpha > 0.0 && config.alpha <= 1.0);
  QTA_CHECK(config.gamma >= 0.0 && config.gamma < 1.0);
  QTA_CHECK(config.epsilon >= 0.0 && config.epsilon <= 1.0);
  QTA_CHECK(config.epsilon_bits >= 4 && config.epsilon_bits <= 32);
  QTA_CHECK(config.max_episode_length >= 1);
  fixed::validate(config.q_fmt);
  fixed::validate(config.coeff_fmt);
  QTA_CHECK_MSG(config.coeff_fmt.max_value() >= 1.0,
                "coefficient format must represent 1.0 (for 1 - alpha)");
}

Backend parse_backend(const std::string& name) {
  if (name == "cycle" || name == "cycle-accurate") {
    return Backend::kCycleAccurate;
  }
  if (name == "lanes") return Backend::kLanes;
  QTA_CHECK_MSG(
      name == "fast",
      "--backend must be 'cycle' (cycle-accurate), 'fast', or 'lanes'");
  return Backend::kFast;
}

const char* backend_name(Backend backend) {
  switch (backend) {
    case Backend::kCycleAccurate: return "cycle";
    case Backend::kFast: return "fast";
    case Backend::kLanes: return "lanes";
  }
  return "cycle";
}

const char* algorithm_name(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kQLearning: return "q_learning";
    case Algorithm::kSarsa: return "sarsa";
    case Algorithm::kExpectedSarsa: return "expected_sarsa";
    case Algorithm::kDoubleQ: return "double_q";
  }
  return "unknown";
}

const char* qmax_name(QmaxMode qmax) {
  return qmax == QmaxMode::kMonotoneTable ? "monotone" : "exact";
}

const char* hazard_name(HazardMode hazard) {
  return hazard == HazardMode::kForward ? "forward" : "stall";
}

telemetry::RunLabels make_run_labels(const PipelineConfig& config,
                                     unsigned pipe) {
  telemetry::RunLabels labels;
  labels.algorithm = algorithm_name(config.algorithm);
  labels.qmax = qmax_name(config.qmax);
  labels.hazard = hazard_name(config.hazard);
  labels.backend = backend_name(config.backend);
  labels.pipe = pipe;
  return labels;
}

std::uint64_t epsilon_threshold(double epsilon, unsigned bits) {
  QTA_CHECK(epsilon >= 0.0 && epsilon <= 1.0);
  QTA_CHECK(bits >= 1 && bits <= 32);
  const double span = static_cast<double>(std::uint64_t{1} << bits);
  return static_cast<std::uint64_t>(std::llround((1.0 - epsilon) * span));
}

Coefficients make_coefficients(const PipelineConfig& config) {
  Coefficients c;
  c.alpha = fixed::from_double(config.alpha, config.coeff_fmt);
  // 1 - alpha via the stage-1 saturating subtractor, from the quantized
  // alpha (so alpha + (1-alpha) == 1 exactly in fixed point).
  const fixed::raw_t one = fixed::from_double(1.0, config.coeff_fmt);
  c.one_minus_alpha = fixed::sat_sub(one, c.alpha, config.coeff_fmt);
  // alpha * gamma through DSP #1's rounding.
  const fixed::raw_t gamma = fixed::from_double(config.gamma,
                                                config.coeff_fmt);
  c.alpha_gamma = fixed::mul(c.alpha, config.coeff_fmt, gamma,
                             config.coeff_fmt, config.coeff_fmt);
  c.epsilon = fixed::from_double(config.epsilon, config.coeff_fmt);
  c.one_minus_epsilon = fixed::sat_sub(one, c.epsilon, config.coeff_fmt);
  return c;
}

fixed::raw_t expected_sarsa_target(fixed::raw_t row_max,
                                   fixed::raw_t row_sum,
                                   unsigned action_bits,
                                   const Coefficients& coeff,
                                   fixed::Format q_fmt,
                                   fixed::Format coeff_fmt) {
  const fixed::raw_t mean = fixed::rshift_round(row_sum, action_bits);
  const fixed::raw_t term_max =
      fixed::mul(row_max, q_fmt, coeff.one_minus_epsilon, coeff_fmt, q_fmt);
  const fixed::raw_t term_mean =
      fixed::mul(mean, q_fmt, coeff.epsilon, coeff_fmt, q_fmt);
  return fixed::sat_add(term_max, term_mean, q_fmt);
}

}  // namespace qta::qtaccel

#include "qtaccel/golden_model.h"

#include "common/check.h"

namespace qta::qtaccel {

GoldenModel::GoldenModel(const env::Environment& env,
                         const PipelineConfig& config)
    : env_(env),
      config_(config),
      map_(make_address_map(env)),
      coeff_(make_coefficients(config)),
      eps_threshold_(
          epsilon_threshold(config.epsilon, config.epsilon_bits)),
      rng_(config.seed, map_) {
  validate_config(config, env);
  q_.assign(map_.depth(), 0);
  if (config.algorithm == Algorithm::kDoubleQ) {
    q2_.assign(map_.depth(), 0);
  }
  reward_ = reward_image(env, map_, config.q_fmt);
  qmax_value_.assign(env.num_states(), 0);
  qmax_action_.assign(env.num_states(), 0);
}

fixed::raw_t GoldenModel::q_raw(StateId s, ActionId a) const {
  return q_[map_.q_addr(s, a)];
}

double GoldenModel::q_value(StateId s, ActionId a) const {
  if (config_.algorithm == Algorithm::kDoubleQ) {
    return (fixed::to_double(q_raw(s, a), config_.q_fmt) +
            fixed::to_double(q2_[map_.q_addr(s, a)], config_.q_fmt)) /
           2.0;
  }
  return fixed::to_double(q_raw(s, a), config_.q_fmt);
}

fixed::raw_t GoldenModel::q2_raw(StateId s, ActionId a) const {
  QTA_CHECK(config_.algorithm == Algorithm::kDoubleQ);
  return q2_[map_.q_addr(s, a)];
}

std::vector<double> GoldenModel::q_as_double() const {
  std::vector<double> out;
  out.reserve(env_.table_size());
  for (StateId s = 0; s < env_.num_states(); ++s) {
    for (ActionId a = 0; a < env_.num_actions(); ++a) {
      double v = q_value(s, a);
      if (config_.algorithm == Algorithm::kDoubleQ) {
        v = (v + fixed::to_double(q2_[map_.q_addr(s, a)], config_.q_fmt)) /
            2.0;
      }
      out.push_back(v);
    }
  }
  return out;
}

fixed::raw_t GoldenModel::qmax_value(StateId s) const {
  QTA_CHECK(s < env_.num_states());
  return qmax_value_[s];
}

ActionId GoldenModel::qmax_action(StateId s) const {
  QTA_CHECK(s < env_.num_states());
  return qmax_action_[s];
}

void GoldenModel::exact_row_max(const std::vector<fixed::raw_t>& table,
                                StateId s, fixed::raw_t& value,
                                ActionId& action) const {
  value = table[map_.q_addr(s, 0)];
  action = 0;
  for (ActionId a = 1; a < env_.num_actions(); ++a) {
    const fixed::raw_t v = table[map_.q_addr(s, a)];
    if (v > value) {
      value = v;
      action = a;
    }
  }
}

void GoldenModel::run(std::uint64_t iterations) {
  for (std::uint64_t i = 0; i < iterations; ++i) run_one();
}

void GoldenModel::run_one() {
  ++counters_.iterations;
  SampleTrace tr;

  if (episode_start_) {
    state_ = rng_.draw_start_state(env_.num_states());
    episode_steps_ = 0;
    pending_action_ = kInvalidAction;
    if (env_.is_terminal(state_)) {
      // Zero-length episode: redraw next iteration.
      ++counters_.bubbles;
      tr.bubble = true;
      tr.state = state_;
      if (trace_) trace_->push_back(tr);
      return;
    }
  }

  // --- behavior action (stage 1) ---
  const bool random_behavior =
      config_.algorithm == Algorithm::kQLearning ||
      config_.algorithm == Algorithm::kDoubleQ;
  ActionId a;
  if (random_behavior || episode_start_) {
    a = rng_.draw_random_action();
  } else {
    QTA_DCHECK(pending_action_ != kInvalidAction);
    a = pending_action_;
  }
  episode_start_ = false;

  // Double Q-Learning: coin-flip which table learns this sample.
  const unsigned table = config_.algorithm == Algorithm::kDoubleQ
                             ? rng_.draw_table_select()
                             : 0;
  std::vector<fixed::raw_t>& learn =
      table == 1 ? q2_ : q_;
  const std::vector<fixed::raw_t>& eval =
      config_.algorithm == Algorithm::kDoubleQ && table == 0 ? q2_ : q_;

  const StateId s = state_;
  const unsigned noise_bits = env_.transition_noise_bits();
  const StateId s_next =
      noise_bits == 0
          ? env_.transition(s, a)
          : env_.transition(s, a, rng_.draw_transition_noise(noise_bits));
  const fixed::raw_t r = reward_[map_.q_addr(s, a)];
  ++episode_steps_;
  const bool end = env_.is_terminal(s_next) ||
                   episode_steps_ >= config_.max_episode_length;

  // --- update-policy action and Q(S', A') (stage 2) ---
  fixed::raw_t q_next = 0;
  ActionId a_next = kInvalidAction;
  if (!end) {
    if (config_.algorithm == Algorithm::kQLearning) {
      if (config_.qmax == QmaxMode::kMonotoneTable) {
        q_next = qmax_value_[s_next];
      } else {
        ActionId ignored;
        exact_row_max(q_, s_next, q_next, ignored);
      }
    } else if (config_.algorithm == Algorithm::kDoubleQ) {
      // argmax under the learning table, value from the other table.
      fixed::raw_t ignored;
      ActionId argmax;
      exact_row_max(learn, s_next, ignored, argmax);
      q_next = eval[map_.q_addr(s_next, argmax)];
    } else if (config_.algorithm == Algorithm::kSarsa) {
      const RngBank::EpsilonDraw d =
          rng_.draw_epsilon(eps_threshold_, config_.epsilon_bits);
      if (d.greedy) {
        if (config_.qmax == QmaxMode::kMonotoneTable) {
          q_next = qmax_value_[s_next];
          a_next = qmax_action_[s_next];
        } else {
          exact_row_max(q_, s_next, q_next, a_next);
        }
      } else {
        a_next = d.explore_action;
        q_next = q_[map_.q_addr(s_next, a_next)];
      }
    } else {  // Expected SARSA: full-row scan + expectation
      const RngBank::EpsilonDraw d =
          rng_.draw_epsilon(eps_threshold_, config_.epsilon_bits);
      fixed::raw_t row_max;
      ActionId argmax;
      exact_row_max(q_, s_next, row_max, argmax);
      fixed::raw_t row_sum = 0;
      for (ActionId k = 0; k < env_.num_actions(); ++k) {
        row_sum += q_[map_.q_addr(s_next, k)];
      }
      a_next = d.greedy ? argmax : d.explore_action;
      q_next = expected_sarsa_target(row_max, row_sum, map_.action_bits,
                                     coeff_, config_.q_fmt,
                                     config_.coeff_fmt);
    }
  }

  // --- the three DSP products and the saturating adder tree (stage 3) ---
  const fixed::Format qf = config_.q_fmt;
  const fixed::Format cf = config_.coeff_fmt;
  const fixed::raw_t term_r = fixed::mul(r, qf, coeff_.alpha, cf, qf);
  const fixed::raw_t q_old = learn[map_.q_addr(s, a)];
  const fixed::raw_t term_old =
      fixed::mul(q_old, qf, coeff_.one_minus_alpha, cf, qf);
  const fixed::raw_t term_next =
      fixed::mul(q_next, qf, coeff_.alpha_gamma, cf, qf);
  const fixed::raw_t new_q =
      fixed::sat_add(fixed::sat_add(term_r, term_old, qf), term_next, qf);

  // --- write-back (stage 4) ---
  // (Expected SARSA and Double-Q carry no Qmax table.)
  learn[map_.q_addr(s, a)] = new_q;
  if (config_.algorithm != Algorithm::kExpectedSarsa &&
      config_.algorithm != Algorithm::kDoubleQ &&
      config_.qmax == QmaxMode::kMonotoneTable && new_q > qmax_value_[s]) {
    qmax_value_[s] = new_q;
    qmax_action_[s] = a;
  }

  ++counters_.samples;
  tr.state = s;
  tr.action = a;
  tr.reward = r;
  tr.new_q = new_q;
  tr.next_state = s_next;
  tr.end_episode = end;
  tr.table = table;
  if (trace_) trace_->push_back(tr);

  if (end) {
    ++counters_.episodes;
    episode_start_ = true;
  } else {
    state_ = s_next;
    pending_action_ = a_next;  // kInvalidAction for Q-Learning (unused)
  }
}

}  // namespace qta::qtaccel

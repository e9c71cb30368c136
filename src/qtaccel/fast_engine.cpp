#include "qtaccel/fast_engine.h"

#include <algorithm>
#include <initializer_list>

#include "common/check.h"
#include "env/grid_world.h"
#include "env/value_iteration.h"
#include "qtaccel/machine_state.h"

namespace qta::qtaccel {

namespace {
// Transition tables are pre-baked only while they stay cache-resident
// (2^16 entries = 256 KiB of StateId). Beyond that the lookup becomes a
// data-dependent random walk through DRAM/LLC — one serialized miss per
// sample, the slowest possible critical path — while environments compute
// transitions with a few ALU ops; the inner loop then calls the
// environment directly.
constexpr std::uint64_t kMaxPrebakedTransitions = std::uint64_t{1} << 16;

// Q-Learning and Double-Q draw the behaviour action at random, so their
// walk never reads Q and runs kLookAhead iterations ahead of the update,
// far enough for its prefetches to land. SARSA and Expected SARSA act on
// the update's A', so their walk can only run one iteration ahead.
template <Algorithm kAlgo>
constexpr bool kRandomBehavior =
    kAlgo == Algorithm::kQLearning || kAlgo == Algorithm::kDoubleQ;
template <Algorithm kAlgo>
constexpr std::uint64_t kLookAhead = kRandomBehavior<kAlgo> ? 16 : 1;

// Read-ahead hint for table rows whose index is known before use. No-op
// where unsupported.
inline void prefetch_ro(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}
}  // namespace

FastEngine::FastEngine(const env::Environment& env,
                       const PipelineConfig& config)
    : env_(env),
      config_(config),
      map_(make_address_map(env)),
      coeff_(make_coefficients(config)),
      dsp_(config.q_fmt, config.coeff_fmt, config.q_fmt),
      eps_threshold_(
          epsilon_threshold(config.epsilon, config.epsilon_bits)),
      rng_(config.seed, map_) {
  validate_config(config, env);
  q_.assign(map_.depth(), 0);
  if (config.algorithm == Algorithm::kDoubleQ) {
    q2_.assign(map_.depth(), 0);
  }
  qmax_value_.assign(env.num_states(), 0);
  qmax_action_.assign(env.num_states(), 0);

  terminal_.assign(env.num_states(), 0);
  for (StateId s = 0; s < env.num_states(); ++s) {
    terminal_[s] = env.is_terminal(s) ? 1 : 0;
  }
  // Fresh engine: conservative all-dirty epoch (see machine_state.h).
  dirty_rows_.assign(env.num_states(), 0);
  dirty_all_ = true;
  noise_bits_ = env.transition_noise_bits();
  if (noise_bits_ == 0) {
    grid_ = dynamic_cast<const env::GridWorld*>(&env);
  }
  if (grid_ != nullptr) {
    // A grid world pays one of three rewards, by move outcome: quantize
    // each once, exactly as reward_image would, and build no image.
    for (const auto o : {env::GridWorld::Outcome::kMove,
                         env::GridWorld::Outcome::kBump,
                         env::GridWorld::Outcome::kGoal}) {
      grid_reward_[static_cast<std::size_t>(o)] =
          fixed::from_double(grid_->outcome_reward(o), config.q_fmt);
    }
    return;
  }
  reward_ = reward_image(env, map_, config.q_fmt);
  if (noise_bits_ == 0 && env.table_size() <= kMaxPrebakedTransitions) {
    next_.resize(env.table_size());
    for (StateId s = 0; s < env.num_states(); ++s) {
      for (ActionId a = 0; a < env.num_actions(); ++a) {
        next_[map_.q_addr(s, a)] = env.transition(s, a);
      }
    }
  }
}

fixed::raw_t FastEngine::q_raw(StateId s, ActionId a) const {
  return q_[map_.q_addr(s, a)];
}

fixed::raw_t FastEngine::q2_raw(StateId s, ActionId a) const {
  QTA_CHECK(config_.algorithm == Algorithm::kDoubleQ);
  return q2_[map_.q_addr(s, a)];
}

// Host-side readback, identical to Pipeline's (nothing feeds back into
// the replay).
// qtlint: push-allow(datapath-purity)
double FastEngine::q_value(StateId s, ActionId a) const {
  if (config_.algorithm == Algorithm::kDoubleQ) {
    return (fixed::to_double(q_raw(s, a), config_.q_fmt) +
            fixed::to_double(q2_[map_.q_addr(s, a)], config_.q_fmt)) /
           2.0;
  }
  return fixed::to_double(q_raw(s, a), config_.q_fmt);
}

std::vector<double> FastEngine::q_as_double() const {
  std::vector<double> out;
  out.reserve(env_.table_size());
  for (StateId s = 0; s < env_.num_states(); ++s) {
    for (ActionId a = 0; a < env_.num_actions(); ++a) {
      out.push_back(q_value(s, a));
    }
  }
  return out;
}
// qtlint: pop-allow(datapath-purity)

std::vector<ActionId> FastEngine::greedy_policy() const {
  return env::greedy_policy_from(env_, q_as_double());
}

QmaxUnit::Entry FastEngine::qmax_entry(StateId s) const {
  QTA_CHECK(s < env_.num_states());
  return {qmax_value_[s], qmax_action_[s]};
}

void FastEngine::preset_q(StateId s, ActionId a, fixed::raw_t value) {
  q_[map_.q_addr(s, a)] = fixed::saturate(value, config_.q_fmt);
  dirty_rows_[s] = 1;
}

void FastEngine::rebuild_qmax() {
  if (config_.qmax != QmaxMode::kMonotoneTable ||
      config_.algorithm == Algorithm::kExpectedSarsa ||
      config_.algorithm == Algorithm::kDoubleQ) {
    return;  // no Qmax table in these configurations
  }
  for (StateId s = 0; s < env_.num_states(); ++s) {
    fixed::raw_t value;
    ActionId action;
    exact_row_max(q_, s, value, action);
    // The monotone table never reports below its reset value of 0.
    if (value < 0) {
      value = 0;
      action = 0;
    }
    qmax_value_[s] = value;
    qmax_action_[s] = action;
  }
  // Every Qmax row was rewritten (possibly lowered below the old
  // monotone value), so the epoch collapses to all-dirty.
  dirty_all_ = true;
}

void FastEngine::exact_row_max(const std::vector<fixed::raw_t>& table,
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

template <Algorithm kAlgo, bool kMono>
FastEngine::Walk FastEngine::walk_t() {
  Walk w;
  if (episode_start_) {
    state_ = rng_.draw_start_state(env_.num_states());
    episode_steps_ = 0;
    pending_action_ = kInvalidAction;
    if (is_terminal(state_)) {
      // Zero-length episode: redraw next iteration. The bubble occupies
      // a pipeline slot but retires no sample.
      w.s = state_;
      w.bubble = true;
      return w;
    }
  }

  // --- behavior action (stage 1) ---
  if (kRandomBehavior<kAlgo> || episode_start_) {
    w.a = rng_.draw_random_action();
  } else {
    QTA_DCHECK(pending_action_ != kInvalidAction);
    w.a = pending_action_;
  }
  episode_start_ = false;
  if constexpr (kAlgo == Algorithm::kDoubleQ) {
    w.table = rng_.draw_table_select();
  }

  w.s = state_;
  const std::uint64_t sa_addr = map_.q_addr(w.s, w.a);
  if (grid_ != nullptr) {
    // GridWorld is final, so this call devirtualizes and inlines — the
    // paper's evaluation workload moves with a handful of ALU ops, and
    // the outcome of the move is the reward.
    const env::GridWorld::Move m = grid_->move(w.s, w.a);
    w.s_next = m.next;
    w.r = grid_reward_[static_cast<std::size_t>(m.outcome)];
  } else {
    if (!next_.empty()) {
      w.s_next = next_[sa_addr];
    } else if (noise_bits_ == 0) {
      w.s_next = env_.transition(w.s, w.a);
    } else {
      w.s_next = env_.transition(w.s, w.a,
                                 rng_.draw_transition_noise(noise_bits_));
    }
    w.r = reward_[sa_addr];
  }
  ++episode_steps_;
  w.end = is_terminal(w.s_next) ||
          episode_steps_ >= config_.max_episode_length;
  if (w.end) {
    episode_start_ = true;
  } else {
    state_ = w.s_next;
  }

  // This iteration's update, up to kLookAhead iterations from now, reads
  // Q(s, a) and the Qmax entry or Q row(s) of s'; the addresses are known
  // now, so start the (random, hence hardware-prefetcher-proof) fetches.
  // A row can straddle a cache line, so touch both ends.
  std::vector<fixed::raw_t>& learn = w.table == 1 ? q2_ : q_;
  prefetch_ro(&learn[sa_addr]);
  const std::uint64_t row = map_.q_addr(w.s_next, 0);
  const std::uint64_t row_end =
      row + ((std::uint64_t{1} << map_.action_bits) - 1);
  if (kMono && (kAlgo == Algorithm::kQLearning ||
                kAlgo == Algorithm::kSarsa)) {
    prefetch_ro(&qmax_value_[w.s_next]);
  }
  if (!kMono || kAlgo != Algorithm::kQLearning) {
    prefetch_ro(&q_[row]);
    prefetch_ro(&q_[row_end]);
    if constexpr (kAlgo == Algorithm::kDoubleQ) {
      prefetch_ro(&q2_[row]);
      prefetch_ro(&q2_[row_end]);
    }
  }
  if (!reward_.empty()) {
    // The next walk reads the reward row of s'.
    prefetch_ro(&reward_[row]);
    prefetch_ro(&reward_[row_end]);
  }
  return w;
}

template <Algorithm kAlgo, bool kMono, bool kCountFwd, bool kTel>
void FastEngine::update_t(const Walk& w) {
  const std::uint64_t iter = stats_.iterations;  // 0-based event index
  ++stats_.iterations;
  ++stats_.issued;

  if (w.bubble) {
    // The bubble advances the raise window but pushes no write-back.
    ++stats_.bubbles;
    raise_ring_[1] = raise_ring_[0];
    raise_ring_[0] = {kInvalidState, false};
    if (trace_) {
      SampleTrace tr;
      tr.bubble = true;
      tr.state = w.s;
      trace_->push_back(tr);
    }
    if constexpr (kTel) {
      telemetry::StepEvent ev;
      ev.iteration = iter;
      ev.bubble = true;
      telemetry_->on_step(ev);
    }
    return;
  }

  const StateId s = w.s;
  const ActionId a = w.a;
  const StateId s_next = w.s_next;
  const bool end = w.end;
  const unsigned table = w.table;
  std::vector<fixed::raw_t>& learn = table == 1 ? q2_ : q_;
  const std::vector<fixed::raw_t>& eval =
      kAlgo == Algorithm::kDoubleQ && table == 0 ? q2_ : q_;
  const std::uint64_t sa_addr = map_.q_addr(s, a);

  // In stall mode nothing raises Qmax ahead of BRAM commit (the next
  // iteration only issues once the pipe drained), so the fwd_qmax
  // counter (kCountFwd) never fires; the queue-address matches below
  // still do, because WritebackQueue entries are matched by address
  // equality and are never retired from the registers.

  // Telemetry deltas: fwd_qmax can bump in the stage-2 block below, the
  // saturation counters in the stage-3 arithmetic.
  const std::uint64_t tel_fwd_qmax_before = stats_.fwd_qmax;
  const std::uint64_t tel_sat_before =
      stats_.adder_saturations + dsp_saturations();

  // --- update-policy action and Q(S', A') (stage 2) ---
  fixed::raw_t q_next = 0;
  ActionId a_next = kInvalidAction;
  std::uint64_t fwd_next_addr = kNoAddr;  // set when the pipeline would
                                          // forward this read in stage 3
  if (!end) {
    if constexpr (kAlgo == Algorithm::kQLearning) {
      if constexpr (kMono) {
        q_next = qmax_value_[s_next];
        if (kCountFwd && raise_hit(s_next)) ++stats_.fwd_qmax;
      } else {
        ActionId ignored;
        exact_row_max(q_, s_next, q_next, ignored);
      }
    } else if constexpr (kAlgo == Algorithm::kDoubleQ) {
      // argmax under the learning table, value from the other table
      // (the cross read the pipeline forwards in stage 3).
      fixed::raw_t ignored;
      ActionId argmax;
      exact_row_max(learn, s_next, ignored, argmax);
      q_next = eval[map_.q_addr(s_next, argmax)];
      fwd_next_addr = map_.tagged_addr(table == 1 ? 0 : 1, s_next, argmax);
    } else if constexpr (kAlgo == Algorithm::kSarsa) {
      const RngBank::EpsilonDraw d =
          rng_.draw_epsilon(eps_threshold_, config_.epsilon_bits);
      if (d.greedy) {
        if constexpr (kMono) {
          q_next = qmax_value_[s_next];
          a_next = qmax_action_[s_next];
          if (kCountFwd && raise_hit(s_next)) ++stats_.fwd_qmax;
        } else {
          exact_row_max(q_, s_next, q_next, a_next);
        }
      } else {
        a_next = d.explore_action;
        q_next = q_[map_.q_addr(s_next, a_next)];
        // The exploratory read rides the next iteration's stage-1 port
        // and is forwarded in stage 3.
        fwd_next_addr = map_.tagged_addr(0, s_next, a_next);
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

  // --- stage-3 forwarding-hit reconstruction ---
  const std::uint64_t tagged_sa = map_.tagged_addr(table, s, a);
  std::uint8_t tel_sa_dist = 0;
  std::uint8_t tel_next_dist = 0;
  if (wb_hit(tagged_sa)) {
    ++stats_.fwd_q_sa;
    if constexpr (kTel) tel_sa_dist = ring_distance(tagged_sa);
  }
  if (fwd_next_addr != kNoAddr && wb_hit(fwd_next_addr)) {
    ++stats_.fwd_q_next;
    if constexpr (kTel) tel_next_dist = ring_distance(fwd_next_addr);
  }

  // --- the three DSP products and the saturating adder tree (stage 3) ---
  const fixed::Format qf = config_.q_fmt;
  bool sat_r = false, sat_old = false, sat_next = false;
  const fixed::raw_t term_r = dsp_(w.r, coeff_.alpha, &sat_r);
  const fixed::raw_t q_old = learn[sa_addr];
  const fixed::raw_t term_old = dsp_(q_old, coeff_.one_minus_alpha, &sat_old);
  const fixed::raw_t term_next = dsp_(q_next, coeff_.alpha_gamma, &sat_next);
  dsp_saturations_[0] += sat_r ? 1u : 0u;
  dsp_saturations_[1] += sat_old ? 1u : 0u;
  dsp_saturations_[2] += sat_next ? 1u : 0u;
  bool sat1 = false, sat2 = false;
  const fixed::raw_t new_q =
      fixed::sat_add(fixed::sat_add(term_r, term_old, qf, &sat1),
                     term_next, qf, &sat2);
  if (sat1) ++stats_.adder_saturations;
  if (sat2) ++stats_.adder_saturations;

  // --- write-back (stage 4) ---
  learn[sa_addr] = new_q;
  dirty_rows_[s] = 1;
  bool raised = false;
  if constexpr (kAlgo != Algorithm::kExpectedSarsa &&
                kAlgo != Algorithm::kDoubleQ && kMono) {
    if (new_q > qmax_value_[s]) {
      qmax_value_[s] = new_q;
      qmax_action_[s] = a;
      raised = true;
    }
  }

  // Advance the reconstruction windows: the write-back ring mirrors the
  // forwarding queue (samples only), the raise ring advances for every
  // iteration (pipeline slots).
  wb_ring_[2] = wb_ring_[1];
  wb_ring_[1] = wb_ring_[0];
  wb_ring_[0] = tagged_sa;
  raise_ring_[1] = raise_ring_[0];
  raise_ring_[0] = {s, raised};

  ++stats_.samples;
  if (trace_) {
    SampleTrace tr;
    tr.state = s;
    tr.action = a;
    tr.reward = w.r;
    tr.new_q = new_q;
    tr.next_state = s_next;
    tr.end_episode = end;
    tr.table = table;
    trace_->push_back(tr);
  }

  if constexpr (kTel) {
    telemetry::StepEvent ev;
    ev.iteration = iter;
    ev.episode_end = end;
    ev.fwd_sa_distance = tel_sa_dist;
    ev.fwd_next_distance = tel_next_dist;
    ev.fwd_qmax = stats_.fwd_qmax != tel_fwd_qmax_before;
    ev.saturations = static_cast<std::uint8_t>(
        stats_.adder_saturations + dsp_saturations() - tel_sat_before);
    ev.qmax_raised = raised;
    telemetry_->on_step(ev);
  }

  if (end) {
    ++stats_.episodes;
  } else {
    pending_action_ = a_next;  // kInvalidAction for Q-Learning (unused)
  }
}

template <Algorithm kAlgo, bool kMono, bool kCountFwd, bool kTel>
void FastEngine::run_steps(std::uint64_t iterations,
                           std::uint64_t sample_target) {
  // The walk runs up to kLookAhead iterations ahead of the update, in a
  // ring of records. It stops exactly where a one-at-a-time loop would:
  // after `iterations` records, or at the record that brings its own
  // sample count (bubbles retire none) to `sample_target`.
  constexpr std::uint64_t kAhead = kLookAhead<kAlgo>;
  std::array<Walk, kAhead> ring;
  std::uint64_t walked = 0;
  std::uint64_t walked_samples = stats_.samples;
  const auto more = [&] {
    return sample_target != 0 ? walked_samples < sample_target
                              : walked < iterations;
  };
  std::uint64_t updated = 0;
  // Walk while the ring has room and work remains; otherwise retire the
  // oldest record.
  for (;;) {
    if (walked - updated < kAhead && more()) {
      Walk& w = ring[walked++ % kAhead];
      w = walk_t<kAlgo, kMono>();
      walked_samples += w.bubble ? 0 : 1;
      continue;
    }
    if (updated == walked) break;
    update_t<kAlgo, kMono, kCountFwd, kTel>(ring[updated++ % kAhead]);
  }
}

template <Algorithm kAlgo, bool kMono, bool kCountFwd>
void FastEngine::run_steps_any(std::uint64_t iterations,
                               std::uint64_t sample_target) {
  if (telemetry_ != nullptr) {
    run_steps<kAlgo, kMono, kCountFwd, true>(iterations, sample_target);
  } else {
    run_steps<kAlgo, kMono, kCountFwd, false>(iterations, sample_target);
  }
}

template <Algorithm kAlgo>
void FastEngine::run_algo(std::uint64_t iterations,
                          std::uint64_t sample_target) {
  const bool mono = config_.qmax == QmaxMode::kMonotoneTable;
  if (mono && config_.hazard == HazardMode::kForward) {
    run_steps_any<kAlgo, true, true>(iterations, sample_target);
  } else if (mono) {
    run_steps_any<kAlgo, true, false>(iterations, sample_target);
  } else {
    run_steps_any<kAlgo, false, false>(iterations, sample_target);
  }
}

void FastEngine::run_steps_dispatch(std::uint64_t iterations,
                                    std::uint64_t sample_target) {
  switch (config_.algorithm) {
    case Algorithm::kQLearning:
      run_algo<Algorithm::kQLearning>(iterations, sample_target);
      return;
    case Algorithm::kSarsa:
      run_algo<Algorithm::kSarsa>(iterations, sample_target);
      return;
    case Algorithm::kExpectedSarsa:
      run_algo<Algorithm::kExpectedSarsa>(iterations, sample_target);
      return;
    case Algorithm::kDoubleQ:
      run_algo<Algorithm::kDoubleQ>(iterations, sample_target);
      return;
  }
  QTA_CHECK_MSG(false, "unknown algorithm");
}

void FastEngine::run_iterations(std::uint64_t n) {
  if (n == 0) return;
  // The previous call ended with a full drain, committing every
  // in-flight Qmax raise; only raises from THIS call can be ahead of
  // the BRAM. (The write-back address ring persists: queue entries are
  // registers that never age out.)
  raise_ring_ = {};
  run_steps_dispatch(n, 0);
  telemetry::RunEvent run;
  run.issue_cycles = n;
  if (config_.hazard == HazardMode::kForward) {
    // n issue ticks, then the 3-cycle drain of stages 2..4.
    stats_.cycles += n + 3;
    run.drain_cycles = 3;
  } else {
    // One issue per 4 cycles; the final iteration's trailing cycles are
    // drain ticks, which do not count as stalls.
    stats_.cycles += 4 * n;
    stats_.stall_cycles += 3 * (n - 1);
    run.stall_cycles = 3 * (n - 1);
    run.drain_cycles = 3;  // 4n == n issue + 3(n-1) stall + 3 drain
  }
  if (telemetry_ != nullptr) telemetry_->on_run(run);
}

void FastEngine::run_samples(std::uint64_t n) {
  if (stats_.samples >= n) return;  // the pipeline would not tick at all
  raise_ring_ = {};  // fresh call: the prior drain committed all raises
  const std::uint64_t iterations_before = stats_.iterations;
  run_steps_dispatch(0, n);
  telemetry::RunEvent run;
  if (config_.hazard == HazardMode::kForward) {
    // The pipeline keeps issuing while the n-th sample drains toward
    // stage 4, so exactly 3 extra iterations are in flight when the loop
    // exits; they retire during the drain.
    run_steps_dispatch(3, 0);
    run.issue_cycles = stats_.iterations - iterations_before;
    run.drain_cycles = 3;
    stats_.cycles += run.issue_cycles + 3;
  } else {
    // Stall mode retires before the next issue: no overshoot, and the
    // run ends exactly as the n-th sample commits.
    const std::uint64_t k = stats_.iterations - iterations_before;
    stats_.cycles += 4 * k;
    stats_.stall_cycles += 3 * k;
    run.issue_cycles = k;
    run.stall_cycles = 3 * k;
  }
  if (telemetry_ != nullptr) telemetry_->on_run(run);
}

MachineState FastEngine::save_state() const {
  MachineState ms;
  ms.q = q_;
  ms.q2 = q2_;
  ms.qmax_value = qmax_value_;
  ms.qmax_action = qmax_action_;
  ms.rng = rng_.lfsr_state();
  ms.episode_start = episode_start_;
  ms.state = state_;
  ms.pending_action = pending_action_;
  ms.episode_steps = episode_steps_;
  // kNoAddr and MachineState::kNoWriteback are both ~0, so the ring maps
  // across without translation.
  static_assert(kNoAddr == MachineState::kNoWriteback);
  ms.wb_addrs = wb_ring_;
  ms.stats = stats_;
  ms.dsp_saturations = dsp_saturations_;
  ms.dirty.rows = dirty_rows_;
  ms.dirty.all = dirty_all_;
  return ms;
}

void FastEngine::load_state(const MachineState& ms) {
  QTA_CHECK_MSG(ms.q.size() == q_.size(),
                "machine state does not match the engine's table geometry");
  QTA_CHECK_MSG(ms.q2.size() == q2_.size(),
                "machine state and engine disagree on the second Q table");
  QTA_CHECK_MSG(ms.qmax_value.size() == qmax_value_.size() &&
                    ms.qmax_action.size() == qmax_action_.size(),
                "machine state does not match the engine's state count");
  q_ = ms.q;
  q2_ = ms.q2;
  qmax_value_ = ms.qmax_value;
  qmax_action_ = ms.qmax_action;
  rng_.set_lfsr_state(ms.rng);
  episode_start_ = ms.episode_start;
  state_ = ms.state;
  pending_action_ = ms.pending_action;
  episode_steps_ = ms.episode_steps;
  wb_ring_ = ms.wb_addrs;
  // The raise ring is intentionally NOT restored: states are saved
  // post-drain, where every raise has committed, and run_* resets the
  // ring at entry anyway (machine_state.h spells out the invariant).
  raise_ring_ = {};
  stats_ = ms.stats;
  dsp_saturations_ = ms.dsp_saturations;

  // Adopt the carried dirty-row epoch; any mismatch (or a
  // default-constructed DirtyRows) collapses to conservative all-dirty.
  if (!ms.dirty.all && ms.dirty.rows.size() == dirty_rows_.size()) {
    dirty_rows_ = ms.dirty.rows;
    dirty_all_ = false;
  } else {
    std::fill(dirty_rows_.begin(), dirty_rows_.end(), 0);
    dirty_all_ = true;
  }
}

void FastEngine::reset_dirty_rows() {
  std::fill(dirty_rows_.begin(), dirty_rows_.end(), 0);
  dirty_all_ = false;
}

std::uint64_t FastEngine::dirty_row_count() const {
  if (dirty_all_) return env_.num_states();
  std::uint64_t n = 0;
  for (const std::uint8_t b : dirty_rows_) n += b;
  return n;
}

}  // namespace qta::qtaccel

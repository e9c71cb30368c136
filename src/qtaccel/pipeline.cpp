#include "qtaccel/pipeline.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <ostream>

#include "common/check.h"
#include "env/value_iteration.h"
#include "qtaccel/machine_state.h"

namespace qta::qtaccel {

namespace {
constexpr const char* kDspR = "stage3: alpha * R";
constexpr const char* kDspOld = "stage3: (1-alpha) * Q(S,A)";
constexpr const char* kDspNext = "stage3: (alpha*gamma) * Q(S',A')";

// Position (1 = newest) of the queue entry that serviced a known-hit
// address — telemetry-only re-probe, never consulted by the datapath.
std::uint8_t fwd_distance(const WritebackQueue& wbq, std::uint64_t addr) {
  for (unsigned w = 1; w <= WritebackQueue::kDepth; ++w) {
    if (wbq.match_q(addr, w)) return static_cast<std::uint8_t>(w);
  }
  return 0;
}
}  // namespace

Pipeline::Pipeline(const env::Environment& env, const PipelineConfig& config)
    : env_(env),
      config_(config),
      map_(make_address_map(env)),
      coeff_(make_coefficients(config)),
      eps_threshold_(
          epsilon_threshold(config.epsilon, config.epsilon_bits)),
      rng_(config.seed, map_),
      dsp_r_(kDspR, config.q_fmt, config.coeff_fmt, config.q_fmt),
      dsp_old_(kDspOld, config.q_fmt, config.coeff_fmt, config.q_fmt),
      dsp_next_(kDspNext, config.q_fmt, config.coeff_fmt, config.q_fmt) {
  validate_config(config, env);
  // Double-Q's stage-2 cross-table read gets a third (double-pumped)
  // port: the scalar budget is stage-1 read + stage-4 write + cross read.
  const unsigned q_ports = config.algorithm == Algorithm::kDoubleQ ? 3 : 2;
  owned_q_ = std::make_unique<hw::Bram>("q_table", map_.depth(),
                                        config.q_fmt.width, q_ports);
  owned_r_ = std::make_unique<hw::Bram>("reward_table", map_.depth(),
                                        config.q_fmt.width, 1);
  owned_qmax_ = std::make_unique<QmaxUnit>(env.num_states(),
                                           config.q_fmt.width,
                                           map_.action_bits, 2);
  q_table_ = owned_q_.get();
  r_table_ = owned_r_.get();
  qmax_ = owned_qmax_.get();
  rd_port_ = 0;
  wr_port_ = 1;
  kernel_.attach(q_table_);
  kernel_.attach(r_table_);
  kernel_.attach(&qmax_->bram());
  if (config.algorithm == Algorithm::kDoubleQ) {
    owned_q2_ = std::make_unique<hw::Bram>("q_table_b", map_.depth(),
                                           config.q_fmt.width, q_ports);
    q2_table_ = owned_q2_.get();
    kernel_.attach(q2_table_);
  }
  init_tables();
}

Pipeline::Pipeline(const env::Environment& env, const PipelineConfig& config,
                   hw::Bram* shared_q, hw::Bram* shared_r,
                   QmaxUnit* shared_qmax, unsigned port_base)
    : env_(env),
      config_(config),
      map_(make_address_map(env)),
      coeff_(make_coefficients(config)),
      eps_threshold_(
          epsilon_threshold(config.epsilon, config.epsilon_bits)),
      rng_(config.seed, map_),
      q_table_(shared_q),
      r_table_(shared_r),
      qmax_(shared_qmax),
      rd_port_(port_base),
      wr_port_(port_base + 1),
      dsp_r_(kDspR, config.q_fmt, config.coeff_fmt, config.q_fmt),
      dsp_old_(kDspOld, config.q_fmt, config.coeff_fmt, config.q_fmt),
      dsp_next_(kDspNext, config.q_fmt, config.coeff_fmt, config.q_fmt) {
  validate_config(config, env);
  QTA_CHECK_MSG(config.algorithm != Algorithm::kDoubleQ,
                "Double-Q is not supported in shared-table mode");
  QTA_CHECK(shared_q && shared_r && shared_qmax);
  QTA_CHECK(shared_q->depth() == map_.depth());
  QTA_CHECK(port_base + 1 < shared_q->ports());
  // Shared tables are clocked by their owner (MultiPipeline), not here —
  // init_tables() is skipped, but the dirty-row bitmap is per-pipeline
  // bookkeeping and must still be sized for stage-4 marking.
  dirty_rows_.assign(env.num_states(), 0);
  dirty_all_ = true;
}

void Pipeline::init_tables() {
  const std::vector<fixed::raw_t> rewards =
      reward_image(env_, map_, config_.q_fmt);
  for (std::uint64_t addr = 0; addr < rewards.size(); ++addr) {
    r_table_->preset(addr, rewards[addr]);
  }
  // A fresh pipeline starts a conservative all-dirty epoch: nothing has
  // been checkpointed yet, so every row must go into the next full image.
  dirty_rows_.assign(env_.num_states(), 0);
  dirty_all_ = true;
}

fixed::raw_t Pipeline::q_raw(StateId s, ActionId a) const {
  return q_table_->peek(map_.q_addr(s, a));
}

// Host-side readback: converts the stored raw words for tests, table IO
// and benchmark reporting. Nothing here feeds back into the datapath.
// qtlint: push-allow(datapath-purity)
double Pipeline::q_value(StateId s, ActionId a) const {
  if (q2_table_) {
    return (fixed::to_double(q_raw(s, a), config_.q_fmt) +
            fixed::to_double(q2_table_->peek(map_.q_addr(s, a)),
                             config_.q_fmt)) /
           2.0;
  }
  return fixed::to_double(q_raw(s, a), config_.q_fmt);
}

fixed::raw_t Pipeline::q2_raw(StateId s, ActionId a) const {
  QTA_CHECK(q2_table_ != nullptr);
  return q2_table_->peek(map_.q_addr(s, a));
}

std::vector<double> Pipeline::q_as_double() const {
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

std::vector<ActionId> Pipeline::greedy_policy() const {
  return env::greedy_policy_from(env_, q_as_double());
}

QmaxUnit::Entry Pipeline::qmax_entry(StateId s) const {
  return qmax_->peek(s);
}

void Pipeline::preset_q(StateId s, ActionId a, fixed::raw_t value) {
  QTA_CHECK_MSG(!in_flight(), "preset while the pipeline is running");
  q_table_->preset(map_.q_addr(s, a), fixed::saturate(value, config_.q_fmt));
  dirty_rows_[s] = 1;
}

void Pipeline::rebuild_qmax() {
  QTA_CHECK_MSG(!in_flight(), "rebuild while the pipeline is running");
  if (config_.qmax != QmaxMode::kMonotoneTable ||
      config_.algorithm == Algorithm::kExpectedSarsa ||
      config_.algorithm == Algorithm::kDoubleQ) {
    return;  // no Qmax table in these configurations
  }
  for (StateId s = 0; s < env_.num_states(); ++s) {
    QmaxUnit::Entry e;
    e.value = q_table_->peek(map_.q_addr(s, 0));
    e.action = 0;
    for (ActionId a = 1; a < env_.num_actions(); ++a) {
      const fixed::raw_t v = q_table_->peek(map_.q_addr(s, a));
      if (v > e.value) {
        e.value = v;
        e.action = a;
      }
    }
    // The monotone table never reports below its reset value of 0.
    if (e.value < 0) e = {0, 0};
    qmax_->preset(s, e);
  }
  // Every Qmax row was rewritten (possibly lowered below the old
  // monotone value), so the epoch collapses to all-dirty.
  dirty_all_ = true;
}

std::uint64_t Pipeline::dsp_saturations() const {
  return dsp_r_.saturations() + dsp_old_.saturations() +
         dsp_next_.saturations();
}

bool Pipeline::in_flight() const {
  return s1_.valid || s2_.valid || s3_.valid;
}

QmaxUnit::Entry Pipeline::effective_max(StateId s) {
  QmaxUnit::Entry e;
  if (config_.qmax == QmaxMode::kMonotoneTable) {
    e = qmax_->read(rd_port_, s);
    const fixed::raw_t before = e.value;
    wbq_.combine_qmax(s, e.value, e.action);
    if (e.value != before) ++stats_.fwd_qmax;
    return e;
  }
  // Exact comparator-tree scan: the committed row, overlaid with any
  // in-flight write-backs (newest-first). Modeled as a row-wide read
  // outside the two scalar ports; the resource model charges the
  // comparator tree and the widened fabric for it.
  e.value = 0;
  e.action = 0;
  bool first = true;
  for (ActionId a = 0; a < env_.num_actions(); ++a) {
    const std::uint64_t addr = map_.q_addr(s, a);
    const auto fwd = wbq_.match_q(addr);
    const fixed::raw_t v = fwd ? *fwd : q_table_->peek(addr);
    if (first || v > e.value) {
      e.value = v;
      e.action = a;
      first = false;
    }
  }
  return e;
}

void Pipeline::do_stage4() {
  const S3Latch& in = s3_;
  if (!in.valid) return;
  ++stats_.iterations;
  SampleTrace tr;
  if (in.bubble) {
    ++stats_.bubbles;
    tr.bubble = true;
    tr.state = in.s;
    if (trace_) trace_->push_back(tr);
    return;
  }
  hw::Bram* learn_bram = in.table == 1 ? q2_table_ : q_table_;
  learn_bram->write(wr_port_, map_.q_addr(in.s, in.a), in.new_q);
  dirty_rows_[in.s] = 1;
  // (Expected SARSA and Double-Q carry no Qmax table.)
  if (config_.qmax == QmaxMode::kMonotoneTable &&
      config_.algorithm != Algorithm::kExpectedSarsa &&
      config_.algorithm != Algorithm::kDoubleQ) {
    tel_.qmax_raised = qmax_->raise(wr_port_, in.s, in.a, in.new_q);
  }
  ++stats_.samples;
  if (in.end) ++stats_.episodes;
  if (trace_) {
    tr.state = in.s;
    tr.action = in.a;
    tr.reward = in.r;
    tr.new_q = in.new_q;
    tr.next_state = in.s_next;
    tr.end_episode = in.end;
    tr.table = in.table;
    trace_->push_back(tr);
  }
}

void Pipeline::do_stage3() {
  const S2Latch& in = s2_;
  S3Latch& out = s3_next_;
  if (!in.valid) return;
  out.valid = true;
  out.bubble = in.bubble;
  out.s = in.s;
  out.a = in.a;
  out.r = in.r;
  out.s_next = in.s_next;
  out.end = in.end;
  out.table = in.table;
  if (in.bubble) return;

  // Forward Q(S,A) against the three in-flight write-backs.
  const std::uint64_t sa_addr = map_.tagged_addr(in.table, in.s, in.a);
  fixed::raw_t q_old = in.q_sa_read;
  if (const auto fwd = wbq_.match_q(sa_addr)) {
    q_old = *fwd;
    ++stats_.fwd_q_sa;
    if (telemetry_) tel_.fwd_sa_distance = fwd_distance(wbq_, sa_addr);
  }

  // Q(S',A'): the greedy/Qmax/expectation paths were resolved in stage 2;
  // the SARSA exploratory read (shared with the next iteration's stage 1)
  // and the Double-Q cross-table read still need forwarding here.
  fixed::raw_t q_next = 0;
  if (!in.end) {
    if (in.q_next_fwd) {
      QTA_DCHECK(in.a_next != kInvalidAction);
      q_next = in.q_next;
      if (const auto fwd = wbq_.match_q(in.q_next_fwd_addr)) {
        q_next = *fwd;
        ++stats_.fwd_q_next;
        if (telemetry_) {
          tel_.fwd_next_distance = fwd_distance(wbq_, in.q_next_fwd_addr);
        }
      }
    } else {
      q_next = in.q_next;
    }
  }

  const fixed::Format qf = config_.q_fmt;
  const fixed::raw_t term_r = dsp_r_.multiply(in.r, coeff_.alpha);
  const fixed::raw_t term_old =
      dsp_old_.multiply(q_old, coeff_.one_minus_alpha);
  const fixed::raw_t term_next =
      dsp_next_.multiply(q_next, coeff_.alpha_gamma);
  bool sat1 = false, sat2 = false;
  const fixed::raw_t sum =
      fixed::sat_add(fixed::sat_add(term_r, term_old, qf, &sat1), term_next,
                     qf, &sat2);
  if (sat1) ++stats_.adder_saturations;
  if (sat2) ++stats_.adder_saturations;
  out.new_q = sum;

  wbq_.push({true, sa_addr, in.s, in.a, sum});
}

void Pipeline::do_stage2(bool will_issue) {
  const S1Latch& in = s1_;
  S2Latch& out = s2_next_;
  // Note: forwarded_action_ persists across idle stage-2 cycles — in the
  // stall-mode ablation the consuming stage-1 issue happens several cycles
  // after this stage selected the action.
  if (!in.valid) return;
  out.valid = true;
  out.bubble = in.bubble;
  out.s = in.s;
  out.a = in.a;
  out.s_next = in.s_next;
  out.end = in.end;
  out.q_sa_read = in.q_sa_read;
  out.r = in.r;
  out.table = in.table;
  if (in.bubble || in.end) {
    forwarded_action_ = kInvalidAction;
    return;
  }

  if (config_.algorithm == Algorithm::kQLearning) {
    out.q_next = effective_max(in.s_next).value;
    return;
  }

  if (config_.algorithm == Algorithm::kDoubleQ) {
    // argmax over the LEARNING table's forwarded row, value read from
    // the OTHER table (cross read on the third, double-pumped port).
    hw::Bram* learn_bram = in.table == 1 ? q2_table_ : q_table_;
    hw::Bram* eval_bram = in.table == 1 ? q_table_ : q2_table_;
    fixed::raw_t best = 0;
    ActionId argmax = 0;
    for (ActionId k = 0; k < env_.num_actions(); ++k) {
      const std::uint64_t tagged =
          map_.tagged_addr(in.table, in.s_next, k);
      const auto fwd = wbq_.match_q(tagged);
      const fixed::raw_t v =
          fwd ? *fwd : learn_bram->peek(map_.q_addr(in.s_next, k));
      if (k == 0 || v > best) {
        best = v;
        argmax = k;
      }
    }
    out.a_next = argmax;
    out.q_next = eval_bram->read(2, map_.q_addr(in.s_next, argmax));
    out.q_next_fwd = true;
    out.q_next_fwd_addr =
        map_.tagged_addr(in.table == 1 ? 0 : 1, in.s_next, argmax);
    return;
  }

  if (config_.algorithm == Algorithm::kExpectedSarsa) {
    // Full-row scan (comparator + adder trees) over the forwarded row.
    const RngBank::EpsilonDraw d =
        rng_.draw_epsilon(eps_threshold_, config_.epsilon_bits);
    fixed::raw_t row_max = 0;
    ActionId argmax = 0;
    fixed::raw_t row_sum = 0;
    for (ActionId k = 0; k < env_.num_actions(); ++k) {
      const std::uint64_t addr = map_.q_addr(in.s_next, k);
      const auto fwd = wbq_.match_q(addr);
      const fixed::raw_t v = fwd ? *fwd : q_table_->peek(addr);
      if (k == 0 || v > row_max) {
        row_max = v;
        argmax = k;
      }
      row_sum += v;
    }
    out.a_next = d.greedy ? argmax : d.explore_action;
    out.q_next = expected_sarsa_target(row_max, row_sum, map_.action_bits,
                                       coeff_, config_.q_fmt,
                                       config_.coeff_fmt);
    forwarded_action_ = out.a_next;
    return;
  }

  // SARSA epsilon-greedy (stage 2 of Section V-B).
  const RngBank::EpsilonDraw d =
      rng_.draw_epsilon(eps_threshold_, config_.epsilon_bits);
  if (d.greedy) {
    const QmaxUnit::Entry e = effective_max(in.s_next);
    out.a_next = e.action;
    out.q_next = e.value;
  } else {
    out.a_next = d.explore_action;
    out.q_next_pending = true;
    out.q_next_fwd = true;
    out.q_next_fwd_addr = map_.tagged_addr(0, in.s_next, out.a_next);
    if (!will_issue) {
      // Drain/stall: the next iteration's stage-1 read will not happen
      // this cycle, so use the idle read port ourselves.
      out.q_next =
          q_table_->read(rd_port_, map_.q_addr(in.s_next, out.a_next));
    }
  }
  // On-policy: A' becomes the behavior action of the next iteration.
  forwarded_action_ = out.a_next;
}

void Pipeline::do_stage1() {
  S1Latch& out = s1_next_;
  out.valid = true;
  ++stats_.issued;

  if (issue_episode_start_) {
    issue_state_ = rng_.draw_start_state(env_.num_states());
    issue_episode_steps_ = 0;
    forwarded_action_ = kInvalidAction;
    if (env_.is_terminal(issue_state_)) {
      out.bubble = true;
      out.s = issue_state_;
      return;  // zero-length episode; redraw next iteration
    }
  }

  const bool random_behavior =
      config_.algorithm == Algorithm::kQLearning ||
      config_.algorithm == Algorithm::kDoubleQ;
  ActionId a;
  if (random_behavior || issue_episode_start_) {
    a = rng_.draw_random_action();
  } else {
    QTA_CHECK_MSG(forwarded_action_ != kInvalidAction,
                  "SARSA continuation without a forwarded action");
    a = forwarded_action_;
  }
  issue_episode_start_ = false;

  const unsigned table = config_.algorithm == Algorithm::kDoubleQ
                             ? rng_.draw_table_select()
                             : 0;
  hw::Bram* learn_bram = table == 1 ? q2_table_ : q_table_;

  const StateId s = issue_state_;
  const unsigned noise_bits = env_.transition_noise_bits();
  const StateId s_next =
      noise_bits == 0
          ? env_.transition(s, a)
          : env_.transition(s, a, rng_.draw_transition_noise(noise_bits));
  const std::uint64_t addr = map_.q_addr(s, a);
  const fixed::raw_t q_read = learn_bram->read(rd_port_, addr);
  const fixed::raw_t r = r_table_->read(
      r_table_->ports() > 1 ? rd_port_ / 2 : 0, addr);
  ++issue_episode_steps_;
  const bool end = env_.is_terminal(s_next) ||
                   issue_episode_steps_ >= config_.max_episode_length;

  out.s = s;
  out.a = a;
  out.s_next = s_next;
  out.end = end;
  out.q_sa_read = q_read;
  out.r = r;
  out.table = table;

  // SARSA exploratory path: this read IS the previous iteration's
  // Q(S',A') access (same address by on-policy construction).
  if (s2_next_.valid && s2_next_.q_next_pending && !s2_next_.end) {
    QTA_CHECK_MSG(s2_next_.s_next == s && s2_next_.a_next == a,
                  "shared-read address mismatch: the on-policy invariant "
                  "(S',A') == next (S,A) was violated");
    s2_next_.q_next = q_read;
  }

  issue_state_ = s_next;
  if (end) issue_episode_start_ = true;
}

bool Pipeline::tick(bool allow_issue) {
  // ---- begin cycle ----
  if (owned_q_) {
    kernel_.begin_cycle();
  } else {
    // Shared-table mode: the MultiPipeline owner clocks the BRAMs.
  }
  s1_next_ = {};
  s2_next_ = {};
  s3_next_ = {};

  bool issue = allow_issue;
  if (issue && config_.hazard == HazardMode::kStall && in_flight()) {
    issue = false;
    ++stats_.stall_cycles;
  }
  // SARSA shared reads require knowing whether stage 1 will run AND be a
  // continuation; a continuation is guaranteed whenever the iteration now
  // in stage 2 did not end its episode.
  const bool will_issue = issue;

  // Telemetry derives per-cycle activity from counter deltas around the
  // stage evaluation; everything below is observation-only.
  PipelineStats before{};
  std::uint64_t dsp_before = 0;
  if (telemetry_) {
    before = stats_;
    dsp_before = dsp_saturations();
    tel_ = {};
  }

  // ---- evaluate, oldest stage first ----
  do_stage4();
  do_stage3();
  do_stage2(will_issue);
  if (issue) do_stage1();

  if (telemetry_) emit_cycle_event(allow_issue, issue, before, dsp_before);
  if (waveform_) emit_waveform_line();

  // ---- clock edge ----
  if (owned_q_) kernel_.clock_edge();
  s1_ = s1_next_;
  s2_ = s2_next_;
  s3_ = s3_next_;
  ++stats_.cycles;
  return issue;
}

void Pipeline::emit_cycle_event(bool allow_issue, bool issued,
                                const PipelineStats& before,
                                std::uint64_t dsp_before) {
  telemetry::CycleEvent e;
  e.cycle = stats_.cycles;
  e.fwd_q_sa = static_cast<std::uint8_t>(stats_.fwd_q_sa - before.fwd_q_sa);
  e.fwd_q_next =
      static_cast<std::uint8_t>(stats_.fwd_q_next - before.fwd_q_next);
  e.fwd_qmax = static_cast<std::uint8_t>(stats_.fwd_qmax - before.fwd_qmax);
  const bool forwarded =
      e.fwd_q_sa != 0 || e.fwd_q_next != 0 || e.fwd_qmax != 0;
  e.cls = !allow_issue ? telemetry::CycleClass::kDrain
          : !issued    ? telemetry::CycleClass::kStall
          : forwarded  ? telemetry::CycleClass::kForwardServiced
                       : telemetry::CycleClass::kIssue;
  e.fwd_sa_distance = tel_.fwd_sa_distance;
  e.fwd_next_distance = tel_.fwd_next_distance;
  e.adder_saturations = static_cast<std::uint8_t>(
      (stats_.adder_saturations - before.adder_saturations) +
      (dsp_saturations() - dsp_before));
  // Stage occupancy mirrors the waveform: S1/S2/S3 are this cycle's
  // evaluated latches; RET is the iteration stage 4 just consumed.
  const auto mark = [&e](bool valid, bool bubble, std::uint8_t bit) {
    if (!valid) return;
    e.stage_valid |= bit;
    if (bubble) e.stage_bubble |= bit;
  };
  mark(s1_next_.valid, s1_next_.bubble, telemetry::kStageS1);
  mark(s2_next_.valid, s2_next_.bubble, telemetry::kStageS2);
  mark(s3_next_.valid, s3_next_.bubble, telemetry::kStageS3);
  mark(s3_.valid, s3_.bubble, telemetry::kStageRet);
  e.sample_retired = stats_.samples != before.samples;
  e.episode_end = stats_.episodes != before.episodes;
  e.qmax_raised = tel_.qmax_raised;
  telemetry_->on_cycle(e);
}

void Pipeline::emit_waveform_line() {
  // Formats into a line buffer reused across cycles — one ostream write
  // per line instead of a dozen formatted inserts.
  std::string& line = waveform_line_;
  line.clear();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "[%6llu] ",
                static_cast<unsigned long long>(stats_.cycles));
  line += buf;
  const auto cell = [&line, &buf](const char* name, bool valid, bool bubble,
                                  StateId s, ActionId a) {
    line += name;
    line += ' ';
    if (!valid) {
      line += "--          ";
    } else if (bubble) {
      line += "bubble      ";
    } else {
      std::snprintf(buf, sizeof(buf), "s=%4u a=%u  ",
                    static_cast<unsigned>(s), static_cast<unsigned>(a));
      line += buf;
    }
    line += "| ";
  };
  // Stage outputs evaluated this cycle: S1/S2/S3 are the *_next latches;
  // the retiring iteration was consumed from s3_ by stage 4.
  cell("S1", s1_next_.valid, s1_next_.bubble, s1_next_.s, s1_next_.a);
  cell("S2", s2_next_.valid, s2_next_.bubble, s2_next_.s, s2_next_.a);
  cell("S3", s3_next_.valid, s3_next_.bubble, s3_next_.s, s3_next_.a);
  cell("RET", s3_.valid, s3_.bubble, s3_.s, s3_.a);
  line += '\n';
  waveform_->write(line.data(),
                   static_cast<std::streamsize>(line.size()));
}

void Pipeline::run_iterations(std::uint64_t n) {
  const std::uint64_t target = stats_.issued + n;
  while (stats_.issued < target) tick(true);
  while (in_flight()) tick(false);
}

void Pipeline::run_samples(std::uint64_t n) {
  while (stats_.samples < n) tick(true);
  while (in_flight()) tick(false);
}

MachineState Pipeline::save_state() const {
  QTA_CHECK_MSG(!in_flight(), "save_state while the pipeline is running");
  MachineState ms;
  const std::uint64_t depth = map_.depth();
  ms.q.resize(depth);
  for (std::uint64_t addr = 0; addr < depth; ++addr) {
    ms.q[addr] = q_table_->peek(addr);
  }
  if (q2_table_) {
    ms.q2.resize(depth);
    for (std::uint64_t addr = 0; addr < depth; ++addr) {
      ms.q2[addr] = q2_table_->peek(addr);
    }
  }
  const StateId num_states = env_.num_states();
  ms.qmax_value.resize(num_states);
  ms.qmax_action.resize(num_states);
  for (StateId s = 0; s < num_states; ++s) {
    const QmaxUnit::Entry e = qmax_->peek(s);
    ms.qmax_value[s] = e.value;
    ms.qmax_action[s] = e.action;
  }
  ms.rng = rng_.lfsr_state();
  ms.episode_start = issue_episode_start_;
  ms.state = issue_state_;
  ms.pending_action = forwarded_action_;
  ms.episode_steps = issue_episode_steps_;
  const auto& wb = wbq_.entries();
  for (unsigned i = 0; i < WritebackQueue::kDepth; ++i) {
    ms.wb_addrs[i] = wb[i].valid ? wb[i].q_addr : MachineState::kNoWriteback;
  }
  ms.stats = stats_;
  ms.dsp_saturations = {dsp_r_.saturations(), dsp_old_.saturations(),
                        dsp_next_.saturations()};
  ms.dirty.rows = dirty_rows_;
  ms.dirty.all = dirty_all_;
  return ms;
}

void Pipeline::load_state(const MachineState& ms) {
  QTA_CHECK_MSG(!in_flight(), "load_state while the pipeline is running");
  const std::uint64_t depth = map_.depth();
  QTA_CHECK_MSG(ms.q.size() == depth,
                "machine state does not match the pipeline's table geometry");
  QTA_CHECK_MSG((q2_table_ != nullptr) == !ms.q2.empty(),
                "machine state and pipeline disagree on the second Q table");
  for (std::uint64_t addr = 0; addr < depth; ++addr) {
    q_table_->preset(addr, ms.q[addr]);
  }
  if (q2_table_) {
    QTA_CHECK(ms.q2.size() == depth);
    for (std::uint64_t addr = 0; addr < depth; ++addr) {
      q2_table_->preset(addr, ms.q2[addr]);
    }
  }
  const StateId num_states = env_.num_states();
  QTA_CHECK_MSG(
      ms.qmax_value.size() == num_states &&
          ms.qmax_action.size() == num_states,
      "machine state does not match the pipeline's state count");
  for (StateId s = 0; s < num_states; ++s) {
    qmax_->preset(s, {ms.qmax_value[s], ms.qmax_action[s]});
  }
  rng_.set_lfsr_state(ms.rng);
  issue_episode_start_ = ms.episode_start;
  issue_state_ = ms.state;
  forwarded_action_ = ms.pending_action;
  issue_episode_steps_ = ms.episode_steps;

  // Rebuild the forwarding queue from its tagged addresses: post-drain
  // every queued value has committed, so the entries come straight off
  // the just-restored tables (the invariant machine_state.h documents).
  std::array<Writeback, WritebackQueue::kDepth> entries{};
  for (unsigned i = 0; i < WritebackQueue::kDepth; ++i) {
    const std::uint64_t tagged = ms.wb_addrs[i];
    if (tagged == MachineState::kNoWriteback) continue;
    const unsigned table = static_cast<unsigned>(
        tagged >> (map_.state_bits + map_.action_bits));
    const std::uint64_t q_addr = tagged & (depth - 1);
    QTA_CHECK_MSG(table <= 1 && (table == 0 || q2_table_ != nullptr),
                  "machine state write-back address tags a table this "
                  "pipeline does not have");
    const hw::Bram* src = table == 1 ? q2_table_ : q_table_;
    Writeback e;
    e.valid = true;
    e.q_addr = tagged;
    e.state = static_cast<StateId>(q_addr >> map_.action_bits);
    e.action = static_cast<ActionId>(
        q_addr & ((std::uint64_t{1} << map_.action_bits) - 1));
    e.new_q = src->peek(q_addr);
    entries[i] = e;
  }
  wbq_.restore(entries);

  // A drained pipeline has empty latches; a restored one starts the same
  // way.
  s1_ = {};
  s1_next_ = {};
  s2_ = {};
  s2_next_ = {};
  s3_ = {};
  s3_next_ = {};

  stats_ = ms.stats;
  // Each stage-3 DSP multiplies exactly once per retired sample.
  dsp_r_.restore_counters(ms.stats.samples, ms.dsp_saturations[0]);
  dsp_old_.restore_counters(ms.stats.samples, ms.dsp_saturations[1]);
  dsp_next_.restore_counters(ms.stats.samples, ms.dsp_saturations[2]);

  // Adopt the carried dirty-row epoch; any mismatch (or a
  // default-constructed DirtyRows) collapses to conservative all-dirty.
  if (!ms.dirty.all && ms.dirty.rows.size() == num_states) {
    dirty_rows_ = ms.dirty.rows;
    dirty_all_ = false;
  } else {
    dirty_rows_.assign(num_states, 0);
    dirty_all_ = true;
  }
}

void Pipeline::reset_dirty_rows() {
  std::fill(dirty_rows_.begin(), dirty_rows_.end(), 0);
  dirty_all_ = false;
}

std::uint64_t Pipeline::dirty_row_count() const {
  if (dirty_all_) return env_.num_states();
  std::uint64_t n = 0;
  for (const std::uint8_t b : dirty_rows_) n += b;
  return n;
}

}  // namespace qta::qtaccel

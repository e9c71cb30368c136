// Fast functional backend ("turbo engine") — bit-exact batch replay of
// the accelerator without the cycle-accurate machinery.
//
// FastEngine executes the accelerator's exact semantics — the same LFSR
// draw sequences, the same fixed-point DSP operation order and
// saturation, the same monotone-Qmax approximation, the same episode
// control — straight against flat arrays: no SimKernel, no per-cycle
// Bram port accounting, no pipeline latches, and no virtual dispatch in
// the inner loop for grid worlds and small deterministic environments.
// The retired SampleTrace sequence and the final Q/Qmax tables are
// bit-identical to both GoldenModel and Pipeline;
// tests/fast_engine_test.cpp proves it differentially per algorithm.
//
// Each iteration is split in two halves, as the hardware overlaps them:
//   walk   = stage 1 + episode control + the reward: start-state and
//            behaviour-action draws, the transition, the episode end.
//            It never reads Q when the behaviour action is random
//            (Q-Learning, Double-Q), so it runs up to 16 iterations
//            ahead of the update and prefetches the rows they will touch.
//   update = stages 2-4: the update-policy read, the three DSP products,
//            the write-back, and the stats/trace/telemetry of the
//            iteration, retired in order.
// SARSA and Expected SARSA act on the update's A', so their walk runs one
// iteration ahead. Grid worlds pay their reward inline from the move's
// outcome (three quantized values) instead of a reward image.
//
// PipelineStats is reconstructed analytically instead of simulated:
//   cycles        = issue ticks + drain (forward: iterations + pipeline
//                   depth - 1; stall: 4 per iteration),
//   fwd_q_sa/next = recomputed from the dependency distance between
//                   consecutive updates (a 3-deep ring of write-back
//                   addresses mirrors the forwarding queue),
//   fwd_qmax      = recomputed from the qmax raises of the two preceding
//                   iterations (the only in-flight raises a stage-2 read
//                   can observe ahead of BRAM commit).
// docs/fast_engine.md carries the full fidelity matrix and says when the
// cycle-accurate backend is mandatory (waveforms, port-conflict
// auditing, shared-table collision modeling).
//
// Backend selection lives one layer up: runtime::Engine (see
// src/runtime/engine.h) constructs a Pipeline or a FastEngine per
// config.backend behind one uniform surface.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "env/environment.h"
#include "qtaccel/action_units.h"
#include "qtaccel/config.h"
#include "qtaccel/pipeline.h"  // PipelineStats, SampleTrace

namespace qta::env {
class GridWorld;  // devirtualized fast path (see FastEngine::walk_t)
}  // namespace qta::env

namespace qta::qtaccel {

class FastEngine {
 public:
  FastEngine(const env::Environment& env, const PipelineConfig& config);

  /// Replays exactly `n` iterations (bubbles included) — the same retire
  /// stream Pipeline::run_iterations(n) produces.
  void run_iterations(std::uint64_t n);

  /// Replays until at least `n` samples retired, including the
  /// pipeline's drain overshoot (forward mode retires exactly 3 extra
  /// iterations; stall mode none) so the final tables stay bit-identical
  /// to Pipeline::run_samples(n).
  void run_samples(std::uint64_t n);

  const PipelineStats& stats() const { return stats_; }
  void set_trace(std::vector<SampleTrace>* trace) { trace_ = trace; }

  /// Attaches a telemetry sink (telemetry/sink.h): one StepEvent per
  /// replayed iteration plus one RunEvent per run_* call with the
  /// analytic cycle attribution. Zero-cost when detached — the step
  /// loop takes the sink presence as a template parameter, so the
  /// telemetry branches compile out of the hot path entirely.
  void set_telemetry(telemetry::TelemetrySink* sink) { telemetry_ = sink; }

  fixed::raw_t q_raw(StateId s, ActionId a) const;
  double q_value(StateId s, ActionId a) const;  // qtlint: allow(datapath-purity)
  /// Double Q-Learning's second table (aborts for other algorithms).
  fixed::raw_t q2_raw(StateId s, ActionId a) const;
  /// Row-major doubles; for kDoubleQ the acting estimate (A + B) / 2.
  std::vector<double> q_as_double() const;  // qtlint: allow(datapath-purity)
  std::vector<ActionId> greedy_policy() const;
  QmaxUnit::Entry qmax_entry(StateId s) const;

  /// Warm-start support, mirroring Pipeline::preset_q/rebuild_qmax.
  void preset_q(StateId s, ActionId a, fixed::raw_t value);
  void rebuild_qmax();

  /// Saturation count across the three stage-3 DSP products (same events
  /// Pipeline::dsp_saturations reports).
  std::uint64_t dsp_saturations() const {
    return dsp_saturations_[0] + dsp_saturations_[1] + dsp_saturations_[2];
  }

  /// Complete machine state (qtaccel/machine_state.h) — field-for-field
  /// compatible with Pipeline::save_state/load_state, so a state saved
  /// on either backend resumes bit-exactly on the other.
  MachineState save_state() const;
  void load_state(const MachineState& ms);

  /// Dirty-row epoch control (machine_state.h DirtyRows), mirroring
  /// Pipeline::reset_dirty_rows/dirty_row_count.
  void reset_dirty_rows();
  std::uint64_t dirty_row_count() const;

  const env::Environment& environment() const { return env_; }
  const PipelineConfig& config() const { return config_; }
  const AddressMap& address_map() const { return map_; }

 private:
  // One iteration's Q-independent half, produced by walk_t ahead of the
  // update_t that retires it.
  struct Walk {
    StateId s = 0;  // for a bubble: the terminal start state drawn
    StateId s_next = 0;
    ActionId a = 0;
    fixed::raw_t r = 0;
    unsigned table = 0;  // Double Q-Learning's learning table
    bool end = false;
    bool bubble = false;
  };
  // Both halves are specialized per (algorithm, Qmax mode, fwd_qmax
  // counting, telemetry), which prunes each body to its configuration's
  // own work. They stay out-of-line calls: forcing them inline into
  // run_steps measured about 2x slower (GridWorld::move fell out of line).
  template <Algorithm kAlgo, bool kMono>
  Walk walk_t();
  template <Algorithm kAlgo, bool kMono, bool kCountFwd, bool kTel>
  void update_t(const Walk& w);
  /// Runs `iterations` steps when `sample_target` == 0, otherwise steps
  /// until stats_.samples reaches `sample_target`. kTel compiles the
  /// telemetry emission in or out of the loop body.
  template <Algorithm kAlgo, bool kMono, bool kCountFwd, bool kTel>
  void run_steps(std::uint64_t iterations, std::uint64_t sample_target);
  /// Resolves kTel from telemetry_ at run time, once per run_* call.
  template <Algorithm kAlgo, bool kMono, bool kCountFwd>
  void run_steps_any(std::uint64_t iterations, std::uint64_t sample_target);
  template <Algorithm kAlgo>
  void run_algo(std::uint64_t iterations, std::uint64_t sample_target);
  void run_steps_dispatch(std::uint64_t iterations,
                          std::uint64_t sample_target);
  void exact_row_max(const std::vector<fixed::raw_t>& table, StateId s,
                     fixed::raw_t& value, ActionId& action) const;
  bool is_terminal(StateId s) const {
    return terminal_[s] != 0;
  }

  const env::Environment& env_;
  PipelineConfig config_;
  AddressMap map_;
  Coefficients coeff_;
  // The three stage-3 products share one format triple (q x coeff -> q),
  // checked once here instead of per product.
  fixed::Multiplier dsp_;
  std::uint64_t eps_threshold_;
  RngBank rng_;

  std::vector<fixed::raw_t> q_;       // indexed by AddressMap::q_addr
  std::vector<fixed::raw_t> q2_;      // Double Q-Learning's table B
  // Quantized R(s, a): the reward image, except for grid worlds (grid_
  // set), which pay one of three values by move outcome instead.
  std::vector<fixed::raw_t> reward_;
  std::array<fixed::raw_t, 3> grid_reward_{};  // by GridWorld::Outcome
  std::vector<fixed::raw_t> qmax_value_;
  std::vector<ActionId> qmax_action_;

  // Pre-baked environment: terminal flags always; the flat transition
  // table only for deterministic environments small enough to stay
  // cache-resident (stochastic ones draw noise per step, so the call
  // into the environment stays).
  std::vector<std::uint8_t> terminal_;
  std::vector<StateId> next_;  // empty => call the environment
  unsigned noise_bits_ = 0;
  // Non-null when env_ is a deterministic GridWorld: moves then go
  // through the inline, devirtualized GridWorld::move (the class is
  // final), so the optimizer sees the whole inner loop and keeps the
  // walk/LFSR state in registers instead of spilling around an opaque
  // virtual call, and the move's outcome picks the reward.
  const env::GridWorld* grid_ = nullptr;

  // Walk state (identical to the golden model's).
  bool episode_start_ = true;
  StateId state_ = 0;
  ActionId pending_action_ = kInvalidAction;
  std::uint64_t episode_steps_ = 0;

  // --- PipelineStats reconstruction state ---
  // Mirror of the 3-deep forwarding queue: tagged write-back addresses of
  // the last three retired samples (bubbles push nothing, exactly like
  // WritebackQueue). kNoAddr slots are empty (AddressMap addresses use at
  // most state_bits + action_bits + 1 bits, so ~0 never collides).
  static constexpr std::uint64_t kNoAddr = ~std::uint64_t{0};
  std::array<std::uint64_t, 3> wb_ring_{kNoAddr, kNoAddr, kNoAddr};
  bool wb_hit(std::uint64_t tagged) const {
    return tagged == wb_ring_[0] || tagged == wb_ring_[1] ||
           tagged == wb_ring_[2];
  }
  // Telemetry-only: queue position (1 = newest) the hit would have been
  // served from — the same distance the cycle backend reports.
  std::uint8_t ring_distance(std::uint64_t tagged) const {
    if (tagged == wb_ring_[0]) return 1;
    if (tagged == wb_ring_[1]) return 2;
    if (tagged == wb_ring_[2]) return 3;
    return 0;
  }
  // Qmax raises of the two preceding iterations: at stage 2 of iteration
  // i the Qmax BRAM has committed raises through iteration i-3, so the
  // forwarding network is what surfaces raises from i-1 and i-2 (older
  // queue entries are already committed and can never strictly raise).
  struct RaiseEvent {
    StateId state = kInvalidState;
    bool raised = false;
  };
  std::array<RaiseEvent, 2> raise_ring_{};
  bool raise_hit(StateId s) const {
    return (raise_ring_[0].raised && raise_ring_[0].state == s) ||
           (raise_ring_[1].raised && raise_ring_[1].state == s);
  }

  PipelineStats stats_;
  // Dirty-row tracking (machine_state.h DirtyRows): marked at the Q
  // write / Qmax raise site in update_t and at preset_q.
  std::vector<std::uint8_t> dirty_rows_;
  bool dirty_all_ = true;
  // Saturations per stage-3 product in {r, old, next} order, matching
  // MachineState::dsp_saturations and Pipeline's three DspMultipliers.
  std::array<std::uint64_t, 3> dsp_saturations_{};
  std::vector<SampleTrace>* trace_ = nullptr;
  telemetry::TelemetrySink* telemetry_ = nullptr;
};

}  // namespace qta::qtaccel

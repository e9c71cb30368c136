// Differential verification of the fast functional backend: FastEngine
// must retire a bit-identical SampleTrace, final Q/Qmax tables, AND a
// bit-identical PipelineStats against both the cycle-accurate Pipeline
// and the sequential GoldenModel, for every algorithm, qmax mode, and
// hazard mode — the stats are reconstructed analytically, so every
// counter (cycles, stalls, per-path forwarding hits, saturations) is a
// falsifiable claim about the derivation, not just the arithmetic.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "env/grid_world.h"
#include "env/random_mdp.h"
#include "qtaccel/fast_engine.h"
#include "qtaccel/golden_model.h"
#include "qtaccel/pipeline.h"
#include "runtime/engine.h"
#include "runtime/snapshot.h"
#include "telemetry/sink.h"

namespace qta::qtaccel {
namespace {

enum class FastEnvKind {
  kRing2,      // every consecutive update is a distance-1 hazard
  kSelfLoop,   // one Q row hammered until the watchdog fires
  kGrid8x8,    // episodic restarts, bubbles on terminal draws
  kGrid4x4Slippery,  // stochastic transitions (noise LFSR, no prebake)
  kGrid4x4EightActions,
  kGrid8x8Dense,     // 60% obstacles: bump-heavy walks, walled pockets
  kTerminal90,       // 90% terminal states: bubble runs longer than the
                     // walk's look-ahead
  kGrid64x64EightActions,  // obstacles, rows spread past the caches' reach
};

const char* env_name(FastEnvKind k) {
  switch (k) {
    case FastEnvKind::kRing2: return "ring2";
    case FastEnvKind::kSelfLoop: return "selfloop";
    case FastEnvKind::kGrid8x8: return "grid8x8";
    case FastEnvKind::kGrid4x4Slippery: return "grid4x4slip";
    case FastEnvKind::kGrid4x4EightActions: return "grid4x4a8";
    case FastEnvKind::kGrid8x8Dense: return "grid8x8dense";
    case FastEnvKind::kTerminal90: return "terminal90";
    case FastEnvKind::kGrid64x64EightActions: return "grid64x64a8";
  }
  return "?";
}

std::unique_ptr<env::Environment> make_env(FastEnvKind kind) {
  switch (kind) {
    case FastEnvKind::kRing2: {
      env::RandomMdpConfig c;
      c.num_states = 2;
      c.num_actions = 4;
      c.ring = true;
      c.reward_lo = -2.0;
      c.reward_hi = 2.0;
      return std::make_unique<env::RandomMdp>(c);
    }
    case FastEnvKind::kSelfLoop: {
      env::RandomMdpConfig c;
      c.num_states = 2;
      c.num_actions = 2;
      c.seed = 7;
      c.self_loop = true;
      return std::make_unique<env::RandomMdp>(c);
    }
    case FastEnvKind::kGrid8x8: {
      env::GridWorldConfig c;
      c.width = 8;
      c.height = 8;
      c.num_actions = 4;
      c.obstacle_density = 0.2;
      c.obstacle_seed = 11;
      return std::make_unique<env::GridWorld>(c);
    }
    case FastEnvKind::kGrid4x4Slippery: {
      env::GridWorldConfig c;
      c.width = 4;
      c.height = 4;
      c.num_actions = 4;
      c.slip_probability = 0.3;
      return std::make_unique<env::GridWorld>(c);
    }
    case FastEnvKind::kGrid4x4EightActions: {
      env::GridWorldConfig c;
      c.width = 4;
      c.height = 4;
      c.num_actions = 8;
      return std::make_unique<env::GridWorld>(c);
    }
    case FastEnvKind::kGrid8x8Dense: {
      env::GridWorldConfig c;
      c.width = 8;
      c.height = 8;
      c.num_actions = 4;
      c.obstacle_density = 0.6;
      c.obstacle_seed = 3;
      return std::make_unique<env::GridWorld>(c);
    }
    case FastEnvKind::kTerminal90: {
      env::RandomMdpConfig c;
      c.num_states = 16;
      c.num_actions = 4;
      c.seed = 5;
      c.terminal_fraction = 0.9;
      return std::make_unique<env::RandomMdp>(c);
    }
    case FastEnvKind::kGrid64x64EightActions: {
      env::GridWorldConfig c;
      c.width = 64;
      c.height = 64;
      c.num_actions = 8;
      c.obstacle_density = 0.2;
      c.obstacle_seed = 9;
      return std::make_unique<env::GridWorld>(c);
    }
  }
  return nullptr;
}

struct FastCase {
  Algorithm algorithm;
  QmaxMode qmax;
  HazardMode hazard;
  FastEnvKind env;
  // Two 32-bit words in place of one 64-bit seed: the struct stays 24
  // bytes and the original cases (episode_cap 0) print the same bytes,
  // so their discovered test names are unchanged.
  std::uint32_t seed;
  std::uint32_t episode_cap = 0;  // 0: the default cap of 64
};

std::uint64_t max_episode_length(const FastCase& c) {
  return c.episode_cap == 0 ? 64 : c.episode_cap;
}

std::string case_name(const testing::TestParamInfo<FastCase>& info) {
  const FastCase& c = info.param;
  std::ostringstream os;
  const char* algo_name = "QL";
  switch (c.algorithm) {
    case Algorithm::kQLearning: algo_name = "QL"; break;
    case Algorithm::kSarsa: algo_name = "SARSA"; break;
    case Algorithm::kExpectedSarsa: algo_name = "ESARSA"; break;
    case Algorithm::kDoubleQ: algo_name = "DQ"; break;
  }
  os << algo_name << '_'
     << (c.qmax == QmaxMode::kMonotoneTable ? "mono" : "exact") << '_'
     << (c.hazard == HazardMode::kForward ? "fwd" : "stall") << '_'
     << env_name(c.env) << "_s" << c.seed;
  if (c.episode_cap != 0) os << "_ep" << c.episode_cap;
  return os.str();
}

std::vector<FastCase> make_cases() {
  std::vector<FastCase> cases;
  const FastEnvKind envs[] = {
      FastEnvKind::kRing2, FastEnvKind::kSelfLoop, FastEnvKind::kGrid8x8,
      FastEnvKind::kGrid4x4Slippery, FastEnvKind::kGrid4x4EightActions,
      FastEnvKind::kGrid8x8Dense, FastEnvKind::kTerminal90,
  };
  for (auto algorithm : {Algorithm::kQLearning, Algorithm::kSarsa,
                         Algorithm::kExpectedSarsa, Algorithm::kDoubleQ}) {
    for (auto qmax : {QmaxMode::kMonotoneTable, QmaxMode::kExactScan}) {
      for (FastEnvKind e : envs) {
        for (std::uint32_t seed : {1u, 99u}) {
          cases.push_back(
              {algorithm, qmax, HazardMode::kForward, e, seed});
        }
      }
      // Stall-mode timing model (4 cycles/iteration, zero fwd_qmax) on
      // the two hazard-densest environments.
      cases.push_back({algorithm, qmax, HazardMode::kStall,
                       FastEnvKind::kRing2, 5});
      cases.push_back({algorithm, qmax, HazardMode::kStall,
                       FastEnvKind::kSelfLoop, 5});
      // Episodes that end on every sample, and just past the walk's
      // look-ahead of 16.
      for (std::uint32_t len : {1u, 17u}) {
        cases.push_back({algorithm, qmax, HazardMode::kForward,
                         FastEnvKind::kGrid8x8, 1, len});
      }
      if (algorithm == Algorithm::kQLearning ||
          algorithm == Algorithm::kDoubleQ) {
        cases.push_back({algorithm, qmax, HazardMode::kForward,
                         FastEnvKind::kGrid64x64EightActions, 1});
      }
    }
  }
  return cases;
}

PipelineConfig make_config(const FastCase& c) {
  PipelineConfig config;
  config.algorithm = c.algorithm;
  config.qmax = c.qmax;
  config.hazard = c.hazard;
  config.alpha = 0.25;
  config.gamma = 0.9;
  config.epsilon = 0.1;
  config.seed = c.seed;
  config.max_episode_length = max_episode_length(c);  // watchdog path too
  return config;
}

void expect_same_stats(const PipelineStats& want,
                       const PipelineStats& got) {
  EXPECT_EQ(want.iterations, got.iterations);
  EXPECT_EQ(want.samples, got.samples);
  EXPECT_EQ(want.episodes, got.episodes);
  EXPECT_EQ(want.bubbles, got.bubbles);
  EXPECT_EQ(want.cycles, got.cycles);
  EXPECT_EQ(want.issued, got.issued);
  EXPECT_EQ(want.stall_cycles, got.stall_cycles);
  EXPECT_EQ(want.fwd_q_sa, got.fwd_q_sa);
  EXPECT_EQ(want.fwd_q_next, got.fwd_q_next);
  EXPECT_EQ(want.fwd_qmax, got.fwd_qmax);
  EXPECT_EQ(want.adder_saturations, got.adder_saturations);
}

void expect_same_tables(const env::Environment& env, const FastCase& c,
                        const Pipeline& pipeline, const FastEngine& fast) {
  for (StateId s = 0; s < env.num_states(); ++s) {
    for (ActionId a = 0; a < env.num_actions(); ++a) {
      ASSERT_EQ(pipeline.q_raw(s, a), fast.q_raw(s, a))
          << "Q mismatch at s=" << s << " a=" << a;
      if (c.algorithm == Algorithm::kDoubleQ) {
        ASSERT_EQ(pipeline.q2_raw(s, a), fast.q2_raw(s, a))
            << "Q2 mismatch at s=" << s << " a=" << a;
      }
    }
    if (c.qmax == QmaxMode::kMonotoneTable &&
        c.algorithm != Algorithm::kExpectedSarsa &&
        c.algorithm != Algorithm::kDoubleQ) {
      const auto want = pipeline.qmax_entry(s);
      const auto got = fast.qmax_entry(s);
      ASSERT_EQ(want.value, got.value) << "Qmax value, s=" << s;
      if (want.value != 0) {
        ASSERT_EQ(want.action, got.action) << "Qmax action, s=" << s;
      }
    }
  }
}

class FastEngineTest : public testing::TestWithParam<FastCase> {};

// run_iterations across uneven chunk boundaries (each call pays its own
// drain, so per-call cycle accounting is exercised, not just the total).
TEST_P(FastEngineTest, IterationsMatchPipelineAndGolden) {
  const FastCase& c = GetParam();
  auto environment = make_env(c.env);
  const PipelineConfig config = make_config(c);
  constexpr std::uint64_t kChunks[] = {1, 4096, 7903, 1};  // 12001 total

  GoldenModel golden(*environment, config);
  std::vector<SampleTrace> golden_trace;
  golden.set_trace(&golden_trace);

  Pipeline pipeline(*environment, config);
  std::vector<SampleTrace> pipe_trace;
  pipeline.set_trace(&pipe_trace);

  FastEngine fast(*environment, config);
  std::vector<SampleTrace> fast_trace;
  fast.set_trace(&fast_trace);

  for (std::uint64_t n : kChunks) {
    golden.run(n);
    pipeline.run_iterations(n);
    fast.run_iterations(n);
  }

  ASSERT_EQ(golden_trace.size(), fast_trace.size());
  for (std::size_t i = 0; i < golden_trace.size(); ++i) {
    ASSERT_EQ(golden_trace[i], fast_trace[i])
        << "golden/fast divergence at " << i;
  }
  ASSERT_EQ(pipe_trace.size(), fast_trace.size());
  for (std::size_t i = 0; i < pipe_trace.size(); ++i) {
    ASSERT_EQ(pipe_trace[i], fast_trace[i])
        << "pipeline/fast divergence at " << i;
  }

  expect_same_tables(*environment, c, pipeline, fast);
  // Golden's tables too (same addresses; catches shared wrong-by-the-
  // same-bug failures between the two replay implementations).
  for (StateId s = 0; s < environment->num_states(); ++s) {
    for (ActionId a = 0; a < environment->num_actions(); ++a) {
      ASSERT_EQ(golden.q_raw(s, a), fast.q_raw(s, a));
    }
  }

  expect_same_stats(pipeline.stats(), fast.stats());
  EXPECT_EQ(pipeline.dsp_saturations(), fast.dsp_saturations());
}

// run_samples must reproduce the pipeline's drain overshoot exactly:
// in forward mode the final tables include 3 extra retired iterations.
TEST_P(FastEngineTest, SamplesMatchPipeline) {
  const FastCase& c = GetParam();
  auto environment = make_env(c.env);
  const PipelineConfig config = make_config(c);

  Pipeline pipeline(*environment, config);
  std::vector<SampleTrace> pipe_trace;
  pipeline.set_trace(&pipe_trace);

  FastEngine fast(*environment, config);
  std::vector<SampleTrace> fast_trace;
  fast.set_trace(&fast_trace);

  // Successive targets, including a no-op (already past 1500 after 3000).
  for (std::uint64_t target : {3000ull, 1500ull, 5000ull}) {
    pipeline.run_samples(target);
    fast.run_samples(target);
  }

  ASSERT_EQ(pipe_trace.size(), fast_trace.size());
  for (std::size_t i = 0; i < pipe_trace.size(); ++i) {
    ASSERT_EQ(pipe_trace[i], fast_trace[i]) << "divergence at " << i;
  }
  expect_same_tables(*environment, c, pipeline, fast);
  expect_same_stats(pipeline.stats(), fast.stats());
  EXPECT_EQ(pipeline.dsp_saturations(), fast.dsp_saturations());
}

// The complete machine state as bytes: the v3 full image plus the delta
// of the current dirty-row epoch (which the full image leaves out).
std::string state_bytes(const env::Environment& env,
                        const PipelineConfig& config,
                        const MachineState& ms) {
  return runtime::encode_snapshot_v3(config, env, ms) +
         runtime::encode_snapshot_delta(config, env, ms);
}

// state_bytes for comparing Pipeline with FastEngine. After an episode
// ends, `state` and `pending_action` are don't-cares (the next iteration
// redraws both), and the backends leave different values there: Pipeline
// keeps S' and the last stage-2 A', FastEngine and GoldenModel keep S and
// the A' of the last continuing sample. They are blanked in that case;
// every other byte is compared as saved.
std::string cross_backend_bytes(const env::Environment& env,
                                const PipelineConfig& config,
                                MachineState ms) {
  if (ms.episode_start) {
    ms.state = 0;
    ms.pending_action = kInvalidAction;
  }
  return state_bytes(env, config, ms);
}

// The walk runs up to 16 iterations ahead of the update and restarts at
// every call: chunk sizes around that look-ahead must stop it exactly
// where the pipeline stops (sample target, then the drain).
TEST_P(FastEngineTest, ChunkedSamplesMatchPipeline) {
  const FastCase& c = GetParam();
  auto environment = make_env(c.env);
  const PipelineConfig config = make_config(c);
  constexpr std::uint64_t kChunks[] = {1, 3, 15, 16, 17, 4096};

  Pipeline pipeline(*environment, config);
  std::vector<SampleTrace> pipe_trace;
  pipeline.set_trace(&pipe_trace);
  FastEngine fast(*environment, config);
  std::vector<SampleTrace> fast_trace;
  fast.set_trace(&fast_trace);
  std::uint64_t target = 0;
  for (std::uint64_t n : kChunks) {
    target += n;
    pipeline.run_samples(target);
    fast.run_samples(target);
  }
  ASSERT_EQ(pipe_trace, fast_trace);
  expect_same_stats(pipeline.stats(), fast.stats());
  EXPECT_EQ(
      cross_backend_bytes(*environment, config, pipeline.save_state()),
      cross_backend_bytes(*environment, config, fast.save_state()));

  // The same total in one call.
  Pipeline pipeline_once(*environment, config);
  FastEngine fast_once(*environment, config);
  pipeline_once.run_samples(target);
  fast_once.run_samples(target);
  expect_same_stats(pipeline_once.stats(), fast_once.stats());
  EXPECT_EQ(
      cross_backend_bytes(*environment, config, pipeline_once.save_state()),
      cross_backend_bytes(*environment, config, fast_once.save_state()));
}

// Attaching a trace and a telemetry sink only observes: the final state
// is byte-identical to a detached run's.
TEST_P(FastEngineTest, TraceAndTelemetryLeaveStateUnchanged) {
  struct CountingSink : telemetry::TelemetrySink {
    void on_step(const telemetry::StepEvent&) override { ++steps; }
    std::uint64_t steps = 0;
  };
  const FastCase& c = GetParam();
  auto environment = make_env(c.env);
  const PipelineConfig config = make_config(c);

  FastEngine detached(*environment, config);
  FastEngine attached(*environment, config);
  std::vector<SampleTrace> trace;
  CountingSink sink;
  attached.set_trace(&trace);
  attached.set_telemetry(&sink);
  for (FastEngine* e : {&detached, &attached}) {
    e->run_iterations(17);
    e->run_samples(2000);
    e->run_iterations(1);
  }
  EXPECT_EQ(trace.size(), attached.stats().iterations);
  EXPECT_EQ(sink.steps, attached.stats().iterations);
  expect_same_stats(detached.stats(), attached.stats());
  EXPECT_EQ(state_bytes(*environment, config, detached.save_state()),
            state_bytes(*environment, config, attached.save_state()));
}

INSTANTIATE_TEST_SUITE_P(Sweep, FastEngineTest,
                         testing::ValuesIn(make_cases()), case_name);

// The terminal90 sweep cases only test the walk's bubble handling if
// bubble runs outgrow its 16-iteration look-ahead.
TEST(FastEngineLookAhead, Terminal90HasBubbleRunsLongerThanTheLookAhead) {
  auto environment = make_env(FastEnvKind::kTerminal90);
  FastEngine fast(*environment,
                  make_config({Algorithm::kQLearning, QmaxMode::kMonotoneTable,
                               HazardMode::kForward, FastEnvKind::kTerminal90,
                               1}));
  std::vector<SampleTrace> trace;
  fast.set_trace(&trace);
  fast.run_iterations(12001);
  std::uint64_t run = 0;
  std::uint64_t longest = 0;
  for (const SampleTrace& t : trace) {
    run = t.bubble ? run + 1 : 0;
    longest = std::max(longest, run);
  }
  EXPECT_GT(longest, 16u);
}

// Warm-start path: preset_q + rebuild_qmax must leave both backends in
// the same state, and stay bit-identical when training resumes.
TEST(FastEngineWarmStart, PresetAndRebuildMatchPipeline) {
  auto environment = make_env(FastEnvKind::kGrid8x8);
  PipelineConfig config;
  config.algorithm = Algorithm::kQLearning;
  config.seed = 21;

  Pipeline pipeline(*environment, config);
  FastEngine fast(*environment, config);
  for (StateId s = 0; s < environment->num_states(); ++s) {
    const fixed::raw_t v =
        fixed::from_double(0.01 * static_cast<double>(s % 17) - 0.05,
                           config.q_fmt);
    pipeline.preset_q(s, s % environment->num_actions(), v);
    fast.preset_q(s, s % environment->num_actions(), v);
  }
  pipeline.rebuild_qmax();
  fast.rebuild_qmax();
  pipeline.run_iterations(4000);
  fast.run_iterations(4000);
  for (StateId s = 0; s < environment->num_states(); ++s) {
    for (ActionId a = 0; a < environment->num_actions(); ++a) {
      ASSERT_EQ(pipeline.q_raw(s, a), fast.q_raw(s, a));
    }
    ASSERT_EQ(pipeline.qmax_entry(s).value, fast.qmax_entry(s).value);
  }
}

// The Engine facade dispatches per config.backend and both choices agree.
TEST(EngineFacade, BackendsProduceIdenticalResults) {
  auto environment = make_env(FastEnvKind::kGrid8x8);
  PipelineConfig config;
  config.algorithm = Algorithm::kSarsa;
  config.seed = 3;

  config.backend = Backend::kCycleAccurate;
  runtime::Engine cycle(*environment, config);
  config.backend = Backend::kFast;
  runtime::Engine fast(*environment, config);

  EXPECT_EQ(cycle.backend_kind(), Backend::kCycleAccurate);
  EXPECT_EQ(fast.backend_kind(), Backend::kFast);

  cycle.run_samples(8000);
  fast.run_samples(8000);
  EXPECT_EQ(cycle.stats().samples, fast.stats().samples);
  EXPECT_EQ(cycle.stats().cycles, fast.stats().cycles);
  const auto want = cycle.q_as_double();
  const auto got = fast.q_as_double();
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i], got[i]) << "q_as_double divergence at " << i;
  }
  EXPECT_EQ(cycle.greedy_policy(), fast.greedy_policy());
}

// The capability API replaces the old aborting pipeline() accessor:
// callers probe caps()/cycle_pipeline() instead of assuming a backend.
TEST(EngineFacade, CapabilityFlagsAndNullableCyclePipeline) {
  auto environment = make_env(FastEnvKind::kRing2);
  PipelineConfig config;

  config.backend = Backend::kCycleAccurate;
  runtime::Engine cycle(*environment, config);
  EXPECT_TRUE(cycle.backend().has_waveforms());
  EXPECT_TRUE(cycle.backend().has_cycle_events());
  EXPECT_TRUE(cycle.backend().has_port_audit());
  EXPECT_TRUE(cycle.backend().has_single_cycle_step());
  ASSERT_NE(cycle.cycle_pipeline(), nullptr);

  config.backend = Backend::kFast;
  runtime::Engine fast(*environment, config);
  EXPECT_FALSE(fast.backend().has_waveforms());
  EXPECT_FALSE(fast.backend().has_cycle_events());
  EXPECT_FALSE(fast.backend().has_port_audit());
  EXPECT_FALSE(fast.backend().has_single_cycle_step());
  EXPECT_EQ(fast.cycle_pipeline(), nullptr);
}

TEST(BackendParsing, RoundTripsAndRejectsJunk) {
  EXPECT_EQ(parse_backend("cycle"), Backend::kCycleAccurate);
  EXPECT_EQ(parse_backend("cycle-accurate"), Backend::kCycleAccurate);
  EXPECT_EQ(parse_backend("fast"), Backend::kFast);
  EXPECT_EQ(parse_backend("lanes"), Backend::kLanes);
  EXPECT_STREQ(backend_name(Backend::kCycleAccurate), "cycle");
  EXPECT_STREQ(backend_name(Backend::kFast), "fast");
  EXPECT_STREQ(backend_name(Backend::kLanes), "lanes");
  EXPECT_DEATH(parse_backend("warp"), "--backend");
}

}  // namespace
}  // namespace qta::qtaccel

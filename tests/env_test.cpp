#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <vector>

#include "env/bandit.h"
#include "env/grid_world.h"
#include "env/partition.h"
#include "env/random_mdp.h"
#include "env/value_iteration.h"
#include "qtaccel/fast_engine.h"
#include "qtaccel/golden_model.h"

namespace qta::env {
namespace {

GridWorldConfig small_grid() {
  GridWorldConfig c;
  c.width = 4;
  c.height = 4;
  c.num_actions = 4;
  return c;
}

TEST(GridWorld, PaperStateAddressing) {
  // 16x16 grid: 8-bit state, high 4 bits = x, low 4 bits = y (Section
  // VI-B's example).
  GridWorldConfig c;
  c.width = 16;
  c.height = 16;
  GridWorld g(c);
  EXPECT_EQ(g.state_of(3, 5), (3u << 4) | 5u);
  EXPECT_EQ(g.x_of((3u << 4) | 5u), 3u);
  EXPECT_EQ(g.y_of((3u << 4) | 5u), 5u);
  EXPECT_EQ(g.num_states(), 256u);
}

TEST(GridWorld, FourActionEncodings) {
  // 00 left, 01 up, 10 right, 11 down.
  GridWorld g(small_grid());
  const StateId s = g.state_of(1, 1);
  EXPECT_EQ(g.transition(s, 0b00), g.state_of(0, 1));
  EXPECT_EQ(g.transition(s, 0b01), g.state_of(1, 0));
  EXPECT_EQ(g.transition(s, 0b10), g.state_of(2, 1));
  EXPECT_EQ(g.transition(s, 0b11), g.state_of(1, 2));
}

TEST(GridWorld, EightActionEncodings) {
  // 000 left, 001 top-left, 010 up, 011 top-right, then clockwise.
  GridWorldConfig c = small_grid();
  c.num_actions = 8;
  GridWorld g(c);
  const StateId s = g.state_of(1, 1);
  EXPECT_EQ(g.transition(s, 0b000), g.state_of(0, 1));  // left
  EXPECT_EQ(g.transition(s, 0b001), g.state_of(0, 0));  // top-left
  EXPECT_EQ(g.transition(s, 0b010), g.state_of(1, 0));  // up
  EXPECT_EQ(g.transition(s, 0b011), g.state_of(2, 0));  // top-right
  EXPECT_EQ(g.transition(s, 0b100), g.state_of(2, 1));  // right
  EXPECT_EQ(g.transition(s, 0b101), g.state_of(2, 2));  // bottom-right
  EXPECT_EQ(g.transition(s, 0b110), g.state_of(1, 2));  // down
  EXPECT_EQ(g.transition(s, 0b111), g.state_of(0, 2));  // bottom-left
}

TEST(GridWorld, BoundaryBumpsStayAndPenalize) {
  GridWorld g(small_grid());
  const StateId corner = g.state_of(0, 0);
  EXPECT_EQ(g.transition(corner, 0b00), corner);  // left off-grid
  EXPECT_EQ(g.transition(corner, 0b01), corner);  // up off-grid
  EXPECT_DOUBLE_EQ(g.reward(corner, 0b00), -255.0);
}

TEST(GridWorld, GoalRewardAndTerminal) {
  GridWorld g(small_grid());  // goal defaults to (3,3)
  EXPECT_EQ(g.goal_state(), g.state_of(3, 3));
  EXPECT_TRUE(g.is_terminal(g.goal_state()));
  EXPECT_FALSE(g.is_terminal(g.state_of(0, 0)));
  // Stepping into the goal yields +255.
  EXPECT_DOUBLE_EQ(g.reward(g.state_of(2, 3), 0b10), 255.0);
  EXPECT_DOUBLE_EQ(g.reward(g.state_of(3, 2), 0b11), 255.0);
}

TEST(GridWorld, ObstaclesBlockAndPenalize) {
  GridWorldConfig c = small_grid();
  c.obstacle_density = 0.3;
  c.obstacle_seed = 5;
  GridWorld g(c);
  unsigned obstacles = 0;
  for (StateId s = 0; s < g.num_states(); ++s) {
    if (g.is_obstacle(s)) ++obstacles;
  }
  EXPECT_GT(obstacles, 0u);
  EXPECT_FALSE(g.is_obstacle(g.goal_state()));
  // Moving into any obstacle is a stay + penalty: from a free cell the
  // agent can never land on an obstacle. (Obstacle cells themselves exist
  // as states — a random start may drop the agent on one and it walks
  // off — but regular movement never enters one.)
  for (StateId s = 0; s < g.num_states(); ++s) {
    if (g.is_obstacle(s)) continue;
    for (ActionId a = 0; a < g.num_actions(); ++a) {
      const StateId n = g.transition(s, a);
      EXPECT_FALSE(g.is_obstacle(n)) << "landed on an obstacle";
    }
  }
}

TEST(GridWorld, CustomGoalAndRewards) {
  GridWorldConfig c = small_grid();
  c.goal_x = 0;
  c.goal_y = 2;
  c.goal_reward = 100.0;
  c.collision_penalty = 50.0;
  c.step_reward = -1.0;
  GridWorld g(c);
  EXPECT_EQ(g.goal_state(), g.state_of(0, 2));
  EXPECT_DOUBLE_EQ(g.reward(g.state_of(1, 2), 0b00), 100.0);
  EXPECT_DOUBLE_EQ(g.reward(g.state_of(0, 0), 0b00), -50.0);
  EXPECT_DOUBLE_EQ(g.reward(g.state_of(2, 0), 0b00), -1.0);
}

// move() is the one definition of a grid move. Checked against a
// from-scratch reference (action_delta, bounds, obstacles, goal) on every
// (s, a), and transition()/reward() through the virtual interface must
// agree with it.
TEST(GridWorld, TransitionAndRewardAgreeWithMove) {
  for (unsigned actions : {4u, 8u}) {
    GridWorldConfig c;
    c.width = 8;
    c.height = 4;
    c.num_actions = actions;
    c.goal_x = 2;
    c.goal_y = 1;
    c.obstacle_density = 0.25;
    c.obstacle_seed = 5;
    c.extra_obstacles = {{0, 0}, {7, 3}};
    c.goal_reward = 10.0;
    c.collision_penalty = 3.0;
    c.step_reward = -1.0;
    const GridWorld g(c);
    const Environment& env = g;
    unsigned seen[3] = {};
    for (StateId s = 0; s < g.num_states(); ++s) {
      for (ActionId a = 0; a < actions; ++a) {
        int dx = 0, dy = 0;
        GridWorld::action_delta(actions, a, dx, dy);
        const int nx = static_cast<int>(g.x_of(s)) + dx;
        const int ny = static_cast<int>(g.y_of(s)) + dy;
        StateId want_next = s;
        double want_reward = -3.0;
        if (nx >= 0 && ny >= 0 && nx < 8 && ny < 4 &&
            !g.is_obstacle(g.state_of(static_cast<unsigned>(nx),
                                      static_cast<unsigned>(ny)))) {
          want_next = g.state_of(static_cast<unsigned>(nx),
                                 static_cast<unsigned>(ny));
          want_reward = want_next == g.goal_state() ? 10.0 : -1.0;
        }
        const GridWorld::Move m = g.move(s, a);
        EXPECT_EQ(m.next, want_next) << "s=" << s << " a=" << a;
        EXPECT_EQ(g.outcome_reward(m.outcome), want_reward)
            << "s=" << s << " a=" << a;
        EXPECT_EQ(env.transition(s, a), m.next);
        EXPECT_EQ(env.reward(s, a), g.outcome_reward(m.outcome));
        ++seen[static_cast<unsigned>(m.outcome)];
      }
    }
    // The world exercises all three outcomes.
    EXPECT_GT(seen[static_cast<unsigned>(GridWorld::Outcome::kMove)], 0u);
    EXPECT_GT(seen[static_cast<unsigned>(GridWorld::Outcome::kBump)], 0u);
    EXPECT_GT(seen[static_cast<unsigned>(GridWorld::Outcome::kGoal)], 0u);
  }
}

// FastEngine pays a grid's reward inline from the move's outcome rather
// than from a reward image; with three distinct non-default rewards it
// must still retire the golden model's exact trace.
TEST(GridWorld, FastEngineMatchesGoldenOnEveryRewardOutcome) {
  GridWorldConfig c;
  c.width = 8;
  c.height = 8;
  c.num_actions = 4;
  c.obstacle_density = 0.2;
  c.obstacle_seed = 11;
  c.goal_reward = 7.5;
  c.collision_penalty = 2.25;
  c.step_reward = -1.0;
  const GridWorld g(c);
  for (auto algorithm :
       {qtaccel::Algorithm::kQLearning, qtaccel::Algorithm::kSarsa}) {
    qtaccel::PipelineConfig config;
    config.algorithm = algorithm;
    config.seed = 3;
    config.max_episode_length = 32;
    qtaccel::GoldenModel golden(g, config);
    qtaccel::FastEngine fast(g, config);
    std::vector<qtaccel::SampleTrace> golden_trace;
    std::vector<qtaccel::SampleTrace> fast_trace;
    golden.set_trace(&golden_trace);
    fast.set_trace(&fast_trace);
    golden.run(20000);
    fast.run_iterations(20000);
    ASSERT_EQ(golden_trace, fast_trace);
    std::set<fixed::raw_t> rewards;
    for (const auto& t : fast_trace) {
      if (!t.bubble) rewards.insert(t.reward);
    }
    EXPECT_EQ(rewards.size(), 3u);
    for (StateId s = 0; s < g.num_states(); ++s) {
      for (ActionId a = 0; a < g.num_actions(); ++a) {
        ASSERT_EQ(golden.q_raw(s, a), fast.q_raw(s, a));
      }
    }
  }
}

TEST(GridWorld, SlipperyTransitionsUseNoise) {
  GridWorldConfig c = small_grid();
  c.slip_probability = 0.25;  // threshold 64 of 256
  GridWorld g(c);
  EXPECT_EQ(g.transition_noise_bits(), 9u);
  const StateId s = g.state_of(1, 1);
  // noise low byte >= 64: no slip, intended move executes.
  EXPECT_EQ(g.transition(s, 0b10, 0xFF), g.state_of(2, 1));
  // noise low byte < 64, bit 8 = 1: clockwise slip (right -> down).
  EXPECT_EQ(g.transition(s, 0b10, 0x100), g.state_of(1, 2));
  // noise low byte < 64, bit 8 = 0: counter-clockwise (right -> up).
  EXPECT_EQ(g.transition(s, 0b10, 0x000), g.state_of(1, 0));
}

TEST(GridWorld, SlipFrequencyMatchesProbability) {
  GridWorldConfig c = small_grid();
  c.slip_probability = 0.25;
  GridWorld g(c);
  const StateId s = g.state_of(1, 1);
  int slips = 0;
  const int n = 1 << 9;  // enumerate the full noise space
  for (int noise = 0; noise < n; ++noise) {
    if (g.transition(s, 0b10, static_cast<std::uint64_t>(noise)) !=
        g.state_of(2, 1)) {
      ++slips;
    }
  }
  EXPECT_EQ(slips, 2 * 64);  // 64 low-byte values x 2 direction bits
}

TEST(GridWorld, DeterministicWorldIgnoresNoise) {
  GridWorld g(small_grid());
  EXPECT_EQ(g.transition_noise_bits(), 0u);
  const StateId s = g.state_of(1, 1);
  EXPECT_EQ(g.transition(s, 0b10, 12345), g.transition(s, 0b10));
}

TEST(GridWorld, EightActionSlipRotatesByTwo) {
  GridWorldConfig c = small_grid();
  c.num_actions = 8;
  c.slip_probability = 0.5;
  GridWorld g(c);
  const StateId s = g.state_of(1, 1);
  // Intended: right (100). CW quarter turn = +2 -> down (110).
  EXPECT_EQ(g.transition(s, 0b100, 0x100), g.state_of(1, 2));
  // CCW quarter turn = -2 -> up (010).
  EXPECT_EQ(g.transition(s, 0b100, 0x000), g.state_of(1, 0));
}

TEST(ValueIteration, SlipperyGridIntentPaidRewards) {
  // Architectural property worth knowing: the accelerator's reward is a
  // stored R(s, a) table, paid on INTENT. Under stochastic transitions an
  // agent standing next to the goal re-earns the goal reward on every
  // slipped attempt, so values can exceed the deterministic world's.
  // Value iteration models these exact semantics (reward on (s, a),
  // expectation over noise), which is what the accelerator learns.
  GridWorldConfig c = small_grid();
  GridWorld dry(c);
  c.slip_probability = 0.3;
  GridWorld icy(c);
  const auto vd = value_iteration(dry, 0.9);
  const auto vi_icy = value_iteration(icy, 0.9);
  const StateId adj = dry.state_of(2, 3);  // left of the goal
  // Deterministic: one intended entry, one payment.
  EXPECT_NEAR(vd.v[adj], 255.0, 1e-6);
  // Icy: 255 now plus a 30% chance to stay in the game and earn again.
  EXPECT_GT(vi_icy.v[adj], vd.v[adj]);
  // Exact fixpoint for the adjacent cell under these semantics:
  // v = 255 + gamma * p_slip_back... bounded above by 255/(1-0.9*0.3).
  EXPECT_LT(vi_icy.v[adj], 255.0 / (1.0 - 0.9 * 0.3) + 1e-6);
}

TEST(GridWorld, NonPow2DimensionsAbort) {
  GridWorldConfig c = small_grid();
  c.width = 5;
  EXPECT_DEATH(GridWorld{c}, "powers of two");
}

TEST(GridWorld, RendersAscii) {
  GridWorld g(small_grid());
  std::ostringstream os;
  g.render(os);
  EXPECT_NE(os.str().find('G'), std::string::npos);
  // Policy rendering.
  std::vector<ActionId> policy(g.num_states(), 2);  // all 'right'
  std::ostringstream os2;
  g.render(os2, &policy);
  EXPECT_NE(os2.str().find('>'), std::string::npos);
}

TEST(GridWorld, TableSize) {
  GridWorldConfig c;
  c.width = 512;
  c.height = 512;
  c.num_actions = 8;
  GridWorld g(c);
  EXPECT_EQ(g.num_states(), 262144u);
  EXPECT_EQ(g.table_size(), 2097152u);  // "more than 2 million" pairs
}

TEST(RandomMdp, Deterministic) {
  RandomMdpConfig c;
  c.seed = 9;
  RandomMdp a(c), b(c);
  for (StateId s = 0; s < a.num_states(); ++s) {
    for (ActionId act = 0; act < a.num_actions(); ++act) {
      EXPECT_EQ(a.transition(s, act), b.transition(s, act));
      EXPECT_DOUBLE_EQ(a.reward(s, act), b.reward(s, act));
    }
  }
}

TEST(RandomMdp, RingStructure) {
  RandomMdpConfig c;
  c.num_states = 4;
  c.ring = true;
  RandomMdp m(c);
  for (StateId s = 0; s < 4; ++s) {
    for (ActionId a = 0; a < m.num_actions(); ++a) {
      EXPECT_EQ(m.transition(s, a), (s + 1) % 4);
    }
  }
}

TEST(RandomMdp, SelfLoopStructure) {
  RandomMdpConfig c;
  c.self_loop = true;
  RandomMdp m(c);
  for (StateId s = 0; s < m.num_states(); ++s) {
    for (ActionId a = 0; a < m.num_actions(); ++a) {
      EXPECT_EQ(m.transition(s, a), s);
    }
  }
}

TEST(RandomMdp, RewardsInRange) {
  RandomMdpConfig c;
  c.reward_lo = -3.0;
  c.reward_hi = 7.0;
  RandomMdp m(c);
  for (StateId s = 0; s < m.num_states(); ++s) {
    for (ActionId a = 0; a < m.num_actions(); ++a) {
      EXPECT_GE(m.reward(s, a), -3.0);
      EXPECT_LE(m.reward(s, a), 7.0);
    }
  }
}

TEST(RandomMdp, TerminalFractionKeepsStateZeroLive) {
  RandomMdpConfig c;
  c.terminal_fraction = 0.5;
  c.num_states = 32;
  RandomMdp m(c);
  EXPECT_FALSE(m.is_terminal(0));
  unsigned terminals = 0;
  for (StateId s = 0; s < 32; ++s) terminals += m.is_terminal(s) ? 1u : 0u;
  EXPECT_GT(terminals, 0u);
}

TEST(Bandit, RegretAccounting) {
  MultiArmedBandit b({{0.1, 0.0}, {0.9, 0.0}}, 1);
  EXPECT_EQ(b.best_arm(), 1u);
  EXPECT_DOUBLE_EQ(b.best_mean(), 0.9);
  b.pull(0);
  b.pull(1);
  EXPECT_DOUBLE_EQ(b.cumulative_regret(), 0.8);
  EXPECT_EQ(b.total_pulls(), 2u);
}

TEST(Bandit, ZeroNoiseRewardsEqualMeans) {
  MultiArmedBandit b({{0.5, 0.0}, {-0.25, 0.0}}, 2);
  EXPECT_DOUBLE_EQ(b.pull(0), 0.5);
  EXPECT_DOUBLE_EQ(b.pull(1), -0.25);
}

TEST(Bandit, EvenlySpaced) {
  auto b = MultiArmedBandit::evenly_spaced(5, 0.1, 3);
  EXPECT_EQ(b.num_arms(), 5u);
  EXPECT_EQ(b.best_arm(), 4u);
  EXPECT_DOUBLE_EQ(b.arm(0).mean, 0.0);
  EXPECT_DOUBLE_EQ(b.arm(4).mean, 1.0);
}

TEST(Bandit, NoisyRewardsAverageToMean) {
  MultiArmedBandit b({{2.0, 0.5}, {0.0, 0.5}}, 7);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) sum += b.pull(0);
  EXPECT_NEAR(sum / 20000.0, 2.0, 0.02);
}

TEST(Partition, SplitsIntoBands) {
  GridWorldConfig c;
  c.width = 8;
  c.height = 16;
  const auto bands = partition_grid(c, 4);
  ASSERT_EQ(bands.size(), 4u);
  for (const auto& b : bands) {
    EXPECT_EQ(b.width, 8u);
    EXPECT_EQ(b.height, 4u);
    GridWorld g(b);  // must construct cleanly
    EXPECT_EQ(g.num_states(), 32u);
  }
}

TEST(Partition, GlobalGoalLandsInItsBand) {
  GridWorldConfig c;
  c.width = 8;
  c.height = 16;
  c.goal_x = 2;
  c.goal_y = 5;  // band 1 (rows 4..7)
  const auto bands = partition_grid(c, 4);
  EXPECT_EQ(bands[1].goal_x.value(), 2u);
  EXPECT_EQ(bands[1].goal_y.value(), 1u);  // 5 - 4
  // Other bands use their far corner.
  EXPECT_EQ(bands[0].goal_x.value(), 7u);
  EXPECT_EQ(bands[0].goal_y.value(), 3u);
}

TEST(Partition, RejectsBadCounts) {
  GridWorldConfig c;
  c.width = 8;
  c.height = 16;
  EXPECT_DEATH(partition_grid(c, 3), "power of two");
  EXPECT_DEATH(partition_grid(c, 16), "two rows");
}

TEST(ValueIteration, SolvesTwoStateChain) {
  // States {0, 1}: from 0, action 0 self-loops (r = 0), action 1 moves to
  // the terminal state 1 (r = 1). gamma = 0.5.
  struct Chain final : Environment {
    StateId num_states() const override { return 2; }
    ActionId num_actions() const override { return 2; }
    StateId transition(StateId s, ActionId a) const override {
      return (s == 0 && a == 1) ? 1 : s;
    }
    double reward(StateId s, ActionId a) const override {
      return (s == 0 && a == 1) ? 1.0 : 0.0;
    }
    bool is_terminal(StateId s) const override { return s == 1; }
  } chain;
  const auto r = value_iteration(chain, 0.5);
  EXPECT_NEAR(r.q_at(chain, 0, 1), 1.0, 1e-9);
  // Self-loop: q = 0 + 0.5 * v(0); v(0) = 1 -> q = 0.5.
  EXPECT_NEAR(r.q_at(chain, 0, 0), 0.5, 1e-9);
  EXPECT_EQ(r.policy[0], 1u);
}

TEST(ValueIteration, GridOptimalPolicyReachesGoal) {
  GridWorldConfig c;
  c.width = 8;
  c.height = 8;
  GridWorld g(c);
  const auto r = value_iteration(g, 0.9);
  // From the far corner the optimal path is 7+7 = 14 steps (4 actions).
  EXPECT_EQ(rollout_steps(g, r.policy, g.state_of(0, 0), 100), 14);
  // Every free state should reach the goal.
  for (StateId s = 0; s < g.num_states(); ++s) {
    if (g.is_obstacle(s)) continue;
    EXPECT_GE(rollout_steps(g, r.policy, s, 200), 0) << s;
  }
}

TEST(ValueIteration, EightActionsShorterPath) {
  GridWorldConfig c;
  c.width = 8;
  c.height = 8;
  c.num_actions = 8;
  GridWorld g(c);
  const auto r = value_iteration(g, 0.9);
  // Diagonal moves: 7 steps from corner to corner.
  EXPECT_EQ(rollout_steps(g, r.policy, g.state_of(0, 0), 100), 7);
}

TEST(ValueIteration, ConvergesAndReportsResidual) {
  GridWorldConfig c;
  c.width = 4;
  c.height = 4;
  GridWorld g(c);
  const auto r = value_iteration(g, 0.9, 1e-10);
  EXPECT_LT(r.residual, 1e-10);
  EXPECT_GT(r.iterations, 1u);
}

TEST(PolicyHelpers, GreedyPolicyFromQTable) {
  GridWorld g(small_grid());
  const auto vi = value_iteration(g, 0.9);
  const auto policy = greedy_policy_from(g, vi.q);
  // Must coincide with value iteration's own argmax.
  for (StateId s = 0; s < g.num_states(); ++s) {
    EXPECT_EQ(policy[s], vi.policy[s]) << s;
  }
}

TEST(PolicyHelpers, SuccessRateBounds) {
  GridWorld g(small_grid());
  const auto vi = value_iteration(g, 0.9);
  EXPECT_DOUBLE_EQ(policy_success_rate(g, vi.policy), 1.0);
  // An all-"up" policy pins every state to its column top: only the
  // goal's own column... actually none reach the goal.
  std::vector<ActionId> up(g.num_states(), 1);
  EXPECT_DOUBLE_EQ(policy_success_rate(g, up), 0.0);
}

TEST(PolicyHelpers, BlockedStatesExcluded) {
  GridWorldConfig c = small_grid();
  c.obstacle_density = 0.3;
  c.obstacle_seed = 5;
  GridWorld g(c);
  const auto vi = value_iteration(g, 0.9);
  const std::function<bool(StateId)> blocked = [&](StateId s) {
    // Exclude obstacles and walled-off pockets DP itself cannot solve.
    return g.is_obstacle(s) || rollout_steps(g, vi.policy, s, 2000) < 0;
  };
  EXPECT_DOUBLE_EQ(policy_success_rate(g, vi.policy, 2000, &blocked), 1.0);
}

TEST(ValueIteration, GreedyPathErrorSelfConsistent) {
  GridWorldConfig c;
  c.width = 4;
  c.height = 4;
  GridWorld g(c);
  const auto r = value_iteration(g, 0.9);
  EXPECT_NEAR(greedy_path_q_error(g, r, r.q, g.state_of(0, 0)), 0.0, 1e-12);
}

}  // namespace
}  // namespace qta::env

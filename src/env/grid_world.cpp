#include "env/grid_world.h"

#include <ostream>

#include "common/bit_math.h"
#include "common/check.h"

namespace qta::env {

GridWorld::GridWorld(const GridWorldConfig& config) : config_(config) {
  QTA_CHECK_MSG(is_pow2(config.width) && is_pow2(config.height),
                "grid dimensions must be powers of two (bit-concatenated "
                "state addressing)");
  QTA_CHECK_MSG(config.num_actions == 4 || config.num_actions == 8,
                "grid world supports 4 or 8 actions");
  QTA_CHECK_MSG(config.slip_probability >= 0.0 &&
                    config.slip_probability < 1.0,
                "slip probability must be in [0, 1)");
  x_bits_ = log2_ceil(config.width);
  y_bits_ = log2_ceil(config.height);

  const unsigned gx = config.goal_x.value_or(config.width - 1);
  const unsigned gy = config.goal_y.value_or(config.height - 1);
  QTA_CHECK(gx < config.width && gy < config.height);
  goal_ = state_of(gx, gy);

  obstacle_.assign(num_states(), false);
  if (config.obstacle_density > 0.0) {
    QTA_CHECK(config.obstacle_density < 1.0);
    rng::Xoshiro256 rng(config.obstacle_seed);
    for (StateId s = 0; s < num_states(); ++s) {
      if (s == goal_) continue;
      obstacle_[s] = rng.bernoulli(config.obstacle_density);
    }
  }
  for (const auto& [ox, oy] : config.extra_obstacles) {
    QTA_CHECK_MSG(ox < config.width && oy < config.height,
                  "explicit obstacle outside the grid");
    const StateId s = state_of(ox, oy);
    QTA_CHECK_MSG(s != goal_, "the goal cell cannot be an obstacle");
    obstacle_[s] = true;
  }
}

StateId GridWorld::num_states() const {
  return static_cast<StateId>(config_.width) * config_.height;
}

ActionId GridWorld::num_actions() const { return config_.num_actions; }

unsigned GridWorld::transition_noise_bits() const {
  // 8 bits for the slip compare + 1 direction bit.
  return config_.slip_probability > 0.0 ? 9 : 0;
}

StateId GridWorld::transition(StateId s, ActionId a,
                              std::uint64_t noise) const {
  if (config_.slip_probability <= 0.0) return transition(s, a);
  QTA_DCHECK(a < num_actions());
  const auto threshold = static_cast<std::uint64_t>(
      config_.slip_probability * 256.0);
  ActionId executed = a;
  if ((noise & 0xFF) < threshold) {
    // Slip: rotate the intended move 90 degrees; bit 8 picks CW vs CCW.
    // Both encodings (4- and 8-action) are in clockwise order, so a 90
    // degree turn is +-1 step (4 actions) or +-2 steps (8 actions).
    const unsigned quarter = config_.num_actions / 4;
    const bool cw = (noise >> 8) & 1;
    executed = (a + (cw ? quarter : config_.num_actions - quarter)) %
               config_.num_actions;
  }
  return transition(s, executed);
}

bool GridWorld::is_terminal(StateId s) const { return s == goal_; }

bool GridWorld::is_obstacle(StateId s) const {
  QTA_DCHECK(s < num_states());
  return obstacle_[s];
}

void GridWorld::render(std::ostream& os,
                       const std::vector<ActionId>* policy) const {
  // Arrow glyphs per action id, 4- and 8-action variants.
  static constexpr const char* kArrow4[4] = {"<", "^", ">", "v"};
  static constexpr const char* kArrow8[8] = {"<", "`", "^", "'",
                                             ">", ",", "v", "."};
  for (unsigned y = 0; y < config_.height; ++y) {
    for (unsigned x = 0; x < config_.width; ++x) {
      const StateId s = state_of(x, y);
      if (s == goal_) {
        os << 'G';
      } else if (obstacle_[s]) {
        os << '#';
      } else if (policy) {
        QTA_CHECK(policy->size() == num_states());
        const ActionId a = (*policy)[s];
        os << (config_.num_actions == 4 ? kArrow4[a % 4] : kArrow8[a % 8]);
      } else {
        os << '.';
      }
      os << ' ';
    }
    os << '\n';
  }
}

}  // namespace qta::env

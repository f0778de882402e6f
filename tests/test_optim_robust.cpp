#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>

#include "common/rng.h"
#include "optim/optimizer.h"
#include "optim/penalty.h"
#include "optim/schedule.h"
#include "robust/sampler.h"

namespace boson {
namespace {

// ----------------------------------------------------------- optimizers ----

class optimizer_kinds : public ::testing::TestWithParam<bool> {};

TEST_P(optimizer_kinds, minimizes_separable_quadratic) {
  const bool use_adam = GetParam();
  std::unique_ptr<opt::optimizer> o;
  if (use_adam) {
    o = std::make_unique<opt::adam>(0.1);
  } else {
    o = std::make_unique<opt::sgd_momentum>(0.05, 0.8);
  }
  // f(x) = sum c_i (x_i - t_i)^2 with assorted curvatures.
  const dvec c{1.0, 5.0, 0.2, 2.0};
  const dvec t{1.0, -2.0, 3.0, 0.5};
  dvec x(4, 0.0);
  for (int it = 0; it < 400; ++it) {
    dvec g(4);
    for (int i = 0; i < 4; ++i) g[i] = 2.0 * c[i] * (x[i] - t[i]);
    o->step(x, g);
  }
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(x[i], t[i], 0.05) << i;
}

TEST_P(optimizer_kinds, reset_clears_momentum) {
  const bool use_adam = GetParam();
  std::unique_ptr<opt::optimizer> o;
  if (use_adam) {
    o = std::make_unique<opt::adam>(0.5);
  } else {
    o = std::make_unique<opt::sgd_momentum>(0.5, 0.9);
  }
  dvec x{0.0};
  o->step(x, dvec{1.0});
  const double first_step = x[0];
  o->reset();
  dvec y{0.0};
  o->step(y, dvec{1.0});
  EXPECT_DOUBLE_EQ(y[0], first_step);
}

INSTANTIATE_TEST_SUITE_P(kinds, optimizer_kinds, ::testing::Bool());

TEST(adam, handles_wildly_scaled_gradients) {
  // Adam's per-parameter normalization: both coordinates must make progress
  // even when gradient magnitudes differ by 6 orders.
  opt::adam o(0.05);
  dvec x{0.0, 0.0};
  for (int it = 0; it < 200; ++it) {
    dvec g{2e-6 * (x[0] - 1.0), 2e+2 * (x[1] - 1.0)};
    o.step(x, g);
  }
  EXPECT_NEAR(x[0], 1.0, 0.1);
  EXPECT_NEAR(x[1], 1.0, 0.1);
}

TEST(adam, rejects_bad_hyperparameters) {
  EXPECT_THROW(opt::adam(-0.1), bad_argument);
  EXPECT_THROW(opt::adam(0.1, 1.0), bad_argument);
  EXPECT_THROW(opt::sgd_momentum(0.1, 1.0), bad_argument);
}

TEST(adam, size_mismatch_throws) {
  opt::adam o(0.1);
  dvec x(3, 0.0);
  EXPECT_THROW(o.step(x, dvec(4, 0.0)), bad_argument);
}

// ------------------------------------------------------------- schedule ----

TEST(schedule, ramps_linearly_between_endpoints) {
  opt::linear_schedule s(2.0, 10.0, 10, 30);
  EXPECT_DOUBLE_EQ(s.at(0), 2.0);
  EXPECT_DOUBLE_EQ(s.at(10), 2.0);
  EXPECT_DOUBLE_EQ(s.at(20), 6.0);
  EXPECT_DOUBLE_EQ(s.at(30), 10.0);
  EXPECT_DOUBLE_EQ(s.at(100), 10.0);
}

TEST(schedule, constant_schedule) {
  opt::linear_schedule s(3.5);
  EXPECT_DOUBLE_EQ(s.at(0), 3.5);
  EXPECT_DOUBLE_EQ(s.at(1000), 3.5);
}

TEST(schedule, invalid_ramp_throws) {
  EXPECT_THROW(opt::linear_schedule(0.0, 1.0, 5, 2), bad_argument);
}

// -------------------------------------------------------------- penalty ----

TEST(penalty, upper_bound_activates_above) {
  opt::penalty_spec p{"reflection", 2.0, 0.1, true};
  EXPECT_DOUBLE_EQ(p.value_at(0.05), 0.0);
  EXPECT_DOUBLE_EQ(p.slope_at(0.05), 0.0);
  EXPECT_NEAR(p.value_at(0.25), 2.0 * 0.15, 1e-12);
  EXPECT_DOUBLE_EQ(p.slope_at(0.25), 2.0);
}

TEST(penalty, lower_bound_activates_below) {
  opt::penalty_spec p{"fwd_transmission", 3.0, 0.8, false};
  EXPECT_DOUBLE_EQ(p.value_at(0.9), 0.0);
  EXPECT_NEAR(p.value_at(0.5), 3.0 * 0.3, 1e-12);
  EXPECT_DOUBLE_EQ(p.slope_at(0.5), -3.0);
}

TEST(penalty, exactly_at_bound_is_free) {
  opt::penalty_spec p{"x", 1.0, 0.5, true};
  EXPECT_DOUBLE_EQ(p.value_at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(p.slope_at(0.5), 0.0);
}

// -------------------------------------------------------------- corners ----

robust::variation_space test_space() {
  robust::variation_space s;
  s.eole_terms = 6;
  return s;
}

TEST(corners, nominal_detection) {
  robust::variation_corner c;
  c.xi.assign(4, 0.0);
  EXPECT_TRUE(c.is_nominal());
  c.temperature = 310.0;
  EXPECT_FALSE(c.is_nominal());
  c.temperature = 300.0;
  c.xi[2] = 0.1;
  EXPECT_FALSE(c.is_nominal());
}

// GoogleTest names each case by the raw bytes of its parameter; the explicit
// tag fills what would otherwise be uninitialized padding, so the case names
// are the same on every run (see device_case in test_devices_io.cpp).
struct strategy_case {
  robust::sampling_strategy strategy;
  std::uint32_t name_tag;
  std::size_t expected_count;
};
static_assert(sizeof(strategy_case) == 16, "strategy_case must have no padding");

class sampler_strategies : public ::testing::TestWithParam<strategy_case> {};

TEST_P(sampler_strategies, corner_count_matches_cost_model) {
  const auto strategy = GetParam().strategy;
  const std::size_t expected = GetParam().expected_count;
  robust::corner_sampler sampler(strategy, test_space());
  rng r(4);
  const auto corners = sampler.sample(r, std::nullopt);
  EXPECT_EQ(corners.size(), expected);
  EXPECT_EQ(sampler.corners_per_iteration(), expected);
  // First corner is always nominal-ish for axial strategies.
  for (const auto& c : corners) EXPECT_EQ(c.xi.size(), test_space().eole_terms);
}

INSTANTIATE_TEST_SUITE_P(
    strategies, sampler_strategies,
    ::testing::Values(strategy_case{robust::sampling_strategy::nominal_only, 0x55ec, 1},
                      strategy_case{robust::sampling_strategy::axial_single, 0x55ec, 4},
                      strategy_case{robust::sampling_strategy::axial_double, 0x55ec, 7},
                      strategy_case{robust::sampling_strategy::exhaustive, 0, 27},
                      strategy_case{robust::sampling_strategy::axial_plus_random, 0, 8},
                      strategy_case{robust::sampling_strategy::axial_plus_worst, 0, 8}));

TEST(sampler, axial_double_covers_all_axes_both_sides) {
  robust::corner_sampler sampler(robust::sampling_strategy::axial_double, test_space());
  rng r(5);
  const auto corners = sampler.sample(r, std::nullopt);
  std::set<std::string> names;
  for (const auto& c : corners) names.insert(c.name);
  for (const char* expected :
       {"nominal", "litho+", "litho-", "temp+", "temp-", "eta+", "eta-"})
    EXPECT_TRUE(names.count(expected)) << expected;
}

TEST(sampler, exhaustive_covers_27_distinct_combinations) {
  robust::corner_sampler sampler(robust::sampling_strategy::exhaustive, test_space());
  rng r(6);
  const auto corners = sampler.sample(r, std::nullopt);
  std::set<std::tuple<int, double, double>> combos;
  for (const auto& c : corners) combos.insert({c.litho, c.temperature, c.eta_shift});
  EXPECT_EQ(combos.size(), 27u);
}

TEST(sampler, worst_corner_follows_gradient_signs) {
  const auto space = test_space();
  robust::worst_case_info info;
  info.d_temperature = -3.0;  // loss decreases with T -> worst is cold corner
  info.d_xi = {1.0, 0.0, -1.0, 0.0, 0.0, 0.0};
  const auto c = robust::make_worst_corner(info, space);
  EXPECT_DOUBLE_EQ(c.temperature, space.temp_min);
  EXPECT_GT(c.xi[0], 0.0);
  EXPECT_LT(c.xi[2], 0.0);
  EXPECT_DOUBLE_EQ(c.xi[1], 0.0);
  // Normalized step magnitude.
  double norm = 0.0;
  for (const double v : c.xi) norm += v * v;
  EXPECT_NEAR(std::sqrt(norm), space.worst_xi_scale, 1e-12);
}

TEST(sampler, worst_corner_with_zero_gradient_is_centered) {
  robust::worst_case_info info;
  info.d_xi.assign(6, 0.0);
  info.d_temperature = 0.0;
  const auto c = robust::make_worst_corner(info, test_space());
  for (const double v : c.xi) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(sampler, axial_plus_worst_uses_fallback_without_info) {
  robust::corner_sampler sampler(robust::sampling_strategy::axial_plus_worst, test_space());
  rng r(8);
  const auto corners = sampler.sample(r, std::nullopt);
  EXPECT_EQ(corners.back().name, "worst-case(warmup)");
  robust::worst_case_info info;
  info.d_xi.assign(6, 1.0);
  info.d_temperature = 1.0;
  const auto with_info = sampler.sample(r, info);
  EXPECT_EQ(with_info.back().name, "worst-case");
  EXPECT_DOUBLE_EQ(with_info.back().temperature, test_space().temp_max);
}

TEST(sampler, random_corner_within_ranges) {
  const auto space = test_space();
  rng r(11);
  for (int i = 0; i < 50; ++i) {
    const auto c = robust::random_corner(r, space, "mc");
    EXPECT_GE(c.litho, 0);
    EXPECT_LT(c.litho, static_cast<int>(space.num_litho_corners));
    EXPECT_GE(c.temperature, space.temp_min);
    EXPECT_LE(c.temperature, space.temp_max);
    EXPECT_EQ(c.xi.size(), space.eole_terms);
  }
}

TEST(sampler, strategy_names_are_distinct) {
  std::set<std::string> names;
  for (const auto s :
       {robust::sampling_strategy::nominal_only, robust::sampling_strategy::axial_single,
        robust::sampling_strategy::axial_double, robust::sampling_strategy::exhaustive,
        robust::sampling_strategy::axial_plus_random,
        robust::sampling_strategy::axial_plus_worst})
    names.insert(robust::to_string(s));
  EXPECT_EQ(names.size(), 6u);
}

}  // namespace
}  // namespace boson

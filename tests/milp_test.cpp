// Tests for the MILP substrate: simplex on known LPs, branch-and-bound on
// known integer programs, and a parameterized cross-check of the MILP
// solver against brute-force enumeration on random small problems.
#include <gtest/gtest.h>

#include <cmath>

#include "milp/branch_and_bound.hpp"
#include "milp/problem.hpp"
#include "milp/simplex.hpp"
#include "util/rng.hpp"

namespace diffserve::milp {
namespace {

TEST(Simplex, TextbookTwoVariable) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> x=2, y=6, obj=36.
  Problem p;
  const int x = p.add_variable("x", VarType::kContinuous, 0, kInfinity, 3);
  const int y = p.add_variable("y", VarType::kContinuous, 0, kInfinity, 5);
  p.add_constraint("c1", {{x, 1.0}}, Sense::kLe, 4);
  p.add_constraint("c2", {{y, 2.0}}, Sense::kLe, 12);
  p.add_constraint("c3", {{x, 3.0}, {y, 2.0}}, Sense::kLe, 18);
  const auto sol = solve_lp(p);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 36.0, 1e-7);
  EXPECT_NEAR(sol.values[static_cast<std::size_t>(x)], 2.0, 1e-7);
  EXPECT_NEAR(sol.values[static_cast<std::size_t>(y)], 6.0, 1e-7);
}

TEST(Simplex, GreaterEqualAndEquality) {
  // min x + y s.t. x + y >= 2, x == 0.5  -> as max -(x+y): x=0.5, y=1.5.
  Problem p;
  const int x = p.add_variable("x", VarType::kContinuous, 0, kInfinity, -1);
  const int y = p.add_variable("y", VarType::kContinuous, 0, kInfinity, -1);
  p.add_constraint("ge", {{x, 1.0}, {y, 1.0}}, Sense::kGe, 2.0);
  p.add_constraint("eq", {{x, 1.0}}, Sense::kEq, 0.5);
  const auto sol = solve_lp(p);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, -2.0, 1e-7);
  EXPECT_NEAR(sol.values[static_cast<std::size_t>(x)], 0.5, 1e-7);
  EXPECT_NEAR(sol.values[static_cast<std::size_t>(y)], 1.5, 1e-7);
}

TEST(Simplex, VariableBoundsRespected) {
  // max x + y with 1 <= x <= 2, 0 <= y <= 3, x + y <= 4 -> obj 4.
  Problem p;
  const int x = p.add_variable("x", VarType::kContinuous, 1, 2, 1);
  const int y = p.add_variable("y", VarType::kContinuous, 0, 3, 1);
  p.add_constraint("cap", {{x, 1.0}, {y, 1.0}}, Sense::kLe, 4.0);
  const auto sol = solve_lp(p);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 4.0, 1e-7);
  EXPECT_GE(sol.values[static_cast<std::size_t>(x)], 1.0 - 1e-9);
  EXPECT_LE(sol.values[static_cast<std::size_t>(y)], 3.0 + 1e-9);
}

TEST(Simplex, DetectsInfeasible) {
  Problem p;
  const int x = p.add_variable("x", VarType::kContinuous, 0, 1, 1);
  p.add_constraint("impossible", {{x, 1.0}}, Sense::kGe, 5.0);
  EXPECT_EQ(solve_lp(p).status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  Problem p;
  p.add_variable("x", VarType::kContinuous, 0, kInfinity, 1);
  EXPECT_EQ(solve_lp(p).status, SolveStatus::kUnbounded);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Multiple constraints active at the optimum.
  Problem p;
  const int x = p.add_variable("x", VarType::kContinuous, 0, kInfinity, 1);
  const int y = p.add_variable("y", VarType::kContinuous, 0, kInfinity, 1);
  p.add_constraint("a", {{x, 1.0}, {y, 1.0}}, Sense::kLe, 1.0);
  p.add_constraint("b", {{x, 1.0}}, Sense::kLe, 1.0);
  p.add_constraint("c", {{y, 1.0}}, Sense::kLe, 1.0);
  p.add_constraint("d", {{x, 2.0}, {y, 2.0}}, Sense::kLe, 2.0);
  const auto sol = solve_lp(p);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 1.0, 1e-7);
}

TEST(Simplex, NonZeroLowerBoundsShifted) {
  // max -x with x >= 3 -> x = 3.
  Problem p;
  const int x = p.add_variable("x", VarType::kContinuous, 3, kInfinity, -1);
  (void)x;
  const auto sol = solve_lp(p);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.values[0], 3.0, 1e-8);
}

TEST(Simplex, CrossedBoundsAreInfeasibleAndTheWorkspaceIsReused) {
  // The textbook LP above, solved through one workspace: first under
  // bounds that cross (2.5 <= x <= 2), then under the problem's own.
  Problem p;
  const int x = p.add_variable("x", VarType::kContinuous, 0, kInfinity, 3);
  const int y = p.add_variable("y", VarType::kContinuous, 0, kInfinity, 5);
  p.add_constraint("c1", {{x, 1.0}}, Sense::kLe, 4);
  p.add_constraint("c2", {{y, 2.0}}, Sense::kLe, 12);
  p.add_constraint("c3", {{x, 3.0}, {y, 2.0}}, Sense::kLe, 18);
  LpRelaxation lp(p);
  const Solution crossed = lp.solve({2.5, 0.0}, {2.0, kInfinity});
  EXPECT_EQ(crossed.status, SolveStatus::kInfeasible);
  EXPECT_TRUE(crossed.values.empty());
  const Solution own = lp.solve({0.0, 0.0}, {kInfinity, kInfinity});
  const Solution fresh = solve_lp(p);
  ASSERT_TRUE(own.optimal());
  EXPECT_EQ(own.objective, fresh.objective);
  EXPECT_EQ(own.values, fresh.values);
  EXPECT_NEAR(own.objective, 36.0, 1e-7);
}

TEST(Problem, ViolationMeasurement) {
  Problem p;
  const int x = p.add_variable("x", VarType::kContinuous, 0, 1, 1);
  p.add_constraint("c", {{x, 1.0}}, Sense::kLe, 0.5);
  EXPECT_NEAR(p.max_violation({0.8}), 0.3, 1e-12);
  EXPECT_NEAR(p.max_violation({0.4}), 0.0, 1e-12);
  EXPECT_NEAR(p.objective_value({0.4}), 0.4, 1e-12);
}

TEST(Milp, KnapsackKnownOptimum) {
  // max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6, binary -> a + c = 17? Check:
  // {a,c}: weight 5 value 17; {b,c}: weight 6 value 20 <- optimum.
  Problem p;
  const int a = p.add_variable("a", VarType::kBinary, 0, 1, 10);
  const int b = p.add_variable("b", VarType::kBinary, 0, 1, 13);
  const int c = p.add_variable("c", VarType::kBinary, 0, 1, 7);
  p.add_constraint("w", {{a, 3.0}, {b, 4.0}, {c, 2.0}}, Sense::kLe, 6.0);
  const auto res = solve_milp(p);
  ASSERT_TRUE(res.solution.optimal());
  EXPECT_NEAR(res.solution.objective, 20.0, 1e-7);
  EXPECT_NEAR(res.solution.values[static_cast<std::size_t>(b)], 1.0, 1e-9);
  EXPECT_NEAR(res.solution.values[static_cast<std::size_t>(c)], 1.0, 1e-9);
}

TEST(Milp, IntegerRounding) {
  // max x s.t. 2x <= 7, x integer -> 3 (LP relaxation 3.5).
  Problem p;
  const int x = p.add_variable("x", VarType::kInteger, 0, kInfinity, 1);
  p.add_constraint("c", {{x, 2.0}}, Sense::kLe, 7.0);
  const auto res = solve_milp(p);
  ASSERT_TRUE(res.solution.optimal());
  EXPECT_NEAR(res.solution.values[0], 3.0, 1e-9);
}

TEST(Milp, MixedIntegerContinuous) {
  // max 2x + y, x integer, y continuous; x + y <= 3.5, x <= 2.2.
  // Optimum: x = 2, y = 1.5 -> 5.5.
  Problem p;
  const int x = p.add_variable("x", VarType::kInteger, 0, kInfinity, 2);
  const int y = p.add_variable("y", VarType::kContinuous, 0, kInfinity, 1);
  p.add_constraint("sum", {{x, 1.0}, {y, 1.0}}, Sense::kLe, 3.5);
  p.add_constraint("xcap", {{x, 1.0}}, Sense::kLe, 2.2);
  const auto res = solve_milp(p);
  ASSERT_TRUE(res.solution.optimal());
  EXPECT_NEAR(res.solution.objective, 5.5, 1e-7);
}

TEST(Milp, InfeasibleIntegerProblem) {
  // 0.4 <= x <= 0.6 has no integer point.
  Problem p;
  p.add_variable("x", VarType::kInteger, 0, 1, 1);
  p.add_constraint("lo", {{0, 1.0}}, Sense::kGe, 0.4);
  p.add_constraint("hi", {{0, 1.0}}, Sense::kLe, 0.6);
  const auto res = solve_milp(p);
  EXPECT_EQ(res.solution.status, SolveStatus::kInfeasible);
}

TEST(Milp, BranchesWhoseBoundsCrossAreInfeasible) {
  // 0.5 <= x <= 0.8 with x integer: both children of the root cross
  // (x <= 0 and x >= 1), so the search ends after three nodes.
  Problem p;
  p.add_variable("x", VarType::kInteger, 0.5, 0.8, 1);
  const auto res = solve_milp(p);
  EXPECT_EQ(res.solution.status, SolveStatus::kInfeasible);
  EXPECT_EQ(res.nodes_explored, 3);
}

TEST(Milp, OneHotSelection) {
  // max sum(v_k z_k) with sum z_k == 1 picks the max coefficient.
  Problem p;
  std::vector<int> z;
  const std::vector<double> v = {0.3, 0.9, 0.5, 0.7};
  std::vector<std::pair<int, double>> terms;
  for (std::size_t k = 0; k < v.size(); ++k) {
    z.push_back(p.add_variable("z" + std::to_string(k), VarType::kBinary, 0,
                               1, v[k]));
    terms.push_back({z.back(), 1.0});
  }
  p.add_constraint("onehot", terms, Sense::kEq, 1.0);
  const auto res = solve_milp(p);
  ASSERT_TRUE(res.solution.optimal());
  EXPECT_NEAR(res.solution.objective, 0.9, 1e-9);
  EXPECT_NEAR(res.solution.values[1], 1.0, 1e-9);
}

// Property: on random small binary problems, branch-and-bound matches
// exhaustive enumeration exactly.
class MilpVsBruteForce : public ::testing::TestWithParam<int> {};

TEST_P(MilpVsBruteForce, MatchesEnumeration) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 17 + 3);
  const int n = 6;
  const int m = 3;
  Problem p;
  std::vector<double> obj(n);
  for (int i = 0; i < n; ++i) {
    obj[static_cast<std::size_t>(i)] = rng.uniform(-5.0, 10.0);
    p.add_variable("b" + std::to_string(i), VarType::kBinary, 0, 1,
                   obj[static_cast<std::size_t>(i)]);
  }
  std::vector<std::vector<double>> rows(m, std::vector<double>(n));
  std::vector<double> rhs(m);
  for (int r = 0; r < m; ++r) {
    std::vector<std::pair<int, double>> terms;
    for (int i = 0; i < n; ++i) {
      rows[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)] =
          rng.uniform(0.0, 4.0);
      terms.push_back(
          {i, rows[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)]});
    }
    rhs[static_cast<std::size_t>(r)] = rng.uniform(2.0, 10.0);
    p.add_constraint("r" + std::to_string(r), terms, Sense::kLe,
                     rhs[static_cast<std::size_t>(r)]);
  }

  // Brute force over 2^n assignments.
  double best = -1e18;
  for (int mask = 0; mask < (1 << n); ++mask) {
    bool ok = true;
    for (int r = 0; r < m && ok; ++r) {
      double lhs = 0.0;
      for (int i = 0; i < n; ++i)
        if (mask & (1 << i))
          lhs += rows[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)];
      ok = lhs <= rhs[static_cast<std::size_t>(r)] + 1e-9;
    }
    if (!ok) continue;
    double val = 0.0;
    for (int i = 0; i < n; ++i)
      if (mask & (1 << i)) val += obj[static_cast<std::size_t>(i)];
    best = std::max(best, val);
  }

  const auto res = solve_milp(p);
  ASSERT_TRUE(res.solution.optimal());
  EXPECT_NEAR(res.solution.objective, best, 1e-6);
  EXPECT_LT(p.max_violation(res.solution.values), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(RandomBinaryPrograms, MilpVsBruteForce,
                         ::testing::Range(0, 15));

TEST(Milp, SolutionSatisfiesAllConstraints) {
  Problem p;
  const int x = p.add_variable("x", VarType::kInteger, 0, 10, 3);
  const int y = p.add_variable("y", VarType::kInteger, 0, 10, 2);
  p.add_constraint("c1", {{x, 2.0}, {y, 1.0}}, Sense::kLe, 11.0);
  p.add_constraint("c2", {{x, 1.0}, {y, 3.0}}, Sense::kLe, 18.0);
  const auto res = solve_milp(p);
  ASSERT_TRUE(res.solution.optimal());
  EXPECT_LT(p.max_violation(res.solution.values), 1e-9);
  // Integrality.
  for (const double v : res.solution.values)
    EXPECT_NEAR(v, std::round(v), 1e-9);
}

}  // namespace
}  // namespace diffserve::milp

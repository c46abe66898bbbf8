// Tests for the level-scheduled ILU(0) (DESIGN.md §S1, §S18): the factors
// and apply() output must equal the natural-order IKJ factorization and row
// order sweeps bit for bit, on thermal systems, model problems and the edge
// patterns of the level schedule (one level, n levels, diagonal-only rows).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "network/generators.hpp"
#include "sparse/csr.hpp"
#include "sparse/preconditioner.hpp"
#include "thermal/model_2rm.hpp"
#include "thermal/model_4rm.hpp"

namespace lcn {
namespace {

using sparse::CsrMatrix;
using sparse::Ilu0Preconditioner;
using sparse::TripletList;
using sparse::Vector;

/// Reference: ILU(0) on A's CSR arrays in natural row order — IKJ
/// elimination, then the forward and backward sweeps row by row.
class NaturalIlu0 {
 public:
  explicit NaturalIlu0(const CsrMatrix& a)
      : n_(a.rows()),
        row_ptr_(a.row_ptr()),
        col_idx_(a.col_idx()),
        values_(a.values()),
        diag_(n_) {
    for (std::size_t r = 0; r < n_; ++r) {
      std::size_t k = row_ptr_[r];
      while (col_idx_[k] != r) ++k;
      diag_[r] = k;
    }
    std::vector<std::ptrdiff_t> pos(n_, -1);
    for (std::size_t i = 0; i < n_; ++i) {
      for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
        pos[col_idx_[k]] = static_cast<std::ptrdiff_t>(k);
      }
      for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
        const std::size_t j = col_idx_[k];
        if (j >= i) break;
        const double lij = values_[k] / values_[diag_[j]];
        values_[k] = lij;
        for (std::size_t kk = diag_[j] + 1; kk < row_ptr_[j + 1]; ++kk) {
          const std::ptrdiff_t p = pos[col_idx_[kk]];
          if (p >= 0) values_[static_cast<std::size_t>(p)] -= lij * values_[kk];
        }
      }
      for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
        pos[col_idx_[k]] = -1;
      }
    }
  }

  const std::vector<double>& values() const { return values_; }

  void apply(const Vector& r, Vector& z) const {
    z = r;
    for (std::size_t i = 0; i < n_; ++i) {
      double sum = z[i];
      for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
        const std::size_t j = col_idx_[k];
        if (j >= i) break;
        sum -= values_[k] * z[j];
      }
      z[i] = sum;
    }
    for (std::size_t ii = n_; ii-- > 0;) {
      double sum = z[ii];
      for (std::size_t k = diag_[ii] + 1; k < row_ptr_[ii + 1]; ++k) {
        sum -= values_[k] * z[col_idx_[k]];
      }
      z[ii] = sum / values_[diag_[ii]];
    }
  }

 private:
  std::size_t n_;
  std::vector<std::size_t> row_ptr_;
  std::vector<std::size_t> col_idx_;
  std::vector<double> values_;
  std::vector<std::size_t> diag_;
};

Vector varied_vector(std::size_t n) {
  Vector x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(0.37 * static_cast<double>(i)) +
           1e-3 * static_cast<double>(i % 101);
  }
  return x;
}

/// Factors and apply() of `ilu`, factored for `a`, equal the reference.
void expect_matches_natural_order(const Ilu0Preconditioner& ilu,
                                  const CsrMatrix& a) {
  const NaturalIlu0 ref(a);
  EXPECT_EQ(ilu.factors().values(), ref.values());
  const Vector r = varied_vector(a.rows());
  Vector z, z_ref;
  ilu.apply(r, z);
  ref.apply(r, z_ref);
  EXPECT_EQ(z, z_ref);
  // r and z may alias.
  Vector in_place = r;
  ilu.apply(in_place, in_place);
  EXPECT_EQ(in_place, z_ref);
}

CsrMatrix laplacian2d(std::size_t g) {
  const std::size_t n = g * g;
  TripletList trip(n, n);
  for (std::size_t r = 0; r < g; ++r) {
    for (std::size_t c = 0; c < g; ++c) {
      const std::size_t i = r * g + c;
      trip.add(i, i, 4.0);
      if (r > 0) trip.add(i, i - g, -1.0);
      if (r + 1 < g) trip.add(i, i + g, -1.0);
      if (c > 0) trip.add(i, i - 1, -1.0);
      if (c + 1 < g) trip.add(i, i + 1, -1.0);
    }
  }
  return trip.to_csr();
}

/// Diagonally dominant, with a few couplings per row to random columns on
/// both sides, so the level schedule is irregular.
CsrMatrix random_nonsymmetric(std::size_t n, Rng& rng) {
  TripletList t(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    t.add(i, i, 6.0 + rng.next_double());
    for (int e = 0; e < 4; ++e) {
      t.add(i, rng.next_below(n), rng.next_real(-1.0, 1.0));
    }
  }
  return t.to_csr();
}

CoolingProblem small_problem() {
  CoolingProblem problem;
  problem.grid = Grid2D(21, 21, 100e-6);
  problem.stack = make_interlayer_stack(2, 200e-6);
  for (int die = 0; die < 2; ++die) {
    problem.source_power.emplace_back(problem.grid, 1.0);
  }
  return problem;
}

std::vector<CoolingNetwork> straight_networks(const CoolingProblem& problem) {
  return std::vector<CoolingNetwork>(
      static_cast<std::size_t>(problem.stack.channel_count()),
      make_straight_channels(problem.grid));
}

TEST(Ilu0Levels, Thermal4RmMatchesNaturalOrder) {
  const CoolingProblem problem = small_problem();
  const Thermal4RM sim(problem, straight_networks(problem));
  const CsrMatrix a = sim.assemble(2000.0).matrix;
  expect_matches_natural_order(Ilu0Preconditioner(a), a);
}

TEST(Ilu0Levels, Thermal2RmMatchesNaturalOrder) {
  const CoolingProblem problem = small_problem();
  const Thermal2RM sim(problem, straight_networks(problem), 3);
  const CsrMatrix a = sim.assemble(2000.0).matrix;
  expect_matches_natural_order(Ilu0Preconditioner(a), a);
}

TEST(Ilu0Levels, SameStructureRefactorMatchesNaturalOrder) {
  const CoolingProblem problem = small_problem();
  const Thermal4RM sim(problem, straight_networks(problem));
  const CsrMatrix a = sim.assemble(1000.0).matrix;
  const CsrMatrix b = sim.assemble(5000.0).matrix;
  ASSERT_EQ(a.shared_row_ptr(), b.shared_row_ptr());
  Ilu0Preconditioner ilu(a);
  ilu.refactor(b);
  expect_matches_natural_order(ilu, b);
}

TEST(Ilu0Levels, Laplacian2dMatchesNaturalOrderInWavefronts) {
  const std::size_t g = 37;
  const CsrMatrix a = laplacian2d(g);
  const Ilu0Preconditioner ilu(a);
  expect_matches_natural_order(ilu, a);
  // Row-major 5-point stencil: level = row + col in both sweeps.
  EXPECT_EQ(ilu.forward_levels(), 2 * g - 1);
  EXPECT_EQ(ilu.backward_levels(), 2 * g - 1);
}

TEST(Ilu0Levels, RandomNonsymmetricMatchesNaturalOrder) {
  Rng rng(2024);
  for (std::size_t n : {1u, 7u, 64u, 900u}) {
    SCOPED_TRACE(n);
    const CsrMatrix a = random_nonsymmetric(n, rng);
    expect_matches_natural_order(Ilu0Preconditioner(a), a);
  }
}

TEST(Ilu0Levels, DiagonalOnlyIsOneLevel) {
  TripletList t(5, 5);
  for (std::size_t i = 0; i < 5; ++i) t.add(i, i, 1.0 + static_cast<double>(i));
  const CsrMatrix a = t.to_csr();
  const Ilu0Preconditioner ilu(a);
  expect_matches_natural_order(ilu, a);
  EXPECT_EQ(ilu.forward_levels(), 1u);
  EXPECT_EQ(ilu.backward_levels(), 1u);
}

TEST(Ilu0Levels, BidiagonalChainIsNLevels) {
  const std::size_t n = 40;
  TripletList lower(n, n);
  TripletList upper(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    lower.add(i, i, 3.0 + 0.01 * static_cast<double>(i));
    upper.add(i, i, 3.0 - 0.01 * static_cast<double>(i));
    if (i > 0) lower.add(i, i - 1, -1.5);
    if (i + 1 < n) upper.add(i, i + 1, -0.5 - 0.02 * static_cast<double>(i));
  }
  const CsrMatrix l = lower.to_csr();
  const CsrMatrix u = upper.to_csr();
  const Ilu0Preconditioner ilu_l(l);
  const Ilu0Preconditioner ilu_u(u);
  expect_matches_natural_order(ilu_l, l);
  expect_matches_natural_order(ilu_u, u);
  EXPECT_EQ(ilu_l.forward_levels(), n);
  EXPECT_EQ(ilu_l.backward_levels(), 1u);
  EXPECT_EQ(ilu_u.forward_levels(), 1u);
  EXPECT_EQ(ilu_u.backward_levels(), n);
}

TEST(Ilu0Levels, DiagonalOnlyRowsAmongCoupledRows) {
  // Every third row holds only its diagonal; the others couple to their
  // neighbours two rows away on both sides.
  const std::size_t n = 30;
  TripletList t(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    t.add(i, i, 4.0 + 0.1 * static_cast<double>(i % 5));
    if (i % 3 == 0) continue;
    if (i >= 2) t.add(i, i - 2, -1.0 - 0.05 * static_cast<double>(i % 4));
    if (i + 2 < n) t.add(i, i + 2, -0.7);
  }
  const CsrMatrix a = t.to_csr();
  expect_matches_natural_order(Ilu0Preconditioner(a), a);
}

TEST(Ilu0, RefactorAfterMissingDiagonalThrowsAgain) {
  TripletList good(3, 3);
  TripletList bad(3, 3);
  for (TripletList* t : {&good, &bad}) {
    t->add(0, 0, 4.0);
    t->add(0, 1, -1.0);
    t->add(1, 0, -1.0);
    t->add(1, 2, -1.0);
    t->add(2, 1, -1.0);
    t->add(2, 2, 4.0);
  }
  good.add(1, 1, 4.0);  // `bad` misses diagonal (1,1)
  const CsrMatrix a = good.to_csr();
  const CsrMatrix b = bad.to_csr();
  Ilu0Preconditioner ilu(a);
  EXPECT_THROW(ilu.refactor(b), RuntimeError);
  // The failed analysis must not count as done for b's structure.
  EXPECT_THROW(ilu.refactor(b), RuntimeError);
  ilu.refactor(a);
  const Ilu0Preconditioner fresh(a);
  const Vector r = {1.0, 2.0, 3.0};
  Vector z, z_fresh;
  ilu.apply(r, z);
  fresh.apply(r, z_fresh);
  EXPECT_EQ(z, z_fresh);
}

}  // namespace
}  // namespace lcn

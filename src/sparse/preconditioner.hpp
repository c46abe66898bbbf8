// Preconditioners for the iterative solvers.
//
// JacobiPreconditioner suffices for the well-conditioned flow Laplacian;
// Ilu0Preconditioner (zero fill-in incomplete LU) is the default for the
// advective thermal systems, whose asymmetry grows with flow rate.
#pragma once

#include <cstdint>
#include <memory>

#include "sparse/csr.hpp"

namespace lcn::sparse {

class Preconditioner {
 public:
  virtual ~Preconditioner() = default;
  /// z = M^{-1} r
  virtual void apply(const Vector& r, Vector& z) const = 0;
};

/// M = I (no preconditioning).
class IdentityPreconditioner final : public Preconditioner {
 public:
  void apply(const Vector& r, Vector& z) const override { z = r; }
};

/// M = diag(A). Rows with a zero diagonal fall back to identity scaling.
class JacobiPreconditioner final : public Preconditioner {
 public:
  explicit JacobiPreconditioner(const CsrMatrix& a);
  void apply(const Vector& r, Vector& z) const override;

 private:
  Vector inv_diag_;
};

/// Zero fill-in incomplete LU factorization on the sparsity pattern of A.
/// apply() performs the forward/backward triangular solves.
///
/// The factorization is split into a symbolic phase (borrow A's shared CSR
/// structure, locate diagonals, level-schedule both sweeps) and a numeric
/// phase (eliminate). refactor() reruns only the numeric phase when the new
/// matrix shares the previous structure — the per-probe path of the
/// symbolic/numeric split (DESIGN.md §S18).
///
/// Level schedule: a row's forward level is one more than the highest level
/// among its L columns, its backward level the same over its U columns. The
/// factor is stored once, in sweep order — L rows stably sorted by forward
/// level, U rows and pivots by backward level — so apply() streams values
/// and columns linearly and consecutive rows never wait on each other.
/// Every row keeps its own operation order (IKJ elimination, ascending-k
/// accumulation, division by the pivot), so the factors and apply() output
/// are bit-identical to the natural-order sweeps.
class Ilu0Preconditioner final : public Preconditioner {
 public:
  /// Throws lcn::RuntimeError if a pivot collapses to ~0 (structurally
  /// singular or badly scaled matrix).
  explicit Ilu0Preconditioner(const CsrMatrix& a);

  /// Refactorize for a new matrix. If `a` shares the previous matrix's
  /// structure (pointer-identical shared index arrays) the symbolic phase is
  /// skipped; either way the resulting factors are bit-identical to a fresh
  /// construction from `a`. On throw (missing diagonal, zero pivot) the
  /// object is unusable until a refactor()/reconstruction succeeds; a failed
  /// symbolic phase is never skipped by the next refactor().
  void refactor(const CsrMatrix& a);

  void apply(const Vector& r, Vector& z) const override;

  /// Dependency levels of the forward (L) and backward (U) sweep.
  std::size_t forward_levels() const { return fwd_levels_; }
  std::size_t backward_levels() const { return bwd_levels_; }

  /// The combined factor on A's pattern in natural row order: strict L
  /// (unit diagonal implicit), then the pivots and U.
  CsrMatrix factors() const;

 private:
  void analyze(const CsrMatrix& a);
  void factorize(const std::vector<double>& a_values);

  std::size_t n_ = 0;
  SharedIndexes row_ptr_;  // A's structure; null until analyze() succeeds
  SharedIndexes col_idx_;
  std::size_t fwd_levels_ = 0;
  std::size_t bwd_levels_ = 0;
  // Forward sweep position p: row fwd_row_[p], L entries [l_ptr_[p],
  // l_ptr_[p + 1]) in ascending column order.
  std::vector<std::uint32_t> fwd_row_, l_ptr_, l_col_;
  std::vector<double> l_val_;
  // Backward sweep position q: row bwd_row_[q], pivot piv_[q], U entries
  // [u_ptr_[q], u_ptr_[q + 1]) in ascending column order.
  std::vector<std::uint32_t> bwd_row_, u_ptr_, u_col_;
  std::vector<double> u_val_, piv_;
  std::vector<std::uint32_t> bwd_pos_;  // row -> backward position
  std::vector<double*> slot_;  // col -> entry of the row being eliminated
};

std::unique_ptr<Preconditioner> make_jacobi(const CsrMatrix& a);
std::unique_ptr<Preconditioner> make_ilu0(const CsrMatrix& a);

}  // namespace lcn::sparse

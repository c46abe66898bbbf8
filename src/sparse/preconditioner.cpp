#include "sparse/preconditioner.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "common/assert.hpp"

namespace lcn::sparse {

JacobiPreconditioner::JacobiPreconditioner(const CsrMatrix& a) {
  LCN_REQUIRE(a.rows() == a.cols(), "Jacobi needs a square matrix");
  inv_diag_ = a.diagonal();
  for (double& d : inv_diag_) d = (d != 0.0) ? 1.0 / d : 1.0;
}

void JacobiPreconditioner::apply(const Vector& r, Vector& z) const {
  LCN_REQUIRE(r.size() == inv_diag_.size(), "Jacobi apply: size mismatch");
  z.resize(r.size());
  for (std::size_t i = 0; i < r.size(); ++i) z[i] = r[i] * inv_diag_[i];
}

namespace {

/// Rows stably sorted by level (counting sort): order[p] is the p-th row.
void level_order(const std::vector<std::uint32_t>& level, std::size_t levels,
                 std::vector<std::uint32_t>& order) {
  std::vector<std::uint32_t> start(levels + 1, 0);
  for (const std::uint32_t l : level) ++start[l + 1];
  for (std::size_t l = 0; l < levels; ++l) start[l + 1] += start[l];
  order.resize(level.size());
  for (std::size_t i = 0; i < level.size(); ++i) {
    order[start[level[i]]++] = static_cast<std::uint32_t>(i);
  }
}

}  // namespace

Ilu0Preconditioner::Ilu0Preconditioner(const CsrMatrix& a) { refactor(a); }

void Ilu0Preconditioner::refactor(const CsrMatrix& a) {
  if (a.shared_row_ptr() != row_ptr_ || a.shared_col_idx() != col_idx_) {
    analyze(a);
  }
  factorize(a.values());
}

void Ilu0Preconditioner::analyze(const CsrMatrix& a) {
  LCN_REQUIRE(a.rows() == a.cols(), "ILU(0) needs a square matrix");
  LCN_REQUIRE(a.nnz() <= UINT32_MAX, "ILU(0): nnz exceeds 32-bit indexing");
  // The schedule is rebuilt in place (reusing capacity), so until it is
  // complete no structure counts as analyzed: a throw leaves an empty
  // operator that the next refactor() analyzes again.
  n_ = 0;
  row_ptr_.reset();
  col_idx_.reset();
  const std::size_t n = a.rows();
  const std::vector<std::size_t>& row_ptr = a.row_ptr();
  const std::vector<std::size_t>& col_idx = a.col_idx();

  // Locate diagonal entries (every row must have one for ILU0). Entries
  // before it are the row's L part, entries after it its U part.
  std::vector<std::uint32_t> diag(n);
  for (std::size_t r = 0; r < n; ++r) {
    std::size_t k = row_ptr[r];
    while (k < row_ptr[r + 1] && col_idx[k] != r) ++k;
    if (k == row_ptr[r + 1]) {
      throw RuntimeError("ILU(0): missing diagonal entry in row " +
                         std::to_string(r));
    }
    diag[r] = static_cast<std::uint32_t>(k);
  }

  // Level-schedule one sweep over the entries [first(i), last(i)) of every
  // row. Their columns are rows the sweep finishes earlier — lower rows for
  // L, higher rows for U — so levels are assigned visiting rows ascending
  // (L) or descending (U), and each sweep overwrites `level` only where the
  // other sweep no longer reads it.
  std::vector<std::uint32_t> level(n);
  const auto schedule = [&](auto first, auto last, bool ascending,
                            std::size_t& levels,
                            std::vector<std::uint32_t>& order,
                            std::vector<std::uint32_t>& ptr,
                            std::vector<std::uint32_t>& cols) {
    levels = 0;
    for (std::size_t t = 0; t < n; ++t) {
      const std::size_t i = ascending ? t : n - 1 - t;
      std::uint32_t l = 0;
      for (std::size_t k = first(i); k < last(i); ++k) {
        l = std::max(l, level[col_idx[k]] + 1);
      }
      level[i] = l;
      levels = std::max<std::size_t>(levels, l + 1);
    }
    level_order(level, levels, order);
    ptr.assign(n + 1, 0);
    for (std::size_t p = 0; p < n; ++p) {
      const std::size_t i = order[p];
      ptr[p + 1] = ptr[p] + static_cast<std::uint32_t>(last(i) - first(i));
    }
    cols.resize(ptr[n]);
    for (std::size_t p = 0; p < n; ++p) {
      const std::size_t i = order[p];
      for (std::size_t k = first(i), s = ptr[p]; k < last(i); ++k, ++s) {
        cols[s] = static_cast<std::uint32_t>(col_idx[k]);
      }
    }
  };
  schedule([&](std::size_t i) -> std::size_t { return row_ptr[i]; },
           [&](std::size_t i) -> std::size_t { return diag[i]; }, true,
           fwd_levels_, fwd_row_, l_ptr_, l_col_);
  schedule([&](std::size_t i) -> std::size_t { return diag[i] + 1; },
           [&](std::size_t i) -> std::size_t { return row_ptr[i + 1]; },
           false, bwd_levels_, bwd_row_, u_ptr_, u_col_);
  bwd_pos_.resize(n);
  for (std::size_t q = 0; q < n; ++q) {
    bwd_pos_[bwd_row_[q]] = static_cast<std::uint32_t>(q);
  }

  l_val_.resize(l_col_.size());
  u_val_.resize(u_col_.size());
  piv_.resize(n);
  slot_.assign(n, nullptr);
  n_ = n;
  row_ptr_ = a.shared_row_ptr();
  col_idx_ = a.shared_col_idx();
}

void Ilu0Preconditioner::factorize(const std::vector<double>& a_values) {
  // IKJ-variant incomplete factorization restricted to the pattern of A, one
  // row at a time in forward-level order: every row j that row i eliminates
  // with sits on a lower level, so its U part and pivot are final. Row i is
  // eliminated in place in its sweep-ordered storage; slot_ maps each of the
  // row's columns to its entry and is kept all null between rows.
  const std::vector<std::size_t>& row_ptr = *row_ptr_;
  const std::vector<std::size_t>& col_idx = *col_idx_;
  for (std::size_t p = 0; p < n_; ++p) {
    const std::size_t i = fwd_row_[p];
    const std::size_t q = bwd_pos_[i];
    const std::size_t k0 = row_ptr[i];
    const std::size_t nl = l_ptr_[p + 1] - l_ptr_[p];  // k0 + nl: diagonal
    double* const l = l_val_.data() + l_ptr_[p];
    double* const u = u_val_.data() + u_ptr_[q];
    for (std::size_t s = 0; s < nl; ++s) {
      l[s] = a_values[k0 + s];
      slot_[col_idx[k0 + s]] = l + s;
    }
    piv_[q] = a_values[k0 + nl];
    slot_[i] = &piv_[q];
    for (std::size_t k = k0 + nl + 1, s = 0; k < row_ptr[i + 1]; ++k, ++s) {
      u[s] = a_values[k];
      slot_[col_idx[k]] = u + s;
    }
    for (std::size_t s = 0; s < nl; ++s) {
      const std::size_t qj = bwd_pos_[col_idx[k0 + s]];
      const double lij = l[s] / piv_[qj];
      l[s] = lij;
      // subtract lij * U(j, *) on the existing pattern of row i
      for (std::size_t kk = u_ptr_[qj]; kk < u_ptr_[qj + 1]; ++kk) {
        double* const t = slot_[u_col_[kk]];
        if (t != nullptr) *t -= lij * u_val_[kk];
      }
    }
    for (std::size_t k = k0; k < row_ptr[i + 1]; ++k) {
      slot_[col_idx[k]] = nullptr;
    }
    if (std::abs(piv_[q]) < 1e-300) {
      throw RuntimeError("ILU(0): factorization produced zero pivot at row " +
                         std::to_string(i));
    }
  }
}

void Ilu0Preconditioner::apply(const Vector& r, Vector& z) const {
  LCN_REQUIRE(r.size() == n_, "ILU(0) apply: size mismatch");
  z.resize(n_);
  // Forward solve L y = r (unit diagonal). A row reads only rows of lower
  // levels, already final in z; r[i] is read before z[i] is written, so r
  // and z may alias.
  for (std::size_t p = 0; p < n_; ++p) {
    const std::size_t i = fwd_row_[p];
    double sum = r[i];
    for (std::size_t k = l_ptr_[p]; k < l_ptr_[p + 1]; ++k) {
      sum -= l_val_[k] * z[l_col_[k]];
    }
    z[i] = sum;
  }
  // Backward solve U z = y.
  for (std::size_t q = 0; q < n_; ++q) {
    const std::size_t i = bwd_row_[q];
    double sum = z[i];
    for (std::size_t k = u_ptr_[q]; k < u_ptr_[q + 1]; ++k) {
      sum -= u_val_[k] * z[u_col_[k]];
    }
    z[i] = sum / piv_[q];
  }
}

CsrMatrix Ilu0Preconditioner::factors() const {
  LCN_REQUIRE(row_ptr_ != nullptr, "ILU(0) factors: no successful analysis");
  const std::vector<std::size_t>& row_ptr = *row_ptr_;
  std::vector<double> values(row_ptr[n_]);
  for (std::size_t p = 0; p < n_; ++p) {
    std::copy(l_val_.begin() + l_ptr_[p], l_val_.begin() + l_ptr_[p + 1],
              values.begin() + row_ptr[fwd_row_[p]]);
  }
  for (std::size_t q = 0; q < n_; ++q) {
    const std::size_t end = row_ptr[bwd_row_[q] + 1];
    const std::size_t diag = end - (u_ptr_[q + 1] - u_ptr_[q]) - 1;
    values[diag] = piv_[q];
    std::copy(u_val_.begin() + u_ptr_[q], u_val_.begin() + u_ptr_[q + 1],
              values.begin() + diag + 1);
  }
  return CsrMatrix(n_, n_, row_ptr_, col_idx_, std::move(values));
}

std::unique_ptr<Preconditioner> make_jacobi(const CsrMatrix& a) {
  return std::make_unique<JacobiPreconditioner>(a);
}

std::unique_ptr<Preconditioner> make_ilu0(const CsrMatrix& a) {
  return std::make_unique<Ilu0Preconditioner>(a);
}

}  // namespace lcn::sparse

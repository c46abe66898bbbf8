#include "sparse/csr.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "sparse/parallel.hpp"

namespace lcn::sparse {

const SharedIndexes& CsrMatrix::empty_indexes() {
  static const SharedIndexes empty =
      std::make_shared<const std::vector<std::size_t>>();
  return empty;
}

CsrMatrix::CsrMatrix(std::size_t rows, std::size_t cols,
                     std::vector<std::size_t> row_ptr,
                     std::vector<std::size_t> col_idx,
                     std::vector<double> values)
    : CsrMatrix(rows, cols,
                std::make_shared<const std::vector<std::size_t>>(
                    std::move(row_ptr)),
                std::make_shared<const std::vector<std::size_t>>(
                    std::move(col_idx)),
                std::move(values)) {}

CsrMatrix::CsrMatrix(std::size_t rows, std::size_t cols, SharedIndexes row_ptr,
                     SharedIndexes col_idx, std::vector<double> values)
    : rows_(rows),
      cols_(cols),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      values_(std::move(values)) {
  LCN_REQUIRE(row_ptr_ != nullptr && col_idx_ != nullptr,
              "CSR structure must be non-null");
  LCN_REQUIRE(row_ptr_->size() == rows_ + 1, "row_ptr size must be rows+1");
  LCN_REQUIRE(col_idx_->size() == values_.size(),
              "col_idx and values must have equal length");
  LCN_REQUIRE(row_ptr_->back() == values_.size(),
              "row_ptr must terminate at nnz");
}

void CsrMatrix::multiply_serial(const Vector& x, Vector& y) const {
  LCN_REQUIRE(x.size() == cols_, "SpMV: x size mismatch");
  y.resize(rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    double sum = 0.0;
    for (std::size_t k = (*row_ptr_)[r]; k < (*row_ptr_)[r + 1]; ++k) {
      sum += values_[k] * x[(*col_idx_)[k]];
    }
    y[r] = sum;
  }
}

void CsrMatrix::multiply(const Vector& x, Vector& y) const {
  const metrics::ScopedLatency latency(metrics::Hist::spmv_batch_seconds,
                                       metrics::kFine);
  metrics::count(metrics::Counter::spmv_count);
  metrics::count(metrics::Counter::spmv_nnz, nnz());
  if (!parallel_kernels_enabled(nnz(), kSpmvGrain)) {
    multiply_serial(x, y);
    return;
  }
  LCN_REQUIRE(x.size() == cols_, "SpMV: x size mismatch");
  y.resize(rows_);
  // Partition rows so each range carries a similar nonzero load: row_ptr is
  // the nnz prefix sum, so the p-th boundary is the first row whose prefix
  // reaches p/parts of nnz.
  const std::size_t total = nnz();
  const std::size_t parts =
      std::min(global_pool_threads(), std::max<std::size_t>(rows_, 1));
  std::vector<std::size_t> bounds(parts + 1, rows_);
  bounds[0] = 0;
  for (std::size_t p = 1; p < parts; ++p) {
    const std::size_t target = total * p / parts;
    bounds[p] = static_cast<std::size_t>(
        std::lower_bound(row_ptr_->begin(), row_ptr_->end(), target) -
        row_ptr_->begin());
  }
  global_pool().parallel_for(parts, [&](std::size_t p) {
    const std::size_t r1 = std::min(bounds[p + 1], rows_);
    for (std::size_t r = bounds[p]; r < r1; ++r) {
      double sum = 0.0;
      for (std::size_t k = (*row_ptr_)[r]; k < (*row_ptr_)[r + 1]; ++k) {
        sum += values_[k] * x[(*col_idx_)[k]];
      }
      y[r] = sum;
    }
  });
}

Vector CsrMatrix::multiply(const Vector& x) const {
  Vector y;
  multiply(x, y);
  return y;
}

double CsrMatrix::at(std::size_t row, std::size_t col) const {
  LCN_REQUIRE(row < rows_ && col < cols_, "at: index out of range");
  const auto begin = col_idx_->begin() + static_cast<std::ptrdiff_t>((*row_ptr_)[row]);
  const auto end = col_idx_->begin() + static_cast<std::ptrdiff_t>((*row_ptr_)[row + 1]);
  const auto it = std::lower_bound(begin, end, col);
  if (it == end || *it != col) return 0.0;
  return values_[static_cast<std::size_t>(it - col_idx_->begin())];
}

Vector CsrMatrix::diagonal() const {
  Vector d(rows_, 0.0);
  const std::size_t n = std::min(rows_, cols_);
  for (std::size_t r = 0; r < n; ++r) d[r] = at(r, r);
  return d;
}

double CsrMatrix::symmetry_gap() const {
  LCN_REQUIRE(rows_ == cols_, "symmetry_gap requires a square matrix");
  double gap = 0.0;
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = (*row_ptr_)[r]; k < (*row_ptr_)[r + 1]; ++k) {
      gap = std::max(gap, std::abs(values_[k] - at((*col_idx_)[k], r)));
    }
  }
  return gap;
}

std::vector<double> CsrMatrix::to_dense() const {
  std::vector<double> dense(rows_ * cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = (*row_ptr_)[r]; k < (*row_ptr_)[r + 1]; ++k) {
      dense[r * cols_ + (*col_idx_)[k]] += values_[k];
    }
  }
  return dense;
}

void TripletList::add(std::size_t row, std::size_t col, double value) {
  LCN_REQUIRE(row < rows_ && col < cols_, "triplet index out of range");
  if (value != 0.0) triplets_.push_back({row, col, value});
}

namespace {

/// Sort, merge duplicates (summing in sorted order), and build CSR.
CsrMatrix compress_triplets(std::size_t rows, std::size_t cols,
                            std::vector<Triplet>&& sorted) {
  std::sort(sorted.begin(), sorted.end(), &triplet_pattern_order);

  std::vector<std::size_t> row_ptr(rows + 1, 0);
  std::vector<std::size_t> col_idx;
  std::vector<double> values;
  col_idx.reserve(sorted.size());
  values.reserve(sorted.size());

  for (std::size_t i = 0; i < sorted.size();) {
    std::size_t j = i;
    double sum = 0.0;
    while (j < sorted.size() && sorted[j].row == sorted[i].row &&
           sorted[j].col == sorted[i].col) {
      sum += sorted[j].value;
      ++j;
    }
    col_idx.push_back(sorted[i].col);
    values.push_back(sum);
    ++row_ptr[sorted[i].row + 1];
    i = j;
  }
  for (std::size_t r = 0; r < rows; ++r) row_ptr[r + 1] += row_ptr[r];

  return CsrMatrix(rows, cols, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

}  // namespace

CsrMatrix TripletList::to_csr() const {
  return compress_triplets(rows_, cols_, std::vector<Triplet>(triplets_));
}

CsrMatrix merge_to_csr(std::size_t rows, std::size_t cols,
                       const std::vector<const TripletList*>& parts) {
  std::size_t total = 0;
  for (const TripletList* part : parts) {
    LCN_REQUIRE(part != nullptr, "merge_to_csr: null part");
    total += part->size();
  }
  std::vector<Triplet> merged;
  merged.reserve(total);
  for (const TripletList* part : parts) {
    merged.insert(merged.end(), part->triplets().begin(),
                  part->triplets().end());
  }
  return compress_triplets(rows, cols, std::move(merged));
}

}  // namespace lcn::sparse

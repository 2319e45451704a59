#include "eval/step_result.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <utility>

#include "obs/obs.hpp"
#include "tensor/kruskal.hpp"
#include "tensor/sparse_kernels.hpp"
#include "util/check.hpp"

namespace sofia {

namespace {

/// Dense materializations triggered on lazy results since the last reset.
/// Atomic: workflow runners may drive several streams from worker threads.
std::atomic<size_t> g_materializations{0};

Shape KruskalShape(const std::vector<Matrix>& factors) {
  SOFIA_CHECK(!factors.empty());
  std::vector<size_t> dims(factors.size());
  for (size_t n = 0; n < factors.size(); ++n) dims[n] = factors[n].rows();
  return Shape(dims);
}

}  // namespace

StepResult StepResult::Kruskal(std::vector<Matrix> factors,
                               std::vector<double> temporal_row) {
  SOFIA_CHECK(!factors.empty());
  SOFIA_CHECK_EQ(factors[0].cols(), temporal_row.size());
  StepResult r;
  r.kind_ = Kind::kKruskal;
  r.shape_ = KruskalShape(factors);
  r.factors_ = std::move(factors);
  r.row_ = std::move(temporal_row);
  return r;
}

StepResult StepResult::LinearMap(std::shared_ptr<const Matrix> loadings,
                                 std::vector<double> weights, Shape shape) {
  SOFIA_CHECK(loadings != nullptr);
  SOFIA_CHECK_EQ(loadings->rows(), shape.NumElements());
  SOFIA_CHECK_EQ(loadings->cols(), weights.size());
  StepResult r;
  r.kind_ = Kind::kLinearMap;
  r.shape_ = std::move(shape);
  r.loadings_ = std::move(loadings);
  r.row_ = std::move(weights);
  return r;
}

StepResult StepResult::Masked(std::shared_ptr<const DenseTensor> y,
                              Mask omega) {
  SOFIA_CHECK(y != nullptr);
  SOFIA_CHECK(y->shape() == omega.shape());
  StepResult r;
  r.kind_ = Kind::kMasked;
  r.shape_ = y->shape();
  r.data_ = std::move(y);
  r.omega_ = std::move(omega);
  return r;
}

StepResult StepResult::Dense(DenseTensor value) {
  StepResult r;
  r.kind_ = Kind::kDense;
  r.shape_ = value.shape();
  r.dense_ = std::move(value);
  return r;
}

const DenseTensor& StepResult::imputed() const {
  SOFIA_CHECK(valid()) << "StepResult carries no estimate";
  if (!dense_) {
    g_materializations.fetch_add(1, std::memory_order_relaxed);
    static obs::Counter* materializations =
        obs::Registry::Global().FindOrCreateCounter("eval.materializations");
    materializations->Add(1);
    switch (kind_) {
      case Kind::kKruskal:
        dense_ = KruskalSlice(factors_, row_);
        break;
      case Kind::kLinearMap: {
        DenseTensor out(shape_);
        const size_t rank = row_.size();
        for (size_t k = 0; k < out.NumElements(); ++k) {
          const double* arow = loadings_->Row(k);
          double v = 0.0;
          for (size_t r = 0; r < rank; ++r) v += arow[r] * row_[r];
          out[k] = v;
        }
        dense_ = std::move(out);
        break;
      }
      case Kind::kMasked:
        dense_ = omega_.Apply(*data_);
        break;
      default:
        SOFIA_CHECK(false) << "unreachable";
    }
  }
  return *dense_;
}

DenseTensor StepResult::ReleaseImputed() {
  imputed();
  DenseTensor out = std::move(*dense_);
  *this = StepResult();
  return out;
}

double StepResult::at(const std::vector<size_t>& indices) const {
  SOFIA_CHECK(valid()) << "StepResult carries no estimate";
  if (dense_) return (*dense_)[shape_.Linearize(indices)];
  switch (kind_) {
    case Kind::kKruskal:
      return KruskalSliceEntry(factors_, row_, indices);
    case Kind::kLinearMap: {
      const double* arow = loadings_->Row(shape_.Linearize(indices));
      double v = 0.0;
      for (size_t r = 0; r < row_.size(); ++r) v += arow[r] * row_[r];
      return v;
    }
    case Kind::kMasked: {
      const size_t lin = shape_.Linearize(indices);
      return omega_.Get(lin) ? (*data_)[lin] : 0.0;
    }
    default:
      SOFIA_CHECK(false) << "unreachable";
      return 0.0;
  }
}

void StepResult::GatherAtInto(const CooList& pattern,
                              std::vector<double>* out,
                              WorkerPool* pool) const {
  SOFIA_CHECK(valid()) << "StepResult carries no estimate";
  SOFIA_CHECK(pattern.shape() == shape_);
  if (dense_) {
    pattern.GatherInto(*dense_, out);
    return;
  }
  switch (kind_) {
    case Kind::kKruskal:
      // Replicates KruskalSlice's chain evaluation order bitwise, so lazy
      // gathers match reads from the materialized tensor exactly.
      CooKruskalSliceGather(pattern, factors_, row_, out, pool);
      break;
    case Kind::kLinearMap: {
      const size_t rank = row_.size();
      out->resize(pattern.nnz());
      for (size_t k = 0; k < pattern.nnz(); ++k) {
        const double* arow = loadings_->Row(pattern.LinearIndex(k));
        double v = 0.0;
        for (size_t r = 0; r < rank; ++r) v += arow[r] * row_[r];
        (*out)[k] = v;
      }
      break;
    }
    case Kind::kMasked: {
      out->resize(pattern.nnz());
      for (size_t k = 0; k < pattern.nnz(); ++k) {
        const size_t lin = pattern.LinearIndex(k);
        (*out)[k] = omega_.Get(lin) ? (*data_)[lin] : 0.0;
      }
      break;
    }
    default:
      SOFIA_CHECK(false) << "unreachable";
  }
}

std::vector<double> StepResult::GatherAt(const CooList& pattern,
                                         WorkerPool* pool) const {
  std::vector<double> out;
  GatherAtInto(pattern, &out, pool);
  return out;
}

std::vector<double> StepResult::GatherObserved(
    const std::shared_ptr<const CooList>& pattern, WorkerPool* pool) const {
  SOFIA_CHECK(pattern != nullptr);
  return GatherAt(*pattern, pool);
}

double StepResult::MaxAbsComponent() const {
  // NaN-propagating max: once a NaN is seen the result stays NaN, so a
  // poisoned factor can never be masked by a later finite entry.
  double max_abs = 0.0;
  const auto acc = [&max_abs](double v) {
    const double a = std::fabs(v);
    if (a > max_abs || std::isnan(a)) max_abs = a;
  };
  switch (kind_) {
    case Kind::kKruskal:
      for (const Matrix& f : factors_) {
        for (size_t k = 0; k < f.size(); ++k) acc(f.data()[k]);
      }
      for (double v : row_) acc(v);
      break;
    case Kind::kLinearMap:
      for (double v : row_) acc(v);
      break;
    case Kind::kMasked:
    case Kind::kDense:
    case Kind::kEmpty:
      break;  // Data-carrying or empty handles: no learned parameters.
  }
  return max_abs;
}

size_t StepResult::materializations() {
  return g_materializations.load(std::memory_order_relaxed);
}

void StepResult::ResetMaterializations() {
  g_materializations.store(0, std::memory_order_relaxed);
}

}  // namespace sofia

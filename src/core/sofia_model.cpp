#include "core/sofia_model.hpp"

#include <cmath>
#include <utility>

#include "obs/obs.hpp"
#include "tensor/kruskal.hpp"
#include "tensor/sparse_kernels.hpp"
#include "timeseries/hw_fit.hpp"
#include "timeseries/robust.hpp"
#include "util/check.hpp"

namespace sofia {

const DenseTensor& SofiaStepResult::imputed() const {
  if (!imputed_) imputed_ = KruskalSlice(factors_after_, u_new_);
  return *imputed_;
}

const DenseTensor& SofiaStepResult::outliers() const {
  if (!outliers_) {
    DenseTensor o(shape_, 0.0);
    for (size_t k = 0; k < observed_.size(); ++k) {
      o[observed_[k]] = observed_outliers_[k];
    }
    outliers_ = std::move(o);
  }
  return *outliers_;
}

const DenseTensor& SofiaStepResult::forecast() const {
  if (!forecast_) forecast_ = KruskalSlice(factors_before_, u_hat_);
  return *forecast_;
}

SofiaModel::SofiaModel(const SofiaModel& other)
    : config_(other.config_),
      ablation_(other.ablation_),
      factors_(other.factors_),
      init_completed_(other.init_completed_),
      hw_params_(other.hw_params_),
      level_(other.level_),
      trend_(other.trend_),
      season_(other.season_),
      season_pos_(other.season_pos_),
      row_history_(other.row_history_),
      row_pos_(other.row_pos_),
      last_row_(other.last_row_),
      sigma_(other.sigma_) {
  // step_mask_/step_coo_/pool_ are derived caches: left empty, rebuilt on
  // the copy's first Step().
}

SofiaModel& SofiaModel::operator=(const SofiaModel& other) {
  SofiaModel tmp(other);
  *this = std::move(tmp);
  return *this;
}

SofiaModel SofiaModel::Initialize(const std::vector<DenseTensor>& slices,
                                  const std::vector<Mask>& masks,
                                  const SofiaConfig& config,
                                  const SofiaAblation& ablation,
                                  std::shared_ptr<WorkerPool> pool) {
  SofiaModel model;
  model.config_ = config;
  model.ablation_ = ablation;
  model.external_pool_ = std::move(pool);

  // Phase 1 (Algorithm 1): batch factorization of the start-up window, on
  // the pool the steps will use.
  SofiaInitResult init =
      SofiaInitialize(slices, masks, config, ablation.temporal_smoothness,
                      model.StepPool());
  const size_t num_modes = init.factors.size();
  const size_t rank = config.rank;
  const size_t m = config.period;
  const size_t ti = config.InitWindow();
  Matrix temporal = init.factors.back();
  init.factors.pop_back();
  model.factors_ = std::move(init.factors);
  model.init_completed_ = std::move(init.completed);
  SOFIA_CHECK_EQ(temporal.rows(), ti);
  SOFIA_CHECK_EQ(num_modes - 1, model.factors_.size());

  // Phase 2 (Section V-B): fit one additive HW model per factor column.
  model.level_.resize(rank);
  model.trend_.resize(rank);
  model.season_.assign(m, std::vector<double>(rank, 0.0));
  model.season_pos_ = 0;
  model.hw_params_.resize(rank);
  for (size_t r = 0; r < rank; ++r) {
    HwFit fit = FitHoltWinters(temporal.ColVector(r), m);
    model.hw_params_[r] = fit.params;
    model.level_[r] = fit.level;
    model.trend_[r] = fit.trend;
    // fit.seasonal[j] is the component for time ti + 1 + j.
    for (size_t j = 0; j < m; ++j) model.season_[j][r] = fit.seasonal[j];
  }

  // Temporal-row history u_{ti-m+1..ti}; oldest (u_{ti+1-m}) at slot 0.
  model.row_history_.assign(m, std::vector<double>(rank, 0.0));
  model.row_pos_ = 0;
  for (size_t j = 0; j < m; ++j) {
    model.row_history_[j] = temporal.RowVector(ti - m + j);
  }
  model.last_row_ = temporal.RowVector(ti - 1);

  // Algorithm 3 line 1: Σ̂ seeded with λ3 / 100.
  Shape slice_shape = slices[0].shape();
  model.sigma_ = DenseTensor(slice_shape, config.lambda3 / 100.0);
  return model;
}

WorkerPool* SofiaModel::StepPool() {
  if (external_pool_ != nullptr) return external_pool_.get();
  if (!pool_) {
    // Built once per model: init and every standalone Step() then share
    // its workers, stable slab ownership and arena scratch.
    pool_ = std::make_unique<ShardExecutor>(
        ResolveNumThreads(config_.num_threads));
  }
  return pool_.get();
}

const CooList& SofiaModel::StepPattern(const Mask& omega,
                                       std::shared_ptr<const CooList> shared) {
  if (shared != nullptr) {
    SOFIA_CHECK(shared->shape() == omega.shape());
    step_coo_ = std::move(shared);
    // Seed the reuse cache so a later unshared step with the same mask
    // still skips its rebuild (same guard as ObservedSweep::BeginStep;
    // both the staleness check and the reseed are O(|Ω_t|) on the
    // SparseMask cache — never a dense indicator copy or byte scan).
    if (!step_mask_.Matches(omega)) {
      step_mask_ = SparseMask::FromCoo(*step_coo_);
    }
    return *step_coo_;
  }
  const bool reusable = step_coo_ != nullptr && step_mask_.Matches(omega);
  if (!reusable) {
    step_coo_ = std::make_shared<const CooList>(CooList::Build(omega));
    step_mask_ = SparseMask::FromCoo(*step_coo_);
    ++step_pattern_builds_;
  } else {
    ++step_pattern_reuses_;
  }
  return *step_coo_;
}

void SofiaModel::Accumulate(const DenseTensor& y, const Mask& omega,
                            const std::vector<double>& u_hat,
                            std::shared_ptr<const CooList> pattern,
                            StepGradients* grads, SofiaStepResult* result) {
  const double k_huber = config_.huber_k;
  const double ck = config_.biweight_ck;
  WorkerPool* pool = StepPool();
  const CooList& coo = StepPattern(omega, std::move(pattern));
  const size_t nnz = coo.nnz();

  // Line 4 restricted to Ω_t: the Eq. (20) forecast at observed entries.
  std::vector<double> yv = coo.Gather(y);
  std::vector<double> fv = CooKruskalGather(coo, factors_, u_hat, pool);

  // Lines 5-6 per record. The paper rejects outliers *first* so extreme
  // values cannot inflate the scale; the Gelper ordering is available as an
  // ablation. Entries are independent, so either ordering applies
  // record-wise.
  std::vector<double> ov(nnz, 0.0);
  auto update_scale = [&]() {
    for (size_t k = 0; k < nnz; ++k) {
      const size_t lin = coo.LinearIndex(k);
      sigma_[lin] = UpdateErrorScale(yv[k], fv[k], sigma_[lin], config_.phi,
                                     k_huber, ck);
    }
  };
  auto reject = [&]() {
    if (!ablation_.reject_outliers) return;
    for (size_t k = 0; k < nnz; ++k) {
      const double sig = sigma_[coo.LinearIndex(k)];
      const double resid = yv[k] - fv[k];
      ov[k] = resid - HuberPsi(resid / sig, k_huber) * sig;
    }
  };
  if (ablation_.scale_before_reject) {
    update_scale();
    reject();
  } else {
    reject();
    update_scale();
  }

  // R_t at observed entries, then the O(|Ω_t| N R) gradient pass (Lemma 2).
  std::vector<double> resid(nnz);
  for (size_t k = 0; k < nnz; ++k) resid[k] = yv[k] - ov[k] - fv[k];
  *grads = CooStepGradients(coo, resid, factors_, u_hat, pool);

  result->factors_before_ = factors_;
  result->observed_ = coo.LinearIndices();
  result->observed_outliers_ = std::move(ov);
  result->observed_forecast_ = std::move(fv);
}

SofiaStepResult SofiaModel::Step(const DenseTensor& y, const Mask& omega) {
  return Step(y, omega, nullptr);
}

SofiaStepResult SofiaModel::Step(const DenseTensor& y, const Mask& omega,
                                 std::shared_ptr<const CooList> pattern) {
  static obs::Counter* steps =
      obs::Registry::Global().FindOrCreateCounter("sofia.steps");
  static obs::Counter* step_us =
      obs::Registry::Global().FindOrCreateCounter("time.sofia.step_us");
  steps->Add(1);
  obs::ObsSpan span("sofia.step", step_us);
  SOFIA_CHECK(y.shape() == omega.shape());
  SOFIA_CHECK(y.shape() == sigma_.shape());
  const size_t rank = config_.rank;
  const size_t m = config_.period;
  const size_t num_nontemporal = factors_.size();

  // Line 3: one-step-ahead HW forecast of the temporal row (Eq. (19)).
  std::vector<double> u_hat(rank);
  const std::vector<double>& s_prev = season_[season_pos_];  // s_{t-m}
  for (size_t r = 0; r < rank; ++r) {
    u_hat[r] = level_[r] + trend_[r] + s_prev[r];
  }

  SofiaStepResult result;
  result.shape_ = y.shape();
  result.u_hat_ = u_hat;

  // Lines 4-6 and the Eq. (24)/(25) accumulations.
  StepGradients grads;
  Accumulate(y, omega, u_hat, std::move(pattern), &grads, &result);

  // Step-size cap: µ_row = min(µ, 0.5 / tr(H_row)) keeps every block update
  // inside its stability region while matching the paper's raw step when
  // the curvature is small. See SofiaConfig::normalized_step.
  auto capped_mu = [&](double trace) {
    if (!config_.normalized_step || trace <= 0.0) return config_.mu;
    return std::min(config_.mu, 0.5 / trace);
  };

  // Lines 7-8: gradient step on the non-temporal factors (Eq. (24)).
  for (size_t n = 0; n < num_nontemporal; ++n) {
    Matrix& u = factors_[n];
    const Matrix& g = grads.row_grads[n];
    for (size_t i = 0; i < u.rows(); ++i) {
      const double step = 2.0 * capped_mu(grads.row_trace[n][i]);
      double* urow = u.Row(i);
      const double* grow = g.Row(i);
      for (size_t r = 0; r < rank; ++r) urow[r] += step * grow[r];
    }
  }

  // Line 9: temporal row update (Eq. (25)).
  const std::vector<double>& u_prev = last_row_;             // u_{t-1}
  const std::vector<double>& u_season = row_history_[row_pos_];  // u_{t-m}
  std::vector<double> u_new(rank);
  const double lambda1 = ablation_.temporal_smoothness ? config_.lambda1 : 0.0;
  const double lambda2 = ablation_.temporal_smoothness ? config_.lambda2 : 0.0;
  const double temporal_step = 2.0 * capped_mu(grads.temporal_trace);
  for (size_t r = 0; r < rank; ++r) {
    u_new[r] = u_hat[r] +
               temporal_step * (grads.temporal_grad[r] + lambda1 * u_prev[r] +
                                lambda2 * u_season[r] -
                                (lambda1 + lambda2) * u_hat[r]);
  }

  // Line 10: vector HW smoothing update (Eq. (26)).
  std::vector<double> s_new(rank);
  for (size_t r = 0; r < rank; ++r) {
    const double alpha = hw_params_[r].alpha;
    const double beta = hw_params_[r].beta;
    const double gamma = hw_params_[r].gamma;
    const double l_prev = level_[r];
    const double b_prev = trend_[r];
    const double s_old = s_prev[r];
    const double l_new = alpha * (u_new[r] - s_old) +
                         (1.0 - alpha) * (l_prev + b_prev);
    const double b_new = beta * (l_new - l_prev) + (1.0 - beta) * b_prev;
    s_new[r] = gamma * (u_new[r] - l_prev - b_prev) + (1.0 - gamma) * s_old;
    level_[r] = l_new;
    trend_[r] = b_new;
  }
  season_[season_pos_] = std::move(s_new);
  season_pos_ = (season_pos_ + 1) % m;

  row_history_[row_pos_] = u_new;
  row_pos_ = (row_pos_ + 1) % m;
  last_row_ = std::move(u_new);

  // Line 11: the reconstruction X̂_t (Eq. (27)) stays lazy — the snapshots
  // below let result.imputed() materialize it on demand.
  result.u_new_ = last_row_;
  result.factors_after_ = factors_;
  return result;
}

DenseTensor SofiaModel::Forecast(size_t h) const {
  return KruskalSlice(factors_, ForecastRow(h));
}

std::vector<double> SofiaModel::ForecastRow(size_t h) const {
  SOFIA_CHECK_GE(h, 1u);
  const size_t rank = config_.rank;
  const size_t m = config_.period;
  // Eq. (6) applied element-wise: the seasonal slot wraps into the last
  // observed season, exactly as the floor term of the paper prescribes.
  std::vector<double> u_hat(rank);
  const std::vector<double>& s = season_[(season_pos_ + (h - 1)) % m];
  for (size_t r = 0; r < rank; ++r) {
    u_hat[r] = level_[r] + static_cast<double>(h) * trend_[r] + s[r];
  }
  return u_hat;
}

DenseTensor SofiaModel::Reconstruct(
    const std::vector<double>& temporal_row) const {
  return KruskalSlice(factors_, temporal_row);
}

}  // namespace sofia

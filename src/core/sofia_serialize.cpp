#include <cmath>
#include <istream>
#include <ostream>
#include <string>

#include "core/sofia_model.hpp"
#include "util/check.hpp"
#include "util/state_io.hpp"

/// \file sofia_serialize.cpp
/// \brief Text checkpointing of SofiaModel (Serialize / Deserialize).
///
/// Format: a "sofia-model v3" header followed by whitespace-separated
/// fields in a fixed order. v1 has the same layout. v2 checkpoints load
/// too: they carry one more config line with two kernel-path knobs (a
/// dense-scan switch and a mask-reuse switch), parsed and ignored because
/// Step has a single kernel path and always reuses the mask's pattern.
/// Doubles round-trip via max_digits10 so the restored model continues the
/// stream bit-for-bit. The field primitives live in util/state_io and are
/// shared with every StreamingMethod::SaveState implementation.

namespace sofia {

void SofiaModel::Serialize(std::ostream& out) const {
  state_io::BeginState(out, "sofia-model", 3);
  out << config_.rank << ' ' << config_.period << ' '
      << config_.init_seasons << ' ' << config_.lambda1 << ' '
      << config_.lambda2 << ' ' << config_.lambda3 << ' ' << config_.mu
      << ' ' << config_.phi << ' ' << config_.factor_ridge << ' '
      << (config_.normalized_step ? 1 : 0) << ' ' << config_.huber_k << ' '
      << config_.biweight_ck << '\n';
  // num_threads and pattern_storage are runtime knobs and stay out of the
  // checkpoint: results do not depend on the worker count, which belongs
  // to the restoring machine, and a resumed kCsf stream sets its storage
  // by hand (see SofiaConfig::pattern_storage).
  out << (ablation_.reject_outliers ? 1 : 0) << ' '
      << (ablation_.scale_before_reject ? 1 : 0) << ' '
      << (ablation_.temporal_smoothness ? 1 : 0) << '\n';

  out << factors_.size() << '\n';
  for (const Matrix& f : factors_) state_io::WriteMatrix(out, f);

  out << hw_params_.size() << '\n';
  for (const HwParams& p : hw_params_) {
    out << p.alpha << ' ' << p.beta << ' ' << p.gamma << '\n';
  }
  state_io::WriteVector(out, level_);
  state_io::WriteVector(out, trend_);
  out << season_.size() << ' ' << season_pos_ << '\n';
  for (const auto& s : season_) state_io::WriteVector(out, s);
  out << row_history_.size() << ' ' << row_pos_ << '\n';
  for (const auto& r : row_history_) state_io::WriteVector(out, r);
  state_io::WriteVector(out, last_row_);
  state_io::WriteTensor(out, sigma_);
}

SofiaModel SofiaModel::Deserialize(std::istream& in) {
  const int version = state_io::ReadStateHeader(in, "sofia-model", 3);

  const char* what = "corrupt sofia-model checkpoint";
  SofiaModel model;
  int normalized = 0;
  state_io::Require(
      static_cast<bool>(
          in >> model.config_.rank >> model.config_.period >>
          model.config_.init_seasons >> model.config_.lambda1 >>
          model.config_.lambda2 >> model.config_.lambda3 >>
          model.config_.mu >> model.config_.phi >>
          model.config_.factor_ridge >> normalized >>
          model.config_.huber_k >> model.config_.biweight_ck),
      what);
  model.config_.normalized_step = normalized != 0;
  const size_t rank = model.config_.rank;
  const size_t period = model.config_.period;
  state_io::Require(rank >= 1 && rank <= state_io::kMaxStateElements &&
                        period >= 1 && period <= (size_t{1} << 20),
                    what);
  if (version == 2) {
    int dense_scan_knob = 0, mask_reuse_knob = 0;
    state_io::Require(
        static_cast<bool>(in >> dense_scan_knob >> mask_reuse_knob), what);
  }
  int reject = 1, scale_first = 0, smooth = 1;
  state_io::Require(static_cast<bool>(in >> reject >> scale_first >> smooth),
                    what);
  model.ablation_.reject_outliers = reject != 0;
  model.ablation_.scale_before_reject = scale_first != 0;
  model.ablation_.temporal_smoothness = smooth != 0;

  size_t num_factors = 0;
  state_io::Require(
      static_cast<bool>(in >> num_factors) && num_factors <= 16, what);
  for (size_t n = 0; n < num_factors; ++n) {
    model.factors_.push_back(state_io::ReadMatrix(in));
  }

  // Every count below must equal the rank or the period it sizes, checked
  // before anything is allocated from it.
  size_t num_params = 0;
  state_io::Require(static_cast<bool>(in >> num_params) && num_params == rank,
                    what);
  model.hw_params_.resize(num_params);
  for (HwParams& p : model.hw_params_) {
    state_io::Require(static_cast<bool>(in >> p.alpha >> p.beta >> p.gamma),
                      what);
  }
  model.level_ = state_io::ReadVector(in);
  model.trend_ = state_io::ReadVector(in);
  size_t seasons = 0;
  state_io::Require(static_cast<bool>(in >> seasons >> model.season_pos_) &&
                        seasons == period && model.season_pos_ < period,
                    what);
  model.season_.resize(seasons);
  for (auto& s : model.season_) s = state_io::ReadVector(in);
  size_t history = 0;
  state_io::Require(static_cast<bool>(in >> history >> model.row_pos_) &&
                        history == period && model.row_pos_ < period,
                    what);
  model.row_history_.resize(history);
  for (auto& r : model.row_history_) r = state_io::ReadVector(in);
  model.last_row_ = state_io::ReadVector(in);
  model.sigma_ = state_io::ReadTensor(in);

  // Cross-field consistency: a parseable checkpoint whose structures
  // disagree is still corrupt (a flipped digit in a count, a cut vector).
  // Step indexes all of them by rank, period and the error-scale shape
  // without further checks, so a model that restores can step any slice of
  // its error scale's shape.
  for (const std::vector<double>* v :
       {&model.level_, &model.trend_, &model.last_row_}) {
    state_io::Require(v->size() == rank, what);
  }
  for (const auto* rows : {&model.season_, &model.row_history_}) {
    for (const std::vector<double>& v : *rows) {
      state_io::Require(v.size() == rank, what);
    }
  }
  const DenseTensor& sigma = model.sigma_;
  state_io::Require(model.factors_.size() == sigma.order(), what);
  for (size_t n = 0; n < model.factors_.size(); ++n) {
    state_io::Require(model.factors_[n].rows() == sigma.dim(n) &&
                          model.factors_[n].cols() == rank,
                      what);
  }
  // Σ̂ divides every standardized residual (Eq. (21)/(22)).
  for (size_t k = 0; k < sigma.NumElements(); ++k) {
    state_io::Require(std::isfinite(sigma[k]) && sigma[k] > 0.0, what);
  }
  return model;
}

}  // namespace sofia

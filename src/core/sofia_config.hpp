#ifndef SOFIA_CORE_SOFIA_CONFIG_H_
#define SOFIA_CORE_SOFIA_CONFIG_H_

#include <cstddef>
#include <cstdint>

#include "tensor/pattern_storage.hpp"
#include "timeseries/robust.hpp"

/// \file sofia_config.hpp
/// \brief Hyperparameters of SOFIA (defaults follow Section VI-A).

namespace sofia {

/// Configuration shared by the initialization and streaming phases.
struct SofiaConfig {
  size_t rank = 5;          ///< CP rank R.
  size_t period = 7;        ///< Seasonal period m.
  size_t init_seasons = 3;  ///< Start-up horizon t_i = init_seasons * m.

  double lambda1 = 1e-3;  ///< Temporal smoothness weight.
  double lambda2 = 1e-3;  ///< Seasonal smoothness weight.
  double lambda3 = 10.0;  ///< Outlier sparsity weight (soft threshold).
  double mu = 0.1;        ///< Gradient step size of the dynamic update.
  double phi = 0.01;      ///< Error-scale smoothing parameter.

  /// Tikhonov ridge added to every ALS row solve, scaled by the row's own
  /// curvature: the system becomes (B + factor_ridge * tr(B)/R * I) u = c.
  /// This controls the classic CP two-component degeneracy (cancelling
  /// components with diverging norms), which the L1/Lm smoothness penalties
  /// cannot: a *smooth* diverging temporal column lies in their null space.
  /// The relative scaling keeps the distortion at ~factor_ridge regardless
  /// of data scale. Set to 0 for the verbatim Theorem 1/2 updates.
  double factor_ridge = 1e-2;

  /// Cap the dynamic-update step at 0.5 / trace(H_row), where H_row is the
  /// instantaneous Gauss-Newton Hessian of the row being updated. Eq. (24)
  /// and (25) are plain gradient steps whose stability depends on the data
  /// scale; the cap is inactive exactly when the paper's raw step is stable
  /// (small curvature) and prevents oscillation otherwise. Disable to run
  /// the verbatim update (see bench/ablation_design).
  bool normalized_step = true;

  /// Worker threads of the executor SofiaModel::Initialize runs on when it
  /// is handed no pool; 0 = use the hardware concurrency. Steps are one
  /// serial pass and take no pool. The init kernels partition work into
  /// units owned by a single thread, so results are bitwise identical for
  /// every setting.
  size_t num_threads = 0;

  /// Storage backend of the Step pattern. A constant, not a setting: the
  /// CooList is the only backend. It remains because the repository
  /// benchmark (perfbench/) prints it among the library defaults.
  static constexpr PatternStorage pattern_storage = PatternStorage::kCoo;

  double lambda3_decay = 0.85;  ///< `d` of Algorithm 1 (threshold decay).
  double tolerance = 1e-4;      ///< Convergence tolerance (ALS + init loop).
  int max_als_iterations = 300;   ///< Inner ALS sweep cap (Algorithm 2).
  int max_init_iterations = 50;   ///< Outer init iteration cap (Algorithm 1).

  double huber_k = kHuberK;        ///< Cap of the Huber Ψ-function.
  double biweight_ck = kBiweightCk;  ///< Plateau of the biweight ρ-function.

  uint64_t seed = 1;  ///< Seed for the random factor initialization.

  /// Start-up period t_i = init_seasons * m (Section V-A).
  size_t InitWindow() const { return init_seasons * period; }
};

}  // namespace sofia

#endif  // SOFIA_CORE_SOFIA_CONFIG_H_

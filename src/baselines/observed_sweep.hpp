#ifndef SOFIA_BASELINES_OBSERVED_SWEEP_H_
#define SOFIA_BASELINES_OBSERVED_SWEEP_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "linalg/matrix.hpp"
#include "tensor/coo_list.hpp"
#include "tensor/dense_tensor.hpp"
#include "tensor/mask.hpp"
#include "tensor/sparse_kernels.hpp"
#include "tensor/sparse_mask.hpp"
#include "util/parallel.hpp"

/// \file observed_sweep.hpp
/// \brief Shared observed-entry solver core for the streaming baselines.
///
/// Every streaming CP baseline repeats the same per-slice motifs over the
/// observed set Ω_t: gather the observed values, solve the temporal row from
/// a global normal-equation system, accumulate per-row systems or gradients
/// with the temporal weight folded into the regressor, and evaluate the
/// Kruskal reconstruction at the observed entries. ObservedSweep packages
/// those motifs once on top of the CooList / sparse_kernels layer so each
/// baseline's step costs O(|Ω_t|) per pass instead of scaling with the
/// slice volume (the Lemma 1-2 argument SOFIA's own step rests on). Each
/// motif is pinned against its dense-scan oracle in tests/dense_oracle.hpp,
/// and every baseline against a dense reference of its whole step
/// (tests/baseline_parity_test.cc). The core adds:
///
/// - a mask-reuse pattern cache: the CooList depends only on the mask, so
///   identical consecutive masks (fixed sensor outages) skip the rebuild —
///   the only O(volume) term of a step — for an O(|Ω_t|) SparseMask
///   compare;
/// - shared patterns: comparison runners that drive several methods through
///   the same stream build each slice's CooList once (MakeSharedPattern) and
///   hand it to every method's BeginStep;
/// - an adopted worker pool: all motifs partition work into units owned by
///   one thread (mode slices, fixed-size record blocks) and run them on the
///   pool the method adopted, or inline; results are bitwise identical
///   either way.

namespace sofia {

/// Kernel knobs shared by every ported baseline.
struct ObservedSweepOptions {
  /// Build the per-mode slice buckets when compacting a mask. Baselines
  /// that only stream the record list (SMF's linear-indexed sweeps,
  /// OLSTEC's sequential RLS) turn this off to skip the O(order |Ω_t|)
  /// bucket sort per pattern build; the bucketed motifs CHECK-fail if
  /// called without them. Adopted shared patterns keep whatever buckets
  /// they were built with.
  bool with_mode_buckets = true;
};

/// Build-once helper for sharing one mask's observed-entry pattern across
/// several consumers (all methods of a comparison run, or CP-WOPT's
/// loss/gradient pair within one quasi-Newton iterate).
std::shared_ptr<const CooList> MakeSharedPattern(const Mask& omega,
                                                 bool with_mode_buckets = true);

/// Per-baseline solver core: binds to one incoming slice at a time and
/// exposes the observed-entry motifs on the bound pattern. Stateful only in
/// the pattern cache and the adopted pool; all math goes through
/// sparse_kernels.
class ObservedSweep {
 public:
  ObservedSweep() : ObservedSweep(ObservedSweepOptions{}) {}
  explicit ObservedSweep(const ObservedSweepOptions& options)
      : options_(options) {}

  const ObservedSweepOptions& options() const { return options_; }

  /// Bind to the incoming slice: adopt `shared` when given (comparison
  /// mode), else reuse the cached pattern if the mask is unchanged, else
  /// build a fresh CooList with mode buckets. Always re-gathers the
  /// observed values of `y` (into a buffer reused across steps).
  void BeginStep(const DenseTensor& y, const Mask& omega,
                 std::shared_ptr<const CooList> shared = nullptr);

  /// Adopt an externally owned worker pool for the motifs' kernels. Kernel
  /// results are bitwise identical for every pool size, so adoption never
  /// changes a method's output. Pass nullptr to run the kernels inline.
  void AdoptPool(std::shared_ptr<WorkerPool> pool) {
    pool_ = std::move(pool);
  }

  /// The bound pattern (valid after BeginStep).
  const CooList& pattern() const;
  std::shared_ptr<const CooList> shared_pattern() const { return coo_; }
  size_t nnz() const { return pattern().nnz(); }
  /// Observed values of the bound slice, record-aligned.
  const std::vector<double>& values() const { return values_; }
  /// CooList builds performed by BeginStep (shared patterns excluded);
  /// stays flat across steps whose masks repeat.
  size_t pattern_builds() const { return pattern_builds_; }
  /// Unshared BeginStep calls that hit the mask-reuse cache instead of
  /// rebuilding — together with pattern_builds this pins the steady-state
  /// claim that repeated masks never re-compact.
  size_t pattern_reuses() const { return pattern_reuses_; }

  // --- Observed-entry motifs (all record-aligned, all deterministic) ----

  /// Global temporal normal equations B = Σ h h^T, c = Σ vals h with h the
  /// full Hadamard row product (CooNormalSystem on the bound pattern).
  NormalSystem TemporalSystem(const std::vector<Matrix>& factors,
                              const std::vector<double>& vals) const;

  /// Ridge-regularized temporal-row solve
  /// `min_w ||Ω ⊛ (Y* - [[factors; w]])||² + ridge ||w||²`.
  std::vector<double> SolveTemporalRow(const std::vector<Matrix>& factors,
                                       const std::vector<double>& vals,
                                       double ridge) const;

  /// Per-row weighted normal equations of one mode (h = w ⊛ leave-one-out).
  RowSystems WeightedRowSystems(const std::vector<Matrix>& factors,
                                const std::vector<double>& w,
                                const std::vector<double>& vals,
                                size_t mode) const;

  /// Fused WeightedRowSystems + proximal row solve (CooProximalRowUpdates):
  /// u_i <- (B_i + μI)^{-1} (c_i + μ u_i^prev), writing `u` in place. `u`
  /// may alias `factors[mode]`. Bitwise-matches a proximal solve of the
  /// materialized WeightedRowSystems.
  void ProximalRowSweep(const std::vector<Matrix>& factors,
                        const std::vector<double>& w,
                        const std::vector<double>& vals, size_t mode,
                        const Matrix& previous, double mu, Matrix* u) const;

  /// Per-mode gradient rows + curvature traces from record-aligned
  /// residuals (the descent direction resid * regressor). Pass
  /// `with_traces = false` to skip the curvature accumulation (row_trace
  /// stays empty) when only the gradients are consumed.
  ModeGradients Gradients(const std::vector<Matrix>& factors,
                          const std::vector<double>& w,
                          const std::vector<double>& residuals,
                          bool with_traces = true) const;

  /// [[factors; w]] evaluated at the observed entries (CooKruskalGather).
  std::vector<double> Reconstruct(const std::vector<Matrix>& factors,
                                  const std::vector<double>& w) const;

  /// Like Reconstruct, but replicating the KruskalSlice chain evaluation
  /// order bitwise (CooKruskalSliceGather) — for steps whose dense oracle
  /// thresholds a materialized KruskalSlice residual (OR-MSTC's slab).
  /// The result lives in a scratch buffer reused across calls and steps; it
  /// stays valid until the next SliceReconstruct on this sweep.
  const std::vector<double>& SliceReconstruct(
      const std::vector<Matrix>& factors, const std::vector<double>& w) const;

 private:
  /// The adopted pool when it has more than one thread; otherwise nullptr,
  /// so the kernels run inline and serial methods never pay a dispatch.
  WorkerPool* Pool() const;

  ObservedSweepOptions options_;
  std::shared_ptr<const CooList> coo_;
  std::vector<double> values_;
  // Mask-reuse cache as a SparseMask: O(|Ω|) storage and compare instead
  // of the dense indicator's O(volume) bytes (see tensor/sparse_mask.hpp);
  // default-constructed it is invalid and Matches() nothing.
  SparseMask mask_;
  size_t pattern_builds_ = 0;
  size_t pattern_reuses_ = 0;
  std::shared_ptr<WorkerPool> pool_;
  mutable std::vector<double> slice_gather_scratch_;
};

}  // namespace sofia

#endif  // SOFIA_BASELINES_OBSERVED_SWEEP_H_

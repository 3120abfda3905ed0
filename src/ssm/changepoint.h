// Information-criterion-driven change point detection (§V-B): exhaustive
// search (Algorithm 1, exact) and criterion binary search (Algorithm 2,
// approximate). Both end by comparing the best intervention model
// against the no-intervention model, so "no change" is a possible
// verdict; the procedure is hyperparameter-free, as the paper requires.
//
// Extensions beyond the paper's §V (its §IX future work):
//   - the intervention shape is selectable (slope / level / pulse);
//   - the criterion is pluggable (AIC as in the paper, or AICc / BIC);
//   - DetectMultiple() finds several breaks by greedy forward selection
//     over the multi-intervention structural model.

#ifndef MICTREND_SSM_CHANGEPOINT_H_
#define MICTREND_SSM_CHANGEPOINT_H_

#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "ssm/fit.h"

namespace mic::obs {
class Counter;
}  // namespace mic::obs

namespace mic::ssm {

/// Model selection criterion for the change point search.
enum class SelectionCriterion : int {
  kAic = 0,   // -2 logL + 2k                (the paper's choice)
  kAicc = 1,  // AIC + 2k(k+1) / (n - k - 1) (small-sample correction)
  kBic = 2,   // -2 logL + k log(n)
};

std::string_view SelectionCriterionName(SelectionCriterion criterion);

/// Generic criterion value; `n` is the number of likelihood
/// observations.
double InformationCriterion(double log_likelihood, int parameters, int n,
                            SelectionCriterion criterion);

struct ChangePointOptions {
  /// Whether the underlying structural model carries a seasonal
  /// component (LL+S+I vs LL+I).
  bool seasonal = true;
  int period = 12;
  FitOptions fit;
  /// Candidate change points are
  /// [min_candidate, series length - min_tail_observations].
  int min_candidate = 1;
  /// Require at least this many observations at/after a candidate break
  /// so lambda is estimated from data rather than a single point. The
  /// paper's search allows 1 (every t); forecasting callers should
  /// require more.
  int min_tail_observations = 1;
  /// Extra criterion evidence required to declare a change: the
  /// intervention model must satisfy
  /// crit_best <= crit_no_change - aic_margin. The paper's plain AIC
  /// comparison is margin 0; a positive margin counteracts the
  /// select-the-minimum optimism of searching many candidates.
  double aic_margin = 0.0;
  /// Shapes of the searched intervention. The paper uses slope shifts
  /// only; adding kLevelShift makes the search also consider abrupt
  /// jumps and pick the better-fitting shape per candidate by the
  /// criterion.
  std::vector<InterventionKind> candidate_kinds = {
      InterventionKind::kSlopeShift};
  /// Model selection criterion (the paper uses AIC).
  SelectionCriterion criterion = SelectionCriterion::kAic;
};

struct ChangePointResult {
  /// True when the best intervention model beats the no-intervention
  /// model on the criterion.
  bool has_change = false;
  /// Detected change point (0-based month), or kNoChangePoint.
  int change_point = kNoChangePoint;
  /// Shape of the winning intervention (meaningful when has_change).
  InterventionKind kind = InterventionKind::kSlopeShift;
  /// Criterion value of the winning model.
  double best_aic = 0.0;
  /// Criterion value of the model without the intervention component.
  double aic_without_intervention = 0.0;
  /// Distinct model fits performed (the cost driver of Table V).
  int fits_performed = 0;
  /// The winning fitted model.
  FittedStructuralModel best_model;
};

/// Output of one candidate fit, produced off-detector (possibly on a
/// worker thread) and folded back in by SupplyEvaluation. The counter
/// deltas are carried here instead of being written to the metrics
/// registry at fit time, so a speculative evaluation that the serial
/// algorithm would never have performed (e.g. the sibling of a failed
/// bisection endpoint) can be discarded without a trace.
struct CandidateEvaluation {
  /// Criterion of the best candidate kind (the detector's AicAt value).
  double criterion = 0.0;
  /// The criterion-best fitted model.
  FittedStructuralModel model;
  /// Successful model fits this evaluation performed.
  int fits_performed = 0;
  /// Deferred ssm.* metric deltas (successful fits only, matching what
  /// FitStructuralModel would have recorded itself).
  std::uint64_t nelder_mead_evaluations = 0;
  std::uint64_t kalman_passes = 0;
};

/// Fits candidate `t_cp` (kNoChangePoint = the no-intervention model)
/// exactly as ChangePointDetector::AicAt would: one fit per candidate
/// kind, keeping the criterion-best. Pure function of its arguments —
/// no detector state, no metrics registry writes
/// (options.fit.metrics is ignored; deltas come back in the result) —
/// so concurrent calls over different candidates are safe and
/// bit-deterministic.
Result<CandidateEvaluation> EvaluateCandidate(
    const std::vector<double>& series, const ChangePointOptions& options,
    int t_cp);

/// Result of the greedy multi-break search.
struct MultiChangePointResult {
  /// Accepted interventions in acceptance order.
  std::vector<Intervention> interventions;
  /// Criterion value of the final model.
  double best_aic = 0.0;
  /// Criterion value of the no-intervention model.
  double aic_without_intervention = 0.0;
  int fits_performed = 0;
  FittedStructuralModel best_model;
};

/// Detector over one series; memoizes the criterion per candidate so
/// exact and approximate runs on the same instance are counted fairly.
///
/// When options.fit.metrics is set the detector also reports
/// changepoint.aic_evaluations (criterion computed for a fresh
/// candidate, split per algorithm under changepoint.exact.* /
/// changepoint.approximate.*), changepoint.candidates_pruned (candidate
/// answered from the memo cache), and changepoint.multiple.fits. All
/// are pure functions of the series and options.
class ChangePointDetector {
 public:
  ChangePointDetector(std::vector<double> series,
                      const ChangePointOptions& options = {});

  /// Algorithm 1: evaluates every candidate in
  /// [options.min_candidate, T - min_tail] plus "no change".
  Result<ChangePointResult> DetectExact();

  /// Algorithm 2: criterion binary search over the candidate range plus
  /// the final comparison with "no change".
  Result<ChangePointResult> DetectApproximate();

  /// §IX extension: greedy forward selection of up to `max_breaks`
  /// interventions. Each round scans all candidates given the already
  /// accepted interventions and keeps the best if it improves the
  /// criterion by at least aic_margin.
  Result<MultiChangePointResult> DetectMultiple(int max_breaks);

  /// Criterion value as a function of the assumed change point — the
  /// curve of Fig. 5b. Runs the exact sweep as a side effect.
  Result<std::vector<double>> AicCurve();

  // --- Resumable candidate-level search -----------------------------
  //
  // DetectExact / DetectApproximate are thin serial drivers over this
  // API, which splits a detection into (a) planning which candidates
  // need a model fit and (b) consuming fit results — so a caller can
  // run step (b)'s fits for MANY detectors through one ParallelFor
  // batch. The protocol:
  //
  //   detector.BeginSearch(approximate);
  //   while (!detector.SearchDone()) {
  //     for (int t : detector.PendingCandidates())   // evaluate freely
  //       evals[t] = EvaluateCandidate(detector.series(), options, t);
  //     for (int t : pending order)                  // fold back in
  //       detector.SupplyEvaluation(t, std::move(evals[t]));
  //   }
  //   result = detector.FinishSearch();
  //
  // All detector-side effects (fit counts, metrics, memo entries)
  // happen inside SupplyEvaluation/FinishSearch on the supplying
  // thread, in the exact order the serial algorithms would have
  // produced them — a search driven this way is bit- and
  // counter-identical to DetectExact / DetectApproximate, at any
  // evaluation parallelism.

  /// Starts an exact (Algorithm 1) or approximate (Algorithm 2) search.
  void BeginSearch(bool approximate);

  /// Candidates the search cannot answer from its caches (in request
  /// order; may include kNoChangePoint). Empty while SearchDone().
  std::vector<int> PendingCandidates() const;

  /// Feeds back the evaluation of one pending candidate. Evaluations
  /// for candidates that are no longer pending (e.g. after an
  /// approximate search aborted on a failed endpoint) are discarded.
  void SupplyEvaluation(int t_cp, Result<CandidateEvaluation> evaluation);

  /// True when no more evaluations are needed.
  bool SearchDone() const;

  /// Completes the search and returns the detection result (or the
  /// error the serial algorithm would have returned).
  Result<ChangePointResult> FinishSearch();

  /// Distinct fits performed so far on this instance.
  int fits_performed() const { return fits_performed_; }

  /// The series this detector owns (as passed in, e.g. normalized).
  const std::vector<double>& series() const { return series_; }

  /// Clears the memo (e.g. to time exact and approximate independently).
  void ResetCache();

 private:
  enum class SearchPhase {
    kIdle = 0,
    kExactSweep,   // waiting on the round-0 batch of sweep candidates
    kBisect,       // Algorithm 2 halving loop
    kFinalEval,    // Algorithm 2 post-loop left/right comparison
    kFinalize,     // all candidate values resolved; FinishSearch ready
    kFailed,       // a required evaluation failed; FinishSearch errors
  };

  /// Memoized criterion of the model with change point `t_cp`
  /// (kNoChangePoint = no intervention) under the BEST candidate kind.
  Result<double> AicAt(int t_cp);

  /// The search-machine twin of AicAt: answers from the caches (with
  /// the same counters AicAt would bump) or consumes a staged
  /// evaluation (bumping the evaluation counters and folding in the
  /// deferred fit metrics, exactly as the serial fit-at-call-site
  /// would). Returns nullopt — after queueing the candidate on
  /// pending_ — when a fit is needed.
  std::optional<Result<double>> MachineAicAt(int t_cp);

  /// Whether a search would have to fit `t_cp` (not yet memoized).
  /// Counter-neutral, unlike MachineAicAt.
  bool NeedsEvaluation(int t_cp) const;

  /// Queues a candidate for evaluation (deduplicated).
  void Request(int t_cp);

  /// Runs the search state machine forward until it blocks on pending
  /// evaluations or reaches kFinalize/kFailed.
  void AdvanceSearch();

  /// Aborts the search with `failure` (the serial algorithms propagate
  /// the first evaluation error).
  void FailSearch(const Status& failure);

  /// Serial driver: evaluates every pending candidate inline until the
  /// search completes (what DetectExact/DetectApproximate run on).
  Result<ChangePointResult> DriveSearch();

  /// Criterion of a fitted model under the configured criterion.
  double CriterionOf(const FittedStructuralModel& fitted) const;

  /// Fits the structural model with the given interventions.
  Result<FittedStructuralModel> FitWith(
      const std::vector<Intervention>& interventions);

  Result<ChangePointResult> Finalize(int best_candidate);

  std::vector<double> series_;
  ChangePointOptions options_;
  /// Keyed by change point; holds the best criterion over the
  /// candidate kinds and the corresponding fitted model.
  std::unordered_map<int, double> aic_cache_;
  std::unordered_map<int, FittedStructuralModel> model_cache_;
  int fits_performed_ = 0;

  // --- Search-machine state (live between BeginSearch/FinishSearch).
  SearchPhase phase_ = SearchPhase::kIdle;
  int search_n_ = 0;  // candidate range is [min_candidate, search_n_)
  std::vector<int> pending_;
  std::unordered_set<int> pending_set_;
  /// Supplied-but-not-yet-consumed evaluations.
  std::map<int, Result<CandidateEvaluation>> staged_;
  /// Candidates whose evaluation failed this search (status kept so a
  /// later query in the same search returns the serial error).
  std::unordered_map<int, Status> failed_this_search_;
  /// Exact sweep: resolved criterion per candidate (failures absent);
  /// ordered so the best-candidate scan runs in ascending t.
  std::map<int, double> sweep_values_;
  // Algorithm 2 state.
  int bisect_left_ = 0;
  int bisect_right_ = 0;
  std::optional<double> bisect_left_value_;
  std::optional<double> bisect_right_value_;
  int best_candidate_ = kNoChangePoint;
  Status search_failure_ = Status::OK();

  // Counter handles pre-resolved from options_.fit.metrics in the
  // constructor (all null when metrics are disabled); active_counter_
  // points at the per-algorithm evaluation counter of the search
  // currently running.
  obs::Counter* pruned_counter_ = nullptr;
  obs::Counter* evaluations_counter_ = nullptr;
  obs::Counter* exact_counter_ = nullptr;
  obs::Counter* approximate_counter_ = nullptr;
  obs::Counter* multiple_counter_ = nullptr;
  obs::Counter* active_counter_ = nullptr;
};

}  // namespace mic::ssm

#endif  // MICTREND_SSM_CHANGEPOINT_H_

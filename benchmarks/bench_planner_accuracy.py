"""Planner accuracy: predicted algorithm choice vs best-by-measurement.

The engine's ``algorithm="auto"`` planner answers the paper's central
practical question — which algorithm wins for a given dataset and
threshold — from corpus statistics and the cost model alone, without
running the candidates.  This benchmark replays the Fig. 4 threshold sweep
(small dataset, 500 machines, paper calibration) twice: once *measured*
(running all four algorithms, as ``bench_fig4_threshold_sweep`` does) and
once *planned*, and records, per threshold:

* the planner's choice and the measured winner (and whether they agree);
* predicted vs measured simulated seconds for every feasible candidate
  (the prediction/measurement ratio is the planner's calibration error).

It then closes the self-tuning loop: every measured run's per-job
statistics are fed into a :class:`~repro.engine.calibration.
CalibrationProfile` against the plan that predicted them, the sweep is
re-planned with the calibrated planner, and the benchmark asserts that
calibration *strictly tightens* the prediction/measurement band (the worst
multiplicative deviation from 1.0 across the grid).  A storage round-trip
of the trained profile must reproduce the calibrated predictions exactly.

The headline series — agreement per threshold, the chosen algorithm and
both ratio bands — is deterministic and goes through ``bench_record`` into
the committed smoke baselines, so a cost-model, planner or calibration
change that flips a choice or loosens the band trips
``check_regression.py``.
"""

from __future__ import annotations

from benchmarks.conftest import DEFAULT_SHARDING_C, THRESHOLD_GRID
from repro.analysis.experiments import threshold_sweep
from repro.analysis.reporting import format_table
from repro.engine.calibration import CalibrationProfile
from repro.engine.planner import Planner
from repro.engine.spec import PLANNABLE_ALGORITHMS, JoinSpec

ALGORITHMS = PLANNABLE_ALGORITHMS


def deviation(ratio: float) -> float:
    """Multiplicative distance of a pred/meas ratio from the ideal 1.0."""
    return max(ratio, 1.0 / ratio)


def test_planner_accuracy_fig4_sweep(small_dataset, cluster_500,
                                     cost_parameters, bench_record, tmp_path):
    multisets = small_dataset.multisets
    planner = Planner(cost_parameters)

    # Same configuration as the Fig. 4 sweep: the paper-calibrated cost
    # model with the unpruned candidate stream.
    measured = threshold_sweep(ALGORITHMS, multisets, THRESHOLD_GRID,
                               cluster=cluster_500,
                               sharding_threshold=DEFAULT_SHARDING_C,
                               cost_parameters=cost_parameters,
                               prune_candidates=False, keep_pairs=False)
    plans = {}
    for threshold in THRESHOLD_GRID:
        spec = JoinSpec(threshold=threshold,
                        sharding_threshold=DEFAULT_SHARDING_C,
                        prune_candidates=False)
        plans[threshold] = planner.plan(spec, multisets, cluster_500)

    choices = {}
    agreement = {}
    predicted_series = {}
    ratio_series = {}
    rows = []
    for threshold in THRESHOLD_GRID:
        outcomes = measured[threshold]
        finished = {name: outcome.simulated_seconds
                    for name, outcome in outcomes.items() if outcome.finished}
        best = min(finished, key=finished.get)
        plan = plans[threshold]
        choices[threshold] = {"planned": plan.algorithm, "measured": best}
        agreement[threshold] = plan.algorithm == best
        predicted_series[threshold] = {
            candidate.algorithm: candidate.predicted_seconds
            for candidate in plan.candidates}
        chosen_ratio = (plan.predicted_seconds / finished[plan.algorithm]
                        if plan.algorithm in finished else None)
        ratio_series[threshold] = chosen_ratio
        rows.append([threshold, plan.algorithm, best,
                     "yes" if agreement[threshold] else "NO",
                     f"{plan.predicted_seconds:,.0f}",
                     f"{finished[best]:,.0f}",
                     f"{chosen_ratio:.2f}" if chosen_ratio else "-"])

    agreement_rate = sum(agreement.values()) / len(agreement)
    bench_record["choices"] = choices
    bench_record["agreement"] = agreement
    bench_record["agreement_rate"] = agreement_rate
    bench_record["predicted_seconds"] = predicted_series
    # Both sides are deterministic (cost-model outputs), so the ratios are
    # stable series the regression gate can watch within its tolerance.
    bench_record["prediction_over_measurement"] = ratio_series

    print()
    print(format_table(
        ["threshold", "planner choice", "measured best", "agree",
         "predicted s", "measured s", "pred/meas"],
        rows,
        title="Planner choice vs measured winner (Fig. 4 sweep, small "
              "dataset, 500 machines)"))
    print(f"\nAgreement: {sum(agreement.values())}/{len(agreement)} "
          f"thresholds ({agreement_rate:.0%}).")

    # On the calibrated small preset the planner must match the measured
    # winner at every threshold, and its prediction for the chosen pipeline
    # must stay within a factor of two of the measurement.
    assert agreement_rate == 1.0, choices
    for threshold, ratio in ratio_series.items():
        assert ratio is not None and 0.5 <= ratio <= 2.0, (threshold, ratio)

    # -- self-tuning: feed the measurements back and re-plan ------------------

    profile = CalibrationProfile(base=cost_parameters)
    for threshold in THRESHOLD_GRID:
        plan = plans[threshold]
        for name, outcome in measured[threshold].items():
            if not outcome.finished or not outcome.job_stats:
                continue
            try:
                candidate = plan.candidate_for(name)
            except KeyError:
                continue  # the planner ruled this candidate infeasible
            profile.observe(candidate, outcome.job_stats, cluster_500)

    calibrated_planner = Planner(cost_parameters, calibration=profile)
    calibrated_ratio_series = {}
    calibration_rows = []
    for threshold in THRESHOLD_GRID:
        spec = JoinSpec(threshold=threshold,
                        sharding_threshold=DEFAULT_SHARDING_C,
                        prune_candidates=False)
        plan = calibrated_planner.plan(spec, multisets, cluster_500)
        finished = {name: outcome.simulated_seconds
                    for name, outcome in measured[threshold].items()
                    if outcome.finished}
        ratio = plan.predicted_seconds / finished[plan.algorithm]
        calibrated_ratio_series[threshold] = ratio
        calibration_rows.append([threshold, plan.algorithm,
                                 f"{ratio_series[threshold]:.4f}",
                                 f"{ratio:.4f}"])

    default_band = max(deviation(r) for r in ratio_series.values())
    calibrated_band = max(deviation(r)
                          for r in calibrated_ratio_series.values())

    bench_record["calibrated_prediction_over_measurement"] = (
        calibrated_ratio_series)
    bench_record["default_band"] = default_band
    bench_record["calibrated_band"] = calibrated_band
    bench_record["calibration_factors"] = {
        name: estimate.factor
        for name, estimate in profile.components.items() if estimate.count}

    print()
    print(format_table(
        ["threshold", "calibrated choice", "default pred/meas",
         "calibrated pred/meas"],
        calibration_rows,
        title=f"Self-tuning: ratio band {default_band:.4f} -> "
              f"{calibrated_band:.4f} after {profile.runs} observations"))

    # The acceptance criterion of the self-tuning loop: after observing the
    # sweep, the calibrated predictions must sit in a strictly tighter band
    # around the measurements than the default cost constants produce.
    assert calibrated_band < default_band, (calibrated_band, default_band)

    # A profile persisted and reloaded must reproduce the calibrated
    # predictions exactly — calibration survives across sessions.
    profile.save(tmp_path / "calibration.db")
    reloaded = CalibrationProfile.load(tmp_path / "calibration.db")
    assert (reloaded.calibrated_parameters()
            == profile.calibrated_parameters())
    replanner = Planner(cost_parameters, calibration=reloaded)
    for threshold in THRESHOLD_GRID:
        spec = JoinSpec(threshold=threshold,
                        sharding_threshold=DEFAULT_SHARDING_C,
                        prune_candidates=False)
        assert (replanner.plan(spec, multisets, cluster_500).predicted_seconds
                == calibrated_planner.plan(spec, multisets,
                                           cluster_500).predicted_seconds)

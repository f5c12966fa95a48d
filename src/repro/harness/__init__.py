"""Experiment harness: cached isolated profiling, the scheme registry
(spatial / leftover / WS / SMK × BMI / MIL / UCP), the figure registry
(``experiments.FIGURES``: one driver, renderer and verdict list per
paper table/figure), the campaign job model (``parallel``) and its one
dispatcher (``resilience``: worker pool or in-process loop, with
retry/quarantine, a checkpoint journal and deterministic fault
injection as policy values)."""

from repro._lazy import lazy_getattr

#: public name -> defining module, imported on first use: ``repro
#: schemes`` wants ``reporting.format_table`` and none of the runner.
_EXPORTS = {
    **dict.fromkeys(("ExperimentRunner", "IsoRecord", "RunnerSettings",
                     "WorkloadOutcome", "run_pair"),
                    "repro.harness.runner"),
    **dict.fromkeys(("build_report", "format_series", "format_table",
                     "geomean", "write_report"),
                    "repro.harness.reporting"),
    **dict.fromkeys(("CampaignJournal", "FaultPlan", "FaultSpec",
                     "JobError", "Quarantined", "ResiliencePolicy",
                     "ResilienceReport", "run_campaign_resilient",
                     "run_jobs_resilient"),
                    "repro.harness.resilience"),
    "experiments": "repro.harness.experiments",
}
__getattr__ = lazy_getattr(__name__, _EXPORTS)
__all__ = list(_EXPORTS)

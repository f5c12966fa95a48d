"""Experiment harness: cached isolated profiling, the scheme registry
(spatial / leftover / WS / SMK × BMI / MIL / UCP), one driver per
paper table/figure, the campaign job model (``parallel``) and its one
dispatcher (``resilience``: worker pool or in-process loop, with
retry/quarantine, a checkpoint journal and deterministic fault
injection as policy values)."""

from repro.harness.runner import (
    ExperimentRunner,
    IsoRecord,
    RunnerSettings,
    WorkloadOutcome,
    run_pair,
)
from repro.harness.reporting import (
    build_report,
    format_series,
    format_table,
    geomean,
    write_report,
)
from repro.harness.resilience import (
    CampaignJournal,
    FaultPlan,
    FaultSpec,
    JobError,
    Quarantined,
    ResiliencePolicy,
    ResilienceReport,
    run_campaign_resilient,
    run_jobs_resilient,
)
from repro.harness import experiments

__all__ = [
    "ExperimentRunner",
    "RunnerSettings",
    "IsoRecord",
    "WorkloadOutcome",
    "run_pair",
    "build_report",
    "write_report",
    "format_table",
    "format_series",
    "geomean",
    "experiments",
    "CampaignJournal",
    "FaultPlan",
    "FaultSpec",
    "JobError",
    "Quarantined",
    "ResiliencePolicy",
    "ResilienceReport",
    "run_campaign_resilient",
    "run_jobs_resilient",
]

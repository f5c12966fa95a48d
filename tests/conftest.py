"""Fixtures shared by more than one test module."""

import dataclasses

import pytest

from repro.config import scaled_config
from repro.harness import experiments as ex
from repro.harness.reporting import build_report
from repro.harness.runner import ExperimentRunner, RunnerSettings

#: the quick report's budgets: small, but every entry still runs.
TINY = RunnerSettings(iso_cycles=1000, curve_cycles=800,
                      concurrent_cycles=1200)


@pytest.fixture(scope="session")
def quick_report():
    """``build_report(..., include_sweeps=False)`` at :data:`TINY`,
    built once per session: ``(text, {key: verdicts})``, where the
    dict holds the verdicts each entry returned while the report was
    built."""
    recorded = {}

    def recording(figure):
        def verdicts(data):
            recorded[figure.key] = figure.verdicts(data)
            return recorded[figure.key]
        return dataclasses.replace(figure, verdicts=verdicts)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ex, "FIGURES", tuple(recording(f) for f in ex.FIGURES))
        text = build_report(ExperimentRunner(scaled_config(), TINY),
                            include_sweeps=False)
    return text, recorded

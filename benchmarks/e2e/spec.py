"""Workload sizes shared by the driver (``run.py``) and its child legs
(``worker.py``).  Metric names, units, directions and bounds are not
repeated here: ``BENCHMARK.json`` at the repository root declares them
and ``run.py`` reads it.
"""

#: the paper's headline DMIL weighted-speedup gain (Fig. 12), in percent.
PAPER_DMIL_GAIN_PCT = 24.6

#: environment names a developer's shell may carry that change what the
#: simulator or the harness does; removed from every child's environment.
SCRUBBED_ENV = ("REPRO_REFERENCE_LOOP", "REPRO_POOLED_MEM", "REPRO_NO_TRACE",
                "REPRO_FAULT_PLAN", "REPRO_BENCH_WORKERS")

#: cycles are sized so one timed rep takes 3-5 s on a 2-core sandbox and
#: a three-rep run of every workload fits the benchmark contract's time
#: cap with a third to spare (README, Sizes).
WORKLOADS = {
    "sm16_compute": {"kind": "gpu", "kernels": ("dc",), "tb_limits": None,
                     "cycles": 20_000},
    "sm16_memory": {"kind": "gpu", "kernels": ("ks", "ax"),
                    "tb_limits": (8, 8), "cycles": 80_000},
    "sm16_cke_dmil": {"kind": "mix", "kernels": ("bp", "cd"),
                      "cycles": 24_000},
    "campaign_cold": {"kind": "campaign", "resilient": False},
    "campaign_resume": {"kind": "campaign", "resilient": True},
}

#: the campaign: the C+M pair of sm16_cke_dmil on the CLI's scaled
#: machine, under Warped-Slicer with and without DMIL (2 observed cells
#: + 2 iso runs + the WS curves of both kernels).  The CLI fixes the
#: cycle budgets, so --quick cannot shrink it.
CAMPAIGN_MIXES = ("bp,cd",)
CAMPAIGN_SCHEMES = ("ws", "ws-dmil")

#: ``--quick`` divides sm16 cycles by this; traced sm16 legs by TRACE_DIV.
QUICK_DIV = 20
TRACE_DIV = 4

#: window of the fast-loop vs reference-loop signature check.
REFCHECK_CYCLES = 2000


def campaign_argv(cache: str, artifacts: str, *extra: str):
    """``python -m repro`` arguments of the benchmark campaign."""
    return ["campaign", *CAMPAIGN_MIXES,
            "--schemes", ",".join(CAMPAIGN_SCHEMES), "--workers", "1",
            "--cache", cache, "--artifacts", artifacts, *extra]

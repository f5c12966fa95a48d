"""Experiment harness: cached isolated profiling, the scheme registry
(spatial / leftover / WS / SMK × BMI / MIL / UCP), the figure registry
(``experiments.FIGURES``: one driver, renderer and verdict list per
paper table/figure), the campaign job model (``parallel``) and its one
dispatcher (``resilience``: worker pool or in-process loop, with
retry/quarantine, a checkpoint journal and deterministic fault
injection as policy values)."""

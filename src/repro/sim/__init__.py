"""Cycle-level SM core model: warps, GTO/LRR schedulers, execution
units, the LSU memory pipeline, and the top-level GPU engine."""

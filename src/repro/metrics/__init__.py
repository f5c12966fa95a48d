"""Multiprogramming metrics used throughout the paper's evaluation,
plus the §4.5 event-based energy model."""

#!/usr/bin/env bash
# Static analysis: ruff (style/imports) + the repro linter (simulator
# invariants: determinism, sentinel hooks, stat hygiene, picklability).
# Mirrors the CI `lint` job; run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== ruff =="
ruff check src tests scripts

echo "== repro lint =="
PYTHONPATH=src python -m repro lint src "$@"

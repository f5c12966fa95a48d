"""Whole-program linter tests: the module summarizer, the incremental
index cache, the conservative call graph, and each interprocedural
rule family (REPRO-W/R/S004/S005) against its fixture set.

The project fixtures are linted as *file sets* (a whole-program
violation spans modules), with the same LINT-BAD marker contract as
the per-file fixtures: findings must match the markers exactly."""

import json
import os
import re
import textwrap

import pytest

from repro.lint import LintEngine, ProjectIndex, build_index, summarize_source
from repro.lint.callgraph import CallGraph, fid
from repro.lint.project import INDEX_VERSION

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(HERE)
FIXROOT = os.path.join(HERE, "lint_fixtures")

_MARKER_RE = re.compile(r"LINT-BAD:\s*(REPRO-[A-Z]\d+)")

#: rule family -> the fixture file set proving it fires.
PROJECT_FIXTURES = {
    "REPRO-W001": ["src/repro/sim/fix_w001.py"],
    "REPRO-W002": ["src/repro/sim/fix_w002.py"],
    "REPRO-R001": ["src/repro/harness/fix_r001.py"],
    "REPRO-R002": ["src/repro/harness/fix_r002.py"],
    "REPRO-S004": ["src/repro/sim/fix_s004.py",
                   "src/repro/obs/fix_s004_vals.py"],
    "REPRO-S005": ["src/repro/sim/fix_s005.py",
                   "src/repro/obs/stalls.py",
                   "src/repro/obs/timeline.py"],
}


def expected_markers(rel_paths):
    """Sorted (path, line, rule) triples the fixture set declares."""
    expected = []
    for rel_path in rel_paths:
        with open(os.path.join(FIXROOT, rel_path), encoding="utf-8") as fh:
            for lineno, text in enumerate(fh, start=1):
                for match in _MARKER_RE.finditer(text):
                    expected.append((rel_path, lineno, match.group(1)))
    return sorted(expected)


def lint_fixture_set(rel_paths):
    return LintEngine(FIXROOT).lint_project(rel_paths)


# ----------------------------------------------------------------------
# fixtures: exact marker match, per family
@pytest.mark.parametrize("rule_id,rel_paths", sorted(PROJECT_FIXTURES.items()))
def test_fixture_findings_match_markers(rule_id, rel_paths):
    expected = expected_markers(rel_paths)
    assert expected, f"fixture set {rel_paths} declares no LINT-BAD markers"
    got = sorted((f.path, f.line, f.rule)
                 for f in lint_fixture_set(rel_paths))
    assert got == expected
    assert any(rule == rule_id for _p, _l, rule in got)


def test_w001_catches_the_pr4_hazard_shape():
    """The acceptance fixture: a DRAM enqueue with no wheel post on any
    call path — the exact shape of the PR-4 bug — must flag."""
    findings = [f for f in lint_fixture_set(["src/repro/sim/fix_w001.py"])
                if f.rule == "REPRO-W001"]
    assert any("enqueue_read()" in f.message for f in findings)
    assert any("busy_until" in f.message for f in findings)


def test_stall_sleep_wakes_are_w001_exempt_lowerings():
    """The memory-stall sleep's wake (the L1 ``on_release`` hook) is
    clean under W001 because it *is* a zero lowering, not because
    anything suppresses it; the raise in ``tick`` posts its horizon."""
    rel = "src/repro/sim/sm.py"
    with open(os.path.join(REPO_ROOT, rel), encoding="utf-8") as fh:
        source = fh.read()
    assert "repro-lint: disable" not in source
    functions = {f["name"]: f
                 for f in summarize_source(source, rel)["functions"].values()}
    wake = functions["_end_stall_sleep"]
    assert [(attr, vkind) for attr, _l, _c, vkind in wake["leap_writes"]] \
        == [("_sleep_until", "zero")]
    tick = functions["tick"]
    assert ("_sleep_until", "other") in [
        (attr, vkind) for attr, _l, _c, vkind in tick["leap_writes"]]
    assert tick["posts_wheel"]
    # ... and the raise without a post is exactly what the fixture flags.
    findings = lint_fixture_set(["src/repro/sim/fix_w001.py"])
    assert any("LeakyStallSleep.sleep_through_stall" in f.message
               for f in findings)


def test_r001_catches_worker_written_module_state():
    findings = [f for f in lint_fixture_set(["src/repro/harness/fix_r001.py"])
                if f.rule == "REPRO-R001"]
    assert len(findings) == 2
    assert any("_RESULTS" in f.message for f in findings)
    assert any("_SLOT_LEDGER" in f.message for f in findings)
    assert all("parent-side" in f.message for f in findings)


def test_s005_judges_the_indexed_taxonomy_not_the_installed_one():
    """Every leaf the fixture bumps is valid in the *real* taxonomy
    (per-file REPRO-S001 stays quiet); the findings exist only because
    the drifted fixture stand-ins are what the index resolves."""
    findings = lint_fixture_set(PROJECT_FIXTURES["REPRO-S005"])
    assert all(f.rule == "REPRO-S005" for f in findings)
    leaves = {m for f in findings
              for m in re.findall(r"leaf '(\w+)'", f.message)}
    assert leaves == {"samples", "rsfail_missq", "qbmi_events"}


def test_project_rules_honour_pragma_suppression(tmp_path):
    (tmp_path / "src/repro/sim").mkdir(parents=True)
    mod = tmp_path / "src/repro/sim/leaky.py"
    mod.write_text(
        "class P:\n"
        "    def stretch(self, n):\n"
        "        self.busy_until += n"
        "  # repro-lint: disable=REPRO-W001 (test)\n",
        encoding="utf-8")
    engine = LintEngine(str(tmp_path))
    assert engine.lint_project(["src"]) == []
    assert engine.suppressed == 1


# ----------------------------------------------------------------------
# the whole-repo gate: find-or-prove-absent on the real tree
def test_whole_repo_is_project_clean():
    engine = LintEngine(REPO_ROOT)
    findings = engine.lint_project(["src", "tests", "scripts"])
    assert findings == [], "\n".join(
        f"{f.path}:{f.line}: {f.rule}: {f.message}" for f in findings)


def test_real_repo_has_worker_entries_reaching_execute_job():
    """REPRO-R001/R002 return early when nothing is worker-reachable,
    so they pass vacuously unless the index sees how the dispatcher
    starts its workers (``ctx.Process(target=...)``)."""
    engine = LintEngine(REPO_ROOT)
    graph = CallGraph(build_index(REPO_ROOT, engine.collect_files(["src"])))
    entries = graph.worker_entries()
    assert fid("src/repro/harness/resilience.py", "_worker_main") in entries
    worker = graph.worker_reachable()
    assert fid("src/repro/harness/parallel.py", "execute_job") in worker
    assert fid("src/repro/harness/resilience.py",
               "FaultPlan.fire_pre") in worker
    # The parent side of the dispatcher stays out of it.
    assert fid("src/repro/harness/resilience.py",
               "run_jobs_resilient") not in worker


def test_real_leap_registry_is_declared_and_live():
    from repro.sim.wheel import LEAP_QUEUE_METHODS, LEAP_STATE_ATTRS
    assert set(LEAP_STATE_ATTRS) >= {"busy_until", "_sleep_until",
                                     "_next_wake"}
    assert set(LEAP_QUEUE_METHODS) >= {"enqueue", "_schedule"}
    for table in (LEAP_STATE_ATTRS, LEAP_QUEUE_METHODS):
        assert all(isinstance(v, str) and v for v in table.values())


# ----------------------------------------------------------------------
# summarizer facts
def _summarize(source, rel="src/repro/sim/mod.py"):
    return summarize_source(textwrap.dedent(source), rel)


def test_summary_module_level_facts():
    msum = _summarize(
        '''
        from repro.obs import stalls
        from repro.obs.stalls import ISSUED as OK

        NAME = "leaf"
        MUTABLE = []
        ANNOTATED: dict = {}
        TUPLE = (NAME, "lit")

        class Box(Base):
            slots = []

            def __init__(self):
                self.items = []
        ''')
    assert msum["module"] == "repro.sim.mod"
    assert msum["imports"]["stalls"] == "repro.obs.stalls"
    assert msum["imports"]["OK"] == "repro.obs.stalls.ISSUED"
    assert msum["str_constants"]["NAME"] == "leaf"
    assert set(msum["module_mutables"]) == {"MUTABLE", "ANNOTATED"}
    elems = msum["tuple_constants"]["TUPLE"]["elems"]
    assert elems == [["name", "NAME"], ["str", "lit"]]
    box = msum["classes"]["Box"]
    assert box["bases"] == ["Base"]
    assert "slots" in box["mutable_attrs"]
    assert "items" in box["self_assigned"]


def test_summary_function_facts():
    msum = _summarize(
        '''
        def work(pool, jobs, cycle):
            pool.submit(run_one, jobs[0])
            total = 0
            _SEEN.append(total)
            return helper(cycle)

        class Port:
            def go(self, cycle, delay):
                self.busy_until = cycle + delay
                self.wheel.post(cycle + 1)

            def lower(self, cycle):
                self._next_wake = cycle
                self.busy_until = 0
        ''')
    work = msum["functions"]["work"]
    assert work["entry_refs"] == ["run_one"]
    assert any(key == "helper" for key, _ in work["calls"])
    assert any(key == "_SEEN" and kind == "mutcall"
               for key, kind, _l, _c in work["writes"])
    # `total` is a local: never recorded as shared state
    assert not any(key == "total" for key, *_ in work["writes"])
    go = msum["functions"]["Port.go"]
    assert go["posts_wheel"]
    assert [(a, k) for a, _l, _c, k in go["leap_writes"]] \
        == [("busy_until", "other")]
    lower = msum["functions"]["Port.lower"]
    assert not lower["posts_wheel"]
    assert sorted((a, k) for a, _l, _c, k in lower["leap_writes"]) \
        == [("_next_wake", "param"), ("busy_until", "zero")]


def test_summary_drops_mutation_receiver_loads():
    msum = _summarize(
        '''
        CACHE = {}

        def clear():
            CACHE.clear()

        def read():
            return len(CACHE)
        ''')
    clear = msum["functions"]["clear"]
    assert any(key == "CACHE" for key, *_ in clear["writes"])
    # the receiver Name-load of the mutating call must not double as a
    # "read" (it made R001 flag every clear() helper)
    assert not any(key.startswith("CACHE") for key, _ in clear["loads"])
    assert any(key == "CACHE" for key, _ in msum["functions"]["read"]["loads"])


# ----------------------------------------------------------------------
# call graph
def _index_of(sources):
    index = ProjectIndex(FIXROOT)
    for rel, src in sources.items():
        index.add(summarize_source(textwrap.dedent(src), rel))
    return index


def test_callgraph_resolves_methods_and_imports():
    graph = CallGraph(_index_of({
        "src/repro/sim/a.py": '''
            from repro.sim.b import helper

            class Base:
                def shared(self):
                    pass

            class Child(Base):
                def run(self):
                    self.shared()
                    helper()
            ''',
        "src/repro/sim/b.py": '''
            def helper():
                pass
            ''',
    }))
    run = fid("src/repro/sim/a.py", "Child.run")
    assert set(graph.edges[run]) == {
        fid("src/repro/sim/a.py", "Base.shared"),
        fid("src/repro/sim/b.py", "helper"),
    }
    assert run in graph.callers[fid("src/repro/sim/b.py", "helper")]


def test_worker_reachability_closes_over_callees():
    graph = CallGraph(_index_of({
        "src/repro/harness/p.py": '''
            def fan_out(pool, jobs):
                return [pool.submit(entry, j) for j in jobs]

            def entry(job):
                return deeper(job)

            def deeper(job):
                return job

            def parent_only(job):
                return job
            ''',
    }))
    worker = graph.worker_reachable()
    rel = "src/repro/harness/p.py"
    assert fid(rel, "entry") in worker
    assert fid(rel, "deeper") in worker
    assert fid(rel, "parent_only") not in worker
    assert fid(rel, "fan_out") not in worker


# ----------------------------------------------------------------------
# incremental cache
def _write_module(path, body):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(body), encoding="utf-8")


def test_cache_round_trip_hit_and_invalidation(tmp_path):
    mod = tmp_path / "src/repro/sim/m.py"
    _write_module(mod, "X = 'one'\n")
    cache = str(tmp_path / "cache.json")
    root = str(tmp_path)

    index = build_index(root, [str(mod)], cache)
    rel = "src/repro/sim/m.py"
    assert index.summaries[rel]["str_constants"]["X"] == "one"
    with open(cache, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["version"] == INDEX_VERSION
    assert rel in payload["files"]

    # poison the cached summary: an unchanged (mtime, size) file must
    # be served from cache, so the poison is visible...
    payload["files"][rel]["summary"]["str_constants"]["X"] = "poisoned"
    with open(cache, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    index = build_index(root, [str(mod)], cache)
    assert index.summaries[rel]["str_constants"]["X"] == "poisoned"

    # ...until a touch invalidates the entry and re-summarizes
    stat = os.stat(mod)
    os.utime(mod, (stat.st_atime, stat.st_mtime + 10))
    index = build_index(root, [str(mod)], cache)
    assert index.summaries[rel]["str_constants"]["X"] == "one"


def test_cache_version_mismatch_rebuilds(tmp_path):
    mod = tmp_path / "src/repro/sim/m.py"
    _write_module(mod, "X = 'one'\n")
    cache = str(tmp_path / "cache.json")
    root = str(tmp_path)
    build_index(root, [str(mod)], cache)
    with open(cache, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload["version"] = INDEX_VERSION + 999
    payload["files"]["src/repro/sim/m.py"]["summary"][
        "str_constants"]["X"] = "poisoned"
    with open(cache, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    index = build_index(root, [str(mod)], cache)
    assert index.summaries["src/repro/sim/m.py"][
        "str_constants"]["X"] == "one"
    with open(cache, encoding="utf-8") as fh:
        assert json.load(fh)["version"] == INDEX_VERSION


def test_corrupt_cache_is_a_cold_cache(tmp_path):
    mod = tmp_path / "src/repro/sim/m.py"
    _write_module(mod, "X = 'one'\n")
    cache = tmp_path / "cache.json"
    cache.write_text("{not json", encoding="utf-8")
    index = build_index(str(tmp_path), [str(mod)], str(cache))
    assert index.summaries["src/repro/sim/m.py"][
        "str_constants"]["X"] == "one"

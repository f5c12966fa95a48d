"""``repro._digest``: the digests every cache, journal, trace chunk and
artifact is named or checked by.  They must equal ``hashlib``'s, and
the names they produce are pinned as literals, so a change of
implementation can never silently orphan a file written before it."""

import hashlib
import importlib.util
import os
import sys

import pytest

from repro import _digest
from repro.config import MAXWELL_CONFIG, scaled_config
from repro.harness.resilience import journal_key
from repro.harness.runner import ExperimentRunner
from repro.workloads.profiles import get_profile
from repro.workloads.trace import get_trace

INPUTS = {"empty": b"", "ascii": b"repro campaign bp,cd --schemes ws",
          "1MiB": bytes(range(256)) * 4096}


@pytest.mark.parametrize("name", ["md5", "sha1", "sha256"])
@pytest.mark.parametrize("data", INPUTS.values(), ids=INPUTS.keys())
def test_each_digest_equals_hashlibs(name, data):
    assert getattr(_digest, name)(data).hexdigest() \
        == hashlib.new(name, data).hexdigest()


def test_built_in_modules_when_the_interpreter_has_them():
    """3.12+ takes ``_sha2``, 3.10-3.11 ``_sha256``; ``hashlib`` only
    where the interpreter was built without them."""
    sha256 = "_sha2" if sys.version_info >= (3, 12) else "_sha256"
    names = ("_md5", "_sha1", sha256)
    if any(importlib.util.find_spec(m) is None for m in names):
        pytest.skip("interpreter built without CPython's hash modules")
    assert (_digest.md5.__module__, _digest.sha1.__module__,
            _digest.sha256.__module__) == names


def test_config_fingerprints_are_pinned():
    assert _digest.config_fingerprint(scaled_config()) == "6700691956aa85a3"
    assert _digest.config_fingerprint(MAXWELL_CONFIG) == "e97551e30a464ab1"


def test_cache_and_journal_names_are_pinned(tmp_path):
    runner = ExperimentRunner(cache_dir=str(tmp_path))
    assert journal_key(runner) == "d869eaf9f1f7cda8"
    path = runner._disk_path(runner._iso_key("bp", 5, 8000))
    assert os.path.basename(path) \
        == "iso-3963916046f02c2a773349a09e3d09c5.json"


def test_trace_digests_are_pinned():
    assert get_trace(get_profile("dc"), 0).digest == "a72434753ee46af8ffe9"
    assert get_trace(get_profile("cd"), 0).digest == "c06c0849f95692509608"

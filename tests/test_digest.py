"""``repro._digest``: the digests every cache, journal and artifact is
named or checked by.  They must equal ``hashlib``'s, and
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

INPUTS = {"empty": b"", "ascii": b"repro campaign bp,cd --schemes ws",
          "1MiB": bytes(range(256)) * 4096}


@pytest.mark.parametrize("name", ["md5", "sha256"])
@pytest.mark.parametrize("data", INPUTS.values(), ids=INPUTS.keys())
def test_each_digest_equals_hashlibs(name, data):
    assert getattr(_digest, name)(data).hexdigest() \
        == hashlib.new(name, data).hexdigest()


def test_built_in_modules_when_the_interpreter_has_them():
    """3.12+ takes ``_sha2``, 3.10-3.11 ``_sha256``; ``hashlib`` only
    where the interpreter was built without them."""
    sha256 = "_sha2" if sys.version_info >= (3, 12) else "_sha256"
    names = ("_md5", sha256)
    if any(importlib.util.find_spec(m) is None for m in names):
        pytest.skip("interpreter built without CPython's hash modules")
    assert (_digest.md5.__module__, _digest.sha256.__module__) == names


def test_config_fingerprints_are_pinned():
    assert _digest.config_fingerprint(scaled_config()) == "24ae0ea5944049d7"
    assert _digest.config_fingerprint(MAXWELL_CONFIG) == "8b32731f71c0449b"


def test_cache_and_journal_names_are_pinned(tmp_path):
    runner = ExperimentRunner(cache_dir=str(tmp_path))
    assert journal_key(runner) == "edc5d753ce7cad6b"
    path = runner._disk_path(runner._iso_key("bp", 5, 8000))
    assert os.path.basename(path) \
        == "iso-436ed87b3f3a111ba6c8f1381ba4eed1.json"


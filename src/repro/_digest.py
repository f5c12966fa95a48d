"""The digests ``repro`` names its files and records by, without OpenSSL.

Importing ``hashlib`` loads ``_hashlib`` and with it OpenSSL's
``libcrypto`` (several MB resident, a few ms) for three
non-cryptographic digests: config fingerprints, iso-cache file names
and the journal's integrity check.  CPython ships the same algorithms
as small built-in modules, and its own ``random.py`` takes the lean
module first for the same reason.  So does this module;
``hashlib`` is the fallback only on an interpreter built without them.
The digests are byte-identical either way: no file or record format
depends on which implementation computed it.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict

try:
    from _md5 import md5
    if sys.version_info >= (3, 12):
        from _sha2 import sha256
    else:
        from _sha256 import sha256
except ImportError:  # an interpreter built without the built-in modules
    from hashlib import md5, sha256


def config_fingerprint(config) -> str:
    """Stable short fingerprint of a (dataclass) GPU config: it keys
    the iso cache and the journal, and ledger artifacts record it."""
    blob = json.dumps(asdict(config), sort_keys=True, default=str)
    return md5(blob.encode()).hexdigest()[:16]

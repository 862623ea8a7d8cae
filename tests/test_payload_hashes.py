"""The fixed runs of ``payload_hashes.py`` reproduce ``payload_hashes.json``.

The bytes depend on the numpy version, on the SIMD paths numpy dispatches on
the CPU and on OpenBLAS's kernel, so elsewhere than where the file was made
the test skips and says why.
"""

import json

import pytest

import payload_hashes


def test_payload_hashes_match_the_committed_table():
    expected = json.loads(payload_hashes.EXPECTED.read_text())
    here = payload_hashes.environment()
    if here != expected["environment"]:
        differ = sorted(k for k in here if here[k] != expected["environment"].get(k))
        pytest.skip(f"payload_hashes.json was made elsewhere (differs in: {', '.join(differ)})")
    got = payload_hashes.payload_hashes()
    changed = {k: (v, got.get(k)) for k, v in expected["hashes"].items() if got.get(k) != v}
    assert not changed, f"expected -> got: {changed}"
    assert got.keys() == expected["hashes"].keys()

"""Print the payload hashes of a fixed set of runs, one ``name hash`` per line.

    PYTHONPATH=src python tests/payload_hashes.py            # the table
    PYTHONPATH=src python tests/payload_hashes.py --write    # also rewrite payload_hashes.json

``--write`` also prints ``name old -> new`` for each row it changes, and
``name old -> (removed)`` for each row it drops.  The set: 32 ``run_link``
payloads (4 channel families x fast/slow profile x interpolating/raw
receiver x CSNR 0 dB/inf, seed 1, 2 s, 30 levels, and ``median_order`` 100
on the slow profile), plus ``reproduce`` fig4, fig6a (fast AWGN) and fig7b
(JTC outdoor multipath) at levels [5, 10] and 2 s, and fig6b (slow AWGN) at
levels [5, 10] and 2.5 s, since its order-200 median needs more than 200
slow blocks.  A run's hash is the first 16 hex digits of the SHA-256 of its
sorted-key ``report_to_dict`` JSON without ``wall_time_s``; a figure's is
that of its CSV file.  ``payload_hashes.json`` holds the expected table and the
environment it was made in, since the bytes depend on the numpy version, on
the SIMD paths numpy dispatches on the CPU and on the kernel OpenBLAS picks
for it (its matrix products: the GSR filter, the Jakes gains, the modulator
and the receiver's direct bins).  A change that names the stream it alters
rewrites the file, so its diff lists the payloads that changed.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import pathlib
import platform
import sys
import tempfile

import numpy as np

from ajscclink.channel import FAMILIES
from ajscclink.harness import AnalysisSettings, RunConfig, report_to_dict, reproduce, run_link

EXPECTED = pathlib.Path(__file__).with_name("payload_hashes.json")
# (experiment, levels, duration in s) of each figure row.
FIGURES = (
    ("fig4", None, 2.0),
    ("fig6a", [5, 10], 2.0),
    ("fig6b", [5, 10], 2.5),
    ("fig7b", [5, 10], 2.0),
)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def run_hash(config: RunConfig) -> str:
    payload = report_to_dict(run_link(config))
    del payload["wall_time_s"]
    return digest(json.dumps(payload, sort_keys=True).encode())


def run_configs() -> dict[str, RunConfig]:
    configs = {}
    for family in FAMILIES:
        for profile in ("fast", "slow"):
            for interpolate in (True, False):
                for csnr_db in (0.0, float("inf")):
                    name = "{} {} {} {}".format(
                        "interp" if interpolate else "raw", family, profile, csnr_db
                    )
                    configs[name] = RunConfig(
                        levels=30,
                        duration=2.0,
                        seed=1,
                        profile=profile,
                        channel_family=family,
                        csnr_db=csnr_db,
                        interpolate=interpolate,
                        analysis=AnalysisSettings(median_order=100 if profile == "slow" else 200),
                    )
    return configs


def figure_hashes() -> dict[str, str]:
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for experiment, levels, duration in FIGURES:
            (path,) = reproduce(experiment, tmp, seed=1, duration=duration, levels=levels)
            hashes[experiment] = digest(pathlib.Path(path).read_bytes())
    return hashes


def blas_core() -> str:
    """The CPU kernel OpenBLAS runs here (for example SkylakeX), read from
    the copy bundled with numpy; "unknown" where none is found.  OPENBLAS_CORETYPE
    overrides it, and the bytes of the matrix products depend on it."""
    libs = pathlib.Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename"):
            corename = getattr(lib, name, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return "unknown"


def environment() -> dict[str, str]:
    """Where the bytes were made: numpy (the run path's only numeric
    library), the CPU features it can dispatch on and OpenBLAS's kernel."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__ as features
    return {
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_features": " ".join(sorted(k for k, v in features.items() if v)),
        "openblas_core": blas_core(),
    }


def payload_hashes() -> dict[str, str]:
    hashes = {name: run_hash(config) for name, config in run_configs().items()}
    hashes.update(figure_hashes())
    return hashes


def main(argv: list[str]) -> int:
    hashes = payload_hashes()
    for name, value in hashes.items():
        print(f"{name:40s} {value}")
    if "--write" in argv:
        old = json.loads(EXPECTED.read_text())["hashes"] if EXPECTED.exists() else {}
        for name, value in hashes.items():
            if old.get(name) != value:
                print(f"{name} {old.get(name)} -> {value}")
        for name in old.keys() - hashes.keys():
            print(f"{name} {old[name]} -> (removed)")
        doc = {"environment": environment(), "hashes": hashes}
        EXPECTED.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

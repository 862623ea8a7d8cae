"""Tests of the benchmark's own tracer and output check.

    python3 -m pytest -q linkbench
"""

import dataclasses
import math
import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pytest  # noqa: E402

import workloads  # noqa: E402
from ajscclink import harness  # noqa: E402
from ajscclink.analysis import MsePair, PulseEvent  # noqa: E402
from tracer import LAYER_OF, Tracer, TracerError  # noqa: E402

# Long enough that K-S is required (about 20 pulses at 10 per second).
SMALL = harness.RunConfig(duration=2.0, seed=3, channel_family="awgn", csnr_db=10.0)


@pytest.fixture(scope="module")
def small_report():
    return harness.run_link(SMALL)


class _Fixed:
    """A one-link workload whose operation returns prepared reports."""

    def __init__(self, *outcomes):
        self.outcomes = outcomes

    def op_config(self, seed, index):
        return index

    def run_op(self, index):
        outcome = self.outcomes[index]
        if isinstance(outcome, Exception):
            raise outcome
        return [outcome]

    def links_per_op(self):
        return 1


def _band_around(report):
    return {report.config.levels: (0.5 * report.mse.total, 2.0 * report.mse.total)}


def test_tracer_covers_run_link_and_leaves_results_unchanged(small_report):
    original = harness.run_link
    with Tracer(harness) as tracer:
        assert harness.run_link is not original
        traced = harness.run_link(SMALL)
    assert harness.run_link is original
    assert workloads.payload_bytes(traced) == workloads.payload_bytes(small_report)

    metrics = tracer.summary()
    assert metrics["harness.run_link.calls"] == 1
    assert metrics["harness.stage_coverage"] >= 0.95
    names = {s.name for s in tracer.spans}
    assert {f"{layer}.{fn}" for fn, layer in LAYER_OF.items()} | {"channel.process"} <= names
    parent = tracer.spans[0]
    assert parent.name == "harness.run_link" and parent.parent is None
    assert all(s.parent == 0 and s.run_id == parent.run_id for s in tracer.spans[1:])
    n_blocks = small_report.n_blocks
    assert metrics["modem.modulate.samples"] == n_blocks * 8192
    assert metrics["modem.fft_points"] == n_blocks * 2 * 8192
    assert metrics["channel.noise_normals"] == 2 * n_blocks * 8192
    assert 0.0 <= metrics["codec.line_error_frac"] < 0.05


def test_self_time_subtracts_children():
    tracer = Tracer(harness)
    tracer.spans = [
        types.SimpleNamespace(start=0.0, end=10.0, parent=None),
        types.SimpleNamespace(start=1.0, end=4.0, parent=0),
        types.SimpleNamespace(start=3.0, end=5.0, parent=0),
        types.SimpleNamespace(start=6.0, end=7.0, parent=0),
    ]
    assert tracer.self_times() == [5.0, 3.0, 2.0, 1.0]


def test_missing_wrapped_name_raises_and_patches_nothing():
    fake = types.ModuleType("fake_harness")
    for name in ["run_link", *LAYER_OF]:
        setattr(fake, name, lambda *a, **k: None)
    del fake.demodulate_stream
    before = dict(vars(fake))
    with pytest.raises(TracerError, match="demodulate_stream"):
        Tracer(fake).install()
    assert dict(vars(fake)) == before


def test_channel_without_process_raises():
    fake = types.ModuleType("fake_harness")
    for name in ["run_link", *LAYER_OF]:
        setattr(fake, name, lambda *a, **k: None)
    fake.make_channel = lambda *a, **k: object()
    with Tracer(fake):
        with pytest.raises(TracerError, match="process"):
            fake.make_channel()


def test_good_run_passes_check(small_report):
    assert len(small_report.source_peaks) >= workloads.KS_MIN_SOURCE_PEAKS
    assert workloads.check_report(small_report, _band_around(small_report)) is None


@pytest.mark.parametrize(
    "change, reason",
    [
        (dict(mse=MsePair(math.nan, 0.1)), "non-finite MSE"),
        (dict(ks=None), "K-S"),
        (dict(source_peaks=[PulseEvent(0.0, math.nan)]), "serialize"),
    ],
)
def test_broken_run_counts_as_failed_op(small_report, change, reason):
    bad = dataclasses.replace(small_report, **change)
    sec = workloads.run_section(
        _Fixed(small_report, bad, RuntimeError("boom")), 0, _band_around(small_report), ops=3
    )
    assert (sec.attempted, sec.failed) == (3, 2)
    assert reason in sec.failures[0] and "boom" in sec.failures[1]
    assert len(sec.walls) == 1


def test_traced_section_pairs_each_op_with_an_untraced_twin(small_report):
    sec = workloads.run_section(
        _Fixed(small_report, small_report),
        0,
        _band_around(small_report),
        ops=2,
        tracer=Tracer(harness),
    )
    assert (sec.attempted, sec.failed) == (4, 0)
    assert len(sec.walls) == len(sec.traced_walls) == len(sec.traced_cpu) == 2


def test_traced_payload_that_differs_counts_as_failed_op(small_report):
    shifted = dataclasses.replace(
        small_report, mse=MsePair(small_report.mse.mse_x1 * 1.01, small_report.mse.mse_x2)
    )
    outcomes = iter([shifted, small_report])
    workload = _Fixed()
    workload.run_op = lambda index: [next(outcomes)]
    sec = workloads.run_section(
        workload, 0, _band_around(small_report), ops=1, tracer=Tracer(harness)
    )
    assert (sec.attempted, sec.failed) == (2, 1)
    assert "traced payload differs" in sec.failures[0]


def test_mse_outside_band_fails(small_report):
    far = dataclasses.replace(small_report, mse=MsePair(1.0, 1.0))
    assert "outside" in workloads.check_report(far, _band_around(small_report))


def test_bands_cover_every_workload_level():
    bands = workloads.load_bands()
    for name, w in workloads.WORKLOADS.items():
        levels = w.sweep or (w.config["levels"],)
        assert set(bands[name]) == set(levels)
        assert all(0 < lo < hi for lo, hi in bands[name].values())

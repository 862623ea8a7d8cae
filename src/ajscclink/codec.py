"""Joint analog mapping of two sources onto one encoded voltage.

The mapping scans the (x1, x2) plane along L parallel lines: x2 selects the
line (quantized with spacing delta = x2_max / L) and x1 sets the position
along it, with the scan direction alternating between adjacent lines so the
path is continuous.  Decoding inverts the scan with modulo arithmetic and
reconstructs x2 at the line midpoint.

All operations are vectorized: scalars in, scalar out; arrays in, arrays
out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, is_int, is_real


@dataclass(frozen=True)
class AjsccParams:
    """Mapping geometry: level count, input full-scales, per-level span.

    level_height (the encoded-output span contributed by one level) defaults
    to 1 / levels so the encoded full scale is 1.0 regardless of L.
    design1_bias emulates the per-stage offset of the fixed-11-level
    hardware variant.  Only ``encode_design1`` reads it, for acceptance
    criterion c9's filter check; ``encode`` and every run path ignore it.
    """

    levels: int
    x1_max: float = 2.25
    x2_max: float = 3.0
    level_height: float | None = None
    design1_bias: float = 0.0

    def __post_init__(self):
        if not (is_int(self.levels) and self.levels >= 2):
            raise ConfigError(f"levels must be an integer >= 2, got {self.levels!r}")
        if self.level_height is None:
            object.__setattr__(self, "level_height", 1.0 / self.levels)
        for name in ("x1_max", "x2_max", "level_height"):
            v = getattr(self, name)
            if not (is_real(v) and math.isfinite(v) and v > 0):
                raise ConfigError(f"{name} must be finite and > 0, got {v!r}")

    @property
    def level_spacing(self) -> float:
        """x2-axis distance between adjacent lines (delta)."""
        return self.x2_max / self.levels

    @property
    def full_scale(self) -> float:
        """Encoded output range: levels * level_height."""
        return self.levels * self.level_height


def _level_index(x: np.ndarray, spacing: float, levels: int) -> np.ndarray:
    """floor(x / spacing) on half-open intervals, robust at exact multiples.

    Guards against x/spacing rounding across an integer so that k*spacing
    lands in level k; the top edge clamps into the last level.
    """
    q = np.floor(x / spacing).astype(np.int64)
    q += ((q + 1) * spacing <= x).astype(np.int64)
    q -= (q * spacing > x).astype(np.int64)
    return np.clip(q, 0, levels - 1)


def encode(x1, x2, p: AjsccParams):
    """Map a pair of source voltages to one encoded voltage.

    Inputs clamp to [0, x1_max] x [0, x2_max] (analog saturation).  On
    even-numbered lines the output increases with x1, on odd lines it
    decreases, so the scan path is continuous and injective.
    """
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    if not (np.all(np.isfinite(x1)) and np.all(np.isfinite(x2))):
        raise ValueError("encode inputs must be finite")
    x1c = np.clip(x1, 0.0, p.x1_max)
    x2c = np.clip(x2, 0.0, p.x2_max)
    q = _level_index(x2c, p.level_spacing, p.levels)
    g = p.level_height * x1c / p.x1_max
    out = q * p.level_height + np.where(q % 2 == 0, g, p.level_height - g)
    return out if out.ndim else float(out)


def encode_design1(x1, x2, p: AjsccParams):
    """Fixed-11-level hardware variant with a per-stage bias error.

    Identical to encode plus design1_bias added once per active stage, so a
    point on line q carries an extra q * design1_bias.  With zero bias this
    reduces to encode exactly.  It is off every run path: it exists for
    acceptance criterion c9, whose threshold and median filters must remove
    the bias floor and isolated spikes, and for its own tests.
    """
    if p.levels != 11:
        raise ConfigError(f"the fixed-stage variant requires levels=11, got {p.levels}")
    x2c = np.clip(np.asarray(x2, dtype=np.float64), 0.0, p.x2_max)
    q = _level_index(x2c, p.level_spacing, p.levels)
    out = np.asarray(encode(x1, x2, p)) + q * p.design1_bias
    return out if out.ndim else float(out)


def decode(s, p: AjsccParams):
    """Invert the encoded voltage to (x1_hat, x2_hat).

    s clamps into [0, full_scale]; the line index comes from modulo
    arithmetic on the level height, x1 from the in-line remainder (direction
    depends on line parity), and x2 is reconstructed at the line midpoint.
    """
    s = np.asarray(s, dtype=np.float64)
    if not np.all(np.isfinite(s)):
        raise ValueError("decode input must be finite")
    sc = np.clip(s, 0.0, p.full_scale)
    q = _level_index(sc, p.level_height, p.levels)
    r = sc - q * p.level_height
    x1_hat = np.where(
        q % 2 == 0,
        p.x1_max * r / p.level_height,
        p.x1_max * (p.level_height - r) / p.level_height,
    )
    x1_hat = np.clip(x1_hat, 0.0, p.x1_max)
    x2_hat = (q + 0.5) * p.level_spacing
    if x1_hat.ndim:
        return x1_hat, x2_hat
    return float(x1_hat), float(x2_hat)


def staircase(p: AjsccParams, x1_fixed: float, n_points: int) -> np.ndarray:
    """Sweep x2 over [0, x2_max] at fixed x1.

    Returns an (n_points, 2) array of (x2, encoded) pairs; with x1 at
    mid-scale this traces the L-step staircase of the mapping.
    """
    if n_points < 2 * p.levels:
        raise ConfigError(f"n_points must be >= 2 * levels = {2 * p.levels}")
    if not np.isfinite(x1_fixed):
        raise ConfigError(f"x1 must be finite, got {x1_fixed!r}")
    x2 = np.linspace(0.0, p.x2_max, n_points)
    enc = encode(np.full(n_points, float(x1_fixed)), x2, p)
    return np.column_stack([x2, enc])

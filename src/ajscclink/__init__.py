"""Link-level simulator and codec for joint analog coding of two biosignals."""

__version__ = "0.1.0"

from .codec import AjsccParams, decode, encode, encode_design1, staircase
from .errors import ConfigError, DemodError, StageError
from .modem import ModemConfig, demodulate_stream, fast_profile, modulate, slow_profile
from .sources import SourceTrace

__all__ = [
    "AjsccParams",
    "ConfigError",
    "DemodError",
    "ModemConfig",
    "SourceTrace",
    "StageError",
    "decode",
    "demodulate_stream",
    "encode",
    "encode_design1",
    "fast_profile",
    "modulate",
    "slow_profile",
    "staircase",
    "__version__",
]

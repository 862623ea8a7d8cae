"""Exception types shared across the simulator, and the config boundary's
integer and real-number checks."""

import numbers


def is_int(x) -> bool:
    """An integer that is not a bool: a JSON true is no count or seed."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def is_real(x) -> bool:
    """A real number that is not a bool: a JSON true is no duration or level."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


class ConfigError(ValueError):
    """Invalid configuration: bad parameter values, ranges, or files."""


class DemodError(RuntimeError):
    """Receiver could not recover a frequency peak from a block."""


class StageError(RuntimeError):
    """A pipeline stage failed; message carries the stage name and context."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage '{stage}': {message}")
        self.stage = stage

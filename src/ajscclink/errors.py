"""Exception types shared across the simulator, and the config boundary's
integer and real-number checks and its reader of the files a config names."""

import numbers


def is_int(x) -> bool:
    """An integer that is not a bool: a JSON true is no count or seed."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def is_real(x) -> bool:
    """A real number that is not a bool: a JSON true is no duration or level."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


class ConfigError(ValueError):
    """Invalid configuration: bad parameter values, ranges, or files."""


def read_text(path, what: str) -> str:
    """The UTF-8 text of a file that a config names, whose role what names
    (such as "config file").  A missing file, a directory, an unreadable
    file, a path with a NUL byte and text that is not UTF-8 are each a
    ConfigError that names the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError as exc:
        raise ConfigError(f"{what} not found: {path}") from exc
    except (IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror}") from exc
    except ValueError as exc:  # text that is not UTF-8, or a NUL byte in the path
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


class DemodError(RuntimeError):
    """Receiver could not recover a frequency peak from a block."""


class StageError(RuntimeError):
    """A pipeline stage failed; message carries the stage name and context.

    args holds (stage, message), so the error pickles: a run that fails in a
    worker process raises the same StageError in the parent."""

    def __init__(self, stage: str, message: str):
        super().__init__(stage, message)
        self.stage = stage
        self.message = message

    def __str__(self) -> str:
        return f"stage '{self.stage}': {self.message}"

"""Exception types shared across the package.

One class per exit code of the command line: ConfigError (2) for a bad
configuration, RecordError (3) for a malformed input record, and their
base StanceGraphError (5), raised directly, for every other domain error.
Every text input is read through open_text, so bytes that are not UTF-8
raise one of them too.
"""

import contextlib
import contextvars
import logging
import re

LOGGER = logging.getLogger(__name__)

# What open_text's decoding ("surrogateescape") puts in place of each byte
# that is not UTF-8; decoding valid UTF-8 never gives one of these.
_UNDECODABLE = re.compile("[\udc80-\udcff]")


class StanceGraphError(Exception):
    """A domain error, and the base class of the package's others.

    Carries the 1-based line number of the offending line when known.
    """

    exit_code = 5

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class ConfigError(StanceGraphError):
    """A configuration value or combination of values is invalid."""

    exit_code = 2


class RecordError(StanceGraphError):
    """An input record could not be parsed."""

    exit_code = 3


# The open file whose line a reader holds: open_text sets it as it gives each
# line and clears it at the end of the file, so that an error for that line,
# raised or skipped, names the file.
_READING = contextvars.ContextVar("_READING", default=None)


def _named(exc: StanceGraphError) -> StanceGraphError:
    """exc as '<path>: line N: message', of the same class, when it is an
    error for a line of the file being read; else exc itself."""
    fh = _READING.get()
    if fh is None or exc.line_no is None:
        return exc
    return type(exc)(f"{fh.name}: {exc}")


def skip_line(exc: StanceGraphError) -> None:
    """Log that the line a reader refused with exc is skipped; a reader
    that is not strict calls this instead of raising exc."""
    LOGGER.warning("skipping %s", _named(exc))


@contextlib.contextmanager
def open_text(path, error=RecordError, *, strict: bool):
    """Open the UTF-8 text file at `path` and give its lines, as open()
    splits them in text mode. A line holding bytes that are not UTF-8
    raises error(message), the message naming the file and the line; when
    not `strict`, it is logged and given as an empty line instead, which
    every reader skips. An error for a line, 'line N: message', that the
    reader raises or skips while it reads them (after their first and
    before their end) reads '<path>: line N: message'; of several files
    held open at once, only the one being read names itself."""

    def checked(fh):
        for line_no, line in enumerate(fh, 1):
            if not line.isascii() and _UNDECODABLE.search(line):
                exc = error(f"{path}: line {line_no} is not UTF-8 text")
                if strict:
                    raise exc
                LOGGER.warning("skipping %s", exc)
                line = ""
            _READING.set(fh)
            yield line
        _READING.set(None)

    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        try:
            yield checked(fh)
        except StanceGraphError as exc:
            if exc.line_no is None or _READING.get() is not fh:
                raise
            raise _named(exc) from exc
        finally:
            if _READING.get() is fh:
                _READING.set(None)

"""Exception types shared across the package.

Every domain error derives from StanceGraphError so callers can catch one
base class; the CLI maps subclasses to distinct exit codes. Every text
input is read through open_text, so bytes that are not UTF-8 raise one of
them too.
"""

import contextlib
import logging
import re

LOGGER = logging.getLogger(__name__)

# What open_text's decoding ("surrogateescape") puts in place of each byte
# that is not UTF-8; decoding valid UTF-8 never gives one of these.
_UNDECODABLE = re.compile("[\udc80-\udcff]")


class StanceGraphError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(StanceGraphError):
    """A configuration value or combination of values is invalid."""


class RecordError(StanceGraphError):
    """An input record could not be parsed.

    Carries the 1-based line number of the offending record when known.
    """

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class EmptyCorpus(StanceGraphError):
    """No tweets survived parsing or filtering."""


class ShapeError(StanceGraphError):
    """Matrix or vector dimensions do not line up."""


class EmptyChannel(StanceGraphError):
    """A graph channel was requested but has no mass (e.g. all-zero weights)."""


class NumericsError(StanceGraphError):
    """A non-finite value appeared where finite numbers are required."""


class EmptyEligibleSet(StanceGraphError):
    """No users qualify for the requested split."""


class EmptyEvaluation(StanceGraphError):
    """An evaluation was requested over an empty set of predictions."""


class BoundsError(StanceGraphError):
    """A requested size exceeds what the data provides."""


@contextlib.contextmanager
def open_text(path, error=RecordError, *, strict: bool, named: bool = False):
    """Open the UTF-8 text file at `path` and give its lines, as open()
    splits them in text mode. A line holding bytes that are not UTF-8
    raises error(message), the message naming the file and the line; when
    not `strict`, it is logged and given as an empty line instead, which
    every reader skips. With `named`, a RecordError that the reader raises
    for a line, 'line N: message', is raised again as '<path>: line N:
    message'."""

    def checked(fh):
        for line_no, line in enumerate(fh, 1):
            if not line.isascii() and _UNDECODABLE.search(line):
                exc = error(f"{path}: line {line_no} is not UTF-8 text")
                if strict:
                    raise exc
                LOGGER.warning("skipping %s", exc)
                line = ""
            yield line

    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        try:
            yield checked(fh)
        except RecordError as exc:
            if not named or exc.line_no is None:
                raise
            raise RecordError(f"{path}: {exc}") from exc

"""Exception types shared across the package.

One class per exit code of the command line: ConfigError (2) for a bad
configuration, RecordError (3) for a malformed input record, and their
base StanceGraphError (5), raised directly, for every other domain error.
Every text input is read through open_text, so bytes that are not UTF-8
raise one of them too.
"""

import contextlib
import inspect
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


@contextlib.contextmanager
def open_text(path, error=RecordError, *, strict: bool):
    """Open the UTF-8 text file at `path` and give its lines, as open()
    splits them in text mode. A line holding bytes that are not UTF-8
    raises error(message), the message naming the file and the line; when
    not `strict`, it is logged and given as an empty line instead, which
    every reader skips. An error for a line, 'line N: message', that the
    reader raises while it reads them (after their first and before their
    end) is raised again as '<path>: line N: message'; of several files
    held open at once, only the one being read names itself."""

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
        lines = checked(fh)
        try:
            yield lines
        except StanceGraphError as exc:
            if exc.line_no is None or inspect.getgeneratorstate(lines) != inspect.GEN_SUSPENDED:
                raise
            raise type(exc)(f"{path}: {exc}") from exc

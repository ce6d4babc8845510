"""Run a ``zonalpoly`` command line in this process and capture what it writes.

``Runner().invoke(main, args)`` calls ``main(args)`` with stdout and stderr
replaced, and returns a ``Result``: the exit code, stdout alone, both
streams in the order they were written (``output``), and the exception
that ended the run, if any.
"""

import io
import sys


class Result:
    """One run: ``exit_code``, ``stdout``, ``output`` (stdout and stderr in write order) and ``exception``."""

    def __init__(self, exit_code: int, stdout: str, output: str, exception: BaseException | None) -> None:
        self.exit_code, self.stdout, self.output, self.exception = exit_code, stdout, output, exception


class _Stream(io.TextIOBase):
    """A text stream that appends each write to its own list and to one shared by both streams."""

    def __init__(self, own: list, both: list) -> None:
        self.own, self.both = own, both

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self.own.append(text)
        self.both.append(text)
        return len(text)


class Runner:
    def invoke(self, main, args) -> Result:
        """Run ``main(args)``; an exception it raises is caught and kept, with exit code 1.

        A SystemExit gives its code, as a process would end with it.
        """
        stdout, stderr, both = [], [], []
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = _Stream(stdout, both), _Stream(stderr, both)
        exception = None
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            exception = exc if code else None
        except Exception as exc:
            code, exception = 1, exc
        finally:
            sys.stdout, sys.stderr = saved
        return Result(code, "".join(stdout), "".join(both), exception)

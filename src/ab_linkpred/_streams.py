"""Path-or-stream arguments shared by every reader and writer."""

import contextlib
import os


def open_stream(target, mode: str, **kw):
    """Context manager over a path or an open stream.

    A path is opened with ``open(target, mode, **kw)`` and closed on exit; a
    stream is yielded as is and stays open, since its caller owns it.
    """
    if isinstance(target, (str, os.PathLike)):
        return open(target, mode, **kw)
    return contextlib.nullcontext(target)

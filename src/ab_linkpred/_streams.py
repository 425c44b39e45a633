"""Path-or-stream arguments shared by every reader and writer, and the one
place a path is opened: an output path is written to a new file that
replaces it only once the write has finished."""

import contextlib
import os
import stat


def open_stream(target, mode: str, **kw):
    """Context manager over a path or an open stream.

    A path is opened with ``open(target, mode, **kw)`` and closed on exit; a
    stream is yielded as is and stays open, since its caller owns it. A path
    opened to write ("w" in mode) is written atomically where it can be
    (see _replacing), so a write cut short, by an error or Ctrl-C, leaves
    the previous file, or none, and never a truncated one.
    """
    if not isinstance(target, (str, os.PathLike)):
        return contextlib.nullcontext(target)
    if "w" in mode:
        return _replacing(target, mode, kw)
    return open(target, mode, **kw)


def _create_beside(path):
    """(descriptor, name, target, bits): a new, empty file next to the file
    path resolves to, created as open() creates one (mode 0o666 less the
    umask), and the permission bits of the regular file it is to replace
    (None when there is none), which it takes before the replace.

    None where path is to be opened in place: where it exists and is not a
    regular file this process may write (a FIFO, a terminal, a directory),
    or names a file through /dev or /proc (/dev/stdout, /dev/fd/3), which
    may be open in another process or in this one, so a replaced file would
    be left behind; and where no file can be created beside it.
    """
    try:
        status = os.stat(path)
    except FileNotFoundError:
        status = None
    except OSError:
        return None
    if status is not None and (not (stat.S_ISREG(status.st_mode) and os.access(path, os.W_OK))
                               or os.path.abspath(path).startswith(("/dev/", "/proc/"))):
        return None
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    temporary = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
    try:
        fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError:
        return None
    return fd, temporary, target, status and stat.S_IMODE(status.st_mode)


@contextlib.contextmanager
def _replacing(path, mode: str, kw: dict):
    """path opened to write: a new file beside its target (_create_beside),
    which os.replace moves over the target once the block has ended and the
    file is closed. Any exception, KeyboardInterrupt included, unlinks the
    new file instead and leaves the target as it was. Where no such file
    can be made, path is opened in place, so open() reports any error it
    always did."""
    created = _create_beside(path)
    if created is None:
        with open(path, mode, **kw) as stream:
            yield stream
        return
    fd, temporary, target, bits = created
    try:
        with open(fd, mode, **kw) as stream:
            yield stream
        if bits is not None:
            os.chmod(temporary, bits)
        os.replace(temporary, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temporary)
        raise

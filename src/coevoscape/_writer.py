"""Write a file and read it back: the one write-and-verify step behind every
output file.

Run as a script by path, this module is the writer process that a snapshot
batch of `coevoscape measures` hands its files to:

    python -I -S path/to/_writer.py

It imports only the standard library (not the package, so not numpy). It
reads pickled `(path, data, records)` frames from stdin and passes each to
`write_file`, until stdin closes. At the first failure it writes the error
to its stdout, which its parent reads through a pipe, and exits 1, so the
parent's next send finds the pipe closed.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import sys


def write_file(path, data: bytes, records: tuple[tuple[str, ...], int] | None = None) -> None:
    """Write `data` to `path`, creating its directory if missing, and read the
    file back: it must equal `data`. `records = (keys, n)` marks a JSON
    mirror, which must also parse to a list of n objects keyed by `keys` in
    that order."""
    try:
        fp = open(path, "wb")
    except FileNotFoundError:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fp = open(path, "wb")
    with fp:
        fp.write(data)
    with open(path, "rb") as fp:
        back = fp.read()
    if back != data:
        raise RuntimeError(f"{path}: read back {len(back)} bytes that differ "
                           f"from the {len(data)} written")
    if records is None:
        return
    keys, n = records
    try:
        parsed = json.loads(back)
    except ValueError as e:
        raise RuntimeError(f"{path}: unreadable after write: {e}") from e
    if not (isinstance(parsed, list) and len(parsed) == n and set(map(type, parsed)) <= {dict}
            and list(map(tuple, parsed)).count(keys) == n):
        raise RuntimeError(f"{path}: expected {n} records keyed by {keys}")


def serve(frames, report) -> int:
    """`write_file` each frame pickled on `frames` until it ends: 0, or 1
    after writing the first failure to `report`."""
    try:
        while True:
            try:
                path, data, records = pickle.load(frames)
            except EOFError:
                return 0
            write_file(path, data, records)
    except (OSError, RuntimeError, pickle.UnpicklingError) as e:
        report.write(f"{e}\n")
        return 1


if __name__ == "__main__":
    # a terminal's Ctrl-C reaches the parent too: it closes the pipe, and
    # this process ends there
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    sys.exit(serve(sys.stdin.buffer, sys.stdout))

"""Helpers shared by the test modules."""

from __future__ import annotations

import os

import pytest


def assert_no_child_process():
    """Every process the code under test started has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

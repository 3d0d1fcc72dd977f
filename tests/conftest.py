"""Helpers shared by the test modules."""

from __future__ import annotations

import os

import pytest

from coevoscape import experiment


def assert_no_child_process():
    """Every process the code under test started has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def two_cpus(monkeypatch):
    """`run_batch` sees two usable CPUs, so `workers=2`, and any snapshot
    batch, forks on any runner."""
    monkeypatch.setattr(experiment, "_usable_cpus", lambda: 2)


@pytest.fixture
def one_cpu(monkeypatch):
    """`run_batch` sees one usable CPU, so every run is measured, and its
    hook called, in this process."""
    monkeypatch.setattr(experiment, "_usable_cpus", lambda: 1)

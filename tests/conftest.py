"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest


@pytest.fixture
def pool_from_the_first_trial(monkeypatch):
    """A batch with more than one worker hands every trial to its pool,
    instead of first running trials in process for harness._IN_PROCESS_S."""
    monkeypatch.setattr("partition_ais.harness._IN_PROCESS_S", 0)

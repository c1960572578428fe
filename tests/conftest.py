from __future__ import annotations

import os

import pytest

from evdispatch.analysis import generate_price_set
from evdispatch.domain import Scenario, example_scenario_path, load_scenario


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child of this process running or unreaped."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    unreaped = []
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:  # no children at all
            break
        if pid == 0:
            pytest.fail("the test left a child process running")
        unreaped.append(pid)
    if unreaped:
        pytest.fail(f"the test left child processes unreaped: {unreaped}")


@pytest.fixture(scope="session")
def example_scenario() -> Scenario:
    return load_scenario(example_scenario_path())


@pytest.fixture(scope="session")
def high_prices():
    return generate_price_set("high", seed=1)


@pytest.fixture(scope="session")
def example_with_high(example_scenario, high_prices) -> Scenario:
    return example_scenario.with_prices(high_prices)

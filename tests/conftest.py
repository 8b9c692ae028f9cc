"""Fixtures shared by every test module."""

import gc

import pytest

# `pytester` runs a pytest session inside a test
pytest_plugins = ["pytester"]


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """Fail a test that ends with the cyclic garbage collector disabled,
    and enable it again, so that a leaked `gc.disable()` cannot skew the
    tests that run after it."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")

import tracemalloc

import pytest

from laughlin import hamiltonian
from laughlin.expansion import expand_all
from laughlin.renewal import build_model


@pytest.fixture(scope="session")
def tables_p3():
    return expand_all(3, 8)


@pytest.fixture(scope="session")
def tables_p2():
    return expand_all(2, 8)


@pytest.fixture(scope="session")
def tables_p1():
    return expand_all(1, 10)


@pytest.fixture(scope="session")
def model_p3_g1(tables_p3):
    return build_model(3, 8, 1.0, tables=tables_p3)


@pytest.fixture(scope="session")
def model_p2_g1(tables_p2):
    return build_model(2, 8, 1.0, tables=tables_p2)


@pytest.fixture
def full_form_factor(monkeypatch):
    """Calling it makes the form factor keep every component n < p, not
    only those of p's parity, for the rest of the test."""
    from test_reference import reference_components

    def full(params, sites):
        return {d: reference_components(params.p, d * params.gamma,
                                        range(params.p))
                for d in range(1 - sites, sites)}

    def use():
        monkeypatch.setattr(hamiltonian, "_components", full)
    return use


def traced_peak_mb(fn, *args) -> float:
    """Peak MB of the allocations tracemalloc sees during one call of
    fn(*args), NumPy's arrays among them."""
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6

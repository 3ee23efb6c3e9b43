"""Session-wide fixtures shared across test packages."""

import pytest


@pytest.fixture(scope="session")
def ring_sweep():
    """The default ring-oscillator sweep behind Table 5.1, simulated
    once per test session (it is the suite's costliest computation)."""
    from repro.circuit.ring_oscillator import sweep_ring_oscillator

    return sweep_ring_oscillator()


@pytest.fixture(scope="session")
def table_5_1_result(ring_sweep):
    """Table 5.1 at default arguments, tabulated from :func:`ring_sweep`."""
    from repro.experiments import table_5_1

    return table_5_1.tabulate(ring_sweep)

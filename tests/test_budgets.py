"""Every work budget compares an exact estimate with its constant through
one rule, patterns.check_budget, so a library call is refused with the
budget's ValueError at any size of argument, and at once."""

import time
from fractions import Fraction

import numpy as np
import pytest

from gtpatterns import dynamics, kernels, spectra
from gtpatterns.patterns import check_budget

HALF = Fraction(1, 2)
HUGE = 10**400  # past the largest float, 1.8e308

CALLS = {
    "check_intertwining-k": lambda: kernels.check_intertwining(HALF, HUGE, 3),
    "check_intertwining-bound": lambda: kernels.check_intertwining(HALF, 4, HUGE),
    "check_desintegration-bound": lambda: kernels.check_desintegration(HALF, HUGE),
    "states_in_box-radius": lambda: kernels.states_in_box(3, HUGE),
    "states_in_box-k": lambda: kernels.states_in_box(HUGE, 3),
    "n_step_law-n": lambda: kernels.n_step_law(HALF, 2, HUGE, 5),
    "check_entry_budget-coords": lambda: kernels.check_entry_budget(HALF, 3, (HUGE, 1), "--x"),
    "check_entry_budget-k": lambda: kernels.check_entry_budget(HALF, HUGE, (1,), "--d"),
    "DiscreteSimulation-paths": lambda: dynamics.DiscreteSimulation(0.5, 2, HUGE, 0),
    "DiscreteSimulation.run-steps": lambda: dynamics.DiscreteSimulation(0.5, 2, 10, 0).run(HUGE),
    "ctmc_simulate-paths": lambda: dynamics.ctmc_simulate(2, 1.0, HUGE, 0),
    "ctmc_simulate-k": lambda: dynamics.ctmc_simulate(HUGE, 1.0, 1, 0),
    "simulate_eigen_chain-paths": lambda: spectra.simulate_eigen_chain(4, 2, HUGE, 0),
    "simulate_eigen_chain-d": lambda: spectra.simulate_eigen_chain(HUGE, 2, 1, 0),
    # numpy path counts, whose own int64 arithmetic would wrap
    "check_chain_budget-int64": lambda: spectra.check_chain_budget(4, 2, np.int64(2**62), "x"),
    "check_discrete_budget-int64": lambda: dynamics.check_discrete_budget(
        1, 0, np.int64(2**63 - 1000), "x"
    ),
}


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_huge_argument_is_refused_by_its_budget(call):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="budget"):
        call()
    assert time.perf_counter() - start < 1


def test_refusal_format():
    """One line, the estimate to 3 digits at any exponent, and an estimate
    equal to its budget passes."""
    check_budget(10**6, 10**6, "x", "units")
    check_budget(Fraction(10**7, 10), 10**6, "x", "units")
    with pytest.raises(ValueError) as refused:
        check_budget(Fraction(10**400, 3), 10**6, "bound=7 is the work of", "units")
    assert str(refused.value) == (
        "bound=7 is the work of 3.33e+399 units, over the budget of 1e+06"
    )
    with pytest.raises(ValueError, match=r"^w 4\.9e\+4 units, over the budget of 1e\+04$"):
        check_budget(49_000, 10**4, "w", "units")
    # a count summed by numpy
    with pytest.raises(ValueError, match=r"^w 2e\+10 units"):
        check_budget(np.int64(2 * 10**10), 10**4, "w", "units")

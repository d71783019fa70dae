import pytest
from hypothesis import settings

from associators.pentagon import P5Quotient
from associators.associator import solve_unitary

# every run draws the same examples; each test keeps its own max_examples
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def q5():
    return P5Quotient(5)


@pytest.fixture(scope="session")
def even_candidate(q5):
    cand, _ = solve_unitary(5, q5, tiebreak="zero", even=True)
    return cand


@pytest.fixture(scope="session")
def skew_candidate(q5):
    """A non-even unitary associator (degree-3 freedom resolved to a nonzero
    representative), used for torsor fixtures."""
    cand, _ = solve_unitary(5, q5, tiebreak="lex", even=False)
    return cand

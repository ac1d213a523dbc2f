from fractions import Fraction as Q

import pytest

# One line per acceptance criterion, filled in by test_acceptance.py and
# echoed after the run so the verdicts are visible in plain `pytest -v`
# output.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from asymcalc.polytools import isolate_roots
from asymcalc.pwfunc import PwFunction, TailComponent
from asymcalc.scaleset import AsymptoticSet
from asymcalc.signs import _add_points
from asymcalc.window import Piecewise


def profile_points(profiles):
    """The full walk, the one reference for the engine's pruned one: the
    breakpoints of the profiles and the roots of each nonzero segment;
    deduplicated, sorted.  A flat zero is a maximal zero segment, so its
    ends are breakpoints."""
    rats, roots = set(), []
    for g in profiles:
        rats.update(g.breakpoints())
        for seg in g.segs:
            if seg.num:
                _add_points(isolate_roots(seg.num, seg.lo, seg.hi), rats,
                            roots)
    return sorted([*rats, *roots])


@pytest.fixture
def rho():
    return PwFunction.upower(1)


@pytest.fixture
def hat():
    prof = Piecewise.linear_interp(
        [(Q(1, 2), 0), (Q(5, 8), 0), (Q(3, 4), 1), (Q(7, 8), 0), (Q(1), 0)])
    return PwFunction(Q(1, 2), [TailComponent(0, 0, prof)])


@pytest.fixture
def hat2():
    prof = Piecewise.linear_interp(
        [(Q(1, 2), 0), (Q(9, 16), 1), (Q(5, 8), 0), (Q(1), 0)])
    return PwFunction(Q(1, 2), [TailComponent(0, 0, prof)])


@pytest.fixture
def osc():
    return PwFunction(Q(1, 2), [
        TailComponent(1, 0, Piecewise.from_poly(Q(1, 2), 1, (0, 3, -6, 4)))])


@pytest.fixture
def negl():
    prof = Piecewise.linear_interp(
        [(Q(1, 2), 0), (Q(3, 4), Q(1, 16)), (Q(1), 0)])
    return PwFunction(Q(1, 2), [TailComponent(0, 1, prof)])


@pytest.fixture
def A():
    return AsymptoticSet.orbit_interval(Q(7, 10), Q(4, 5))


@pytest.fixture
def B():
    return AsymptoticSet.orbit_interval(Q(3, 5), Q(9, 10))


@pytest.fixture
def P():
    return AsymptoticSet.orbit_point(Q(3, 4))


@pytest.fixture
def full():
    return AsymptoticSet.full()

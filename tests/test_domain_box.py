"""The domain-box point rule at each entry point that applies it: a point
needs one coordinate per side, each inside its side, ends included only
where the side is closed.  Every entry point keeps its own message."""

import re
from fractions import Fraction

import pytest

from clarkesat.functions import FiniteSupport, SaturatedFunction, eval_f, sample_gradient
from clarkesat.partition import build_partition
from clarkesat.rationals import Interval
from clarkesat.verifier import certify_saturation, saturation_windows

HALF, QUARTER = Fraction(1, 2), Fraction(1, 4)
# One open side and one closed side: 0 is outside the first, 1 inside the second.
DOMAIN = (Interval.open(0, 1), Interval.closed(0, 1))
OUTSIDE = [(HALF,), (HALF, HALF, HALF), (Fraction(0), HALF), (Fraction(1), HALF), (HALF, Fraction(9, 8))]
INSIDE = [(HALF, Fraction(1)), (HALF, Fraction(0)), (Fraction(1, 3), HALF)]


@pytest.fixture(scope="module")
def sf():
    return SaturatedFunction(build_partition(30), FiniteSupport.unit(0), 2, DOMAIN)


@pytest.mark.parametrize("x", OUTSIDE)
def test_every_entry_point_rejects_a_point_off_the_box(sf, x):
    assert not sf.contains_point(x)
    with pytest.raises(ValueError, match=r"^base point must lie inside the domain box$"):
        SaturatedFunction(sf.partition, sf.mu, 2, DOMAIN, x)
    message = "^" + re.escape(f"point {x} is outside the domain box") + "$"
    for query in (lambda: eval_f(sf, x, Fraction(1, 10)), lambda: sample_gradient(sf, x),
                  lambda: saturation_windows(DOMAIN, x, Fraction(1, 64)),
                  lambda: certify_saturation(sf, x, Fraction(1, 64), 0)):
        with pytest.raises(ValueError, match=message):
            query()


@pytest.mark.parametrize("x", INSIDE)
def test_a_closed_side_holds_its_ends(sf, x):
    assert sf.contains_point(x)
    assert sf.contains_point(tuple(f"{c.numerator}/{c.denominator}" for c in x))
    assert SaturatedFunction(sf.partition, sf.mu, 2, DOMAIN, x).x0 == x
    assert eval_f(sf, x, Fraction(1, 10)).lo <= eval_f(sf, x, Fraction(1, 10)).hi
    assert len(sample_gradient(sf, x)) == 2
    if Fraction(0) < x[1] < Fraction(1):
        assert len(saturation_windows(DOMAIN, x, Fraction(1, 64))) == 2
    else:  # the box around a side's end leaves the side
        with pytest.raises(ValueError, match=r"^the radius-1/64 box around .* leaves the domain side "):
            saturation_windows(DOMAIN, x, Fraction(1, 64))


def test_the_unit_box_excludes_its_ends():
    sf = SaturatedFunction(build_partition(5), FiniteSupport.unit(0))
    for c in (Fraction(0), Fraction(1)):
        assert not sf.contains_point((c,))
        with pytest.raises(ValueError, match=r"^base point must lie inside the domain box$"):
            SaturatedFunction(sf.partition, sf.mu, 1, None, (c,))
        with pytest.raises(ValueError, match=r"^point \(Fraction\(\d, 1\),\) is outside the domain box$"):
            eval_f(sf, (c,), QUARTER)

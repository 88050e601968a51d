from fractions import Fraction

import pytest

import clarkesat.stress as stress_module
from clarkesat.errors import NotYetCovered
from clarkesat.functions import FiniteSupport, SaturatedFunction, ones_generator
from clarkesat.partition import build_partition
from clarkesat.rationals import Interval, format_rational
from clarkesat.stress import (
    TrajectoryPoint,
    _rational_sqrt,
    _snap,
    oracle,
    run_subgradient,
    stationarity_gap,
    trajectory_csv,
)
from clarkesat.verifier import SaturationCertificate, _certified_point

TOL = Fraction(1, 10**6)


@pytest.fixture(scope="module")
def p30():
    return build_partition(30)


@pytest.fixture(scope="module")
def e0(p30):
    return SaturatedFunction(p30, FiniteSupport.unit(0))


def test_zero_mu_trajectory_is_constant(p30):
    zero = SaturatedFunction(p30, FiniteSupport.zero())
    trajectory = run_subgradient(zero, (Fraction(1, 3),), steps=5)
    assert all(point.x == (Fraction(1, 3),) for point in trajectory)


def test_zero_step_schedule_is_constant(e0):
    trajectory = run_subgradient(
        e0, (Fraction(2, 5),), steps=5, step_coefficient=Fraction(0)
    )
    assert all(point.x == (Fraction(2, 5),) for point in trajectory)


def test_trajectory_is_deterministic(e0):
    first = run_subgradient(e0, (Fraction(1, 3),), steps=8)
    second = run_subgradient(e0, (Fraction(1, 3),), steps=8)
    assert [p.x for p in first] == [p.x for p in second]


def test_trajectory_stays_inside_domain(e0):
    trajectory = run_subgradient(
        e0, (Fraction(1, 64),), steps=20, step_coefficient=Fraction(1, 2)
    )
    for point in trajectory:
        assert e0.contains_point(point.x)


def test_oracle_resolves_undecided_to_zero(p30, e0):
    host = p30.stage(1).piece_host(0)
    interior = (host.lo * 2 + host.hi) / 3
    response = oracle(e0, (interior,), TOL, depth=1)
    assert response.gradient == (0,)
    assert response.undecided == (0,)
    assert abs(response.gradient[0]) <= e0.norm_inf


def test_value_bounds_within_diameter(e0):
    diameter = sum(side.length for side in e0.domain)
    trajectory = run_subgradient(e0, (Fraction(9, 10),), steps=15)
    for point in trajectory:
        assert -e0.norm_inf * diameter <= point.response.value.lo
        assert point.response.value.hi <= e0.norm_inf * diameter


def test_stationarity_gap_is_zero_when_certified(e0):
    assert stationarity_gap(e0, (Fraction(1, 2),), Fraction(1, 4), K=0) == 0


def test_stationarity_gap_zero_coefficient_region(p30):
    zero = SaturatedFunction(p30, FiniteSupport.zero())
    assert stationarity_gap(zero, (Fraction(1, 2),), Fraction(1, 4), K=0) == 0


def test_stationarity_gap_not_yet_covered(e0):
    with pytest.raises(NotYetCovered):
        stationarity_gap(e0, (Fraction(1, 2),), Fraction(1, 10**5), K=0)


def test_trajectory_csv_layout(e0):
    trajectory = run_subgradient(e0, (Fraction(1, 2),), steps=3)
    text = trajectory_csv(e0, trajectory, r=Fraction(1, 4), K=0)
    lines = text.strip().split("\n")
    assert lines[0] == "t,x1,f_lo,f_hi,gap"
    assert len(lines) == 5
    assert lines[1].startswith("0,1/2,")
    for line in lines[1:]:
        assert line.endswith(",0/1") or line.endswith(",NA")


def test_gap_certified_at_most_iterates(e0):
    trajectory = run_subgradient(e0, (Fraction(1, 2),), steps=20)
    certified = 0
    for point in trajectory:
        try:
            assert stationarity_gap(e0, point.x, Fraction(1, 4), K=0) == 0
            certified += 1
        except NotYetCovered:
            pass
    assert certified >= int(0.95 * len(trajectory))


def test_stationarity_gap_rejects_failed_certificate(e0, monkeypatch):
    # An explicit raise, not an assert, so it also holds under python -O.
    monkeypatch.setattr(SaturationCertificate, "check", lambda self: False)
    with pytest.raises(AssertionError, match="failed its check"):
        stationarity_gap(e0, (Fraction(1, 2),), Fraction(1, 4), K=0)


def _on_grid(x: Fraction) -> bool:
    return (x * 2**48).denominator == 1


@pytest.mark.parametrize("member, landing", [(0, Fraction(63, 64)), (1, Fraction(1, 64))])
def test_subgradient_step_moves_and_is_clamped(p30, e0, member, landing):
    # At a point certified inside A_0 the gradient of e_0 is -1, inside A_1
    # it is +1; a step of 1/2 overshoots the box, so the clamp catches it.
    start = _certified_point(p30, member)
    assert start == (Fraction(17, 32) if member == 0 else Fraction(43, 96))
    trajectory = run_subgradient(e0, (start,), steps=3, step_coefficient=Fraction(1, 2))
    assert trajectory[0].response.gradient == ((-1,) if member == 0 else (1,))
    assert trajectory[1].x == (landing,)
    for point in trajectory:
        assert all(Fraction(1, 64) <= c <= Fraction(63, 64) for c in point.x)
    assert all(_on_grid(c) for point in trajectory[1:] for c in point.x)


def test_subgradient_step_snaps_to_the_grid(p30, e0):
    start = _certified_point(p30, 0)
    trajectory = run_subgradient(e0, (start,), steps=1, step_coefficient=Fraction(1, 10))
    (x1,) = trajectory[1].x
    exact = start + Fraction(1, 10)
    assert _on_grid(x1) and x1 != exact
    assert exact - Fraction(1, 2**48) < x1 < exact


def test_trajectory_csv_writes_na_without_a_radius_or_a_covering_certificate(e0):
    trajectory = run_subgradient(e0, (Fraction(2, 5),), steps=2)
    tiny = Fraction(1, 10**5)
    with pytest.raises(NotYetCovered):
        stationarity_gap(e0, trajectory[0].x, tiny, K=0)
    for r in (None, tiny):
        rows = trajectory_csv(e0, trajectory, r).splitlines()
        assert rows[0] == "t,x1,f_lo,f_hi,gap"
        assert len(rows) == 4
        assert all(row.endswith(",NA") for row in rows[1:])
    assert all(row.endswith(",0/1") for row in trajectory_csv(e0, trajectory, Fraction(1, 4)).splitlines()[1:])


def test_negative_steps_are_rejected_before_any_oracle_call(e0, monkeypatch):
    import clarkesat.stress

    calls = []
    monkeypatch.setattr(clarkesat.stress, "oracle", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match=r"^steps must be >= 0$"):
        run_subgradient(e0, (Fraction(1, 3),), steps=-1)
    assert calls == []
    monkeypatch.undo()
    assert len(run_subgradient(e0, (Fraction(1, 3),), steps=0)) == 1


def test_trajectory_csv_writes_na_where_the_box_leaves_the_domain(e0):
    # From 43/96, inside A_1, a step of 1/2 is clamped to 1/64, where the
    # radius-1/4 box leaves the domain: the gap is NA there, not an error.
    trajectory = run_subgradient(e0, (Fraction(43, 96),), steps=2, step_coefficient=Fraction(1, 2))
    assert [point.x for point in trajectory[1:]] == [(Fraction(1, 64),)] * 2
    rows = trajectory_csv(e0, trajectory, Fraction(1, 4)).splitlines()
    assert len(rows) == 4
    assert rows[1].startswith("0,43/96,") and rows[1].endswith(",0/1")
    assert all(row.endswith(",NA") for row in rows[2:])


@pytest.mark.parametrize("r, K, message", [
    (Fraction(0), 0, "radius must be positive"),
    (Fraction(-1, 4), 0, "radius must be positive"),
    (Fraction(1, 4), -1, "truncation must be >= 0"),
])
def test_trajectory_csv_rejects_a_bad_radius_or_truncation(e0, r, K, message):
    trajectory = run_subgradient(e0, (Fraction(43, 96),), steps=1, step_coefficient=Fraction(1, 2))
    with pytest.raises(ValueError, match=f"^{message}$"):
        trajectory_csv(e0, trajectory, r, K)


def _reference_run(sf, x_init, steps, step_coefficient, tol=TOL, depth=8):
    """``run_subgradient`` as first written: one oracle call per iterate."""
    x = tuple(Fraction(c) for c in x_init)
    trajectory = [TrajectoryPoint(0, x, oracle(sf, x, tol, depth))]
    for t in range(1, steps + 1):
        alpha = step_coefficient / _rational_sqrt(t)
        moved = []
        for side, coord, g in zip(sf.domain, x, trajectory[-1].response.gradient):
            if alpha * g == 0:
                moved.append(coord)
                continue
            margin = side.length / 64
            moved.append(min(max(_snap(coord - alpha * g), side.lo + margin), side.hi - margin))
        x = tuple(moved)
        trajectory.append(TrajectoryPoint(t, x, oracle(sf, x, tol, depth)))
    return trajectory


def _box_inside(sf, x, r):
    return all(side.contains_interval(Interval.closed(c - r, c + r)) for side, c in zip(sf.domain, x))


def _reference_csv(sf, trajectory, r, K):
    """``trajectory_csv`` as first written: one certificate per row."""
    lines = [",".join(["t", *(f"x{i + 1}" for i in range(sf.d)), "f_lo", "f_hi", "gap"])]
    for point in trajectory:
        gap = "NA"
        if _box_inside(sf, point.x, r):
            try:
                gap = format_rational(stationarity_gap(sf, point.x, r, K))
            except NotYetCovered:
                pass
        values = point.response.value
        lines.append(",".join([str(point.t), *map(format_rational, point.x),
                               format_rational(values.lo), format_rational(values.hi), gap]))
    return "\n".join(lines) + "\n"


def _counted(monkeypatch, name):
    """Wrap clarkesat.stress.<name> so that each call is recorded by its point."""
    real, calls = getattr(stress_module, name), []

    def wrapper(sf, x, *args, **kwargs):
        calls.append(tuple(x))
        return real(sf, x, *args, **kwargs)

    monkeypatch.setattr(stress_module, name, wrapper)
    return calls


# (mu, d, start members or points, step coefficient, steps): a frozen run,
# whose gradient is 0 at its undecided start; clamped runs from certified
# points of A_0 and A_1, stepped by 1/2 onto the clamp, where they freeze;
# and runs for ones that move off their start.
_RUNS = [
    ("unit", 1, (Fraction(2, 5),), Fraction(1, 10), 8),
    ("unit", 1, (0,), Fraction(1, 2), 8),
    ("unit", 2, (0, 1), Fraction(1, 2), 8),
    ("ones", 1, (0,), Fraction(1, 10), 10),
    ("ones", 2, (0, Fraction(3, 8)), Fraction(1, 100), 10),
]


@pytest.mark.parametrize("mu, d, start, c, steps", _RUNS)
def test_each_distinct_iterate_is_answered_once_and_the_output_is_the_reference_loops(
        p30, monkeypatch, mu, d, start, c, steps):
    sf = SaturatedFunction(p30, FiniteSupport.unit(0) if mu == "unit" else ones_generator(), d)
    x_init = tuple(_certified_point(p30, s) if isinstance(s, int) else s for s in start)
    expected = _reference_run(sf, x_init, steps, c)
    r, K = Fraction(1, 4), 2
    expected_csv = _reference_csv(sf, expected, r, K)
    oracle_calls = _counted(monkeypatch, "oracle")
    trajectory = run_subgradient(sf, x_init, steps, c)
    assert trajectory == expected
    distinct = list(dict.fromkeys(point.x for point in trajectory))
    assert oracle_calls == distinct and len(distinct) < len(trajectory)
    certify_calls = _counted(monkeypatch, "certify_saturation")
    assert trajectory_csv(sf, trajectory, r, K) == expected_csv
    assert certify_calls == [x for x in distinct if _box_inside(sf, x, r)]

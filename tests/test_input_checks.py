"""Input checks, small accessors and ``--help``: the lines no other test reaches.

Each library entry point rejects a bad argument with the error its
docstring or signature promises, and each ``clarkesat`` subcommand answers
``--help`` with its own usage and exit code 0.
"""

from fractions import Fraction

import pytest

from clarkesat.cantor import FatCantorSet, find_gap
from clarkesat.cli import main
from clarkesat.errors import NotYetCovered, ToleranceExhausted
from clarkesat.functions import (
    FiniteSupport,
    SaturatedFunction,
    eval_f,
    eval_f1,
    ones_generator,
    sample_gradient,
    shift_to_ball,
)
from clarkesat import partition as partition_module
from clarkesat.partition import (
    UNDECIDED_MEMBERSHIP,
    SplittingPartition,
    StageRecord,
    build_partition,
    first_index_inside,
    save,
    splitting_certificate_auto,
)
from clarkesat.rationals import ONE, Interval, IntervalSet, parse_interval_set
from clarkesat.stress import run_subgradient
from clarkesat.verifier import independence_fingerprint, isometry_witness

HALF = Fraction(1, 2)
POINT = Interval.closed(HALF, HALF)


@pytest.fixture(scope="module")
def p6():
    return build_partition(6)


# -- tolerances: Fractions, ints and "p/q" strings, never floats ---------------


def test_an_int_tolerance_reaches_the_integrator_as_a_fraction():
    sf = SaturatedFunction(build_partition(2), FiniteSupport.of({0: 5}), 3)
    point = (Fraction(1, 3), Fraction(1, 4), Fraction(1, 5))
    for tol in (1, Fraction(1), "1/1"):
        with pytest.raises(ToleranceExhausted, match="rebuild with at least 4 stages"):
            eval_f(sf, point, tol)


def test_measure_in_and_eval_f1_take_ints_and_strings_as_their_fractions(p6):
    window = Interval.closed(0, HALF)
    assert p6.measure_in(1, window, 1) == p6.measure_in(1, window, Fraction(1))
    assert p6.measure_in(1, window, "1/100") == p6.measure_in(1, window, Fraction(1, 100))
    assert eval_f1(p6, 0, HALF, Fraction(3, 4), 1) == eval_f1(p6, 0, HALF, Fraction(3, 4), Fraction(1))


def test_a_float_tolerance_raises_type_error(p6):
    with pytest.raises(TypeError, match="not float"):
        build_partition(2).measure_in(1, Interval.closed(0, HALF), 0.001)
    with pytest.raises(TypeError, match="not float"):
        eval_f1(p6, 0, HALF, Fraction(3, 4), 0.001)
    with pytest.raises(TypeError, match="not float"):
        eval_f(SaturatedFunction(p6, ones_generator()), (Fraction(3, 4),), 0.001)


def test_membership_coerces_its_point_and_rejects_a_float(p6):
    assert p6.membership("1/3") == p6.membership(Fraction(1, 3))
    with pytest.raises(TypeError, match="not float"):
        p6.membership(0.25)


# -- cantor --------------------------------------------------------------------


def test_fat_cantor_set_rejects_a_trivial_host_and_a_retained_fraction_outside_0_1():
    with pytest.raises(ValueError, match="host interval must be nontrivial"):
        FatCantorSet(POINT)
    for retained in (Fraction(0), ONE, Fraction(3, 2)):
        with pytest.raises(ValueError, match="retained fraction"):
            FatCantorSet(Interval.closed(0, 1), retained)


def test_find_gap_rejects_a_trivial_target():
    with pytest.raises(ValueError, match="target must be nontrivial"):
        find_gap([FatCantorSet.canonical()], POINT)


# -- functions -----------------------------------------------------------------


def test_finite_support_rejects_a_negative_index():
    with pytest.raises(ValueError, match="coefficient indices start at 0"):
        FiniteSupport.of({-1: 1})


def test_saturated_function_checks_its_dimension_and_box(p6):
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        SaturatedFunction(p6, ones_generator(), 0)
    with pytest.raises(ValueError, match="one side per dimension"):
        SaturatedFunction(p6, ones_generator(), 2, domain=(Interval.open(0, 1),))


def test_a_non_unit_box_defaults_x0_to_its_center(p6):
    domain = (Interval.open(0, 2), Interval.open(1, 4))
    sf = SaturatedFunction(p6, ones_generator(), 2, domain=domain)
    assert sf.x0 == (ONE, Fraction(5, 2))


def test_gradient_and_the_shifted_dimension_read_the_base_function(p6):
    sf = SaturatedFunction(p6, FiniteSupport.of({0: 1, 1: -2}), 2)
    x = (Fraction(3, 8), Fraction(5, 8))
    assert sf.gradient(x) == sample_gradient(sf, x)
    assert shift_to_ball(sf, (ONE, ONE), HALF).d == 2


def test_eval_f_and_shift_to_ball_reject_nonpositive_inputs(p6):
    sf = SaturatedFunction(p6, ones_generator())
    for tol in (0, Fraction(-1, 10)):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            eval_f(sf, (HALF,), tol)
    with pytest.raises(ValueError, match="radius must be nonnegative"):
        shift_to_ball(sf, (ONE,), Fraction(-1))


# -- partition -----------------------------------------------------------------


def test_window_queries_reject_a_trivial_window(p6):
    with pytest.raises(ValueError, match="window must be nontrivial"):
        first_index_inside(POINT)
    with pytest.raises(ValueError, match="window must be nontrivial"):
        p6.splitting_certificate(1, POINT)


def test_build_partition_checks_stages_and_gap_cap():
    with pytest.raises(ValueError, match="at least one stage"):
        build_partition(0)
    for cap in (Fraction(0), Fraction(3, 2)):
        with pytest.raises(ValueError, match=r"gap_cap must lie in \(0, 1\]"):
            build_partition(3, cap)


def test_build_partition_coerces_gap_cap_and_rejects_a_float():
    # A float cap would be stored and fail later, in the build or in a query.
    for cap in (0.5, 0.1):
        with pytest.raises(TypeError, match="not float"):
            build_partition(5, cap)
    assert build_partition(40, "1/2").stages == build_partition(40, HALF).stages


def test_auto_certificate_reraises_when_the_named_stage_is_already_built():
    # [1/2, 1] holds I_2 = (1/2, 2/3), and neither hand-built gap reaches it.
    window = Interval.closed(HALF, ONE)
    assert first_index_inside(window) == 2
    gaps = [Interval.open(Fraction(1, 10), Fraction(1, 5)), Interval.open(Fraction(3, 10), Fraction(2, 5))]
    partition = SplittingPartition(ONE, tuple(StageRecord(n, gap, 0) for n, gap in enumerate(gaps, 1)))
    with pytest.raises(NotYetCovered) as info:
        splitting_certificate_auto(partition, 1, window)
    assert info.value.needed_stage == 2


def test_undecided_membership_names_no_member_and_the_alias_asks_the_partition(p6):
    assert UNDECIDED_MEMBERSHIP.member_index is None
    for x in (Fraction(0), Fraction(3, 8), Fraction(5, 7)):
        assert partition_module.membership(p6, x, 4) == p6.membership(x, 4)


# -- stress and verifier --------------------------------------------------------


def test_run_subgradient_rejects_a_start_outside_the_box(p6):
    sf = SaturatedFunction(p6, ones_generator())
    with pytest.raises(ValueError, match="initial point must lie inside"):
        run_subgradient(sf, (Fraction(3, 2),), 1)


def test_fingerprint_and_isometry_witness_check_their_size(p6):
    with pytest.raises(ValueError, match="need at least one index"):
        independence_fingerprint(p6, 0)
    with pytest.raises(ValueError, match="truncation must be >= 0"):
        isometry_witness(SaturatedFunction(p6, ones_generator()), -1)


# -- rationals -----------------------------------------------------------------


def test_contains_interval_keeps_a_closed_end_out_of_an_open_host_end():
    host = Interval.open(0, 1)
    assert not host.contains_interval(Interval(Fraction(0), HALF, True, False))
    assert not host.contains_interval(Interval(HALF, ONE, False, True))
    assert host.contains_interval(Interval.open(0, HALF))


def test_interior_of_a_singleton_and_the_empty_set_text():
    with pytest.raises(ValueError, match="empty interior"):
        POINT.interior()
    assert str(IntervalSet.empty()) == "(empty)"


def test_parse_interval_set_rejects_a_bad_token():
    with pytest.raises(ValueError, match="bad interval token"):
        parse_interval_set("[0/1,1/2] 1/2,3/4]")


# -- cli -------------------------------------------------------------------------


def test_stress_without_out_prints_the_csv_it_would_write(tmp_path, capsys):
    path = tmp_path / "p6.splitpart"
    save(build_partition(6), path)
    args = ["stress", "--partition", str(path), "--mu", "0:1/1", "--steps", "2"]
    assert main(args) == 0
    printed = capsys.readouterr().out
    assert main([*args, "--out", str(tmp_path / "t.csv")]) == 0
    assert printed == (tmp_path / "t.csv").read_text()
    assert printed.count("\n") >= 3


def test_help_exits_0_and_prints_each_subcommands_usage(capsys):
    options = {"build": "--stages", "eval": "--tol", "certify": "--radius",
               "measure": "--window", "stress": "--steps", "plot": "--grid"}
    assert main(["--help"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("usage: clarkesat")
    assert all(command in text for command in options)
    for command, option in options.items():
        assert main([command, "--help"]) == 0
        text = capsys.readouterr().out
        assert text.startswith(f"usage: clarkesat {command} ")
        assert option in text

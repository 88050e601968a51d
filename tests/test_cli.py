import argparse
import hashlib
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from clarkesat.cli import EXIT_CERTIFICATE, main
from clarkesat.partition import (
    SplittingPartition,
    StageRecord,
    build_partition,
    enumerated_interval,
    loads,
    planted_sets_pairwise_disjoint,
    save,
    saves,
)
from clarkesat.rationals import Interval
from clarkesat.verifier import SaturationCertificate


@pytest.fixture(scope="module")
def partition_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "p30.splitpart"
    save(build_partition(30), path)
    return str(path)


def run_cli(*argv):
    return main(list(argv))


def test_build_writes_deterministic_file(tmp_path):
    out1 = tmp_path / "a.splitpart"
    out2 = tmp_path / "b.splitpart"
    assert run_cli("build", "--stages", "6", "--out", str(out1)) == 0
    assert run_cli("build", "--stages", "6", "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().startswith("SPLITPART v2\n")


def test_saves_writes_v1_unless_asked_for_v2(tmp_path):
    p = build_partition(6)
    assert saves(p).startswith("SPLITPART v1\n")
    save(p, tmp_path / "p.splitpart")
    assert (tmp_path / "p.splitpart").read_text() == saves(p)
    assert saves(p, version=2).startswith("SPLITPART v2\n")
    with pytest.raises(ValueError, match="no SPLITPART version 3"):
        saves(p, version=3)


def test_build_writes_the_stage_lines_and_their_sha256(tmp_path):
    out = tmp_path / "p.splitpart"
    assert run_cli("build", "--stages", "6", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    v1 = saves(build_partition(6)).splitlines()
    assert lines[:2] == ["SPLITPART v2", v1[1]]
    assert lines[2:-1] == [" ".join(line.split()[:3]) for line in v1[2:]]
    body = "".join(line + "\n" for line in lines[2:-1]).encode("ascii")
    assert lines[-1] == "sha256=" + hashlib.sha256(body).hexdigest()


def _v2_lines(stages):
    return saves(build_partition(stages), version=2).splitlines()


def _rehashed(lines):
    body = "".join(line + "\n" for line in lines[2:-1]).encode("ascii")
    return "\n".join(lines[:-1] + ["sha256=" + hashlib.sha256(body).hexdigest()]) + "\n"


@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda lines: "\n".join(lines[:-1]) + "\n", "lacks its closing sha256= line"),
        (lambda lines: "\n".join(lines[:2]) + "\n", "lacks its closing sha256= line"),
        (lambda lines: "\n".join(lines[:-1] + [lines[-1][:-1] + "0"]) + "\n", "sha256= line does not match"),
        (lambda lines: "\n".join(lines[:-2] + lines[-1:]) + "\n", "sha256= line does not match"),
        (lambda lines: _rehashed(lines[:-2] + [lines[-2] + " B"] + lines[-1:]),
         "stage 6 line: a v2 stage line holds only n=, gap= and depth="),
        (lambda lines: _rehashed(lines[:-2] + lines[-1:]), "expected 6 stages, found 5"),
        (lambda lines: "\n".join(["SPLITPART v3"] + lines[1:]) + "\n", "not a SPLITPART v1 or v2 file"),
    ],
    ids=["no-hash", "header-only", "wrong-hash", "stage-dropped", "extra-token", "stage-dropped-rehashed",
         "unknown-version"],
)
def test_malformed_v2_partition_is_usage_error(tmp_path, capsys, mangle, message):
    code, err = _eval_exit(tmp_path, capsys, mangle(_v2_lines(6)))
    assert code == 2
    assert err.startswith("error: ") and message in err and "Traceback" not in err


def test_build_round_trips_through_eval(tmp_path, capsys):
    out = tmp_path / "p.splitpart"
    assert run_cli("build", "--stages", "8", "--out", str(out)) == 0
    capsys.readouterr()
    code = run_cli(
        "eval", "--partition", str(out), "--mu", "0:1/1", "--x", "1/2", "--tol", "1/1024"
    )
    assert code == 0
    assert capsys.readouterr().out == "0/1 0/1\n"


def test_eval_at_base_point_prints_zero(partition_file, capsys):
    assert run_cli("eval", "--partition", partition_file, "--mu", "0:1/1", "--x", "1/2") == 0
    assert capsys.readouterr().out == "0/1 0/1\n"


def test_eval_decimal_flag(partition_file, capsys):
    code = run_cli(
        "eval", "--partition", partition_file, "--mu", "0:1/1",
        "--x", "3/4", "--decimal",
    )
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert lines[1].startswith("approx ")


def test_eval_antisymmetric_pair(partition_file, capsys):
    from fractions import Fraction

    run_cli("eval", "--partition", partition_file, "--mu", "0:1/1", "--x", "5/8")
    fwd = [Fraction(part) for part in capsys.readouterr().out.split()]
    run_cli(
        "eval", "--partition", partition_file, "--mu", "0:1/1",
        "--x", "1/2", "--x0", "5/8",
    )
    rev = [Fraction(part) for part in capsys.readouterr().out.split()]
    assert rev == [-fwd[1], -fwd[0]]


def test_eval_bad_mu_is_usage_error(partition_file, capsys):
    assert run_cli("eval", "--partition", partition_file, "--mu", "0=1", "--x", "1/2") == 2


def test_eval_tolerance_exhausted_exit_code(tmp_path, capsys):
    out = tmp_path / "small.splitpart"
    run_cli("build", "--stages", "3", "--out", str(out))
    capsys.readouterr()
    code = run_cli(
        "eval", "--partition", str(out), "--mu", "ones", "--x", "1/3",
        "--tol", "1/1000000000",
    )
    assert code == 4


def test_missing_partition_is_io_error(capsys):
    code = run_cli("eval", "--partition", "/nonexistent.splitpart", "--mu", "0:1/1", "--x", "1/2")
    assert code == 5


def test_certify_prints_hull(partition_file, capsys):
    code = run_cli(
        "certify", "--partition", partition_file, "--mu", "0:1/1",
        "--point", "1/2", "--radius", "1/4",
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "conclusion: gradient hull contains [-1/1,1/1]" in out


def test_certify_not_yet_covered_exit_code(partition_file, capsys):
    code = run_cli(
        "certify", "--partition", partition_file, "--mu", "0:1/1",
        "--point", "1/2", "--radius", "1/100000",
    )
    assert code == 3
    assert "stages" in capsys.readouterr().err


def test_certify_failed_replay_exits_6_without_a_traceback(partition_file, capsys, monkeypatch):
    monkeypatch.setattr(SaturationCertificate, "check", lambda self: False)
    code = run_cli(
        "certify", "--partition", partition_file, "--mu", "0:1/1",
        "--point", "1/2", "--radius", "1/4",
    )
    assert code == EXIT_CERTIFICATE == 6
    captured = capsys.readouterr()
    assert captured.err == "error: certificate failed its own replay check\n"
    assert captured.out == ""


def test_stress_failed_certificate_exits_6_without_a_traceback(partition_file, capsys, monkeypatch):
    monkeypatch.setattr(SaturationCertificate, "check", lambda self: False)
    code = run_cli(
        "stress", "--partition", partition_file, "--mu", "0:1/1", "--steps", "2",
    )
    assert code == EXIT_CERTIFICATE == 6
    captured = capsys.readouterr()
    assert captured.err == "error: saturation certificate failed its check\n"
    assert captured.out == ""


def test_certify_shifted_hull(partition_file, capsys):
    code = run_cli(
        "certify", "--partition", partition_file, "--mu", "0:3/1",
        "--point", "1/2", "--radius", "1/4",
        "--shift", "2/1", "--shift-radius", "3/1",
    )
    assert code == 0
    assert "[-1/1,5/1]" in capsys.readouterr().out


def test_measure_positive_lower_bound(partition_file, capsys):
    code = run_cli(
        "measure", "--partition", partition_file, "--k", "1",
        "--window", "0/1,1/1", "--tol", "1/4",
    )
    assert code == 0
    lo, hi = capsys.readouterr().out.split()
    num, den = lo.split("/")
    assert int(num) > 0
    assert int(den) > 0


def test_stress_writes_csv(partition_file, tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = run_cli(
        "stress", "--partition", partition_file, "--mu", "0:1/1",
        "--steps", "5", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,x1,f_lo,f_hi,gap"
    assert len(lines) == 7


def test_plot_grid(partition_file, tmp_path, capsys):
    out = tmp_path / "plot.csv"
    code = run_cli(
        "plot", "--partition", partition_file, "--k", "0",
        "--grid", "7", "--out", str(out), "--tol", "1/4096",
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x,f_lo,f_hi"
    assert len(lines) == 8


def test_plot_zero_grid_is_usage_error(partition_file, capsys):
    code = run_cli(
        "plot", "--partition", partition_file, "--k", "0",
        "--grid", "0", "--out", "/tmp/unused.csv",
    )
    assert code == 2


def test_negative_member_index_is_usage_error(partition_file, tmp_path, capsys):
    out = tmp_path / "plot.csv"
    for argv in (
        ("plot", "--k", "-1", "--grid", "2", "--out", str(out)),
        ("measure", "--k", "-1", "--window", "0/1,1/1", "--tol", "1/4"),
    ):
        assert run_cli(*argv, "--partition", partition_file) == 2
        assert "error: member index must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_console_entry_point(partition_file):
    result = subprocess.run(
        [sys.executable, "-m", "clarkesat.cli", "eval",
         "--partition", partition_file, "--mu", "0:1/1", "--x", "1/2"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "0/1 0/1\n"


def test_usage_error_without_command():
    assert run_cli() == 2


@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda lines: lines[:-1] + [lines[-1][: len(lines[-1]) // 2]], "stage 6 line"),
        (lambda lines: lines[:1], "ends before its header"),
        (lambda lines: [lines[0], lines[1].replace(" translation=0", "")] + lines[2:],
         "lacks translation="),
        (lambda lines: lines[:-1] + [" ".join(lines[-1].split()[:2])], "lacks depth="),
    ],
    ids=["truncated-stage", "header-only", "missing-translation", "stage-without-depth"],
)
def test_malformed_partition_is_usage_error(tmp_path, capsys, mangle, message):
    path = tmp_path / "bad.splitpart"
    save(build_partition(6), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(mangle(lines)) + "\n")
    code = run_cli("eval", "--partition", str(path), "--mu", "0:1/1", "--x", "3/4")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def _eval_exit(tmp_path, capsys, text):
    path = tmp_path / "bad.splitpart"
    path.write_text(text)
    code = run_cli("eval", "--partition", str(path), "--mu", "0:1/1", "--x", "3/4")
    return code, capsys.readouterr().err


def test_hand_written_gap_zero_one_is_usage_error(tmp_path, capsys):
    text = (
        "SPLITPART v1\ngap_cap=1/1 translation=0 stages=1\n"
        "n=1 gap=0/1,1/1 depth=0 T 1 0/1,1/2 canonical-svc B 1/2,1/1 canonical-svc\n"
    )
    code, err = _eval_exit(tmp_path, capsys, text)
    assert code == 2
    assert err.startswith("error: ") and "does not lie strictly inside I_1" in err


def _centered(n, mid, length, depth=0):
    return StageRecord(n, Interval.open(mid - length / 2, mid + length / 2), depth)


_S1, _S2, _S3 = build_partition(3).stages  # stage 1 is (5/12,7/12), I_2 is (1/2,2/3)
_HALF = Fraction(1, 2)


@pytest.mark.parametrize(
    "gap_cap, stages, message",
    [
        (1, (_S1, _S3), "stage 3 line: expected stage 2"),
        (1, (_S1, _centered(2, _HALF, _S2.gap.length)), "does not lie strictly inside I_2"),
        (1, (_centered(1, _HALF, Fraction(1, 5)),), "gap length 1/5 is not 1/(3*2^j)"),
        (1, (_centered(1, _HALF, Fraction(1, 3)),), "gap length 1/3 is not 1/(3*2^j)"),
        (Fraction(1, 8), (_S1,), "gap length 1/6 is not 1/(3*2^j)"),
        (1, (_centered(1, _HALF + Fraction(1, 128), _S1.gap.length),), "off the 2^-5 grid"),
        (1, (StageRecord(1, _S1.gap, 3),), "depth 3 is not a depth the gap search tries"),
        (1, (StageRecord(1, _S1.gap, 1),), "depth 1 > 0, but its gap meets no earlier gap"),
        (1, (_S1, _centered(2, Fraction(9, 16), Fraction(1, 12), 1)),
         "meets the depth-1 cover of stage 1 piece 1"),
        (1, (_S1, _centered(2, Fraction(9, 16), Fraction(1, 12), 0)),
         "meets the depth-0 cover of stage 1 piece 1"),
    ],
    ids=["numbering", "outside-I_n", "length", "length-above-2^-n", "length-above-gap_cap",
         "off-grid", "unsearched-depth", "depth-without-nesting", "meets-cover", "meets-host"],
)
def test_stage_a_build_cannot_place_is_usage_error(tmp_path, capsys, gap_cap, stages, message):
    text = saves(SplittingPartition(Fraction(gap_cap), stages))
    code, err = _eval_exit(tmp_path, capsys, text)
    assert code == 2
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "line, old, new, message",
    [
        (1, "stages=6", "stages=five", "SPLITPART header: stages='five' is not an integer"),
        (1, "translation=0", "translation=1/2", "SPLITPART header: translation='1/2' is not an integer"),
        (2, "n=1 ", "n=x ", "SPLITPART stage line 1: n='x' is not an integer"),
        (2, "depth=0", "depth=zz", "SPLITPART stage line 1: depth='zz' is not an integer"),
        (2, "gap=5/12,7/12", "gap=1/2", "SPLITPART stage line 1: gap='1/2' is not an open interval"),
        (2, "gap=5/12,7/12", "gap=7/12,5/12", "SPLITPART stage line 1: gap='7/12,5/12' is not an open"),
    ],
    ids=["stages-word", "translation-fraction", "stage-n", "stage-depth", "gap-one-end", "gap-reversed"],
)
def test_unparsable_value_names_its_file_part(tmp_path, capsys, line, old, new, message):
    lines = saves(build_partition(6)).splitlines()
    assert old in lines[line]
    lines[line] = lines[line].replace(old, new, 1)
    code, err = _eval_exit(tmp_path, capsys, "\n".join(lines) + "\n")
    assert code == 2
    assert err.startswith("error: ") and message in err


def test_header_token_without_equals_is_usage_error(tmp_path, capsys):
    lines = saves(build_partition(5)).splitlines()
    lines[1] = lines[1].replace("translation=0", "translation")
    code, err = _eval_exit(tmp_path, capsys, "\n".join(lines) + "\n")
    assert code == 2
    assert "SPLITPART header token 'translation' is not key=value" in err


@pytest.mark.parametrize("piece", [2, 6], ids=["middle-T-piece", "B-piece"])
def test_changed_piece_endpoint_is_usage_error(tmp_path, capsys, piece):
    lines = saves(build_partition(6)).splitlines()
    tokens = lines[-1].split()
    assert tokens[3 + 4 * piece] == ("B" if piece == 6 else "T")
    at = 3 + 4 * piece + (1 if piece == 6 else 2)
    lo, hi = tokens[at].split(",")
    num, den = hi.split("/")
    tokens[at] = f"{lo},{int(num) + 1}/{den}"
    lines[-1] = " ".join(tokens)
    code, err = _eval_exit(tmp_path, capsys, "\n".join(lines) + "\n")
    assert code == 2
    assert "stage 6 line: its set records are not the ones its gap implies" in err


def test_zero_denominator_is_usage_error(partition_file, capsys):
    code = run_cli("eval", "--partition", partition_file, "--mu", "0:1/1", "--x", "1/2", "--tol", "1/0")
    assert code == 2
    assert "zero denominator: '1/0'" in capsys.readouterr().err


def test_certify_names_a_stage_count_for_a_narrow_window_exits_3(partition_file, capsys):
    # The first enumerated interval inside the window lies far beyond what a
    # scan of the enumeration reaches; the closed form names its index.
    code = run_cli(
        "certify", "--partition", partition_file, "--mu", "0:1/1",
        "--point", "1/3", "--radius", "1/1099511627776",
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "build at least 5864062014719 stages" in err
    assert "Traceback" not in err
    radius = Fraction(1, 1099511627776)
    window = Interval.open(Fraction(1, 3) - radius, Fraction(1, 3) + radius)
    assert window.contains_interval(enumerated_interval(5864062014719))


def test_certify_past_the_enumeration_size_bound_exits_2_at_once(partition_file, capsys):
    # Naming a stage count for a 2^-100 window would need pair weights past
    # 2^16; the search refuses before building any sieve.
    start = time.perf_counter()
    code = run_cli(
        "certify", "--partition", partition_file, "--mu", "0:1/1",
        "--point", "1/3", "--radius", f"1/{2**100}",
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "past the search's size bound" in err
    assert "Traceback" not in err


def test_certify_exit_3_names_the_stage_count_once(partition_file, capsys):
    code = run_cli(
        "certify", "--partition", partition_file, "--mu", "0:1/1",
        "--point", "1/2", "--radius", "1/100000",
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("build at least") == 1
    assert err.rstrip().endswith("; build at least 393179 stages")


def test_inputs_are_read_in_a_fixed_order(tmp_path, partition_file, capsys):
    # Every input is parsed before the file is read, --mu before --tol; a bad
    # input then checks the whole file, whose error comes first.
    missing = str(tmp_path / "missing.splitpart")
    assert run_cli("eval", "--partition", missing, "--mu", "0:1/1", "--x", "bad") == 5
    assert "No such file or directory" in capsys.readouterr().err
    code = run_cli("eval", "--partition", partition_file, "--mu", "bad", "--x", "1/2", "--tol", "0")
    assert code == 2
    assert capsys.readouterr().err == "error: bad coefficient entry 'bad'; expected k:p/q\n"


@pytest.mark.parametrize("argv, parser", [
    (("eval", "--mu", "0:1/1", "--x", "5/8"), "parse_mu_spec"),
    (("certify", "--mu", "0:1/1", "--point", "1/2", "--radius", "1/4"), "parse_mu_spec"),
    (("measure", "--k", "1", "--window", "1/4,3/4"), "_positive_tol"),
    (("plot", "--k", "0", "--grid", "3"), "_positive_tol"),
], ids=["eval", "certify", "measure", "plot"])
def test_a_valid_command_parses_each_input_once(partition_file, tmp_path, capsys, monkeypatch, argv, parser):
    import clarkesat.cli

    calls = []
    original = getattr(clarkesat.cli, parser)
    monkeypatch.setattr(clarkesat.cli, parser, lambda text: calls.append(text) or original(text))
    command, *options = argv
    out = ("--out", str(tmp_path / "plot.csv")) if command == "plot" else ()
    assert run_cli(command, "--partition", partition_file, *options, *out) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_certify_checks_radius_before_x0(partition_file, capsys):
    # --radius, --K and the windows fix the prefix, so they are checked
    # before the loaded function checks --x0.
    code = run_cli("certify", "--partition", partition_file, "--mu", "0:1/1", "--point", "1/2",
                   "--radius", "0", "--x0", "3/2")
    assert code == 2
    assert capsys.readouterr().err == "error: radius must be positive\n"


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    built = []
    original = argparse.ArgumentParser.add_subparsers

    def counting(self, **kwargs):
        built.append(self.prog)
        return original(self, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counting)
    missing = str(tmp_path / "missing.splitpart")
    for _ in range(2):
        assert run_cli("measure", "--partition", missing, "--k", "0", "--window", "0,1") == 5
    assert len(built) <= 1


def test_certify_has_no_decimal_flag(partition_file, capsys):
    code = run_cli("certify", "--partition", partition_file, "--mu", "0:1/1",
                   "--point", "1/2", "--radius", "1/4", "--decimal")
    assert code == 2
    assert "unrecognized arguments: --decimal" in capsys.readouterr().err


def test_certify_takes_an_explicit_truncation(partition_file, capsys):
    code = run_cli("certify", "--partition", partition_file, "--mu", "0:1/1,3:2/1",
                   "--point", "1/2", "--radius", "1/4", "--K", "1")
    assert code == 0
    out = capsys.readouterr().out
    assert "truncation: 1" in out
    assert "k=2" not in out and "k=1 vertex" in out


def test_certify_a_generator_without_k_is_usage_error(partition_file, capsys):
    code = run_cli("certify", "--partition", partition_file, "--mu", "ones", "--point", "1/2", "--radius", "1/4")
    assert code == 2
    assert capsys.readouterr().err == "error: --K is required for generator coefficient sources\n"


@pytest.mark.parametrize("options, message", [
    (("--mu", "ones", "--step-c", "1/1000"), "--K is required for generator coefficient sources"),
    (("--mu", "0:1/1", "--radius", "bad"), "invalid literal for int() with base 10: 'bad'"),
    (("--mu", "0:1/1", "--step-c", "bad"), "invalid literal for int() with base 10: 'bad'"),
    (("--mu", "0:1/1", "--K", "-1"), "truncation must be >= 0"),
    (("--mu", "0:1/1", "--radius", "0"), "radius must be positive"),
    (("--mu", "0:1/1", "--radius", "3/4"), "the radius-3/4 box around 43/96 leaves the domain side (0/1,1/1)"),
], ids=["no-K", "bad-radius", "bad-step-c", "negative-K", "zero-radius", "radius-past-the-side"])
def test_stress_reads_every_option_before_the_trajectory(partition_file, capsys, monkeypatch, options, message):
    import clarkesat.stress

    calls = []
    monkeypatch.setattr(clarkesat.stress, "oracle", lambda *args, **kwargs: calls.append(args))
    code = run_cli("stress", "--partition", partition_file, "--steps", "300", "--x-init", "43/96", *options)
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert calls == []


def test_stress_writes_na_where_a_later_box_leaves_the_domain(partition_file, capsys):
    # The start point's box fits, but a step of 1/2 clamps the iterate to 1/64.
    code = run_cli("stress", "--partition", partition_file, "--mu", "0:1/1", "--steps", "2",
                   "--x-init", "43/96", "--step-c", "1/2")
    assert code == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "t,x1,f_lo,f_hi,gap"
    assert rows[1].startswith("0,43/96,") and rows[1].endswith(",0/1")
    assert [row.split(",")[1] for row in rows[2:]] == ["1/64", "1/64"]
    assert all(row.endswith(",NA") for row in rows[2:])


def test_stress_with_negative_steps_exits_2_without_an_oracle_call(partition_file, capsys, monkeypatch):
    import clarkesat.stress

    calls = []
    monkeypatch.setattr(clarkesat.stress, "oracle", lambda *args, **kwargs: calls.append(args))
    code = run_cli("stress", "--partition", partition_file, "--mu", "0:1/1", "--steps", "-1")
    assert code == 2
    assert capsys.readouterr().err == "error: steps must be >= 0\n"
    assert calls == []


@pytest.mark.parametrize("argv, message", [
    (("measure", "--k", "1", "--window", "1/4"), "bad window '1/4'; expected lo,hi"),
    (("eval", "--mu", "0:1/1", "--x", "1/2", "--tol", "0/1"), "tolerance must be positive"),
    (("measure", "--k", "1", "--window", "1/4,3/4", "--tol=-1/8"), "tolerance must be positive"),
    (("eval", "--mu", "0:1/1", "--x", "1/2,3/8", "--x0", "1/2"), "x0 must match the point's dimension"),
    (("certify", "--mu", "0:3/1", "--point", "1/2", "--radius", "1/4", "--shift", "2/1"),
     "--shift requires --shift-radius"),
], ids=["bad-window", "zero-tol", "negative-tol", "x0-dimension", "shift-without-radius"])
def test_an_input_guard_exits_2_without_a_traceback(partition_file, capsys, argv, message):
    command, *options = argv
    assert run_cli(command, "--partition", partition_file, *options) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert "Traceback" not in captured.err and captured.out == ""


def test_cli_reads_numbers_past_the_default_int_digit_limit(tmp_path, capsys):
    # A stage-1 gap of length 1/(3*2^14300) centred at 1/2: valid, and its
    # ends have about 4,300 digits, past the interpreter's default limit.
    partition = SplittingPartition(Fraction(1), (_centered(1, _HALF, Fraction(1, 3 * 2**14300)),))
    assert planted_sets_pairwise_disjoint(partition)
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        save(partition, tmp_path / "deep.splitpart", version=2)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    path = str(tmp_path / "deep.splitpart")
    assert run_cli("certify", "--partition", path, "--mu", "0:1/1", "--point", "1/2", "--radius", "1/4") == 0
    assert run_cli("measure", "--partition", path, "--k", "1", "--window", "1/4,3/4", "--tol", "1/2") == 0
    assert capsys.readouterr().err == ""
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit")
def test_loads_names_the_int_digit_limit_for_gap_ends_past_it():
    # The same valid stage-1 file: under the default limit a library load
    # reports the limit, not a malformed gap.
    partition = SplittingPartition(Fraction(1), (_centered(1, _HALF, Fraction(1, 3 * 2**14300)),))
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        text = saves(partition, version=2)
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        with pytest.raises(ValueError) as caught:
            loads(text)
    finally:
        sys.set_int_max_str_digits(limit)
    message = str(caught.value)
    assert message.startswith("SPLITPART stage line 1: gap= holds a number past the int/str digit limit: ")
    assert f"({sys.int_info.default_max_str_digits} digits)" in message and "is not an open interval" not in message
    assert len(message) < 300


def test_shift_radius_without_shift_exits_2(partition_file, capsys):
    code = run_cli("certify", "--partition", partition_file, "--mu", "0:3/1", "--point", "1/2",
                   "--radius", "1/4", "--shift-radius", "3/1")
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --shift-radius requires --shift\n"
    assert captured.out == ""


def test_every_certificate_a_command_checks_carries_its_witness_table(partition_file, capsys, monkeypatch):
    # check()'s corner rule serves only certificates built from a vertex
    # tuple; every certificate certify, stress and trajectory_csv check
    # comes from certify_saturation and takes the table rule.
    import clarkesat.stress
    from clarkesat.functions import FiniteSupport, SaturatedFunction
    from clarkesat.partition import load

    has_table = []
    check = SaturationCertificate.check

    def recording(certificate):
        has_table.append("_table" in certificate.__dict__)
        return check(certificate)

    monkeypatch.setattr(SaturationCertificate, "check", recording)
    for point, shift in (("1/2", "2/1"), ("1/2,3/8", "2/1,-1/2")):
        options = ("--partition", partition_file, "--mu", "0:3/1,1:-1/2", "--point", point, "--radius", "1/4")
        assert run_cli("certify", *options) == 0
        assert run_cli("certify", *options, "--shift", shift, "--shift-radius", "3/1") == 0
    assert run_cli("stress", "--partition", partition_file, "--mu", "0:1/1", "--steps", "2") == 0
    capsys.readouterr()
    sf = SaturatedFunction(load(partition_file), FiniteSupport.unit(0))
    trajectory = clarkesat.stress.run_subgradient(sf, (Fraction(1, 2),), steps=2)
    assert "0/1" in clarkesat.stress.trajectory_csv(sf, trajectory, Fraction(1, 4), 0)
    assert len(has_table) >= 8 and all(has_table)


@pytest.mark.parametrize("version", [True, False, 1.0, 2.0, "2", 3])
def test_saves_and_save_reject_a_version_that_is_not_1_or_2(tmp_path, version):
    # True == 1 and 2.0 == 2, but "SPLITPART vTrue" or "v2.0" is no header loads reads.
    p = build_partition(6)
    message = f"^no SPLITPART version {version}; versions are 1 and 2$"
    with pytest.raises(ValueError, match=message):
        saves(p, version=version)
    with pytest.raises(ValueError, match=message):
        save(p, tmp_path / "p.splitpart", version=version)
    assert not (tmp_path / "p.splitpart").exists()


def test_a_failing_save_leaves_an_existing_file_as_it_was(tmp_path):
    path = tmp_path / "p.splitpart"
    save(build_partition(6), path)
    before = path.read_bytes()
    with pytest.raises(ValueError, match="no SPLITPART version 3"):
        save(build_partition(6), path, version=3)
    assert path.read_bytes() == before
    if hasattr(sys, "set_int_max_str_digits"):  # gap ends of about 4,300 digits, past the default limit
        deep = SplittingPartition(Fraction(1), (_centered(1, _HALF, Fraction(1, 3 * 2**14300)),))
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
            with pytest.raises(ValueError):
                save(deep, path, version=2)
        finally:
            sys.set_int_max_str_digits(limit)
        assert path.read_bytes() == before

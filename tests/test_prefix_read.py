"""``loads`` against the line reader it replaced, and non-ASCII input.

``_line_reader_loads`` is ``loads`` as it read a text before the one-pass
read of canonical text: split on every line end, drop blank lines, hash the
stage lines rebuilt with their newlines.  Derandomized mutations of a
100-stage v2 text, read whole and as prefixes, must get the same stages or
the same message from both, except that where the line reader let a
non-ASCII character through to the hash as a codec error, ``loads`` names
the character and its offset in the text.
"""

import random
import re

import pytest

from clarkesat.cli import EXIT_USAGE, main
from clarkesat.partition import (
    SplittingPartition,
    _canonical_stage,
    _check_covers,
    _check_gap,
    _digest,
    _enumeration_ends,
    _fields,
    _line_text,
    _parse_stage_line,
    _parsed,
    build_partition,
    load,
    loads,
    save,
    saves,
)
from clarkesat.rationals import parse_rational


def _line_reader_loads(text, stages=None):
    """``loads`` before the one-pass read, kept verbatim."""
    if stages is not None and stages < 0:
        raise ValueError("stages must be >= 0")
    lines = [line for line in text.splitlines() if line.strip()]
    version = {"SPLITPART v1": 1, "SPLITPART v2": 2}.get(lines[0]) if lines else None
    if version is None:
        raise ValueError("not a SPLITPART v1 or v2 file")
    if len(lines) < 2:
        raise ValueError("SPLITPART file ends before its header line")
    header = _fields(lines[1].split(), ("gap_cap", "translation", "stages"), "header")
    gap_cap = _parsed(header, "gap_cap", parse_rational, "a rational", "header")
    if not 0 < gap_cap <= 1:
        raise ValueError(f"SPLITPART header gap_cap {header['gap_cap']} is not in (0, 1]")
    declared = _parsed(header, "stages", int, "an integer", "header")
    stage_lines = lines[2:]
    if version == 2:
        if not stage_lines or not stage_lines[-1].startswith("sha256="):
            raise ValueError("SPLITPART v2 file lacks its closing sha256= line")
        if stage_lines.pop() != f"sha256={_digest(stage_lines)}":
            raise ValueError("SPLITPART v2 sha256= line does not match its stage lines")
    if len(stage_lines) != declared:
        raise ValueError(f"expected {declared} stages, found {len(stage_lines)}")
    translation = _parsed(header, "translation", int, "an integer", "header")
    records, failure = [], None
    read = stage_lines if stages is None else stage_lines[:stages]
    for position, (line, target) in enumerate(zip(read, _enumeration_ends(1)), 1):
        try:
            record = ((_canonical_stage(line) if version == 2 else None)
                      or _parse_stage_line(line, f"stage line {position}", version))
            _check_gap(record, position, target, gap_cap)
        except ValueError as exc:
            failure = exc
            break
        records.append(record)
    partition = SplittingPartition(gap_cap, tuple(records), translation)
    _check_covers(partition)
    if failure is not None:
        raise failure
    return partition


# Every line end of str.splitlines, and the whitespace a blank line may hold.
_LINE_ENDS = ("\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
_BLANKS = ("", " ", "\t", " \t ", "\x1f", "\xa0", "\u3000", "\x1f \t")
# Characters past ASCII: a letter, two spaces, and digits int() reads.
_FOREIGN = ("\xe9", "\xa0", "\u3000", "\uff11", "\u0663", "\U0001d7d9")


def _mutant(rng, text):
    """One to three seeded edits of a v2 text."""
    for _ in range(rng.choice((1, 1, 2, 3))):
        kind = rng.choice(("end", "end", "blank", "foreign", "crlf", "doubled", "stale", "stages", "final"))
        ends = [i for i, c in enumerate(text) if c == "\n"]
        if kind == "end":  # a newline respelled, or a line end put inside a line
            i = rng.choice(ends) if rng.random() < 0.7 else rng.randrange(len(text))
            text = text[:i] + rng.choice(_LINE_ENDS) + text[i + (text[i] == "\n"):]
        elif kind == "blank":  # a line holding only whitespace, possibly first or last
            i = rng.choice([0, *(i + 1 for i in ends)])
            text = text[:i] + rng.choice(_BLANKS) + rng.choice(_LINE_ENDS) + text[i:]
        elif kind == "foreign":  # anywhere: a stage line, the header, the sha256= line
            i = rng.randrange(len(text) + 1)
            text = text[:i] + rng.choice(_FOREIGN) + text[i:]
        elif kind == "crlf":
            text = text.replace("\n", "\r\n")
        elif kind == "doubled":
            text = text.replace("\n", "\n\n") if rng.random() < 0.5 else text.replace("\n", "\n\n", rng.randrange(1, 9))
        elif kind == "stale":  # a digit between the header and the sha256= line changed
            i = rng.choice([i for i in range(ends[1], ends[-2]) if "0" <= text[i] <= "9"])
            text = text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]
        elif kind == "stages":
            text = text.replace(" stages=100", f" stages={rng.choice((0, 36, 99, 101, 1000))}", 1)
        else:
            text = text.rstrip("\n")
    return text


def _verdict(reader, text, stages):
    try:
        return "accepted", reader(text, stages).stages
    except UnicodeEncodeError as exc:  # the line reader's hash of a non-ASCII stage line
        return "codec", exc.object[exc.start]
    except ValueError as exc:
        return "rejected", str(exc)


_NON_ASCII = "SPLITPART file holds a non-ASCII character "


@pytest.fixture(scope="module")
def v2_text():
    return saves(build_partition(100), version=2)


def test_a_saved_v2_text_is_read_in_one_pass(v2_text):
    # _line_text hands back the text itself, so loads neither splits nor
    # rejoins its lines; a respelled copy is rebuilt into the same text.
    assert _line_text(v2_text) is v2_text
    assert _line_text(v2_text.replace("\n", "\r\n")) == v2_text
    assert _line_text(v2_text.replace("\n", "\n \t\n")) == v2_text
    assert _line_text(" \n" + v2_text) == v2_text


def test_prefix_reads_agree_with_the_line_reader_on_seeded_mutations(v2_text):
    rng = random.Random(1018)
    texts = [v2_text, v2_text.rstrip("\n")] + [_mutant(rng, v2_text) for _ in range(110)]
    third = v2_text.index("\n", v2_text.index("n=2 ")) + 1
    for blank in _BLANKS:  # one blank line, newline-ended, first or among the stage lines
        texts += [f"{blank}\n{v2_text}", f"{v2_text[:third]}{blank}\n{v2_text[third:]}"]
    verdicts = {}
    for text in texts:
        for stages in (0, 1, 7, 36, 37, 99, None):
            verdict, expected = _verdict(loads, text, stages), _verdict(_line_reader_loads, text, stages)
            if expected[0] == "codec":
                assert verdict[0] == "rejected" and verdict[1].startswith(_NON_ASCII), (text, stages)
                offset = int(verdict[1].rpartition(" ")[2])
                assert verdict[1] == f"{_NON_ASCII}{expected[1]!r} at offset {offset}"
                assert text[offset] == expected[1], (text, stages)
            else:
                assert verdict == expected, (text, stages)
            verdicts[expected[0]] = verdicts.get(expected[0], 0) + 1
    # Each verdict occurs often enough for the agreement to mean something.
    assert min(verdicts.values()) >= 40 and len(verdicts) == 3, verdicts


def test_a_non_ascii_stage_line_names_its_offset(tmp_path, capsys, v2_text):
    char, i = "\xe9", v2_text.index("n=5 ") + 6
    text = v2_text[:i] + char + v2_text[i:]
    with pytest.raises(ValueError, match=f"^{re.escape(f'{_NON_ASCII}{char!r} at offset {i}')}$"):
        loads(text)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{_NON_ASCII}{char!r} at offset {i + 4}')}$"):
        loads("\n\t\r\n" + text, stages=2)  # a blank first line and a CRLF counted
    # From a file, every byte must be ASCII: the first other one is named.
    path = tmp_path / "bad.splitpart"
    for encoding, byte in (("utf-8", "0xc3"), ("latin-1", "0xe9")):
        path.write_bytes(text.encode(encoding))
        message = f"SPLITPART file holds a non-ASCII byte {byte} at offset {i}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            load(path, 24)
        assert main(["eval", "--partition", str(path), "--mu", "0:1/1", "--x", "5/8"]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
    save(build_partition(100), path, version=2)
    assert load(path, 24).stages == loads(v2_text, 24).stages

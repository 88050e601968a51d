"""``python -m clarkesat.cli`` runs ``main`` and exits with its code."""

import subprocess
import sys

from clarkesat import cli


def test_module_run_builds_the_same_file_as_main(tmp_path, capsys):
    by_module, by_main = tmp_path / "module.splitpart", tmp_path / "main.splitpart"
    result = subprocess.run(
        [sys.executable, "-m", "clarkesat.cli", "build", "--stages", "3", "--out", str(by_module)],
        capture_output=True, text=True,
    )
    assert cli.main(["build", "--stages", "3", "--out", str(by_main)]) == 0
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == capsys.readouterr().out.replace(str(by_main), str(by_module))
    assert by_module.read_bytes() == by_main.read_bytes()


def test_module_run_exits_with_mains_code(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "clarkesat.cli", "build", "--stages", "0", "--out", str(tmp_path / "p.splitpart")],
        capture_output=True, text=True,
    )
    assert result.returncode == cli.EXIT_USAGE
    assert result.stderr.startswith("error: ")

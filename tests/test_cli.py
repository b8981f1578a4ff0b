import argparse
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from resonance_atlas.cli import main


def run_cli(args):
    return main(args)


def exit_status(args):
    """The status the command exits with: main's return value, or the code
    of argparse's exit on a parse error."""
    try:
        return run_cli(args)
    except SystemExit as exc:
        return exc.code


def test_density_csv(tmp_path, capsys):
    out = tmp_path / "h3.csv"
    code = run_cli(["density", "--d", "3", "--grid", "21", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "theta,h,h_prime"
    assert len(lines) == 22
    first = lines[1].split(",")
    last = lines[-1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0
    assert float(last[0]) == pytest.approx(math.pi) and float(last[1]) == 0.0


def test_density_rejects_even_dimension(tmp_path):
    out = tmp_path / "bad.csv"
    with pytest.raises(SystemExit) as err:
        run_cli(["density", "--d", "4", "--out", str(out)])
    assert err.value.code == 2


def test_density_json_round_trip(tmp_path):
    out = tmp_path / "h3.json"
    assert run_cli(["density", "--d", "3", "--grid", "11", "--out", str(out),
                    "--format", "json"]) == 0
    doc = json.loads(out.read_text())
    assert doc["d"] == 3
    assert len(doc["rows"]) == 11
    assert doc["c_d"] > 0


def test_resonances_and_count_round_trip(tmp_path):
    rfile = tmp_path / "set.json"
    code = run_cli(["resonances", "--a", "1", "--v0-re", "-20", "--radius", "5",
                    "--out", str(rfile)])
    assert code == 0
    doc = json.loads(rfile.read_text())
    assert doc["potential"]["v0_re"] == -20.0
    assert doc["resonances"]

    cfile = tmp_path / "counts.json"
    code = run_cli(["count", "--in", str(rfile), "--r-grid", "2,3,4,5",
                    "--sector", "pi:2*pi", "--out", str(cfile),
                    "--format", "json"])
    assert code == 0
    reports = json.loads(cfile.read_text())
    assert reports[0]["query"]["r"] == 5.0

    # the counts in the report agree with an in-process recount
    from resonance_atlas import ResonanceSet, SectorQuery, count_sector
    rset = ResonanceSet.from_json(rfile)
    q = SectorQuery(5.0, math.pi, 2 * math.pi)
    assert reports[0]["empirical"] == count_sector(rset, q)


def test_deterministic_density_output(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    run_cli(["density", "--d", "3", "--grid", "15", "--out", str(out1)])
    run_cli(["density", "--d", "3", "--grid", "15", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_thread_count_independence(tmp_path):
    one = tmp_path / "one.json"
    two = tmp_path / "two.json"
    base = ["resonances", "--a", "1", "--v0-re", "-20", "--radius", "4"]
    assert run_cli(base + ["--threads", "1", "--out", str(one)]) == 0
    assert run_cli(base + ["--threads", "2", "--out", str(two)]) == 0
    assert one.read_bytes() == two.read_bytes()


@pytest.mark.parametrize("argv", [
    ["--radius", "inf"], ["--radius", "nan"], ["--a", "nan", "--radius", "5"],
    ["--a", "inf", "--radius", "5"], ["--v0-re", "nan", "--radius", "5"]])
def test_resonances_rejects_non_finite_inputs(tmp_path, capsys, argv):
    out = tmp_path / "x.json"
    assert run_cli(["resonances", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert re.search(r"search radius R|radius a|depth v0", err), err
    assert not out.exists()


@pytest.mark.parametrize("only, named", [("99", "[99]"), ("0,12", "[0, 12]")])
def test_verify_rejects_unknown_criteria(capsys, only, named):
    with pytest.raises(SystemExit) as err:
        run_cli(["verify", "--only", only])
    assert err.value.code == 2
    assert f"no criterion {named};" in capsys.readouterr().err


def test_config_file_defaults_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# config for density runs\n"
        "d = 3\n"
        "grid = 9\n"
        "format = csv\n")
    out = tmp_path / "t.csv"
    code = run_cli(["--config", str(cfg), "density", "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 10

    out2 = tmp_path / "t2.csv"
    code = run_cli(["--config", str(cfg), "density", "--grid", "5",
                    "--out", str(out2)])
    assert code == 0
    assert len(out2.read_text().splitlines()) == 6


def test_jensen_command(capsys):
    assert run_cli(["jensen", "--cases", "3"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_angle_expressions_parse():
    from resonance_atlas.cli import _parse_angle
    assert _parse_angle("1.5*pi") == pytest.approx(1.5 * math.pi)
    assert _parse_angle("pi+pi/4") == pytest.approx(1.25 * math.pi)


def test_angle_rejects_object_graph_expression(tmp_path):
    with pytest.raises(SystemExit) as err:
        run_cli(["count", "--in", str(tmp_path / "set.json"), "--sector",
                 "().__class__.__base__.__subclasses__().__len__():pi"])
    assert err.value.code == 2


def test_cli_entry_point_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "resonance_atlas.cli", "density", "--d", "4",
         "--out", "/tmp/x.csv"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": "src"})
    assert proc.returncode == 2


def test_env_threads_default(monkeypatch):
    from resonance_atlas import cli
    monkeypatch.setenv("RESONANCE_ATLAS_THREADS", "7")
    assert cli._default_threads() == 7
    monkeypatch.setenv("RESONANCE_ATLAS_THREADS", "junk")
    with pytest.raises(argparse.ArgumentTypeError, match="worker count must be an integer"):
        cli._default_threads()
    monkeypatch.setenv("RESONANCE_ATLAS_THREADS", "")
    assert cli._default_threads() == 1


@pytest.mark.parametrize("value", ["junk", "0", "-3"])
def test_bad_env_threads_is_a_usage_error_naming_the_variable(monkeypatch, capsys, value):
    monkeypatch.setenv("RESONANCE_ATLAS_THREADS", value)
    assert exit_status(["verify", "--only", "7"]) == 2
    err = capsys.readouterr().err
    assert ("RESONANCE_ATLAS_THREADS: worker count must be an integer >= 1, "
            f"got {value!r}") in err


def test_verify_subset(capsys):
    # criteria 2 and 3 are cheap; the runner prints one line per criterion
    code = run_cli(["verify", "--only", "2,3", "--threads", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS criterion 2" in out
    assert "PASS criterion 3" in out


def test_verify_reports_raising_criterion_and_continues(monkeypatch, capsys):
    from resonance_atlas import acceptance
    from resonance_atlas.errors import BoundaryConflictError

    def broken(ctx):
        raise BoundaryConflictError("channel 7 frame: persistent conflicts")

    monkeypatch.setattr(acceptance, "CRITERIA",
                        [("Broken criterion: always raises", broken, None),
                         *acceptance.CRITERIA[1:3]])
    code = run_cli(["verify", "--threads", "1"])
    out = capsys.readouterr().out
    assert code == 3
    assert ("FAIL criterion 1 (Broken criterion: always raises): raised "
            "BoundaryConflictError: channel 7 frame: persistent conflicts") in out
    assert "PASS criterion 2" in out
    assert "PASS criterion 3" in out


@pytest.fixture(scope="module")
def set_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("sets") / "set.json"
    assert run_cli(["resonances", "--v0-re", "-20", "--radius", "3",
                    "--out", str(path)]) == 0
    return path


def test_config_value_meets_its_flag_choices(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format = xml\ngrid = 5\n")
    out = tmp_path / "o.csv"
    with pytest.raises(SystemExit) as err:
        run_cli(["--config", str(cfg), "density", "--out", str(out)])
    assert err.value.code == 2
    assert "argument --format: invalid choice: 'xml'" in capsys.readouterr().err
    assert not out.exists()


def test_sector_flag_replaces_config_sectors(tmp_path, set_file):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sector = pi:1.25*pi\n")
    out = tmp_path / "c.json"
    assert run_cli(["--config", str(cfg), "count", "--in", str(set_file),
                    "--r-grid", "2,3", "--sector", "pi:2*pi", "--out", str(out)]) == 0
    reports = json.loads(out.read_text())
    assert [(rep["query"]["phi"], rep["query"]["theta"]) for rep in reports] == [
        (math.pi, 2 * math.pi)]

    cfg.write_text("sector = pi:1.25*pi; pi:2*pi\nr-grid = 2,3\nno_such_option = 1\n")
    assert run_cli(["--config", str(cfg), "count", "--in", str(set_file),
                    "--out", str(out)]) == 0
    reports = json.loads(out.read_text())
    assert [rep["query"]["theta"] for rep in reports] == [1.25 * math.pi, 2 * math.pi]
    assert reports[0]["query"]["r"] == 3.0


@pytest.mark.parametrize("base, flags, config, named", [
    (["family", "--r", "2"], ["--bump-radius", "nan"], "bump-radius = nan", "bump_radius"),
    (["family", "--r", "2"], ["--bump-radius", "0"], "bump_radius = 0", "bump_radius"),
    (["family", "--r", "2"], ["--bump-radius", "-0.5", "--grid-n", "3"],
     "bump_radius = -0.5\ngrid_n = 3", "bump_radius"),
    (["family", "--r", "2"], ["--grid-n", "0"], "grid-n = 0", "grid size n"),
    (["density", "--grid", "5", "--out", "{out}"], ["--abs-tol", "nan"],
     "abs_tol = nan", "abs_tol"),
    (["count", "--in", "{set}"], ["--r-grid", "nan"], "r_grid = nan", "count radius"),
    (["count", "--in", "{set}"], ["--r-grid", "2,nan"], "r_grid = 2,nan", "count radius"),
    (["jensen"], ["--cases", "-1"], "cases = -1", "cases")])
def test_invalid_value_is_a_usage_error_as_flag_or_config(
        tmp_path, capsys, set_file, base, flags, config, named):
    out = tmp_path / "t.csv"
    base = [arg.format(out=out, set=set_file) for arg in base]
    assert exit_status(base + flags) == 2
    assert named in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config + "\n")
    assert exit_status(["--config", str(cfg), *base]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grid", ["nan", "2,nan", "0", "2,-1", "inf"])
def test_count_rejects_bad_radius_when_parsing(tmp_path, capsys, set_file, grid):
    # the error names the option, as argparse does for --only and --format
    argv = ["count", "--in", str(set_file)]
    with pytest.raises(SystemExit) as err:
        run_cli(argv + ["--r-grid", grid])
    assert err.value.code == 2
    assert "argument --r-grid: count radius" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"r-grid = {grid}\n")
    with pytest.raises(SystemExit) as err:
        run_cli(["--config", str(cfg), *argv])
    assert err.value.code == 2
    assert "argument --r-grid: count radius" in capsys.readouterr().err


_BAD_TOP_LEVEL = {"string radius": ("search_radius", "40"),
                  "negative radius": ("search_radius", -1.25),
                  "tolerances list": ("tolerances", [])}


_BAD_RESIDUAL = {"string residual": "x", "nan residual": math.nan,
                 "negative residual": -1e-9, "boolean residual": False}


def _malformed(doc, case):
    """The resonance file's document broken as ``case`` says."""
    if case == "no tolerances":
        del doc["tolerances"]
    elif case == "no residual":
        del doc["resonances"][0]["residual"]
    elif case == "top-level list":
        doc = doc["resonances"]
    elif case in _BAD_TOP_LEVEL:
        key, value = _BAD_TOP_LEVEL[case]
        doc[key] = value
    elif case == "fractional ell":  # with the weight 2*ell + 1 it implies
        doc["resonances"][0].update(ell=1.5, multiplicity=4)
    elif case == "boolean ell":
        doc["resonances"][0].update(ell=True, multiplicity=3)
    elif case in _BAD_RESIDUAL:
        doc["resonances"][0]["residual"] = _BAD_RESIDUAL[case]
    else:  # a weight other than 2*ell + 1
        doc["resonances"][0]["multiplicity"] += 2
    return doc


@pytest.mark.parametrize("case, entry", [
    ("no tolerances", "top level: missing key 'tolerances'"),
    ("no residual", "resonance 0: missing key 'residual'"),
    ("top-level list", "top level: expected a JSON object, got list"),
    ("bad multiplicity", "resonance 0: needs an integer ell >= 0 and multiplicity"),
    ("fractional ell", "resonance 0: needs an integer ell >= 0 and multiplicity"),
    ("boolean ell", "resonance 0: needs an integer ell >= 0 and multiplicity"),
    ("string residual", "resonance 0: needs a finite residual >= 0, got 'x'"),
    ("nan residual", "resonance 0: needs a finite residual >= 0, got nan"),
    ("negative residual", "resonance 0: needs a finite residual >= 0, got -1e-09"),
    ("boolean residual", "resonance 0: needs a finite residual >= 0, got False"),
    ("string radius", "top level: needs a positive finite search_radius"),
    ("negative radius", "top level: needs a positive finite search_radius"),
    ("tolerances list", "top level: needs a positive finite search_radius"),
])
def test_count_rejects_malformed_resonance_file(tmp_path, capsys, set_file, case, entry):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_malformed(json.loads(set_file.read_text()), case)))
    assert run_cli(["count", "--in", str(bad)]) == 2
    assert f"{bad}: {entry}" in capsys.readouterr().err


def test_family_rejects_sector_before_solving(capsys):
    assert run_cli(["family", "--r", "6", "--grid-n", "2", "--sector", "0:pi"]) == 2
    captured = capsys.readouterr()
    assert "solving" not in captured.out
    assert "sector angles" in captured.err


@pytest.mark.parametrize("argv", [["verify", "--only", "x"], ["verify", "--only", ","]])
def test_verify_rejects_non_numeric_only(capsys, argv):
    with pytest.raises(SystemExit) as err:
        run_cli(argv)
    assert err.value.code == 2
    assert "argument --only:" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-2"])
@pytest.mark.parametrize("argv", [["verify", "--only", "7"], ["family", "--r", "2"],
                                  ["resonances", "--radius", "2", "--out", "{out}"]],
                         ids=["verify", "family", "resonances"])
def test_threads_below_one_is_a_usage_error_as_flag_or_config(tmp_path, capsys, argv, threads):
    # rejected when parsing, before any criterion or solve runs
    out = tmp_path / "set.json"
    argv = [arg.format(out=out) for arg in argv]
    assert exit_status(argv + ["--threads", threads]) == 2
    assert "argument --threads: worker count must be an integer >= 1" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"threads = {threads}\n")
    assert exit_status(["--config", str(cfg), *argv]) == 2
    assert "argument --threads: worker count must be an integer >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_readme_cli_block_parses():
    from resonance_atlas.cli import build_parser
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("resonance-atlas ")]
    assert len(lines) == 7
    for line in lines:
        args = build_parser().parse_args(shlex.split(line, comments=True)[1:])
        assert args.command == shlex.split(line)[1]


@pytest.mark.parametrize("command", [
    "density", "resonances", "count", "jensen", "family", "verify"])
def test_command_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli([command, "--help"])
    assert err.value.code == 0
    assert f"usage: resonance-atlas {command}" in capsys.readouterr().out

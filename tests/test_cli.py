"""End-to-end tests for the batch command-line front end.

These run ``main`` in process with argument lists, capture stdout/stderr, and
check the rendered tables against library values, the documented exit codes,
and byte-for-byte determinism of reruns.
"""

import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from imagewell import cli
from imagewell import schrodinger as sc
from imagewell.constants import ELECTRON_MASS_KG, NEUTRON_MASS_KG


def read_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# Argument grammar


def test_parse_sweep_grammar():
    spec = cli.parse_sweep("1:5:9")
    assert (spec.start, spec.stop, spec.count, spec.log) == (1.0, 5.0, 9, False)
    assert np.allclose(spec.values(), np.linspace(1.0, 5.0, 9))
    single = cli.parse_sweep("2.5")
    assert single.count == 1 and single.values().tolist() == [2.5]
    logspec = cli.parse_sweep("0.1:100:7:log")
    assert logspec.log and np.allclose(logspec.values(), np.geomspace(0.1, 100.0, 7))
    for bad in ("1:2", "a:b:3", "1:5:2:lin", ""):
        with pytest.raises(ValueError):
            cli.parse_sweep(bad)
    # every sweep has at least one point and finite ends
    for bad in ("0.1:0.9:0", "0.1:0.9:-3", "0.1:0.9:0:log"):
        with pytest.raises(ValueError, match="count must be >= 1"):
            cli.parse_sweep(bad)
    for bad in ("inf", "nan", "0:inf:3", "-inf:1:2", "1:nan:2:log"):
        with pytest.raises(ValueError, match="must be finite"):
            cli.parse_sweep(bad)
    # geometric points need ends of one sign
    negative = cli.parse_sweep("-5:-0.1:3:log").values()
    assert negative.tolist() == pytest.approx([-5.0, -0.7071, -0.1], rel=1e-4)
    for bad in ("-0.5:0.5:3:log", "0:1:3:log", "1:0:3:log", "0:0:1:log"):
        with pytest.raises(ValueError, match="nonzero ends of one sign"):
            cli.parse_sweep(bad)
    # the count is capped before any point is built
    assert cli.parse_sweep(f"1:2:{cli._MAX_ROWS}").count == cli._MAX_ROWS
    for bad in (f"1:2:{cli._MAX_ROWS + 1}", "1:2:100000000000", "1:2:100000000000:log"):
        with pytest.raises(ValueError, match=f"<= {cli._MAX_ROWS}"):
            cli.parse_sweep(bad)


def test_parse_layers_grammar():
    assert cli.parse_layers("4") == [4]
    assert cli.parse_layers("1:5") == [1, 2, 3, 4, 5]
    assert cli.parse_layers("1:9:2") == [1, 3, 5, 7, 9]
    for bad in ("5:1", "1:5:0", "x", "1:2:3:4"):
        with pytest.raises(ValueError):
            cli.parse_layers(bad)
    # so is the number of layer counts
    assert len(cli.parse_layers(f"0:{2 * cli._MAX_ROWS - 1}:2")) == cli._MAX_ROWS
    for bad in (f"1:{cli._MAX_ROWS + 1}", "0:100000000000"):
        with pytest.raises(ValueError, match=f"at most {cli._MAX_ROWS}"):
            cli.parse_layers(bad)


def test_parse_eps_accepts_metal_spellings():
    assert cli.parse_eps("metal") == math.inf
    assert cli.parse_eps("Metal") == math.inf
    assert cli.parse_eps(" inf ") == math.inf
    assert cli.parse_eps("12.9") == 12.9
    with pytest.raises(ValueError):
        cli.parse_eps("shiny")


# ---------------------------------------------------------------------------
# Flag parsing and validation


POTENTIAL_ARGS = [
    "potential", "--k1", "2", "--k2", "1", "--k3", "5",
    "--a", "0", "--b", "1", "--z0", "0.4",
]


def test_parse_args_defaults():
    cfg = cli.parse_args(POTENTIAL_ARGS)
    assert cfg.command == "potential" and cfg.fmt == "csv" and cfg.out is None
    assert cfg.params["q"] == 1.0 and cfg.params["tol"] == 1.0e-10
    assert cfg.params["k3"] == 5.0
    metal = cli.parse_args(POTENTIAL_ARGS[:6] + ["metal"] + POTENTIAL_ARGS[7:])
    assert metal.params["k3"] == math.inf


def test_negative_values_may_follow_their_flag():
    # argparse alone reads "-0.29:0.9:3" and "-1e-3" as unknown options
    cfg = cli.parse_args(["potential", "--k1", "2", "--k2", "1", "--k3", "5", "--a", "-0.3",
                          "--b", "1", "--z0", "-0.29:0.9:3", "--q", "-1e-3"])
    assert cfg.params["z0"] == cli.SweepSpec(-0.29, 0.9, 3)
    assert (cfg.params["a"], cfg.params["q"]) == (-0.3, -1.0e-3)
    assert cli.parse_args(["plates", "--gap", "1", "--q", "-.5"]).params["q"] == -0.5


def test_parse_args_collects_every_problem_at_once():
    with pytest.raises(cli.UsageError) as exc:
        cli.parse_args(["levitate"])
    message = str(exc.value)
    for flag in ("--gap", "--n", "--area"):
        assert f"{flag} is required" in message


def test_validation_rules_reject_bad_values():
    bad_invocations = [
        ["eigen", "--gap", "0"],
        ["eigen", "--gap", "1", "--points", "10"],
        ["eigen", "--gap", "1", "--format", "yaml"],
        ["potential"] + POTENTIAL_ARGS[1:-1] + ["2.0"],  # z0 outside the slab
        ["schottky", "--material", "Nope", "--gap", "1"],
        ["film", "--material", "GaAs", "--layers", "1"],  # no layer thickness
        ["levitate", "--gap", "1", "--n", "1", "--area", "0", "--delta", "0.5"],
        ["levitate", "--gap", "1", "--n", "1", "--area", "nan", "--hamaker", "0"],
        ["levitate", "--gap", "1", "--n", "1", "--area", "inf", "--hamaker", "0"],
        ["levitate", "--gap", "1", "--n", "1", "--area", "0", "--hamaker", "nan"],
        ["levitate", "--gap", "1", "--n", "1", "--area", "0", "--hamaker", "inf"],
        # every subcommand with --q needs a finite charge
        POTENTIAL_ARGS + ["--q", "nan"],
        ["eigen", "--gap", "1", "--q", "nan"],
        ["plates", "--gap", "1", "--q=-inf"],
        ["levitate", "--gap", "1", "--n", "1", "--area", "0", "--q", "inf"],
        # sweeps need a point and finite ends; gap and truncation radius are finite
        POTENTIAL_ARGS[:-1] + ["0.1:0.9:-3"],
        POTENTIAL_ARGS[:-1] + ["0.1:0.9:0"],
        ["plates", "--gap", "1:5:0"],
        ["eigen", "--gap", "inf"],
        ["schottky", "--material", "GaAs", "--gap", "0:inf:3"],
        ["schottky", "--material", "GaAs", "--gap", "1", "--dmax", "inf"],
        ["film", "--material", "sAr", "--layers", "1", "--dmax", "inf"],
        # the stack rejects impossible permittivities, and the whole z0 sweep,
        # descending too, must stay inside the slab
        POTENTIAL_ARGS + ["--k1", "-2"],
        POTENTIAL_ARGS + ["--k2", "nan"],
        POTENTIAL_ARGS + ["--k3", "0"],
        POTENTIAL_ARGS[:-1] + ["0.9:-5:3"],
        # past 10001 points an interval grid's step lies inside the interface guard
        ["eigen", "--gap", "1", "--points", "10002"],
        ["plates", "--gap", "1", "--points", "10002"],
        ["levitate", "--gap", "1", "--n", "1", "--area", "0", "--points", "10002"],
        ["schottky", "--material", "GaAs", "--gap", "1", "--points", "1000000000000"],
        # a sweep or layer list too long to build
        ["plates", "--gap", "1:2:100000000000"],
        ["film", "--material", "sAr", "--layers", "0:100000000000"],
    ]
    for argv in bad_invocations:
        with pytest.raises(cli.UsageError):
            cli.parse_args(argv)
    # a descending sweep that stays inside the slab is fine
    assert cli.parse_args(POTENTIAL_ARGS[:-1] + ["0.9:0.1:3"]).params["z0"].count == 3


def test_every_default_passes_its_own_converter():
    # parse_args does not convert defaults, so each must already lie in its
    # flag's range: a config file or flag spelling the default is accepted
    for command, schema in cli._SCHEMAS.items():
        for name, (conv, default, _help) in {**schema, **cli._GLOBAL_SCHEMA}.items():
            if default is None or default is cli._REQUIRED:
                continue
            text = default.value if isinstance(default, cli.sn.Carrier) else str(default)
            assert conv(text) == default, (command, name)


def test_config_file_supplies_defaults(tmp_path, monkeypatch):
    path = tmp_path / "sweep.ini"
    path.write_text("[schottky]\nmaterial = GaAs\ngap = 0:10:3\n", encoding="ascii")
    cfg = cli.parse_args(["schottky", "--config", str(path)])
    assert cfg.params["material"] == "GaAs"
    assert cfg.params["gap"].count == 3
    # the environment variable is an alternative way to point at the file
    monkeypatch.setenv("IMAGEWELL_CONFIG", str(path))
    env_cfg = cli.parse_args(["schottky"])
    assert env_cfg.params["material"] == "GaAs"
    # explicit flags override file values
    over = cli.parse_args(["schottky", "--material", "InSb", "--config", str(path)])
    assert over.params["material"] == "InSb"
    monkeypatch.delenv("IMAGEWELL_CONFIG")
    bad = tmp_path / "bad.ini"
    bad.write_text("[schottky]\nmaterial = GaAs\ngap = 1\nbogus = 7\n", encoding="ascii")
    with pytest.raises(cli.UsageError, match="bogus"):
        cli.parse_args(["schottky", "--config", str(bad)])
    with pytest.raises(cli.UsageError):
        cli.parse_args(["schottky", "--material", "GaAs", "--gap", "1",
                        "--config", str(tmp_path / "missing.ini")])


# ---------------------------------------------------------------------------
# End-to-end runs


def test_potential_csv_table(capsys):
    assert cli.main(POTENTIAL_ARGS[:-1] + ["0.2:0.8:4"]) == 0
    out = capsys.readouterr().out
    header, rows = read_csv(out)
    assert header == ["z0(nm)", "v_series(V)", "v_images(V)", "v_quadrature(V)",
                      "energy(eV)", "terms(count)"]
    assert len(rows) == 4
    for row in rows:
        v_series, v_images, v_quad = map(float, row[1:4])
        assert abs(v_series - v_images) <= 1e-10 * abs(v_series)
        assert abs(v_series - v_quad) <= 1e-6 * abs(v_series)
        assert float(row[4]) == pytest.approx(v_series, rel=1e-12)  # q = 1


def test_eigen_bare_box_matches_closed_form(capsys):
    assert cli.main(["eigen", "--gap", "1.0", "--q", "0", "--states", "2"]) == 0
    header, rows = read_csv(capsys.readouterr().out)
    assert header == ["state(index)", "energy(eV)", "nodes(count)", "parity", "kind"]
    for i, row in enumerate(rows):
        assert float(row[1]) == pytest.approx(sc.box_energy_ev(1.0, i + 1), rel=1e-6)
        assert row[4] == "box"
    assert rows[0][3] == "even" and rows[1][3] == "odd"


def test_reruns_are_byte_identical(capsys):
    argv = POTENTIAL_ARGS[:-1] + ["0.2:0.8:5"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first
    json_argv = argv + ["--format", "json"]
    assert cli.main(json_argv) == 0
    first_json = capsys.readouterr().out
    assert cli.main(json_argv) == 0
    assert capsys.readouterr().out == first_json


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    assert cli.main(POTENTIAL_ARGS + ["--out", str(target)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(target) in captured.err  # stderr summary names the destination
    header, rows = read_csv(target.read_text(encoding="utf-8"))
    assert header[0] == "z0(nm)" and len(rows) == 1


def test_json_document_structure(capsys):
    assert cli.main(["film", "--material", "sAr", "--layers", "1:2",
                     "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "film"
    assert doc["metadata"]["package"] == "imagewell"
    assert doc["metadata"]["registry_version"] == 1
    assert doc["metadata"]["failed_rows"] == []
    assert [row["layers(count)"] for row in doc["rows"]] == [1, 2]
    for row in doc["rows"]:
        assert row["e0(eV)"] < 0.0
        assert set(doc["columns"]) == set(row)


def test_json_never_emits_bare_nan_tokens(capsys):
    # an always-attractive budget: the levitated mass is undefined (null)
    assert cli.main(["levitate", "--gap", "3.0", "--n", "0", "--area", "1e-6",
                     "--hamaker", "0", "--format", "json"]) == 0
    text = capsys.readouterr().out
    assert "NaN" not in text and "Infinity" not in text
    doc = json.loads(text)
    row = doc["rows"][0]
    assert row["mass(kg)"] is None
    assert row["repulsive"] is False
    assert row["f_total(N)"] < 0.0


def test_levitate_csv_renders_nan_and_booleans(capsys):
    assert cli.main(["levitate", "--gap", "3.0", "--n", "0", "--area", "1e-6",
                     "--hamaker", "0"]) == 0
    header, rows = read_csv(capsys.readouterr().out)
    row = dict(zip(header, rows[0]))
    assert row["mass(kg)"] == "NaN"
    assert row["repulsive"] == "false"
    assert row["f_casimir(N)"].startswith("-")


def test_levitate_neutron_row(capsys):
    m_eff = NEUTRON_MASS_KG / ELECTRON_MASS_KG
    assert cli.main(["levitate", "--gap", "1.0", "--n", "1", "--area", "0",
                     "--hamaker", "0", "--q", "0", "--mass", repr(m_eff)]) == 0
    header, rows = read_csv(capsys.readouterr().out)
    row = dict(zip(header, rows[0]))
    assert float(row["mass(kg)"]) == pytest.approx(6.7022e-15, rel=1e-3)
    assert row["repulsive"] == "true" and row["stable"] == "true"
    # negative zero is normalized away in every numeric cell
    assert all(not cell.startswith("-0,") and cell != "-0" for cell in rows[0])


def test_failed_row_exits_one(capsys, monkeypatch):
    real = cli.sn.schottky_gap_sweep

    def sabotaged(*args, **kwargs):
        rows = list(real(*args, **kwargs))
        rows[0] = dataclasses.replace(rows[0], failed=True, message="synthetic failure")
        return rows

    monkeypatch.setattr(cli.sn, "schottky_gap_sweep", sabotaged)
    assert cli.main(["schottky", "--material", "GaAs", "--gap", "1.0"]) == 1
    captured = capsys.readouterr()
    assert "synthetic failure" in captured.err
    assert captured.out.count("\n") == 2  # header plus the flagged row


LEVITATE_TAIL = ["--n", "1", "--area", "0", "--hamaker", "0"]


@pytest.mark.parametrize("bad", [
    ["--gap", "1e-300"], ["--gap", "1", "--q", "1e200"], ["--gap", "1e-150", "--mass", "1e-7"],
    ["--gap", "1", "--mass", "1e-308"], ["--gap", "1.6", "--mass", "1e-310"],
], ids=["tiny_gap", "huge_charge", "tiny_gap_light", "tiny_mass", "subnormal_mass"])
def test_unsolvable_plates_exit_one_with_typed_errors(capsys, bad):
    # a step too fine for Numerov, a potential past the float range, or a
    # step and mass whose Numerov coefficient h^2/12 2m is not a normal float
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["eigen"] + bad) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "imagewell: GridError: " in captured.err
        for command in (["plates"] + bad, ["levitate"] + bad + LEVITATE_TAIL):
            assert cli.main(command) == 1
            captured = capsys.readouterr()
            header, rows = read_csv(captured.out)
            assert len(rows) == 1 and rows[0][1] == "NaN"
            assert "row 0 failed: " in captured.err


def test_plates_solve_grids_up_to_the_interface_guard(capsys):
    # no potential sample lies closer to a plate than one grid step, so grids
    # solve until that step falls inside the MIN_OFFSET_FRAC guard (1e-4 gap)
    for points in ("8001", "10001"):
        assert cli.main(["plates", "--gap", "0.9", "--points", points]) == 0
        header, rows = read_csv(capsys.readouterr().out)
        assert len(rows) == 1 and "NaN" not in rows[0]
    # one more point and every interval row would fail: a usage error
    assert cli.main(["plates", "--gap", "0.9", "--points", "10002"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--points: must be in [50, 10001]" in captured.err


def test_wide_gap_double_wells_solve_at_any_state_count(capsys):
    # the two wells decouple below float resolution at these gaps, which left
    # the lone ground state or the third state with the wrong node count
    for argv in (["plates", "--gap", "14", "--states", "1"],
                 ["plates", "--gap", "20", "--states", "3"]):
        assert cli.main(argv) == 0
        header, rows = read_csv(capsys.readouterr().out)
        assert len(rows) == 1 and "NaN" not in rows[0]
    assert cli.main(["eigen", "--gap", "15", "--states", "4"]) == 0
    header, rows = read_csv(capsys.readouterr().out)
    assert [row[2:4] for row in rows] == [["0", "even"], ["1", "odd"], ["2", "even"],
                                          ["3", "odd"]]


def test_module_entry_point_matches_in_process(capsys):
    src = Path(cli.__file__).resolve().parents[1]
    path = [str(src)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    argv = ["eigen", "--gap", "1.6"]
    done = subprocess.run([sys.executable, "-m", "imagewell", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert cli.main(argv) == done.returncode == 0
    assert done.stdout == capsys.readouterr().out


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
REFERENCE_RTOL = 1.0e-9


def test_readme_commands_match_recorded_reference(capsys):
    # the README examples against their recorded stdout, cell by cell as the
    # benchmark's gate compares them: numbers to 1e-9 relative, text exactly
    recorded = json.loads(REFERENCE.read_text(encoding="utf-8"))["stdout"]
    assert len(recorded) == 7
    for command, expected in recorded.items():
        assert cli.main(command.split()) == 0, command
        header, rows = read_csv(capsys.readouterr().out)
        want_header, want_rows = read_csv(expected)
        assert header == want_header and len(rows) == len(want_rows), command
        for row, want in zip(rows, want_rows):
            assert len(row) == len(want), command
            for cell, ref in zip(row, want):
                try:
                    a, b = float(cell), float(ref)
                except ValueError:
                    assert cell == ref, command
                    continue
                same = a == b or abs(a - b) <= REFERENCE_RTOL * max(abs(a), abs(b))
                assert same or (math.isnan(a) and math.isnan(b)), (command, cell, ref)


def test_usage_errors_exit_two(capsys):
    assert cli.main(["eigen", "--gap", "0"]) == 2
    assert cli.main(["eigen", "--gap", "1:2"]) == 2
    assert cli.main(["schottky", "--material", "Nope", "--gap", "1"]) == 2
    assert cli.main(["levitate", "--gap", "1", "--n", "1", "--area", "nan", "--hamaker", "0"]) == 2
    assert cli.main(POTENTIAL_ARGS + ["--q", "nan"]) == 2
    err = capsys.readouterr().err
    assert "invalid invocation" in err
    # the library's message, not its quoted repr
    assert "\n  - unknown material 'Nope'; known: [" in err

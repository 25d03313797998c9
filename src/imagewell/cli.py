"""Batch command-line front end.

Subcommands map one-to-one onto the library's study functions:

* ``potential`` -- induced potential of a charge inside a slab, by all
  three mutually verifying routes;
* ``eigen``     -- spectrum of a charge between two metal plates (``--q 0``
  gives the bare particle-in-a-box spectrum);
* ``schottky``  -- semiconductor/vacuum-gap/metal ground-state sweep;
* ``film``      -- noble-gas film sweeps with effective-permittivity readout;
* ``plates``    -- two-plate spectra across a gap sweep;
* ``levitate``  -- force budget and levitated mass across a gap sweep.

Sweeps use the grammar ``start:stop:count`` or ``start:stop:count:log``
(a bare number is a single point; a log sweep's ends are nonzero and of one
sign); layer lists use ``start:stop[:step]``.
A config file (ini-style ``key = value`` under a ``[command]`` section,
path from ``--config`` or the ``IMAGEWELL_CONFIG`` environment variable)
supplies defaults; command-line flags override it.  Output is CSV (RFC-4180
quoting, units in every numeric column header) or JSON (rows plus a
metadata object); reruns with the same config are byte-identical, so
wall-clock timing is reported on stderr only.  Every flag is checked
before any work: each converter rejects the values its flag cannot take, and
rules that span flags come from the library objects that own them.  A
failed point keeps its row, as NaN and empty labels, with its message on
stderr and in the JSON metadata.  One rule writes every cell: 12 significant
digits, NaN, inf, -inf, true, false, integers as integers; JSON reads that
text back, NaN as null and the infinities as strings.  Exit status: 0 when no
row failed, 1 when any row carries a failure flag, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import functools
import io
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from . import electrostatics as el
from . import scenarios as sn
from .errors import ImagewellError

_REQUIRED = object()
# The most points a sweep or layer list may ask for, checked before any is
# built: a far larger count cannot finish, and its grid alone can exhaust memory.
_MAX_ROWS = 1_000_000


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class SweepSpec:
    start: float
    stop: float
    count: int
    log: bool = False

    def values(self) -> np.ndarray:
        if self.log:
            return np.geomspace(self.start, self.stop, self.count)
        return np.linspace(self.start, self.stop, self.count)


def parse_sweep(text: str) -> SweepSpec:
    """A sweep of at least one point between finite ends a finite distance
    apart, else ValueError."""
    parts = text.split(":")
    if len(parts) == 1:
        parts = [parts[0], parts[0], "1"]
    spec = None
    try:
        if len(parts) == 3 or (len(parts) == 4 and parts[3] == "log"):
            spec = SweepSpec(float(parts[0]), float(parts[1]), int(parts[2]), len(parts) == 4)
    except ValueError:
        pass
    if spec is None:
        raise ValueError(f"bad sweep spec {text!r}; expected start:stop:count[:log]")
    if not 1 <= spec.count <= _MAX_ROWS:
        raise ValueError(f"count must be >= 1 and <= {_MAX_ROWS}")
    if not math.isfinite(spec.stop - spec.start):  # inf - inf is NaN
        raise ValueError("start, stop and stop - start must be finite")
    if spec.log and not (min(spec.start, spec.stop) > 0.0 or max(spec.start, spec.stop) < 0.0):
        raise ValueError("a log sweep needs nonzero ends of one sign")
    return spec


def parse_layers(text: str) -> list[int]:
    try:
        bounds = [int(part) for part in text.split(":")]
    except ValueError:
        bounds = []
    if len(bounds) == 1:  # a single count n is n:n
        bounds *= 2
    if len(bounds) not in (2, 3) or bounds[1] < bounds[0] or min(bounds[2:], default=1) <= 0:
        raise ValueError(
            f"bad layer spec {text!r}; expected start:stop[:step] or a single integer")
    counts = range(bounds[0], bounds[1] + 1, *bounds[2:])
    if len(counts) > _MAX_ROWS:
        raise ValueError(f"at most {_MAX_ROWS} layer counts")
    return list(counts)


def parse_eps(text: str) -> float:
    if text.strip().lower() in ("metal", "inf", "infinity"):
        return math.inf
    return float(text)


def _carrier(text: str) -> sn.Carrier:
    return sn.Carrier(text.strip().lower())


def _checked(conv, ok, need: str):
    """``conv`` that also rejects, as ``must be <need>``, every value its
    flag cannot take."""
    def convert(text):
        value = conv(text)
        if not ok(value):
            raise ValueError(f"must be {need}")
        return value
    return convert


_MAX_POINTS = 10001  # a chosen cap; widening it is ROADMAP G's call
_POINTS = _checked(int, lambda n: 50 <= n <= _MAX_POINTS, f"in [50, {_MAX_POINTS}]")
_STATES = _checked(int, lambda n: n >= 1, ">= 1")
_CHARGE = _checked(float, math.isfinite, "finite")
_POSITIVE = _checked(float, lambda x: 0.0 < x < math.inf, "finite and > 0")
_INDEX = _checked(int, lambda n: n >= 0, ">= 0")
_GAPS = _checked(parse_sweep, lambda s: s.count == 1 or s.start < s.stop,
                 "ascending (start < stop) when count > 1")
_OPEN_GAPS = _checked(_GAPS, lambda s: s.start > 0.0, "> 0")


def _switch(force: str):
    return _checked(float, lambda x: 0.0 <= x < math.inf,
                    f"finite and >= 0 (0 switches {force} off)")


# name -> (converter, default or _REQUIRED, help)
_GLOBAL_SCHEMA = {
    "out": (str, None, "output path (default: stdout)"),
    "format": (_checked(str, lambda f: f in ("csv", "json"), "csv or json"), "csv", "csv or json"),
}

_SCHEMAS: dict[str, dict] = {
    "potential": {
        "k1": (parse_eps, _REQUIRED, "left half-space permittivity (number or Metal)"),
        "k2": (parse_eps, _REQUIRED, "slab permittivity hosting the charge"),
        "k3": (parse_eps, _REQUIRED, "right half-space permittivity (number or Metal)"),
        "a": (float, _REQUIRED, "left interface position (nm)"),
        "b": (float, _REQUIRED, "right interface position (nm)"),
        "z0": (parse_sweep, _REQUIRED, "charge position sweep inside (a, b) (nm)"),
        "q": (_CHARGE, 1.0, "charge in elementary units"),
        "tol": (_checked(float, lambda x: 0.0 < x < 1.0, "in (0, 1)"), 1.0e-10,
                "relative truncation tolerance of the series and images routes"),
    },
    "eigen": {
        "gap": (_POSITIVE, _REQUIRED, "plate separation (nm)"),
        "q": (_CHARGE, -1.0, "charge in elementary units (0 = bare box)"),
        "mass": (_POSITIVE, 1.0, "effective mass in electron masses"),
        "states": (_STATES, 2, "number of states"),
        "points": (_POINTS, 4001, "grid points"),
    },
    "schottky": {
        "material": (str, _REQUIRED, "semiconductor registry name"),
        "carrier": (_carrier, sn.Carrier.ELECTRON, "electron or hole"),
        "gap": (_checked(_GAPS, lambda s: s.start >= 0.0, ">= 0"), _REQUIRED,
                "vacuum gap sweep (nm), 0 allowed as the contact limit"),
        "states": (_STATES, 1, "number of states"),
        "points": (_POINTS, 4001, "grid points"),
        "dmax": (_POSITIVE, None, "override domain truncation (nm)"),
    },
    "film": {
        "material": (str, _REQUIRED, "film registry name (needs a layer thickness)"),
        "layers": (_checked(parse_layers, lambda ns: min(ns) >= 0, "non-negative"), _REQUIRED,
                   "layer counts start:stop[:step]"),
        "states": (_STATES, 1, "number of states"),
        "points": (_POINTS, 4001, "grid points"),
        "dmax": (_POSITIVE, None, "override domain truncation (nm)"),
    },
    "plates": {
        "gap": (_OPEN_GAPS, _REQUIRED, "plate separation sweep (nm)"),
        "states": (_STATES, 2, "number of states"),
        "q": (_CHARGE, -1.0, "charge in elementary units"),
        "mass": (_POSITIVE, 1.0, "effective mass in electron masses"),
        "points": (_POINTS, 4001, "grid points"),
    },
    "levitate": {
        "gap": (_OPEN_GAPS, _REQUIRED, "plate separation sweep (nm)"),
        "n": (_INDEX, _REQUIRED, "number of electrons N (no default by design)"),
        "area": (_switch("Casimir"), _REQUIRED, "plate area in m^2 (explicit by design)"),
        "hamaker": (_switch("VDW"), sn.DEFAULT_HAMAKER_J,
                    "Hamaker constant in J (default is a placeholder, not a sourced value)"),
        "state": (_INDEX, 0, "state index the electrons occupy"),
        "q": (_CHARGE, -1.0, "charge in elementary units"),
        "mass": (_POSITIVE, 1.0, "effective mass in electron masses"),
        "points": (_POINTS, 4001, "grid points"),
        "delta": (_checked(float, lambda x: 0.0 < x < 0.1, "in (0, 0.1)"), 1.0e-3,
                  "relative step for force differentiation"),
    },
}


@dataclass
class RunConfig:
    command: str
    out: str | None
    fmt: str
    params: dict = field(default_factory=dict)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imagewell",
        description="Image-charge wells in layered dielectrics: potentials, spectra, forces.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, schema in _SCHEMAS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", default=None, help="config file path")
        for name, (_conv, default, help_text) in {**schema, **_GLOBAL_SCHEMA}.items():
            shown = default.value if isinstance(default, sn.Carrier) else default
            extra = "" if default in (None, _REQUIRED) else f" [default: {shown}]"
            p.add_argument(f"--{name}", default=None, help=help_text + extra)
    return parser


# argparse takes a token that starts with "-" but is no plain negative
# number, such as the sweep -0.29:0.9:3 or the charge -1e-3, for an option
_NEGATIVE_VALUE = re.compile(r"-[\d.]")
_VALUE_FLAGS = {"--config", *(f"--{name}" for schema in (*_SCHEMAS.values(), _GLOBAL_SCHEMA)
                               for name in schema)}


def _join_negative_values(argv: list[str]) -> list[str]:
    """``argv`` with each value flag followed by a token that starts with "-"
    and a digit or "." rejoined as ``--flag=value``."""
    joined: list[str] = []
    for token in argv:
        if joined and joined[-1] in _VALUE_FLAGS and _NEGATIVE_VALUE.match(token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def _read_config_section(path: str, command: str) -> dict[str, str]:
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise UsageError(f"config file {path!r} not found or unreadable")
    if not cp.has_section(command):
        return {}
    return dict(cp.items(command))


def parse_args(argv=None) -> RunConfig:
    """Parse flags (and optional config-file defaults) into a validated
    RunConfig; a UsageError lists every violated constraint at once (a
    rule spanning flags only once the flags it reads are valid)."""
    argv = sys.argv[1:] if argv is None else argv
    ns = build_parser().parse_args(_join_negative_values(argv))
    command = ns.command
    schema = {**_SCHEMAS[command], **_GLOBAL_SCHEMA}

    config_path = ns.config or os.environ.get("IMAGEWELL_CONFIG")
    file_values = _read_config_section(config_path, command) if config_path else {}
    unknown = sorted(set(file_values) - set(schema))
    problems = [f"config key {k!r} unknown for {command!r}" for k in unknown]

    values: dict = {}
    for name, (conv, default, _help) in schema.items():
        raw = getattr(ns, name)
        if raw is None:
            raw = file_values.get(name)
        if raw is None:
            if default is _REQUIRED:
                problems.append(f"--{name} is required")
                continue
            values[name] = default
            continue
        try:
            values[name] = conv(raw)
        except (ValueError, TypeError) as exc:
            problems.append(f"--{name}: {exc}")

    problems += _cross_flag_problems(command, values)
    if problems:
        raise UsageError("invalid invocation:\n  - " + "\n  - ".join(problems))
    return RunConfig(command, values.pop("out"), values.pop("format"), values)


def _cross_flag_problems(command: str, v: dict) -> list[str]:
    """Rules that span flags, each stated by the library object that owns
    it.  A rule is skipped when a flag it reads failed its own check."""
    flag = ""
    try:
        if command == "potential":
            stack = el.DielectricStack(v["k1"], v["k2"], v["k3"], v["a"], v["b"])
            flag = "--z0: "  # a sweep lies inside the slab when both its ends do
            el._require_source(stack, np.asarray([v["z0"].start, v["z0"].stop]), v["q"])
        elif command == "schottky":
            sn.carrier_mass(sn.get_material(v["material"]), v["carrier"])
        elif command == "film" and sn.get_material(v["material"]).layer_thickness_nm is None:
            return [f"--material: {v['material']} has no layer thickness"]
    except ImagewellError as exc:  # MaterialNotFoundError too, before KeyError
        return [flag + str(exc)]
    except KeyError:  # a flag the rule reads failed its own check
        pass
    return []


# ---------------------------------------------------------------------------
# Run


def _flagged(records):
    """(index, message) of each row the library flagged as failed."""
    return [(i, r.message) for i, r in enumerate(records) if r.failed]


def _run_potential(p):
    stack = el.DielectricStack(p["k1"], p["k2"], p["k3"], p["a"], p["b"])
    header = ["z0(nm)", "v_series(V)", "v_images(V)", "v_quadrature(V)",
              "energy(eV)", "terms(count)"]

    def solve(z0):
        se = el.potential_slab_series(stack, z0, q=p["q"], tol=p["tol"])
        im = el.potential_slab_images(stack, z0, q=p["q"], tol=p["tol"])
        qd = el.potential_kernel_quadrature(stack, z0, q=p["q"])
        return [z0, se.v, im.v, qd.v, se.energy_ev(p["q"]), se.terms_used]

    rows, failed = sn._each_flagged(map(float, p["z0"].values()), solve,
                                    lambda z0, _: [z0, *[math.nan] * 4, 0])
    meta = {"tolerance": p["tol"], "max_series_terms": max(row[-1] for row in rows)}
    return header, rows, failed, meta


def _run_eigen(p):
    header = ["state(index)", "energy(eV)", "nodes(count)", "parity", "kind"]
    spec = sn.two_plate_spectrum(p["gap"], p["states"], q=p["q"],
                                 m_eff=p["mass"], n_points=p["points"])
    rows = [
        [i, s.energy_ev, s.nodes, s.parity.value, s.kind.value]
        for i, s in enumerate(spec.states)
    ]
    meta = {"gap_nm": p["gap"], "u_max_ev": spec.u_max_ev, "n_points": p["points"]}
    return header, rows, [], meta


def _sweep_rows_to_table(sweep, n_states):
    header = ["gap(nm)", *(f"e{i}(eV)" for i in range(n_states)), "bohr(nm)",
              *(f"kind{i}" for i in range(n_states))]
    rows = [[r.gap_nm, *r.energies_ev, r.bohr_nm[0], *(k.value if k else "" for k in r.kinds)]
            for r in sweep]
    return header, rows, _flagged(sweep)


def _run_schottky(p):
    mat = sn.get_material(p["material"])
    sweep = sn.schottky_gap_sweep(
        mat, p["carrier"], p["gap"].values(), n_states=p["states"],
        n_points=p["points"], d_max_nm=p["dmax"],
    )
    header, rows, failed = _sweep_rows_to_table(sweep, p["states"])
    meta = {"material": mat.name, "carrier": p["carrier"].value,
            "eps": mat.eps, "m_eff": sn.carrier_mass(mat, p["carrier"]),
            "n_points": p["points"]}
    return header, rows, failed, meta


def _run_film(p):
    mat = sn.get_material(p["material"])
    sweep = sn.noble_film_sweep(
        mat, p["layers"], n_states=p["states"], n_points=p["points"],
        d_max_nm=p["dmax"],
    )
    header, rows, failed = _sweep_rows_to_table(sweep, p["states"])
    k = p["states"] + 2  # the readout follows the gap, the energies and bohr
    header[:k] = ["layers(count)", *header[:k], "eff_eps(1)"]
    for r, row in zip(sweep, rows):
        try:  # inf with no film, NaN where the table reads out no radius
            eff = math.inf if r.layers == 0 else sn.effective_epsilon(r.bohr_nm[0])
        except ImagewellError:
            eff = math.nan
        row[:k] = [r.layers, *row[:k], eff]
    meta = {"material": mat.name, "eps": mat.eps,
            "layer_thickness_nm": mat.layer_thickness_nm, "n_points": p["points"]}
    return header, rows, failed, meta


def _run_plates(p):
    n = p["states"]
    header = ["gap(nm)"] + [f"e{i}(eV)" for i in range(n)]
    header += ["u_max(eV)"] + [f"kind{i}" for i in range(n)]

    def solve(gap):
        spec = sn.two_plate_spectrum(gap, n, q=p["q"], m_eff=p["mass"], n_points=p["points"])
        return ([gap] + [s.energy_ev for s in spec.states]
                + [spec.u_max_ev] + [s.kind.value for s in spec.states])

    rows, failed = sn._each_flagged(map(float, p["gap"].values()), solve,
                                    lambda gap, _: [gap, *[math.nan] * (n + 1), *[""] * n])
    meta = {"n_points": p["points"], "m_eff": p["mass"], "q": p["q"]}
    return header, rows, failed, meta


def _run_levitate(p):
    header = ["gap(nm)", "mass(kg)", "f_total(N)", "f_plate_plate(N)",
              "f_binding(N)", "f_casimir(N)", "f_vdw(N)", "e_binding(eV)",
              "u_plate_plate(eV)", "repulsive", "stable"]
    curve = sn.levitation_curve(
        p["gap"].values(), p["n"], p["area"], p["hamaker"],
        state_index=p["state"], q=p["q"], m_eff=p["mass"],
        n_points=p["points"], delta_frac=p["delta"],
    )
    rows = []
    for r in curve:
        b = r.breakdown
        rows.append([r.gap_nm, r.mass_kg, b.f_total_n, b.f_plate_plate_n,
                     b.f_binding_n, b.f_casimir_n, b.f_vdw_n, b.e_binding_ev,
                     b.u_plate_plate_ev, r.repulsive, r.stable])
    meta = {"n_electrons": p["n"], "area_m2": p["area"], "hamaker_j": p["hamaker"],
            "state_index": p["state"], "n_points": p["points"]}
    return header, rows, _flagged(curve), meta


_RUNNERS = {
    "potential": _run_potential,
    "eigen": _run_eigen,
    "schottky": _run_schottky,
    "film": _run_film,
    "plates": _run_plates,
    "levitate": _run_levitate,
}


def _format_cell(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return "NaN" if math.isnan(x) else format(float(x) + 0.0, ".12g")
    return str(x)


def _json_cell(x):
    """A cell's JSON value: its CSV text read back by the one cell rule."""
    text = _format_cell(x)
    if isinstance(x, str) or text in ("inf", "-inf"):
        return text
    if text in ("true", "false", "NaN"):
        return None if text == "NaN" else text == "true"
    return int(text) if isinstance(x, (int, np.integer)) else float(text)


def render(cfg: RunConfig, header, rows, failed, meta) -> str:
    if cfg.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(x) for x in row])
        return buf.getvalue()
    doc = {
        "command": cfg.command,
        "columns": header,
        "rows": [
            {name: _json_cell(x) for name, x in zip(header, row)} for row in rows
        ],
        "metadata": {
            **{k: _json_cell(v) for k, v in meta.items()},
            "failed_rows": [{"row": i, "message": m} for i, m in failed],
            "package": "imagewell",
            "version": __version__,
            "registry_version": sn.REGISTRY_VERSION,
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def run(cfg: RunConfig) -> int:
    """Execute a validated config; returns the process exit status."""
    t0 = time.perf_counter()
    header, rows, failed, meta = _RUNNERS[cfg.command](cfg.params)
    text = render(cfg, header, rows, failed, meta)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    elapsed = time.perf_counter() - t0
    where = cfg.out or "stdout"
    print(f"imagewell {cfg.command}: {len(rows)} rows -> {where} "
          f"({elapsed:.2f} s wall-clock)", file=sys.stderr)
    for idx, message in failed:
        print(f"imagewell {cfg.command}: row {idx} failed: {message}", file=sys.stderr)
    return 1 if failed else 0


def main(argv=None) -> int:
    try:
        cfg = parse_args(argv)
    except UsageError as exc:
        print(f"imagewell: {exc}", file=sys.stderr)
        return 2
    try:
        return run(cfg)
    except ImagewellError as exc:
        print(f"imagewell: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

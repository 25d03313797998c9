"""Correctness gate.  Runs after the timed region, on the captured stdout.

Four checks, each marking the rows it rejects:

* ``potential`` rows: the three routes must agree on the 12-digit CLI
  output.  Series vs images within 1e-10 relative, any pair within 1e-6
  (the tolerances of release criterion 01), and energy = q x v_series.
* README jobs: every cell against ``reference.json``, recorded at the
  commit that introduced this benchmark.  Numbers must agree within
  ``REFERENCE_RTOL``; text cells exactly.
* A seeded sample of spectrum rows (and the binding energy of levitation
  rows) is re-solved with ``diagonalization_oracle``.  The oracle is a
  second-order finite-difference method, so it agrees only to the grid's
  own accuracy: ``ORACLE_RTOL`` of the larger of |E| and, for the interval
  problems, the box ground-state energy of the gap.
* Levitation rows: the force budget must add up, the Casimir and van der
  Waals columns must match their closed forms, and the mass must be
  F_total / g on repulsive rows (NaN otherwise).

Byte-identical reruns are checked by the caller.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

from imagewell import cli
from imagewell import scenarios as sn
from imagewell import schrodinger as sc
from imagewell.constants import HBAR_JS, SPEED_OF_LIGHT_MS, STANDARD_GRAVITY_MS2

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Loose enough for the last-digit drift of a reordered but equivalent
# computation (a 1e-14 energy change moves a finite-difference force by
# about 250 x that, still far below this), tight enough to catch any real
# change of method or grid.
REFERENCE_RTOL = 1.0e-9
SERIES_IMAGES_RTOL = 1.0e-10
ANY_ROUTE_RTOL = 1.0e-6
# Worst shooting-vs-oracle gap seen on these workloads is 2.2e-4 (sAr film,
# one layer); 1e-3 leaves a margin of about 4.5.
ORACLE_RTOL = 1.0e-3
FORCE_RTOL = 1.0e-9


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return [], []
    return rows[0], rows[1:]


def _close(a: float, b: float, rtol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def load_reference() -> dict[str, str]:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))["stdout"]


def reference_key(argv) -> str:
    return " ".join(argv)


def reference_bad_rows(text: str, expected: str) -> set[int]:
    header, rows = parse_csv(text)
    ref_header, ref_rows = parse_csv(expected)
    if header != ref_header or len(rows) != len(ref_rows):
        return set(range(max(len(rows), len(ref_rows))))
    bad = set()
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for cell, want in zip(row, ref):
            try:
                ok = _close(float(cell), float(want), REFERENCE_RTOL)
            except ValueError:
                ok = cell == want
            if not ok:
                bad.add(i)
    return bad


def potential_bad_rows(argv, text: str) -> set[int]:
    q = cli.parse_args(list(argv)).params["q"]
    _header, rows = parse_csv(text)
    bad = set()
    for i, row in enumerate(rows):
        vs, vi, vq, energy = (float(c) for c in row[1:5])
        scale = max(abs(vs), abs(vi), abs(vq))
        ok = (
            scale > 0.0
            and abs(vs - vi) <= SERIES_IMAGES_RTOL * scale
            and abs(vs - vq) <= ANY_ROUTE_RTOL * scale
            and abs(vi - vq) <= ANY_ROUTE_RTOL * scale
            and _close(energy, q * vs, 1.0e-11)
        )
        if not ok:
            bad.add(i)
    return bad


def levitate_bad_rows(argv, text: str) -> set[int]:
    p = cli.parse_args(list(argv)).params
    n, area, hamaker = p["n"], p["area"], p["hamaker"]
    header, rows = parse_csv(text)
    col = {name: k for k, name in enumerate(header)}
    bad = set()
    for i, row in enumerate(rows):
        v = {name: row[k] for name, k in col.items()}
        gap_m = float(v["gap(nm)"]) * 1.0e-9
        f_total = float(v["f_total(N)"])
        parts = (n * n * float(v["f_plate_plate(N)"]), n * float(v["f_binding(N)"]),
                 float(v["f_casimir(N)"]), float(v["f_vdw(N)"]))
        casimir = (-HBAR_JS * SPEED_OF_LIGHT_MS * math.pi**2 * area / (240.0 * gap_m**4)
                   if area > 0.0 else 0.0)
        vdw = -hamaker / (6.0 * math.pi * gap_m**3) if hamaker > 0.0 else 0.0
        repulsive = v["repulsive"] == "true"
        mass = float(v["mass(kg)"])
        ok = (
            abs(f_total - sum(parts)) <= FORCE_RTOL * max(abs(x) for x in parts + (f_total,))
            and _close(parts[2], casimir, FORCE_RTOL)
            and _close(parts[3], vdw, FORCE_RTOL)
            and repulsive == (f_total > 0.0)
            and _close(mass, f_total / STANDARD_GRAVITY_MS2 if repulsive else math.nan, FORCE_RTOL)
        )
        if not ok:
            bad.add(i)
    return bad


def spectrum_units(argv, text: str) -> int:
    """Independent spectra in a job's output: one per row, one per eigen job."""
    _header, rows = parse_csv(text)
    return 1 if argv[0] == "eigen" else len(rows)


def oracle_bad_rows(argv, text: str, units) -> set[int]:
    """Re-solve the chosen spectra with ``diagonalization_oracle``; return the
    rows whose energies disagree."""
    cfg = cli.parse_args(list(argv))
    p = cfg.params
    header, rows = parse_csv(text)
    col = {name: k for k, name in enumerate(header)}
    bad = set()
    for unit in units:
        if cfg.command == "eigen":
            gap, covered = p["gap"], set(range(len(rows)))
            states = [(int(r[0]), float(r[1])) for r in rows]
        else:
            row = rows[unit]
            gap, covered = float(row[col["gap(nm)"]]), {unit}
            if cfg.command == "levitate":
                states = [(p["state"], float(row[col["e_binding(eV)"]]))]
            else:
                states = [(k, float(row[col[f"e{k}(eV)"]])) for k in range(p["states"])]
        if cfg.command in ("eigen", "plates", "levitate"):
            profile = sn.interval_profile(gap, q=p["q"], n_points=p["points"])
            m_eff, scale = p["mass"], sc.box_energy_ev(gap, 1, p["mass"])
        elif cfg.command == "schottky":
            mat = sn.get_material(p["material"])
            m_eff, scale = sn.carrier_mass(mat, p["carrier"]), 0.0
            q = -1.0 if p["carrier"] is sn.Carrier.ELECTRON else 1.0
            profile = sn.halfline_profile(mat.eps, 1.0, gap, m_eff=m_eff, q=q,
                                          n_states=p["states"], n_points=p["points"],
                                          d_max_nm=p["dmax"])
        else:  # film: the gap column is layers x layer thickness
            m_eff, scale = 1.0, 0.0
            profile = sn.halfline_profile(1.0, sn.get_material(p["material"]).eps, gap,
                                          n_states=p["states"], n_points=p["points"],
                                          d_max_nm=p["dmax"])
        if not _oracle_agrees(profile, m_eff, states, scale):
            bad |= covered
    return bad


def _oracle_agrees(profile, m_eff: float, states, scale_ev: float) -> bool:
    n_states = max(k for k, _ in states) + 1
    oracle = sc.diagonalization_oracle(profile, m_eff, n_states)
    for k, energy in states:
        want = oracle[k].energy_ev
        if not abs(energy - want) <= ORACLE_RTOL * max(abs(want), scale_ev):
            return False
    return True

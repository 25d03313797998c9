"""One property over the whole public API: every public function of
``electrostatics``, ``schrodinger`` and ``scenarios``, and each dataclass
that validates numbers, is called once with valid arguments and then once
per (numeric argument, bad value) pair, every other argument left valid.
Each call must end in a finite result, an ``ImagewellError``, or a sweep
whose rows are flagged as failed: never a bare exception, a warning, or a
NaN or infinity the caller did not ask for.
The bad values are the classes that found faults: NaN, the infinities, 0,
-1, a fraction, a float that equals an integer, and the two ends of the
float range.  A NumPy integer equal to a valid integer argument must be
taken as that integer.  The pairs are few enough (about 1000, on 51-point
grids) to run every one, so no draw can miss a fault."""

import dataclasses
import enum
import functools
import inspect
import json
import math
import numbers
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np

from imagewell import electrostatics as el
from imagewell import scenarios as sn
from imagewell import schrodinger as sc
from imagewell.errors import ImagewellError

POINTS = 51
STACK = el.DielectricStack(2.0, 1.0, 5.0, 0.0, 1.0)
PROFILE = sn.interval_profile(1.0, n_points=POINTS)
STATE = sc.solve_eigenstates(PROFILE)[0]
BAD = (math.nan, math.inf, -math.inf, 0, -1, 2.5, 2.0, 1.0e300, 1.0e-300)


def entry(fn, *fixed, **numeric):
    """``fn`` with its non-numeric arguments ``fixed`` and the valid values
    of its numeric arguments, which calls pass by keyword."""
    return functools.partial(fn, *fixed), numeric


def _levitation_curve(gap_nm, **kwargs):
    return sn.levitation_curve([gap_nm], **kwargs)


def _schottky_gap_sweep(gap_nm, **kwargs):
    return sn.schottky_gap_sweep(sn.get_material("GaAs"), sn.Carrier.ELECTRON, [gap_nm], **kwargs)


def _noble_film_sweep(layers, **kwargs):
    return sn.noble_film_sweep(sn.get_material("sAr"), [layers], **kwargs)


def _solve_eigenstates(guess, **kwargs):
    return sc.solve_eigenstates(PROFILE, guesses=[guess], **kwargs)


FORCE = dict(n_electrons=1, area_m2=1.0e-12, hamaker_j=1.0e-19, state_index=0, q=-1.0,
             m_eff=1.0, n_points=POINTS, delta_frac=1.0e-3)

TABLE = {
    # electrostatics
    "DielectricStack": entry(el.DielectricStack, k1=2.0, k2=1.0, k3=5.0, a_nm=0.0, b_nm=1.0),
    "beta_coefficients": entry(el.beta_coefficients, k1=2.0, k2=1.0, k3=5.0),
    "generate_images": entry(el.generate_images, STACK, z0_nm=0.4, q=1.0, max_order=4),
    "potential_slab_series": entry(el.potential_slab_series, STACK, z0_nm=0.4, q=1.0, tol=1e-10),
    "potential_slab_images": entry(el.potential_slab_images, STACK, z0_nm=0.4, q=1.0, tol=1e-10),
    "potential_kernel_quadrature": entry(el.potential_kernel_quadrature, STACK, z0_nm=0.4, q=1.0),
    "slab_potential_curve": entry(el.slab_potential_curve, STACK, z0_nm=0.4, q=1.0),
    "potential_left_halfplane": entry(el.potential_left_halfplane, STACK, dist_a_nm=0.5, q=1.0),
    "halfplane_potential_curve": entry(el.halfplane_potential_curve, STACK, dist_a_nm=0.5, q=1.0),
    "plate_plate_energy": entry(el.plate_plate_energy, STACK, z0_nm=0.4, q=1.0),
    "plate_plate_curve": entry(el.plate_plate_curve, STACK, z0_nm=0.4, q=1.0),
    # schrodinger
    "solve_eigenstates": entry(_solve_eigenstates, m_eff=1.0, n_states=1, guess=-0.1),
    "diagonalization_oracle": entry(sc.diagonalization_oracle, PROFILE, m_eff=1.0, n_states=1),
    "single_wall_bohr_radius_nm": entry(sc.single_wall_bohr_radius_nm, eps_wall=12.9,
                                        eps_host=1.0, m_eff=1.0, n=1),
    "bohr_radius_numeric": entry(sc.bohr_radius_numeric, STATE),
    "require_step": entry(sc.require_step, h=0.1),
    "box_energy_ev": entry(sc.box_energy_ev, length_nm=1.0, n=1, m_eff=1.0),
    # scenarios
    "Material": entry(sn.Material, "X", eps=2.0, m_electron=0.1, m_hole=0.5,
                      layer_thickness_nm=0.3),
    "get_material": entry(sn.get_material, "GaAs"),
    "carrier_mass": entry(sn.carrier_mass, sn.get_material("GaAs"), sn.Carrier.ELECTRON),
    "halfline_profile": entry(sn.halfline_profile, eps_host=12.9, eps_slab=1.0, gap_nm=1.0,
                              m_eff=0.067, q=-1.0, n_states=1, n_points=POINTS, d_max_nm=30.0),
    "interval_profile": entry(sn.interval_profile, gap_nm=1.0, q=-1.0, n_points=POINTS),
    "schottky_gap_sweep": entry(_schottky_gap_sweep, gap_nm=1.0, n_states=1, n_points=POINTS),
    "noble_film_sweep": entry(_noble_film_sweep, layers=1, n_states=1, n_points=POINTS,
                              d_max_nm=25.0),
    "effective_epsilon_curve": entry(sn.effective_epsilon_curve),
    "effective_epsilon": entry(sn.effective_epsilon, bohr_nm=1.0),
    "two_plate_spectrum": entry(sn.two_plate_spectrum, gap_nm=1.0, n_states=2, q=-1.0, m_eff=1.0,
                                n_points=POINTS),
    "averaged_plate_plate": entry(functools.partial(sn.averaged_plate_plate, state=STATE),
                                  gap_nm=1.0, q=-1.0),
    "casimir_force": entry(sn.casimir_force, area_m2=1.0e-12, gap_nm=1.0),
    "vdw_force": entry(sn.vdw_force, hamaker_j=1.0e-19, gap_nm=1.0),
    "total_force": entry(sn.total_force, gap_nm=1.0, **FORCE),
    "levitation_curve": entry(_levitation_curve, gap_nm=1.0, **FORCE),
}

# the metal marker inf is a valid permittivity wherever a metal may stand
METAL_FIELDS = {(el.DielectricStack, "k1"), (el.DielectricStack, "k3"), (sn.Material, "eps")}


def non_finite(x, path="result"):
    """Paths of the NaNs and infinities in a result that no caller asked for:
    a flagged row's values, an attractive levitation row's mass and a metal
    marker are asked for."""
    if isinstance(x, (sn.SweepRow, sn.LevitationRow)) and x.failed:
        return
    if isinstance(x, sn.LevitationRow) and not x.repulsive:
        x = dataclasses.replace(x, mass_kg=0.0)
    if isinstance(x, (bool, str, enum.Enum)) or x is None:
        return
    if isinstance(x, numbers.Number):
        if not math.isfinite(x):
            yield path
    elif isinstance(x, np.ndarray):
        if not np.all(np.isfinite(x)):
            yield path
    elif dataclasses.is_dataclass(x):
        for f in dataclasses.fields(x):
            value = getattr(x, f.name)
            if not ((type(x), f.name) in METAL_FIELDS and value == el.METAL):
                yield from non_finite(value, f"{path}.{f.name}")
    elif isinstance(x, dict):
        for key, value in x.items():
            yield from non_finite(value, f"{path}[{key!r}]")
    else:
        for i, value in enumerate(x):
            yield from non_finite(value, f"{path}[{i}]")


def fault(call, kwargs, typed_error_ok=True):
    """What is wrong with ``call(**kwargs)``'s outcome, or None."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call(**kwargs)
        except ImagewellError as exc:
            return None if typed_error_ok else f"{type(exc).__name__}: {exc}"
        except Exception as exc:  # noqa: BLE001 -- a bare exception is the fault
            return f"bare {type(exc).__name__}: {exc}"
    return next((f"non-finite {path}" for path in non_finite(result)), None)


def test_the_table_holds_every_exported_function():
    # unwrapped, so that a cached function such as effective_epsilon_curve counts
    exported = {name for module in (el, sc, sn) for name, value in vars(module).items()
                if not name.startswith("_") and inspect.isfunction(inspect.unwrap(value))
                and value.__module__ == module.__name__}
    assert exported - set(TABLE) == set()


def test_the_package_root_holds_only_its_version():
    # a fresh interpreter: the modules this file imports would show as attributes
    src = Path(el.__file__).resolve().parents[1]
    path = [str(src)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = ("import json, sys, imagewell; print(json.dumps([sorted(n for n in vars(imagewell)"
            " if not n.startswith('_') or n == '__version__'), 'numpy' in sys.modules]))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert json.loads(done.stdout) == [["__version__"], False]


def test_every_entry_ends_finite_typed_or_flagged():
    faults = []
    for name, (call, valid) in TABLE.items():
        problem = fault(call, valid, typed_error_ok=False)
        if problem:
            faults.append((name, "valid call", problem))
        for param, good in valid.items():
            cases = [(bad, True) for bad in BAD]
            if isinstance(good, int):
                cases.append((np.int64(good), False))  # a NumPy integer is an integer
            for value, typed_error_ok in cases:
                problem = fault(call, {**valid, param: value}, typed_error_ok)
                if problem:
                    faults.append((name, f"{param}={value!r}", problem))
    assert faults == []

"""Command-line interface: reproducible spectra, identities and verification reports.

Subcommands: spectrum, eigenfunction, map, verify, scatter, oracle, deformed.
Every report echoes its fully resolved parameter set, so any run can be
reproduced from its own header: every parameter a report echoes has a flag of
the same name (_ written as -), such as --scatter-half-width and
--scatter-step for the scattering half width and step of `scatter` and
`verify scatter`.  A parameter that gets no value from a flag, the config file
or a default exits 2 with one line, such as
`error: eigenfunction --family poschl-teller requires --l`.  Exit codes: 0 all
requested checks passed, 1 a check failed, 2 usage/parameter error,
3 numerical failure.

Grid, tolerance and scattering defaults may be placed in a key = value config
file named by --config or the SUSYQM_CONFIG environment variable; command-line
flags override file values.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

import numpy as np

from . import coordinate_maps as cmaps
from . import fd_oracle, orthopoly, spectra, susy_core
from .potentials import PoschlTeller, RosenMorseII, potential_values
from .tanh_algebra import HypWave, eigen_residual_symbolic, eval_wave, ladder_tower
from .tanh_algebra import ladder_chain  # noqa: F401  (perfbench's tracer test wraps cli.ladder_chain)

CONFIG_ENV_VAR = "SUSYQM_CONFIG"

CONFIG_DEFAULTS = {
    "grid_min": -12.0,
    "grid_max": 12.0,
    "grid_points": 2001,
    "tol": 2e-3,
    "scatter_half_width": fd_oracle.SCATTER_HALF_WIDTH,
    "scatter_step": fd_oracle.SCATTER_STEP,
    "format": "json",
}
DEFORMED_TOL = 1e-5
# most levels, grid points or RK4 lattice points one command may ask for; the
# defaults need at most 160001 (the lattice the finer scattering march runs
# over, a bound on its work: the march streams the lattice in blocks)
SIZE_CAP = 2_000_000
GRID_KEYS = ("grid_min", "grid_max", "grid_points")
# every key each subcommand, verify section and family reads; a command reads
# the union of its own, its sections' and its family's.  Each key is a flag of
# exactly the subcommands that can read it, a default is filled in only for a
# key the command reads and a flag it does not read exits 2, so the echo holds
# exactly what the run used and replays as flags.
READS = {
    "spectrum": ("family",), "eigenfunction": ("family", "n", "z"), "map": ("gamma", "z"),
    "verify": ("section",), "scatter": ("family", "k", "scatter_half_width", "scatter_step"),
    "oracle": ("family", *GRID_KEYS, "tol"),
    "deformed": ("alpha", "beta", "n", *GRID_KEYS, "tol"),
    "verify riccati": GRID_KEYS, "verify ladder": ("l_max",),
    "verify relations": ("l_max", "p_max"), "verify spectra": (*GRID_KEYS, "tol"),
    "verify scatter": ("scatter_half_width", "scatter_step"),
    "verify shape-invariance": (), "verify maps": (), "verify deformed": (),
    "poschl-teller": ("l",), "rosen-morse": ("nprime", "B"), "gegenbauer": ("p", "q"),
}
# the families --family takes; only spectrum takes the ultraspherical one
WELLS = ("poschl-teller", "rosen-morse")
FAMILIES = {"spectrum": (*WELLS, "gegenbauer"), "eigenfunction": WELLS, "scatter": WELLS,
            "oracle": WELLS}


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


# the type of every key a command reads but the positional section: its flag
# converts with it, and so does load_config for a config value
KEY_TYPES = {
    "family": str, "n": int, "z": float, "gamma": float, "k": float,
    "alpha": float, "beta": float, "l_max": int, "p_max": int, "p": int,
    "l": _fraction, "nprime": _fraction, "B": _fraction, "q": _fraction,
    "grid_min": float, "grid_max": float, "grid_points": int, "tol": float,
    "scatter_half_width": float, "scatter_step": float,
}
# built-in values of read keys that no flag or config value sets, then those
# of one subcommand alone (its flags' defaults); a read key with no value at
# all exits 2, except eigenfunction's --z, whose None marks it optional
DEFAULTS = {"l_max": 5, "p_max": 4, "B": Fraction(0)}
COMMAND_DEFAULTS = {"scatter": {"family": "poschl-teller"}, "eigenfunction": {"z": None},
                    "deformed": {"n": 0, "tol": DEFORMED_TOL}}

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


class UsageError(ValueError):
    pass


@dataclass
class Command:
    subcommand: str
    parameters: dict
    fmt: str
    output: str | None


# ----------------------------------------------------------------------------
# configuration and parsing


def load_config(path: str | None) -> dict:
    """Read key = value pairs; unknown keys rejected to catch typos early."""
    resolved = dict(CONFIG_DEFAULTS)
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return resolved
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key = value, got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_DEFAULTS:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            if key == "format":
                if value not in ("json", "csv"):
                    raise UsageError(f"{path}:{lineno}: format must be json or csv")
                resolved[key] = value
                continue
            convert = KEY_TYPES[key]
            try:
                resolved[key] = convert(value)
            except ValueError:
                raise UsageError(
                    f"{path}:{lineno}: {key} must be {convert.__name__}, got {value!r}"
                ) from None
    return resolved


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later call.  A
    subcommand takes one --key flag (_ written as -) per key that it, its
    verify sections or its families read, and --format, --output, --config."""
    parser = argparse.ArgumentParser(
        prog="susyqm",
        description="Spectra, ladder identities and numerical verification "
                    "for shape-invariant tanh/sech wells.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, runner in RUNNERS.items():
        p = sub.add_parser(name, help=runner.__doc__)
        keys = dict.fromkeys(key for family in FAMILIES.get(name, (None,))
                             for key in _reads(name, {"family": family, "section": "all"}))
        for key in keys:
            if key == "section":
                p.add_argument("section", choices=(*VERIFY_SECTIONS, "all"))
            else:
                p.add_argument(f"--{key.replace('_', '-')}", type=KEY_TYPES[key],
                               choices=FAMILIES[name] if key == "family" else None)
        p.add_argument("--format", choices=("json", "csv"))
        p.add_argument("--output", metavar="PATH")
        p.add_argument("--config", metavar="PATH")
        p.set_defaults(**COMMAND_DEFAULTS.get(name, {}))
    return parser


def parse_command(argv: list[str]) -> Command:
    """Parse argv and resolve every parameter the subcommand reads.

    Flags win over config-file values, which win over built-in defaults.  This
    is the only place a parameter gets its value: runners and check sections
    read params[key] and never write to params, so the report's echo is the
    resolved set.
    """
    args = _parser().parse_args(argv)
    config = load_config(args.config)
    fmt = args.format or config["format"]
    sub = args.subcommand
    if fmt == "csv" and sub not in CSV_TABLES:
        raise UsageError(f"csv output is not defined for {sub!r}")
    params = {
        key: value
        for key, value in vars(args).items()
        if key not in ("format", "output", "config", "subcommand") and value is not None
    }
    # a NaN, infinite or negative tolerance would fail or pass every check (a
    # config file is checked whatever the command reads), and an empty range
    # would run no check and still report a pass
    for tol in (config["tol"], params.get("tol", 0.0)):
        if not 0.0 <= tol < math.inf:
            raise UsageError(f"tol must be finite and nonnegative, got {tol!r}")
    if params.get("l_max", 1) < 1:
        raise UsageError(f"--l-max must be at least 1, got {params['l_max']}")
    if params.get("p_max", 0) < 0:
        raise UsageError(f"--p-max must be nonnegative, got {params['p_max']}")
    reads = _reads(sub, params)
    reader = (f"verify {params['section']}" if "section" in params
              else f"{sub} --family {params['family']}" if "family" in params else sub)
    defaults = config | DEFAULTS
    # a missing key is named first: without --family every family key is unread
    if missing := [key for key in reads if key not in params and key not in defaults
                   and key not in COMMAND_DEFAULTS.get(sub, {})]:
        raise UsageError(f"{reader} requires --{missing[0].replace('_', '-')}")
    if unread := [key for key in params if key not in reads]:
        raise UsageError(f"{reader} does not read --{unread[0].replace('_', '-')}")
    if sub == "deformed":
        given = [key for key in GRID_KEYS if key in params]
        if given and len(given) != len(GRID_KEYS):
            raise UsageError("give --grid-min, --grid-max and --grid-points together")
        if not given:
            grid = _deformed_default_grid(params["alpha"], params["beta"])
            params.update(grid_min=grid.z_min, grid_max=grid.z_max, grid_points=grid.points)
    params = {key: defaults[key] for key in reads if key in defaults} | params
    for what, size in _request_sizes(sub, params):
        if size > SIZE_CAP:
            try:
                size_text = f"{float(size):.4g}"
            except OverflowError:  # an int past the double range
                size_text = f"{Decimal(size):.4g}"
            raise UsageError(f"{size_text} {what} requested, above the size cap of {SIZE_CAP}")
    if "grid_points" in reads:
        try:
            _grid(params)  # a grid that cannot be built stops the command before it runs
        except ValueError as exc:
            raise UsageError(f"bad grid: {exc}") from None
    return Command(subcommand=sub, parameters=params, fmt=fmt, output=args.output)


def _reads(sub: str, params: dict) -> dict:
    """The keys a command reads, in table order: its own, its verify sections'
    and its family's."""
    names = [sub, params.get("family")]
    if sub == "verify":
        names += [f"verify {name}" for name in VERIFY_SECTIONS
                  if params["section"] in (name, "all")]
    return dict.fromkeys(key for name in names for key in READS.get(name, ()))


def _request_sizes(sub: str, params: dict):
    """(what, size) of everything a command would build or march over per
    level, grid point or RK4 lattice point, computed without allocating any of
    it.  Grid points and the RK4 lattice count only where the command reads
    them."""
    reads = _reads(sub, params)
    if sub in ("spectrum", "oracle"):
        # levels() is range(count); .stop is count even past len()'s limit
        yield "levels", _family(params).levels().stop
    if "grid_points" in reads:
        yield "grid points", params["grid_points"]
    if "scatter_step" in reads:
        half_width = params["scatter_half_width"]
        step = params["scatter_step"]
        # other values are rejected by scattering_amplitudes, with its own message
        if 0.0 < half_width < math.inf and 0.0 < step < math.inf:
            # the step-halving check marches twice the steps of 2 * half_width / step
            yield "RK4 lattice points", 8.0 * half_width / step + 1.0


# ----------------------------------------------------------------------------
# helpers


def _grid(params: dict) -> fd_oracle.Grid:
    return fd_oracle.Grid(params["grid_min"], params["grid_max"], params["grid_points"])


def _family(params: dict) -> PoschlTeller | RosenMorseII:
    """The well of --family; the ultraspherical family is the sech well it reduces to."""
    family = params["family"]
    if family == "poschl-teller":
        return PoschlTeller(params["l"])
    if family == "gegenbauer":
        return PoschlTeller(spectra.gegenbauer_spectrum(params["p"], params["q"]).n_prime)
    return RosenMorseII(params["nprime"], params["B"])


def check(check_id: str, computed=None, expected="zero", tolerance="exact",
          provenance: str = "exact-rational-identity", passed: bool | None = None) -> dict:
    """One verification record, the only form a check takes in a report.

    A numeric check passes iff |computed - expected| <= tolerance, unless the
    caller decides `passed`.  An exact identity check gives only `passed`: its
    record reads "zero" when the identity holds and "nonzero" when it fails.
    """
    if passed is None:
        passed = abs(float(computed) - float(expected)) <= float(tolerance)
    elif computed is None:
        computed = "zero" if passed else "nonzero"
    return {
        "id": check_id,
        "computed": computed,
        "expected": expected,
        "tolerance": tolerance,
        "provenance": provenance,
        "pass": bool(passed),
    }


def _wave_payload(w: HypWave, z: float | None = None) -> dict:
    payload = {
        "weight_exponent_one_minus_t": str(w.a),
        "weight_exponent_one_plus_t": str(w.b),
        "prefactor": str(w.prefactor),
        # a canonical wave's polynomial has content 1: its coefficients are ints
        "poly_coefficients": [str(c) for c in w.poly._prim],
        "poly_degree": w.poly.degree,
    }
    if z is not None:
        payload["value_at_z"] = eval_wave(w, z)
    return payload


# ----------------------------------------------------------------------------
# verification sections


def checks_riccati(params: dict) -> list[dict]:
    zs = _grid(params).zs()
    out = []
    for k, s in ((Fraction(1), Fraction(0)), (Fraction(2), Fraction(0)),
                 (Fraction(3, 2), Fraction(1, 2)), (Fraction(1), Fraction(-1))):
        w = susy_core.ClosedFormSuperpotential(k, s)
        pair = susy_core.partner_potentials(w)
        resid = susy_core.riccati_residual(zs, potential_values(pair.v1, zs), w)
        out.append(check(f"riccati-roundtrip-k-{k}-s-{s}", resid, 0.0, 1e-10,
                         "closed-form"))
        diff_ok = (pair.v2 - pair.v1) == 2 * w.derivative_tanh_poly()
        out.append(check(f"partner-difference-2wprime-k-{k}-s-{s}", passed=diff_ok))
    for k in (Fraction(1), Fraction(5), Fraction(3, 2)):
        w = susy_core.ClosedFormSuperpotential(k)
        out.append(check(f"annihilation-k-{k}", passed=w.apply_a(w.ground_state()).is_zero))
    return out


def checks_shape_invariance(params: dict) -> list[dict]:
    out = []
    ks = [Fraction(i) for i in range(1, 11)] + [Fraction(3, 2), Fraction(5, 2)]
    for k in ks:
        remainder, constancy = susy_core.shape_invariance_remainder(k)
        ok = remainder == k * k - (k - 1) ** 2 and constancy == 0.0
        out.append(check(
            f"si-remainder-k-{k}",
            None if ok else f"remainder={remainder}, constancy={constancy}",
            passed=ok,
        ))
    for l in range(1, 6):
        well = PoschlTeller(l)
        ok = all(susy_core.si_level_energy(l, n) == l * l + well.energy(n)
                 for n in well.levels())
        out.append(check(f"si-chain-energies-l-{l}", passed=ok))
    return out


def checks_ladder(params: dict) -> list[dict]:
    l_max = params["l_max"]
    # ladder_chain(l, n) is level n of the depth-(l - n) tower
    towers = [ladder_tower(depth, l_max - depth) for depth in range(l_max + 1)]
    out = []
    for l in range(1, l_max + 1):
        well = PoschlTeller(l)
        v = well.tanh_poly()
        waves = [towers[l - n][n] for n in range(l + 1)]  # n = l is the edge state
        residuals_ok = all(
            eigen_residual_symbolic(waves[n], v, well.energy(n)).is_zero
            for n in well.levels()
        )
        out.append(check(f"ladder-residuals-l-{l}", passed=residuals_ok))
        degree_parity_ok = all(
            wave.poly.degree == n and wave.poly.reflected() == ((-1) ** n) * wave.poly
            for n, wave in enumerate(waves)
        )
        out.append(check(f"ladder-degree-parity-l-{l}", passed=degree_parity_ok))
    for l, m in ((2, 1), (3, 2), (4, 1), (5, 5)):
        if l > l_max:
            continue
        resid = eigen_residual_symbolic(
            orthopoly.assoc_legendre(l, m), PoschlTeller(l).tanh_poly(), -Fraction(m) ** 2)
        out.append(check(f"assoc-legendre-eigenpair-l-{l}-m-{m}", passed=resid.is_zero))
    return out


def checks_relations(params: dict) -> list[dict]:
    l_max = params["l_max"]
    p_max = params["p_max"]
    towers = {m: ladder_tower(m, l_max - m) for m in range(1, l_max + 1)}
    out = []
    for l in range(1, l_max + 1):
        try:
            orthopoly.legendre_links(l, range(1, l + 1), towers)
            out.append(check(f"legendre-ladder-link-l-{l}", passed=True))
        except orthopoly.ProportionalityError as exc:
            out.append(check(f"legendre-ladder-link-l-{l}", str(exc), passed=False))
    for q in (Fraction(3, 2), Fraction(5, 2), Fraction(7, 2)):
        try:
            for p in range(p_max + 1):
                orthopoly.check_gegenbauer_identity(p, q)
            out.append(check(f"gegenbauer-ladder-link-q-{q}", passed=True))
        except orthopoly.ProportionalityError as exc:
            out.append(check(f"gegenbauer-ladder-link-q-{q}", str(exc), passed=False))
    for n, alpha, beta in ((3, Fraction(1), Fraction(2)), (5, Fraction(1, 2), Fraction(3, 2)),
                           (6, Fraction(0), Fraction(0)), (4, Fraction(-1, 2), Fraction(5, 2))):
        out.append(check(
            f"jacobi-ode-n-{n}-a-{alpha}-b-{beta}",
            provenance="independent-recurrence",
            passed=orthopoly.jacobi_ode_residual(n, alpha, beta).is_zero))
    for p, q in ((4, Fraction(1)), (5, Fraction(3, 2)), (6, Fraction(5, 2))):
        out.append(check(
            f"gegenbauer-ode-p-{p}-q-{q}",
            provenance="independent-recurrence",
            passed=orthopoly.gegenbauer_ode_residual(p, q).is_zero))
    sym_ok = all(
        orthopoly.jacobi_poly(n, a, b).reflected()
        == ((-1) ** n) * orthopoly.jacobi_poly(n, b, a)
        for n in range(6)
        for a, b in ((Fraction(1), Fraction(2)), (Fraction(1, 2), Fraction(5, 2)))
    )
    out.append(check("jacobi-reflection-symmetry", passed=sym_ok))
    return out


def _worst(deviations) -> float:
    """Largest |deviation|, NaN if any entry is NaN (builtin max can drop one)."""
    return float(np.max(np.abs(deviations), initial=0.0))


def checks_maps(params: dict) -> list[dict]:
    out = []
    for gamma in (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
        zg = cmaps.chart_grid(gamma, -6.0, 6.0, 1000, margin_scale=1e-3)
        thetas = cmaps.theta_of_z(gamma, zg)
        back = cmaps.z_of_theta(gamma, thetas)
        out.append(check(f"map-roundtrip-gamma-{gamma}", _worst(back - zg), 0.0, 1e-12,
                         "closed-form"))
        # the product identity sin(theta) cosh(w) = 1 is only representable in
        # doubles while sech(w) >~ 1e-3, so it gets a deeper chart inset
        zt = cmaps.chart_grid(gamma, -6.0, 6.0, 1000, margin_scale=2e-2)
        th2 = cmaps.theta_of_z(gamma, zt)
        ws = cmaps.w_of_z(gamma, zt)
        trig = _worst([
            np.sin(th2) - 1.0 / np.cosh(ws),
            np.cos(th2) + np.tanh(ws),
            np.sin(th2) ** 2 + np.cos(th2) ** 2 - 1.0,
            np.sin(th2) * np.cosh(ws) - 1.0,
        ])
        out.append(check(f"map-trig-identities-gamma-{gamma}", trig, 0.0, 1e-12,
                         "closed-form"))
        out.append(check(f"map-monotone-gamma-{gamma}", provenance="closed-form",
                         passed=bool(np.all(np.diff(thetas) > 0.0))))
        out.append(check(f"map-origin-gamma-{gamma}",
                         float(cmaps.z_of_theta(gamma, math.pi / 2)), 0.0, 1e-12,
                         "closed-form"))
        zs = np.linspace(-3.0, 3.0, 13)
        elim = _worst(cmaps.first_derivative_coefficient(gamma, zs[gamma * zs + 1.0 > 0.3]))
        out.append(check(f"first-derivative-elimination-gamma-{gamma}", elim, 0.0,
                         1e-10, "fd-oracle"))
    zs = np.linspace(-3.0, 3.0, 61)
    drift = _worst(cmaps.theta_of_z(1e-8, zs) - cmaps.theta_of_z(0.0, zs))
    out.append(check("map-small-gamma-limit", drift, 0.0, 1e-6, "closed-form"))
    return out


def _fd_vs_closed_form(fams: list[PoschlTeller | RosenMorseII], grid: fd_oracle.Grid
                       ) -> list[tuple[range, list[float], list[float]]]:
    """Per family: its bound levels, their closed-form energies as floats, and
    the finite-difference eigenvalues below its FD ceiling on the grid, all
    families solved as one batch."""
    levels = [fam.levels() for fam in fams]
    evs = fd_oracle.bound_state_eigenvalues_batch(
        [(fd_oracle.discretize(fam, grid), fam.fd_ceiling, len(lv) + 3)
         for fam, lv in zip(fams, levels)])
    return [(lv, [float(fam.energy(n)) for n in lv], ev)
            for fam, lv, ev in zip(fams, levels, evs)]


def _fd_record(check_id: str, exact: list[float], evs: list[float], tol: float) -> dict:
    """The largest |FD - closed form| over the levels; a count mismatch fails
    and names both counts."""
    if len(evs) != len(exact):
        return check(check_id, f"{len(evs)} FD levels, {len(exact)} closed-form", 0.0, tol,
                     "fd-oracle", passed=False)
    worst = _worst(np.subtract(evs, exact))
    return check(check_id, worst, 0.0, tol, "fd-oracle", passed=worst <= tol)


def checks_spectra(params: dict) -> list[dict]:
    tol = params["tol"]
    tilted = [RosenMorseII(n_prime, b) for n_prime, b in (
        (Fraction(2), Fraction(1, 2)), (Fraction(3), Fraction(1)), (Fraction(5, 2), Fraction(1, 2)))]
    solved = _fd_vs_closed_form([PoschlTeller(l) for l in range(1, 6)] + tilted, _grid(params))
    out = []
    for l, (_levels, exact, evs) in zip(range(1, 6), solved):
        out.append(_fd_record(f"fd-vs-closed-form-sech-l-{l}", exact, evs, tol))
        out.append(check(f"fd-level-count-sech-l-{l}", len(evs), len(exact), 0,
                         "fd-oracle"))
    for fam, (levels, exact, evs) in zip(tilted, solved[5:]):
        n_prime, b = fam.n_prime, fam.B
        out.append(_fd_record(f"fd-vs-closed-form-tilted-{n_prime}-{b}", exact, evs, tol))
        resid_ok = all(
            eigen_residual_symbolic(fam.eigenfunction(n), fam.tanh_poly(), fam.energy(n)).is_zero
            for n in levels
        )
        out.append(check(f"tilted-eigenpair-residuals-{n_prime}-{b}", passed=resid_ok))
        out.append(check(f"tilted-below-edge-{n_prime}-{b}", provenance="closed-form",
                         passed=all(e < fam.continuum_edge for e in exact)))
    shift_ok = all(
        RosenMorseII(n_prime).energy(n)
        == n_prime * (n_prime + 1) + PoschlTeller(n_prime).energy(n)
        for n_prime in (Fraction(2), Fraction(3), Fraction(7, 2))
        for n in PoschlTeller(n_prime).levels()
    )
    out.append(check("tilted-reduces-to-sech-shift", passed=shift_ok))
    for p, q in ((2, Fraction(3, 2)), (0, Fraction(3, 2)), (1, Fraction(2)),
                 (3, Fraction(5, 2))):
        red = spectra.gegenbauer_spectrum(p, q)
        well = PoschlTeller(red.n_prime)
        ok = (p in well.levels() and red.target_energy == well.energy(p)
              and red.reflectionless == (red.n_prime.denominator == 1))
        out.append(check(f"ultraspherical-target-p-{p}-q-{q}", provenance="closed-form",
                         passed=ok))
    return out


def _deformed_default_grid(alpha: float, beta: float) -> fd_oracle.Grid:
    """Chart-respecting default window, half a chart width from the edge and 8
    out, with spacing 1e-3."""
    gamma = beta - alpha
    if abs(gamma) < cmaps.GAMMA_SWITCH:
        lo, hi = -6.0, 6.0
    elif gamma > 0:
        lo, hi = -0.5 / gamma, 8.0
    else:
        lo, hi = -8.0, 0.5 / (-gamma)
    points = int(round((hi - lo) / 1e-3)) + 1
    return fd_oracle.Grid(lo, hi, points)


def checks_deformed(params: dict) -> list[dict]:
    out = []
    for alpha, beta in ((1.0, 2.0), (2.0, 1.0), (0.5, 1.5)):
        grid = _deformed_default_grid(alpha, beta)
        for n in (0, 1, 2):
            resid = spectra.gamma_deformed_residual(alpha, beta, n, grid)
            out.append(check(
                f"deformed-zero-energy-a-{alpha}-b-{beta}-n-{n}", resid, 0.0, DEFORMED_TOL,
                "fd-oracle"))
    return out


def checks_scatter(params: dict) -> list[dict]:
    half_width = params["scatter_half_width"]
    step = params["scatter_step"]
    out = []
    for l in (1, 2, 3):
        for k in (0.5, 1.0, 2.0):
            res = fd_oracle.scattering_amplitudes(PoschlTeller(l), k, half_width, step)
            out.append(check(f"reflectionless-l-{l}-k-{k}", res.r2, 0.0, 1e-6,
                             "scattering-oracle"))
            out.append(check(f"flux-conservation-l-{l}-k-{k}", res.flux_defect, 0.0,
                             fd_oracle.FLUX_TOL, "scattering-oracle"))
    for n_prime in (Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)):
        res = fd_oracle.scattering_amplitudes(PoschlTeller(n_prime), 1.0, half_width,
                                              step)
        out.append(check(
            f"reflection-analytic-nprime-{n_prime}", res.r2,
            fd_oracle.sech_well_reflection_exact(float(n_prime), 1.0), 1e-9,
            "analytic-cross-check"))
        out.append(check(f"reflection-regression-nprime-{n_prime}", res.r2, ">= 1e-3",
                         "lower-bound", "regression-pin", passed=res.r2 >= 1e-3))
    return out


SECTION_RUNNERS = {
    "riccati": checks_riccati,
    "shape-invariance": checks_shape_invariance,
    "ladder": checks_ladder,
    "relations": checks_relations,
    "maps": checks_maps,
    "spectra": checks_spectra,
    "deformed": checks_deformed,
    "scatter": checks_scatter,
}
VERIFY_SECTIONS = tuple(SECTION_RUNNERS)


# ----------------------------------------------------------------------------
# subcommand execution


def _spectrum_rows(fam: PoschlTeller | RosenMorseII) -> list[dict]:
    """One row per bound level, then the zero-energy threshold level if any."""
    rows = [{"n": n, "energy": float(fam.energy(n)), "kind": "bound"} for n in fam.levels()]
    if (n := fam.threshold_level) is not None:
        rows.append({"n": n, "energy": float(fam.energy(n)), "kind": "threshold"})
    return rows


def run_spectrum(params: dict) -> dict:
    """Closed-form bound levels of a family."""
    body = {"entries": _spectrum_rows(_family(params))}
    if params["family"] == "gegenbauer":
        red = spectra.gegenbauer_spectrum(params["p"], params["q"])
        body.update(n_prime=str(red.n_prime), m_prime=str(red.m_prime),
                    target_level=params["p"], target_energy=float(red.target_energy),
                    reflectionless=red.reflectionless)
    return body


def run_eigenfunction(params: dict) -> dict:
    """Closed-form bound state, exact coefficients."""
    fam = _family(params)
    wave = fam.eigenfunction(params["n"])
    energy = fam.energy(params["n"])
    residual_zero = eigen_residual_symbolic(wave, fam.tanh_poly(), energy).is_zero
    return {
        "wave": _wave_payload(wave, params.get("z")),
        "energy": float(energy),
        "energy_exact": str(energy),
        "checks": [check("eigenpair-residual", passed=residual_zero)],
    }


def run_map(params: dict) -> dict:
    """Angle-to-line coordinate map at one point."""
    gamma = params["gamma"]
    z = params["z"]
    theta = cmaps.theta_of_z(gamma, z)
    w = cmaps.w_of_z(gamma, z)
    roundtrip = cmaps.z_of_theta(gamma, theta)
    return {
        "theta": theta,
        "w": w,
        "sin_theta": math.sin(theta),
        "sech_w": 1.0 / math.cosh(w),
        "cos_theta": math.cos(theta),
        "minus_tanh_w": -math.tanh(w),
        "roundtrip_z": roundtrip,
        "checks": [
            check("map-trig-sin", math.sin(theta), 1.0 / math.cosh(w), 1e-12, "closed-form"),
            check("map-trig-cos", math.cos(theta), -math.tanh(w), 1e-12, "closed-form"),
            check("map-roundtrip", roundtrip, z, 1e-12, "closed-form"),
        ],
    }


def run_scatter(params: dict) -> dict:
    """Reflection/transmission at wavenumber k."""
    fam = _family(params)
    res = fd_oracle.scattering_amplitudes(fam, params["k"], params["scatter_half_width"],
                                          params["scatter_step"])
    return {
        "R2": res.r2,
        "T2": res.t2,
        "flux_defect": res.flux_defect,
        "half_width": res.half_width,
        "step": res.step,
        "diagnostics": {
            "rk4_steps_coarse": res.rk4_steps[0],
            "rk4_steps_fine": res.rk4_steps[1],
            "step_halving_drift": res.step_halving_drift,
        },
        "checks": [
            check("flux-conservation", res.flux_defect, 0.0, fd_oracle.FLUX_TOL,
                  "scattering-oracle"),
        ],
    }


def run_oracle(params: dict) -> dict:
    """Finite-difference eigenvalues vs closed form."""
    fam = _family(params)
    tol = params["tol"]
    [(levels, exact, evs)] = _fd_vs_closed_form([fam], _grid(params))
    checks = [check("fd-level-count", len(evs), len(levels), 0, "fd-oracle")]
    rows = []
    # levels is range(count), so the n-th FD eigenvalue pairs with level n;
    # a count mismatch leaves rows with None (null) for the missing partner
    for n, (e_exact, e_fd) in enumerate(itertools.zip_longest(exact, evs)):
        paired = e_exact is not None and e_fd is not None
        rows.append({"n": n, "fd_energy": e_fd, "closed_form": e_exact,
                     "abs_error": abs(e_fd - e_exact) if paired else None})
        if paired:
            checks.append(check(f"fd-level-{n}", e_fd, e_exact, tol, "fd-oracle"))
    return {"levels": rows, "checks": checks}


def run_deformed(params: dict) -> dict:
    """Zero-energy residual of the deformed family."""
    resid = spectra.gamma_deformed_residual(params["alpha"], params["beta"], params["n"],
                                            _grid(params))
    return {
        "residual": resid,
        "checks": [check("deformed-zero-energy", resid, 0.0, params["tol"], "fd-oracle")],
    }


def run_verify(params: dict) -> dict:
    """Run a verification section (or all)."""
    sections = {name: SECTION_RUNNERS[name](params) for name in VERIFY_SECTIONS
                if params["section"] in (name, "all")}
    checks = [c for results in sections.values() for c in results]
    return {
        "sections": sections,
        "summary": {"total": len(checks), "failed": sum(not c["pass"] for c in checks)},
    }


RUNNERS = {
    "spectrum": run_spectrum,
    "eigenfunction": run_eigenfunction,
    "map": run_map,
    "verify": run_verify,
    "scatter": run_scatter,
    "oracle": run_oracle,
    "deformed": run_deformed,
}


def _collect_checks(body: dict) -> list[dict]:
    if "sections" in body:
        return [c for section in body["sections"].values() for c in section]
    return body.get("checks", [])


def execute_command(cmd: Command) -> tuple[dict, int]:
    """Run a parsed command; returns (report, exit_code)."""
    body = RUNNERS[cmd.subcommand](cmd.parameters)
    checks = _collect_checks(body)
    status = "pass" if all(c["pass"] for c in checks) else "fail"
    report = {
        "command": cmd.subcommand,
        "parameters": {k: _jsonable(v) for k, v in sorted(cmd.parameters.items())},
        **body,
        "status": status,
    }
    return report, (EXIT_PASS if status == "pass" else EXIT_CHECK_FAILED)


# ----------------------------------------------------------------------------
# rendering


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    return value


def render_json(report: dict) -> str:
    """The report as JSON; a NaN or infinite number in it raises NumericalError."""
    # json.dump writes each chunk as it goes; json.dumps with an indent first
    # lists every chunk of the report
    buf = io.StringIO()
    try:
        json.dump(report, buf, indent=2, sort_keys=True, default=_jsonable, allow_nan=False)
    except ValueError as exc:
        raise fd_oracle.NumericalError(f"the report is not JSON: {exc}") from exc
    buf.write("\n")
    return buf.getvalue()


def _spectrum_table(report: dict):
    yield ["n", "energy", "kind"]
    for entry in report["entries"]:
        yield [entry["n"], repr(entry["energy"]), entry["kind"]]


def _oracle_table(report: dict):
    yield ["n", "fd_energy", "closed_form", "abs_error"]
    for row in report["levels"]:
        yield [row["n"], *("" if row[key] is None else repr(row[key])
                           for key in ("fd_energy", "closed_form", "abs_error"))]


def _verify_table(report: dict):
    yield ["section", "id", "computed", "expected", "tolerance", "provenance", "pass"]
    for name, section in report["sections"].items():
        for c in section:
            yield [name, c["id"], c["computed"], c["expected"], c["tolerance"],
                   c["provenance"], c["pass"]]


# the subcommands with a table; parse_command rejects --format csv for the others
CSV_TABLES = {"spectrum": _spectrum_table, "oracle": _oracle_table, "verify": _verify_table}


def render_csv(report: dict) -> str:
    """Tabular rendering of a report; parameters echoed as comments."""
    buf = io.StringIO()
    for key, value in report["parameters"].items():
        buf.write(f"# {key} = {value}\n")
    csv.writer(buf, lineterminator="\n").writerows(CSV_TABLES[report["command"]](report))
    return buf.getvalue()


# an overflow leaves NaN or inf, which the guards turn into the one stderr
# line; numpy's own RuntimeWarnings would add lines before it
@np.errstate(all="ignore")
def main(argv: list[str] | None = None) -> int:
    """Run one command; every failure ends as one stderr line and an exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        cmd = parse_command(argv)
        report, code = execute_command(cmd)
        text = render_csv(report) if cmd.fmt == "csv" else render_json(report)
        if cmd.output:
            with open(cmd.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return code
    except SystemExit as exc:  # argparse already printed its message
        return EXIT_PASS if exc.code in (0, None) else EXIT_USAGE
    except (UsageError, OSError) as exc:  # bad flag or config, unreadable or unwritable file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # argparse accepted argv before anything below can be raised, and the
    # top-level parser takes no option but -h, so argv[0] is the subcommand
    except (fd_oracle.NumericalError, ArithmeticError) as exc:
        print(f"numerical failure in {argv[0]!r}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error in {argv[0]!r}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())

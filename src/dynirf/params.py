"""Model parameter packs, derived grids, admissibility, and presets.

An :class:`IrfParams` bundles everything the face-weight model needs: the
function mode, the quantization parameter eta, the corner filling lambda0,
per-column data (z_j, Lambda_j) indexed from 0, and per-row spectral
parameters w_k indexed from 1.  Column 0 is the boundary column that the
stochastic model drops; stochastic evaluations only ever read columns >= 1.

The derived grid p_j = z_j + (1 - Lambda_j)*eta, q_j = z_j + (1 + Lambda_j)*eta
drives all symmetric-function formulas.  Admissibility means nested contour
families gamma_1, ..., gamma_M exist with gamma_M around the p-cluster,
gamma_i enclosing the 2*eta-shifted image of gamma_{i+1}, and every q_j
outside all of them; those contours are what the orthogonality integrals run
over.  :func:`check_admissible` returns them as a tuple of circles, or raises
InvalidParameterError naming the condition that no candidate family met.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .special import Circle, FunctionMode, InvalidParameterError, _as_int, _as_real
from .weights import _not_probability, _turn_table

__all__ = [
    "IrfParams",
    "PQGrid",
    "SixVertexParams",
    "pq_grid",
    "check_admissible",
    "to_six_vertex",
    "preset",
    "PRESET_NAMES",
    "random_pack",
    "params_to_json_dict",
    "params_from_json_dict",
    "load_config",
]


def _c2pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _pair2c(v, what: str) -> complex:
    """A config number: a finite real, or an [re, im] pair of them."""
    what += " (or each part of its [re, im] pair)"
    if isinstance(v, list) and len(v) == 2:
        return complex(_as_real(v[0], what), _as_real(v[1], what))
    return complex(_as_real(v, what))


@dataclass(frozen=True)
class PQGrid:
    p: tuple
    q: tuple


@dataclass(frozen=True)
class IrfParams:
    """Full parameter pack; immutable after construction.

    ``columns[j] = (z_j, Lambda_j)`` for j >= 0; ``rows[k-1] = w_k`` for
    k >= 1.  Partial sums Lambda_a + ... + Lambda_{b-1} are precomputed as
    prefix sums and served by :meth:`lam_sum`, and the p/q grid once, for
    :func:`pq_grid`.
    """

    mode: FunctionMode
    eta: complex
    lambda0: complex
    columns: tuple
    rows: tuple
    _lam_prefix: tuple = field(init=False, repr=False, compare=False)
    _grid: PQGrid = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cols = tuple((complex(z), complex(lam)) for z, lam in self.columns)
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "rows", tuple(complex(w) for w in self.rows))
        object.__setattr__(self, "eta", complex(self.eta))
        object.__setattr__(self, "lambda0", complex(self.lambda0))
        prefix = [0j]
        for _, lam in cols:
            prefix.append(prefix[-1] + lam)
        object.__setattr__(self, "_lam_prefix", tuple(prefix))
        eta = self.eta
        grid = PQGrid(p=tuple(z + (1 - lam) * eta for z, lam in cols), q=tuple(z + (1 + lam) * eta for z, lam in cols))
        object.__setattr__(self, "_grid", grid)

    @property
    def n_cols(self) -> int:
        return len(self.columns)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def z(self, j: int) -> complex:
        """z_j, for a column index j in 0..n_cols - 1."""
        if type(j) is int and j >= 0:  # a plain int: the tuple checks the top
            try:
                return self.columns[j][0]
            except IndexError:
                pass
        return self.columns[self._column(j)][0]

    def lam(self, j: int) -> complex:
        """Lambda_j, for a column index j in 0..n_cols - 1."""
        if type(j) is int and j >= 0:
            try:
                return self.columns[j][1]
            except IndexError:
                pass
        return self.columns[self._column(j)][1]

    def _column(self, j) -> int:
        return _as_int(j, f"the column index j (the parameter pack has {self.n_cols} columns)", 0, self.n_cols - 1)

    def w(self, k: int) -> complex:
        """Row spectral parameter, 1-indexed as in the model: k in 1..n_rows."""
        if type(k) is int and k >= 1:
            try:
                return self.rows[k - 1]
            except IndexError:
                pass
        return self.rows[_as_int(k, f"the row index k (the parameter pack has {self.n_rows} rows)", 1, self.n_rows) - 1]

    def lam_sum(self, a: int, b: int) -> complex:
        """Lambda_a + Lambda_{a+1} + ... + Lambda_{b-1} for integers a, b;
        empty ranges (b <= a) give 0, any other needs 0 <= a < b <= n_cols."""
        if type(a) is not int or type(b) is not int:
            a, b = _as_int(a, "lam_sum's a"), _as_int(b, "lam_sum's b")
        if b <= a:
            return 0j
        if a < 0 or b > len(self.columns):
            raise InvalidParameterError(f"lam_sum's range {a}..{b} needs 0 <= a < b <= {self.n_cols}, the pack's column count")
        return self._lam_prefix[b] - self._lam_prefix[a]

    @property
    def f(self):
        """The mode's f itself, so ``f = params.f`` binds no forwarding call."""
        return self.mode.f

    def with_lambda0(self, lambda0: complex) -> "IrfParams":
        return IrfParams(self.mode, self.eta, lambda0, self.columns, self.rows)


def pq_grid(params: IrfParams) -> PQGrid:
    """p_j = z_j + (1-Lambda_j)*eta and q_j = z_j + (1+Lambda_j)*eta, computed once per pack."""
    return params._grid


def _audit(gammas, grid: PQGrid, eta: complex):
    """One pass over a candidate family's conditions, in this order: every p
    inside gamma_M, each gamma_i around gamma_{i+1} shifted by 2*eta, and no
    q inside any circle.  Returns the first failed condition as a message,
    or else the family's smallest relative clearance over all of them (a
    float > 0)."""
    M, inner = len(gammas), gammas[-1]
    dists = [abs(p - inner.center) for p in grid.p]
    for j, d in enumerate(dists):
        if not d < inner.radius:
            return f"p[{j}] not inside gamma_{M}"
    margins = [(inner.radius - max(dists)) / inner.radius]
    for i in range(M - 1):
        outer, nxt = gammas[i], gammas[i + 1]
        gap = outer.radius - abs(nxt.center + 2 * eta - outer.center) - nxt.radius
        if not gap > 0:
            return f"gamma_{i + 1} does not enclose gamma_{i + 2} shifted by 2*eta"
        margins.append(gap / outer.radius)
    for i, g in enumerate(gammas):
        dists = [abs(q - g.center) for q in grid.q]
        for j, d in enumerate(dists):
            if d <= g.radius:
                return f"q[{j}] inside gamma_{i + 1}"
        margins.append((min(dists) - g.radius) / g.radius)
    return min(margins)


def _pair_guard(contours: Sequence[Circle], shift: complex, params: IrfParams) -> None:
    """Assert |f(u_i - u_j + shift)| stays above 1e-6 over node pairs."""
    probes = [c.points(64) for c in contours]
    for i, j in itertools.permutations(range(len(contours)), 2):
        vals = np.abs(params.f(probes[i][:, None] - probes[j][None, :] + shift))
        if float(vals.min()) <= 1e-6:
            raise InvalidParameterError(f"contour pair ({i}, {j}) violates the 2*eta-shift pole guard")


def check_admissible(params: IrfParams, M: int, strong: bool = False) -> tuple:
    """The circles (gamma_1, ..., gamma_M); InvalidParameterError, naming
    the last failed condition, when no candidate family passes.

    Each candidate is gamma_i = Circle(c + drift*(M-1-i), r0 + (M-1-i)*step)
    around the p-centroid c, in three phases: concentric circles (radius
    steps of |2*eta| times 2, 1.5, 1.25, 1.1), a covering chain drifting by
    eta per level, and a chain of 2*eta translates, which meets the shifted
    inclusions where no nested family exists.  The audit enforces the three
    admissibility conditions (inner circle holds the p's, each gamma_i
    encloses the 2*eta-shifted image of gamma_{i+1}, no q inside any
    circle); the best-clearance family of the first phase that has one
    wins.  ``strong=True`` also needs literal nesting gamma_1 > ... > gamma_M
    for the orthogonality integrals, whose residue bookkeeping pins outer
    variables at unshifted p-points.  The first two phases nest anyway
    (concentric circles with |2*eta| more gap than their shifted gap, the
    eta chain with the same gap), so ``strong`` only skips the 2*eta chain.
    """
    M = _as_int(M, "the contour count M", 1)
    grid = pq_grid(params)
    eta = params.eta
    ps = np.array(grid.p)
    center = complex(np.mean(ps))
    spread = float(np.max(np.abs(ps - center))) if len(ps) else 0.0
    two_eta = abs(2 * eta)

    def family(drift, r0, step):
        return tuple(Circle(center + drift * (M - 1 - i), r0 + (M - 1 - i) * step) for i in range(M))

    r_base = max(1.2 * spread, 0.15 * two_eta, 1e-6)
    tight = lambda *rfacs: [max(rfac * spread, 1e-6) for rfac in rfacs]
    phases = (  # lazy (drift, r0, step) of each family: concentric, covering chain, 2*eta chain
        ((0, r_base, two_eta + gfac * two_eta) for gfac in (1.0, 0.5, 0.25, 0.1)),
        ((eta, r, abs(eta) + g2) for r in tight(1.1, 1.3, 1.6) for g2 in (0.5 * r, 0.2 * r, 0.08 * r, 0.02 * two_eta)),
        ((2 * eta, r, gfac * r) for r in tight(1.1, 1.25, 1.45, 1.7, 2.0) for gfac in (0.5, 0.35, 0.25, 0.15, 0.08, 0.04)),
    )
    failed = None
    for phase in phases[: 2 if strong else 3]:
        best, best_health = None, -1.0
        for fam in (family(*args) for args in phase):
            health = _audit(fam, grid, eta)
            if isinstance(health, str):
                failed = health
            elif health > best_health:
                best, best_health = fam, health
        if best is not None:
            return best
    raise InvalidParameterError(f"no admissible contour family: {failed}")


@dataclass(frozen=True)
class SixVertexParams:
    """Higher-spin six-vertex parameters matched to an IRF pack.

    q = exp(-4*pi*i*eta), s_j = exp(2*pi*i*eta*Lambda_j),
    xi_j = exp(2*pi*i*z_j), u_k = exp(2*pi*i*(eta - w_k)),
    alpha = -exp(-2*pi*i*lambda0).  Columns follow the IRF indexing
    (entry j corresponds to IRF column j+1; the boundary column is gone).
    """

    q: complex
    alpha: complex
    s: tuple
    xi: tuple
    u: tuple


def to_six_vertex(params: IrfParams) -> SixVertexParams:
    eta = params.eta
    tp = 2j * math.pi
    return SixVertexParams(
        q=cmath.exp(-2 * tp * eta),
        alpha=-cmath.exp(-tp * params.lambda0),
        s=tuple(cmath.exp(tp * eta * lam) for _, lam in params.columns[1:]),
        xi=tuple(cmath.exp(tp * z) for z, _ in params.columns[1:]),
        u=tuple(cmath.exp(tp * (eta - w)) for w in params.rows),
    )


# ---------------------------------------------------------------------------
# Presets.  The trig-admissible pack drives the identity suites; the two
# positive packs make every plaquette weight a genuine probability and feed
# the samplers.  All spreads are generated from a fixed seed, and every
# preset is validated at load time rather than trusted.
# ---------------------------------------------------------------------------


def _build_trig_admissible(lam_center: float = 1.2, seed: int = 611953) -> IrfParams:
    rng = np.random.default_rng(seed)
    eta = 0.04 + 0.01j
    zs = 0.1 + 0.01 * (rng.random(20) - 0.5)
    lams = lam_center + 0.05 * (rng.random(20) - 0.5)
    cols = tuple((complex(z), complex(l)) for z, l in zip(zs, lams))
    p_center = complex(np.mean([z + (1 - l) * eta for z, l in cols]))
    ws = p_center + 0.005 * (rng.random(10) - 0.5 + 1j * (rng.random(10) - 0.5))
    return IrfParams(
        mode=FunctionMode.trigonometric(),
        eta=eta,
        lambda0=0.37 + 0.21j,
        columns=cols,
        rows=tuple(complex(w) for w in ws),
    )


def _build_dyn6v_positive() -> IrfParams:
    # Spin-1/2 quadrant with q = 0.64, xi*u near 1.5, alpha0 = 2: all six
    # plaquette weights lie in [0, 1] for every filling the quadrant can
    # reach (alpha stays in alpha0 * q^Z, which is positive).
    rng = np.random.default_rng(424711)
    q = 0.64
    eta = 1j * math.log(q) / (4 * math.pi)
    z_base = -1j * math.log(1.5) / (2 * math.pi) - eta
    # w-spread as wide as positivity allows (xi*u must stay above 1/sqrt(q));
    # well-separated rows keep the residue-sum route well-conditioned
    dz = 0.004 * (rng.random(28) - 0.5)
    dw = 0.022 * (rng.random(10) - 0.5)
    cols = tuple((complex(z_base + 1j * a), 1.0 + 0j) for a in dz)
    rows = tuple(complex(1j * b) for b in dw)
    lam0 = -0.5 + 1j * math.log(2.0) / (2 * math.pi)  # alpha0 = 2
    return IrfParams(
        mode=FunctionMode.trigonometric(),
        eta=eta,
        lambda0=lam0,
        columns=cols,
        rows=rows,
    )


def _build_rational_positive() -> IrfParams:
    rng = np.random.default_rng(87103)
    zs = 0.5 + 0.02 * (rng.random(28) - 0.5)
    ws = 0.2 * (rng.random(10) - 0.5)
    return IrfParams(
        mode=FunctionMode.rational(),
        eta=0.5,
        lambda0=-60.0 + 0j,
        columns=tuple((complex(z), 1.0 + 0j) for z in zs),
        rows=tuple(complex(w) for w in ws),
    )


_BUILDERS = {
    "trig-admissible": _build_trig_admissible,
    # Same recipe with highest weights near 3.4: the p/q separation is
    # 2*eta*Lambda, and nested contour families that also enclose the
    # unshifted p-cluster at every level (which the orthogonality residue
    # bookkeeping needs) fit inside circles for M <= 3 only when Lambda is
    # a few units.  At Lambda ~ 1.2 any disk around both p and p+4*eta
    # contains the q-cluster by convexity.
    "trig-admissible-wide": lambda: _build_trig_admissible(lam_center=3.4, seed=424243),
    "dyn6v-positive": _build_dyn6v_positive,
    "rational-positive": _build_rational_positive,
}
PRESET_NAMES = tuple(_BUILDERS)


def _validate_positive_preset(params: IrfParams, name: str) -> None:
    # Spot-check the six spin-1/2 weights a_1, b_0, b_1, c_1, d_0 and d_1
    # across the filling shifts a quadrant window of realistic size can
    # reach: one array call over the shifts per (x, y), the batch sampler's
    # turn table at m <= 1.  Array weights get no singular-denominator check
    # (scalar ones do), so a non-finite weight is rejected here.
    shifts = np.arange(-24, 25)
    lams = params.lambda0 + (-2 * params.eta) * shifts if params.mode.kind != "rational" else params.lambda0 + shifts
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        wgts = np.array([
            [_turn_table(lams, params.z(x) - params.w(y), params.lam(x), params.eta, params.mode.f, 1)
             for y in range(1, min(6, params.n_rows + 1))]
            for x in range(1, min(6, params.n_cols))
        ])  # (x, y, stay or turn, c, m, shift)
    wgts = np.moveaxis(wgts, -1, 0)  # shift first: the error names the lowest bad shift
    bad = _not_probability(wgts)
    if bad.any():
        first = tuple(np.argwhere(bad)[0])
        raise InvalidParameterError(
            f"preset {name} has non-probability weight {complex(wgts[first])} at shift {shifts[first[0]]}"
        )


def preset(name: str) -> IrfParams:
    """Load a named preset; positivity presets are re-validated on load."""
    try:
        built = _BUILDERS[name]()
    except KeyError:
        raise InvalidParameterError(
            f"unknown preset {name!r}; choices: {', '.join(PRESET_NAMES)}"
        ) from None
    if name in ("dyn6v-positive", "rational-positive"):
        _validate_positive_preset(built, name)
    else:
        check_admissible(built, 3, strong=(name == "trig-admissible-wide"))
    return built


def random_pack(rng: np.random.Generator, mode: FunctionMode) -> IrfParams:
    """Random 9-column pack (z ~ 0.3, Lambda ~ 1.15, small eta, lambda0 = 0,
    one row w_1 = 0) for oracle comparisons: 36 normals, then 2 uniforms."""
    re_z, im_z, re_l, im_l = (rng.standard_normal(9) for _ in range(4))
    cols = tuple(zip(0.3 + 0.25 * re_z + 0.12j * im_z, 1.15 + 0.3 * re_l + 0.1j * im_l))
    eta = complex(0.06 + 0.04 * rng.random(), 0.02 + 0.02 * rng.random())
    return IrfParams(mode, eta, 0.0, cols, (0.0,))


# ---------------------------------------------------------------------------
# JSON configuration (complex numbers as [re, im] pairs).
# ---------------------------------------------------------------------------


def params_to_json_dict(params: IrfParams) -> dict:
    out = {
        "mode": params.mode.kind,
        "eta": _c2pair(params.eta),
        "lambda0": _c2pair(params.lambda0),
        "columns": [{"z": _c2pair(z), "Lambda": _c2pair(l)} for z, l in params.columns],
        "rows": [_c2pair(w) for w in params.rows],
    }
    if params.mode.kind == "elliptic":
        out["tau"] = _c2pair(params.mode.tau)
    return out


def _field(obj, path: str, kind: type = object):
    """The field ``path`` (``eta``, ``columns[2].z``) of the config object
    ``obj``; InvalidParameterError names it if it is missing or not a ``kind``."""
    key = path.rpartition(".")[2]
    if isinstance(obj, dict) and key in obj and isinstance(obj[key], kind):
        return obj[key]
    raise InvalidParameterError(f"the config needs a field {path}" + ("" if kind is object else f" holding a {kind.__name__}"))


def params_from_json_dict(cfg: dict) -> IrfParams:
    """The pack of a config object of ``mode``, ``eta``, ``lambda0``, ``columns`` (a list
    of objects of ``z`` and ``Lambda``), ``rows`` (a list) and, in elliptic mode only, ``tau``, each number
    a finite real or an [re, im] pair; InvalidParameterError names a missing or malformed field,
    an eta of 0 (every 2*eta-shifted formula divides by f(2*eta)) or an empty column list."""
    if not isinstance(cfg, dict):
        raise InvalidParameterError(f"a config must be a JSON object, got {type(cfg).__name__}")
    num = lambda obj, path: _pair2c(_field(obj, path), path)
    params = IrfParams(
        mode=FunctionMode(_field(cfg, "mode"), num(cfg, "tau") if "tau" in cfg else None),
        eta=num(cfg, "eta"),
        lambda0=num(cfg, "lambda0"),
        columns=tuple((num(c, f"columns[{j}].z"), num(c, f"columns[{j}].Lambda")) for j, c in enumerate(_field(cfg, "columns", list))),
        rows=tuple(_pair2c(w, f"rows[{k}]") for k, w in enumerate(_field(cfg, "rows", list))),
    )
    if params.eta == 0 or not params.columns:
        raise InvalidParameterError("the config's eta is 0" if params.eta == 0 else "the config's columns list is empty")
    return params


def load_config(path) -> IrfParams:
    """The pack of a JSON config file (see :func:`params_from_json_dict`); an
    unreadable file or one that is not JSON raises InvalidParameterError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise InvalidParameterError(f"cannot read config {path}: {exc.strerror}") from None
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise InvalidParameterError(f"config {path} is not valid JSON: {exc}") from None
    return params_from_json_dict(cfg)

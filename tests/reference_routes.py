"""Routes that no command or report of dynirf runs, kept as test references.

Each one reads its numeric input as it did in the package, with
``special._as_int`` and ``_as_real``, so ``test_inputs`` still feeds its
rows, and the tests that check against it keep their assertions.  The
regime II and III profiles come back to the package with reports of their
own.  The scalar quadrant sampler ``sample_irf``, with its ``QuadrantState``
and the definition-level ``filling`` and ``height``, is the reference the
batch sampler ``samplers._irf_batch`` is tested against, trajectory for
trajectory; ``spin_pack(J)`` is a pack of spin-J columns it runs on.
``irf_batch_heights`` concatenates the height blocks that ``mc_E`` consumes;
``gamma_moment`` and ``law_moment`` are the moments of the regime-IV law;
``mc_lambda_independence`` is the Monte Carlo lambda-independence report,
whose gate of 4 combined standard errors lives here, not in the package.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from dynirf.asymptotics import H_profile, RegimeIVLaw
from dynirf.observables import MODELS, ObservableSpec, mc_E, rising
from dynirf.oracle import FinitaryVector, _apply
from dynirf.params import IrfParams, preset, to_six_vertex
from dynirf.samplers import _check_rows, _check_sites, _check_turn, _irf_height_blocks, uniform_hash
from dynirf.special import CheckReport, InvalidParameterError, _as_int, _as_real
from dynirf.symfunc import _strip
from dynirf.weights import plaquette_weights


def parts_from_occupations(occ) -> tuple:
    """The parts of a signature, largest first, from its occupation tuple."""
    parts = []
    for col in range(len(occ) - 1, -1, -1):
        parts.extend([col] * occ[col])
    return tuple(parts)


def apply_operator(op: str, lam: complex, w: complex, v: FinitaryVector, params, col_offset: int = 0) -> FinitaryVector:
    """Apply one of a/b/c/d (with its own lambda, w) to a finitary vector:
    ``oracle._apply`` with row w's ``plaquette_weights`` callback."""
    return _apply(op, lam, plaquette_weights(params, w), v, params, col_offset)


def enumerate_distribution(params: IrfParams, N: int, X: int):
    """Exact law of the crossing signature at height N + 1/2, truncated at
    parts <= X; complex weights are fine.  Returns (dist, escaped_mass).

    The law is one stochastic ``symfunc._strip`` of the empty signature:
    row y (bottom first) carries (lambda0 - 2*eta*y + 2*eta*Lambda_0, w_y).
    An N that fails ``_check_rows``, an X that is not an integer >= 0 or X
    past the pack's columns raises InvalidParameterError.
    """
    N, X = _check_rows(params, N), _as_int(X, "the part cap X", 0)
    ws = [params.w(y) for y in range(N, 0, -1)]
    dist = _strip((), params.lambda0 - 2 * params.eta * (N - params.lam(0)), ws, params, "stoch", cap=X)
    return dist, 1.0 - sum(dist.values())


def obs_O_six_vertex(hvalue: int, x: int, N: int, params: IrfParams) -> complex:
    """The height observable at lam = params.lambda0, written in six-vertex
    variables -1/alpha q^h + (s..)^2 q^{N-h}; h, x and N are integers."""
    hvalue = _as_int(hvalue, "the height h")
    x = _as_int(x, "site x")
    N = _as_int(N, "the row index N")
    sv = to_six_vertex(params)
    s_prod = 1.0 + 0.0j
    for j in range(x - 1):
        s_prod *= sv.s[j]
    return -(sv.alpha**-1) * sv.q**hvalue + s_prod**2 * sv.q ** (N - hvalue)


@dataclass(frozen=True)
class RegimeSpec:
    """Which long-time regime, at which rescaled space-time point: chi finite,
    tau > 0, and l (regime II) and lambda_bar (regime IV) finite and > 0,
    also where another regime ignores them."""

    regime: str  # "I" | "II" | "III" | "IV"
    chi: float
    tau: float
    l: float | None = None  # regime II: lim lambda_bar / sqrt(L)
    lambda_bar: float | None = None  # regime IV: fixed dynamic parameter

    def __post_init__(self):
        if self.regime not in ("I", "II", "III", "IV"):
            raise InvalidParameterError(f"unknown regime {self.regime!r}")
        _as_real(self.chi, "chi")
        _as_real(self.tau, "tau", 0, above=True)
        for name, value, regime in (("l", self.l, "II"), ("lambda_bar", self.lambda_bar, "IV")):
            if value is not None or self.regime == regime:
                _as_real(value, f"regime {regime}'s {name}", 0, above=True)


def limit_profile(spec: RegimeSpec):
    """Deterministic limit for regimes I-III; the law object for IV."""
    chi, tau = spec.chi, spec.tau
    if spec.regime == "I":
        return H_profile(chi, tau)
    if spec.regime == "II":
        l = float(spec.l)
        return math.sqrt(l * H_profile(chi, tau) + ((chi + l) / 2.0) ** 2) - (chi + l) / 2.0
    if spec.regime == "III":
        return math.sqrt(math.sqrt(tau / math.pi) + (chi / 2.0) ** 2) - chi / 2.0
    return RegimeIVLaw(chi=chi, tau=tau, lambda_bar=float(spec.lambda_bar))


def height_from_O(o: float, x: float, lambda_bar: float) -> float:
    """Positive root of O = h (h + x + lambda_bar); exact for h >= 0.  x must
    be finite, lambda_bar finite and > 0, and o finite and at least
    -((x + lambda_bar)/2)^2, where the root is real."""
    _as_real(x, "x")
    _as_real(lambda_bar, "lambda_bar", 0, above=True)
    half = (x + lambda_bar) / 2.0
    _as_real(o, "O", -half * half)
    return math.sqrt(o + half * half) - half


def spin_pack(J: int) -> IrfParams:
    """dyn6v-positive with every Lambda = J and every z shifted by -0.1i: its
    stochastic weights are probabilities in the 8 x 10 windows the tests use
    at J = 2 and 3, and occupations reach J."""
    p = preset("dyn6v-positive")
    return replace(p, columns=tuple((z - 0.1j, complex(J)) for z, _ in p.columns))


@dataclass
class QuadrantState:
    """Edge occupations of a finite quadrant window.

    ``vout[x, y]`` is the occupation of the vertical edge leaving vertex
    (x, y) upward (1 <= x <= X, 1 <= y <= Y); ``hout[x, y]`` the horizontal
    occupation leaving it rightward.  Boundary: one path enters each row
    from the left, none from below.  X and Y must be integers >= 0.
    """

    X: int
    Y: int
    vout: np.ndarray
    hout: np.ndarray
    params: IrfParams

    def __post_init__(self):
        self.X, self.Y = _as_int(self.X, "the column count X", 0), _as_int(self.Y, "the row count Y", 0)

    def v_in(self, x: int, y: int) -> int:
        return int(self.vout[x, y - 1]) if y >= 2 else 0

    def h_in(self, x: int, y: int) -> int:
        return int(self.hout[x - 1, y]) if x >= 2 else 1

    def validate(self) -> None:
        """Arrow conservation at every vertex, plus the finite-spin cap:
        column x holds at most Lambda_x arrows where Lambda_x is an integer;
        a window past the pack's columns raises InvalidParameterError."""
        _check_sites(self.params, (self.X,), "the column count X")
        for x in range(1, self.X + 1):
            for y in range(1, self.Y + 1):
                if self.v_in(x, y) + self.h_in(x, y) != int(self.vout[x, y]) + int(self.hout[x, y]):
                    raise InvalidParameterError(f"conservation violated at vertex ({x},{y})")
            lam = self.params.lam(x)
            if abs(lam - round(lam.real)) < 1e-12 and self.vout[x].max() > round(lam.real):
                raise InvalidParameterError(f"finite-spin occupation cap violated in column {x}")


def filling(state: QuadrantState, x: int, y: int, check: bool = False) -> complex:
    """Dynamic parameter of the unit square [x, x+1] x [y, y+1].

    Computed by walking right along row y from the left boundary value
    lambda_0 - 2*eta*y; with ``check`` also walks an up-then-right route
    and asserts path independence.  A square outside the sampled window
    raises InvalidParameterError.
    """
    x, y = _as_int(x, "the square's column x", 0, state.X), _as_int(y, "the square's row y", 0, state.Y)
    p = state.params
    two_eta = 2 * p.eta
    val = p.lambda0 - two_eta * y
    for col in range(1, x + 1):
        vocc = int(state.vout[col, y]) if y >= 1 else 0
        val += 2 * two_eta * vocc - two_eta * p.lam(col)
    if check and y >= 1:
        if x + 1 > state.X:
            raise InvalidParameterError("path-independence check needs x < X")
        alt = p.lambda0
        for col in range(1, x + 1):  # along the bottom, no vertical arrows
            alt -= two_eta * p.lam(col)
        for row in range(1, y + 1):  # climb at fixed x crossing h-edges
            alt += (1 - 2 * state.h_in(x + 1, row)) * two_eta
        if abs(alt - val) > 1e-12 * max(1.0, abs(val)):
            raise InvalidParameterError(f"filling not path-independent at ({x},{y})")
    return val


def height(state: QuadrantState, x: int, N: int) -> int:
    """Paths crossing the column-x line at height <= N, for x and N in the sampled window."""
    x, N = _as_int(x, "site x", 1, state.X), _as_int(N, "the row index N", 0, state.Y)
    return sum(state.h_in(x, y) for y in range(1, N + 1))


def sample_irf(params: IrfParams, X: int, Y: int, seed: int) -> QuadrantState:
    """Sweep the quadrant window row by row, bottom row first, tossing one
    Bernoulli variable per vertex with the stochastic plaquette biases.

    Row y starts from the filling lambda_0 - 2*eta*y and carries it along
    the row by ``filling``'s additions; one ``plaquette_weights`` callback
    weighs the row.  Each vertex's uniform is keyed by (seed, x, y).
    Works for any spin; weights must be probabilities: at every vertex the
    turn weight lies in [0, 1] and it sums to one with the other completion
    (a + c or b + d), each within 1e-9.  An X not an integer in 0..n_cols - 1,
    a Y that fails ``_check_rows`` or a seed that is not an integer raises
    InvalidParameterError.
    """
    (X,), Y = _check_sites(params, (X,), "the column count X", 0), _check_rows(params, Y)
    seed = _as_int(seed, "the seed")
    vout = np.zeros((X + 1, Y + 1), dtype=np.int64)
    hout = np.zeros((X + 1, Y + 1), dtype=np.int64)
    two_eta = 2 * params.eta
    for y in range(1, Y + 1):
        wf = plaquette_weights(params, params.w(y), True)
        lam_v, j1 = params.lambda0 - two_eta * y, 1  # one path enters each row from the left
        for x in range(1, X + 1):
            i1 = int(vout[x, y - 1])
            if j1 == 0:
                # outcomes: turn right (c) or straight (a); an empty vertex stays empty
                p_turn, p_other = (wf("C", i1, x, lam_v), wf("A", i1, x, lam_v)) if i1 >= 1 else (0.0, 1.0)
            else:
                # outcomes: pass through (d) or absorb up (b)
                p_turn, p_other = wf("D", i1, x, lam_v), wf("B", i1, x, lam_v)
            _check_turn(x, y, p_turn, p_turn + p_other)
            j2 = int(uniform_hash(seed, x, y) < min(max(complex(p_turn).real, 0.0), 1.0))  # a turn: an arrow exits right
            i2 = i1 + j1 - j2
            vout[x, y], hout[x, y] = i2, j2
            lam_v += 2 * two_eta * i2 - two_eta * params.lam(x)
            j1 = j2
    return QuadrantState(X, Y, vout, hout, params)


def irf_batch_heights(params: IrfParams, xs, N: int, seed: int, n_traj: int) -> np.ndarray:
    """The (n_traj, len(xs)) heights of ``samplers._irf_height_blocks``, its
    blocks concatenated, after reading the trajectory count, seed, sites and
    rows as ``mc_E`` does."""
    n_traj, seed = _as_int(n_traj, "the trajectory count", 0), _as_int(seed, "the seed")
    xs, N = _check_sites(params, xs), _check_rows(params, N)
    return np.concatenate([np.empty((0, len(xs)), dtype=np.int64), *_irf_height_blocks(params, xs, N, seed, n_traj)])


def gamma_moment(a: float, b: float, m: int) -> float:
    """m-th moment b^m (a)_m of the gamma law with shape a and scale b, both
    finite and > 0; an m that is not an integer >= 0 raises
    InvalidParameterError (``rising``)."""
    _as_real(a, "the gamma shape a", 0, above=True)
    _as_real(b, "the gamma scale b", 0, above=True)
    return rising(a, m) * b**m


def law_moment(law: RegimeIVLaw, m: int) -> float:
    """The m-th moment of the regime-IV law's gamma variable Y."""
    return gamma_moment(law.gamma_shape, law.gamma_scale, m)


def mc_lambda_independence(model: str, spec: ObservableSpec, lambdas, params_or_rates, samples: int, seed: int = 0) -> CheckReport:
    """Monte Carlo lambda independence: ``mc_E`` at each lambda, the worst
    mean against the first within 4 combined standard errors, relative to
    max(1, |first mean|).  lambdas are lambda_0 values ("irf"), lam_bar
    values ("ssep") or (q, alpha) pairs ("asep").  The report names the
    pack's model, irf or rational, or the exclusion model."""
    seed = _as_int(seed, "the seed")
    if len(lambdas) < 2:
        raise InvalidParameterError("lambda independence needs at least two lambdas")
    if model not in MODELS:
        raise InvalidParameterError(f"unknown model {model!r}")
    label = model if model != "irf" else "rational" if params_or_rates.mode.kind == "rational" else "irf"
    pack = params_or_rates.with_lambda0 if model == "irf" else {"ssep": lambda lam: (lam,), "asep": lambda lam: lam}[model]
    results = [mc_E(model, spec, pack(lam), samples, seed) for lam in lambdas]
    (m0, s0) = results[0]
    worst_i = max(range(1, len(results)), key=lambda i: abs(results[i][0] - m0))
    mi, si = results[worst_i]
    sigma = math.sqrt(s0 * s0 + si * si)
    return CheckReport(
        name=f"lambda-independence-{label}-mc-n{spec.n}",
        parameters={
            "xs": spec.xs,
            "means": [[m.real, m.imag] for m, _ in results],
            "stderrs": [s for _, s in results],
        },
        lhs=mi,
        rhs=m0,
        tolerance=4 * sigma / max(1.0, abs(m0)),
    )

"""Definition-level computation of skew B/D coefficients in finite tensor products.

This module is the independent oracle: it knows nothing about closed
formulas.  It applies the four operators to finitary vectors of a
truncated tensor product of evaluation Verma modules by expanding the
2x2 matrix-product tensor rule column by column, tracking the shift of
the dynamic parameter by -2*eta*(weight of the already-processed
components), where the weight of e_k in a module of highest weight
Lambda is (Lambda - 2k).

Everything here is exponential-time and proud of it; intended scale is
a handful of columns and occupations.  The closed-form evaluators in
:mod:`dynirf.symfunc` are tested against these routines.  An occupation
past the vector cap OCCUPATION_CAP, or a coefficient that moves with the
column count or depth, raises ConvergenceError.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cache

from .special import ConvergenceError, InvalidParameterError
from .weights import SingularParameterError, plaquette_weights

__all__ = [
    "FinitaryVector",
    "occupations_from_parts",
    "skew_B_oracle",
    "skew_D_oracle",
    "c_matrix_element",
]

PRUNE_REL = 1e-15
OCCUPATION_CAP = 8  # the most paths one column of a finitary vector holds


def occupations_from_parts(parts, n_cols: int) -> tuple:
    """Occupation tuple (m_0, ..., m_{n_cols-1}) of a signature's parts."""
    occ = [0] * n_cols
    for p in parts:
        if p < 0 or p >= n_cols:
            raise InvalidParameterError(f"part {p} outside column range 0..{n_cols - 1}")
        occ[p] += 1
    return tuple(occ)


@dataclass
class FinitaryVector:
    """Finite linear combination of occupation basis vectors.

    ``terms`` maps occupation tuples of fixed length ``n_cols`` to complex
    coefficients; terms smaller than PRUNE_REL of the largest magnitude
    are dropped on construction, and a NaN or infinite coefficient raises
    ``SingularParameterError``.
    """

    terms: dict
    n_cols: int

    def __post_init__(self):
        self.prune()

    @classmethod
    def from_parts(cls, parts, n_cols: int) -> "FinitaryVector":
        return cls({occupations_from_parts(parts, n_cols): 1.0 + 0.0j}, n_cols)

    def prune(self) -> None:
        for occ, c in self.terms.items():
            if not cmath.isfinite(c):
                raise SingularParameterError(f"coefficient {c} of occupation {occ} is not finite")
        if not self.terms:
            return
        peak = max(abs(c) for c in self.terms.values())
        cut = PRUNE_REL * peak
        self.terms = {occ: c for occ, c in self.terms.items() if abs(c) > cut}

    def coeff(self, parts) -> complex:
        return self.terms.get(occupations_from_parts(parts, self.n_cols), 0.0 + 0.0j)

    def total_occupation(self) -> int:
        levels = {sum(occ) for occ in self.terms}
        if len(levels) > 1:
            raise InvalidParameterError(f"mixed total occupations {levels}")
        return levels.pop() if levels else 0


_COL_IN = {"a": 0, "c": 0, "b": 1, "d": 1}
_ROW_OUT = {"a": 0, "b": 0, "c": 1, "d": 1}


def _apply(op: str, lam: complex, weight_fn, v: FinitaryVector, params, col_offset: int) -> FinitaryVector:
    # one of a/b/c/d at its own lambda, weighed by the callback ``weight_fn``
    # of its row parameter w (callers that apply one w several times share
    # its cache), on a finitary vector; tensor factor j is the Verma module of
    # column col_offset + j (0 for the skew functions, 1 for the c-matrix
    # elements)
    if op not in _COL_IN:
        raise InvalidParameterError(f"unknown operator {op!r}")
    if col_offset + v.n_cols > params.n_cols:
        raise InvalidParameterError("parameter pack has too few columns for this vector")
    eta = params.eta
    global_in = _COL_IN[op]
    global_out = _ROW_OUT[op]

    n = v.n_cols
    last = n - 1
    out: dict = {}
    for occ, coeff in v.terms.items():
        # weight of the untouched prefix: sum (Lambda_i - 2 k_i) over i < j
        h_old = 0j
        prefix_weights = []
        for j in range(n):
            prefix_weights.append(h_old)
            h_old += params.lam(col_offset + j) - 2 * occ[j]
        # steps[j][carry] = [(k_new, carry_out, weight)], filled the first
        # time the walk reaches that state; each path node then only multiplies
        steps = [[None, None] for _ in range(n)]
        # depth-first expansion over per-column branch choices
        stack = [(0, global_in, coeff, ())]
        while stack:
            j, carry, amp, new_prefix = stack.pop()
            if j == n:
                if carry == global_out:
                    out[new_prefix] = out.get(new_prefix, 0.0 + 0.0j) + amp
                continue
            branches = steps[j][carry]
            if branches is None:
                k = occ[j]
                # dynamic-parameter shift: processed components carry their
                # *new* occupations, which differ from the old ones by the
                # horizontal flux global_in - carry.
                lam_here = lam - 2 * eta * (prefix_weights[j] - 2 * global_in + 2 * carry)
                if carry == 0:
                    moves = [("A", k, 0)]
                    if k >= 1:
                        moves.append(("C", k - 1, 1))
                else:
                    if k + 1 > OCCUPATION_CAP:
                        raise ConvergenceError(f"occupation cap {OCCUPATION_CAP} hit at column {j}")
                    moves = [("B", k + 1, 0), ("D", k, 1)]
                # a path leaving the last column with carry != global_out is dropped unweighed
                branches = steps[j][carry] = [
                    (k_new, carry_out, weight_fn(kind, k, col_offset + j, lam_here))
                    for kind, k_new, carry_out in moves if j < last or carry_out == global_out
                ]
            for k_new, carry_out, wgt in branches:
                amp_new = amp * wgt
                if amp_new != 0:
                    stack.append((j + 1, carry_out, amp_new, new_prefix + (k_new,)))
    return FinitaryVector(out, v.n_cols)


def skew_B_oracle(nu, mu, lam: complex, ws, params) -> complex:
    """Coefficient of E_nu in b(lam,w_1) b(lam+2eta,w_2) ... applied to E_mu.

    Computed in a finite tensor product with more columns than the largest
    part; the independence of the column count is asserted by recomputing
    with one extra column.
    """
    nu, mu = tuple(nu), tuple(mu)
    n = len(ws)
    if len(nu) != len(mu) + n:
        raise InvalidParameterError("need len(nu) = len(mu) + len(ws)")
    n_cols = max([p + 1 for p in (*nu, *mu)] + [1]) + 1
    weight_fns = {w: cache(plaquette_weights(params, w)) for w in ws}

    def run(cols: int) -> complex:
        v = FinitaryVector.from_parts(mu, cols)
        for j in range(n, 0, -1):
            v = _apply("b", lam + 2 * params.eta * (j - 1), weight_fns[ws[j - 1]], v, params, 0)
        return v.coeff(nu)

    val = run(n_cols)
    val2 = run(n_cols + 1)
    if abs(val - val2) > 1e-10 * max(1.0, abs(val)):
        raise ConvergenceError("skew B coefficient depends on the column count", (val, val2))
    return val


def _normalized_d(lam_op: complex, w: complex, weight_fn, v: FinitaryVector, params) -> FinitaryVector:
    ell = v.total_occupation()
    out = _apply("d", lam_op, weight_fn, v, params, 0)
    eta = params.eta
    depth = v.n_cols - 1
    norm = 1.0 + 0.0j
    for i in range(depth + 1):
        z_i, lam_i = params.columns[i]
        norm *= params.f(z_i - w + (lam_i + 1) * eta) / params.f(z_i - w + (-lam_i + 1) * eta)
    norm /= params.f(lam_op - 2 * eta * (params.lam_sum(0, depth + 1) - 2 * ell))
    return FinitaryVector({occ: c * norm for occ, c in out.terms.items()}, v.n_cols)


def skew_D_oracle(nu, mu, lam: complex, ws, params) -> complex:
    """Coefficient of E_mu in the normalized d-string applied to E_nu.

    Uses finite depth max(nu_1, mu_1) + 1 and asserts stabilization against
    depth + 2 to 1e-10; failure signals inadmissible parameters rather than
    a soft warning.
    """
    nu, mu = tuple(nu), tuple(mu)
    if len(nu) != len(mu):
        raise InvalidParameterError("skew D needs len(nu) = len(mu)")
    n = len(ws)
    m = max([p for p in (*nu, *mu)] + [0]) + 1
    weight_fns = {w: cache(plaquette_weights(params, w)) for w in ws}

    def run(cols: int) -> complex:
        v = FinitaryVector.from_parts(nu, cols)
        for j in range(n, 0, -1):
            v = _normalized_d(lam + 2 * params.eta * (j - 1), ws[j - 1], weight_fns[ws[j - 1]], v, params)
        return v.coeff(mu)

    val = run(m + 1)
    val2 = run(m + 3)
    if abs(val - val2) > 1e-10 * max(1.0, abs(val), abs(val2)):
        raise ConvergenceError(f"skew D did not stabilize in depth: {val} vs {val2}", (val, val2))
    return val2


def c_matrix_element(ws, ks, lam: complex, params) -> complex:
    """<c(w_1)...c(w_p) (e_{k_1} x ... x e_{k_m}), e_0 x ... x e_0>.

    The tensor factors live in columns 1..m of the parameter pack (no
    boundary column), and the composition carries the tilde-shifts
    lam, lam - 2*eta, ....  Returns 0 when sum(ks) != len(ws).
    """
    p = len(ws)
    ks = tuple(ks)
    if sum(ks) != p:
        return 0.0 + 0.0j
    v = FinitaryVector({ks: 1.0 + 0.0j}, len(ks))
    weight_fns = {w: cache(plaquette_weights(params, w)) for w in ws}
    for j in range(p, 0, -1):
        v = _apply("c", lam - 2 * params.eta * (j - 1), weight_fns[ws[j - 1]], v, params, 1)
    return v.terms.get((0,) * len(ks), 0.0 + 0.0j)

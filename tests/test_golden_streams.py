"""Golden random streams: the Monte Carlo outputs, pinned bit for bit.

Every draw is a counter-based hash of (seed, keys), so a faster hash or a
restructured sweep must reproduce these digests exactly.  The exact routes'
two hot kernels, the enumeration's row sweep and the duality stencil, are
pinned the same way.  Each digest is the first 16 hex digits of a sha256.
"""

import hashlib

import numpy as np

from dynirf.cli import main
from dynirf.observables import ObservableSpec, _duality_moment, mc_E
from dynirf.params import preset
from dynirf.samplers import _irf_batch, enumerate_heights, exclusion_farm, simulate_exclusion, step_exclusion_state


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def test_batch_quadrant_sampler():
    # the occupations are int8; the digest was pinned on their int64 bytes
    batch = _irf_batch(preset("dyn6v-positive"), 4, 5, 1, 0, 10_000)
    occupations = (batch[k].astype(np.int64).tobytes() for k in ("vout", "hout"))
    assert digest(b"".join(occupations)) == "833836a862774bb7"


def test_event_logged_ssep():
    events = [
        simulate_exclusion(step_exclusion_state("ssep", (2.0,)), 20.0, seed=s, record=True).events for s in range(20)
    ]
    assert sum(map(len, events)) == 1341
    # pinned on the repr of lists of (t, x, s) tuples, the form tolist() gives
    assert digest(repr([e.tolist() for e in events]).encode()) == "c3c1f2960ab8e3a5"


def test_exclusion_farm_ssep_ks_shape():
    # the regime-IV KS run's shape: lambda_bar = 1, T = 200, 200 trajectories
    out = exclusion_farm("ssep", (1.0,), 200.0, 200, seed=7, xs=list(range(-40, 41)))
    assert digest(out.tobytes()) == "8c3cf58de58c0968"


def test_exclusion_farm_asep_mc_shape():
    # an mc_E-shaped ASEP run: 10^4 trajectories to T = 1
    out = exclusion_farm("asep", (0.5, 2.0), 1.0, 10_000, seed=3, xs=[-3, -1, 0, 2, 5])
    assert digest(out.tobytes()) == "357edfeb700e59c0"


def test_mc_E_across_blocks():
    # 40,000 samples: four full trajectory blocks of 2^13 and a partial one,
    # one full mc_E chunk of 2^15 and a partial one, so one chunk merge runs
    runs = [
        ("irf", ObservableSpec((3, 2), 4), preset("dyn6v-positive")),
        ("ssep", ObservableSpec((1, 0), 1.0), (2.0,)),
        ("asep", ObservableSpec((2,), 1.0), (0.5, 2.0)),
    ]
    results = [mc_E(model, spec, pack, 40_000, 5) for model, spec, pack in runs]
    assert digest(repr(results).encode()) == "5386fc530a0326dc"


def test_cli_simulate(capsys):
    runs = {
        "c0d011ae00051795": "--model ssep --lambda-bar 2 --t 5 --trajectories 20 --seed 7 --dump events",
        "ab090998aad01d5d": "--model irf --cols 6 --rows 6 --trajectories 50 --seed 7",
    }
    for want, args in runs.items():
        assert main(["simulate", *args.split()]) == 0
        assert digest(capsys.readouterr().out.encode()) == want


def test_cli_verify_all(capsys):
    # the whole verify battery's stdout, theta and every weight route included
    assert main(["verify", "--suite", "all", "--seed", "0"]) == 0
    assert digest(capsys.readouterr().out.encode()) == "de29f4e376af7937"


def test_enumeration_laws():
    # the joint height laws of the two dyn6v-positive specs that the exact
    # workload enumerates, pinned on the repr of the list of the two dicts
    P = preset("dyn6v-positive")
    laws = [enumerate_heights(P, N, xs) for xs, N in (((5, 3, 2), 5), ((9, 6, 3), 9))]
    assert digest(repr(laws).encode()) == "41acdac4d8de16d4"


def test_duality_moments():
    # the n = 2 window at t = 300 (exact's duality F2), a shifted pair and n = 3
    values = [_duality_moment(xs, t) for xs, t in (((0, 0), 300.0), ((3, 0), 20.0), ((0, -1, -2), 4.0))]
    assert digest(repr(values).encode()) == "a557d4ba4c62c206"

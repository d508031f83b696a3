"""Golden random streams: the Monte Carlo outputs, pinned bit for bit.

Every draw is a counter-based hash of (seed, keys), so a faster hash or a
restructured sweep must reproduce these digests exactly.  Each digest is
the first 16 hex digits of a sha256.
"""

import hashlib

from dynirf.cli import main
from dynirf.params import preset
from dynirf.samplers import exclusion_farm, sample_irf_batch, simulate_exclusion, step_exclusion_state


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def test_batch_quadrant_sampler():
    batch = sample_irf_batch(preset("dyn6v-positive"), 4, 5, seed=1, n_traj=10_000)
    assert digest(batch["vout"].tobytes() + batch["hout"].tobytes()) == "833836a862774bb7"


def test_event_logged_ssep():
    events = [
        simulate_exclusion(step_exclusion_state("ssep", (2.0,)), 20.0, seed=s, record=True).events for s in range(20)
    ]
    assert sum(map(len, events)) == 1341
    assert digest(repr(events).encode()) == "c3c1f2960ab8e3a5"


def test_exclusion_farm_ssep_ks_shape():
    # the regime-IV KS run's shape: lambda_bar = 1, T = 200, 200 trajectories
    out = exclusion_farm("ssep", (1.0,), 200.0, 200, seed=7, xs=list(range(-40, 41)))
    assert digest(out.tobytes()) == "8c3cf58de58c0968"


def test_exclusion_farm_asep_mc_shape():
    # an mc_E-shaped ASEP run: 10^4 trajectories to T = 1
    out = exclusion_farm("asep", (0.5, 2.0), 1.0, 10_000, seed=3, xs=[-3, -1, 0, 2, 5])
    assert digest(out.tobytes()) == "357edfeb700e59c0"


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
    assert digest(capsys.readouterr().out.encode()) == "6cbc003a04ef38ca"

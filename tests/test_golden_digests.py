"""Golden digests of the byte-identity anchors.

Each row pins the sha256 of one anchor's standard output, or one
content-addressed cache key, or one numeric phase's result, so a change
that moves the output passes only if it also changes the digest here —
and says in CHANGES.md which digest changed and why.  Run in-process.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import workloads
from repro.cli import main
from repro.cohort.sections import make_paper_sections
from repro.core.study import PBLStudy
from repro.core.targets import PAPER, simulation_targets
from repro.course.simulate import simulate_gradebook
from repro.pipeline.store import job_key
from repro.pipeline.workloads import named_pipeline
from repro.sched.cache import fingerprint
from repro.simulation import ResponseModel, calibrate

#: (anchor, CLI arguments, sha256 of its standard output).
ANCHORS = [
    ("chaos pipeline --seed 7", ["chaos", "pipeline", "--seed", "7"],
     "829ff35f34035455002f5241ef2f94ad8ebd99ac42d8117aa7c95c7cb3196ab6"),
    ("study", ["study"],
     "47cc267add45cf7802056dc9c2e5ae323856dec76ea1be491a88df4bf7ca962c"),
    ("reproduce --artifact all", ["reproduce", "--artifact", "all"],
     "721030cbecc750734ec425ef7092c5946c1e2d2d69ecec4f62ef5b4d2de7f0ed"),
    ("study --seed 7919", ["study", "--seed", "7919"],
     "249f9160329a18eaa71ea55b1c983950929ec9840bc2271daa9a938731ceff4e"),
    ("megacohort --check-identity", ["megacohort", "--check-identity"],
     "181cd3869760e831f857aa1ecff6e44582d910a45ff5d1402e1079988ca0db13"),
    ("trace --list", ["trace", "--list"],
     "44e09d29194c5c8046c502c95202dc0e7668b184b1bb0306a42a1c2371e6c347"),
    ("sched drugdesign --seed 7", ["sched", "drugdesign", "--seed", "7"],
     "f048f0bfa85a823da67f9955356f706b4496b31d53658d84bf0947b95f70dd9b"),
    ("chaos drugdesign --seed 7", ["chaos", "drugdesign", "--seed", "7"],
     "41a1db759b57b520f89da2eeb8cb0ac9be7821f4d6b1f182be84c2e5403e4a55"),
    ("sched mapreduce --seed 7", ["sched", "mapreduce", "--seed", "7"],
     "f206ab8e33a82064a8258c5a89a02873da20048b20cb77ddecf2a3508c2636b4"),
    ("sched openmp --seed 7", ["sched", "openmp", "--seed", "7"],
     "a847f7889268dbc6be883b958e9bda9870ae7b42eac4626d6497bd398ef7dadc"),
    ("sched megacohort --seed 7", ["sched", "megacohort", "--seed", "7"],
     "4788fba9e70877487c073750329d78d8b46feea119bf5785122fbd988809dca2"),
    ("sched stencil_sched --seed 7", ["sched", "stencil_sched", "--seed", "7"],
     "9994e3502ed6ad2987adebe67f75343bf8362a355b092960ffc72119304869c7"),
    ("chaos collectives --seed 7", ["chaos", "collectives", "--seed", "7"],
     "0153ee54bcb6838c938d8086c04ed1488ed73d0a12d2536af67bd0bcb64206db"),
    ("chaos mapreduce --seed 7", ["chaos", "mapreduce", "--seed", "7"],
     "7ddf3c0d4e1266b8c87d45bfb96543a2e6065dbe4f2068b17d32d2c00fd64d92"),
    ("chaos megacohort --seed 7", ["chaos", "megacohort", "--seed", "7"],
     "87a7350ff2c68da60d9dbd33f0fc6853af9ce12f9750e46f68828f7959f86e3f"),
    ("chaos mpi --seed 7", ["chaos", "mpi", "--seed", "7"],
     "c069106179acd6c12df6f51334cb31d707185cb8179536360dc785d5d2899073"),
    ("chaos openmp --seed 7", ["chaos", "openmp", "--seed", "7"],
     "9547a61354b87a0151feb0fa8646c76503c3fef348295afa4f9f5a8fc7621ee1"),
    ("chaos partition --seed 7", ["chaos", "partition", "--seed", "7"],
     "8041f9397ce77b14fd47511faf5d69ac42141268e839cee565b777433fbfdf92"),
    ("chaos stencil --seed 7", ["chaos", "stencil", "--seed", "7"],
     "3d3fdb9845f009c1b8e83591d54b999276c29528d4d25421e842ea43a78b6781"),
    ("chaos stencil_sched --seed 7", ["chaos", "stencil_sched", "--seed", "7"],
     "4315038427440f2c9006e2d82f804b265587ebb6e8bee9b58f33039559454741"),
]


@pytest.mark.parametrize("argv, digest",
                         [(argv, digest) for _name, argv, digest in ANCHORS],
                         ids=[name for name, _argv, _digest in ANCHORS])
def test_anchor_output_matches_its_golden_digest(argv, digest, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, out


def _serve_key(mode, workload, params):
    """The result-cache key ``repro serve`` gives a job spec."""
    entry = workloads.get(workload)
    return fingerprint("serve", mode, entry.name,
                       workloads.validate_params(mode, params))


#: (name, how the program computes the key, its pinned value) for jobs
#: the service, the sched cache and the pipeline store key.  A change to
#: ``canonical_repr`` or to the key parts that moves one of these
#: invalidates every cache directory and pipeline store already on disk.
CACHE_KEYS = [
    ("serve sched mapreduce",
     lambda: _serve_key("sched", "mapreduce", {"workers": 4, "seed": 7}),
     "43dbed6701a21e77b6b772d5951512f16be8042353aaca3c4a201b351a911edd"),
    ("serve sched drugdesign threaded",
     lambda: _serve_key("sched", "drugdesign", {"seed": 7, "mode": "threaded"}),
     "48cb5aa2bc2320a79c8f2c25ef352681871ba9fae082fd4e778b7ea8fdcc6379"),
    ("serve sched stencil_sched mp",
     lambda: _serve_key("sched", "stencil_sched",
                        {"workers": 2, "seed": 3, "mode": "mp"}),
     "39e2da80c61e761d166ca027ad3e3b114a06c5c78b440822a0224564c8782776"),
    ("serve sched openmp speculate",
     lambda: _serve_key("sched", "openmp", {"seed": 0, "speculate": 1}),
     "7384a465be5e0e3c96f1edef21630d0a49feebb04065109e695004e82b6434b7"),
    ("serve trace mapreduce",
     lambda: _serve_key("trace", "mapreduce", {"threads": 4}),
     "d8273ab3c6fa67dea4c33e0af439df3253ecf3f6864d30b3cad797cc055956cc"),
    ("serve chaos drugdesign",
     lambda: _serve_key("chaos", "drugdesign", {"seed": 7, "threads": 2}),
     "54d81e38d26301ef3933f3301492eef72f5a554f8c61be75521ca95b62353257"),
    ("serve pipeline drugdesign",
     lambda: _serve_key("pipeline", "drugdesign", {"workers": 2, "seed": 1}),
     "d9c8d4e0b2d990b09dc357cdff44229345ce0a92a06c1c4127d8f729e2c457c2"),
    ("sched cache drugdesign threaded",
     lambda: fingerprint("sched", "drugdesign", 4, 7),
     "c525cc3e7b48c5309cb646de6d9ef23c121af77f5883c5100621bcc3d975632c"),
    ("sched cache stencil_sched mp",
     lambda: fingerprint("sched", "stencil_sched", 4, 7, "mp"),
     "909e82b561d918bb783eea3bf0bf615c76866e09b6dd9e2a41eb462d7d3eac22"),
    ("pipeline job key",
     lambda: job_key("drugdesign-s7-0123456789ab", "score",
                     {"ligand": "acgt", "protein": "cgta", "weight": 0.5,
                      "tags": ["a", None, True], "n": 3}),
     "1389ce445d8dd3b1623383b65e5d39c7ad4720e5260deb4126965a61919f4dc5"),
    ("pipeline run id",
     lambda: named_pipeline("drugdesign").default_run_id(7, {"workers": 2}),
     "drugdesign-s7-de00f27fd2c2"),
    ("mixed scalar and container parts",
     lambda: fingerprint("mixed", 1.5, -0.0, True, None, b"x",
                         frozenset({"b", "a"}), {"k": (1, [2.0, False])}),
     "bbf6bee287b8a2f9aeec952eee6660feb4185fa128c5417c28f4f9f935b51efd"),
]


@pytest.mark.parametrize("key, digest",
                         [(key, digest) for _name, key, digest in CACHE_KEYS],
                         ids=[name for name, _key, _digest in CACHE_KEYS])
def test_cache_key_matches_its_golden_digest(key, digest):
    assert key() == digest


def _calibration_digest(seed):
    """sha256 of ``calibrate``'s knobs, rounds and errors for one seed."""
    targets = simulation_targets(PAPER)
    model = ResponseModel(targets.skills, targets.n_students, seed=seed)
    result = calibrate(model, targets)
    knobs = result.knobs
    h = hashlib.sha256()
    for array in (knobs.mu, knobs.alpha, knobs.c_q):
        h.update(array.tobytes())
    h.update(repr((knobs.rho_p, result.rounds, result.max_mean_error,
                   result.max_sd_error, result.max_r_error,
                   result.converged)).encode("utf-8"))
    return h.hexdigest()


#: (seed, sha256 of its calibration).  Calibration branches on every
#: float ``ResponseModel.observed`` returns, so these rows pin those
#: floats too.  Seed 2018 converges in 10 rounds; seeds 0 and 7919 stop
#: at ``MAX_ROUNDS``.
CALIBRATIONS = [
    (2018, "dadbe16e7f05f3d292923d122e15ae8f3849c5e96370427d3b2e9899f332adb5"),
    (0, "ec5f58610aecf8ea77ed8d8a4b41e762e92c398ab77e60404e1912739d9ac7cd"),
    (7919, "4683a88e67b4a284709b1452b9f864377cd7f3fd0c847445dc8c2d38c7c417bc"),
]


@pytest.mark.parametrize("seed, digest", CALIBRATIONS,
                         ids=[str(seed) for seed, _digest in CALIBRATIONS])
def test_calibration_matches_its_golden_digest(seed, digest):
    assert _calibration_digest(seed) == digest


#: (seed, sha256 of ``repr(simulate_gradebook(teams, seed))``) with the
#: teams the study forms at that seed.
GRADEBOOKS = [
    (2018, "f58f93dba4a90d284a7d31a4cd71eb3d4868600acb318a3dda6f838fa9a73282"),
    (7919, "596d5f169ccfb31037a48e0aa9966e0e2a812136c57b3b37ac43affeca826a6f"),
]


@pytest.mark.parametrize("seed, digest", GRADEBOOKS,
                         ids=[str(seed) for seed, _digest in GRADEBOOKS])
def test_gradebook_matches_its_golden_digest(seed, digest):
    teams = PBLStudy(seed=seed)._teams(make_paper_sections(seed=seed))
    gradebook = simulate_gradebook(teams, seed=seed)
    assert hashlib.sha256(repr(gradebook).encode("utf-8")).hexdigest() == digest

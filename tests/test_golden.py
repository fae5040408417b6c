"""Golden values: fixed-seed outputs pinned to 1e-12 relative, the
kernel-check scalars bit for bit and the CSV bytes of every subcommand by
digest, so that a refactor of the Szego evaluators, the samplers, the grid
synthesis, the kernels or the replica glue cannot drift silently."""

import hashlib

import numpy as np
import pytest

from conftest import mc_field_at
from thickpoints import cli, cue, montecarlo
from thickpoints.cue import eval_field, sample_verblunsky
from thickpoints.montecarlo import Experiment, ExperimentConfig, run_experiment
from thickpoints.special_fn import GammaConvention

RTOL = 1e-12


def test_verify_moments_field_at_0():
    config = ExperimentConfig(Experiment.MOMENT_CHECK, n=64, replicas=4, master_seed=2024)
    records, _ = run_experiment(config)
    got = [r["field_at_0"] for r in records]
    want = [1.7878775447480715, 0.6355750396277267, 4.146642984615555, 0.45810215800742904]
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=0.0)


def test_mc_field_at():
    got = mc_field_at(16, [0.0, 2.1], 3, np.random.default_rng(7))
    want = [
        [-1.9482041367438039, 2.148924871999114],
        [-2.310488295195975, -0.5220346987688737],
        [-1.4674517812294758, -0.5611428712663012],
    ]
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=0.0)


def test_eval_field_grids():
    alphas = sample_verblunsky(24, np.random.default_rng(11))
    # a 16-point grid, too coarse to resolve the polynomial: the per-point
    # Szego recursion
    per_point = [
        -0.2792260907988022, -1.355378192268603, 1.4220871401223831, 3.1144744238702424,
        -0.22989986228373774, 3.292465821752468, -0.2609144255633822, 4.19810033713891,
        0.12407329251888607, -0.22451861715343407, -1.889445907878397, -1.6700592409469,
        -3.8245005261310823, -0.17060996036912304, 1.4578286285026305, -2.753177493599117,
    ]
    got = cue.eval_field_at(alphas[None], 2.0 * np.pi * np.arange(16) / 16)[0]
    np.testing.assert_allclose(got, per_point, rtol=RTOL, atol=0.0)
    # grid_size > n: one FFT of the synthesized coefficients
    fft = [
        -0.2792260907988026, 1.4220871401223834, -0.22989986228373588, -0.2609144255633714,
        0.12407329251888004, -1.8894459078784005, -3.824500526131065, 1.457828628502635,
    ]
    row = cue.szego_coefficients(alphas[None])[0]
    np.testing.assert_allclose(eval_field(row, 128).values[::16], fft, rtol=RTOL, atol=0.0)


def test_nu_mu_barrier_columns():
    # 20 modes on a 32-point grid: modes 17-20 are folded and the Nyquist
    # mode is doubled in the truncated-field synthesis
    config = ExperimentConfig(
        Experiment.NU_MU_DISCREPANCY, n=8, grid_factor=4, ell=1, L=3, replicas=4
    )
    records, _ = run_experiment(config)
    want = {
        "nu_barrier_violation_l1": [
            0.5329980210687831, 0.5329980210687831, 0.7328722789695769, 0.5329980210687831,
        ],
        "nu_barrier_violation_l2": [
            0.3331237631679895, 0.3997485158015874, 0.5329980210687831, 0.4663732684351853,
        ],
        "nu_barrier_violation_l3": [
            0.26649901053439157, 0.3331237631679895, 0.3997485158015874, 0.13324950526719578,
        ],
        "nu": [0.5329980210687831, 0.5329980210687831, 0.7328722789695769, 0.7328722789695769],
        "mu": [0.9844461903002463, 1.0679825836131673, 1.0148320742038146, 0.9436980039421252],
    }
    for name, values in want.items():
        got = [r[name] for r in records]
        np.testing.assert_allclose(got, values, rtol=RTOL, atol=0.0, err_msg=name)


def test_gaussian_gmc_mass_odd_grid():
    # kmax=7 on an odd grid of 35 points: no Nyquist mode
    config = ExperimentConfig(Experiment.GAUSSIAN_GMC, kmax=7, grid_factor=5, replicas=4)
    records, _ = run_experiment(config)
    got = [r["gmc_mass"] for r in records]
    want = [1.0488756890702826, 0.8553437029853983, 1.0514988129775775, 0.9961558698838396]
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=0.0)


# n = 256 and 300 lie above cue.SZEGO_LEAF, so these pin the product
# tree; 300 also has an odd leaf count and a partial last leaf.  Float
# columns hold to RTOL; the count-based columns (nu and the barrier
# violations, each a grid-point count times a constant) must not move at all.
TREE_FK_MASS = {
    256: [0.9280926951436611, 0.8261805974892932, 0.8123284677110295],
    300: [0.8199781694962258, 0.8121605810158593, 0.9190009569142024],
}
TREE_NU_MU_FLOATS = {
    256: {
        "mu": [1.007087535437931, 1.0915591864839302, 0.96170889529109],
        "discrepancy": [0.027880883246042987, 0.20542304608002626, 0.23549673288907413],
    },
    300: {
        "mu": [1.2022789588966167, 0.9834470603284016, 1.1821612041717633],
        "discrepancy": [0.3355402434747541, 0.10976517762679094, 0.24020484321929836],
    },
}
TREE_NU_MU_COUNTS = {
    256: {
        "nu": [0.979206652191882, 0.8861361404038985, 0.7262121624020115],
        "nu_barrier_violation": [0.6999951168279317, 0.651493582515884, 0.5033672750223329],
        "nu_barrier_violation_l2": [0.6999951168279317, 0.651493582515884, 0.5033672750223329],
        "nu_barrier_violation_l3": [0.6056137527612443, 0.5898835254167963, 0.4076750586769415],
        "nu_barrier_violation_l4": [0.4338921042510213, 0.481082786284365, 0.2569270466259824],
    },
    300: {
        "nu": [0.8667387154218573, 0.8736818827016052, 0.9419563609524592],
        "nu_barrier_violation": [0.6596008915760463, 0.608684331524562, 0.7614340116790149],
        "nu_barrier_violation_l2": [0.6596008915760463, 0.608684331524562, 0.7614340116790149],
        "nu_barrier_violation_l3": [0.6040555533380635, 0.5542961878332039, 0.6572865024827971],
        "nu_barrier_violation_l4": [0.5045368223283442, 0.37261664401313493, 0.4640350131964817],
    },
}


@pytest.mark.parametrize("n", [256, 300])
def test_fk_mass_tree_path(n):
    config = ExperimentConfig(
        Experiment.FK_TEST, n=n, gamma=0.3, convention=GammaConvention.CONJECTURE,
        replicas=3, master_seed=11,
    )
    assert n > cue.SZEGO_LEAF
    records, _ = run_experiment(config)
    got = [r["fk_mass"] for r in records]
    np.testing.assert_allclose(got, TREE_FK_MASS[n], rtol=RTOL, atol=0.0)


@pytest.mark.parametrize("n", [256, 300])
def test_nu_mu_tree_path(n):
    # ell = 2 with the automatic depth L = 4: barrier levels 2, 3 and 4
    config = ExperimentConfig(Experiment.NU_MU_DISCREPANCY, n=n, ell=2, replicas=3, master_seed=11)
    assert n > cue.SZEGO_LEAF
    records, _ = run_experiment(config)
    for name, values in TREE_NU_MU_FLOATS[n].items():
        got = [r[name] for r in records]
        np.testing.assert_allclose(got, values, rtol=RTOL, atol=0.0, err_msg=name)
    for name, values in TREE_NU_MU_COUNTS[n].items():
        assert [r[name] for r in records] == values, name


# trace-cov on the one-leaf recursion (n = 16) and on the product tree
# (n = 64, 256, 300, past cue.SZEGO_LEAF), with kmax past n so that Newton's
# identities run beyond the polynomial's degree.
TRACE_COV = {
    (16, 40): {
        "abs_trace_sq_k1": [0.24780603982111513, 3.4625108829439637, 2.396179375520503],
        "abs_trace_sq_k8": [4.4459406177129095, 2.23455213128145, 5.30877540968531],
        "abs_trace_sq_k16": [0.363494453128414, 18.301317165440707, 6.296350003213955],
        "abs_trace_sq_k32": [33.27824389613784, 14.53414863865061, 8.651181380739907],
    },
    (64, 128): {
        "abs_trace_sq_k1": [1.8673975549097344, 0.8189158026200111, 1.9053121086616096],
        "abs_trace_sq_k8": [2.5886003269766396, 1.575454666248529, 0.6607697726527708],
        "abs_trace_sq_k64": [64.6905532871639, 17.795455733438107, 16.1743659994738],
        "abs_trace_sq_k128": [66.29266883310235, 37.488526549370825, 31.545838423567314],
    },
    (256, 300): {
        "abs_trace_sq_k1": [0.37437374458300676, 0.9533765572143283, 0.23225496266544235],
        "abs_trace_sq_k8": [2.4279092610491904, 3.5332142870111185, 8.464468060017461],
        "abs_trace_sq_k256": [989.1569573832556, 441.3502770107794, 335.51231133265],
    },
    (300, 600): {
        "abs_trace_sq_k1": [1.3399387002913643, 0.1756394955285928, 0.9789054143380481],
        "abs_trace_sq_k8": [3.9753770850245367, 5.319275467119774, 0.8703114434481282],
        "abs_trace_sq_k300": [194.2567220141776, 119.19167868257736, 769.5837412373575],
        "abs_trace_sq_k600": [14.28914927058356, 122.95487101905718, 1102.3406121032438],
    },
}


@pytest.mark.parametrize("n, kmax", list(TRACE_COV))
def test_trace_cov(n, kmax):
    config = ExperimentConfig(
        Experiment.TRACE_COVARIANCE, n=n, kmax=kmax, replicas=3, master_seed=31
    )
    records, _ = run_experiment(config)
    assert set(records[0]) == set(TRACE_COV[n, kmax])
    for name, values in TRACE_COV[n, kmax].items():
        got = [r[name] for r in records]
        np.testing.assert_allclose(got, values, rtol=RTOL, atol=0.0, err_msg=name)


# 70 verify-moments and 40 gaussian-gmc replicas: more than one replica block
# each; the pinned indices sit on both sides of the block edges.
MOMENT_INDICES = [0, 1, 62, 63, 64, 65, 69]
MOMENTS = {
    "exp_moment": [
        5.07460435592109, 0.6260670691566538, 0.967543541074886, 1.5425112510411305,
        1.816334309909102, 2.1383930461052043, 1.5948296792771257,
    ],
    "field_at_0": [
        2.7070809374407356, -0.7804962906552572, -0.05499141899310569, 0.722352951334518,
        0.9947005909933404, 1.266757723203995, 0.777944910637837,
    ],
}


def test_verify_moments_across_blocks():
    config = ExperimentConfig(
        Experiment.MOMENT_CHECK, n=64, gamma=0.6, replicas=70, master_seed=32
    )
    records, _ = run_experiment(config)
    for name, values in MOMENTS.items():
        got = [records[i][name] for i in MOMENT_INDICES]
        np.testing.assert_allclose(got, values, rtol=RTOL, atol=0.0, err_msg=name)


GMC_INDICES = [0, 14, 15, 16, 31, 32, 39]
GMC_MASS = [
    0.8000738127839679, 0.41248461966923944, 0.8315843271015726, 0.46870673187650447,
    0.5697313975482167, 0.3975356119719911, 0.8478794943232927,
]


def test_gaussian_gmc_across_blocks():
    config = ExperimentConfig(
        Experiment.GAUSSIAN_GMC, kmax=512, gamma=1.0, replicas=40, master_seed=33
    )
    records, _ = run_experiment(config)
    got = [records[i]["gmc_mass"] for i in GMC_INDICES]
    np.testing.assert_allclose(got, GMC_MASS, rtol=RTOL, atol=0.0)


def test_kernel_check_values_bitwise():
    # the kernel-check scalars are pinned bit for bit, as float.hex(), since
    # slicing the truncated-kernel separations and evaluating each distinct
    # assumption-1 separation once must not move them at all
    got = {name: value.hex() for name, value in montecarlo._kernel_check_values().items()}
    assert got == {
        "truncated_kernel_max_dev": "0x1.64e241e7be52ep-1",
        "assumption1_max_dev": "0x1.71339c4a1e7aap+0",
    }


# The sha256 of each CSV that `thickpoints` writes for small fixed-seed
# configs at two workers: every byte of every row (replica index, derived
# seed and the repr of each scalar) is pinned, not only the values.
CSV_DIGESTS = {
    "verify-moments": (
        ["verify-moments", "n=16", "gamma=0.6", "replicas=70", "master_seed=32"],
        "6518525f6b5fac608ecf05e7bf800358bb0e45382c0c5060706bee004516d445",
    ),
    "trace-cov": (
        ["trace-cov", "n=64", "kmax=128", "replicas=9", "master_seed=31"],
        "9b380037e9435007c1a1c643c985e26dbb3fc58926ab3752aafcce7a07f36167",
    ),
    "trace-cov-tree": (
        ["trace-cov", "n=300", "kmax=600", "replicas=3", "master_seed=31"],
        "7e0c47022cf5ecb14dd357d18eb9da3b3eda04d39e495b85e3065ac61384dc03",
    ),
    "gaussian-gmc-even": (
        ["gaussian-gmc", "kmax=16", "gamma=1.0", "replicas=40", "master_seed=33"],
        "41a6eb76c2336210baec791e047893d620ad28d0bdf11cbacb89b49b1b8ea22b",
    ),
    "gaussian-gmc-odd": (
        ["gaussian-gmc", "kmax=7", "grid_factor=5", "replicas=5", "master_seed=33"],
        "b589c8854595d10b4cf60f28637262f440db261a8b243fec5f5581a1a11dde7f",
    ),
    "fk-test": (
        ["fk-test", "n=64", "gamma=0.3", "convention=conjecture", "replicas=5", "master_seed=11"],
        "b75789f165d1c1c688630bd09b440960f99bc71f27a86a750812cf9890ab6fc2",
    ),
    "nu-mu-ell": (
        ["nu-mu", "n=64", "ell=1", "replicas=5", "master_seed=4"],
        "4c0ee42940bc079c1968f35d6c4919e56390795d0e26ffb411522bec663c09b9",
    ),
    "nu-mu-g-shift": (
        ["nu-mu", "n=32", "g_shift=0.2", "replicas=5", "master_seed=4"],
        "cc30997c7b06c579028b87940cc3257937acab0f6b7475adee369953393503e8",
    ),
    "kernel-check": (
        ["kernel-check", "replicas=2"],
        "f16740b493e803df99e07fd1adb20ef699544a258b78fcfe1d125f16acf0f334",
    ),
    "sample": (
        ["sample", "n=8", "replicas=3", "master_seed=5"],
        "8a8e5bbe0b81a7e36516790d2d12c582cfae3ca5af48605ff941f0bb60af0fd3",
    ),
}


@pytest.mark.parametrize("name", list(CSV_DIGESTS))
def test_csv_digests(name, tmp_path, monkeypatch):
    (subcommand, *settings), digest = CSV_DIGESTS[name]
    monkeypatch.setenv("THICKPOINT_THREADS", "2")
    argv = [subcommand, *(arg for item in settings for arg in ("--set", item))]
    assert cli.main([*argv, "-o", str(tmp_path / "out")]) == cli.EXIT_OK
    assert hashlib.sha256((tmp_path / "out.csv").read_bytes()).hexdigest() == digest

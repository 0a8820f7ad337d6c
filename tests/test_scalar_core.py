"""The 2x2 and 4x4 layer on plain floats.

Transform4 products, apply and metric_defect are checked against numpy,
and products against exact rational arithmetic, on random products of
lifts and shears; every command-line shape is run in a fresh
interpreter to show that none of them imports numpy.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import twobeam
from twobeam import PhysicsError, Transform4, f1, f2, iwasawa_decompose, lift, metric_defect
from twobeam import wigner_decompose
from test_states import random_element, random_physical_stokes

SRC = Path(__file__).resolve().parents[1] / "src"


def random_transform(rng):
    """A product of lifts of random elements and f1, f2 shears."""
    t = lift(random_element(rng))
    for _ in range(rng.integers(1, 4)):
        pick = rng.integers(3)
        if pick == 0:
            factor = f1(rng.uniform(-2.0, 2.0))
        elif pick == 1:
            factor = f2(rng.uniform(-2.0, 2.0))
        else:
            factor = lift(random_element(rng, eta_max=2.0))
        t = t @ factor
    return t


def test_products_apply_and_defect_match_numpy():
    rng = np.random.default_rng(71)
    g = np.diag([1.0, -1.0, -1.0, -1.0])
    for _ in range(300):
        a, b = random_transform(rng), random_transform(rng)
        t = a @ b
        m = t.m
        bound = 1e-14 * max(1.0, np.abs(m).max() ** 2)
        assert np.abs(m - a.m @ b.m).max() <= bound
        s = random_physical_stokes(rng)
        assert np.abs(t.apply(s).as_array() - m @ s.as_array()).max() <= bound
        assert abs(metric_defect(t) - np.abs(m.T @ g @ m - g).max()) <= bound


# Each entry of a 4x4 product is a four-term dot product summed left to
# right, so its error is at most gamma_4 sum |a_ik b_kj| (Higham, ch. 3),
# plus half the subnormal spacing for each product that underflows.
U = Fraction(1, 2**53)
GAMMA4 = 4 * U / (1 - 4 * U)
UNDERFLOW = 4 * Fraction(1, 2**1075)


def test_products_round_within_the_dot_product_bound():
    rng = np.random.default_rng(71)
    # unit scale, large entries (products near 2^900) and products that
    # underflow into the subnormal range; powers of two scale exactly
    scales = ((1.0, 1.0), (2.0**500, 2.0**400), (2.0**-530, 2.0**-520))
    subnormal = 0
    for _ in range(300):
        a, b = random_transform(rng), random_transform(rng)
        for ka, kb in scales:
            x = [Fraction(v * ka) for v in a.entries]
            y = [Fraction(v * kb) for v in b.entries]
            got = Transform4([v * ka for v in a.entries]) @ Transform4([v * kb for v in b.entries])
            for n, value in enumerate(got.entries):
                i, j = 4 * (n // 4), n % 4
                terms = [x[i + k] * y[j + 4 * k] for k in range(4)]
                bound = GAMMA4 * sum(map(abs, terms)) + UNDERFLOW
                assert abs(Fraction(value) - sum(terms)) <= bound
                subnormal += 0.0 < abs(value) < sys.float_info.min
    assert subnormal > 0


def test_minkowski_is_built_once():
    assert twobeam.MINKOWSKI is twobeam.MINKOWSKI is twobeam.states.MINKOWSKI
    assert twobeam.MINKOWSKI[0, 0] == 1.0 and not twobeam.MINKOWSKI.flags.writeable


def test_decompositions_reject_complex_entries():
    for decompose in (iwasawa_decompose, wigner_decompose):
        with pytest.raises(PhysicsError, match="expected a 2x2 real matrix"):
            decompose([[1, 1j], [0, 1]])
        with pytest.raises(PhysicsError, match="expected a 2x2 real matrix"):
            decompose(np.array([[1, 0], [0.5j, 1]]))
        assert decompose([[1, 0.5 + 0j], [0, 1]]) == decompose([[1.0, 0.5], [0.0, 1.0]])


def test_transform4_entries_forms():
    rows = [[1.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0], [0.0, 0.0, 3.0, 0.0], [0, 0, 0, 4]]
    flat = Transform4(tuple(x for row in rows for x in row))
    assert Transform4(rows).entries == flat.entries == Transform4(np.array(rows)).entries
    assert flat.m.tolist() == rows and not flat.m.flags.writeable
    for bad in ([1.0] * 15, [[1.0] * 4] * 3, [[1.0] * 3] * 4, np.eye(3), [[1j] * 4] * 4):
        with pytest.raises(PhysicsError, match="4x4"):
            Transform4(bad)


# A child that runs each argv through main in one interpreter and fails
# if numpy is loaded at any point.
CHILD = """
import contextlib, io, json, sys
from twobeam.cli import main
assert "numpy" not in sys.modules, "import twobeam.cli loaded numpy"
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code == 0, (argv, code)
    assert "numpy" not in sys.modules, ("numpy loaded by", argv)
"""


def test_cli_commands_do_not_import_numpy(tmp_path):
    circuit = tmp_path / "circuit.txt"
    circuit.write_text("rotate(theta=0.3); phase(phi=0.2); squeeze(eta=0.4); decohere(lambda=0.1)")
    circuit = str(circuit)
    argvs = [
        ["simulate", circuit, "--in=jones:0.8,0.1,0.3,-0.2", "--format=json"],
        ["simulate", circuit, "--in=stokes:1,0.3,-0.2,0.1", "--format=text"],
        ["classify", "1,0.3,-0.2,0.1", "--format=json"],
        ["lift", "squeeze eta=0.4", "--format=json"],
        ["littlegroup", "--alpha=0.4", "--u=0.7", "--format=json"],
        ["littlegroup", "--theta=0.9", "--eta=-0.5", "--format=json"],
        ["decompose", "iwasawa", "--matrix=2,0.3,0.4,0.56", "--format=json"],
        ["decompose", "wigner", "--matrix=2,0.3,0.4,0.56", "--format=json"],
    ]
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(argvs)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr

"""Results must not depend on the interpreter's string hash seed: each test
runs the same work in fresh processes under different PYTHONHASHSEED
values and compares what they print or write."""

import os
import subprocess
import sys
from pathlib import Path

import plthick

SRC = str(Path(plthick.__file__).resolve().parent.parent)
HASH_SEEDS = ("0", "2")


def run_python(args, hash_seed):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_is_flag_witness_ignores_hash_seed():
    code = ("from plthick.complex_core import is_flag, validate_complex\n"
            "X = validate_complex([['a', 'b'], ['a', 'c'], ['b', 'c'], "
            "['a', 'd'], ['b', 'd']])\n"
            "print(is_flag(X)[1])\n")
    for hash_seed in HASH_SEEDS:
        assert run_python(["-c", code], hash_seed).strip() == "('a', 'b', 'c')"


def test_thicken_artifacts_are_byte_identical_across_processes(tmp_path):
    """On boundary_delta3 every N_v is an annulus, not a disc, so the
    derived cone-vertex links of report.json are compared too."""
    names = ("p_complex.json", "provenance.json", "report.json")
    for fixture_name in ("single_triangle", "boundary_delta3"):
        runs = []
        for hash_seed in HASH_SEEDS:
            out = tmp_path / fixture_name / hash_seed
            run_python(["-m", "plthick.cli", "thicken", "fixture:" + fixture_name,
                        "--out", str(out)], hash_seed)
            runs.append({name: (out / name).read_bytes() for name in names})
        assert runs[0] == runs[1], fixture_name


def test_pickled_complex_loads_under_another_hash_seed(tmp_path):
    """A simplex is a plain tuple of labels, so a complex pickled in one
    process is usable in a process with another hash seed."""
    path = str(tmp_path / "complex.pickle")
    dump = ("import pickle, sys\n"
            "from plthick.fixtures import fixture\n"
            "X = fixture('boundary_delta3')\n"
            "X.facet_cofaces()\n"
            "with open(sys.argv[1], 'wb') as fh:\n"
            "    pickle.dump(X, fh)\n")
    load = ("import pickle, sys\n"
            "from plthick.complex_core import Complex, simplex\n"
            "with open(sys.argv[1], 'rb') as fh:\n"
            "    X = pickle.load(fh)\n"
            "Y = Complex(X.simplices)\n"
            "edges = [simplex(*e) for e in (('a', 'b'), ('c', 'd'))]\n"
            "print(Y == X, all(e in X and e in X.facet_cofaces() for e in edges))\n")
    run_python(["-c", dump, path], HASH_SEEDS[0])
    assert run_python(["-c", load, path], HASH_SEEDS[1]).split() == ["True", "True"]


def test_error_witnesses_ignore_hash_seed():
    """Two pairs of simplices share a barycenter label, (a|b|c) and
    (p|q|r); the first clash in simplex_key order is reported.  The
    fullness witness is likewise the first offending simplex in by_dim
    order, here the edge ac before bc and abc."""
    code = ("from plthick.complex_core import complex_from_maximal, is_full_subcomplex, "
            "validate_complex\n"
            "from plthick.errors import ValidationError\n"
            "from plthick.thicken3 import thicken\n"
            "X = validate_complex([['a|b', 'c', 'x'], ['a', 'b', 'c'], ['p|q', 'r', 'y'], "
            "['p', 'q', 'r'], ['c', 'r', 'z']])\n"
            "try:\n"
            "    thicken(X)\n"
            "except ValidationError as exc:\n"
            "    print(exc)\n"
            "T = validate_complex([['a', 'b', 'c']])\n"
            "print(is_full_subcomplex(T, complex_from_maximal([('a', 'b'), ('c',)]))[1])\n")
    expected = ["barycenter label '(a|b|c)' is shared by simplices ('a|b', 'c') and "
                "('a', 'b', 'c')", "('a', 'c')"]
    for hash_seed in HASH_SEEDS:
        assert run_python(["-c", code], hash_seed).splitlines() == expected


def test_closures_are_byte_identical_across_processes():
    """The boundary colouring breaks its ties by label, so the closed-up Q,
    its chamber count and its homology do not depend on the hash seed."""
    close = ["-m", "plthick.cli", "close", "fixture:four_cycle_cone"]
    digest = ("import hashlib\n"
              "from plthick.cli import canonical_json, complex_to_obj\n"
              "from plthick.complex_core import cone_off, validate_complex\n"
              "from plthick.reflection import close_up\n"
              "sphere = validate_complex([[x, y, z] for x in ('x+', 'x-') "
              "for y in ('y+', 'y-') for z in ('z+', 'z-')])\n"
              "res = close_up(cone_off(sphere, sphere, 'o'))\n"
              "print(res.Q.n_chambers, res.mirror_structure.Sof['x-'], "
              "hashlib.sha256(canonical_json(complex_to_obj(res.Q.complex))).hexdigest())\n")
    for args in (close, ["-c", digest]):
        outputs = [run_python(args, hash_seed) for hash_seed in HASH_SEEDS]
        assert outputs[0] == outputs[1]
        assert outputs[0]

import argparse
import json
import os
import random

import pytest

from plthick.cli import (
    PipelineConfig,
    build_parser,
    canonical_json,
    complex_from_obj,
    complex_to_obj,
    geometric_map_from_obj,
    geometric_map_to_obj,
    main,
    run_pipeline,
)
from plthick.errors import ValidationError
from plthick.fixtures import FIXTURE_NAMES, fixture
from plthick.geometry import format_rational, parse_rational, sample_general_position_map


# -- serialization ------------------------------------------------------------

@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_complex_round_trip_is_byte_exact(name):
    X = fixture(name)
    blob = canonical_json(complex_to_obj(X))
    Y = complex_from_obj(json.loads(blob.decode()))
    assert Y == X
    assert canonical_json(complex_to_obj(Y)) == blob


def test_geometric_map_round_trip():
    X = fixture("boundary_delta3")
    m = sample_general_position_map(X, 3, seed=5)
    blob = canonical_json(geometric_map_to_obj(m))
    m2 = geometric_map_from_obj(json.loads(blob.decode()))
    assert m2.points == m.points
    assert canonical_json(geometric_map_to_obj(m2)) == blob


def test_non_reduced_rational_rejected_in_map():
    obj = {"n": 1, "vertices": [{"id": "a", "coords": ["2/4"]}],
           "simplices": [["a"]]}
    with pytest.raises(ValidationError):
        geometric_map_from_obj(obj)


def test_missing_vertex_reference_rejected():
    obj = {"vertices": [{"id": "a"}], "simplices": [["a", "b"]]}
    with pytest.raises(ValidationError):
        complex_from_obj(obj)


@pytest.mark.parametrize("obj", [
    {"vertices": [{"id": ["a"]}], "simplices": []},
    {"vertices": [{"id": "a"}], "simplices": [5]},
    {"vertices": [{"id": "a"}], "simplices": "a"},
], ids=repr)
def test_wrongly_shaped_complex_json_rejected(obj):
    with pytest.raises(ValidationError):
        complex_from_obj(obj)


# Values of the wrong shape for each slot of a complex object.
WRONG_SHAPES = {
    "object": [None, 5, "a", [], [["a"]], {}],
    "vertices": [None, 5, "", "ab", {"id": "a"}, [None], [5], ["a"], [[]], [{"name": "a"}]],
    "id": [None, 5, True, ["a"], {"a": 1}, ""],
    "simplices": [None, 5, "a", "ab", {"a": 1}, [5], [None], ["a"], ["ab"], [[["a"]]], [[]]],
    "label": [None, 5, True, ["a"], {"a": "b"}, "", "z"],
}


def _malformed_complex_obj(rng):
    """A valid complex object with one to three slots given a wrong shape,
    the innermost slot first."""
    obj = {"vertices": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
           "simplices": [["a", "b"], ["b", "c"]]}
    slots = set(rng.sample(sorted(WRONG_SHAPES), rng.randint(1, 3)))
    for slot in ("label", "id", "simplices", "vertices", "object"):
        if slot not in slots:
            continue
        bad = rng.choice(WRONG_SHAPES[slot])
        if slot == "label":
            rng.choice(obj["simplices"])[rng.randrange(2)] = bad
        elif slot == "id":
            rng.choice(obj["vertices"])["id"] = bad
        elif slot == "object":
            obj = bad
        else:
            obj[slot] = bad
    return obj


def test_loader_fuzz_raises_only_validation_error():
    rng = random.Random(20261021)
    for _ in range(400):
        obj = _malformed_complex_obj(rng)
        with pytest.raises(ValidationError):
            complex_from_obj(obj)


# Values of the wrong shape or form for the slots of a one-vertex map object.
WRONG_MAP_SHAPES = {
    "n": [None, 0, -1, True, 1.0, "1", [1]],
    "coords": [None, "1", 1, [1], [None], [], ["1", "2"], ["x"], ["+3"], [" 3"],
               ["03"], ["1_0"], ["-0"], ["1/02"], ["2/4"], ["3/1"], ["1/0"],
               ["1/-2"], ["1.5"], ["1e3"]],
}


def test_map_loader_fuzz_raises_only_validation_error():
    rng = random.Random(20261018)
    for _ in range(200):
        obj = {"n": 1, "vertices": [{"id": "a", "coords": ["-1/2"]}],
               "simplices": [["a"]]}
        for slot in rng.sample(sorted(WRONG_MAP_SHAPES), rng.randint(1, 2)):
            bad = rng.choice(WRONG_MAP_SHAPES[slot])
            if slot == "n":
                obj["n"] = bad
            else:
                obj["vertices"][0]["coords"] = bad
        with pytest.raises(ValidationError):
            geometric_map_from_obj(obj)
    # Random text parses only when it is the canonical form of its value.
    for _ in range(2000):
        text = "".join(rng.choice("0123456789/+-_ .e") for _ in range(rng.randint(0, 5)))
        try:
            x = parse_rational(text)
        except ValidationError:
            continue
        assert format_rational(x) == text


# -- CLI surface ------------------------------------------------------------------

def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_subcommands_register_only_the_flags_they_read(capsys):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {name: sorted(o for a in p._actions for o in a.option_strings
                          if o not in ("-h", "--help"))
             for name, p in sub.choices.items()}
    assert flags == {
        "validate": [], "subdivide": [], "spine": [], "check": [], "orient": [],
        "links": [],
        "embed": ["--denom-bound", "--seed"],
        "homology": ["--rel"],
        "thicken": ["--budget", "--denom-bound", "--export-off", "--local-only",
                    "--out", "--seed"],
        "close": ["--budget", "--local-only"],
    }
    with pytest.raises(SystemExit) as exc:
        main(["validate", "fixture:single_triangle", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_validate_subcommand(capsys):
    code, obj = run_cli(capsys, "validate", "fixture:boundary_delta3")
    assert code == 0
    assert obj["counts"] == {"0": 4, "1": 6, "2": 4}


def test_check_subcommand_reports_links(capsys):
    code, obj = run_cli(capsys, "check", "fixture:pinched_spheres")
    assert code == 0
    assert obj["isolated_singularities"] is True
    assert obj["vertex_links"]["a"]["components"] == 2


def test_orient_subcommand_witness(capsys):
    code, obj = run_cli(capsys, "orient", "fixture:projective_plane_6")
    assert code == 0
    assert obj["orientable"] is False
    assert len(obj["odd_cycle"]) >= 4


def test_orient_subcommand_keeps_one_sign_per_top(capsys, tmp_path):
    # Both tops would join to "a|b|c|x" under a "|"-joined key.
    path = tmp_path / "bars.json"
    path.write_text(json.dumps({
        "vertices": [{"id": v} for v in ("a", "a|b", "b", "b|c", "c", "x")],
        "simplices": [["a|b", "c", "x"], ["a", "b|c", "x"]]}))
    code, obj = run_cli(capsys, "orient", str(path))
    assert code == 0
    assert obj["orientable"] is True
    signs = obj["signs"]
    assert [r["simplex"] for r in signs] == [["a", "b|c", "x"], ["a|b", "c", "x"]]
    # The tops share only x: two galleries, each led by a positive top.
    assert [r["sign"] for r in signs] == [1, 1]
    assert obj["top_relative_rank"] == 2


def test_homology_subcommand_relative(capsys):
    code, obj = run_cli(capsys, "homology", "fixture:four_cycle_cone",
                        "--rel", "boundary")
    assert code == 0
    assert obj["betti"][2] == 1


def test_spine_subcommand(capsys):
    code, obj = run_cli(capsys, "spine", "fixture:boundary_delta3")
    assert code == 0
    assert obj["first_betti"] == 3


def test_links_subcommand(capsys):
    code, obj = run_cli(capsys, "links", "fixture:torus_7")
    assert code == 0
    assert all(entry["kind"] == "Circle" for entry in obj.values())


def test_embed_subcommand(capsys):
    code, obj = run_cli(capsys, "embed", "fixture:single_triangle", "--seed", "3")
    assert code == 0
    assert obj["general_position"] is True
    assert obj["singular_dim"] == -1


def test_error_object_for_bad_input(capsys):
    code, obj = run_cli(capsys, "thicken", "fixture:single_edge")
    assert code == 1
    assert obj["error"]["stage"] == "validate"
    assert "d >= 2 required" in obj["error"]["message"]


@pytest.mark.parametrize("source, content", [
    ("fixture:nope", None),
    ("missing.json", None),
    ("truncated.json", b'{"vertices": ['),
    ("latin1.json", b"\xff\xfe"),
], ids=["unknown-fixture", "missing-file", "malformed-json", "not-utf8"])
def test_unloadable_input_is_an_error_object(capsys, tmp_path, source, content):
    if not source.startswith("fixture:"):
        if content is not None:
            (tmp_path / source).write_bytes(content)
        source = str(tmp_path / source)
    code, obj = run_cli(capsys, "validate", source)
    assert code == 1
    assert obj["error"]["type"] == "ValidationError"
    assert obj["error"]["stage"] == "validate"


def test_subdivide_subcommand(capsys):
    code, obj = run_cli(capsys, "subdivide", "fixture:single_edge")
    assert code == 0
    assert len(obj["vertices"]) == 3


def test_close_budget_error(capsys, pipeline_cache):
    out, _ = pipeline_cache("single_triangle", 0)
    import tempfile
    with tempfile.NamedTemporaryFile("wb", suffix=".json", delete=False) as fh:
        fh.write(canonical_json(complex_to_obj(out.P)))
        path = fh.name
    try:
        code, obj = run_cli(capsys, "close", path, "--budget", "1000")
        assert code == 1
        assert obj["error"]["type"] == "BudgetExceededError"
    finally:
        os.unlink(path)


def test_close_local_only(capsys, pipeline_cache, tmp_path):
    out, _ = pipeline_cache("single_triangle", 0)
    path = tmp_path / "p_complex.json"
    path.write_bytes(canonical_json(complex_to_obj(out.P)))
    # No report is passed in and the cone vertices are found by label.
    code, obj = run_cli(capsys, "close", str(path), "--local-only")
    assert code == 0
    assert obj == {"mode": "local", "classes": 2219, "all_closed_manifolds": True}

import argparse
import hashlib
import json
import os
import random
from dataclasses import replace

import pytest

from plthick import cli
from plthick.cli import (
    PipelineConfig,
    build_parser,
    canonical_json,
    class_summary,
    complex_from_obj,
    complex_to_obj,
    link_class_obj,
    main,
    run_pipeline,
)
from plthick.complex_core import link_of, validate_complex
from plthick.errors import ValidationError
from plthick.fixtures import FIXTURE_NAMES, THICKENING_FIXTURES, fixture
from plthick.pseudomanifold import check_isolated_singularities, classify_link
from plthick.reflection import LocalLinkReport, verify_closed_locally

from conftest import grid_torus, moore_space


# -- serialization ------------------------------------------------------------

@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_complex_round_trip_is_byte_exact(name):
    X = fixture(name)
    blob = canonical_json(complex_to_obj(X))
    Y = complex_from_obj(json.loads(blob.decode()))
    assert Y == X
    assert canonical_json(complex_to_obj(Y)) == blob


def test_canonical_json_of_a_cycle_raises():
    """The encoder keeps no cycle guard, yet a tree that contains itself
    still fails loudly instead of writing bytes."""
    loop, knot = [], {}
    loop.append(loop)
    knot["knot"] = knot
    for obj in (loop, knot):
        with pytest.raises(RecursionError):
            canonical_json(obj)


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
        "homology": ["--rel"],
        "thicken": ["--budget", "--local-only", "--out"],
        "close": ["--budget", "--local-only"],
    }
    for command in ("validate", "thicken"):
        with pytest.raises(SystemExit) as exc:
            main([command, "fixture:single_triangle", "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["embed", "fixture:single_triangle"])
    assert exc.value.code == 2
    assert "invalid choice: 'embed'" in capsys.readouterr().err


def test_validate_subcommand(capsys):
    code, obj = run_cli(capsys, "validate", "fixture:boundary_delta3")
    assert code == 0
    assert obj["counts"] == {"0": 4, "1": 6, "2": 4}


def test_check_subcommand_reports_links(capsys):
    code, obj = run_cli(capsys, "check", "fixture:pinched_spheres")
    assert code == 0
    assert obj["isolated_singularities"] is True
    assert obj["vertex_links"]["a"]["components"] == 2


def test_check_subcommand_names_a_facet_in_three_tops(capsys):
    """The binding edge of the book of three lies in all three pages."""
    code, obj = run_cli(capsys, "check", "fixture:book_of_three")
    assert code == 0
    assert obj["facet_degrees_ok"] is False
    assert obj["facet_witness"] == ["a", "b"]


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


def test_links_of_a_thickening_are_the_per_vertex_classes(capsys, monkeypatch, pipeline_cache,
                                                          tmp_path):
    """P is a 3-pseudomanifold, so ``links`` reads the classes off
    ``check_isolated_singularities``; they equal one ``classify_link`` per
    vertex link."""
    out, _ = pipeline_cache("single_triangle")
    path = tmp_path / "p_complex.json"
    path.write_bytes(canonical_json(complex_to_obj(out.P)))
    calls = []
    monkeypatch.setattr(cli, "check_isolated_singularities",
                        lambda *args: calls.append(args) or check_isolated_singularities(*args))
    code, obj = run_cli(capsys, "links", str(path))
    assert code == 0 and len(calls) == 1
    want = {v: link_class_obj(classify_link(link_of(out.P, (v,)))) for v in out.P.vertices}
    assert obj == json.loads(json.dumps(want))


def test_close_subcommand_materializes_q(capsys):
    code, obj = run_cli(capsys, "close", "fixture:four_cycle_cone")
    assert code == 0
    assert obj == {"mode": "materialized", "chambers": 4, "euler": 0, "closed": True,
                   "orientable": True,
                   "homology": {"betti": [1, 2, 1], "torsion": [[], [], []]}}


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


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
def test_unwritable_out_directory_is_an_error_object(capsys, tmp_path, below):
    blocker = tmp_path / "blocker"
    blocker.write_bytes(b"")
    out = blocker / "sub" if below else blocker
    code, obj = run_cli(capsys, "thicken", "fixture:single_triangle", "--local-only",
                        "--out", str(out))
    assert code == 1
    assert obj["error"]["type"] == "ValidationError"
    assert str(out) in obj["error"]["message"]
    assert blocker.read_bytes() == b""


def test_subdivide_subcommand(capsys):
    code, obj = run_cli(capsys, "subdivide", "fixture:single_edge")
    assert code == 0
    assert len(obj["vertices"]) == 3


def test_close_budget_error(capsys, pipeline_cache):
    out, _ = pipeline_cache("single_triangle")
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
    out, _ = pipeline_cache("single_triangle")
    path = tmp_path / "p_complex.json"
    path.write_bytes(canonical_json(complex_to_obj(out.P)))
    # No report is passed in and the cone vertices are found by label.
    code, obj = run_cli(capsys, "close", str(path), "--local-only")
    assert code == 0
    assert obj == {"mode": "local", "classes": 2219, "all_closed_manifolds": True}


@pytest.mark.parametrize("name", THICKENING_FIXTURES)
def test_check_of_the_written_p_prints_the_reported_pseudomanifold_block(capsys, tmp_path,
                                                                          name):
    """The full pseudomanifold and link pass lives outside ``thicken``:
    ``plthick check`` on the written ``p_complex.json`` prints exactly the
    ``pseudomanifold`` block of the same run's ``report.json``, which
    ``thicken`` derives from the solid's report by proof."""
    code, _ = run_cli(capsys, "thicken", "fixture:" + name, "--out", str(tmp_path))
    assert code == 0
    block = json.loads((tmp_path / "report.json").read_bytes())["pseudomanifold"]
    assert main(["check", str(tmp_path / "p_complex.json")]) == 0
    assert capsys.readouterr().out == json.dumps(block, sort_keys=True, indent=1) + "\n"


def _described_per_simplex(local):
    """Oracle: the class summary with two descriptions made per simplex."""
    tags = {}
    for tau, (tag, cls) in local.classes.items():
        tags.setdefault(tag, {}).setdefault(cls.describe(), 0)
        tags[tag][cls.describe()] += 1
    return tags


@pytest.mark.parametrize("name", THICKENING_FIXTURES)
def test_class_summary_matches_describing_every_simplex(pipeline_cache, name):
    out, rep = pipeline_cache(name)
    local = verify_closed_locally(out.P, cone_vertices=out.cone_vertices.values(),
                                  report=rep.pseudomanifold)
    assert class_summary(local) == _described_per_simplex(local)


def test_class_summary_adds_up_classes_with_one_description():
    """Two disc classes with different witnesses describe alike."""
    disc = classify_link(validate_complex([["a", "b", "c"]]))
    other = replace(disc, witness=("a",))
    local = LocalLinkReport(classes={("a",): ("interior", disc), ("b",): ("interior", other),
                                     ("c",): ("cone", disc)}, cone_vertices=())
    assert class_summary(local) == _described_per_simplex(local) == {
        "interior": {disc.describe(): 2}, "cone": {disc.describe(): 1}}


# -- pinned regression oracle ------------------------------------------------------

# sha256 of the canonical artifacts of `thicken --local-only`: P and its
# provenance as written by commit 43f7a4d, the report as written once the
# sampled map left `thicken` and the report lost `epsilon`,
# `rejection_attempts_max` and `coordinate_bits`.  Same-run and
# cross-process comparisons cannot see a change that moves every artifact
# consistently; these digests can.  A change that moves them must say why,
# and update them.  The entries of the other four thickening fixtures were
# taken at commit 993bc6a.
PINNED_DIGESTS = {
    "single_triangle": {
        "p_complex.json": "d2b2b7c665180614ed449df5f2489d10fb90596882c785250992bfe0f4a00d35",
        "provenance.json": "f277641d179bfba801f3d412034de971dce969227ed045d817ad16365d1827f9",
        "report.json": "e27f8cab5a6c9bcaaf3c4a5f872ee0a1a9da4af785f7bf7deec519e0ad30640b",
    },
    "torus_7": {
        "p_complex.json": "b988c67e8c86f32ea5e1d5bd7e9364720042501b4d9b74c903a6fcf245319656",
        "provenance.json": "fe702d0df0505043ec88d917eaf9afce5479536d7d22e27103c3da5cbc85b0e0",
        "report.json": "ed5389c3cc965c70d519effdcae47fc94ab2cdbe55b392ac31da48db0dea1443",
    },
    "two_triangles_shared_edge": {
        "p_complex.json": "e88bde2c89ac567f8bc006a89b7982cfa987282e8b0d348f494c5c0e3d7bdc78",
        "provenance.json": "fb1bb564f8fe77d8ff111f784bdf15e55f1382b10d1937df460871344e69601a",
        "report.json": "953e1ff3b102c25c4ce1b5a6a28e15dc6e18a6e672d2d818c735bb5bdc7ba788",
    },
    "two_triangles_shared_vertex": {
        "p_complex.json": "e6b2b2fb44af6ab19ba1846062a05da0c522561ff8a039b8c7463a3b6da9a47e",
        "provenance.json": "050b80f420f1ce8077378894b4a0aee7e9458bf61d1e065f4db2f2a6cb085d71",
        "report.json": "0086cd18c560884b070d090b2f86fc82d42919ed97b8e19f67a05feeb53bccc5",
    },
    "boundary_delta3": {
        "p_complex.json": "4a08b08b227547b72c275a0cca3065cf6b0cb2b4d351f706f656e17c89f3f8af",
        "provenance.json": "4ca9ad425ed41401020d4d1fffe2d295d108dd232a55b20d9591315b19ae4c76",
        "report.json": "36c4be0bae75933ef65ef37c581c37376479f1820f82e9281de3928595303111",
    },
    "projective_plane_6": {
        "p_complex.json": "777a3046cdbe3ccd675d37e0f94b074ceda3bc1cad2917911e4f96f6b432d9b7",
        "provenance.json": "64c2d3539fa7e76d26f54b866ca7f21f89ee35e5a00a493202a923bf83affd29",
        "report.json": "7a5bcfe10455f8b6dfb5bb63829fd829940759ddc3207e99e3d4e8a5a1b26348",
    },
}


def sha256_of(blobs):
    return {name: hashlib.sha256(blob).hexdigest() for name, blob in blobs.items()}


def test_thicken_cli_artifacts_match_pinned_digests(capsys, tmp_path):
    code, _ = run_cli(capsys, "thicken", "fixture:single_triangle",
                      "--local-only", "--out", str(tmp_path))
    assert code == 0
    want = PINNED_DIGESTS["single_triangle"]
    assert sha256_of({name: (tmp_path / name).read_bytes() for name in want}) == want


def test_cached_pipeline_artifacts_match_pinned_digests(monkeypatch, pipeline_cache):
    """The same digests for torus_7, with the cached thickening
    standing in for the CLI's own."""
    monkeypatch.setattr(cli, "thicken", lambda X: pipeline_cache("torus_7"))
    artifacts = run_pipeline(PipelineConfig(local_only=True), fixture("torus_7"))
    want = PINNED_DIGESTS["torus_7"]
    assert sha256_of({name: artifacts[name] for name in want}) == want


@pytest.mark.parametrize("name", sorted(set(PINNED_DIGESTS) - {"single_triangle", "torus_7"}))
def test_fixture_pipeline_artifacts_match_pinned_digests(monkeypatch, pipeline_cache, name):
    """The digests of the other thickening fixtures, from their cached
    thickenings."""
    monkeypatch.setattr(cli, "thicken", lambda X: pipeline_cache(name))
    artifacts = run_pipeline(PipelineConfig(local_only=True), fixture(name))
    assert sha256_of({key: artifacts[key] for key in PINNED_DIGESTS[name]}) == \
        PINNED_DIGESTS[name]


# p_complex.json of the 3×3 grid torus, whose edges each lie in two
# triangles, as written when `thicken` still read its page order and side
# signs off a sampled map (seed 0).
GRID_TORUS_P_SHA256 = "5267b1b82dda6f0094a59ae14c2a28b0ea9598c6b249123e563c35002c86953a"


def test_grid_torus_p_complex_matches_pinned_digest(grid3_thickening):
    out, rep = grid3_thickening
    assert rep.certificate.reaches_copy and rep.homology_P.betti == (1, 2, 1, 0)
    assert hashlib.sha256(canonical_json(complex_to_obj(out.P))).hexdigest() == \
        GRID_TORUS_P_SHA256


def guarded_json(obj):
    """``canonical_json`` as it was, with ``json.dumps``'s default cycle
    guard."""
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


def provenance_oracle(out):
    """``provenance.json`` by the former rule: each simplex copied into a
    list, and all its labels searched for a cone vertex."""
    cones = set(out.cone_vertices.values())
    return guarded_json({"simplices": [
        {"simplex": list(s), "origin": next(filter(cones.__contains__, s), "M")}
        for s in out.P.incidence().cells]})


@pytest.mark.parametrize("thickening, make_input", [
    ("grid3_thickening", lambda: grid_torus(3)),
    ("moore_thickening", lambda: moore_space(3)[0]),
], ids=["grid_torus_3", "moore_space_3"])
def test_unpinned_artifacts_are_the_guarded_encoders_bytes(monkeypatch, request, thickening,
                                                          make_input):
    """On inputs that ``PINNED_DIGESTS`` does not cover, every artifact is
    what the guarded encoder writes, and ``provenance.json`` is what the
    former rule writes."""
    run = request.getfixturevalue(thickening)
    X = make_input()
    monkeypatch.setattr(cli, "thicken", lambda X: run)
    artifacts = run_pipeline(PipelineConfig(local_only=True), X)
    assert artifacts["provenance.json"] == provenance_oracle(run[0])
    monkeypatch.setattr(cli, "canonical_json", guarded_json)
    assert run_pipeline(PipelineConfig(local_only=True), X) == artifacts

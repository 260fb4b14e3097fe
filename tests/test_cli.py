import collections
import importlib.util
import io
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from covlab import cli, covariance, models, multiplet
from covlab.cli import main
from covlab.extension import ExtensionType
from covlab.schemas import (ParseError, SchemaError, cochain_from_obj,
                            cochain_to_obj, group_from_obj, loads)

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_every_verb_runs(capsys):
    cases = [
        (0, ["validate-cocycle", "--fixture", "trivial-z2z2"]),
        (0, ["validate-cocycle", "--fixture", "z4-producing"]),
        (0, ["classify-h2", "--G", "Z2", "--A", "Z2"]),
        (0, ["build-extension", "--fixture", "s3-producing"]),
        (0, ["gauge-group", "--model", "Z4Rot"]),
        (0, ["extract-cocycle", "--model", "Z4Rot"]),
        (0, ["compare-impls", "--model", "Z4Rot", "--other", "Z4Rot3"]),
        (0, ["lift-extension", "--model", "Z4Rot"]),
        (0, ["verify-multiplet", "--fixture", "vector"]),
        (0, ["detect-mixing", "--fixture", "blocks"]),
        (1, ["detect-mixing", "--fixture", "equivalent-blocks"]),
        (1, ["detect-mixing", "--fixture", "central-z4"]),
        (0, ["cover-z", "--cover", "q8"]),
        (1, ["spin-obstruction", "--cover", "q8", "--rep", "2d"]),
        (0, ["spin-obstruction", "--cover", "q8", "--rep", "sign-i"]),
        (0, ["wick-product", "--p", "1*Phi^2", "--q", "1*Phi^2"]),
        (0, ["scale-power", "--k", "2"]),
        (0, ["scaling-cocycle"]),
        (0, ["scaling-cocycle", "--xi-nonzero"]),
    ]
    for expected, argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == expected, (argv, out, err)


def test_classify_h2_report_content(capsys):
    code, out, _ = run(capsys, "--json", "classify-h2", "--G", "Z2", "--A", "Z2")
    assert code == 0
    body = json.loads(out)
    assert body["command"] == "classify-h2"
    assert len(body["data"]["classes"]) == 2
    assert body["timing_ms"] is None


def test_reports_byte_stable(capsys):
    verbs = [
        ["cover-z", "--cover", "q8"],
        ["classify-h2", "--G", "Z2", "--A", "Z4"],
        ["gauge-group", "--model", "SpinFrame"],
        ["extract-cocycle", "--model", "Z4Rot"],
        ["detect-mixing", "--fixture", "blocks"],
        ["scale-power", "--k", "3"],
        ["scaling-cocycle"],
        ["spin-obstruction", "--rep", "sign-j"],
        ["wick-product", "--p", "2*Phi^3", "--q", "1*W^1*Phi^2"],
        ["build-extension", "--fixture", "s3-producing"],
    ]
    for argv in verbs:
        outs = []
        for _ in range(2):
            _, out, _ = run(capsys, "--json", *argv)
            outs.append(out)
        assert outs[0] == outs[1], argv


def test_a_report_value_json_cannot_write_is_refused():
    # no silent str() fallback: a stray Fraction fails instead of printing
    report = cli.RunReport(command="scale-power")
    report.data["coefficient"] = Fraction(1, 2)
    with pytest.raises(TypeError, match="Fraction is not JSON serializable"):
        report.to_json()


def test_wick_product_verb_output(capsys):
    code, out, _ = run(capsys, "--json", "wick-product",
                       "--p", "1*Phi^2", "--q", "1*Phi^2")
    body = json.loads(out)
    assert body["data"]["product"] == "1*Phi^4 + 4*W^1*Phi^2 + 2*W^2"


def test_detect_mixing_negative_verdict_carries_witness(capsys):
    code, out, _ = run(capsys, "--json", "detect-mixing",
                       "--fixture", "equivalent-blocks")
    assert code == 1
    body = json.loads(out)
    verdict = body["verdicts"][0]
    assert not verdict["ok"] and verdict["witness"] == [1, 0]


def test_violated_no_mixing_corollary_is_a_failing_verdict(capsys, monkeypatch):
    # label the extension a direct product and the blocks inequivalent: the
    # corollary is armed, so the mixing witness violates it; detect_mixing
    # reads classify_type from `extension` when it runs
    from covlab import extension
    monkeypatch.setattr(extension, "classify_type",
                        lambda ext: ExtensionType(("direct_product",), "direct_product"))
    monkeypatch.setattr(multiplet, "equivalent", lambda r1, r2: False)
    code, out, _ = run(capsys, "--json", "detect-mixing",
                       "--fixture", "equivalent-blocks")
    assert code == 1
    body = json.loads(out)
    assert body["verdicts"] == [
        {"check": "no-mixing", "ok": False, "witness": [1, 0]},
        {"check": "no-mixing-corollary", "ok": False, "witness": [1, 0]}]
    assert body["data"]["no_mixing_asserted"] is False


def test_mismatched_submultiplets_are_an_input_error(capsys):
    # the coordinate lines are not invariant under the rotation action
    code, out, err = run(capsys, "detect-mixing", "--fixture", "vector")
    assert code == 2
    assert "input error: submultiplet invalid: not_invariant (0, 1)" in err


def test_input_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{ this is not json")
    code, out, err = run(capsys, "validate-cocycle", "--input", str(bad))
    assert code == 2
    assert "input error" in err


def test_schema_error_exit_2(capsys, tmp_path):
    missing = tmp_path / "cochain.json"
    missing.write_text(json.dumps({"G": "Z2", "xi": [[0, 0], [0, 0]],
                                   "phi": [0, 0]}))
    code, out, err = run(capsys, "validate-cocycle", "--input", str(missing))
    assert code == 2
    assert "A" in err


def test_cochain_file_roundtrip(capsys, tmp_path):
    payload = {"G": "Z2", "A": {"name": "Z2"},
               "xi": [[0, 0], [0, 1]], "phi": [0, 0]}
    f = tmp_path / "z4.json"
    f.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "--json", "build-extension", "--input", str(f))
    assert code == 0
    body = json.loads(out)
    assert body["data"]["order_profile"] == [1, 2, 4, 4]
    assert body["data"]["labels"] == ["central"]


def test_invalid_cochain_file_fails_validation(capsys, tmp_path):
    payload = {"G": "Z2", "A": "Z2", "xi": [[0, 1], [0, 0]], "phi": [0, 0]}
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "validate-cocycle", "--input", str(f))
    assert code == 1


def test_cochain_groups_must_list_the_identity_first(capsys, tmp_path):
    # the Z4-producing cocycle, first over a table with the identity at
    # label 1, which make_group refuses (IdentityNotFirst)
    f = tmp_path / "cochain.json"
    f.write_text(json.dumps({"G": {"table": [[1, 0], [0, 1]]}, "A": "Z2",
                             "xi": [[1, 0], [0, 0]], "phi": [0, 0]}))
    for verb in ("validate-cocycle", "build-extension"):
        code, _, err = run(capsys, verb, "--input", str(f))
        assert code == 2 and "'G.table'" in err, verb
    f.write_text(json.dumps({"G": "Z2", "A": {"table": [[1, 0], [0, 1]]},
                             "xi": [[0, 0], [0, 0]], "phi": [0, 0]}))
    code, _, err = run(capsys, "validate-cocycle", "--input", str(f))
    assert code == 2 and "'A.table'" in err
    f.write_text(json.dumps({"G": {"table": [[0, 1], [1, 0]]}, "A": "Z2",
                             "xi": [[0, 0], [0, 1]], "phi": [0, 0]}))
    for verb in ("validate-cocycle", "build-extension"):
        assert run(capsys, verb, "--input", str(f))[0] == 0, verb


def test_build_extension_on_non_cocycle_is_an_input_error(capsys, tmp_path):
    # normalized, but xi fails the factor-set law, so the pair product on
    # A x G is not associative
    payload = {"G": "Z3", "A": "Z3",
               "xi": [[0, 0, 0], [0, 1, 0], [0, 0, 0]], "phi": [0, 0, 0]}
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(payload))
    code, out, err = run(capsys, "build-extension", "--input", str(f))
    assert code == 2
    assert out == ""
    assert "input error: cocycle invalid: factor_set_condition" in err


@pytest.mark.parametrize("xi, phi, bad", [
    ([[0, 0], [0, 0]], [0, 0.5], "0.5"),
    ([[0, 0], [0, True]], [0, 0], "true"),
    ([[0, [0]], [0, 0]], [0, 0], "[0, [0]]"),
])
def test_non_integer_cochain_cells_are_refused(capsys, tmp_path, xi, phi, bad):
    f = tmp_path / "cochain.json"
    f.write_text(json.dumps({"G": "Z2", "A": "Z2", "xi": xi, "phi": phi}))
    code, out, err = run(capsys, "build-extension", "--input", str(f))
    assert code == 2
    assert out == ""
    assert "input error" in err and bad in err


@pytest.mark.parametrize("group, bad", [
    ({"order": 2, "table": 5}, "G.table"),
    ({"order": True, "table": [[0]]}, "G.order"),
    ({"order": 2.0, "table": [[0, 1], [1, 0]]}, "G.order"),
    ({"name": 5, "table": [[0, 1], [1, 0]]}, "G.name"),
], ids=["table-int", "order-bool", "order-float", "name-int"])
def test_group_record_fields_are_type_checked(capsys, tmp_path, group, bad):
    f = tmp_path / "cochain.json"
    f.write_text(json.dumps({"G": group, "A": "Z2", "xi": [[0, 0], [0, 0]],
                             "phi": [0, 0]}))
    code, out, err = run(capsys, "validate-cocycle", "--input", str(f))
    assert code == 2
    assert out == ""
    assert "input error" in err and repr(bad) in err


def test_zero_denominator_in_a_wick_term_is_an_input_error(capsys):
    code, out, err = run(capsys, "wick-product", "--p", "1/0*Phi^1", "--q", "1")
    assert code == 2
    assert out == ""
    assert "input error" in err and "1/0*Phi^1" in err


@pytest.mark.parametrize("model, other", [("Z4Rot", "SwapIso"),
                                          ("FrameRot", "SpinFrame")])
def test_compare_impls_across_theories_is_an_input_error(capsys, model, other):
    code, out, err = run(capsys, "compare-impls", "--model", model,
                         "--other", other)
    assert code == 2
    assert out == ""
    assert "input error: implementations live on different categories" in err


def test_unknown_group_name_is_a_schema_error(capsys):
    code, out, err = run(capsys, "classify-h2", "--G", "Z5", "--A", "Z2")
    assert code == 2
    assert out == ""
    assert err == ("input error: schema error in field 'G': unknown group name 'Z5'; "
                   "known: ['1', 'Q8', 'S3', 'Z2', 'Z2xZ2', 'Z3', 'Z4', 'Z6', 'Z8']\n")


def test_a_bare_key_error_is_not_an_input_error(monkeypatch):
    def broken(args, report):
        raise KeyError("library bug")

    monkeypatch.setitem(cli.HANDLERS, "scale-power", broken)
    with pytest.raises(KeyError, match="library bug"):
        main(["scale-power", "--k", "2"])


_FUZZ_VALUES = [-1, 0, 1, 2, 3, 7, 0.5, True, None, "Z3", "Q8", "nope", [], {},
                [[0]], [0, 1], {"name": "S3"}, {"table": [[0, 1], [1, 1]]}]


def _mutated(obj, rng):
    """A copy of obj with one random node replaced, dropped or duplicated."""
    obj = json.loads(json.dumps(obj))
    slots, stack = [], [obj]
    while stack:
        node = stack.pop()
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        for key in keys:
            slots.append((node, key))
            if isinstance(node[key], (dict, list)):
                stack.append(node[key])
    node, key = rng.choice(slots)
    op = rng.randrange(3)
    if op == 0:
        node[key] = rng.choice(_FUZZ_VALUES)
    elif op == 1:
        del node[key]
    elif isinstance(node, list):
        node.insert(key, node[key])
    else:
        node[key] = [node[key]]
    return obj


def test_mutated_cochain_inputs_exit_with_a_documented_code(capsys, tmp_path):
    # seeded: every mutation of a shipped cochain, with its groups as inline
    # records or as names, is a verdict (0/1) or an input error (2); nothing
    # escapes main
    rng = random.Random(2016)
    cochains = [build() for build in models.COCHAIN_FIXTURES.values()]
    bases = [dict(cochain_to_obj(c), G=c.G.name, A=c.A.name) for c in cochains]
    bases += [cochain_to_obj(c) for c in cochains]
    bases += [cochain_to_obj(build().cocycle) for build in models.FIELD_FIXTURES.values()]
    f = tmp_path / "cochain.json"
    codes = []
    for _ in range(300):
        obj = rng.choice(bases)
        for _ in range(rng.randint(1, 3)):
            obj = _mutated(obj, rng)
        text = json.dumps(obj)
        f.write_text(text)
        verb = rng.choice(["validate-cocycle", "build-extension"])
        try:
            code = main([verb, "--input", str(f)])
        except Exception as err:  # anything escaping main is a defect
            pytest.fail(f"{verb} on {text}: {err!r}")
        capsys.readouterr()
        codes.append(code)
    assert sorted(set(codes)) == [0, 1, 2], collections.Counter(codes)


def test_mutated_group_records_exit_with_a_documented_code(capsys, tmp_path):
    # seeded: mutations of the inline G or A record alone (fields dropped,
    # retyped or nested; rows and entries replaced, dropped or duplicated)
    # are a verdict (0/1) or an input error (2); nothing escapes main
    rng = random.Random(1509)
    bases = [cochain_to_obj(build()) for build in models.COCHAIN_FIXTURES.values()]
    bases += [cochain_to_obj(build().cocycle) for build in models.FIELD_FIXTURES.values()]
    f = tmp_path / "cochain.json"
    codes = []
    for _ in range(300):
        obj = json.loads(json.dumps(rng.choice(bases)))
        key = rng.choice(["G", "A"])
        for _ in range(rng.randint(1, 3)):
            if obj[key]:
                obj[key] = _mutated(obj[key], rng)
        text = json.dumps(obj)
        f.write_text(text)
        verb = rng.choice(["validate-cocycle", "build-extension"])
        try:
            code = main([verb, "--input", str(f)])
        except Exception as err:  # anything escaping main is a defect
            pytest.fail(f"{verb} on {text}: {err!r}")
        capsys.readouterr()
        codes.append(code)
    # a mutated table is seldom still a group, so exit 1 may not occur
    assert {0, 2} <= set(codes) <= {0, 1, 2}, collections.Counter(codes)


def test_spin_obstruction_refuses_a_cover_before_building_it(capsys, monkeypatch):
    monkeypatch.setitem(models.COVERS, "z4-z2",
                        lambda: pytest.fail("the z4-z2 cover was built"))
    code, out, err = run(capsys, "spin-obstruction", "--cover", "z4-z2")
    assert (code, out) == (2, "")
    assert err == ("input error: schema error in field 'rep': "
                   "built-in representations exist for the q8 cover\n")


def test_a_cover_gains_representations_from_the_registry_alone(capsys, monkeypatch):
    # --rep's choices are read when the parser is built, so the two
    # characters of Z4 borrow names from them: sign-1 is the trivial one, and
    # sign-i sends the generator to i, so the kernel element 2 acts as -1
    from covlab import fingroup as fg
    from covlab.exactlin import I as IU, Mat
    from covlab.multiplet import MatrixRep
    z4 = fg.cyclic(4)
    monkeypatch.setitem(models.REPS, "z4-z2", {
        "sign-1": lambda: MatrixRep(z4, 1, tuple(Mat([[1]]) for _ in range(4))),
        "sign-i": lambda: MatrixRep(z4, 1, tuple(Mat([[IU ** e]]) for e in range(4)))})
    spin = ("--json", "spin-obstruction", "--cover", "z4-z2")
    code, out, _ = run(capsys, *spin, "--rep", "sign-1")
    assert code == 0
    assert json.loads(out)["verdicts"] == [{"check": "descends", "ok": True}]
    code, out, _ = run(capsys, *spin, "--rep", "sign-i", "--zeta", "trivial")
    report = json.loads(out)
    assert code == 1
    assert report["verdicts"] == [{"check": "descends", "ok": False, "witness": 2}]
    assert report["data"] == {"model_consistent": False, "zeta_trivial": True}
    code, out, err = run(capsys, *spin, "--rep", "2d")
    assert (code, out) == (2, "")
    assert err == ("input error: schema error in field 'rep': "
                   "the z4-z2 cover has no representation '2d'\n")


def test_registries_pair_each_fixture_with_inputs_that_fit_it():
    assert set(models.SUBMULTIPLETS) == set(models.FIELD_FIXTURES)
    for name, build in models.FIELD_FIXTURES.items():
        dim = build().dim
        assert all(sub.injection.nrows == dim for sub in models.SUBMULTIPLETS[name]()), name
    assert set(models.REPS) <= set(models.COVERS)
    for cover, reps in models.REPS.items():
        S = models.COVERS[cover]().S
        assert all(build().group == S for build in reps.values()), cover


def test_schema_helpers():
    with pytest.raises(ParseError):
        loads("{")
    with pytest.raises(SchemaError):
        group_from_obj({"order": 3})
    with pytest.raises(SchemaError):
        group_from_obj("NoSuchGroup")
    g = group_from_obj({"table": [[0, 1], [1, 0]]})
    assert g.order == 2
    with pytest.raises(SchemaError):
        cochain_from_obj({"G": "Z2", "A": "Z2", "xi": [[0]], "phi": [0, 0]})
    for not_an_object in ([], "Z2", None):
        with pytest.raises(SchemaError) as err:
            cochain_from_obj(not_an_object)
        assert str(err.value) == "schema error in field 'cochain': expected an object"
    # a name stub may give the order too; it must be the group's
    assert group_from_obj({"name": "Z2", "order": 2}) is group_from_obj("Z2")
    for order in (3, True, 2.0):
        with pytest.raises(SchemaError) as err:
            group_from_obj({"name": "Z2", "order": order}, "G")
        assert err.value.field == "G.order"


@pytest.mark.parametrize("payload, bad", [
    ({"G": {"name": "Z2", "order": 3}}, "G.order"),
    ({"G": {"name": "Z2", "tabel": [[0]]}}, "G.tabel"),
    ({"A": {"table": [[0, 1], [1, 0]], "Table": [[0]]}}, "A.Table"),
    ({"Xi": [[0, 0], [0, 1]]}, "Xi"),
    ({"xi": [[0, 0], [0, 2]]}, "xi/phi"),
    ({"phi": [0, 1]}, "xi/phi"),
], ids=["stub-order", "group-misspelled", "record-extra", "cochain-extra",
        "xi-outside-A", "phi-outside-Aut"])
def test_unknown_and_contradictory_fields_are_refused(capsys, monkeypatch, payload, bad):
    obj = dict({"G": "Z2", "A": "Z2", "xi": [[0, 0], [0, 0]], "phi": [0, 0]}, **payload)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(obj)))
    code, out, err = run(capsys, "validate-cocycle", "--input", "-")
    assert (code, out) == (2, "")
    assert f"input error: schema error in field {bad!r}" in err


def test_env_cap_override(capsys, monkeypatch):
    monkeypatch.setenv("COVLAB_ENUM_CAP", "1")
    code, out, err = run(capsys, "classify-h2", "--G", "Z3", "--A", "Z3")
    assert code == 2
    assert "input error" in err


def test_env_cap_must_be_a_positive_integer(capsys, monkeypatch):
    from covlab.config import enum_cap
    for raw in ("abc", "2.5", "", "0", "-3"):
        monkeypatch.setenv("COVLAB_ENUM_CAP", raw)
        message = f"COVLAB_ENUM_CAP must be a positive integer, got {raw!r}"
        with pytest.raises(ValueError) as exc:
            enum_cap()
        assert str(exc.value) == message
        code, out, err = run(capsys, "classify-h2", "--G", "Z2", "--A", "Z2")
        assert (code, out) == (2, "")
        assert err == f"input error: {message}\n"


def test_cap_counts_cocycle_search_work(capsys, monkeypatch):
    # S3/Z2 has a single phi tail; its xi search tries more than 1000 cells
    monkeypatch.setenv("COVLAB_ENUM_CAP", "1000")
    code, out, err = run(capsys, "classify-h2", "--G", "S3", "--A", "Z2")
    assert code == 2
    assert "input error" in err
    assert "enumeration of size 1001 exceeds cap 1000" in err


def test_ingested_group_order_is_capped(capsys, tmp_path, monkeypatch):
    # Light's associativity test on a Z12 table visits 12^2 * 1 = 144
    # triples, one generator in the middle
    monkeypatch.setenv("COVLAB_ENUM_CAP", "143")
    z12 = [[(i + j) % 12 for j in range(12)] for i in range(12)]
    f = tmp_path / "cochain.json"
    f.write_text(json.dumps({"G": {"table": z12}, "A": "Z2",
                             "xi": [[0] * 12] * 12, "phi": [0] * 12}))
    code, out, err = run(capsys, "validate-cocycle", "--input", str(f))
    assert code == 2
    assert out == ""
    assert "input error" in err and "enumeration of size 144 exceeds cap 143" in err


@pytest.mark.parametrize("verb, table, code, message", [
    # Aut(Z129) is searched over the 84 images of the generator
    ("validate-cocycle", [[(i + j) % 129 for j in range(129)] for i in range(129)], 0, ""),
    # (Z2)^4: 15^4 generator images, 20,160 automorphisms
    ("validate-cocycle", [[i ^ j for j in range(16)] for i in range(16)], 0, ""),
    # (Z2)^5 has 31^5 generator images, past the default bound
    ("validate-cocycle", [[i ^ j for j in range(32)] for i in range(32)], 2,
     "enumeration of size 28629151 exceeds cap 10000000"),
    # a twist reads only the Aut(A) products it needs, not all 20,160^2
    ("build-extension", [[i ^ j for j in range(16)] for i in range(16)], 0, ""),
], ids=["Z129", "Z2^4", "Z2^5", "Z2^4-twisted"])
def test_ingested_coefficient_group_aut_search_is_capped(capsys, tmp_path, verb,
                                                         table, code, message):
    f = tmp_path / "cochain.json"
    f.write_text(json.dumps({"G": "Z2", "A": {"table": table},
                             "xi": [[0, 0], [0, 0]], "phi": [0, 0]}))
    got, out, err = run(capsys, verb, "--input", str(f))
    assert got == code, err
    assert message in err


@pytest.mark.parametrize("argv", [["classify-h2", "--G", "Z2", "--A", "Z4"],
                                  ["scale-power", "--k", "2"]])
def test_closed_stdout_pipe_is_not_an_error(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run([sys.executable, "-m", "covlab.cli", "--json", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, env=env,
                              text=True, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_unreadable_input_is_an_input_error(capsys, tmp_path):
    code, out, err = run(capsys, "validate-cocycle", "--input", str(tmp_path))
    assert code == 2
    assert out == ""
    assert "input error" in err and "Is a directory" in err


def test_cochain_input_is_never_replaced_by_a_fixture(capsys, tmp_path):
    # an empty --input names no file, and --input with --fixture names two
    # cochains: both are refused, never run on the default or on one of them
    f = tmp_path / "cochain.json"
    f.write_text(json.dumps(cochain_to_obj(models.COCHAIN_FIXTURES["trivial-z2z2"]())))
    cases = [(["--input", ""], "No such file or directory"),
             (["--input", str(f), "--fixture", "z4-producing"], "not both"),
             (["--input", str(f), "--fixture", "trivial-z2z2"], "not both")]
    for verb in ("validate-cocycle", "build-extension"):
        for flags, reason in cases:
            code, out, err = run(capsys, "--json", verb, *flags)
            assert (code, out) == (2, ""), (verb, flags)
            assert err.startswith("input error: schema error in field 'input'")
            assert reason in err, (verb, flags, err)


def test_deeply_nested_input_is_a_parse_error(capsys, tmp_path):
    f = tmp_path / "deep.json"
    # deeper than the recursion limit of both the pure-Python and the C JSON
    # decoder (Python 3.13's accepts 5,000 levels)
    f.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "validate-cocycle", "--input", str(f))
    assert code == 2
    assert out == ""
    assert "input error: parse error" in err


def _fresh_python(*args):
    """Run the interpreter with `args` in a new process importing covlab from src/."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, env=env, text=True, timeout=120)


def _fresh_run(argv):
    return _fresh_python("-m", "covlab.cli", *argv)


def test_star_import_binds_every_public_name():
    proc = _fresh_python("-c", "import json\nfrom covlab import *\nimport covlab\n"
                         "print(json.dumps([n for n in covlab.__all__ "
                         "if globals().get(n) is not getattr(covlab, n)]))")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == []


# One call of every verb, each run again in a fresh process: a handler that
# works only because an earlier verb loaded its layer reports differently.
FRESH_VERB_ARGV = {
    "validate-cocycle": ["--fixture", "z4-producing"],
    "classify-h2": ["--G", "Z2", "--A", "Z4"],
    "build-extension": ["--fixture", "s3-producing"],
    "gauge-group": ["--model", "SpinFrame"],
    "extract-cocycle": ["--model", "FrameRot"],
    "compare-impls": ["--model", "Z4Rot", "--other", "Z4Rot3"],
    "lift-extension": ["--model", "Z4Rot"],
    "verify-multiplet": ["--fixture", "central-z4"],
    "detect-mixing": ["--fixture", "q8"],
    "cover-z": ["--cover", "q8"],
    "spin-obstruction": ["--cover", "q8", "--rep", "2d"],
    "wick-product": ["--p", "2*Phi^3", "--q", "1*W^1*Phi^2"],
    "scale-power": ["--k", "4", "--conformal"],
    "scaling-cocycle": [],
}


# What a fresh process has loaded: after `import covlab` alone, after one
# call of the verb given as argv, and then every name of `__all__` read as
# an attribute; and which of `dataclasses` and `inspect` the call loaded.
_COLD_START = """
import contextlib, io, json, sys
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "covlab")
import covlab
after_import = loaded()
from covlab import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["--json", *json.loads(sys.argv[1])])
after_verb = loaded()
machinery = sorted({"dataclasses", "inspect"} & set(sys.modules))
names = {n: getattr(getattr(covlab, n), "__name__", None) for n in covlab.__all__}
print(json.dumps([after_import, code, after_verb, machinery, names,
                  hasattr(covlab, "no_such_layer")]))
"""

# The layers each verb runs, beyond the six that `covlab.cli` loads
_CLI_LAYERS = ("cli", "cohomology2", "config", "fingroup", "models", "schemas")
VERB_LAYERS = {
    "validate-cocycle": (),
    "classify-h2": (),
    "build-extension": ("extension",),
    "gauge-group": ("covariance", "fincat"),
    "extract-cocycle": ("covariance", "fincat"),
    "compare-impls": ("covariance", "fincat"),
    "lift-extension": ("covariance", "extension", "fincat"),
    "verify-multiplet": ("exactlin", "extension", "multiplet"),
    "detect-mixing": ("exactlin", "extension", "multiplet"),
    "cover-z": ("covering",),
    "spin-obstruction": ("covering", "exactlin", "multiplet"),
    "wick-product": ("wickscale",),
    "scale-power": ("wickscale",),
    "scaling-cocycle": ("wickscale",),
}


def test_a_verb_loads_only_the_layers_it_runs():
    import covlab
    assert sorted(VERB_LAYERS) == sorted(FRESH_VERB_ARGV)
    for verb, flags in FRESH_VERB_ARGV.items():
        proc = _fresh_python("-c", _COLD_START, json.dumps([verb, *flags]))
        assert proc.returncode == 0, (verb, proc.stderr)
        after_import, code, after_verb, machinery, names, unknown = json.loads(proc.stdout)
        assert after_import == ["covlab"]
        # the q8 field fixture mixes and the q8 2d representation does not descend
        assert code == (1 if verb in ("detect-mixing", "spin-obstruction") else 0), verb
        assert after_verb == ["covlab"] + sorted(
            f"covlab.{layer}" for layer in _CLI_LAYERS + VERB_LAYERS[verb]), verb
        assert machinery == [], verb
        assert names == {n: None if n == "__version__" else f"covlab.{n}"
                         for n in covlab.__all__}
        assert unknown is False


def test_each_verb_reports_the_same_in_a_fresh_interpreter(capsys):
    assert sorted(FRESH_VERB_ARGV) == sorted(cli.HANDLERS)
    for verb, flags in FRESH_VERB_ARGV.items():
        argv = ["--json", verb, *flags]
        code, out, _ = run(capsys, *argv)
        fresh = _fresh_run(argv)
        assert (fresh.returncode, fresh.stdout) == (code, out), (verb, fresh.stderr)


# The multiplet and cover verbs, run in one fresh process: the layers they
# leave loaded.
_NO_WICK_LAYER = """
import contextlib, io, json, sys
from covlab import cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(["--json", *argv]))
print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith("covlab."))]))
"""


def test_multiplet_and_cover_verbs_do_not_load_the_wick_layer():
    verbs = ("verify-multiplet", "detect-mixing", "cover-z", "spin-obstruction")
    argvs = [[verb, *FRESH_VERB_ARGV[verb]] for verb in verbs]
    proc = _fresh_python("-c", _NO_WICK_LAYER, json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout)
    assert all(code in (0, 1) for code in codes), codes
    assert {"covlab.multiplet", "covlab.covering"} <= set(loaded)
    assert "covlab.wickscale" not in loaded


def test_human_report_ends_with_its_timing_when_asked(capsys):
    code, out, _ = run(capsys, "--timing", "scale-power", "--k", "2")
    assert code == 0
    assert re.fullmatch(r"  timing_ms: \d+\.\d", out.splitlines()[-1]), out
    assert "timing_ms" not in run(capsys, "scale-power", "--k", "2")[1]


def test_parser_is_built_once_and_reused(capsys):
    assert cli.build_parser() is cli.build_parser()
    run(capsys, "--json", "--timing", "scale-power", "--k", "4", "--conformal")
    argv = ["--json", "scale-power", "--k", "4"]
    code, out, _ = run(capsys, *argv)
    fresh = _fresh_run(argv)
    assert (code, out) == (fresh.returncode, fresh.stdout)
    assert json.loads(out)["timing_ms"] is None

    argv = ["classify-h2", "--G", "Z2"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    fresh = _fresh_run(argv)
    assert (2, out.out, out.err) == (fresh.returncode, fresh.stdout, fresh.stderr)

    argv = ["--json", "classify-h2", "--G", "Z2", "--A", "Z4"]
    code, out, _ = run(capsys, *argv)
    fresh = _fresh_run(argv)
    assert (code, out) == (fresh.returncode, fresh.stdout)


@pytest.mark.parametrize("verb", ["extract-cocycle", "lift-extension", "compare-impls"])
def test_model_verbs_compute_one_gauge_group(capsys, verb):
    # compare-impls builds the model twice; the two equal functors share one
    for model in sorted(models.NAMED_MODELS):
        covariance.compute_gauge_group.cache_clear()
        other = ["--other", model] if verb == "compare-impls" else []
        code, _, err = run(capsys, verb, "--model", model, *other)
        misses = covariance.compute_gauge_group.cache_info().misses
        assert (code, misses) == (0, 1), (model, err)


def test_lift_extension_extracts_two_cocycles(capsys, monkeypatch):
    # the model's, which lift_to_extension builds E from, and the lift's
    calls, extract = [], covariance.extract_cocycle
    monkeypatch.setattr(covariance, "extract_cocycle",
                        lambda impl: calls.append(impl) or extract(impl))
    for model in sorted(models.NAMED_MODELS):
        calls.clear()
        code, _, err = run(capsys, "lift-extension", "--model", model)
        assert (code, len(calls)) == (0, 2), (model, err)


def test_wick_verbs_stay_on_the_integer_form(capsys, monkeypatch):
    # the wick-product and scale-power handlers never build the Fraction
    # view, and ordering_route(k) builds each shift power once: k//2
    # products for shift^1 .. shift^(k//2), then one by lam^k
    from covlab.wickscale import WickPoly, ordering_route
    reads, products = [], []
    view, mul = WickPoly.terms, WickPoly.__mul__
    monkeypatch.setattr(WickPoly, "terms", property(lambda p: reads.append(p) or view.fget(p)))
    monkeypatch.setattr(WickPoly, "__mul__", lambda p, q: products.append(q) or mul(p, q))
    for argv in (["wick-product", "--p", "1/2*c^1*Phi^5 + -3*D^2*Phi^2",
                  "--q", "2/3*W^1*Phi^4 + 1*lam^-1"],
                 ["scale-power", "--k", "16"], ["scale-power", "--k", "7", "--conformal"]):
        code, _, err = run(capsys, "--json", *argv)
        assert code == 0, (argv, err)
    assert reads == []
    for k in (1, 2, 7, 16, 128):
        products.clear()
        ordering_route(k)
        assert len(products) == k // 2 + 1, k
    assert WickPoly.symbol(phi=1).terms and len(reads) == 1  # the counter counts


def test_benchmark_calls_replay_their_recorded_reports(tmp_path, monkeypatch):
    # every call of every workload on each recorded seed: the exit code and
    # stdout digest bench/expected.json holds, so a change that alters a
    # report shows here; the corrupted build-extension calls have no digest
    # and must be refused as input errors
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads
    from worker import EXPECTED, argv_for, run_call
    expected = json.loads(EXPECTED.read_text())
    replayed, unrecorded = {}, set()
    for workload in workloads.WORKLOADS:
        for seed in expected["seeds"]:
            for call in workloads.build(workload, seed):
                code, digest, exc, _ = run_call(main, argv_for(call, str(tmp_path)))
                if call.key in expected["calls"]:
                    replayed[call.key] = [code, digest]
                else:
                    assert call.corrupted and "build-extension" in call.argv, call.label
                    assert (exc, code) == (None, 2), call.label
                    unrecorded.add(call.key)
    assert replayed == expected["calls"]
    assert (len(replayed), len(unrecorded)) == (106, 4)


def test_report_digest_runs_every_verb_on_every_registry_key():
    # tools/report_digest.py (standard library only) reads its argv off the
    # registries; a new verb or registry must reach it
    spec = importlib.util.spec_from_file_location(
        "report_digest", ROOT / "tools" / "report_digest.py")
    report_digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(report_digest)
    argvs = report_digest.argvs()
    assert sorted({argv[0] for argv in argvs}) == sorted(cli.HANDLERS)
    words = {word for argv in argvs for word in argv}
    for registry in (models.NAMED_MODELS, models.COCHAIN_FIXTURES, models.FIELD_FIXTURES,
                     models.COVERS, models.REPS, models.KERNEL_MAPS, *models.REPS.values()):
        assert set(registry) <= words, sorted(registry)
    assert "--timing" not in words and "--json" not in words


def test_cover_z_checks_the_kernel_map_once(capsys, monkeypatch):
    from covlab import covering
    calls, check = [], covering.check_centre_hom

    def counting(mapping):
        calls.append(mapping)
        return check(mapping)

    monkeypatch.setattr(covering, "check_centre_hom", counting)
    for cover in sorted(models.COVERS):
        for zeta in ("flip", "trivial"):
            calls.clear()
            code, out, _ = run(capsys, "--json", "cover-z", "--cover", cover,
                               "--zeta", zeta)
            assert (code, len(calls)) == (0, 1), (cover, zeta)
            verdict = [v for v in json.loads(out)["verdicts"]
                       if v["check"] == "kernel-restriction-central-hom"]
            assert verdict == [{"check": "kernel-restriction-central-hom", "ok": True}]


def test_cover_z_searches_only_for_the_two_class_verdicts(capsys, monkeypatch):
    # class_trivial and induced_cocycle_trivial each need one complete
    # search; section independence is checked on the named section twist
    from covlab import covering
    calls, search = [], cli.cohomologous

    def counting(c1, c2):
        calls.append((c1, c2))
        return search(c1, c2)

    monkeypatch.setattr(cli, "cohomologous", counting)
    monkeypatch.setattr(covering, "cohomologous", counting)
    for cover in sorted(models.COVERS):
        for zeta in ("flip", "trivial"):
            calls.clear()
            code, out, _ = run(capsys, "--json", "cover-z", "--cover", cover,
                               "--zeta", zeta)
            assert code == 0, (cover, zeta)
            assert len(calls) == 2, (cover, zeta)


def test_warm_cover_verbs_keep_their_per_call_checks(capsys, monkeypatch):
    # each cover and Q8 rep is built and checked once per process; the
    # cover-z quotient and the spin-obstruction rep check run on every call
    from covlab import covering, fingroup
    cover_z = ("cover-z", "--cover", "q8")
    spin = ("spin-obstruction", "--cover", "q8", "--rep", "2d")
    for argv in (cover_z, spin):
        run(capsys, *argv)
    calls = collections.Counter()

    def count(owner, name):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: calls.update((name,)) or real(*args))
    count(fingroup, "make_group")
    count(covering.CentralCover, "__init__")
    count(multiplet, "validate_rep")  # spin_obstruction reads it when it runs
    code, _, err = run(capsys, *cover_z)
    assert (code, calls) == (0, {"make_group": 1}), err
    calls.clear()
    code, _, err = run(capsys, *spin)
    assert (code, calls) == (1, {"validate_rep": 1}), err
    calls.clear()
    models.COVERS["q8"].__wrapped__()  # the counter counts a fresh build
    assert calls == {"__init__": 1}


def test_warm_verbs_validate_each_cocycle_and_functor_once(capsys, monkeypatch):
    # a verdict validates what it reports on, and nothing the library built
    # is validated again: cover-z checks its factor set, extract-cocycle the
    # extracted cocycle, and a SwapIso build its identity and swap functors
    from covlab import cohomology2, fincat
    cases = [(("cover-z", "--cover", "q8"), "validate_cocycle", 1),
             (("extract-cocycle", "--model", "FrameRot"), "validate_cocycle", 1),
             (("gauge-group", "--model", "SwapIso"), "validate_functor", 2)]
    for argv, _, _ in cases:
        run(capsys, *argv)
    calls = collections.Counter()
    for real in (cohomology2.validate_cocycle, fincat.validate_functor):
        def counting(*args, real=real):
            calls.update((real.__name__,))
            return real(*args)
        for module in list(sys.modules.values()):
            if (module.__name__.startswith("covlab")
                    and getattr(module, real.__name__, None) is real):
                monkeypatch.setattr(module, real.__name__, counting)
    for argv, name, count in cases:
        calls.clear()
        code, _, err = run(capsys, *argv)
        assert (code, calls[name]) == (0, count), (argv, calls, err)

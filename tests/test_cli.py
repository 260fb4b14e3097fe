import json

import pytest

from covlab.cli import main
from covlab.schemas import (ParseError, SchemaError, cochain_from_obj,
                            group_from_obj, loads, rep_from_obj)


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


def test_mismatched_submultiplets_are_an_input_error(capsys):
    # the coordinate lines are not invariant under the rotation action
    code, out, err = run(capsys, "detect-mixing", "--fixture", "vector")
    assert code == 2
    assert "precondition" in err


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
    assert "input error" in err and "cocycle conditions" in err


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
    rep = rep_from_obj({"group": "Z2", "dim": 1,
                        "matrices": [[[1]], [[-1]]]})
    assert rep.dim == 1
    with pytest.raises(SchemaError):
        rep_from_obj({"group": "Z2", "dim": 1,
                      "matrices": [[[1]], [[2]]]})


def test_env_cap_override(capsys, monkeypatch):
    monkeypatch.setenv("COVLAB_ENUM_CAP", "1")
    code, out, err = run(capsys, "classify-h2", "--G", "Z3", "--A", "Z3")
    assert code == 2
    assert "input error" in err


def _bz2_category_obj():
    return {
        "objects": ["*"],
        "morphisms": [{"id": "e", "dom": "*", "cod": "*"},
                      {"id": "s", "dom": "*", "cod": "*"}],
        "compose": [["e", "e", "e"], ["e", "s", "s"],
                    ["s", "e", "s"], ["s", "s", "e"]],
        "identities": ["e"],
    }


def test_category_json_records():
    from covlab.schemas import (fincat_from_obj, functor_from_obj,
                                implementation_from_obj)
    from covlab.covariance import extract_cocycle

    cat = fincat_from_obj(_bz2_category_obj())
    assert cat.objects == ("*",)
    assert cat.compose("s", "s") == "e"

    missing = _bz2_category_obj()
    missing["compose"] = missing["compose"][:-1]
    with pytest.raises(SchemaError) as exc:
        fincat_from_obj(missing)
    assert "MissingComposite" in str(exc.value)

    ident = {"objects": {"*": "*"}, "morphisms": {"e": "e", "s": "s"}}
    functor_from_obj(cat, cat, ident)
    with pytest.raises(SchemaError):
        functor_from_obj(cat, cat, {"objects": {"*": "*"},
                                    "morphisms": {"e": "s", "s": "e"}})

    impl_obj = {
        "category": _bz2_category_obj(),
        "target": _bz2_category_obj(),
        "functor": ident,
        "group": "Z2",
        "action": [ident, ident],
        "eta": [{"*": "e"}, {"*": "s"}],
    }
    impl = implementation_from_obj(impl_obj)
    c = extract_cocycle(impl)
    # eta(g) = s with s^2 = e: the extracted factor set is trivial here
    assert c.xi[1][1] == 0


def test_cover_json_records():
    from covlab.schemas import cover_from_obj, section_from_obj
    from covlab.covering import z_cocycle

    obj = {"S": "Z4", "L": "Z2", "pi": [0, 1, 0, 1]}
    cover = cover_from_obj(obj)
    sec = section_from_obj(cover, {"lift": [0, 1]})
    z = z_cocycle(sec)
    assert z.values[1][1] == 2  # lift(g)^2 in the kernel
    with pytest.raises(SchemaError):
        cover_from_obj({"S": "Z4", "L": "Z2", "pi": [0, 0, 0, 0]})

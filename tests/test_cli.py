import argparse
import json
import shlex
from pathlib import Path

import pytest
from jsonschema import validate

from heckekit import algebra
from heckekit.cli import build_parser, main
from heckekit.metaplectic import whittaker_value
from heckekit.reports import Report
from heckekit.rmatrix import check_hecke
from heckekit.roots import build_cartan, weyl_group
from heckekit.whittaker import cs_rhs, demazure_variant, idempotent_apply

SCHEMA_PATH = "src/heckekit/report.schema.json"


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_verify_generic_g2_mirrors_bracket_output(capsys):
    code, out = run(capsys, "verify", "--type", "C2", "--instance", "generic")
    assert code == 0
    assert "[True, True, True]" in out


def test_verify_generic_a4(capsys):
    code, out = run(capsys, "verify", "--type", "A4", "--instance", "generic")
    assert code == 0
    assert out.count("[ok ]") == 490 and "FAIL" not in out


def test_verify_generic_a3_spherical_is_one_passing_document_with_the_spherical_instance_checks(capsys):
    code, out = run(capsys, "--json", "verify", "--type", "A3", "--instance", "generic", "--spherical")
    payload = json.loads(out)  # exactly one document: a second would be extra data
    assert code == 0 and payload["status"] == "pass"
    _, spherical = run(capsys, "--json", "verify", "--type", "A3", "--instance", "spherical", "--spherical")
    names = [c["name"] for c in payload["checks"]]
    assert names == [c["name"] for c in json.loads(spherical)["checks"]] and names[-1] == "spherical idempotent"


def test_verify_whittaker_with_bernstein(capsys):
    code, out = run(capsys, "verify", "--type", "A2", "--instance", "whittaker", "--bernstein", "(1,0,0)")
    assert code == 0
    assert "bernstein" in out


def test_verify_metaplectic(capsys):
    code, out = run(capsys, "verify", "--type", "A1", "--instance", "metaplectic", "--n", "2", "--B", "dot")
    assert code == 0


def test_cs_equality(capsys):
    code, out = run(capsys, "cs", "--type", "A1", "--weight", "(1,0)")
    assert code == 0
    assert "PASS" in out


def test_cs_rejects_non_dominant(capsys):
    with pytest.raises(SystemExit):
        main(["cs", "--type", "A1", "--weight", "(0,1)"])


def test_demazure_suite(capsys):
    code, _ = run(capsys, "demazure", "--type", "A2", "--kind", "whittaker")
    assert code == 0
    code, _ = run(capsys, "demazure", "--type", "A2", "--kind", "lusztig")
    assert code == 0
    code, _ = run(capsys, "demazure", "--type", "G2")
    assert code == 0


def test_rmatrix_commands(capsys):
    for argv in (
        ["rmatrix", "ybe", "--n", "2"],
        ["rmatrix", "pybe", "--n", "2"],
        ["rmatrix", "pybe", "--n", "2", "--gauss"],
        ["rmatrix", "triangularity", "--n", "2"],
        ["rmatrix", "triangularity", "--n", "2", "--gauss"],
        ["rmatrix", "hecke", "--n", "2"],
    ):
        code, out = run(capsys, *argv)
        assert code == 0, out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_rmatrix_hecke_gauss_checks_the_gauss_table(capsys, monkeypatch, n):
    import heckekit.cli as cli
    from heckekit.rmatrix import gauss_gamma_spec

    specs = []
    monkeypatch.setattr(cli, "check_hecke", lambda spec, *rest: specs.append(spec) or check_hecke(spec, *rest))
    code, out = run(capsys, "rmatrix", "hecke", "--n", str(n), "--gauss")
    assert code == 0, out
    assert [spec.gamma for spec in specs] == [gauss_gamma_spec(n).gamma]


@pytest.mark.parametrize("argv, title", [
    (["metaplectic"], "metaplectic GL_2 n=2 lambda=(0, 0): PASS"),
    (["wreath"], "wreath n=2 r=2: PASS"),
    (["verify", "--instance", "metaplectic"], "metaplectic A2 n=2 (A2): PASS"),
    (["rmatrix", "schema"], "tensor n=2 r=2 twist=none power=1 (A1): PASS"),
], ids=["metaplectic", "wreath", "verify-metaplectic", "rmatrix-schema"])
def test_n_and_r_default_to_2_where_they_apply(capsys, argv, title):
    code, out = run(capsys, *argv)
    assert code == 0 and title in out.splitlines()


@pytest.mark.parametrize("gauss", [[], ["--gauss"]], ids=["untwisted-and-free", "gauss"])
def test_rmatrix_hecke_check_names_are_distinct(capsys, gauss):
    code, out = run(capsys, "--json", "rmatrix", "hecke", "--n", "2", *gauss)
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert code == 0 and len(names) == 2 * (1 if gauss else 2) and len(set(names)) == len(names)


def test_metaplectic_table(capsys):
    code, out = run(capsys, "metaplectic", "--r", "2", "--n", "2", "--weight", "(0,0)")
    assert code == 0
    assert out.count("(") >= 4  # one row per coset representative
    assert "aggregate" in out


def _first_value_off_by_one(datum, lam):
    values = whittaker_value(datum, lam)
    return [values[0] + 1, *values[1:]]


def test_metaplectic_mismatch_injection(capsys, monkeypatch):
    monkeypatch.setattr("heckekit.cli.whittaker_value", _first_value_off_by_one)
    code, out = run(capsys, "metaplectic", "--r", "2", "--n", "1", "--weight", "(1,0)")
    assert code == 1
    assert "FAIL" in out


def test_wreath_command(capsys):
    code, out = run(capsys, "wreath", "--n", "2", "--r", "2")
    assert code == 0


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit):
        main(["verify", "--nonsense"])


def test_json_report_round_trip_and_schema(capsys):
    code, out = run(capsys, "--json", "rmatrix", "ybe", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    validate(payload, json.load(open(SCHEMA_PATH)))
    report = Report.from_json(json.dumps(payload))
    assert report.passed
    assert json.loads(report.to_json()) == payload


def test_json_failure_contains_localized_entry(capsys, monkeypatch):
    monkeypatch.setattr("heckekit.cli.whittaker_value", _first_value_off_by_one)
    code, out = run(capsys, "--json", "metaplectic", "--r", "2", "--n", "1")
    assert code == 1
    payload = json.loads(out)
    validate(payload, json.load(open(SCHEMA_PATH)))
    failing = [c for c in payload["checks"] if not c["passed"]]
    assert failing and failing[0]["lhs"] and failing[0]["rhs"]


def readme_commands() -> list[list[str]]:
    """The argument lists of the `heckekit ...` lines in README.md."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    lines = [line.strip() for line in readme.read_text().splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.startswith("heckekit ")]


def test_readme_lists_every_command():
    assert len(readme_commands()) == 12
    assert {argv[0] for argv in readme_commands()} == {"verify", "cs", "demazure", "rmatrix", "metaplectic", "wreath"}


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_json_is_one_document(capsys, monkeypatch, argv):
    calls = spy_on_general_division(monkeypatch)
    code, out = run(capsys, "--json", *argv)
    payload = json.loads(out)
    validate(payload, json.load(open(SCHEMA_PATH)))
    assert code == 0 and payload["status"] == "pass"
    assert calls == []  # no README command divides by a polynomial of three or more terms outside the split path


def spy_on_general_division(monkeypatch) -> list:
    """The argument pairs of every call of algebra._divide_general from now on."""
    calls, divide = [], algebra._divide_general
    monkeypatch.setattr(algebra, "_divide_general", lambda p, q, rules: calls.append((p, q)) or divide(p, q, rules))
    return calls


@pytest.mark.parametrize("name", ["A2", "B2", "C2", "G2"])
def test_casselman_shalika_makes_no_general_division(monkeypatch, name):
    cartan = build_cartan(name)
    calls = spy_on_general_division(monkeypatch)
    group = weyl_group(cartan)
    var = demazure_variant("whittaker", cartan, group)
    assert idempotent_apply(var, cartan.rho) == cs_rhs(cartan, group, cartan.rho)
    assert calls == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--type", "Z9"], "unsupported Cartan type 'Z9'"),
        (["verify", "--instance", "metaplectic", "--B", "((2,0),(0,2))"], "argument --B: invalid choice"),
        (["verify", "--type", "B2", "--instance", "rmatrix"], "--instance rmatrix needs a type A1..A4, not B2"),
        (["cs", "--type", "A1", "--weight", "(1,0,0)"], "--weight (1, 0, 0) has 3 coordinates, A1 needs 2"),
        (["verify", "--type", "A1", "--instance", "whittaker", "--bernstein", "(1,0,0)"],
         "--bernstein (1, 0, 0) has 3 coordinates, A1 needs 2"),
        (["demazure", "--type", "A2", "--weights", "(1,0,0)", "--weights", "(1,0)"],
         "--weights (1, 0) has 2 coordinates, A2 needs 3"),
        (["metaplectic", "--r", "2", "--weight", "(1,0,0)"], "--weight (1, 0, 0) has 3 coordinates, A1 needs 2"),
        (["cs", "--type", "G2", "--weight", "(1,0,0)"], "--weight (1, 0, 0) is not in the weight lattice of G2"),
        (["cs", "--type", "A1", "--weight", "(0,1)"], "--weight (0, 1) is not dominant for A1"),
        (["metaplectic", "--r", "7"], "argument --r: 7 is outside 2..5"),
        (["metaplectic", "--r", "1"], "argument --r: 1 is outside 2..5"),
        (["wreath", "--r", "7"], "argument --r: 7 is outside 2..5"),
        (["rmatrix", "hecke", "--n", "0"], "argument --n: 0 is below 1"),
        (["rmatrix", "schema", "--r", "1"], "argument --r: 1 is outside 2..5"),
        (["rmatrix", "schema", "--power", "3"], "--power 3: the exponent power must be 1 or --n (2)"),
        (["verify", "--type", "A2", "--instance", "rmatrix", "--power", "3"],
         "--power 3: the exponent power must be 1 or --n (2)"),
        (["rmatrix", "ybe", "--n", "5"], "--n 5: rmatrix checks support n <= 4"),
        (["verify", "--type", "A2", "--instance", "generic", "--gauss"],
         "--gauss and --power need --instance rmatrix, not generic"),
        (["verify", "--type", "A2", "--instance", "generic", "--gauss", "--power", "3"],
         "--gauss and --power need --instance rmatrix, not generic"),
        (["verify", "--instance", "metaplectic", "--power", "2"],
         "--gauss and --power need --instance rmatrix, not metaplectic"),
        (["rmatrix", "ybe", "--n", "2", "--power", "2"], "--power needs the schema check, not ybe"),
        (["verify", "--type", "G2", "--instance", "metaplectic"], "--instance metaplectic has no G2 covers yet"),
        (["verify", "--type", "G2", "--instance", "metaplectic", "--n", "1"],
         "--instance metaplectic has no G2 covers yet"),
        (["cs", "--weight", ""], "argument --weight: empty weight"),
        (["cs", "--weight", "(a,b)"], "argument --weight: bad weight '(a,b)'"),
        (["metaplectic", "--r", "2", "--n", "2", "--inject-mismatch"], "unrecognized arguments: --inject-mismatch"),
        (["cs", "--type", "A2"], "the following arguments are required: --weight"),
        (["verify", "--type", "A2", "--instance", "generic", "--n", "3"],
         "--n needs --instance metaplectic or rmatrix, not generic"),
        (["rmatrix", "ybe", "--n", "2", "--r", "4"], "--r needs the schema check, not ybe"),
    ],
    ids=[
        "unknown-type", "form-not-dot", "rmatrix-non-A", "cs-weight-length", "bernstein-length",
        "demazure-weights-length", "metaplectic-weight-length", "cs-weight-off-lattice", "cs-not-dominant",
        "metaplectic-r-7", "metaplectic-r-1", "wreath-r-7", "rmatrix-n-0",
        "rmatrix-schema-r-1", "rmatrix-schema-power", "verify-rmatrix-power", "rmatrix-n-5",
        "verify-generic-gauss", "verify-generic-gauss-power", "verify-metaplectic-power", "rmatrix-ybe-power",
        "metaplectic-g2", "metaplectic-g2-n-1", "cs-weight-empty", "cs-weight-not-integers",
        "metaplectic-inject-mismatch", "cs-no-weight", "verify-generic-n", "rmatrix-ybe-r",
    ],
)
def test_bad_input_is_a_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    last = err.splitlines()[-1]
    assert last.startswith("heckekit") and "error: " in last and message in last
    assert err.startswith(f"usage: heckekit {argv[0]} ")  # the subcommand's usage, whoever found the error
    assert "Traceback" not in err


# every option of every subcommand: (option string or positional name, default, choices, required,
# action, type), in parser order, as the parser declared subcommand by subcommand had them
PARSER_SURFACE = {
    None: [("--json", False, None, False, "StoreTrue", None)],
    "verify": [
        ("--type", "A2", None, False, "Store", "_cartan_type"),
        ("--instance", "generic", ["generic", "whittaker", "spherical", "metaplectic", "rmatrix"], False, "Store",
         None),
        ("--bernstein", None, None, False, "Append", "_parse_weight"),
        ("--n", None, None, False, "Store", "positive_int"),
        ("--B", "dot", ["dot"], False, "Store", None),
        ("--gauss", False, None, False, "StoreTrue", None),
        ("--power", None, None, False, "Store", "int"),
        ("--spherical", False, None, False, "StoreTrue", None),
    ],
    "cs": [
        ("--type", "A2", None, False, "Store", "_cartan_type"),
        ("--weight", None, None, True, "Store", "_parse_weight"),
    ],
    "demazure": [
        ("--type", "A2", None, False, "Store", "_cartan_type"),
        ("--kind", "whittaker", ["whittaker", "lusztig"], False, "Store", None),
        ("--plain", False, None, False, "StoreTrue", None),
        ("--weights", None, None, False, "Append", "_parse_weight"),
    ],
    "rmatrix": [
        ("check", None, ["ybe", "pybe", "hecke", "triangularity", "schema"], True, "Store", None),
        ("--n", None, None, False, "Store", "positive_int"),
        ("--r", None, None, False, "Store", "gl_rank"),
        ("--gauss", False, None, False, "StoreTrue", None),
        ("--power", None, None, False, "Store", "int"),
    ],
    "metaplectic": [
        ("--r", None, None, False, "Store", "gl_rank"),
        ("--n", None, None, False, "Store", "positive_int"),
        ("--B", "dot", ["dot"], False, "Store", None),
        ("--weight", None, None, False, "Store", "_parse_weight"),
    ],
    "wreath": [
        ("--n", None, None, False, "Store", "positive_int"),
        ("--r", None, None, False, "Store", "gl_rank"),
    ],
}


def surface(parser: argparse.ArgumentParser) -> list[tuple]:
    out = []
    for a in parser._actions:
        if isinstance(a, (argparse._HelpAction, argparse._SubParsersAction)):
            continue
        name = a.option_strings[0] if a.option_strings else a.dest
        assert len(a.option_strings) <= 1, a.option_strings
        kind = type(a).__name__.strip("_").replace("Action", "")
        out.append((name, a.default, a.choices, a.required, kind, getattr(a.type, "__name__", None)))
    return out


def test_parser_surface_is_pinned():
    parser = build_parser()
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert list(subcommands) == [name for name in PARSER_SURFACE if name]
    assert surface(parser) == PARSER_SURFACE[None]
    for name, sub in subcommands.items():
        assert surface(sub) == PARSER_SURFACE[name], name


@pytest.mark.parametrize("gauss", [[], ["--gauss"]], ids=["plain", "gauss"])
def test_rmatrix_schema_power_n_passes(capsys, gauss):
    code, out = run(capsys, "--json", "rmatrix", "schema", "--n", "2", "--power", "2", *gauss)
    payload = json.loads(out)
    assert code == 0 and payload["status"] == "pass"
    assert all(c["passed"] for c in payload["checks"])
    assert sum(c["name"].startswith("bernstein") for c in payload["checks"]) == 2  # two weights, one root


def test_rmatrix_schema_r_4_passes(capsys):
    # the A3 tensor instance, as verify --type A3 --instance rmatrix builds it
    code, out = run(capsys, "--json", "rmatrix", "schema", "--n", "2", "--r", "4")
    payload = json.loads(out)
    assert code == 0 and payload["status"] == "pass"
    assert sum(c["name"].startswith("braid") for c in payload["checks"]) == 3  # A3 has three pairs of simple roots


def _raise(*args, **kwargs):
    raise RuntimeError("injected failure")


@pytest.mark.parametrize(
    "argv, step",
    [
        (["cs", "--type", "A1", "--weight", "(1,0)"], "idempotent_apply"),
        (["demazure", "--type", "A1"], "apply_demazure"),
        (["metaplectic", "--r", "2", "--n", "2"], "whittaker_value"),
        (["wreath", "--n", "2", "--r", "2"], "wreath_operator"),
    ],
    ids=["cs", "demazure", "metaplectic", "wreath"],
)
def test_raising_step_fails_one_check(capsys, monkeypatch, argv, step):
    monkeypatch.setattr(f"heckekit.cli.{step}", _raise)
    code, out = run(capsys, "--json", *argv)
    payload = json.loads(out)
    assert code == 1 and payload["status"] == "fail"
    failed = [c for c in payload["checks"] if not c["passed"]]
    assert failed and all(c["lhs"] == "RuntimeError: injected failure" for c in failed)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--type", "A2", "--instance", "metaplectic", "--n", "2", "--bernstein", "(1,0,0)"],
         "--bernstein (1, 0, 0): <alpha_1, lambda> is not a multiple of the root scale 2 of metaplectic A2 n=2"),
        (["--type", "B2", "--instance", "metaplectic", "--n", "2", "--bernstein", "(1,0)"],
         "--bernstein (1, 0): <alpha_2, lambda> is not a multiple of the root scale 2 of metaplectic B2 n=2"),
        (["--type", "A1", "--instance", "rmatrix", "--n", "2", "--power", "2", "--bernstein", "(1,0)"],
         "--bernstein (1, 0): <alpha_1, lambda> is not a multiple of the root scale 2 of tensor n=2"),
    ],
    ids=["metaplectic-A2", "metaplectic-B2", "rmatrix-power-2"],
)
def test_bernstein_weight_off_the_root_scale_is_a_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(["verify", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    last = err.splitlines()[-1]
    assert last.startswith("heckekit") and "error: " in last and message in last
    assert err.startswith("usage: heckekit verify ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--type", "A2", "--instance", "metaplectic", "--n", "2"],
        ["--type", "B2", "--instance", "metaplectic", "--n", "2"],
        ["--type", "A2", "--instance", "metaplectic", "--n", "2", "--bernstein", "(2,0,0)"],
        ["--type", "A1", "--instance", "rmatrix", "--n", "2", "--power", "2", "--bernstein", "(2,0)"],
    ],
    ids=["metaplectic-A2-default", "metaplectic-B2-default", "metaplectic-A2-scaled", "rmatrix-power-2-scaled"],
)
def test_bernstein_weights_on_the_root_scale_pass(capsys, argv):
    code, out = run(capsys, "--json", "verify", *argv)
    payload = json.loads(out)
    assert code == 0 and payload["status"] == "pass"
    assert any(c["name"].startswith("bernstein") for c in payload["checks"])

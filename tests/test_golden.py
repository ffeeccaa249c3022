"""Golden corpus: byte-identical CLI reports and error messages.

Each case runs ``hopfkit.cli.main`` once with ``--json`` and once with
``--text`` and compares a sha256 digest of the exit code, stdout and stderr
with the digest committed in ``golden_digests.json``.  Reports are
deterministic, so a digest pins every byte of them.  Configs are written to
``config.json`` in a fresh working directory, so error messages that quote
the file name stay the same on every machine.

Regenerate the digests (only when a report is meant to change) with
``PYTHONPATH=src python -m tests.test_golden``.
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from hopfkit.cli import build_parser, main

DIGESTS = Path(__file__).with_name("golden_digests.json")
FORMATS = ("json", "text")

GROUPS = {
    "classical": [[1, 2, 3]],
    "generic": [[1], [2], [3]],
    "intermediary": [[1, 2], [3], [4]],
    "general": [[1, 2], [3, 4]],
}


def _bundle(exponents):
    return {"type": "monomial", "exponents": exponents}


def _poly(*terms):
    return [{"exponents": list(e), "coeff": c} for e, c in terms]


README_FORM = {
    "n": 3,
    "form": {"degree": 1, "terms": [
        {"indices": [1], "coefficient": _poly(((0, 2, 0), "1"))},
        {"indices": [2], "coefficient": _poly(((2, 0, 0), "1"))},
        {"indices": [3], "coefficient": _poly(((0, 0, 2), "1"))},
    ]},
}
MONOMIAL_FIELD = {
    "n": 3,
    "vector_field": {"components": [
        _poly(((0, 1, 1), "1")), _poly(((1, 0, 0), "1")), _poly(((1, 0, 0), "1")),
    ]},
}
MONOMIAL_FORM = {
    "n": 4,
    "form": {"degree": 1, "terms": [
        {"indices": [1], "coefficient": _poly(((0, 2, 0, 0), "-1/2"))},
        {"indices": [3], "coefficient": _poly(((0, 0, 0, 1), "3i"))},
    ]},
}
CONSTANT_FIELD = {
    "n": 3,
    "vector_field": {"components": [_poly(((0, 0, 0), "1")), [], []]},
}


def _section_cases():
    """sections and dim for every structure kind and every section space."""
    exponents = {
        "classical": [-1, 0, 0],
        "generic": [1, 1, 1],
        "intermediary": [0, 0, 0, 0],
        "general": [-1, 0, 0, 0],
    }
    cases = []
    for kind, groups in GROUPS.items():
        n = sum(len(g) for g in groups)
        for space in ("tangent", "one-form", "top-minus-one-form"):
            for command in ("sections", "dim"):
                config = {"n": n, "groups": groups, "bundle": _bundle(exponents[kind]),
                          "parameters": {"space": space}}
                cases.append((f"{command} {kind} {space}", [command], config))
    return cases


def _structure_cases():
    """classify on both sides and obstruction for every structure kind."""
    cases = []
    for kind, groups in GROUPS.items():
        n = sum(len(g) for g in groups)
        for side in ("tangent", "conormal"):
            cases.append((f"classify {kind} {side}",
                          ["classify", "--n", str(n), "--groups", json.dumps(groups),
                           "--side", side, "--max-degree", "2"], None))
        field = {"n": n, "groups": groups, "vector_field": {"components": [
            _poly(((1,) + (0,) * (n - 1), "1")) for _ in range(n)]}}
        cases.append((f"obstruction {kind}", ["obstruction"], field))
    return cases


CASES = [
    # README examples
    ("readme sections", ["sections", "--n", "3", "--groups", "[[1,2,3]]"],
     {"bundle": _bundle([-1, 0, 0])}),
    ("readme classify", ["classify", "--n", "3", "--groups", "[[1],[2],[3]]",
                         "--side", "tangent"], None),
    ("readme integrability", ["integrability"], README_FORM),
    ("readme leafcount", ["leafcount", "--n", "3", "--m", "2"], None),
    ("readme singlocus", ["singlocus"], MONOMIAL_FIELD),
    ("readme hodge", ["hodge", "--n", "4"], None),
    # configs of tests/test_cli.py
    ("cli sections without bundle", ["sections", "--n", "3", "--groups", "[[1],[2],[3]]"], None),
    ("cli sections roundtrip", ["sections", "--n", "3", "--groups", "[[1],[2],[3]]"],
     {"bundle": _bundle([0, 1, 0])}),
    ("cli dim", ["dim"], {"n": 3, "groups": [[1, 2, 3]], "bundle": _bundle([-1, 0, 0])}),
    ("cli classify conormal strict", ["classify", "--n", "3", "--groups", "[[1,2,3]]",
                                      "--side", "conormal", "--max-degree", "2",
                                      "--strict"], None),
    ("cli classify general", ["classify", "--n", "4", "--groups", "[[1,2],[3,4]]"], None),
    ("cli malformed json", ["hodge"], '{"n": 3,,}'),
    ("cli bad groups flag", ["dim", "--n", "3", "--groups", "[[1],[2],"], None),
    ("cli missing file", ["hodge", "--config", "missing.json"], None),
    ("cli brunella", ["brunella"], {"n": 2, "form": {"degree": 1, "terms": [
        {"indices": [2], "coefficient": _poly(((1, 0), "1/2+3/4i"))}]}}),
    ("cli leafcount oracle", ["leafcount"], {
        "n": 2, "parameters": {"m": 2},
        "vector_field": {"components": [_poly(((2, 0), "1")), _poly(((0, 2), "1"))]}}),
    ("cli leafcount extrapolated", ["leafcount", "--n", "3", "--m", "1"], None),
    ("cli leafcount without m", ["leafcount", "--n", "3"], None),
    ("cli obstruction", ["obstruction"], MONOMIAL_FIELD),
    ("cli singlocus non-monomial", ["singlocus"], {"n": 2, "vector_field": {"components": [
        _poly(((1, 0), "1"), ((0, 1), "1")), []]}}),
    ("cli singlocus two objects", ["singlocus"], {
        "n": 2, "vector_field": {"components": [_poly(((1, 0), "1")), []]},
        "form": {"degree": 1, "terms": []}}),
    ("cli classify intermediary", ["classify"], {"n": 4, "groups": [[1, 2], [3], [4]]}),
    ("cli classify singular", ["classify"], {
        "n": 3, "groups": [[1, 2, 3]],
        "parameters": {"side": "conormal", "max_degree": 2, "coefficients": ["1", "0", "0"]}}),
    ("cli classify singular strict", ["classify", "--strict"], {
        "n": 3, "groups": [[1, 2, 3]],
        "parameters": {"side": "conormal", "max_degree": 2, "coefficients": ["1", "0", "0"]}}),
    ("cli hodge 3", ["hodge", "--n", "3"], None),
    # section spaces: other parameters and rejected requests
    ("sections unrelated", ["sections"], {"n": 3, "groups": [[1, 2, 3]],
                                         "bundle": {"type": "unrelated"}}),
    ("dim unrelated", ["dim", "--space", "one-form"], {"n": 3, "groups": [[1], [2, 3]],
                                                       "bundle": {"type": "unrelated"}}),
    ("sections large classical", ["sections", "--space", "one-form"], {
        "n": 3, "groups": [[1, 2, 3]], "bundle": _bundle([3, 1, 0])}),
    ("sections constant one-form", ["sections", "--space", "one-form"], {
        "n": 3, "groups": [[1], [2], [3]], "bundle": _bundle([0, 1, 0])}),
    ("sections constant top-minus-one-form", ["sections", "--space", "top-minus-one-form"], {
        "n": 3, "groups": [[1, 2, 3]], "bundle": _bundle([2, 0, 0])}),
    ("dim mu^-200", ["dim"], {"n": 3, "groups": [[1, 2, 3]], "bundle": _bundle([-200, 0, 0])}),
    ("dim generic four", ["dim", "--space", "top-minus-one-form"], {
        "n": 4, "groups": [[1], [2], [3], [4]], "bundle": _bundle([2, 1, 1, 3])}),
    ("sections n=2 top-minus-one-form", ["sections", "--space", "top-minus-one-form"], {
        "n": 2, "groups": [[1, 2]], "bundle": _bundle([2, 0])}),
    ("dim n=2 top-minus-one-form", ["dim", "--space", "top-minus-one-form"], {
        "n": 2, "groups": [[1], [2]], "bundle": _bundle([2, 0])}),
    ("sections short exponents", ["sections"], {"n": 3, "groups": [[1, 2, 3]],
                                               "bundle": _bundle([1, 0])}),
    ("sections unknown bundle type", ["sections"], {"n": 3, "groups": [[1, 2, 3]],
                                                   "bundle": {"type": "line"}}),
    ("sections unknown space", ["dim"], {"n": 3, "groups": [[1, 2, 3]],
                                        "bundle": _bundle([0, 0, 0]),
                                        "parameters": {"space": "two-form"}}),
    ("sections bad partition", ["sections", "--n", "3", "--groups", "[[1,2]]"],
     {"bundle": _bundle([0, 0, 0])}),
    ("sections n=1", ["dim", "--n", "1", "--groups", "[[1]]"], {"bundle": _bundle([0])}),
    ("sections without n", ["dim", "--groups", "[[1]]"], {"bundle": _bundle([0])}),
    ("sections groups not lists", ["dim", "--n", "2"], {"groups": [1, 2],
                                                       "bundle": _bundle([0, 0])}),
    ("config root not an object", ["hodge"], "[1, 2]"),
    # classification
    ("classify classical tangent max-degree -1", ["classify", "--n", "2", "--groups", "[[1,2]]",
                                                  "--max-degree", "-1"], None),
    ("classify classical tangent max-degree -2", ["classify", "--n", "2", "--groups", "[[1,2]]",
                                                  "--max-degree", "-2"], None),
    ("classify coefficients", ["classify", "--side", "conormal"], {
        "n": 3, "groups": [[1], [2, 3]], "parameters": {"coefficients": ["2", "-1/3", "1+i"]}}),
    ("classify wrong coefficient count", ["classify"], {
        "n": 3, "groups": [[1], [2], [3]], "parameters": {"coefficients": ["2"]}}),
    ("classify unknown side", ["classify"], {"n": 3, "groups": [[1], [2], [3]],
                                             "parameters": {"side": "normal"}}),
    ("parameters not an object", ["hodge", "--n", "3"], {"parameters": "x"}),
    # commands without a structure
    ("integrability vacuous", ["integrability"], {"n": 2, "form": {"degree": 1, "terms": [
        {"indices": [1], "coefficient": _poly(((0, 1), "1"))}]}}),
    ("integrability closed", ["integrability"], {"n": 3, "form": {"degree": 1, "terms": [
        {"indices": [1], "coefficient": _poly(((0, 1, 0), "1"))},
        {"indices": [2], "coefficient": _poly(((1, 0, 0), "1"))}]}}),
    ("integrability two-form", ["integrability"], {"n": 3, "form": {"degree": 2, "terms": [
        {"indices": [1, 2], "coefficient": _poly(((0, 0, 0), "1"))}]}}),
    ("integrability without form", ["integrability", "--n", "3"], None),
    ("brunella fibration", ["brunella"], {"n": 2, "form": {"degree": 1, "terms": [
        {"indices": [1], "coefficient": _poly(((0, 1), "1"))},
        {"indices": [2], "coefficient": _poly(((1, 0), "-1"))}]}}),
    ("brunella non-integrable", ["brunella"], README_FORM),
    ("brunella inhomogeneous", ["brunella"], {"n": 2, "form": {"degree": 1, "terms": [
        {"indices": [1], "coefficient": _poly(((0, 1), "1"), ((0, 0), "1"))}]}}),
    ("leafcount n=5 m=3", ["leafcount", "--n", "5", "--m", "3"], None),
    ("leafcount m=0", ["leafcount", "--n", "3", "--m", "0"], None),
    ("leafcount radial oracle", ["leafcount", "--m", "2"], {
        "n": 2,
        "vector_field": {"components": [_poly(((1, 0), "1")), _poly(((0, 1), "1"))]}}),
    ("leafcount oracle off the plane", ["leafcount", "--m", "2"], MONOMIAL_FIELD),
    ("hodge 2", ["hodge", "--n", "2"], None),
    ("hodge 1", ["hodge", "--n", "1"], None),
    ("hodge 0", ["hodge", "--n", "0"], None),
    ("singlocus form", ["singlocus"], MONOMIAL_FORM),
    ("singlocus constant", ["singlocus"], CONSTANT_FIELD),
    ("singlocus zero field", ["singlocus"], {"n": 2, "vector_field": {"components": [[], []]}}),
    ("obstruction form", ["obstruction"], MONOMIAL_FORM),
    ("obstruction constant", ["obstruction"], CONSTANT_FIELD),
    ("obstruction bad groups", ["obstruction", "--groups", "[[1],[2]]"], MONOMIAL_FIELD),
    ("obstruction nothing", ["obstruction", "--n", "3"], None),
] + _section_cases() + _structure_cases()


def run_case(argv, config, fmt, workdir: Path) -> str:
    """Digest of one CLI run: exit code, stdout and stderr."""
    argv = list(argv)
    if config is not None:
        text = config if isinstance(config, str) else json.dumps(config)
        (workdir / "config.json").write_text(text, encoding="utf-8")
        argv += ["--config", "config.json"]
    out, err = io.StringIO(), io.StringIO()
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + [f"--{fmt}"])
    finally:
        os.chdir(previous)
    blob = f"exit {code}\n--stdout--\n{out.getvalue()}--stderr--\n{err.getvalue()}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def test_case_names_are_unique():
    names = [name for name, _, _ in CASES]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("name,argv,config", CASES, ids=[c[0] for c in CASES])
def test_golden_report(name, argv, config, tmp_path):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[name]
    for fmt in FORMATS:
        assert run_case(argv, config, fmt, tmp_path) == expected[fmt], f"{name} --{fmt}"


# the argparse options of each command, which must not change
PARSER_OPTIONS = {
    "sections": ["--config", "--json", "--text", "--n", "--groups", "--space"],
    "dim": ["--config", "--json", "--text", "--n", "--groups", "--space"],
    "classify": ["--config", "--json", "--text", "--n", "--groups", "--side", "--max-degree",
                 "--strict"],
    "integrability": ["--config", "--json", "--text", "--n"],
    "brunella": ["--config", "--json", "--text", "--n"],
    "leafcount": ["--config", "--json", "--text", "--n", "--m"],
    "hodge": ["--config", "--json", "--text", "--n"],
    "singlocus": ["--config", "--json", "--text", "--n"],
    "obstruction": ["--config", "--json", "--text", "--n", "--groups"],
}


def test_parser_options():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    options = {
        name: [s for action in cmd._actions for s in action.option_strings if s != "-h"
               and s != "--help"]
        for name, cmd in sub.choices.items()
    }
    assert options == PARSER_OPTIONS


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        digests = {
            name: {fmt: run_case(argv, config, fmt, Path(scratch)) for fmt in FORMATS}
            for name, argv, config in CASES
        }
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} cases to {DIGESTS}")

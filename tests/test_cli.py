import json
import math
import subprocess
import sys

import pytest

import hopfkit.sections
from hopfkit.cli import COMMANDS, main, render_json, render_text, run_command

GROUPS_GENERIC3 = [[1], [2], [3]]


def invoke(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_sections_needs_a_bundle(capsys):
    # bundle is required, so flag-only invocation fails cleanly
    code, out, err = invoke(
        ["sections", "--n", "3", "--groups", "[[1],[2],[3]]"], capsys
    )
    assert code == 2
    assert "bundle" in err


def test_sections_roundtrip(tmp_path, capsys):
    config = write_config(
        tmp_path,
        {"bundle": {"type": "monomial", "exponents": [0, 1, 0]}},
    )
    code, out, _ = invoke(
        ["sections", "--n", "3", "--groups", "[[1],[2],[3]]", "--config", config],
        capsys,
    )
    assert code == 0
    assert "command: sections" in out
    assert "structure: generic, n=3, groups {1} {2} {3}" in out
    assert "dimension: 1" in out
    assert "∂/∂z_2" in out


def test_dim_json(tmp_path, capsys):
    config = write_config(
        tmp_path,
        {
            "n": 3,
            "groups": [[1, 2, 3]],
            "bundle": {"type": "monomial", "exponents": [-1, 0, 0]},
        },
    )
    code, out, _ = invoke(["dim", "--config", config, "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "dim"
    assert report["results"]["dimension"] == 18
    assert report["results"]["bundle"]["display"] == "mu^-1"
    assert report["structure"]["kind"] == "classical"


def test_dim_does_not_enumerate(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("dim must not enumerate the basis")

    monkeypatch.setattr(hopfkit.sections, "_alphas_with_class", refuse)
    config = write_config(tmp_path, {"bundle": {"type": "monomial",
                                                "exponents": [-1000000, 0, 0]}})
    code, out, _ = invoke(
        ["dim", "--n", "3", "--groups", "[[1,2,3]]", "--config", config, "--json"], capsys
    )
    assert code == 0
    # n monomials of degree 10^6 + 1 in 3 variables, one per component
    assert json.loads(out)["results"]["dimension"] == 3 * math.comb(1000000 + 3, 2)


def test_classify_reports(tmp_path, capsys):
    code, out, _ = invoke(
        ["classify", "--n", "3", "--groups", "[[1],[2],[3]]", "--json"], capsys
    )
    assert code == 0
    report = json.loads(out)
    entries = report["results"]["entries"]
    assert len(entries) == 4
    assert [e["bundle"]["display"] for e in entries] == ["1", "mu_1", "mu_2", "mu_3"]
    assert entries[0]["kind"] == "linear"
    assert all(e["nonsingularity"]["verdict"] == "nonsingular" for e in entries)

    code, out, _ = invoke(
        ["classify", "--n", "3", "--groups", "[[1,2,3]]", "--side", "conormal",
         "--max-degree", "2", "--strict"],
        capsys,
    )
    assert code == 0
    assert "bundle mu^2 | polynomial (m=2) | nonsingular" in out


def test_classify_general_pattern_unsupported(capsys):
    code, _, err = invoke(
        ["classify", "--n", "4", "--groups", "[[1,2],[3,4]]"], capsys
    )
    assert code == 3
    assert err.startswith("unsupported:")


def test_malformed_json_reports_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 3,,}', encoding="utf-8")
    code, _, err = invoke(["hodge", "--config", str(path)], capsys)
    assert code == 2
    assert "line 1" in err and "column" in err


def test_bad_groups_flag(capsys):
    code, _, err = invoke(["dim", "--n", "3", "--groups", "[[1],[2],"], capsys)
    assert code == 2
    assert "malformed --groups" in err


def test_missing_file(capsys):
    code, _, err = invoke(["hodge", "--config", "/nonexistent/x.json"], capsys)
    assert code == 2


def _form_term(indices=(1,), exponents=(1, 0, 0)):
    return {"indices": indices, "coefficient": [{"exponents": exponents, "coeff": "1"}]}


@pytest.mark.parametrize("command, payload, message", [
    ("integrability", {"form": {"degree": 1, "terms": [_form_term(exponents=[1.7, 0, 0])]}},
     "exponents must be integers"),
    ("integrability", {"form": {"degree": 1, "terms": [_form_term(exponents=None)]}},
     "exponents must be a list"),
    ("integrability", {"form": {"degree": 1, "terms": [_form_term(indices=[1.9])]}},
     "form indices must be integers"),
    ("integrability", {"form": {"degree": "1", "terms": [_form_term()]}},
     "form degree must be an integer"),
    ("integrability", {"form": {"degree": 1, "terms": 5}}, "form terms must be a list"),
    ("singlocus", {"vector_field": {"components": 5}}, "components must be a list"),
], ids=["float exponent", "null exponents", "float index", "string degree", "int terms",
        "int components"])
def test_malformed_payloads_rejected(command, payload, message, tmp_path, capsys):
    config = write_config(tmp_path, {"n": 3, **payload})
    code, out, err = invoke([command, "--config", config], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and message in err


def test_integrability_and_brunella(tmp_path, capsys):
    form_terms = [
        {"indices": [1], "coefficient": [{"exponents": [0, 2, 0], "coeff": "1"}]},
        {"indices": [2], "coefficient": [{"exponents": [2, 0, 0], "coeff": "1"}]},
        {"indices": [3], "coefficient": [{"exponents": [0, 0, 2], "coeff": "1"}]},
    ]
    config = write_config(
        tmp_path, {"n": 3, "form": {"degree": 1, "terms": form_terms}}
    )
    code, out, _ = invoke(["integrability", "--config", config], capsys)
    assert code == 0
    assert "integrable: false" in out
    assert "dz_1∧dz_2∧dz_3" in out

    brunella_config = write_config(
        tmp_path,
        {
            "n": 2,
            "form": {
                "degree": 1,
                "terms": [
                    {"indices": [2],
                     "coefficient": [{"exponents": [1, 0], "coeff": "1/2+3/4i"}]}
                ],
            },
        },
        name="brunella.json",
    )
    code, out, _ = invoke(["brunella", "--config", brunella_config, "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["results"]["verdict"] == "invariant-hypersurface"
    assert report["results"]["verified"] is True
    coeff = report["results"]["contraction"][0]["coeff"]
    assert coeff == "1/2+3/4i"


def test_leafcount_with_oracle(tmp_path, capsys):
    config = write_config(
        tmp_path,
        {
            "n": 2,
            "parameters": {"m": 2},
            "vector_field": {
                "components": [
                    [{"exponents": [2, 0], "coeff": "1"}],
                    [{"exponents": [0, 2], "coeff": "1"}],
                ]
            },
        },
    )
    code, out, _ = invoke(["leafcount", "--config", config, "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    oracle = report["results"]["oracle"]
    assert (oracle["with_multiplicity"], oracle["distinct"]) == (3, 3)
    assert any("diagnostic" in note for note in report["results"]["notes"])
    assert report["results"]["count"] is None

    code, out, _ = invoke(["leafcount", "--n", "3", "--m", "2"], capsys)
    assert code == 0
    assert "count: 7" in out

    code, out, _ = invoke(["leafcount", "--n", "3", "--m", "1"], capsys)
    assert code == 0
    assert "extrapolated" in out

    code, _, err = invoke(["leafcount", "--n", "3"], capsys)
    assert code == 2
    assert "m" in err


def test_hodge_command(capsys):
    code, out, _ = invoke(["hodge", "--n", "4"], capsys)
    assert code == 0
    assert "h[0,0] = 1" in out
    assert "h[4,3] = 1" in out
    assert "chern top: 0" in out


def test_singlocus_and_obstruction(tmp_path, capsys):
    config = write_config(
        tmp_path,
        {
            "n": 3,
            "vector_field": {
                "components": [
                    [{"exponents": [0, 1, 1], "coeff": "1"}],
                    [{"exponents": [1, 0, 0], "coeff": "1"}],
                    [{"exponents": [1, 0, 0], "coeff": "1"}],
                ]
            },
        },
    )
    code, out, _ = invoke(["singlocus", "--config", config], capsys)
    assert code == 0
    assert "V(z_1, z_2) \\ {0}, dim 1" in out

    code, out, _ = invoke(["obstruction", "--config", config], capsys)
    assert code == 0
    assert "consistent: true" in out
    assert "chain:" in out


def test_singlocus_non_monomial_unsupported(tmp_path, capsys):
    config = write_config(
        tmp_path,
        {
            "n": 2,
            "vector_field": {
                "components": [
                    [
                        {"exponents": [1, 0], "coeff": "1"},
                        {"exponents": [0, 1], "coeff": "1"},
                    ],
                    [],
                ]
            },
        },
    )
    code, _, err = invoke(["singlocus", "--config", config], capsys)
    assert code == 3
    assert err.startswith("unsupported:")


def test_object_exclusivity(tmp_path, capsys):
    config = write_config(
        tmp_path,
        {
            "n": 2,
            "vector_field": {"components": [[{"exponents": [1, 0], "coeff": "1"}], []]},
            "form": {"degree": 1, "terms": []},
        },
    )
    code, _, err = invoke(["singlocus", "--config", config], capsys)
    assert code == 2
    assert "exactly one" in err


def test_reports_are_deterministic(tmp_path):
    report1 = run_command(
        "classify",
        {"n": 4, "groups": [[1, 2], [3], [4]], "parameters": {}},
    )
    report2 = run_command(
        "classify",
        {"n": 4, "groups": [[1, 2], [3], [4]], "parameters": {}},
    )
    assert render_json(report1) == render_json(report2)
    assert render_text(report1) == render_text(report2)
    # reports contain only JSON-native values, so rendering round-trips
    assert json.loads(render_json(report1)) == report1


def test_classify_warns_on_singular_entries(tmp_path, capsys):
    config = write_config(
        tmp_path,
        {
            "n": 3,
            "groups": [[1, 2, 3]],
            "parameters": {"side": "conormal", "max_degree": 2,
                           "coefficients": ["1", "0", "0"]},
        },
    )
    code, out, _ = invoke(["classify", "--config", config, "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    verdicts = [e["nonsingularity"]["verdict"] for e in report["results"]["entries"]]
    assert "singular" in verdicts
    assert any(w.startswith("singular representative") for w in report["warnings"])
    # strict only escalates unknown verdicts, not singular ones
    code, _, _ = invoke(
        ["classify", "--config", config, "--strict", "--json"], capsys
    )
    assert code == 0


def test_console_script_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "hopfkit.cli", "hodge", "--n", "3", "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["results"]["chern_top"] == 0

    again = subprocess.run(
        [sys.executable, "-m", "hopfkit.cli", "hodge", "--n", "3", "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.stdout == again.stdout  # byte-identical reruns

    bad = subprocess.run(
        [sys.executable, "-m", "hopfkit.cli", "sections", "--space", "bogus"],
        capture_output=True,
        text=True,
    )
    assert bad.returncode == 2  # argparse rejects unknown choices


def test_run_command_unknown():
    with pytest.raises(ValueError):
        run_command("frobnicate", {})


# one invocation per registry command that passes every flag the command has
REGISTRY_ARGV = {
    "sections": ["--n", "3", "--groups", "[[1,2,3]]", "--space", "one-form"],
    "dim": ["--n", "3", "--groups", "[[1],[2,3]]", "--space", "top-minus-one-form"],
    "classify": ["--n", "3", "--groups", "[[1],[2],[3]]", "--side", "conormal",
                 "--max-degree", "1", "--strict"],
    "integrability": ["--n", "3"],
    "brunella": ["--n", "3"],
    "leafcount": ["--n", "3", "--m", "2"],
    "hodge": ["--n", "3"],
    "singlocus": ["--n", "3"],
    "obstruction": ["--n", "3", "--groups", "[[1,2,3]]"],
}
REGISTRY_CONFIG = {
    "bundle": {"type": "monomial", "exponents": [2, 0, 0]},
    "form": {"degree": 1, "terms": [
        {"indices": [1], "coefficient": [{"exponents": [0, 1, 0], "coeff": "1"}]},
        {"indices": [2], "coefficient": [{"exponents": [1, 0, 0], "coeff": "-1"}]},
    ]},
}


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_registry_command_runs(command, fmt, tmp_path, capsys):
    path = write_config(tmp_path, REGISTRY_CONFIG)
    code, out, err = invoke(
        [command, *REGISTRY_ARGV[command], "--config", path, f"--{fmt}"], capsys
    )
    assert (code, err) == (0, "")
    if fmt == "json":
        assert json.loads(out)["command"] == command
    else:
        assert out.startswith(f"command: {command}\n")

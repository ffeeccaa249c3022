"""Command-line interface.

JSON problem descriptions in, deterministic reports out (JSON or text).
Exit codes: 0 on success, 2 on invalid input, 3 when the request falls
outside the supported exact theory.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Callable

from .classify import (
    CoordinateLocus,
    Side,
    Verdict,
    admissible_conormal_bundles,
    admissible_tangent_bundles,
    singular_locus_monomial,
)
from .errors import UnsupportedComputationError
from .forms import DifferentialForm
from .geometry import (
    InvariantHypersurface,
    brunella_alternative,
    fixed_point_count_p1,
    frobenius_defect,
    hodge_numbers,
    isolated_singularity_obstruction,
    leaf_count_classical,
)
from .multipliers import BundleParam, MultiplierStructure
from .polynomials import VectorField, format_monomial
from .sections import SectionSpace, dim_h0, solve_sections


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except json.JSONDecodeError as exc:
        # exc already carries line/column/char positions
        raise ValueError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("the config root must be a JSON object")
    return data


def _require(config: dict, key: str) -> object:
    if key not in config or config[key] is None:
        raise ValueError(f"missing required config entry '{key}'")
    return config[key]


def _ambient_dimension(config: dict) -> int:
    n = _require(config, "n")
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"'n' must be a positive integer, got {n!r}")
    return n


def _structure_from(config: dict) -> MultiplierStructure:
    n = _ambient_dimension(config)
    groups = _require(config, "groups")
    if not isinstance(groups, list) or not all(isinstance(g, list) for g in groups):
        raise ValueError("'groups' must be a list of lists of 1-based indices")
    return MultiplierStructure(n, tuple(tuple(g) for g in groups))


def _bundle_from(config: dict, n: int) -> BundleParam:
    data = _require(config, "bundle")
    if not isinstance(data, dict) or "type" not in data:
        raise ValueError('\'bundle\' must be {"type": "monomial"|"unrelated", ...}')
    if data["type"] == "unrelated":
        return BundleParam.unrelated()
    if data["type"] == "monomial":
        exps = data.get("exponents")
        if not isinstance(exps, list) or len(exps) != n:
            raise ValueError(f"bundle exponents must be a list of {n} integers")
        return BundleParam.monomial(exps)
    raise ValueError(f"unknown bundle type {data['type']!r}")


def _form_from(config: dict, n: int) -> DifferentialForm:
    return DifferentialForm.from_json(n, _require(config, "form"))


def _field_from(config: dict, n: int) -> VectorField:
    return VectorField.from_json(n, _require(config, "vector_field"))


def _section_object_from(config: dict, n: int):
    has_form = config.get("form") is not None
    has_field = config.get("vector_field") is not None
    if has_form == has_field:
        raise ValueError("provide exactly one of 'form' or 'vector_field'")
    if has_form:
        return "form", _form_from(config, n)
    return "vector_field", _field_from(config, n)


def _parameters(config: dict) -> dict:
    params = config.get("parameters") or {}
    if not isinstance(params, dict):
        raise ValueError("'parameters' must be an object")
    return params


def _structure_json(ms: MultiplierStructure) -> dict:
    payload = {
        "n": ms.n,
        "groups": [list(g) for g in ms.groups],
        "kind": ms.kind.value,
    }
    if ms.block_size is not None:
        payload["block_size"] = ms.block_size
    return payload


def _bundle_json(bundle: BundleParam, ms: MultiplierStructure) -> dict:
    if bundle.is_unrelated:
        return {"type": "unrelated", "display": "unrelated"}
    return {
        "type": "monomial",
        "exponents": list(bundle.exponents),
        "display": bundle.display(ms),
    }


def _locus_json(locus: CoordinateLocus) -> dict:
    components = [
        {
            "vanishing": list(c),
            "dimension": dimension,
            "display": str(CoordinateLocus(locus.n, (c,))),
        }
        for c, dimension in zip(locus.components, locus.dimensions())
    ]
    return {"empty": locus.is_empty, "components": components}


def _basis_display(space: SectionSpace, k: int, alpha, n: int) -> str:
    mono = format_monomial(alpha)
    if space is SectionSpace.TANGENT:
        tail = f"∂/∂z_{k}"
    elif space is SectionSpace.ONE_FORM:
        tail = f"dz_{k}"
    else:
        tail = "∧".join(f"dz_{i}" for i in range(1, n + 1) if i != k)
    return f"{mono} {tail}" if mono else tail


# Each handler maps a config to (structure, results, warnings) of its report.


def _section_query(config: dict):
    ms = _structure_from(config)
    bundle = _bundle_from(config, ms.n)
    space = SectionSpace(_parameters(config).get("space", "tangent"))
    return ms, bundle, space


def _section_results(ms, bundle, space, dimension: int) -> dict:
    return {"space": space.value, "bundle": _bundle_json(bundle, ms), "dimension": dimension}


def _cmd_sections(config: dict):
    ms, bundle, space = _section_query(config)
    solutions = solve_sections(space, ms, bundle)
    results = _section_results(ms, bundle, space, len(solutions))
    results["basis"] = [
        {
            "component": k,
            "exponents": list(alpha),
            "display": _basis_display(space, k, alpha, ms.n),
        }
        for k, alpha in solutions
    ]
    return _structure_json(ms), results, []


def _cmd_dim(config: dict):
    ms, bundle, space = _section_query(config)
    return _structure_json(ms), _section_results(ms, bundle, space, dim_h0(space, ms, bundle)), []


def _cmd_classify(config: dict):
    ms = _structure_from(config)
    params = _parameters(config)
    side = Side(params.get("side", "tangent"))
    max_degree = int(params.get("max_degree", 3))
    coefficients = params.get("coefficients")
    builder = (
        admissible_tangent_bundles if side is Side.TANGENT else admissible_conormal_bundles
    )
    entries = builder(ms, max_degree=max_degree, coefficients=coefficients)
    payload = []
    warnings = []
    for entry in entries:
        rep = entry.representative
        rep_json = {
            "type": "vector_field" if isinstance(rep, VectorField) else "one_form",
            "payload": rep.to_json(),
            "display": str(rep),
        }
        verdict = entry.nonsingularity.verdict
        nonsingularity = {"verdict": verdict.value}
        locus = entry.nonsingularity.locus
        nonsingularity["locus"] = _locus_json(locus) if locus is not None else None
        payload.append(
            {
                "bundle": _bundle_json(entry.bundle, ms),
                "kind": entry.kind.value,
                "degree": entry.degree,
                "representative": rep_json,
                "nonsingularity": nonsingularity,
            }
        )
        if verdict is Verdict.UNKNOWN:
            warnings.append(
                f"nonsingularity unknown for bundle {entry.bundle.display(ms)}"
            )
        elif verdict is Verdict.SINGULAR:
            warnings.append(
                f"singular representative for bundle {entry.bundle.display(ms)}"
            )
    if params.get("strict") and any(w.startswith("nonsingularity unknown") for w in warnings):
        raise UnsupportedComputationError(
            "classification contains unknown nonsingularity verdicts"
        )
    results = {"side": side.value, "max_degree": max_degree, "entries": payload}
    return _structure_json(ms), results, warnings


def _cmd_integrability(config: dict):
    n = _ambient_dimension(config)
    omega = _form_from(config, n)
    defect = frobenius_defect(omega)
    warnings = []
    if n < 3:
        warnings.append(
            "every 3-form vanishes below ambient dimension 3; the zero defect is vacuous"
        )
    results = {
        "integrable": defect.is_zero(),
        "defect_terms": len(defect.terms()),
        "defect": defect.to_json(),
        "display": str(defect),
    }
    return None, results, warnings


def _cmd_brunella(config: dict):
    n = _ambient_dimension(config)
    omega = _form_from(config, n)
    outcome = brunella_alternative(omega)
    if isinstance(outcome, InvariantHypersurface):
        results = {
            "verdict": "invariant-hypersurface",
            "contraction": outcome.contraction.to_json(),
            "contraction_display": str(outcome.contraction),
            "verified": outcome.verified,
        }
    else:
        results = {
            "verdict": "tangent-to-fibration",
            "contraction": None,
            "contraction_display": None,
            "verified": None,
        }
    return None, results, []


def _cmd_leafcount(config: dict):
    n = _ambient_dimension(config)
    params = _parameters(config)
    if "m" not in params:
        raise ValueError("missing required parameter 'm'")
    m = int(params["m"])
    warnings = []
    notes = []
    count = None
    extrapolated = False
    if n >= 3:
        count = leaf_count_classical(n, m)
        extrapolated = m == 1
        if extrapolated:
            warnings.append(
                "m = 1 lies outside the closed-form count; reporting the geometric-series limit"
            )
    else:
        notes.append("the closed-form count is stated for ambient dimension at least 3")
    oracle = None
    if config.get("vector_field") is not None:
        if n != 2:
            raise ValueError("the fixed-direction oracle works on C^2")
        outcome = fixed_point_count_p1(_field_from(config, 2))
        if outcome.infinite:
            oracle = {"status": "infinite"}
        else:
            oracle = {
                "status": "finite",
                "with_multiplicity": outcome.with_multiplicity,
                "distinct": outcome.distinct,
            }
        notes.append(
            "diagnostic: the degree-based fixed-direction count is shown for "
            "comparison only; it answers a different question and no equality "
            "with the closed-form leaf count is asserted"
        )
    results = {
        "n": n,
        "m": m,
        "count": count,
        "extrapolated": extrapolated,
        "oracle": oracle,
        "notes": notes,
    }
    return None, results, warnings


def _cmd_hodge(config: dict):
    n = _ambient_dimension(config)
    table = hodge_numbers(n)
    results = {
        "n": n,
        "entries": [{"p": p, "q": q, "value": v} for p, q, v in table.nonzero_entries()],
        "chern_top": table.alternating_sum(),
    }
    return None, results, []


def _cmd_singlocus(config: dict):
    n = _ambient_dimension(config)
    kind, obj = _section_object_from(config, n)
    locus = singular_locus_monomial(obj)
    return None, {"object": kind, "locus": _locus_json(locus)}, []


def _cmd_obstruction(config: dict):
    n = _ambient_dimension(config)
    kind, obj = _section_object_from(config, n)
    structure = None
    if config.get("groups") is not None:
        structure = _structure_json(_structure_from(config))
    report = isolated_singularity_obstruction(obj)
    results = {
        "object": kind,
        "locus": _locus_json(report.locus),
        "consistent": report.consistent,
        "chern_top": report.chern_top,
        "chain": list(report.chain),
    }
    return structure, results, []


# Each text renderer maps the results of a report to the lines of its body.


def _text_sections(results: dict) -> list[str]:
    lines = [
        f"space: {results['space']}",
        f"bundle: {results['bundle']['display']}",
        f"dimension: {results['dimension']}",
    ]
    if "basis" in results:
        lines.append("basis:")
        lines.extend(f"  {entry['display']}" for entry in results["basis"])
    return lines


def _text_classify(results: dict) -> list[str]:
    lines = [f"side: {results['side']}", f"max degree: {results['max_degree']}"]
    lines.append("entries:")
    for i, entry in enumerate(results["entries"], start=1):
        kind = entry["kind"]
        if entry["degree"] is not None:
            kind += f" (m={entry['degree']})"
        verdict = entry["nonsingularity"]["verdict"]
        lines.append(f"  [{i}] bundle {entry['bundle']['display']} | {kind} | {verdict}")
        lines.append(f"      representative: {entry['representative']['display']}")
        locus = entry["nonsingularity"]["locus"]
        if locus is not None and not locus["empty"]:
            for c in locus["components"]:
                lines.append(f"      locus: {c['display']}")
    return lines


def _text_integrability(results: dict) -> list[str]:
    return [
        f"integrable: {str(results['integrable']).lower()}",
        f"defect: {results['display']}",
        f"defect terms: {results['defect_terms']}",
    ]


def _text_brunella(results: dict) -> list[str]:
    lines = [f"verdict: {results['verdict']}"]
    if results["contraction_display"] is not None:
        lines.append(f"contraction: {results['contraction_display']}")
        lines.append(f"identity verified: {str(results['verified']).lower()}")
    return lines


def _text_leafcount(results: dict) -> list[str]:
    lines = [f"n: {results['n']}", f"m: {results['m']}"]
    lines.append(
        f"count: {results['count']}"
        + (" (extrapolated)" if results["extrapolated"] else "")
    )
    oracle = results["oracle"]
    if oracle is not None:
        if oracle["status"] == "infinite":
            lines.append("oracle: infinitely many fixed directions")
        else:
            lines.append(
                f"oracle: {oracle['with_multiplicity']} with multiplicity, "
                f"{oracle['distinct']} distinct"
            )
    for note in results["notes"]:
        lines.append(f"note: {note}")
    return lines


def _text_hodge(results: dict) -> list[str]:
    lines = [f"n: {results['n']}"]
    lines.extend(f"h[{e['p']},{e['q']}] = {e['value']}" for e in results["entries"])
    lines.append(f"chern top: {results['chern_top']}")
    return lines


def _text_singlocus(results: dict) -> list[str]:
    lines = [f"object: {results['object']}"]
    locus = results["locus"]
    if locus["empty"]:
        lines.append("locus: empty")
    else:
        lines.extend(f"locus: {c['display']}" for c in locus["components"])
    return lines


def _text_obstruction(results: dict) -> list[str]:
    lines = _text_singlocus(results)
    lines.append(f"consistent: {str(results['consistent']).lower()}")
    lines.append(f"chern top: {results['chern_top']}")
    lines.append("chain:")
    lines.extend(f"  - {step}" for step in results["chain"])
    return lines


# Command-specific argparse flags, in the order they are added to a parser.
_FLAGS = {
    "groups": {"help": 'multiplier groups as JSON, e.g. "[[1,2],[3]]"'},
    "space": {"choices": [s.value for s in SectionSpace], "help": "which section space"},
    "side": {"choices": [s.value for s in Side], "help": "classification side"},
    "max_degree": {"type": int, "help": "classical family cutoff"},
    "m": {"type": int, "help": "degree parameter"},
    "strict": {
        "action": "store_true",
        "default": None,
        "help": "fail (exit 3) on unknown verdicts",
    },
}


@dataclass(frozen=True)
class Command:
    """One CLI command: its help line, report handler, text renderer and flags."""

    help: str
    handler: Callable[[dict], tuple]
    text: Callable[[dict], list[str]]
    flags: tuple[str, ...] = ()


COMMANDS = {
    "sections": Command(
        "monomial basis of a twisted section space", _cmd_sections, _text_sections,
        ("groups", "space"),
    ),
    "dim": Command(
        "dimension of a twisted section space", _cmd_dim, _text_sections, ("groups", "space")
    ),
    "classify": Command(
        "admissible bundles with witnesses", _cmd_classify, _text_classify,
        ("groups", "side", "max_degree", "strict"),
    ),
    "integrability": Command(
        "integrability defect of a 1-form", _cmd_integrability, _text_integrability
    ),
    "brunella": Command(
        "invariant-hypersurface alternative for an integrable 1-form",
        _cmd_brunella, _text_brunella,
    ),
    "leafcount": Command(
        "compact leaf count of the coordinate-power family", _cmd_leafcount, _text_leafcount,
        ("m",),
    ),
    "hodge": Command("Hodge table and top Chern number", _cmd_hodge, _text_hodge),
    "singlocus": Command(
        "coordinate-subspace singular locus of a monomial section",
        _cmd_singlocus, _text_singlocus,
    ),
    "obstruction": Command(
        "isolated-singularity obstruction report", _cmd_obstruction, _text_obstruction,
        ("groups",),
    ),
}


def _command(name: str) -> Command:
    if name not in COMMANDS:
        raise ValueError(f"unknown command {name!r}")
    return COMMANDS[name]


def run_command(command: str, config: dict) -> dict:
    """Execute one CLI command against a validated config and build its report."""
    structure, results, warnings = _command(command).handler(config)
    return {
        "command": command,
        "structure": structure,
        "results": results,
        "warnings": warnings,
    }


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, ensure_ascii=False)


def render_text(report: dict) -> str:
    lines = [f"command: {report['command']}"]
    structure = report.get("structure")
    if structure:
        groups = " ".join(
            "{" + ",".join(str(i) for i in g) + "}" for g in structure["groups"]
        )
        lines.append(
            f"structure: {structure['kind']}, n={structure['n']}, groups {groups}"
        )
    lines.extend(_command(report["command"]).text(report["results"]))
    warnings = report.get("warnings") or []
    if warnings:
        lines.append("warnings:")
        lines.extend(f"  - {w}" for w in warnings)
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfkit",
        description=(
            "Exact section spaces, classifications, and geometric identities "
            "for diagonal Hopf manifolds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        cmd = sub.add_parser(name, help=command.help)
        cmd.add_argument("--config", help="JSON problem description")
        fmt = cmd.add_mutually_exclusive_group()
        fmt.add_argument(
            "--json", dest="fmt", action="store_const", const="json", help="JSON report"
        )
        fmt.add_argument(
            "--text", dest="fmt", action="store_const", const="text", help="text report"
        )
        cmd.set_defaults(fmt="text")
        cmd.add_argument("--n", type=int, help="ambient dimension")
        for flag in command.flags:
            cmd.add_argument("--" + flag.replace("_", "-"), **_FLAGS[flag])
    return parser


def _assemble_config(args: argparse.Namespace) -> dict:
    config = _load_config_file(args.config) if args.config else {}
    if getattr(args, "n", None) is not None:
        config["n"] = args.n
    groups_text = getattr(args, "groups", None)
    if groups_text:
        try:
            config["groups"] = json.loads(groups_text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed --groups value: {exc}") from exc
    params = dict(config.get("parameters") or {})
    for name in COMMANDS[args.command].flags:
        value = getattr(args, name)
        if name != "groups" and value is not None:
            params[name] = value
    config["parameters"] = params
    return config


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _assemble_config(args)
        report = run_command(args.command, config)
    except UnsupportedComputationError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_json(report) if args.fmt == "json" else render_text(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line frontend.

Exit codes: 0 for success (mathematical verdicts such as "not factorial"
or "not a member" are data, not failures), 1 when an identity fails: a
verification bundle finds a broken one, or an internal check raises
ConstructionError, NotDivisible or InternalInvariantError (reported as one
"internal error:" line on stderr), 2 for input or usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .analysis import (
    FieldTag,
    column_criterion,
    gcd_criterion,
    laurent_membership,
    staircase_disjoint,
    upper_bound_member,
)
from .explore import ExplorationLimits, explore
from .laurent import LaurentPoly, ParseError, RationalFn, parse_int, parse_poly, render_poly
from .presets import INTERNAL_ERRORS, PRESETS, get_preset
from .seeds import (
    Seed,
    apply_word,
    matrix_rank,
    matrix_to_json,
    parse_matrix,
    render_matrix,
)


def _read_matrix(path: str):
    if path == "-":
        return parse_matrix(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix(fh.read())


def _parse_word(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    try:
        return tuple(parse_int(part) for part in text.split(","))
    except ValueError:
        raise ParseError(f"bad mutation word {text!r}; expected comma-separated indices", 0) from None


def _emit(payload: dict, args, human: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(human)


def _cmd_mutate(args) -> int:
    seed = Seed.initial(_read_matrix(args.matrix))
    word = _parse_word(args.word)
    out = apply_word(seed, word)
    lines = [f"word: {','.join(map(str, word)) or '(empty)'}"]
    lines += [f"y{i + 1} = {render_poly(c)}" for i, c in enumerate(out.cluster)]
    lines.append("matrix:")
    lines.append(render_matrix(out.matrix))
    payload = {
        "word": list(word),
        "cluster": [render_poly(c) for c in out.cluster],
        "matrix": matrix_to_json(out.matrix),
    }
    _emit(payload, args, "\n".join(lines))
    return 0


def _cmd_explore(args) -> int:
    seed = Seed.initial(_read_matrix(args.matrix))
    limits = ExplorationLimits(max_depth=args.max_depth, max_seeds=args.max_seeds)
    report = explore(seed, limits, quotient_permutations=args.quotient_permutations)
    data = report.to_json()
    human = [
        f"seeds found: {data['seeds_found']}",
        f"distinct variables: {len(data['variables'])}",
        f"distinct clusters: {len(data['clusters'])}",
        f"finite: {data['finite']} (frontier exhausted: {data['reason']})",
        "variables:",
    ]
    human += [f"  {v}" for v in data["variables"]]
    _emit(data, args, "\n".join(human))
    return 0


def _parse_expression(args, m: int) -> LaurentPoly | RationalFn:
    num = parse_poly(args.expr, m=m)
    if args.den:
        den = parse_poly(args.den, m=m)
        if den.is_zero:
            raise ValueError(f"denominator {args.den!r} is the zero polynomial")
        # either side may carry negative exponents, as the grammar allows
        return RationalFn.from_laurent(num) / RationalFn.from_laurent(den)
    return num


def _cmd_check_laurent(args) -> int:
    seed = Seed.initial(_read_matrix(args.matrix))
    target = apply_word(seed, _parse_word(args.word))
    expr = _parse_expression(args, seed.profile.m)
    member = laurent_membership(expr, target)
    payload = {"member": member, "expr": args.expr, "den": args.den, "word": list(target.word)}
    verdict = "in" if member else "not in"
    _emit(payload, args, f"expression is {verdict} the Laurent ring of the target cluster")
    return 0


def _cmd_factoriality(args) -> int:
    B = Seed.initial(_read_matrix(args.matrix)).matrix
    field = FieldTag.COMPLEXES if args.field == "C" else FieldTag.RATIONALS
    verdict = column_criterion(B)
    if not verdict.is_not_factorial:
        verdict = gcd_criterion(B, field)
    payload = verdict.to_json()
    payload["field"] = field.value
    payload["rank"] = matrix_rank(B)
    if verdict.is_not_factorial:
        human = f"NOT FACTORIAL ({verdict.criterion}): {verdict.justification} [rank {payload['rank']}]"
    else:
        human = f"inconclusive: {verdict.justification} [rank {payload['rank']}]"
    _emit(payload, args, human)
    return 0


def _cmd_upper_bound(args) -> int:
    seed = Seed.initial(_read_matrix(args.matrix))
    seed_y = apply_word(seed, _parse_word(args.word1))
    seed_z = apply_word(seed, _parse_word(args.word2))
    expr = _parse_expression(args, seed.profile.m)
    member = upper_bound_member(expr, seed_y, seed_z)
    payload = {
        "member": member,
        "expr": args.expr,
        "den": args.den,
        "word1": list(seed_y.word),
        "word2": list(seed_z.word),
    }
    verdict = "lies" if member else "does not lie"
    _emit(payload, args, f"expression {verdict} in the intersection of the two Laurent rings")
    return 0


def _cmd_staircase(args) -> int:
    seed = Seed.initial(_read_matrix(args.matrix))
    out, disjoint = staircase_disjoint(seed)
    payload = {
        "word": list(out.word),
        "disjoint": disjoint,
        "cluster": [render_poly(c) for c in out.cluster],
    }
    lines = [f"word: {','.join(map(str, out.word))}", f"clusters disjoint: {disjoint}"]
    lines += [f"z{i + 1} = {render_poly(c)}" for i, c in enumerate(out.cluster)]
    _emit(payload, args, "\n".join(lines))
    return 0


def _cmd_preset(args) -> int:
    preset = get_preset(args.name)
    B = preset.matrix()
    payload = {"name": preset.name, "description": preset.description, "matrix": matrix_to_json(B)}
    lines = [f"{preset.name}: {preset.description}", render_matrix(B)]
    checks = []
    if args.verify:
        checks = preset.verify()
        payload["checks"] = [dataclasses.asdict(c) for c in checks]
        lines += [f"[{'ok' if c.ok else 'FAIL'}] {c.name}" for c in checks]
    _emit(payload, args, "\n".join(lines))
    return 0 if all(c.ok for c in checks) else 1


def _cmd_verify(args) -> int:
    names = [args.name] if args.name else sorted(PRESETS)
    overall = True
    results = []
    for name in names:
        checks = get_preset(name).verify()
        overall = overall and all(c.ok for c in checks)
        results.append({"name": name, "checks": [dataclasses.asdict(c) for c in checks]})
        if not args.json:
            for c in checks:
                print(f"[{'ok' if c.ok else 'FAIL'}] {name}: {c.name}")
    if args.json:
        print(json.dumps({"ok": overall, "presets": results}, indent=2, sort_keys=True))
    return 0 if overall else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clusterkit",
        description="exact cluster-algebra engine: mutation, exploration, factoriality criteria",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        p.set_defaults(fn=fn)
        return p

    p = add("mutate", _cmd_mutate, "apply a mutation word to the initial seed of a matrix")
    p.add_argument("--matrix", required=True, help="matrix file ('-' for stdin)")
    p.add_argument("--word", default="", help="comma-separated mutation indices, e.g. 1,3")

    p = add("explore", _cmd_explore, "breadth-first exploration of the exchange graph")
    p.add_argument("--matrix", required=True)
    p.add_argument("--max-depth", type=parse_int, default=ExplorationLimits.max_depth)
    p.add_argument("--max-seeds", type=parse_int, default=ExplorationLimits.max_seeds)
    p.add_argument("--quotient-permutations", action="store_true")

    p = add("check-laurent", _cmd_check_laurent, "Laurent-ring membership against a target cluster")
    p.add_argument("--matrix", required=True)
    p.add_argument("--expr", required=True, help="expression in the initial variables")
    p.add_argument("--den", help="optional denominator polynomial")
    p.add_argument("--word", default="", help="mutation word reaching the target seed")

    p = add("factoriality", _cmd_factoriality, "run the non-factoriality criteria")
    p.add_argument("--matrix", required=True)
    p.add_argument("--field", choices=("Q", "C"), default="Q")

    p = add("upper-bound", _cmd_upper_bound, "membership in the intersection of two Laurent rings")
    p.add_argument("--matrix", required=True)
    p.add_argument("--expr", required=True)
    p.add_argument("--den")
    p.add_argument("--word1", default="")
    p.add_argument("--word2", default="")

    p = add("staircase", _cmd_staircase, "apply the word (1..n) and test cluster disjointness")
    p.add_argument("--matrix", required=True)

    p = add("preset", _cmd_preset, "load a named example seed, optionally verifying it")
    p.add_argument("--name", required=True, choices=sorted(PRESETS))
    p.add_argument("--verify", action="store_true")

    p = add("verify", _cmd_verify, "run the verification bundle of every preset")
    p.add_argument("--name", choices=sorted(PRESETS))

    return parser


# built by the first call of main, not at import, and reused by every later one
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.fn(args)
    # ParseError and InvalidSeed are ValueErrors; OSError covers a missing or unreadable file
    except (OSError, KeyError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except INTERNAL_ERRORS as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

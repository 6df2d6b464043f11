"""Turn generated ops into calls on clusterkit's public API.

prepare() does the input parsing (matrix text, Cartan rows) outside the
timed region and returns a callable for the op itself.  Every callable looks
clusterkit names up at call time, so the traced run's wrappers see the
calls.  Only names exported at the top level of clusterkit are used, plus
clusterkit.cli.main for the in-process CLI op.
"""

from __future__ import annotations

import contextlib
import io
import json

from gen import alternating_word

EXPLORE_MAX_DEPTH = 1000
EXPLORE_MAX_SEEDS = 100_000


def prepare(op: dict, ck, cli):
    """A zero-argument callable running the op and returning its observations."""
    kind = op["kind"]
    if kind == "closure":
        return _closure(ck, ck.parse_matrix(op["matrix"]), op["quotient"])
    if kind == "membership":
        return _membership(ck, ck.parse_matrix(op["matrix"]), op)
    if kind == "chain":
        return _chain(ck, op["m"])
    if kind == "staircase":
        return _staircase(ck, ck.CartanMatrix(op["cartan"]))
    if kind == "lie":
        return _lie(ck)
    if kind == "verify":
        return _cli(cli, op["argv"])
    raise ValueError(f"unknown op kind {kind!r}")


def matches(observed: dict, expect: dict) -> bool:
    return all(observed.get(key) == value for key, value in expect.items())


def _closure(ck, matrix, quotient: bool):
    def run() -> dict:
        limits = ck.ExplorationLimits(max_depth=EXPLORE_MAX_DEPTH, max_seeds=EXPLORE_MAX_SEEDS)
        report = ck.explore(ck.Seed.initial(matrix), limits, quotient_permutations=quotient)
        return {
            "variables": len(report.distinct_variables),
            "clusters": len(report.distinct_clusters),
            "finite": report.finite,
            "reason": report.frontier_exhausted_reason,
            "seeds_found": report.seeds_found,
        }

    return run


def _membership(ck, matrix, op: dict):
    k, e, expr, words = op["k"], op["e"], op["expr"], op["words"]

    def run() -> dict:
        s0 = ck.Seed.initial(matrix)
        m = matrix.profile.m

        def x(i: int):
            # x_i is entry (i - 1) % 2 of t_i
            return ck.apply_word(s0, alternating_word(i - 1)).cluster[(i - 1) % 2]

        targets = [ck.apply_word(s0, w) for w in words]
        if expr == "x":
            value = x(k)
        else:
            xk = ck.RationalFn.from_laurent(x(k))
            if expr == "inverse":
                value = ck.RationalFn.const(m, 1) / xk
            else:
                shift = 1 if expr == "next" else 2
                value = (xk**e + ck.RationalFn.const(m, shift)) / ck.RationalFn.from_laurent(x(k - 1))
        if len(targets) == 1:
            member = ck.laurent_membership(value, targets[0])
        else:
            member = ck.upper_bound_member(value, targets[0], targets[1])
        return {"member": member}

    return run


def _chain(ck, m: int):
    def run() -> dict:
        chain = ck.type_a_chain(m)
        result = ck.verify_polynomial_generators(chain.certificate, chain.disjoint_pair)
        return {**chain.identity_counts, "ok": result.ok}

    return run


def _staircase(ck, cartan):
    def run() -> dict:
        stair = ck.acyclic_staircase(cartan)
        result = ck.verify_polynomial_generators(stair.certificate, stair.disjoint_pair)
        table = ck.bfz_basis_change(cartan, 1)
        return {**stair.identity_counts, "ok": result.ok, "bfz_rows": len(table.rows)}

    return run


def _lie(ck):
    def run() -> dict:
        lie = ck.lie_preset()
        return {"stages": len(lie.stages), "disjoint": lie.disjoint}

    return run


def _cli(cli, argv: list[str]):
    def run() -> dict:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        payload = json.loads(out.getvalue())
        checks = sum(len(p["checks"]) for p in payload["presets"])
        return {"exit": code, "ok": payload["ok"], "checks": checks}

    return run

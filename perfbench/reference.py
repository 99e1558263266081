"""Records the tree optimum of every benchmark case, cross-checked
against HiGHS.

    python3 perfbench/reference.py           # recompute and compare
    python3 perfbench/reference.py --write   # also rewrite references.json

For each recorded case seed it builds the deterministic-equivalent LP
with ``treelp.build_tree_lp``, solves it with the bundled simplex and
with ``scipy.optimize.linprog`` (HiGHS), and requires the two optima to
agree within 1e-9 relative. Timed runs read only ``references.json`` and
never import scipy.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CASE_SEEDS = {"deep": (7, 9), "wide": (1, 2)}   # (default, second)


def highs_objective(lp):
    import numpy as np
    from scipy.optimize import linprog

    senses = np.array(lp.senses)
    ub = senses != "="
    sign = np.where(senses[ub] == ">=", -1.0, 1.0)
    bounds = [(None if np.isinf(lo) else lo, None if np.isinf(hi) else hi)
              for lo, hi in zip(lp.lower, lp.upper)]
    res = linprog(lp.objective,
                  A_ub=lp.rows[ub] * sign[:, None], b_ub=lp.rhs[ub] * sign,
                  A_eq=lp.rows[~ub], b_eq=lp.rhs[~ub],
                  bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS: {res.message}")
    return float(res.fun)


def compute(shape, case_seed, workdir):
    from hydrosddp.caseio import parse_case
    from hydrosddp.lp import solve
    from hydrosddp.treelp import build_tree_lp
    from perfbench import cases

    doc = cases.SHAPES[shape](case_seed)
    path = Path(workdir) / f"{shape}-{case_seed}.json"
    path.write_text(cases.dumps(doc), encoding="utf-8")
    parsed = parse_case(str(path))
    lp = build_tree_lp(parsed.system, parsed.lattice, parsed.risk)
    optimum = solve(lp).objective
    highs = highs_objective(lp)
    return {
        "optimum": optimum,
        "highs_optimum": highs,
        "rel_diff": abs(optimum - highs) / abs(highs),
        "tree_lp": [lp.num_rows, lp.num_vars],
        "case_sha256": cases.digest(doc),
        "fingerprint": parsed.fingerprint,
    }


def main(argv):
    import tempfile

    parser = argparse.ArgumentParser(prog="perfbench/reference.py")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    out, ok = {}, True
    with tempfile.TemporaryDirectory() as tmp:
        for shape, seeds in CASE_SEEDS.items():
            out[shape] = {}
            for seed in seeds:
                ref = compute(shape, seed, tmp)
                out[shape][str(seed)] = ref
                ok &= ref["rel_diff"] <= 1e-9
                print(f"{shape} seed {seed}: simplex {ref['optimum']!r} "
                      f"highs {ref['highs_optimum']!r} "
                      f"rel diff {ref['rel_diff']:.2e}", flush=True)
    if args.write:
        path = Path(__file__).resolve().parent / "references.json"
        path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

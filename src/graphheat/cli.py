"""Command-line harness: graph generation, verification suites, and kernel
dumps, all reproducible from (graph file, flags, seed).

Exit codes: 0 all checks pass, 1 a check failed, 2 usage/format/hypothesis
error.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import zlib
from statistics import NormalDist

import numpy as np

from . import estimates, reports, semigroup, walk
from .graph import (FAMILIES, MEASURE_MODES, GraphFormatError, generate,
                    load_graph, save_graph)
from .calculus import laplacian, sqrt_identity_residual

SUITES = ("gradient", "heat-gradient", "previous", "harnack",
          "kernel-bounds", "volume")

DEFAULT_TIMES = (0.1, 1.0, 10.0)
DEFAULT_N_FUNCS = 20
MC_ALPHA = 1e-3  # family-wise false-alarm rate of the kernel --mc verdict


_POSITIVE = (float, lambda v: 0 < v < math.inf, "a finite positive number")
_COUNT = (int, lambda v: v >= 1, "an integer of at least 1")
# numeric flag -> (converter, test, what a good value is); checked first
FLAG_RULES = {
    "tol": _POSITIVE,
    "mc": (int, lambda v: v >= 0, "a nonnegative integer"),
    "n_funcs": _COUNT,
    "seed": (int, lambda v: v >= 0, "a nonnegative integer"),
    "n": _COUNT, "rows": _COUNT, "cols": _COUNT,
    "p": (float, lambda v: 0 < v <= 1, "a number in (0, 1]"),
    "wmin": _POSITIVE, "wmax": _POSITIVE,
}


def _check_flags(args) -> None:
    """Parse --t into args.times and convert and range-check the numeric
    flags; ValueError names the first bad value."""
    if hasattr(args, "t"):
        try:
            args.times = tuple(map(semigroup.check_time, args.t.split(",")))
        except ValueError as exc:
            raise ValueError(f"--t {args.t!r}: {exc}") from None
    for name, (convert, ok, want) in FLAG_RULES.items():
        text = getattr(args, name, None)
        if text is None:
            continue
        try:
            value = convert(text)
            good = ok(value)
        except ValueError:
            good = False
        if not good:
            raise ValueError(f"--{name.replace('_', '-')} must be {want}, got {text!r}")
        setattr(args, name, value)


# -- generate ------------------------------------------------------------------

def cmd_generate(args) -> int:
    try:
        g = generate(args.family, n=args.n, rows=args.rows, cols=args.cols,
                     p=args.p, w_lo=args.wmin, w_hi=args.wmax,
                     measure_mode=args.measure, seed=args.seed)
    except (ValueError, GraphFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    save_graph(args.out, g)
    print(f"wrote {args.out}: {g.n} vertices, {g.num_edges} edges, "
          f"measure={g.measure_mode}")
    return 0


# -- verify --------------------------------------------------------------------

def _run_suite(g, suite, times, seed, tol, n_funcs):
    """One Reports per verifier call, in call order."""
    rng = np.random.default_rng((seed, zlib.crc32(suite.encode())))  # per suite
    pos_times = [t for t in times if t > 0]
    if suite == "volume":
        return [estimates.verify_volume_growth(g, pos_times)]
    if suite == "kernel-bounds":
        out = []
        for t in pos_times:
            kernel = semigroup.heat_kernel(g, t, tol=tol)
            out += [verify(g, t, kernel=kernel) for verify in (
                estimates.verify_kernel_upper, estimates.verify_kernel_lower,
                estimates.verify_diagonal_lower)]
        return out
    # the function-sampling suites: one batch, one function per column
    U = np.stack([estimates.sample_positive_function(g, rng)
                  for _ in range(n_funcs)], axis=1)
    if suite == "gradient":
        res = np.max(np.abs(sqrt_identity_residual(g, U)), axis=0)
        budget = 1e-12 * np.maximum(1.0, np.max(np.abs(laplacian(g, U)), axis=0))
        return [estimates.gradient_estimate(g, U), reports.site_reports(
            "sqrt_identity", ["max_residual"] * n_funcs, res, budget, 0.0, 0.0)]
    if suite == "heat-gradient":
        return [estimates.heat_gradient_estimate(g, U, pos_times)]
    if suite == "previous":
        return [estimates.prior_gradient_estimate(g, U)]
    return [estimates.verify_harnack(g, U, pos_times,  # harnack
                                     seed=int(rng.integers(2**32)))]


def _unmet(g, suite, times):
    """Why the suite cannot run on g at these times, or None."""
    need = {"heat-gradient": 1, "harnack": 2, "kernel-bounds": 1, "volume": 1}.get(suite, 0)
    if len({t for t in times if t > 0}) < need:
        return f"suite {suite!r} needs {need} distinct positive time(s) in --t"
    try:
        if suite in ("kernel-bounds", "volume"):
            estimates._require_symmetric(g, f"suite {suite!r}")
            estimates._require_mu_deg(g, f"suite {suite!r}")
    except estimates.HypothesisError as exc:
        return str(exc)
    return None


def cmd_verify(args) -> int:
    g = args.loaded_graph
    names = args.suite.split(",")
    skip_gated = "all" in names
    if skip_gated:
        names = list(SUITES)
    bad = [s for s in names if s not in SUITES]
    if bad:
        print(f"error: unknown suite(s) {bad}", file=sys.stderr)
        return 2
    try:
        g.constants()  # an edgeless graph has none
        # suite -> why it cannot run; only --suite all skips instead of failing
        skipped = {s: why for s in names if (why := _unmet(g, s, args.times))}
        if skipped and not skip_gated:
            raise ValueError(next(iter(skipped.values())))
    except ValueError as exc:  # GraphFormatError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    created = bool(args.out) and not os.path.exists(args.out)
    if args.out:
        open(args.out, "a").close()  # an unwritable --out fails before any work
    try:
        # one Reports per verifier call; the whole run is never concatenated
        records = [r for suite in names if suite not in skipped for r in _run_suite(
            g, suite, args.times, args.seed, args.tol, args.n_funcs)]
        config = {"graph": args.graph, "suites": names, "skipped": list(skipped),
                  "times": list(args.times), "seed": args.seed, "tol": args.tol,
                  "n_funcs": args.n_funcs}
        summary = reports.summarize(records)
        if args.out:
            if args.format == "json":
                reports.write_jsonl(args.out, records, config, summary)
            else:
                reports.write_csv(args.out, records)
    except BaseException:
        if created:  # a crashed run leaves --out as it found it
            os.remove(args.out)
        raise
    ok = True
    for check, s in sorted(summary.items()):
        status = "pass" if s["n_pass"] == s["n"] else "FAIL"
        print(f"{check}: {s['n_pass']}/{s['n']} {status} "
              f"(min slack {s['min_slack']:.3e})")
        ok = ok and s["n_pass"] == s["n"]
    for suite, why in skipped.items():
        print(f"{suite}: skipped ({why})")
    if not ok:
        r = next(r for r in records if not r.passed.all())
        i = int(np.argmin(r.passed))  # the first False
        print(f"first failure: {r.check[i]} at {r.site[i:i + 1].tolist()[0]}",
              file=sys.stderr)
        return 1
    return 0


# -- kernel --------------------------------------------------------------------

def cmd_kernel(args) -> int:
    g = args.loaded_graph
    # Bonferroni split of MC_ALPHA over every (source, target, time) cell
    cells = max(g.n**2 * len(args.times), 1)
    z = NormalDist().inv_cdf(1.0 - MC_ALPHA / (2 * cells))
    rows = []
    consistent = True
    for t in args.times:
        kernel = semigroup.heat_kernel(g, t, tol=args.tol)
        for i, x in enumerate(g.ids):
            p = kernel.matrix[i].tolist()
            if not args.mc:
                rows.extend([t, x, y, p[j]] for j, y in enumerate(g.ids))
                continue
            sub_seed = args.seed ^ zlib.crc32(f"{t}:{x}".encode())
            est = walk.simulate(g, x, t, args.mc, seed=sub_seed)
            flags = est.consistent_with(kernel.matrix[i], n_sigma=z)
            consistent = consistent and bool(flags.all())
            p_hat, hw = est.p_hat.tolist(), est.half_width.tolist()
            rows.extend([t, x, y, p[j], p_hat[j], hw[j], args.mc, sub_seed]
                        for j, y in enumerate(g.ids))
    header = ["t", "x", "y", "p"]
    if args.mc:
        header += ["p_hat", "half_width", "n_walks", "seed"]
    out = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        w = csv.writer(out)
        w.writerow(header)
        w.writerows(rows)
    finally:
        if args.out:
            out.close()
    if args.mc:
        verdict = "consistent" if consistent else "INCONSISTENT"
        print(f"monte-carlo vs series: {verdict} (family-wise alpha "
              f"{MC_ALPHA:g}, {z:.2f} sigma per cell)", file=sys.stderr)
        return 0 if consistent else 1
    return 0


# -- entry point -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="graphheat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a graph JSON file")
    p_gen.add_argument("--family", required=True, choices=FAMILIES)
    p_gen.add_argument("--n")
    p_gen.add_argument("--rows")
    p_gen.add_argument("--cols")
    p_gen.add_argument("--p")
    p_gen.add_argument("--wmin", default=1.0)
    p_gen.add_argument("--wmax", default=1.0)
    p_gen.add_argument("--measure", default="unit", choices=MEASURE_MODES)
    p_gen.add_argument("--seed", default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_generate)

    p_ver = sub.add_parser("verify", help="run verification suites")
    p_ver.add_argument("--graph", required=True)
    p_ver.add_argument("--suite", default="all",
                       help="comma list of " + ",".join(SUITES) + " or 'all'")
    p_ver.add_argument("--t", default=",".join(str(t) for t in DEFAULT_TIMES))
    p_ver.add_argument("--seed", default=0)
    p_ver.add_argument("--tol", default=1e-10)
    p_ver.add_argument("--n-funcs", default=DEFAULT_N_FUNCS)
    p_ver.add_argument("--out")
    p_ver.add_argument("--format", default="json", choices=("json", "csv"))
    p_ver.set_defaults(func=cmd_verify)

    p_ker = sub.add_parser("kernel", help="dump heat kernel values as CSV")
    p_ker.add_argument("--graph", required=True)
    p_ker.add_argument("--t", default="1.0")
    p_ker.add_argument("--tol", default=1e-10)
    p_ker.add_argument("--mc", default=0,
                       help="append Monte Carlo estimates with this many walks")
    p_ker.add_argument("--seed", default=0)
    p_ker.add_argument("--out")
    p_ker.set_defaults(func=cmd_kernel)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        if args.command != "generate":
            args.loaded_graph = load_graph(args.graph)
    except (ValueError, OSError) as exc:  # GraphFormatError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except OSError as exc:  # e.g. an unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

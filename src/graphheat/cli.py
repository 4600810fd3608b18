"""Command-line harness: graph generation, verification suites, and kernel
dumps, all reproducible from (graph file, flags, seed).

Exit codes: 0 all checks pass, 1 a check failed, 2 usage/format/hypothesis
error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import os
import pickle
import shutil
import stat
import sys
import tempfile
import zlib
from itertools import chain
from statistics import NormalDist

import numpy as np

from . import estimates, reports, semigroup, walk
from .graph import (FAMILIES, MEASURE_MODES, GraphFormatError, generate,
                    load_graph, save_graph)
from .calculus import laplacian, sqrt_identity_residual

SUITES = ("gradient", "heat-gradient", "previous", "harnack",
          "kernel-bounds", "volume")
LONGEST_FIRST = ("kernel-bounds", "harnack", "heat-gradient", "previous",
                 "gradient", "volume")  # the order forked units start in
NEEDS_HOPS = ("harnack", "kernel-bounds", "volume")
POOL_MIN_VERTICES = 64  # on a smaller graph a fork costs about what the suites take

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
    "seed": (int, lambda v: 0 <= v < 2**128, "an integer in [0, 2**128)"),  # Philox's key
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
    with _Staged(args.out) as (_, path):
        save_graph(path, g)
    print(f"wrote {args.out}: {g.n} vertices, {g.num_edges} edges, "
          f"measure={g.measure_mode}")
    return 0


# -- verify --------------------------------------------------------------------

def _run_suite(g, suite, times, seed, tol, n_funcs):
    """The Reports of each verifier call (of each function block, for harnack
    and heat-gradient), in call order, each made when asked for."""
    pos_times = [t for t in times if t > 0]
    if suite == "volume":
        yield estimates.verify_volume_growth(g, pos_times)
    elif suite == "kernel-bounds":
        for t in pos_times:  # one kernel alive at a time
            kernel = semigroup.heat_kernel(g, t, tol=tol)
            for verify in (estimates.verify_kernel_upper, estimates.verify_kernel_lower,
                           estimates.verify_diagonal_lower):
                yield verify(g, t, kernel=kernel)
            del kernel
    else:  # the function-sampling suites: one batch, one function per column
        rng = np.random.default_rng((seed, zlib.crc32(suite.encode())))  # per suite
        U = np.stack([estimates.sample_positive_function(g, rng)
                      for _ in range(n_funcs)], axis=1)
        if suite == "gradient":
            yield estimates.gradient_estimate(g, U)
            res = np.max(np.abs(sqrt_identity_residual(g, U)), axis=0)
            budget = 1e-12 * np.maximum(1.0, np.max(np.abs(laplacian(g, U)), axis=0))
            yield reports.site_reports("sqrt_identity", ["max_residual"] * n_funcs,
                                       res, budget, 0.0, 0.0)
        elif suite == "heat-gradient":
            yield from estimates._heat_gradient_blocks(g, U, pos_times)
        elif suite == "previous":
            yield estimates.prior_gradient_estimate(g, U)
        else:  # harnack
            yield from estimates._harnack_blocks(g, U, pos_times, seed=int(rng.integers(2**32)))


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


class _Staged:
    """(target, stage) of a file written to out ((None, None) without out), as a
    context. stage is made empty first, so an unwritable out fails before any
    work; on exit os.replace moves it onto target, or it is removed if the block
    raised. A regular or new file (a symlink's target) is staged in a hidden
    sibling with its mode; a pipe, a device, or the stdout or stderr file is out itself."""

    def __init__(self, out):
        self.target = self.stage = out or None
        if not out:
            return
        try:
            st = os.stat(out)  # through any symlinks
        except FileNotFoundError:
            st = None
        if st:
            open(out, "a").close()  # out itself must be writable
            if not stat.S_ISREG(st.st_mode) or any(_is_fd(st, fd) for fd in (1, 2)):
                return
        self.target = os.path.realpath(out)
        self.stage = os.path.join(os.path.dirname(self.target),
                                  f".{os.path.basename(self.target)}.{os.urandom(4).hex()}")
        open(self.stage, "x").close()
        try:
            if st:
                shutil.copymode(self.target, self.stage)
        except BaseException:
            os.remove(self.stage)
            raise

    def __enter__(self):
        return self.target, self.stage

    def __exit__(self, kind, *_):
        if self.stage != self.target:
            with contextlib.ExitStack() as undo:
                undo.callback(os.remove, self.stage)  # unless the move is made
                if kind is None:
                    os.replace(self.stage, self.target)
                    undo.pop_all()


def _is_fd(st, fd) -> bool:
    try:
        return os.path.samestat(st, os.fstat(fd))
    except OSError:  # fd is closed
        return False


def _units(names, times):
    """(suite, times) of each unit of work, in report order: a suite, or for
    kernel-bounds one positive time, whose records _run_suite yields alone."""
    kernel = [("kernel-bounds", (t,)) for t in times if t > 0]
    return [u for s in names for u in (kernel if s == "kernel-bounds" else [(s, times)])]


def _unit_records(g, args, unit, failure):
    """The Reports of one unit in turn; the first failing row's text is
    appended to the list failure if it is empty."""
    for r in _run_suite(g, unit[0], unit[1], args.seed, args.tol, args.n_funcs):
        if not failure and not r.passed.all():
            i = int(np.argmin(r.passed))  # the first False
            failure.append(f"{r.check[i]} at {r.site[i:i + 1].tolist()[0]}")
        yield r
        del r  # let go of a record before the next one is made


def _workers(g, units) -> int:
    """Units to run at once in forked children: one per usable CPU, at most one
    per unit; 1 (inline) on a small graph or without os.sched_getaffinity."""
    if g.n < POOL_MIN_VERTICES or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), len(units))


class UnitError(RuntimeError):
    """A forked unit ended without a result; or the traceback of one that raised."""


def _run_unit(g, args, unit, part):
    """(summary, [first failure] or []) of unit, its rows written to part if any."""
    failure = []
    records = _unit_records(g, args, unit, failure)
    if part is None:
        return reports.summarize(records), failure
    with reports.open_report(part.fileno()) as fh:
        write_rows = reports.write_jsonl_rows if args.format == "json" else reports.write_csv_rows
        return write_rows(fh, records), failure


def _fork_unit(g, args, unit, part):
    """(pid, pipe) of a child forked to run unit; it sends (its _run_unit result,
    None) or (what it raised, the traceback text), pickled, and ends."""
    r, w = os.pipe()
    if pid := os.fork():
        os.close(w)
        return pid, r
    try:  # the child, which never returns
        import signal
        os.close(r)  # so a write fails, rather than waits, once the parent is gone
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        try:
            sent = _run_unit(g, args, unit, part), None
        except BaseException as exc:
            import traceback
            sent = exc, "".join(traceback.format_exception(exc))
        try:
            pickle.loads(data := pickle.dumps(sent))
        except Exception:  # what the parent could not rebuild goes as text
            data = pickle.dumps((UnitError(f"unit {unit} raised what cannot be sent"), sent[1]))
        with open(w, "wb") as fh:
            fh.write(data)
        os._exit(0)
    finally:
        os._exit(1)


def _forked_parts(g, args, units, parts, workers, failure):
    """Each unit's reports.Part in report order, each unit run in a fresh child
    (so a process holds one unit's memory), at most `workers` at once, longest
    first: a kernel at a later time takes more series terms. failure gets the
    first failing row of the first unit with one. A unit raises as soon as it
    ends; then, as on close, the running children are ended and reaped."""
    import select, signal  # only here, as the inline path needs neither
    order = iter(sorted(range(len(units)), key=lambda i: (LONGEST_FIRST.index(units[i][0]),
                                                          -max(units[i][1]))))
    running, done, poll = {}, {}, select.poll()  # pipe -> (unit index, pid)
    try:
        for i in range(len(units)):
            while True:  # a free slot is refilled before a part is yielded
                while len(running) < workers and (j := next(order, None)) is not None:
                    pid, r = _fork_unit(g, args, units[j], parts and parts[j])
                    running[r] = j, pid
                    poll.register(r, select.POLLIN)
                if i in done:
                    break
                for r, _ in poll.poll():  # a child that sends, or ends
                    poll.unregister(r)
                    with open(r, "rb", closefd=False) as fh:  # to EOF, so the child can end
                        data = fh.read()
                    j, pid = running.pop(r)
                    os.close(r)
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    if code:
                        how = f"by signal {-code}" if code < 0 else f"with exit status {code}"
                        raise UnitError(f"unit {units[j]} ended {how} without a result")
                    done[j], text = pickle.loads(data)
                    if text:
                        raise done[j] from UnitError(text)
            summary, unit_failure = done.pop(i)
            if not failure:
                failure += unit_failure
            yield reports.Part(parts and parts[i], summary)
    finally:
        for r, (_, pid) in running.items():
            os.kill(pid, signal.SIGTERM)
            os.close(r)
            os.waitpid(pid, 0)


def cmd_verify(args) -> int:
    g = args.loaded_graph
    names = args.suite.split(",")
    if skip_gated := "all" in names:
        names = list(SUITES)
    if bad := [s for s in names if s not in SUITES]:
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
    units = _units([s for s in names if s not in skipped], args.times)
    failure, parts, forked = [], None, None
    with _Staged(args.out) as (out, path):
        try:
            if any(suite in NEEDS_HOPS for suite, _ in units):
                g.distance_matrix()  # once, before any fork
            workers = _workers(g, units)
            if workers > 1:
                if out:
                    parts = [tempfile.TemporaryFile(dir=os.path.dirname(path) if path != out else None)
                             for _ in units]
                records = forked = _forked_parts(g, args, units, parts, workers, failure)
            else:
                # chained: a generator expression would hold a record while the next is made
                records = chain.from_iterable(_unit_records(g, args, unit, failure) for unit in units)
            if not out:
                summary = reports.summarize(records)
            elif args.format == "json":
                config = {"graph": args.graph, "suites": names, "skipped": list(skipped),
                          "times": list(args.times), "seed": args.seed, "tol": args.tol,
                          "n_funcs": args.n_funcs}
                summary = reports.write_jsonl(path, records, config)
            else:
                summary = reports.write_csv(path, records)
        finally:
            if forked:  # ends the children of a run stopped early
                forked.close()
            for part in parts or ():
                part.close()
    for check, s in sorted(summary.items()):
        print(f"{check}: {s['n_pass']}/{s['n']} {'pass' if s['n_pass'] == s['n'] else 'FAIL'} "
              f"(min slack {s['min_slack']:.3e})")
    for suite, why in skipped.items():
        print(f"{suite}: skipped ({why})")
    if failure:  # a failing row, so a check with n_pass < n
        print(f"first failure: {failure[0]}", file=sys.stderr)
        return 1
    return 0


# -- kernel --------------------------------------------------------------------

def cmd_kernel(args) -> int:
    g = args.loaded_graph
    # Bonferroni split of MC_ALPHA over every (source, target, time) cell
    cells = max(g.n**2 * len(args.times), 1)
    z = NormalDist().inv_cdf(1.0 - MC_ALPHA / (2 * cells))
    consistent = True
    header = ["t", "x", "y", "p"] + ["p_hat", "half_width", "n_walks", "seed"] * bool(args.mc)
    # each source's rows are written as they are made
    with _Staged(args.out) as (_, path), open(path, "w", newline="", encoding="utf-8") \
            if path else contextlib.nullcontext(sys.stdout) as out:
        w = csv.writer(out)
        w.writerow(header)
        for t in args.times:
            kernel = semigroup.heat_kernel(g, t, tol=args.tol)
            for i, x in enumerate(g.ids):
                p = kernel.matrix[i].tolist()
                if not args.mc:
                    w.writerows([t, x, y, p[j]] for j, y in enumerate(g.ids))
                    continue
                sub_seed = args.seed ^ zlib.crc32(f"{t}:{x}".encode())
                est = walk.simulate(g, x, t, args.mc, seed=sub_seed)
                flags = est.consistent_with(kernel.matrix[i], n_sigma=z)
                consistent = consistent and bool(flags.all())
                p_hat, hw = est.p_hat.tolist(), est.half_width.tolist()
                w.writerows([t, x, y, p[j], p_hat[j], hw[j], args.mc, sub_seed]
                            for j, y in enumerate(g.ids))
    if args.mc:
        verdict = "consistent" if consistent else "INCONSISTENT"
        print(f"monte-carlo vs series: {verdict} (family-wise alpha "
              f"{MC_ALPHA:g}, {z:.2f} sigma per cell)", file=sys.stderr)
    return 0 if consistent else 1


# -- entry point -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="graphheat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a graph JSON file")
    p_gen.add_argument("--family", required=True, choices=FAMILIES)
    for flag in ("--n", "--rows", "--cols", "--p"):
        p_gen.add_argument(flag)
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

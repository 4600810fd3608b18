"""Correctness gates on the files the CLI writes.

The kernel gate imports numpy and scipy, so the benchmark runs it in a child
process:

    PYTHONPATH=src python3 perfbench/gates.py KERNEL.csv GRAPH.json N_WALKS

Each gate returns ``(sha256 hex digest, items checked, errors)``, where the
items are BoundReports for a verify report and walks for a kernel CSV; an
empty error list means the output is correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys

# family-wise false-alarm rate of the Monte Carlo test, Bonferroni-split
# over the sources; at most this share of correct runs is refused
MC_ALPHA = 1e-3
# cells with fewer expected walks are pooled into one chi-square bin
MC_MIN_EXPECTED = 5.0
ORACLE_TOL = 1e-9


def check_verify_report(path):
    """JSONL report: a summary footer in which every check passes, and one
    line per report that the footer counts."""
    digest = hashlib.sha256()
    lines = 0
    last = b""
    with open(path, "rb") as fh:
        for line in fh:
            digest.update(line)
            lines += 1
            last = line
    errors = []
    try:
        summary = json.loads(last)["summary"]
    except (ValueError, KeyError, TypeError):
        return digest.hexdigest(), 0, ["report has no summary footer"]
    n = sum(s["n"] for s in summary.values())
    for check, s in sorted(summary.items()):
        if s["n_pass"] != s["n"]:
            errors.append(f"{check}: {s['n_pass']}/{s['n']} pass")
    if n == 0:
        errors.append("report holds no checks")
    if lines != n + 2:  # config header and summary footer
        errors.append(f"footer counts {n} reports, file has {lines - 2}")
    return digest.hexdigest(), n, errors


def _chi2_pvalue(counts, expected):
    from scipy.stats import chi2

    obs, exp = [], []
    pooled_obs = pooled_exp = 0.0
    for o, e in zip(counts, expected):
        if e >= MC_MIN_EXPECTED:
            obs.append(o)
            exp.append(e)
        else:
            pooled_obs += o
            pooled_exp += e
    if pooled_exp == 0:
        if pooled_obs > 0:
            return 0.0  # walks ended where the kernel is exactly zero
    elif pooled_exp >= MC_MIN_EXPECTED or not exp:
        obs.append(pooled_obs)
        exp.append(pooled_exp)
    else:
        # a pooled bin still too small for the chi-square approximation
        # joins the smallest regular bin
        k = exp.index(min(exp))
        obs[k] += pooled_obs
        exp[k] += pooled_exp
    stat = sum((o - e) ** 2 / e for o, e in zip(obs, exp))
    return float(chi2.sf(stat, len(obs) - 1)) if len(obs) > 1 else 1.0


def check_kernel_csv(path, graph_path, n_walks):
    """Kernel CSV with a Monte Carlo column: the series column matches
    `dense_oracle`, and every source's walk counts pass a chi-square
    goodness-of-fit test against the oracle at MC_ALPHA / (number of
    sources)."""
    from graphheat import dense_oracle, load_graph

    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    g = load_graph(graph_path)
    rows = list(csv.reader(raw.decode("utf-8").splitlines()))
    header = ["t", "x", "y", "p", "p_hat", "half_width", "n_walks", "seed"]
    if not rows or rows[0] != header:
        return digest, 0, ["kernel CSV header is wrong"]
    rows = rows[1:]
    by_source = {}
    errors = []
    oracles = {}
    try:
        for t, x, y, p, p_hat, _, walks, _ in rows:
            t = float(t)
            if t not in oracles:
                oracles[t] = dense_oracle(g, t)
            exact = oracles[t].value(x, y)
            if not abs(float(p) - exact) <= ORACLE_TOL:
                errors.append(f"p({t}, {x}, {y}) = {p}, oracle {exact!r}")
            if int(walks) != n_walks:
                errors.append(f"row ({t}, {x}, {y}) used {walks} walks")
            mu = g.mu[g.index[y]]
            count = float(p_hat) * n_walks * mu
            if abs(count - round(count)) > 1e-6:
                errors.append(f"p_hat({t}, {x}, {y}) is not a walk count")
            cell = by_source.setdefault((t, x), ([], []))
            cell[0].append(round(count))
            cell[1].append(n_walks * exact * mu)
    except (ValueError, KeyError) as exc:
        return digest, 0, [f"malformed kernel CSV: {exc}"]
    if len(rows) != len(oracles) * g.n * g.n:
        errors.append(f"{len(rows)} rows, expected {len(oracles) * g.n * g.n}")
    threshold = MC_ALPHA / max(len(by_source), 1)
    for (t, x), (counts, expected) in by_source.items():
        if sum(counts) != n_walks:
            errors.append(f"source {x} at t={t}: {sum(counts)} walks ended")
            continue
        p_value = _chi2_pvalue(counts, expected)
        if not p_value >= threshold:
            errors.append(f"source {x} at t={t}: chi-square p={p_value:.3g} "
                          f"< {threshold:.3g}")
    return digest, n_walks * len(by_source), errors[:20]


if __name__ == "__main__":
    path, graph_path, n_walks = sys.argv[1:]
    print(json.dumps(check_kernel_csv(path, graph_path, int(n_walks))))

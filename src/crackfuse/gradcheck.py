"""Finite-difference validation of analytic vector-Jacobian products.

The op under test is reduced to a scalar through a fixed random projection
u: s(inputs) = <u, f(inputs)>. The analytic gradient of s is vjp(u); the
numeric gradient is central differences with step h = cbrt(eps) * scale per
coordinate. Relative error uses max(1, |analytic|, |numeric|) as denominator
so near-zero gradients are judged on absolute error.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .trees import tree_flatten, tree_unflatten

_FD_STEP = float(np.finfo(np.float64).eps) ** (1.0 / 3.0)


@dataclass
class InputCheck:
    name: str
    max_rel_err: float
    n_checked: int


@dataclass
class GradCheckReport:
    op_name: str
    tol: float
    max_rel_err: float
    inputs: list[InputCheck] = field(default_factory=list)
    passed: bool = False
    message: str = ""

    def __str__(self):
        flag = "PASS" if self.passed else "FAIL"
        return f"[{flag}] {self.op_name}: max rel err {self.max_rel_err:.3e} (tol {self.tol:.1e})"


def _as_tree(out):
    """out as a weight tree; a bare scalar (a loss) is one unnamed leaf."""
    return out if tree_flatten(out) else np.asarray(out)


def grad_check(fn, inputs, tol=1e-5, seed=0, max_entries_per_input=None, name="op"):
    """Compare fn's analytic vjp against central finite differences.

    fn(*inputs) must return (y, vjp) with vjp(u) giving one gradient per
    input, in order. Each input is a float array or a weight tree of them
    (a dataclass or list, see trees), and its gradient has the same leaf
    names, as a tree or a flat dict; y may be an array, a tree or a scalar.
    Every leaf is checked under its dotted name, the input's position first
    ("1.b", "1.scans.0.a_log"). For large leaves,
    max_entries_per_input caps how many coordinates are perturbed (chosen
    by a fixed-seed draw, so the check is deterministic).
    """
    # float64 copies, so the caller's arrays stay untouched and a tied tree
    # like [p, p, p, p] is perturbed one leaf at a time
    inputs = list(inputs)
    inputs = tree_unflatten(inputs, {k: np.array(a, dtype=np.float64)
                                     for k, a in tree_flatten(inputs).items()})
    report = GradCheckReport(op_name=name, tol=float(tol), max_rel_err=np.inf)

    y, vjp = fn(*inputs)
    y = _as_tree(y)
    rng = np.random.default_rng(seed)
    u = tree_unflatten(y, {k: rng.standard_normal(a.shape) for k, a in tree_flatten(y).items()})
    u_leaves = list(tree_flatten(u).values())
    analytic = vjp(u)
    if len(analytic) != len(inputs):
        report.message = f"vjp returned {len(analytic)} gradients for {len(inputs)} inputs"
        return report
    grads = tree_flatten(list(analytic))
    for g in grads.values():
        if not np.all(np.isfinite(g)):
            report.message = "non-finite analytic gradient"
            return report

    def scalar():
        out = tree_flatten(_as_tree(fn(*inputs)[0])).values()
        return sum(float(np.sum(ui * o)) for ui, o in zip(u_leaves, out))

    pick = np.random.default_rng(seed + 1)
    worst = 0.0
    for label, x in tree_flatten(inputs).items():
        if label not in grads:
            report.message = f"no gradient for {label}"
            return report
        g = np.asarray(grads[label], dtype=np.float64)
        if g.shape != x.shape:
            report.message = f"gradient shape {g.shape} != input shape {x.shape} for {label}"
            return report
        size = x.size
        if size == 0:
            report.inputs.append(InputCheck(label, 0.0, 0))
            continue
        if max_entries_per_input is not None and size > max_entries_per_input:
            entries = np.sort(pick.choice(size, size=max_entries_per_input, replace=False))
        else:
            entries = np.arange(size)
        flat = x.reshape(-1)
        gflat = g.reshape(-1)
        max_err = 0.0
        for j in entries:
            h = _FD_STEP * max(1.0, abs(flat[j]))
            orig = flat[j]
            flat[j] = orig + h
            sp = scalar()
            flat[j] = orig - h
            sm = scalar()
            flat[j] = orig
            num = (sp - sm) / (2.0 * h)
            if not np.isfinite(num):
                report.message = f"non-finite numeric gradient at {label}[{j}]"
                report.inputs.append(InputCheck(label, np.inf, len(entries)))
                return report
            err = abs(gflat[j] - num) / max(1.0, abs(gflat[j]), abs(num))
            max_err = max(max_err, err)
        worst = max(worst, max_err)
        report.inputs.append(InputCheck(label, max_err, len(entries)))

    report.max_rel_err = worst
    report.passed = worst <= tol
    return report

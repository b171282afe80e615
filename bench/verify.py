"""Untimed output checker.  Each workload's output is checked through a
route other than the one that produced it:

normalize-mix  phi_n tables against the PDE fixed point `oracle_phi`;
               psi_n tables by `compose_check` against the oracle's phi
               (with every phi component that reaches the y <= N_MAX box).
borel-mix      phihat_n tables against borel(to_z_coeffs(phi_n)), phi_n
               from the oracle at x-order zeta_order + 1; the partial sum
               is re-evaluated exactly.
check-warm     exit code 0 and every report row `ok`, for every suite.

Reference values are computed once per field and kept for the run.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from mouldcalc import cli
from mouldcalc.borel import borel
from mouldcalc.normalisation import (compose_check, components_needed,
                                     oracle_phi)
from mouldcalc.saddlenode import PhiSeries, SaddleNodeField
from mouldcalc.scalars import CQ
from mouldcalc.series import TruncatedSeries, to_z_coeffs

import workloads
from workloads import N_MAX, X_ORDER, ZETA_ORDER


def _load(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _coeffs(doc) -> list:
    return [CQ(Fraction(c["re"]), Fraction(c["im"])) for c in doc["coeffs"]]


class Verifier:
    """check(index, code, out_dir) -> None when the job's output is right,
    else a one-line reason."""

    def __init__(self, workload: str, specs: list):
        self.workload = workload
        self.fields = [SaddleNodeField(dict(s.letters)) for s in specs]
        self._reference = {}
        self._verified_psi = {}

    def check(self, index: int, code, out_dir):
        if code != 0:
            return f"exit code {code}"
        try:
            if self.workload == "normalize-mix":
                return self._check_normalize(index, out_dir)
            if self.workload == "borel-mix":
                return self._check_borel(index, out_dir)
            return self._check_report(out_dir)
        except (OSError, ValueError, KeyError, TypeError, IndexError,
                ZeroDivisionError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"

    def _ref(self, index):
        ref = self._reference.get(index)
        if ref is None:
            field = self.fields[index]
            if self.workload == "normalize-mix":
                top = max(N_MAX, components_needed(field, X_ORDER, N_MAX))
                ref = oracle_phi(field, top, X_ORDER)
            else:
                phi = oracle_phi(field, N_MAX, ZETA_ORDER + 1)
                ref = [borel(to_z_coeffs(phi.component(n)))
                       for n in range(N_MAX + 1)]
            self._reference[index] = ref
        return ref

    def _check_normalize(self, index, out_dir):
        oracle = self._ref(index)
        psi = {}
        for n in range(N_MAX + 1):
            doc = _load(os.path.join(out_dir, f"phi_{n}.json"))
            if doc["n"] != n or doc["x_order"] != X_ORDER:
                return f"phi_{n}: wrong header"
            if _coeffs(doc) != list(oracle.component(n).coeffs):
                return f"phi_{n} differs from the PDE oracle"
            doc = _load(os.path.join(out_dir, f"psi_{n}.json"))
            if doc["n"] != n or doc["x_order"] != X_ORDER:
                return f"psi_{n}: wrong header"
            psi[n] = tuple(_coeffs(doc))
        key = tuple(psi[n] for n in range(N_MAX + 1))
        if self._verified_psi.get(index) != key:
            inverse = PhiSeries({n: TruncatedSeries(c, X_ORDER)
                                 for n, c in psi.items()}, X_ORDER)
            if not compose_check(oracle, inverse, X_ORDER, N_MAX).is_zero():
                return "phi(x, psi(x, y)) != y"
            self._verified_psi[index] = key
        return None

    def _check_borel(self, index, out_dir):
        point = Fraction(workloads.EVAL_POINT)
        for n, ref in enumerate(self._ref(index)):
            doc = _load(os.path.join(out_dir, f"phihat_{n}.json"))
            if doc["n"] != n or doc["zeta_order"] != ZETA_ORDER:
                return f"phihat_{n}: wrong header"
            coeffs = _coeffs(doc)
            if coeffs != list(ref.coeffs):
                return f"phihat_{n} differs from borel(to_z_coeffs(phi_{n}))"
            (ev,) = doc["evaluations"]
            value = sum((c * point ** k for k, c in enumerate(coeffs)), CQ(0))
            if Fraction(ev["zeta"]) != point or \
                    CQ(Fraction(ev["partial_sum"]["re"]),
                       Fraction(ev["partial_sum"]["im"])) != value:
                return f"phihat_{n}: wrong partial sum"
            tail = ev["tail_bound"]
            if tail is not None and Fraction(tail) < 0:
                return f"phihat_{n}: negative tail bound"
        return None

    def _check_report(self, out_dir):
        doc = _load(os.path.join(out_dir, "check_report.json"))
        rows = doc["results"]
        if doc["x_order"] != X_ORDER or not rows:
            return "check report: wrong header or no rows"
        bad = [r for r in rows if r["status"] != "ok"]
        if bad:
            return f"check report: {len(bad)} rows not ok"
        if {r["suite"] for r in rows} != set(cli.SUITES):
            return "check report: a suite is missing"
        return None

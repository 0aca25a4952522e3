"""Per-layer spans recorded from outside the library.

The tracer swaps module attributes for timing wrappers, so no file under
``src/`` changes.  Each name is patched in the namespace where callers look
it up: ``rhs_matrix`` is imported into ``reference``, so that is where the
wrapper goes, while ``spectral_norm``, ``taylor_apply`` and
``kron_sum_lift`` are module globals whose calls from inside their own
module are caught as well.

Spans live in memory as (name, start, end, parent, op) rows and are written
out once, at the end of the run.  Counters come from the values the wrapped
functions return, not from counting inside them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

from vlasov_carleman import analysis, carleman, cli, integrator, qode, reference


def _evolve_counters(result, system, *args, **kwargs):
    matvecs = (result.m + 1) * result.k  # one Taylor pass for the source, m steps
    return {
        "integrator.matvecs": matvecs,
        # labelled computed: CSR matvec reads 8-byte values and column
        # indices plus the row pointer (12 B per entry), and streams the
        # input and output vectors (16 B per row); cache misses ignored
        "integrator.evolve_bytes_computed": matvecs * (12 * system.a.nnz + 16 * system.d_a),
    }


# (module, attribute, span name, counters taken from the return value)
SPANS = (
    (cli, "parse_config", "cli.parse_config", None),
    (cli, "run", "cli.run", None),
    (cli, "emit", "cli.emit", None),
    (qode, "gauss_ode", "qode.gauss_ode", lambda ode, *a, **k: {"qode.f2_nnz": ode.f2.nnz}),
    (reference, "rhs_matrix", "qode.rhs_matrix", None),
    (
        reference,
        "integrate_nonlinear",
        "reference.integrate_nonlinear",
        lambda run, *a, **k: {"reference.rhs_evals": run.rhs_evals},
    ),
    (analysis, "convergence_report", "analysis.convergence_report", None),
    (analysis, "spectral_norm", "analysis.spectral_norm", None),
    (analysis, "lognorm", "analysis.lognorm", None),
    (analysis, "rescale", "analysis.rescale", None),
    (analysis, "make_plan", "analysis.make_plan", None),
    (
        carleman,
        "build_carleman",
        "carleman.build_carleman",
        lambda s, *a, **k: {"carleman.d_A": s.d_a, "carleman.a_nnz": s.a.nnz},
    ),
    (carleman, "kron_sum_lift", "carleman.kron_sum_lift", None),
    (carleman, "build_z0", "carleman.build_z0", None),
    (integrator, "evolve_iterative", "integrator.evolve_iterative", _evolve_counters),
    (
        integrator,
        "build_linear_encoding",
        "integrator.build_linear_encoding",
        lambda enc, *a, **k: {"integrator.l_nnz": enc.l.nnz, "integrator.encoding_dim": enc.total_dim},
    ),
    (integrator, "solve_encoding", "integrator.solve_encoding", None),
)

# Called k times per Taylor step: counted, not spanned, so that
# evolve_iterative keeps the matvec time as its own.
COUNTED = ((integrator, "taylor_apply", "integrator.taylor_apply_calls"),)

# Counters that add up over the calls of one op; the others are sizes.
SUMMED = {
    "integrator.taylor_apply_calls",
    "integrator.matvecs",
    "integrator.evolve_bytes_computed",
    "reference.rhs_evals",
}


class Tracer:
    """Span and counter recorder for the ops passed to ``run``."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self.counters: list[tuple[int, str, int]] = []  # (op, name, value)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.op = -1

    def _wrap_span(self, fn, name, counters):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            row = [name, time.perf_counter(), None, parent, self.op]
            self.spans.append(row)
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                row[2] = time.perf_counter()
                self._stack.pop()
            if counters is not None:
                for key, value in counters(out, *args, **kwargs).items():
                    self.counters.append((self.op, key, int(value)))
            return out

        return wrapper

    def _wrap_count(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters.append((self.op, name, 1))
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, module, attr, wrapper_of) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            print(f"trace: {module.__name__}.{attr} is gone; its metrics read 0", file=sys.stderr)
            return
        self._saved.append((module, attr, fn))
        setattr(module, attr, wrapper_of(fn))

    def _install(self) -> None:
        for module, attr, name, counters in SPANS:
            self._patch(module, attr, lambda fn, n=name, c=counters: self._wrap_span(fn, n, c))
        for module, attr, name in COUNTED:
            self._patch(module, attr, lambda fn, n=name: self._wrap_count(fn, n))

    def _remove(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def run(self, op: int, fn, *args):
        """Call fn(*args) as op number `op`: under a root span named "op",
        with the layers patched only for the length of the call."""
        self.op = op
        self._install()
        try:
            return self._wrap_span(fn, "op", None)(*args)
        finally:
            self._remove()

    def per_op(self) -> dict[int, dict]:
        """Per op: self and inclusive seconds and call count by span name,
        plus the counters of that op."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        ops: dict[int, dict] = defaultdict(
            lambda: {"self": defaultdict(float), "incl": defaultdict(float),
                     "calls": defaultdict(int), "counters": {}}
        )
        for (name, start, end, parent, op), inner in zip(self.spans, child_time):
            rec = ops[op]
            rec["self"][name] += end - start - inner
            rec["incl"][name] += end - start
            rec["calls"][name] += 1
        for op, name, value in self.counters:
            table = ops[op]["counters"]
            if name in SUMMED:
                table[name] = table.get(name, 0) + value
            else:
                table[name] = max(table.get(name, 0), value)
        return dict(ops)

    def write(self, path: Path, meta: dict) -> None:
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "op": o}
            for n, s, e, p, o in self.spans
        ]
        payload = {"meta": meta, "spans": rows,
                   "counters": [{"op": o, "name": n, "value": v} for o, n, v in self.counters]}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload) + "\n")


# Layer functions reported by self time: span name -> metric "<name>_s".
SELF_TIMED = (
    "cli.parse_config",
    "cli.emit",
    "qode.gauss_ode",
    "qode.rhs_matrix",
    "analysis.convergence_report",
    "analysis.spectral_norm",
    "analysis.lognorm",
    "analysis.rescale",
    "analysis.make_plan",
    "carleman.build_carleman",
    "carleman.kron_sum_lift",
    "carleman.build_z0",
    "integrator.evolve_iterative",
    "integrator.build_linear_encoding",
    "integrator.solve_encoding",
)

COUNTERS = (
    "qode.f2_nnz",
    "carleman.d_A",
    "carleman.a_nnz",
    "integrator.taylor_apply_calls",
    "integrator.matvecs",
    "integrator.evolve_bytes_computed",
    "integrator.l_nnz",
    "integrator.encoding_dim",
    "reference.rhs_evals",
)


def layer_metrics(rec: dict, op_seconds: float, hot_spans) -> dict[str, float]:
    """Per-layer values of one traced op; layers the op never entered read 0."""
    out = {f"{name}_s": rec["self"].get(name, 0.0) for name in SELF_TIMED}
    out["cli.self_s"] = rec["self"].get("cli.run", 0.0)
    out["reference.integrate_nonlinear_s"] = rec["incl"].get("reference.integrate_nonlinear", 0.0)
    out["reference.self_s"] = rec["self"].get("reference.integrate_nonlinear", 0.0)
    out["qode.rhs_matrix_calls"] = rec["calls"].get("qode.rhs_matrix", 0)
    out["analysis.spectral_norm_calls"] = rec["calls"].get("analysis.spectral_norm", 0)
    for name in COUNTERS:
        out[name] = rec["counters"].get(name, 0)
    out["hot_layer_frac"] = sum(rec["incl"].get(h, 0.0) for h in hot_spans) / op_seconds
    return out


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_bytes_computed"):
        return "B"
    return "count"

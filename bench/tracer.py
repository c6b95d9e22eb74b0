"""The traced mode's profile hook: layer spans, self times and counts.

A layer is one quadalg module, or sympy.  The hook sees every Python call;
it acts only on calls that cross from one layer into another, recording a
span (name, start, end, parent span, operation id) for each, and on calls
of the functions named in COUNTERS.  Code outside quadalg and sympy (the
standard library, `fractions` included) belongs to whichever layer called
it, so its self time counts toward that layer.  Work done by the
benchmark itself, before any crossing, belongs to the root and is not
reported.
"""

from __future__ import annotations

import fractions
import importlib.util
import os
import sys
import time
from array import array

LAYERS = (
    "scalars",
    "exactmat",
    "forms",
    "cayley",
    "albert",
    "rootsys",
    "descent",
    "verify",
    "cli",
    "sympy",
)
SYMPY = LAYERS.index("sympy")
ROOT = len(LAYERS)
_INHERIT = -1

# metric name -> (where the function lives, its qualified name).  Functions
# in quadalg and `fractions` are counted on every call; the sympy ones only
# on calls that enter sympy from outside it.
COUNTERS = {
    "scalars.fractions_created": ("fractions", "Fraction.__new__"),
    "scalars.quadext_created": ("scalars", "QuadExtScalar.__init__"),
    "scalars.is_square_calls": ("scalars", "is_square"),
    "scalars.hilbert_symbol_calls": ("scalars", "hilbert_symbol"),
    "exactmat.mat_mul_calls": ("exactmat", "mat_mul"),
    "exactmat.mat_vec_calls": ("exactmat", "mat_vec"),
    "exactmat.mat_inv_calls": ("exactmat", "mat_inv"),
    "exactmat.det_calls": ("exactmat", "det"),
    "exactmat.rank_calls": ("exactmat", "rank"),
    "cayley.is_related_triple_calls": ("cayley", "is_related_triple"),
    "albert.g_map_calls": ("albert", "g_map"),
    "albert.dagger_calls": ("albert", "AlbertMap.dagger"),
    "descent.fixed_subspace_calls": ("descent", "fixed_subspace"),
    "forms.witt_decompose_calls": ("forms", "witt_decompose"),
    "forms.isotropic_vector_calls": ("forms", "isotropic_vector"),
    "forms.ternary_witness_calls": ("forms", "_ternary_witness"),
    "sympy.factorint_calls": ("sympy.factor_", "factorint"),
    "sympy.diop_calls": ("sympy.diophantine", "diop_ternary_quadratic"),
}
_COUNTER_KEYS = {where_what: i for i, where_what in enumerate(COUNTERS.values())}
_SYMPY_COUNTERS = {i for i, (where, _) in enumerate(COUNTERS.values()) if where.startswith("sympy.")}
# exactmat functions whose arguments feed the useful-product ratio
_PRODUCTS = {("exactmat", "mat_mul"): "mat", ("exactmat", "mat_vec"): "vec"}


def _package_dir(name: str) -> str:
    spec = importlib.util.find_spec(name)
    if spec is None or not spec.submodule_search_locations:
        return "\0"  # matches no file
    return os.path.realpath(list(spec.submodule_search_locations)[0]) + os.sep


def _nonzero_cols(a) -> list[int]:
    counts = [0] * len(a[0]) if a else []
    for row in a:
        for k, x in enumerate(row):
            if x:
                counts[k] += 1
    return counts


class Tracer:
    """Install with start(), mark operations with begin_op(), stop()."""

    def __init__(self) -> None:
        self._quadalg_dir = _package_dir("quadalg")
        self._sympy_dir = _package_dir("sympy")
        self._fractions_file = os.path.realpath(fractions.__file__)
        self.self_s = [0.0] * (ROOT + 1)
        self.calls = [0] * (ROOT + 1)
        self.counts = [0] * len(COUNTERS)
        self.products = 0  # scalar products inside mat_mul / mat_vec
        self.useful_products = 0  # ... whose two factors are both nonzero
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self._op = -1

    # -- classification ---------------------------------------------------
    def _classify(self, code):
        fn = code.co_filename
        qual = getattr(code, "co_qualname", code.co_name)
        layer, where = _INHERIT, None
        real = os.path.realpath(fn) if os.path.isabs(fn) else fn
        if real.startswith(self._quadalg_dir):
            where = os.path.basename(real)[:-3]
            layer = LAYERS.index(where) if where in LAYERS[:SYMPY] else _INHERIT
        elif real.startswith(self._sympy_dir):
            where = "sympy." + os.path.basename(real)[:-3]
            layer = SYMPY
        elif real == self._fractions_file:
            where = "fractions"
        name = f"{where or '?'}.{qual}"
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        counter = _COUNTER_KEYS.get((where, qual), -1)
        return (
            layer,
            counter,
            counter in _SYMPY_COUNTERS,
            _PRODUCTS.get((where, qual)),
            self._name_index[name],
        )

    def _count_products(self, frame, kind) -> None:
        try:
            local = frame.f_locals
            a, b = (local[v] for v in frame.f_code.co_varnames[:2])
            cols = _nonzero_cols(a)
            if kind == "mat":
                inner = [sum(1 for x in row if x) for row in b]
                self.products += len(a) * len(cols) * (len(b[0]) if b else 0)
            else:
                inner = [1 if x else 0 for x in b]
                self.products += len(a) * len(cols)
            self.useful_products += sum(c * r for c, r in zip(cols, inner))
        except (KeyError, TypeError, IndexError):
            pass  # an argument of another shape: leave it out of the ratio

    # -- the hook ----------------------------------------------------------
    def start(self) -> None:
        perf = time.perf_counter
        info_of: dict = {}
        classify = self._classify
        counts = self.counts
        self_s, calls = self.self_s, self.calls
        s_name, s_start, s_end = self.span_name, self.span_start, self.span_end
        s_parent, s_op = self.span_parent, self.span_op
        frames = [None]  # the frame that opened each open span
        layers = [ROOT]  # the layer of each open span
        spans = [-1]  # the index of each open span
        state = {"last": perf(), "paused": 0.0}
        tracer = self

        def hook(frame, event, arg):
            if event == "call":
                code = frame.f_code
                info = info_of.get(code)
                if info is None:
                    info = info_of[code] = classify(code)
                layer, counter, sympy_counter, products, name = info
                if counter >= 0 and not sympy_counter:
                    counts[counter] += 1
                if products is not None:
                    t = perf()
                    tracer._count_products(frame, products)
                    state["paused"] += perf() - t
                if layer >= 0 and layer != layers[-1]:
                    if sympy_counter:
                        counts[counter] += 1
                    now = perf() - state["paused"]
                    self_s[layers[-1]] += now - state["last"]
                    state["last"] = now
                    calls[layer] += 1
                    s_name.append(name)
                    s_start.append(now)
                    s_end.append(0.0)
                    s_parent.append(spans[-1])
                    s_op.append(tracer._op)
                    frames.append(frame)
                    layers.append(layer)
                    spans.append(len(s_start) - 1)
            elif event == "return" and frame is frames[-1]:
                now = perf() - state["paused"]
                self_s[layers.pop()] += now - state["last"]
                state["last"] = now
                s_end[spans.pop()] = now
                frames.pop()

        self._state = state
        sys.setprofile(hook)

    def begin_op(self, op: int) -> None:
        self._op = op

    def stop(self) -> None:
        sys.setprofile(None)
        now = time.perf_counter() - self._state["paused"]
        self.self_s[ROOT] += now - self._state["last"]

    # -- results -----------------------------------------------------------
    def layer_metrics(self) -> dict:
        out = {}
        for i, layer in enumerate(LAYERS):
            out[f"{layer}.self_s"] = self.self_s[i]
            out[f"{layer}.calls"] = self.calls[i]
        out.update(zip(COUNTERS, self.counts))
        out["exactmat.products"] = self.products
        out["exactmat.useful_products"] = self.useful_products
        return out

    def write_spans(self, fh) -> None:
        """Write the spans as a JSON array of [name, start_us, end_us,
        parent, op] rows, times relative to the first span."""
        t0 = self.span_start[0] if self.span_start else 0.0
        fh.write("[")
        for i in range(len(self.span_start)):
            fh.write(
                "%s[%d,%.3f,%.3f,%d,%d]"
                % (
                    "," if i else "",
                    self.span_name[i],
                    (self.span_start[i] - t0) * 1e6,
                    (self.span_end[i] - t0) * 1e6,
                    self.span_parent[i],
                    self.span_op[i],
                )
            )
        fh.write("]")

"""Per-layer tracing of kqlab from outside the package.

``Tracer.install`` replaces the public entry points of each layer with
wrappers, in the namespace of every ``kqlab`` module that binds the name
(``profile_jet``, for example, is bound in ``profiles``, ``curvature``,
``bergman`` and ``oracle``), and ``Tracer.uninstall`` puts the originals
back.  Nothing in the package changes.

Each wrapped call is a span with a name, start, end and parent.  The jet
operations (about a million calls per balanced pass) and the quadrature-rule
constructors are leaves: their calls and time are summed into the enclosing
span instead of getting spans of their own.  A layer's self time is its
spans' time minus the time of their child spans and leaves.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

from kqlab import jets
from kqlab.errors import KQLabError

LAYERS = ("cli", "curvature", "profiles", "jets", "bergman", "oracle")

# (layer, defining module, name): the entry points that get spans.
SPANS = (
    ("cli", "kqlab.cli", "main"),
    ("cli", "kqlab.cli", "render_json"),
    ("curvature", "kqlab.curvature", "curvature_report"),
    ("curvature", "kqlab.curvature", "classify_check"),
    ("profiles", "kqlab.profiles", "profile_jet"),
    ("bergman", "kqlab.bergman", "psi_moment"),
    ("bergman", "kqlab.bergman", "bergman_series"),
    ("bergman", "kqlab.bergman", "balanced_certify"),
    ("bergman", "kqlab.bergman", "generating_identity_check"),
    ("oracle", "kqlab.oracle", "hartogs_gram_oracle"),
    ("oracle", "kqlab.oracle", "cp1_bergman_oracle"),
    ("oracle", "kqlab.oracle", "gram_offdiagonal_probe"),
)

# Jet operations: (counter, owner, attribute).  ``__rmul__`` is the same
# function as ``__mul__`` and counts as a multiplication.
JET_OPS = (
    ("jets.mul.calls", jets.TaylorJet, "__mul__"),
    ("jets.mul.calls", jets.TaylorJet, "__rmul__"),
    ("jets.div.calls", jets.TaylorJet, "__truediv__"),
    ("jets.exp.calls", jets, "exp"),
    ("jets.log.calls", jets, "log"),
)

# Gauss-rule constructors as bound in kqlab.bergman (the moment quadrature).
RULES = ("roots_jacobi", "roots_genlaguerre")

COUNTERS = (
    "cli.main.calls", "curvature.curvature_report.calls",
    "curvature.classify_check.calls", "profiles.profile_jet.calls",
    "jets.mul.calls", "jets.div.calls", "jets.exp.calls", "jets.log.calls",
    "bergman.psi_moment.calls", "bergman.bergman_series.calls",
    "bergman.quad_rules", "bergman.quad_nodes", "bergman.density_evals",
    "oracle.calls", "oracle.basis_size", "oracle.kernel_exps",
)


def _kqlab_modules():
    return [m for n, m in sorted(sys.modules.items())
            if (n == "kqlab" or n.startswith("kqlab.")) and m is not None]


class Tracer:
    """Spans, counters and per-layer self time for one traced pass at a time."""

    def __init__(self):
        self._patches = []   # (owner, attribute, original)
        self.reset()

    # -- state ----------------------------------------------------------

    def reset(self) -> None:
        self.counts = Counter()
        self.self_s = Counter()
        self.grid_cells = 0          # sum of (P+1)(Q+1) over Gram oracles
        self.quad_moments = 0        # psi_moment calls by quadrature
        self.render_json_s = 0.0
        self.rule_s = 0.0
        # span: [name, parent index, start, end, leaf calls, leaf seconds]
        self.spans = []
        # frame: [span index, span name, start, child seconds]
        self._stack = [[-1, None, 0.0, 0.0]]
        self._leaf_depth = 0

    # -- wrappers -------------------------------------------------------

    def _span(self, layer: str, name: str, counters: tuple, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if stack[-1][1] == name:
                # a recursive call (render_json) stays inside its outer span
                return fn(*args, **kwargs)
            for counter in counters:
                tracer.counts[counter] += 1
            span = [name, stack[-1][0], 0.0, 0.0, 0, 0.0]
            frame = [len(tracer.spans), name, perf_counter(), 0.0]
            span[2] = frame[2]
            tracer.spans.append(span)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except KQLabError:
                tracer.counts[layer + ".errors"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                span[3] = end
                duration = end - frame[2]
                tracer.self_s[layer] += duration - frame[3]
                stack[-1][3] += duration
            if after is not None:
                after(args, kwargs, result, duration)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf(self, layer: str, counter: str, fn, before=None):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counts[counter] += 1
            if before is not None:
                before(args)
            if tracer._leaf_depth:
                return fn(*args, **kwargs)
            tracer._leaf_depth = 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except KQLabError:
                tracer.counts[layer + ".errors"] += 1
                raise
            finally:
                duration = perf_counter() - start
                tracer._leaf_depth = 0
                if layer == "bergman":
                    tracer.rule_s += duration   # reported apart from bergman.self_s
                else:
                    tracer.self_s[layer] += duration
                frame = tracer._stack[-1]
                frame[3] += duration
                if frame[0] >= 0:
                    span = tracer.spans[frame[0]]
                    span[4] += 1
                    span[5] += duration

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attribute, wrapper) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapper)

    # -- per-entry-point bookkeeping -------------------------------------

    def _after_psi(self, args, kwargs, result, duration):
        method = args[2] if len(args) > 2 else kwargs.get("method", "closed")
        if method == "quadrature":
            self.quad_moments += 1

    def _after_hartogs(self, args, kwargs, report, duration):
        cfg = args[0] if args else kwargs["cfg"]
        cells = (cfg.effective_p_cap + 1) * (cfg.q_cap + 1)
        self.grid_cells += cells
        self.counts["oracle.kernel_exps"] += cells * cfg.s_nodes
        self.counts["oracle.basis_size"] += report.basis_size

    def _after_render(self, args, kwargs, result, duration):
        self.render_json_s += duration

    def _before_rule(self, args):
        self.counts["bergman.quad_nodes"] += int(args[0])

    def _hook(self, name: str):
        return {"psi_moment": self._after_psi,
                "hartogs_gram_oracle": self._after_hartogs,
                "render_json": self._after_render}.get(name)

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        modules = _kqlab_modules()
        by_name = {m.__name__: m for m in modules}
        for layer, home, name in SPANS:
            original = getattr(by_name[home], name)
            counters = ("oracle.calls" if layer == "oracle"
                        else f"{layer}.{name}.calls",)
            for module in modules:
                if module.__dict__.get(name) is not original:
                    continue
                if name == "profile_jet" and module.__name__ == "kqlab.bergman":
                    counters_here = counters + ("bergman.density_evals",)
                else:
                    counters_here = counters
                self._patch(module, name,
                            self._span(layer, f"{layer}.{name}", counters_here,
                                       original, self._hook(name)))
        for counter, owner, attribute in JET_OPS:
            self._patch(owner, attribute,
                        self._leaf("jets", counter, getattr(owner, attribute)))
        bergman = by_name["kqlab.bergman"]
        for name in RULES:
            self._patch(bergman, name,
                        self._leaf("bergman", "bergman.quad_rules",
                                   getattr(bergman, name), self._before_rule))

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- results ------------------------------------------------------------

    def metrics(self, points_requested: int) -> dict:
        """Counts and self times of the pass since the last ``reset``."""
        c = self.counts
        out = {name: c[name] for name in COUNTERS}
        out["cli.render_json_s"] = self.render_json_s
        out["bergman.rule_s"] = self.rule_s
        out["curvature.reports_per_point"] = (
            c["curvature.curvature_report.calls"] / points_requested
            if points_requested else 0.0)
        out["bergman.nodes_per_moment"] = (
            c["bergman.quad_nodes"] / self.quad_moments if self.quad_moments else 0.0)
        out["oracle.basis_fill"] = (
            c["oracle.basis_size"] / self.grid_cells if self.grid_cells else 0.0)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = float(self.self_s[layer])
            out[f"{layer}.errors"] = c[layer + ".errors"]
        return out

    def write_spans(self, path: str) -> None:
        """One JSON array per span: name, parent, start, end, leaf calls, leaf s."""
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, parent, start, end, calls, leaf_s in self.spans:
                fh.write(json.dumps([name, parent, start - origin, end - origin,
                                     calls, leaf_s]) + "\n")

"""Spans around calls into plthick's public functions, recorded from the
benchmark process without touching the program's source.

``Tracer.install`` swaps each traced function for a wrapper in every
plthick module namespace that holds it (so internal calls are seen too),
and counts ``Complex`` builds.  ``Tracer.remove`` puts the originals back.
A span is ``[parent, name, start, end, input, outermost]``; ``outermost``
is false when a span of the same name is already open, so inclusive times
are not counted twice for recursive calls.  The benchmark wraps each of
its own operations in a ``bench.op`` span.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# The layers are plthick's modules; these are the functions traced in each.
LAYERS = {
    "cli": ("run_pipeline", "canonical_json", "complex_to_obj"),
    "thicken3": ("thicken", "extract_sheet_data", "build_spine_thickening",
                 "cone_boundary_neighborhoods", "verify_thickening",
                 "expected_retract_copy"),
    "geometry": ("sample_general_position_map", "verify_general_position",
                 "singular_set", "choose_spine_barycenters",
                 "epsilon_neighborhood_embedding"),
    "reflection": ("close_up", "boundary_mirror_structure", "basic_construction",
                   "verify_closed_locally"),
    "pseudomanifold": ("check_pseudomanifold", "check_isolated_singularities",
                       "link_of", "classify_link", "orient"),
    "homology": ("homology_groups", "boundary_matrices", "smith_normal_form"),
    "complex_core": ("validate_complex", "barycentric_subdivision",
                     "relative_barycentric_subdivision", "spine",
                     "simplicial_neighborhood", "regular_neighborhood",
                     "is_flag", "greedy_collapse", "cone_off"),
}

def _max_bits(points):
    return max((max(x.numerator.bit_length(), x.denominator.bit_length())
                for p in points.values() for x in p), default=0)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.open_names = Counter()
        self.input = None
        self.counts = Counter()
        self._restore = []

    # -- recording -------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        sid = len(self.spans)
        rec = [self.stack[-1] if self.stack else -1, name, 0.0, 0.0, self.input,
               self.open_names[name] == 0]
        self.spans.append(rec)
        self.stack.append(sid)
        self.open_names[name] += 1
        rec[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = time.perf_counter()
            self.stack.pop()
            self.open_names[name] -= 1

    def _wrap(self, name, fn):
        post = _POST.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if post is not None:
                post(self.counts, result)
            return result

        return traced

    # -- patching --------------------------------------------------------

    def install(self, plthick):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "plthick" or n.startswith("plthick."))]
        wrappers = {}
        for layer, names in LAYERS.items():
            mod = getattr(plthick, layer, None)
            for fn_name in names:
                # A function the program no longer has just reads as zero.
                fn = getattr(mod, fn_name, None)
                if fn is not None:
                    wrappers[id(fn)] = self._wrap("%s.%s" % (layer, fn_name), fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

        cls = plthick.Complex
        init = cls.__init__
        counts = self.counts

        def counted_init(obj, simplices):
            init(obj, simplices)
            counts["complex_core.complex_builds"] += 1
            counts["complex_core.simplices_built"] += len(obj.simplices)

        self._restore.append((cls, "__init__", init))
        cls.__init__ = counted_init

    def remove(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- summaries -------------------------------------------------------

    def by_name(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for parent, _, start, end, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, incl, self_ = Counter(), defaultdict(float), defaultdict(float)
        for i, (_, name, start, end, _, outermost) in enumerate(self.spans):
            calls[name] += 1
            self_[name] += end - start - child[i]
            if outermost:
                incl[name] += end - start
        return {name: {"calls": calls[name], "s": incl[name], "self_s": self_[name]}
                for name in sorted(calls)}

    def gp_attempts(self):
        """General-position maps tried: verifier calls made by the sampler."""
        return sum(1 for parent, name, *_ in self.spans
                   if name == "geometry.verify_general_position" and parent >= 0
                   and self.spans[parent][1] == "geometry.sample_general_position_map")

    def records(self):
        return [[i, parent, name, start, end, inp]
                for i, (parent, name, start, end, inp, _) in enumerate(self.spans)]


def _count_barycenters(counts, se):
    counts["geometry.barycenter_attempts"] += sum(se.attempts.values())
    counts["geometry.barycenters"] += len(se.attempts)


def _count_collar_bits(counts, se):
    counts["geometry.coord_bits"] = max(counts["geometry.coord_bits"],
                                        _max_bits(se.nbhd.points))


def _count_gp_map(counts, _m):
    counts["geometry.gp_maps"] += 1


# Counts read off a traced function's result.
_POST = {
    "geometry.sample_general_position_map": _count_gp_map,
    "geometry.choose_spine_barycenters": _count_barycenters,
    "geometry.epsilon_neighborhood_embedding": _count_collar_bits,
    "thicken3.thicken": lambda c, r: c.update({"thicken3.p_simplices": len(r[0].P.simplices)}),
    "reflection.close_up": lambda c, r: c.update({"reflection.q_simplices": len(r.Q.complex.simplices)}),
    "reflection.verify_closed_locally": lambda c, r: c.update({"reflection.local_classes": len(r.classes)}),
}


def layer_metrics(tracer):
    """Flat metric dict: ``<layer>.<fn>.{calls,s,self_s}``, per-layer self
    time ``<layer>.self_s``, and the counts."""
    out = {}
    per_layer = defaultdict(float)
    rows = {"%s.%s" % (layer, fn): {"calls": 0, "s": 0.0, "self_s": 0.0}
            for layer, names in LAYERS.items() for fn in names}
    rows.update(tracer.by_name())
    for name, row in rows.items():
        for key, value in row.items():
            out["%s.%s" % (name, key)] = value
        per_layer[name.split(".")[0]] += row["self_s"]
    for layer in list(LAYERS) + ["bench"]:
        out["%s.self_s" % layer] = per_layer.get(layer, 0.0)
    counts = tracer.counts
    attempts = tracer.gp_attempts() + counts["geometry.barycenter_attempts"]
    accepted = counts["geometry.gp_maps"] + counts["geometry.barycenters"]
    out["geometry.attempts"] = attempts
    out["geometry.accept_ratio"] = accepted / attempts if attempts else 0.0
    for key in ("geometry.coord_bits", "thicken3.p_simplices", "reflection.q_simplices",
                "reflection.local_classes", "complex_core.complex_builds",
                "complex_core.simplices_built"):
        out[key] = counts[key]
    return out

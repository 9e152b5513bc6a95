"""Outside-in tracer: wraps lamprigid's public functions from the benchmark.

Nothing in the program changes. ``Tracer.install`` replaces each traced
function in every ``lamprigid`` module namespace that binds it (so that
``cli.certify``, ``laurent_modules.smith_normal_form`` and
``quotients.decompose`` are caught as well as the defining names) and on the
traced class attributes; ``Tracer.uninstall`` puts the originals back.

Two kinds of wrapper:

* a span wrapper records (id, parent id, name, start, end, request id) in
  memory. Self time is a span's duration minus that of its child spans.
* a counter wrapper, for the hot arithmetic leaves (``FpPoly.__mul__`` runs
  about half a million times per pass of ``certify-disguised``), only adds to
  a call count, a time total and a work count. Counter time is not
  subtracted from any span's self time.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter


def _snf_transform_degree(dec) -> int:
    return max((int(e.degree) for m in (dec.u, dec.v) for e in m.entries if e), default=0)


def _mul_work(args, _result) -> int:
    a, b = args
    return len(a.coeffs) * (1 if isinstance(b, int) else len(b.coeffs))


# (layer, name, owner, attribute): owner is a module, or "module:Class".
SPANS = (
    ("cli", "main", "lamprigid.cli", "main"),
    ("pipeline", "certify", "lamprigid.pipeline", "certify"),
    ("quotients", "compare_qu", "lamprigid.quotients", "compare_qu"),
    ("quotients", "truncated_qu", "lamprigid.quotients", "truncated_qu"),
    ("quotients", "semidirect_table", "lamprigid.quotients", "semidirect_table"),
    ("quotients", "enumerate_normal_subgroups", "lamprigid.quotients",
     "enumerate_normal_subgroups"),
    ("quotients", "quotient_table", "lamprigid.quotients", "quotient_table"),
    ("quotients", "table_build", "lamprigid.quotients:FiniteGroupTable", "build"),
    ("quotients", "fingerprint", "lamprigid.quotients", "fingerprint"),
    ("quotients", "isomorphic", "lamprigid.quotients", "isomorphic"),
    ("quotients", "subgroup_closure", "lamprigid.quotients", "subgroup_closure"),
    ("polymatrix", "smith_normal_form", "lamprigid.polymatrix", "smith_normal_form"),
    ("polymatrix", "matrix_mul", "lamprigid.polymatrix", "matrix_mul"),
    ("polymatrix", "is_unimodular", "lamprigid.polymatrix", "is_unimodular"),
    ("laurent_modules", "decompose", "lamprigid.laurent_modules", "decompose"),
    ("laurent_modules", "epimorphism_to_free", "lamprigid.laurent_modules",
     "epimorphism_to_free"),
    ("wreath", "law_check", "lamprigid.wreath:VerifiedGroupEpi", "law_check"),
    ("wreath", "build_lamplighter_epimorphism", "lamprigid.wreath",
     "build_lamplighter_epimorphism"),
)

# (layer, name, owner, attribute, work function or None)
COUNTERS = (
    ("fppoly", "mul", "lamprigid.fppoly:FpPoly", "__mul__", _mul_work),
    ("fppoly", "divmod", "lamprigid.fppoly", "poly_divmod", None),
    ("fppoly", "laurent_mul", "lamprigid.fppoly:LaurentPoly", "__mul__", None),
    ("jsonio", "canonical_dumps", "lamprigid.jsonio", "canonical_dumps",
     lambda _args, result: len(result)),
)


class Tracer:
    """Spans and counters of one traced run; ``request`` tags new spans."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counters: dict[str, list] = {}
        self.request = -1
        self.snf_max_transform_degree = 0
        self.normal_subgroups = 0
        self.isomorphic_hits = 0
        self.law_samples = 0
        self.classes_kept = 0
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # --- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn, on_result):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (sid, parent, name, start, end, self.request)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counter(self, name: str, fn, work):
        stat = self.counters.setdefault(name, [0, 0.0, 0])

        @functools.wraps(fn)
        def wrapper(*args):
            start = perf_counter()
            result = fn(*args)
            stat[1] += perf_counter() - start
            stat[0] += 1
            if work is not None:
                stat[2] += work(args, result)
            return result

        return wrapper

    def _result_hooks(self) -> dict:
        def snf(dec):
            self.snf_max_transform_degree = max(self.snf_max_transform_degree,
                                                _snf_transform_degree(dec))

        def normal(subgroups):
            self.normal_subgroups += len(subgroups)

        def iso(hit):
            self.isomorphic_hits += bool(hit)

        def law(report):
            self.law_samples += report.samples

        def qu(quset):
            self.classes_kept += len(quset.fingerprints)

        return {
            "polymatrix.smith_normal_form": snf,
            "quotients.enumerate_normal_subgroups": normal,
            "quotients.isomorphic": iso,
            "wreath.law_check": law,
            "quotients.truncated_qu": qu,
        }

    # --- installation -------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "lamprigid" or name.startswith("lamprigid.")]
        hooks = self._result_hooks()
        for layer, name, owner, attr in SPANS:
            full = f"{layer}.{name}"
            self._replace(modules, owner, attr,
                          lambda fn, full=full: self._span(full, fn, hooks.get(full)))
        for layer, name, owner, attr, work in COUNTERS:
            self._replace(modules, owner, attr,
                          lambda fn, full=f"{layer}.{name}", w=work: self._counter(full, fn, w))

    def _replace(self, modules, owner: str, attr: str, make) -> None:
        module_name, _, class_name = owner.partition(":")
        module = sys.modules[module_name]
        if class_name:
            cls = getattr(module, class_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            # aliases such as __rmul__ = __mul__ share the wrapper
            for key, value in list(vars(cls).items()):
                if value is raw:
                    self._restore.append((cls, key, raw))
                    setattr(cls, key, new)
            return
        orig = getattr(module, attr)
        new = make(orig)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._restore.append((mod, key, orig))
                    setattr(mod, key, new)

    def uninstall(self) -> None:
        while self._restore:
            target, key, value = self._restore.pop()
            setattr(target, key, value)

    # --- output -------------------------------------------------------------

    def write_spans(self, path, origin: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, request in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start - origin, "end": end - origin,
                                     "request": request}) + "\n")

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.spans)


class SpanSummary:
    """Per-name calls, total time (outermost spans only) and self time."""

    def __init__(self, spans):
        child_time = defaultdict(float)
        for sid, parent, name, start, end, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.child_s = defaultdict(float)   # (parent name, child name) -> time
        self.child_calls = defaultdict(int)
        self.calls_by_request = defaultdict(lambda: defaultdict(int))
        for sid, parent, name, start, end, request in spans:
            dur = end - start
            self.calls[name] += 1
            self.self_s[name] += dur - child_time[sid]
            self.calls_by_request[request][name] += 1
            if parent >= 0:
                self.child_s[(spans[parent][2], name)] += dur
                self.child_calls[(spans[parent][2], name)] += 1
            if not self._nested_in_same(spans, parent, name):
                self.total_s[name] += dur

    @staticmethod
    def _nested_in_same(spans, parent: int, name: str) -> bool:
        while parent >= 0:
            if spans[parent][2] == name:
                return True
            parent = spans[parent][1]
        return False


def layer_metrics(tracer: Tracer, s: SpanSummary, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run, per pass (one round of all candidates).

    Counts are exact and repeat across runs with the same seed; times are
    span times under tracing.
    """
    counter = tracer.counters

    def per(value):
        return value / passes

    snf = "polymatrix.smith_normal_form"
    iso_calls = s.calls["quotients.isomorphic"]
    tables_tried = s.child_calls[("quotients.truncated_qu", "quotients.quotient_table")]
    return {
        "quotients.compare_qu.total_s": (per(s.total_s["quotients.compare_qu"]), "s"),
        "quotients.truncated_qu.total_s": (per(s.total_s["quotients.truncated_qu"]), "s"),
        "quotients.semidirect_table.calls": (per(s.calls["quotients.semidirect_table"]), "count"),
        "quotients.enumerate_normal_subgroups.total_s":
            (per(s.total_s["quotients.enumerate_normal_subgroups"]), "s"),
        "quotients.normal_subgroups.count": (per(tracer.normal_subgroups), "count"),
        "quotients.quotient_table.calls": (per(s.calls["quotients.quotient_table"]), "count"),
        "quotients.table_build.calls": (per(s.calls["quotients.table_build"]), "count"),
        "quotients.table_build.total_s": (per(s.total_s["quotients.table_build"]), "s"),
        "quotients.fingerprint.calls": (per(s.calls["quotients.fingerprint"]), "count"),
        "quotients.fingerprint.total_s": (per(s.total_s["quotients.fingerprint"]), "s"),
        "quotients.isomorphic.calls": (per(iso_calls), "count"),
        "quotients.isomorphic.total_s": (per(s.total_s["quotients.isomorphic"]), "s"),
        "quotients.isomorphic.hit_ratio":
            (tracer.isomorphic_hits / iso_calls if iso_calls else 0.0, "ratio"),
        "quotients.subgroup_closure.calls": (per(s.calls["quotients.subgroup_closure"]), "count"),
        "quotients.subgroup_closure.self_s": (per(s.self_s["quotients.subgroup_closure"]), "s"),
        "quotients.classes_per_table":
            (tracer.classes_kept / tables_tried if tables_tried else 0.0, "ratio"),
        "polymatrix.smith_normal_form.calls": (per(s.calls[snf]), "count"),
        "polymatrix.snf.elimination_s": (per(s.self_s[snf]), "s"),
        "polymatrix.snf.certificate_s":
            (per(s.child_s[(snf, "polymatrix.matrix_mul")]
                 + s.child_s[(snf, "polymatrix.is_unimodular")]), "s"),
        "polymatrix.is_unimodular.calls": (per(s.calls["polymatrix.is_unimodular"]), "count"),
        "polymatrix.snf.max_transform_degree": (tracer.snf_max_transform_degree, "count"),
        "laurent_modules.decompose.calls": (per(s.calls["laurent_modules.decompose"]), "count"),
        "laurent_modules.decompose.total_s": (per(s.total_s["laurent_modules.decompose"]), "s"),
        "laurent_modules.epimorphism_to_free.total_s":
            (per(s.total_s["laurent_modules.epimorphism_to_free"]), "s"),
        "fppoly.mul.calls": (per(counter["fppoly.mul"][0]), "count"),
        "fppoly.mul.coeff_products": (per(counter["fppoly.mul"][2]), "count"),
        "fppoly.mul.total_s": (per(counter["fppoly.mul"][1]), "s"),
        "fppoly.divmod.calls": (per(counter["fppoly.divmod"][0]), "count"),
        "fppoly.laurent_mul.calls": (per(counter["fppoly.laurent_mul"][0]), "count"),
        "wreath.law_check.total_s": (per(s.total_s["wreath.law_check"]), "s"),
        "wreath.law_check.samples": (per(tracer.law_samples), "count"),
        "wreath.build_lamplighter_epimorphism.total_s":
            (per(s.total_s["wreath.build_lamplighter_epimorphism"]), "s"),
        "pipeline.certify.calls": (per(s.calls["pipeline.certify"]), "count"),
        "pipeline.certify.self_s": (per(s.self_s["pipeline.certify"]), "s"),
        "cli.self_s": (per(s.self_s["cli.main"]), "s"),
        "jsonio.report_bytes": (per(counter["jsonio.canonical_dumps"][2]), "bytes"),
    }

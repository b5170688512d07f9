"""Per-layer tracing installed from outside the program.

``install`` rebinds the public functions of each layer, in every module
namespace that binds them, to wrappers that record a span (name, report,
parent span, start, end) or, for functions called per class or per point,
only a call count.  Per-element field arithmetic is never wrapped: its
overhead would swamp what it measures.  ``pass_metrics`` turns the spans
and counts of one pass into the per-layer metrics; self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "arithdata", "abelian", "cohomengine", "curve", "essential", "oracles")
SUITES = ("suite_snf_reconstruction", "suite_kernel_cokernel_enumeration",
          "suite_graded_dimension_oracle", "suite_class_group_forms",
          "suite_elliptic_point_recount")

SPANNED = {
    "cli": ("main",),
    "arithdata": ("build_split_datum", "load_datum"),
    "abelian": ("kernel", "cokernel", "contains_in_image", "smith_normal_form",
                "involution_orbits"),
    "cohomengine": ("nonvanishing", "conjugacy_classes", "subgroup_classes",
                    "decompose_number_field", "decompose_function_field",
                    "freeness_certificate", "detection_verdict",
                    "machine_lines_number_field", "machine_lines_function_field"),
    "curve": ("get_field", "count_and_structure_elliptic", "elliptic_points",
              "count_points_elliptic"),
    "essential": ("essential_product", "enumerate_proper_subgroups", "restrict",
                  "weyl_invariance"),
    "oracles": SUITES,
}
COUNTED = {
    "cohomengine": ("graded_dimension", "freeness_basis_degrees"),
    "curve": ("ec_scalar",),
}
# spans split by field kind: the prime and extension fields use the field
# layer differently
FIELD_KIND_ARG = {"curve.get_field": 0, "curve.count_and_structure_elliptic": 1}
# counts read off a function's result
RESULT_COUNTS = {
    "curve.elliptic_points": ("curve.points", len),
    "essential.enumerate_proper_subgroups": ("essential.subgroups", len),
    "essential.essential_product": ("essential.product_terms", lambda r: len(r.terms)),
}

PER_LAYER = (
    ("cli.main.calls", "count"), ("cli.main.self_s", "s"), ("cli.input_rejected", "count"),
    ("arithdata.build_split_datum.calls", "count"), ("arithdata.build_split_datum.self_s", "s"),
    ("arithdata.load_datum.calls", "count"), ("arithdata.load_datum.self_s", "s"),
    ("abelian.kernel.calls", "count"), ("abelian.kernel.s", "s"),
    ("abelian.cokernel.calls", "count"), ("abelian.cokernel.s", "s"),
    ("abelian.contains_in_image.calls", "count"), ("abelian.contains_in_image.s", "s"),
    ("abelian.elements_enumerated", "count"), ("abelian.elements_per_component", "ratio"),
    ("abelian.involution_orbits.s", "s"),
    ("abelian.smith_normal_form.calls", "count"), ("abelian.smith_normal_form.s", "s"),
    ("cohomengine.nonvanishing.calls", "count"),
    ("cohomengine.conjugacy_classes.calls", "count"), ("cohomengine.conjugacy_classes.s", "s"),
    ("cohomengine.subgroup_classes.self_s", "s"),
    ("cohomengine.decompose_number_field.calls", "count"),
    ("cohomengine.decompose_number_field.self_s", "s"),
    ("cohomengine.freeness_certificate.s", "s"),
    ("cohomengine.freeness_basis_degrees.calls", "count"),
    ("cohomengine.freeness_calls_per_shape", "ratio"),
    ("cohomengine.graded_dimension.calls", "count"),
    ("cohomengine.detection_verdict.s", "s"),
    ("cohomengine.report_lines.self_s", "s"),
    ("cohomengine.decompose_function_field.self_s", "s"),
    ("cohomengine.components", "count"), ("report.bytes", "bytes"),
    ("curve.get_field.s.prime", "s"), ("curve.get_field.s.extension", "s"),
    ("curve.count_and_structure_elliptic.self_s.prime", "s"),
    ("curve.count_and_structure_elliptic.self_s.extension", "s"),
    ("curve.elliptic_points.s", "s"), ("curve.points", "count"),
    ("curve.ec_scalar.calls", "count"), ("curve.ec_scalar_per_point", "ratio"),
    ("curve.count_points_elliptic.s", "s"),
    ("essential.essential_product.self_s", "s"), ("essential.multiplications", "count"),
    ("essential.product_terms", "count"), ("essential.enumerate_proper_subgroups.s", "s"),
    ("essential.subgroups", "count"),
    ("essential.restrict.calls", "count"), ("essential.restrict.s", "s"),
    ("essential.weyl_invariance.self_s", "s"),
) + tuple((f"oracles.{name}.self_s", "s") for name in SUITES) + tuple(
    (f"{layer}.self_share", "ratio") for layer in LAYERS) + (("trace.overhead", "ratio"),)


class Recorder:
    """Spans and counts of one worker process, kept in memory."""

    def __init__(self):
        self.spans: list = []  # [name, variant, report, parent, start, end]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.shapes: set = set()  # (report, shape, rank) seen by the certificate
        self.report = -1

    def spanned(self, name: str, fn):
        spans, stack = self.spans, self.stack
        kind_arg = FIELD_KIND_ARG.get(name)
        result_count = RESULT_COUNTS.get(name)

        def wrapper(*args, **kwargs):
            variant = ""
            if kind_arg is not None:
                variant = "prime" if args[kind_arg].e == 1 else "extension"
            index = len(spans)
            span = [name, variant, self.report, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(span)
            stack.append(index)
            span[4] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = perf_counter()
                stack.pop()
            if result_count is not None:
                self.counts[result_count[0]] += result_count[1](result)
            return result
        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts
        key = name + ".calls"
        if name == "cohomengine.freeness_basis_degrees":
            shapes = self.shapes

            def wrapper(component):
                counts[key] += 1
                shapes.add((self.report, component.kind, component.rank))
                return fn(component)
            return wrapper

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def counted_elements(self, fn):
        counts = self.counts

        def elements(group, *args, **kwargs):
            iterator = fn(group, *args, **kwargs)

            def counting():
                n = 0
                try:
                    for x in iterator:
                        n += 1
                        yield x
                finally:
                    counts["abelian.elements_enumerated"] += n
            return counting()
        return elements


def install(recorder: Recorder) -> None:
    """Wrap every listed function wherever the package binds it."""
    package = importlib.import_module("sl2cohom")
    modules = [package] + [importlib.import_module(f"sl2cohom.{layer}") for layer in LAYERS]
    replacements = {}
    for layer, names in SPANNED.items():
        module = importlib.import_module(f"sl2cohom.{layer}")
        for name in names:
            fn = getattr(module, name)
            replacements[id(fn)] = (fn, recorder.spanned(f"{layer}.{name}", fn))
    for layer, names in COUNTED.items():
        module = importlib.import_module(f"sl2cohom.{layer}")
        for name in names:
            fn = getattr(module, name)
            replacements[id(fn)] = (fn, recorder.counted(f"{layer}.{name}", fn))
    for module in modules:
        for attr, value in list(vars(module).items()):
            entry = replacements.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
    abelian = importlib.import_module("sl2cohom.abelian")
    essential = importlib.import_module("sl2cohom.essential")
    abelian.FinGenAbGroup.elements = recorder.counted_elements(abelian.FinGenAbGroup.elements)
    essential.GradedElement.__mul__ = recorder.counted(
        "essential.multiplications", essential.GradedElement.__mul__)


def pass_metrics(spans, counts: dict, shape_pairs: int, components: int, rejected: int,
                 report_bytes: int) -> dict:
    """Per-layer metrics of one traced pass (times are totals over the pass)."""
    duration = [end - start for _, _, _, _, start, end in spans]
    child = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            child[span[3]] += duration[i]
    inclusive: dict = defaultdict(float)
    own: dict = defaultdict(float)
    calls: Counter = Counter()
    for i, (name, variant, *_rest) in enumerate(spans):
        key = f"{name}|{variant}"
        inclusive[key] += duration[i]
        own[key] += duration[i] - child[i]
        calls[name] += 1

    def s(name, variant=""):
        return inclusive.get(f"{name}|{variant}", 0.0)

    def self_s(*names, variant=""):
        return sum(own.get(f"{n}|{variant}", 0.0) for n in names)

    elements = counts.get("abelian.elements_enumerated", 0)
    freeness = counts.get("cohomengine.freeness_basis_degrees.calls", 0)
    points = counts.get("curve.points", 0)
    m = {
        "cli.main.calls": calls["cli.main"],
        "cli.main.self_s": self_s("cli.main"),
        "cli.input_rejected": rejected,
        "cohomengine.report_lines.self_s": self_s("cohomengine.machine_lines_number_field",
                                                   "cohomengine.machine_lines_function_field"),
        "cohomengine.freeness_basis_degrees.calls": freeness,
        "cohomengine.freeness_calls_per_shape": freeness / shape_pairs if shape_pairs else 0.0,
        "cohomengine.graded_dimension.calls": counts.get("cohomengine.graded_dimension.calls", 0),
        "cohomengine.components": components,
        "report.bytes": report_bytes,
        "abelian.elements_enumerated": elements,
        "abelian.elements_per_component": elements / components if components else 0.0,
        "curve.points": points,
        "curve.ec_scalar.calls": counts.get("curve.ec_scalar.calls", 0),
        "curve.ec_scalar_per_point": (counts.get("curve.ec_scalar.calls", 0) / points
                                      if points else 0.0),
        "essential.multiplications": counts.get("essential.multiplications.calls", 0),
        "essential.product_terms": counts.get("essential.product_terms", 0),
        "essential.subgroups": counts.get("essential.subgroups", 0),
    }
    for name, _unit in PER_LAYER:
        if name in m or name.endswith(("self_share", "overhead")):
            continue
        parts = name.split(".")
        if parts[-1] in ("prime", "extension"):
            base, what = ".".join(parts[:-2]), parts[-2]
            m[name] = s(base, parts[-1]) if what == "s" else self_s(base, variant=parts[-1])
        elif parts[-1] == "calls":
            m[name] = calls[".".join(parts[:-1])]
        elif parts[-1] == "s":
            m[name] = s(".".join(parts[:-1]))
        else:
            m[name] = self_s(".".join(parts[:-1]))
    total = sum(own.values())
    for layer in LAYERS:
        layer_own = sum(v for k, v in own.items() if k.startswith(layer + "."))
        m[f"{layer}.self_share"] = layer_own / total if total else 0.0
    return m

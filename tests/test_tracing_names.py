"""Every name the benchmark's tracer wraps must exist in the package.

``bench/tracing.py`` looks its functions up by name when ``bench/run.py
--trace 1`` starts; a deleted or renamed function would only show there,
as an ``AttributeError``.  This test fails first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()
WRAPPED = sorted((layer, name) for table in (tracing.SPANNED, tracing.COUNTED)
                 for layer, names in table.items() for name in names)


@pytest.mark.parametrize("layer,name", WRAPPED)
def test_wrapped_function_exists(layer, name):
    module = importlib.import_module(f"sl2cohom.{layer}")
    assert callable(getattr(module, name, None)), f"sl2cohom.{layer}.{name}"


@pytest.mark.parametrize("layer,cls,name", [
    ("abelian", "FinGenAbGroup", "elements"),
    ("essential", "GradedElement", "__mul__"),
])
def test_wrapped_method_exists(layer, cls, name):
    module = importlib.import_module(f"sl2cohom.{layer}")
    assert callable(getattr(getattr(module, cls), name, None)), f"{cls}.{name}"


def test_product_terms_count_reads_terms():
    # the tracer counts essential.product_terms as len(r.terms) on essential_product's result
    essential = importlib.import_module("sl2cohom.essential")
    assert isinstance(essential.GradedElement.__dict__.get("terms"), property)
    product = essential.essential_product(essential.GradedAlgebraSpec(3, 2))
    assert len(product.terms) == len(product.packed) == 3

"""The benchmark tracer wraps engine functions by module attribute name.

``perfbench/tracer.py`` lists them in ``WRAPPED``; a name it lists that the
package no longer has would make the tracer fail, and a kernel renamed under
it would drop out of the per-layer split.  This reads that file, never edits
it, and checks every listed attribute against the package.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import dustcocycle

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracer  # its dataclasses look their module up
    try:
        spec.loader.exec_module(tracer)
    finally:
        del sys.modules[spec.name]
    return tracer.WRAPPED


WRAPPED = _wrapped()


@pytest.mark.parametrize("module, attr", [(m, a) for m, attrs in WRAPPED.items() for a in attrs])
def test_wrapped_attribute_exists(module, attr):
    assert callable(getattr(getattr(dustcocycle, module), attr, None)), f"{module}.{attr}"


def test_both_trace_kernels_are_spanned():
    kernels = {a for a, span in WRAPPED["_kernels"].items() if span == "kernels.kernel"}
    assert kernels == {"scalar_kernel", "matrix_kernel"}

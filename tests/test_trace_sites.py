"""The benchmark's traced run wraps module attributes by name
(perfbench/tracing.py); each one must exist, or that run fails."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_sites():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(where, attr) for sites in tracing.TRACED.values() for where, attr in sites]


@pytest.mark.parametrize("where,attr", traced_sites())
def test_traced_site_resolves(where, attr):
    module, _, table = where.partition(".")
    owner = importlib.import_module(f"totirr.{module}")
    if table:
        assert attr in getattr(owner, table)
    else:
        assert callable(getattr(owner, attr, None))

"""Only ``model`` reads the coefficient form of ``TrigPotential``.

The wave vectors, coefficient halves, constant term and strip guard are
private to ``model``, which evaluates the potential on and off orbits; the
other library modules reach the potential through that evaluator and the
public methods.  Tests and their ``conftest`` may read the form to build
oracles.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qplab"
PRIVATE = {"_k_half", "_a_half", "_b_half", "_c0", "_k_all", "_c_all",
           "_check_strip"}


def private_reads(source: str):
    """(line, member) of each attribute read of a coefficient-form member."""
    return [(node.lineno, node.attr) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in PRIVATE]


def test_scan_finds_reads():
    source = "def f(v):\n    return v._a_half @ x._c0 + v.c0 + _k_half\n"
    assert private_reads(source) == [(2, "_a_half"), (2, "_c0")]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "model.py"),
                         ids=lambda p: f"qplab/{p.name}")
def test_coefficient_form_stays_in_model(path):
    assert private_reads(path.read_text()) == []

"""Only ``model`` reads the coefficient form of ``TrigPotential``, and only
``transfer`` runs the stepping kernel.

The wave vectors, coefficient halves, constant term and strip guard are
private to ``model``, which evaluates the potential on and off orbits; the
other library modules reach the potential through that evaluator and the
public methods.  Likewise the stepping loop, its rescale period and the
closing of its product are private to ``transfer``; the other modules read
products through ``cocycle_batch``.  Tests and their ``conftest`` may read
either to build oracles.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qplab"
PRIVATE = {"_k_half", "_a_half", "_b_half", "_c0", "_k_all", "_c_all",
           "_check_strip"}
KERNEL = {"_final", "_unit", "_log_opnorm", "_rescale", "_period", "_LOG2",
          "_LOG_GROWTH"}


def private_reads(source: str, names=PRIVATE):
    """(line, name) of each attribute read or import of one of ``names``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            found.extend((node.lineno, alias.name) for alias in node.names)
    return [(line, name) for line, name in found if name in names]


def test_scan_finds_reads():
    source = "def f(v):\n    return v._a_half @ x._c0 + v.c0 + _k_half\n"
    assert private_reads(source) == [(2, "_a_half"), (2, "_c0")]


def test_scan_finds_kernel_imports():
    source = ("from .transfer import _final, box_diagonal\n"
              "m = transfer._unit(rows)\n_period = 3\n")
    assert private_reads(source, KERNEL) == [(1, "_final"), (2, "_unit")]


def modules_but(name):
    return pytest.mark.parametrize(
        "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != name),
        ids=lambda p: f"qplab/{p.name}")


@modules_but("model.py")
def test_coefficient_form_stays_in_model(path):
    assert private_reads(path.read_text()) == []


@modules_but("transfer.py")
def test_stepping_kernel_stays_in_transfer(path):
    assert private_reads(path.read_text(), KERNEL) == []

"""Protocols own their behaviour: no shared module dispatches on a name.

Everything protocol-specific lives in ``repro/core/protocols/`` and
``repro/baselines/``; shared modules call the protocol's hooks or read
flags from the prepare payload.  This tree-wide AST scan fails on

* any comparison, outside those two packages, of a value against a
  registered protocol name -- directly (``x == "paxos"``) or through a
  tuple, list or set of names (``x in ("2pc", "after")``);
* any read of a ``protocol`` field from a message payload inside
  ``repro/integration/`` -- participants act on what the payload asks
  for, not on who asks.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro
from repro.core.protocols import protocol_names

SRC = Path(repro.__file__).resolve().parent
OWNERS = (SRC / "core" / "protocols", SRC / "baselines")
NAMES = frozenset(protocol_names())


def _name_literals(node: ast.expr) -> list[str]:
    """Protocol names a comparison operand spells out literally."""
    if isinstance(node, ast.Constant) and node.value in NAMES:
        return [node.value]
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return [
            element.value
            for element in node.elts
            if isinstance(element, ast.Constant) and element.value in NAMES
        ]
    return []


def name_comparisons(tree: ast.AST) -> list[tuple[int, list[str]]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            names = [
                name
                for operand in (node.left, *node.comparators)
                for name in _name_literals(operand)
            ]
            if names:
                found.append((node.lineno, names))
    return found


def _is_payload(node: ast.expr) -> bool:
    return (isinstance(node, ast.Name) and node.id == "payload") or (
        isinstance(node, ast.Attribute) and node.attr == "payload"
    )


def payload_protocol_reads(tree: ast.AST) -> list[int]:
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and _is_payload(node.func.value)
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value == "protocol"
        ) or (
            isinstance(node, ast.Subscript)
            and _is_payload(node.value)
            and isinstance(node.slice, ast.Constant)
            and node.slice.value == "protocol"
        ):
            found.append(node.lineno)
    return found


def _shared_modules() -> list[Path]:
    return [
        path
        for path in sorted(SRC.rglob("*.py"))
        if not any(owner in path.parents for owner in OWNERS)
    ]


def test_scan_covers_the_shared_modules():
    modules = {path.relative_to(SRC).as_posix() for path in _shared_modules()}
    assert {"core/recovery.py", "core/gtm.py", "core/pool.py",
            "integration/comm_local.py", "integration/federation.py",
            "check/cli.py"} <= modules
    assert not any(m.startswith(("core/protocols/", "baselines/")) for m in modules)


def test_detectors_catch_what_they_claim():
    sample = ast.parse(
        'a = x == "paxos"\n'
        'b = p in ("2pc", "short_commit")\n'
        'c = q not in {"before"}\n'
        'd = "after" != y\n'
        'e = kind == "vote"\n'
        'f = message.payload.get("protocol", "2pc")\n'
        'g = payload["protocol"]\n'
        'h = payload.get("force_prepare")\n'
    )
    assert name_comparisons(sample) == [
        (1, ["paxos"]), (2, ["2pc", "short_commit"]), (3, ["before"]), (4, ["after"]),
    ]
    assert payload_protocol_reads(sample) == [6, 7]


def test_no_protocol_name_comparison_outside_the_protocols():
    offenders = {
        f"{path.relative_to(SRC).as_posix()}:{line}": names
        for path in _shared_modules()
        for line, names in name_comparisons(ast.parse(path.read_text()))
    }
    assert offenders == {}


def test_no_participant_reads_a_protocol_name_from_the_payload():
    offenders = [
        f"{path.relative_to(SRC).as_posix()}:{line}"
        for path in sorted((SRC / "integration").rglob("*.py"))
        for line in payload_protocol_reads(ast.parse(path.read_text()))
    ]
    assert offenders == []

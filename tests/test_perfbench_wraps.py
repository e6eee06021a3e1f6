"""perfbench's traced mode wraps simulator methods by name.

``perfbench/layers.py`` replaces ``sim.<name>`` (and attributes of
``sim``'s parts) with span-recording wrappers, and its observers
receive the wrapped call's positional arguments.  A rename or a new
positional parameter on the simulator side breaks the traced benchmark
only when it runs; these checks read the file (without importing it)
and catch both in tier 1.
"""

import ast
import inspect
from pathlib import Path

from repro.config import SimConfig
from repro.simulator import Simulator

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
#: how many leading parameters of an observer method are not the
#: wrapped call's arguments: ``before(*args)`` and
#: ``after(token, result, *args)``, after ``self``
OBSERVER_PREFIX = {"before": 1, "after": 3}


def _owner_path(node: ast.expr) -> list[str] | None:
    """``sim.a.b`` -> ["a", "b"]; None unless rooted at ``sim``."""
    path: list[str] = []
    while isinstance(node, ast.Attribute):
        path.insert(0, node.attr)
        node = node.value
    return path if isinstance(node, ast.Name) and node.id == "sim" else None


def _wraps():
    """(owner path, name, {"before"/"after": observer method name})
    for every ``rec.wrap(sim…, "<name>", …)`` call."""
    tree = ast.parse(LAYERS.read_text())
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "wrap" and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)):
            continue
        path = _owner_path(node.args[0])
        if path is None:
            continue
        observers = {
            kw.arg: kw.value.attr for kw in node.keywords
            if kw.arg in OBSERVER_PREFIX and isinstance(kw.value, ast.Attribute)
        }
        found.append((path, node.args[1].value, observers))
    return tree, found


def _positional(params) -> list[str]:
    return [p.name for p in params if p.kind in (
        p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]


def test_every_wrapped_name_exists_on_a_simulator():
    _, wraps = _wraps()
    names = {name for path, name, _ in wraps if not path}
    # the scan and the stall poll stay wrapped by name
    assert {"_find_conflict", "_stall_retry", "_step"} <= names
    sim = Simulator(SimConfig(n_cores=2), scheme="suv")
    for path, name, _ in wraps:
        owner = sim
        for attr in path:
            owner = getattr(owner, attr)
        target = getattr(owner, name, None)
        assert callable(target), "sim." + ".".join([*path, name])


def test_observers_take_the_wrapped_call_arguments():
    tree, wraps = _wraps()
    methods = {
        node.name: node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
    }
    sim = Simulator(SimConfig(n_cores=2), scheme="suv")
    checked = 0
    for path, name, observers in wraps:
        owner = sim
        for attr in path:
            owner = getattr(owner, attr)
        wrapped = _positional(
            inspect.signature(getattr(owner, name)).parameters.values())
        for kind, method in observers.items():
            n_args = len(methods[method].args.args)
            assert n_args - OBSERVER_PREFIX[kind] == len(wrapped), (
                method, name)
            checked += 1
    assert checked >= 3  # _poll_before, _poll_after, _scan_after

"""No definition in ``src/`` goes unreferenced.

A function, method or class whose name appears nowhere but in its own
definition — across ``src/``, ``tests/``, ``benchmarks/``,
``perfbench/`` and ``examples/`` — is code nothing runs.  Names count
as used wherever they appear as an identifier or inside a string
literal, so ``getattr`` dispatch by a literal name and method wrapping
by name (perfbench) count as uses.  Dunder methods are called by the
interpreter and are skipped.
"""

import ast
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

SELF = Path(__file__).resolve()
REPO = SELF.parent.parent
SEARCHED = ("src", "tests", "benchmarks", "perfbench", "examples")
WORD = re.compile(r"[A-Za-z_]\w*")

#: definitions that are reached only through a name built at run time
ALLOWED = {
    # FaultInjector dispatches ``getattr(self, f"_do_{action.kind}")``
    "_do_backoff_scale",
    "_do_delay_core",
    "_do_kill_tx",
    "_do_pool_cap",
    "_do_sig_storm",
    "_do_stall_jitter",
    "_do_table_squeeze",
    # ``@register_scheme`` factories, reached through the scheme registry
    "_make_dyntm",
    "_make_dyntm_suv",
}


def _uses() -> Counter:
    uses: Counter = Counter()
    for top in SEARCHED:
        for path in sorted((REPO / top).rglob("*.py")):
            if path == SELF:
                continue  # the allowlist is not a use
            source = io.StringIO(path.read_text())
            for tok in tokenize.generate_tokens(source.readline):
                if tok.type == tokenize.NAME:
                    uses[tok.string] += 1
                elif tok.type == tokenize.STRING:
                    uses.update(WORD.findall(tok.string))
    return uses


def _definitions() -> dict[str, list[str]]:
    defs: dict[str, list[str]] = {}
    for path in sorted((REPO / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if node.name.startswith("__") and node.name.endswith("__"):
                    continue
                defs.setdefault(node.name, []).append(
                    f"{path.relative_to(REPO)}:{node.lineno}")
    return defs


def test_every_src_definition_is_referenced():
    uses = _uses()
    defs = _definitions()
    # each definition's own ``def name`` is one use of the name
    unreferenced = {
        name: sites for name, sites in defs.items()
        if uses[name] <= len(sites)
    }
    dead = {n: s for n, s in unreferenced.items() if n not in ALLOWED}
    assert not dead, f"definitions nothing references: {dead}"
    # the allowlist must not outlive what it excuses
    stale = sorted(ALLOWED - set(unreferenced))
    assert not stale, f"allowlisted names now referenced or gone: {stale}"

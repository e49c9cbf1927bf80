"""The mutant list and its edits (stdlib only).

A mutant is one small, deliberate bug: a file, a function in it, and
one edit from a fixed set of AST operators.  :func:`load` reads them
from ``mutants.txt``; :func:`apply` makes the edit in a module's source
text and returns the new text.  The edit is spliced in at the site's
source positions, so every other line, comment included, stays as it
was.

The operators (``site`` and ``to`` are the entry's fields):

* ``delete-call`` — the call statement ``site`` becomes ``pass``;
* ``replace-arg`` — the expression ``site`` (a call argument, an
  operand, a right-hand side, or the module an import reads from)
  becomes ``to``;
* ``shift-const`` — the constant or expression ``site`` becomes
  ``site + to``;
* ``swap`` — the statements ``site`` and ``to``, in one block, trade
  places;
* ``return-early`` — ``return to`` (a bare ``return`` when ``to`` is
  empty) goes in just before the statement ``site``.

Sites are Python source, compared after a parse and unparse, so their
spacing does not matter.  A compound statement is named by its header
line (``for page in pages:``).  Only the function's own body is
searched, not the functions and classes nested in it, which have
qualnames of their own (``Outer.method.inner``); ``<module>`` names a
module's top level.  A site must match exactly once: no match, or more
than one, is a :class:`SiteError`, never a silent survivor.
"""

from __future__ import annotations

import ast
import configparser
import functools
from dataclasses import dataclass
from pathlib import Path

OPS = ("delete-call", "replace-arg", "shift-const", "swap", "return-early")

#: The version of ``results.json``'s format.
SCHEMA = 1

MUTANTS_FILE = Path(__file__).with_name("mutants.txt")

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class SiteError(ValueError):
    """A mutant whose site does not match its function exactly once."""


@dataclass(frozen=True)
class Mutant:
    id: str
    file: str          # relative to the repository root
    function: str      # qualname, or "<module>"
    op: str
    site: str
    to: str
    why: str           # the defect, in one line


def load(path: Path = MUTANTS_FILE) -> list[Mutant]:
    """Every mutant in *path*, in file order."""
    parser = configparser.ConfigParser(interpolation=None,
                                       delimiters=("=",))
    parser.read_string(path.read_text())
    mutants = []
    for name in parser.sections():
        entry = parser[name]
        mutant = Mutant(name, entry["file"], entry["function"],
                        entry["op"], entry["site"], entry.get("to", ""),
                        entry["why"])
        if mutant.op not in OPS:
            raise SiteError(f"{name}: unknown op {mutant.op!r}")
        mutants.append(mutant)
    return mutants


def _own_nodes(scope: ast.AST):
    """Every node in *scope*'s body, not descending into nested
    functions or classes."""
    stack = list(reversed(getattr(scope, "body", [])))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(reversed(list(ast.iter_child_nodes(node))))


def _scope(tree: ast.Module, qualname: str) -> ast.AST:
    node: ast.AST = tree
    if qualname == "<module>":
        return node
    for part in qualname.split("."):
        found = [n for n in _own_nodes(node)
                 if isinstance(n, _SCOPES) and n.name == part]
        if len(found) != 1:
            raise SiteError(f"{qualname}: {len(found)} definitions of "
                            f"{part!r}")
        node = found[0]
    return node


def _first_line(node: ast.AST) -> str:
    return ast.unparse(node).split("\n")[0]


def _statement(scope: ast.AST, site: str) -> ast.stmt:
    try:
        want = ast.parse(site).body[0]
    except SyntaxError:       # a compound statement's header alone
        want = ast.parse(site + "\n    pass").body[0]
    found = [n for n in _own_nodes(scope) if type(n) is type(want)
             and _first_line(n) == _first_line(want)]
    if len(found) != 1:
        raise SiteError(f"statement {site!r} matches {len(found)} times")
    return found[0]


def _expression(scope: ast.AST, site: str) -> ast.AST:
    want = ast.parse(site.strip(), mode="eval").body
    text = ast.unparse(want)
    found = [n for n in _own_nodes(scope)
             if type(n) is type(want) and ast.unparse(n) == text
             or isinstance(n, ast.ImportFrom) and n.module == site.strip()]
    if len(found) != 1:
        raise SiteError(f"expression {site!r} matches {len(found)} times")
    return found[0]


@functools.lru_cache(maxsize=8)
def _parse(source: str) -> ast.Module:
    """One parse per distinct source: mutants of one file share it (the
    tree is only read)."""
    return ast.parse(source)


class _Text:
    """A module's source as bytes, addressed by AST positions (whose
    columns are UTF-8 byte offsets)."""

    def __init__(self, source: str) -> None:
        self.data = source.encode()
        self.starts = [0]
        for line in self.data.splitlines(keepends=True):
            self.starts.append(self.starts[-1] + len(line))

    def span(self, node: ast.AST) -> tuple[int, int]:
        return (self.starts[node.lineno - 1] + node.col_offset,
                self.starts[node.end_lineno - 1] + node.end_col_offset)

    def text(self, node: ast.AST) -> str:
        start, end = self.span(node)
        return self.data[start:end].decode()

    def splice(self, *edits: tuple[int, int, str]) -> str:
        data = self.data
        for start, end, new in sorted(edits, reverse=True):
            data = data[:start] + new.encode() + data[end:]
        return data.decode()


def _grouped(expr: str) -> str:
    """*expr*, parenthesized unless it is an atom."""
    node = ast.parse(expr.strip(), mode="eval").body
    atoms = (ast.Name, ast.Constant, ast.Attribute, ast.Call,
             ast.Subscript)
    return expr.strip() if isinstance(node, atoms) else f"({expr.strip()})"


def apply(mutant: Mutant, source: str) -> str:
    """*source* with *mutant*'s edit made; raises :class:`SiteError`
    when the site does not match exactly once or the edit is a no-op,
    and ``SyntaxError`` when the edited module does not parse."""
    scope = _scope(_parse(source), mutant.function)
    text = _Text(source)
    op = mutant.op
    if op == "delete-call":
        node = _statement(scope, mutant.site)
        if not (isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Call)):
            raise SiteError(f"{mutant.site!r} is not a call statement")
        edits = [(*text.span(node), "pass")]
    elif op == "replace-arg":
        node = _expression(scope, mutant.site)
        if isinstance(node, ast.ImportFrom):
            new = ast.ImportFrom(mutant.to.strip(), node.names, node.level)
            edits = [(*text.span(node), ast.unparse(new))]
        else:
            edits = [(*text.span(node), _grouped(mutant.to))]
    elif op == "shift-const":
        node = _expression(scope, mutant.site)
        edits = [(*text.span(node), f"({text.text(node)} + {mutant.to})")]
    elif op == "swap":
        first = _statement(scope, mutant.site)
        second = _statement(scope, mutant.to)
        if not any(first in block and second in block
                   for parent in ast.walk(scope)
                   for block in (getattr(parent, "body", None),
                                 getattr(parent, "orelse", None),
                                 getattr(parent, "finalbody", None))
                   if isinstance(block, list)):
            raise SiteError("swapped statements must share a block")
        edits = [(*text.span(first), text.text(second)),
                 (*text.span(second), text.text(first))]
    else:   # return-early
        node = _statement(scope, mutant.site)
        start, _ = text.span(node)
        ret = f"return {mutant.to.strip()}".rstrip()
        edits = [(start, start, f"{ret}\n{' ' * node.col_offset}")]
    mutated = text.splice(*edits)
    if mutated == source:
        raise SiteError(f"{mutant.id}: the edit changes nothing")
    ast.parse(mutated)
    return mutated


def apply_in(mutant: Mutant, root: Path) -> None:
    """Make *mutant*'s edit in the tree copy at *root*."""
    path = root / mutant.file
    path.write_text(apply(mutant, path.read_text()))

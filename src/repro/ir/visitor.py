"""Generic AST traversal and rewriting helpers.

These operate structurally over the dataclass-based AST, so midend passes
do not each need to know every node's field layout.  They visit only a
node's owned fields (:func:`~repro.frontend.astnodes.owned_fields`): the
``loc``/``type``/``decl`` annotations are references, not children.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, List, Optional

from repro.frontend import astnodes as ast


def children(node: ast.Node) -> Iterator[ast.Node]:
    """Yield the direct child nodes of ``node``."""
    for name in ast.owned_fields(type(node)):
        yield from _nodes_in(getattr(node, name))


def _nodes_in(value: Any) -> Iterator[ast.Node]:
    if isinstance(value, ast.Node):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _nodes_in(item)


def walk(node: ast.Node) -> Iterator[ast.Node]:
    """Depth-first pre-order walk of the subtree rooted at ``node``."""
    yield node
    for child in children(node):
        yield from walk(child)


def walk_expressions(node: ast.Node) -> Iterator[ast.Expr]:
    """Yield every expression in the subtree."""
    for n in walk(node):
        if isinstance(n, ast.Expr):
            yield n


def rewrite_expressions(
    node: ast.Node, fn: Callable[[ast.Expr], Optional[ast.Expr]]
) -> ast.Node:
    """Rewrite expressions bottom-up, *in place*, returning ``node``.

    ``fn`` receives each expression after its children have been rewritten
    and returns a replacement or ``None`` to keep it.  Statement and
    declaration structure is preserved.
    """

    def rewrite_value(value: Any) -> Any:
        if isinstance(value, ast.Expr):
            _rewrite_children(value)
            replacement = fn(value)
            return replacement if replacement is not None else value
        if isinstance(value, ast.Node):
            _rewrite_children(value)
            return value
        if isinstance(value, list):
            return [rewrite_value(v) for v in value]
        if isinstance(value, tuple):
            return tuple(rewrite_value(v) for v in value)
        return value

    def _rewrite_children(n: ast.Node) -> None:
        for name in ast.owned_fields(type(n)):
            setattr(n, name, rewrite_value(getattr(n, name)))

    _rewrite_children(node)
    if isinstance(node, ast.Expr):
        replacement = fn(node)
        if replacement is not None:
            return replacement
    return node


def collect_statements(stmt: ast.Stmt) -> List[ast.Stmt]:
    """Flatten a statement tree into the list of leaf statements."""
    out: List[ast.Stmt] = []

    def visit(s: ast.Stmt) -> None:
        if isinstance(s, ast.BlockStmt):
            for inner in s.stmts:
                visit(inner)
        elif isinstance(s, ast.IfStmt):
            out.append(s)
            visit(s.then_body)
            if s.else_body is not None:
                visit(s.else_body)
        elif isinstance(s, ast.SwitchStmt):
            out.append(s)
            for case in s.cases:
                if case.body is not None:
                    visit(case.body)
        else:
            out.append(s)

    visit(stmt)
    return out

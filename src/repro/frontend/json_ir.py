"""µP4-IR JSON serialization.

The paper's frontend "performs basic checks at the source level and
serializes the µP4-IR to JSON" (§5.1) so that modules can be compiled
once and linked later.  We serialize the *parsed AST* of a module; on
load the AST is reconstructed and re-checked, which both restores all
semantic annotations and re-validates the IR against the current builtin
environment (externs may evolve between compiler versions).
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.errors import CompileError
from repro.frontend import astnodes as ast
from repro.frontend.source import SourceLocation
from repro.frontend.typecheck import Module, TypeChecker
from repro.ir.visitor import children

IR_VERSION = 1

# Node registry: every concrete AST class addressable by name.
_NODE_CLASSES: Dict[str, type] = {
    name: obj
    for name, obj in vars(ast).items()
    if isinstance(obj, type) and issubclass(obj, ast.Node)
}


def node_to_dict(node: Any) -> Any:
    """Recursively convert an AST node tree to JSON-safe data."""
    # Named semantic types are serialized *by reference*: the checker
    # resolves TypeName nodes to shared HeaderType/StructType/... objects
    # in place, and inlining those here would duplicate (and detach) the
    # declarations they came from.
    if (
        isinstance(node, (ast.HeaderType, ast.StructType, ast.EnumType, ast.ExternType))
        and node.name
    ):
        args = [node_to_dict(a) for a in getattr(node, "type_args", [])]
        return {"!node": "TypeName", "name": node.name, "args": args}
    if isinstance(node, ast.Node):
        out: Dict[str, Any] = {"!node": type(node).__name__}
        # Locations and annotations are not part of the IR.
        for name in ast.owned_fields(type(node)):
            out[name] = node_to_dict(getattr(node, name))
        return out
    if isinstance(node, SourceLocation):
        return None
    if isinstance(node, (list, tuple)):
        return [node_to_dict(x) for x in node]
    if isinstance(node, dict):
        return {k: node_to_dict(v) for k, v in node.items()}
    if node is None or isinstance(node, (bool, int, str)):
        return node
    raise CompileError(f"cannot serialize {type(node).__name__} to µP4-IR JSON")


def dict_to_node(data: Any) -> Any:
    """Inverse of :func:`node_to_dict`."""
    if isinstance(data, dict) and "!node" in data:
        cls = _NODE_CLASSES.get(data["!node"])
        if cls is None:
            raise CompileError(f"unknown µP4-IR node kind {data['!node']!r}")
        kwargs = {}
        field_names = ast.owned_fields(cls)
        for key, value in data.items():
            if key == "!node" or key not in field_names:
                continue
            kwargs[key] = dict_to_node(value)
        node = cls(**kwargs)
        return node
    if isinstance(data, list):
        items = [dict_to_node(x) for x in data]
        return items
    if isinstance(data, dict):
        return {k: dict_to_node(v) for k, v in data.items()}
    return data


def _fix_tuples(node: Any) -> None:
    """Restore (name, type) tuples in header/struct field lists."""
    if isinstance(node, (ast.HeaderDecl, ast.StructDecl)):
        node.fields = [tuple(f) for f in node.fields]  # type: ignore[misc]
    if isinstance(node, ast.ParserState):
        node.select_cases = [tuple(c) for c in node.select_cases]  # type: ignore[misc]
    for child in children(node):
        _fix_tuples(child)


def dump_module(module: Module) -> str:
    """Serialize a checked module's source AST to µP4-IR JSON text."""
    payload = {
        "version": IR_VERSION,
        "name": module.name,
        "program": node_to_dict(module.source),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def load_module(text: str) -> Module:
    """Load µP4-IR JSON and re-check it into a :class:`Module`."""
    payload = json.loads(text)
    version = payload.get("version")
    if version != IR_VERSION:
        raise CompileError(
            f"µP4-IR version mismatch: file has {version}, compiler wants "
            f"{IR_VERSION}"
        )
    source = dict_to_node(payload["program"])
    if not isinstance(source, ast.SourceProgram):
        raise CompileError("µP4-IR payload is not a SourceProgram")
    _fix_tuples(source)
    return TypeChecker(source, payload.get("name", "<ir>")).check()

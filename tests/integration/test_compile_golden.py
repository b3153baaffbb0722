"""Golden compile outputs: P1-P8 through the whole pass pipeline.

Each catalog program is compiled the way the compile-catalog benchmark
compiles it (``helpers.compile_catalog_program``).  Five outputs per
program are hashed and pinned:

- ``micro`` / ``mono``: the printed composed pipeline (variables,
  actions, tables, statements, and the native parser and emit list of
  the monolithic build);
- ``tna_micro`` / ``tna_mono``: ``TnaReport.to_dict()``;
- ``v1model``: the generated V1Model ``source_text``.

Compiler refactors and speed-ups must keep every pin: any change to a
byte of the composed IR, the TNA resources or the generated source fails
here.  A change that is meant to move an output re-pins deliberately;
print the current hashes with

    PYTHONPATH=src:. python -m tests.integration.test_compile_golden
"""

import hashlib
import json

import pytest

from repro.ir.printer import Printer, expr_text, print_decl, print_stmt

from tests.integration.helpers import (
    RECIPES,
    catalog_sources,
    compile_catalog_program,
)

GOLDEN = {
    "P1": {
        "micro": "07ac2bcb60e8a17a",
        "mono": "c271bf3bce98f6ea",
        "tna_micro": "871594b7ad3a1a04",
        "tna_mono": "261665cac318491c",
        "v1model": "65e9c862e803eb56",
    },
    "P2": {
        "micro": "e0f40f87749e84ba",
        "mono": "ee3aae856e4da47f",
        "tna_micro": "4408c4386e60361c",
        "tna_mono": "e3c623a9b5f5c3d9",
        "v1model": "0c9aba51f9677872",
    },
    "P3": {
        "micro": "a07eef604e56d0d6",
        "mono": "d1925de127c0eb56",
        "tna_micro": "e13c023c203a5098",
        "tna_mono": "3077886034edda62",
        "v1model": "1d1f3bce9c04e353",
    },
    "P4": {
        "micro": "e5d03f915152548d",
        "mono": "90c134a61070b3ef",
        "tna_micro": "bcd15fbe66dcdce1",
        "tna_mono": "7396d5e56a1d8e58",
        "v1model": "d6cba074bce5032e",
    },
    "P5": {
        "micro": "9db0aad87b0842dc",
        "mono": "cb65362b4e7ca270",
        "tna_micro": "d58c66590f2a9ec9",
        "tna_mono": "aae7c0305d08878c",
        "v1model": "b23eefeaa0385d2f",
    },
    "P6": {
        "micro": "450d7cbb9c1810eb",
        "mono": "a095d89cc0505fe5",
        "tna_micro": "44e68b4777b7560e",
        "tna_mono": "e354b707295061ab",
        "v1model": "9a8b9f74e6cc5c54",
    },
    "P7": {
        "micro": "7ba7b8bd4c7f1515",
        "mono": "75c0ab75e992fdee",
        "tna_micro": "8075000c2f4d7a26",
        "tna_mono": "f90ea8001fac425a",
        "v1model": "1437ae31433f0208",
    },
    "P8": {
        "micro": "278c58cda65c4dc4",
        "mono": "5f713efb737e07a0",
        "tna_micro": "7f06d948933a1abc",
        "tna_mono": "766f1f2716de3d35",
        "v1model": "760067f0b013e600",
    },
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def render_pipeline(composed) -> str:
    """The composed IR as text: everything a backend consumes."""
    parts = [f"{composed.mode} byte_stack={composed.byte_stack_size}"]
    parts += [
        f"var {name}: {Printer().type(t)}"
        for name, t in composed.variables.items()
    ]
    parts += [print_decl(a) for a in composed.actions.values()]
    parts += [print_decl(t) for t in composed.tables.values()]
    parts += [print_stmt(s) for s in composed.statements]
    if composed.native_parser is not None:
        parts.append(print_decl(composed.native_parser))
    if composed.native_emits is not None:
        parts += [f"emit {expr_text(e)}" for e in composed.native_emits]
    return "\n".join(parts)


def compile_outputs(name: str) -> dict:
    """Hashes of the five pinned outputs of one catalog program."""
    micro, v1model, mono = compile_catalog_program(name, *catalog_sources(name))
    return {
        "micro": _digest(render_pipeline(micro.composed)),
        "mono": _digest(render_pipeline(mono.composed)),
        "tna_micro": _digest(json.dumps(micro.target_output.to_dict())),
        "tna_mono": _digest(json.dumps(mono.target_output.to_dict())),
        "v1model": _digest(v1model.source_text),
    }


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_compile_outputs_match_golden(name):
    assert compile_outputs(name) == GOLDEN[name]


def test_every_catalog_program_is_pinned():
    assert sorted(GOLDEN) == sorted(RECIPES)


if __name__ == "__main__":
    print(json.dumps({n: compile_outputs(n) for n in sorted(RECIPES)}, indent=4))

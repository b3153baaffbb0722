"""The ``Node.clone`` contract and annotation-free traversal.

Owned fields are copied; annotations (``loc``, ``type``, ``decl``) and
the checker's ``resolved`` back-references are shared, unless they point
into the cloned subtree, in which case they follow the copy.
"""

from repro.frontend import astnodes as ast
from repro.frontend.typecheck import check_program
from repro.ir.printer import print_decl
from repro.ir.visitor import walk

SRC = """
header eth_h { bit<48> dst; bit<48> src; bit<16> etherType; }
header ipv4_h { bit<8> ttl; bit<8> proto; bit<32> dst; }
struct hdr_t { eth_h eth; ipv4_h ipv4; }

program T : implements Unicast<> {
  parser P(extractor ex, pkt p, out hdr_t h) {
    state start { ex.extract(p, h.eth); ex.extract(p, h.ipv4); transition accept; }
  }
  control C(pkt p, inout hdr_t h, im_t im) {
    action dec() { h.ipv4.ttl = h.ipv4.ttl - 1; }
    action drop() {}
    table t {
      key = { h.ipv4.dst : exact; }
      actions = { dec; drop; }
      default_action = drop();
    }
    apply { t.apply(); }
  }
  control D(emitter em, pkt p, in hdr_t h) { apply { em.emit(p, h.eth); } }
}
T(P, C, D) main;
"""


def control():
    return check_program(SRC).programs["T"].control


def ttl_lvalue(ctrl):
    """``h.ipv4.ttl``, the left-hand side in action ``dec``."""
    dec = next(d for d in ctrl.locals if d.name == "dec")
    return dec.body.stmts[0].lhs


def table_call(ctrl):
    return ctrl.apply_body.stmts[0].call


class TestClone:
    def test_owned_subnodes_are_disjoint(self):
        original = control()
        copy = original.clone()
        assert {id(n) for n in walk(original)}.isdisjoint(id(n) for n in walk(copy))

    def test_clone_equals_original(self):
        original = control()
        assert original.clone() == original

    def test_mutating_clone_leaves_original_text(self):
        original = control()
        before = print_decl(original)
        copy = original.clone()
        ttl_lvalue(copy).member = "proto"
        copy.locals[0].name = "renamed"
        copy.apply_body.stmts.clear()
        assert print_decl(original) == before

    def test_annotations_are_shared(self):
        original = ttl_lvalue(control())
        copy = original.clone()
        assert copy is not original
        assert copy.loc is original.loc
        assert copy.type is original.type
        assert copy.base.type is original.base.type
        assert copy.base.base.decl is original.base.base.decl

    def test_shared_node_stays_shared(self):
        shared = ast.IntLit(value=1, width=8)
        block = ast.BlockStmt(
            stmts=[
                ast.AssignStmt(lhs=ast.PathExpr(name="a"), rhs=shared),
                ast.AssignStmt(lhs=ast.PathExpr(name="b"), rhs=shared),
            ]
        )
        copy = block.clone()
        assert copy.stmts[0].rhs is copy.stmts[1].rhs
        assert copy.stmts[0].rhs is not shared

    def test_reference_inside_subtree_follows_copy(self):
        copy = control().clone()
        kind, table = table_call(copy).resolved
        assert kind == "table"
        assert table is next(d for d in copy.locals if d.name == "t")

    def test_reference_outside_subtree_is_shared(self):
        original = control()
        call = table_call(original)
        assert call.clone().resolved[1] is call.resolved[1]


class TestWalk:
    def test_walk_skips_type_annotations(self):
        lvalue = ttl_lvalue(control())
        assert isinstance(lvalue.base.base.type, ast.StructType)
        nodes = list(walk(lvalue))
        assert nodes == [lvalue, lvalue.base, lvalue.base.base]
        assert [type(n) for n in nodes] == [
            ast.MemberExpr,
            ast.MemberExpr,
            ast.PathExpr,
        ]

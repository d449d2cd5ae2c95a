"""Guard against library code that only tests reach.

Every public function, class, method and module-level constant in
src/decoymix must be referenced somewhere in src/ outside its own definition:
by the engine, the CLI, or another library function they use. Names are
matched by identifier, not by type, so the guard can miss dead code but never
flags code the program uses.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "decoymix"

# Reference implementations that tests compare the program against.
ALLOWED = {
    # test_adversary.test_link_matches_brute_force_oracle_on_500_instances
    # and test_acceptance.test_c05 check link() against it
    "adversary.brute_force_oracle",
    # test_chaff_filter.test_round_trip_behaves_identically inverts
    # serialize() with it
    "chaff_filter.ChaffFilter.deserialize",
    # the filter's wire format: runs charge serialized_size() in its place,
    # and test_chaff_filter.test_serialized_size_is_the_length_of_every_serialization
    # checks the two against each other
    "chaff_filter.ChaffFilter.serialize",
    # the filter-size formulas of test_acceptance.test_c02 and test_c03;
    # test_chaff_filter.test_deletable_model_matches_actual_serialization
    # checks the deletable one against serialize()
    "chaff_filter.paper_reported_size_bytes",
    "chaff_filter.deletable_size_bytes",
    "chaff_filter.digest_list_size",
    # test_engine.test_rsu_deliveries_follow_the_chunk_latency_closed_form
    # checks the engine's RSU chunk schedule against it
    "engine.chunk_delivery_latency",
    # test_engine.test_peer_responder_is_the_lowest_id_holder_in_range
    # checks the engine's peer responder against it
    "engine.choose_filter_responder",
}


def _definitions(module: str, tree: ast.Module):
    """(qualified name, name, node) of each public module-level function,
    public module-level constant, public module-level class and public
    method of a module-level class. A constant's node is the assignment
    that binds it."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                yield f"{module}.{node.name}", node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n for t in targets for n in ast.walk(t)):
                if isinstance(name, ast.Name) and not name.id.startswith("_"):
                    yield f"{module}.{name.id}", name.id, node
        elif isinstance(node, ast.ClassDef):
            if not node.name.startswith("_"):
                yield f"{module}.{node.name}", node.name, node
            for item in node.body:
                if (
                    isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not item.name.startswith("_")
                ):
                    yield f"{module}.{node.name}.{item.name}", item.name, item


def _references(tree: ast.Module):
    """Each identifier that a Name or Attribute node of tree reads, with
    the node."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node


def unreached_surface() -> list[str]:
    """Qualified names of public functions, classes, methods and constants
    that nothing in src/ references outside their own definition."""
    trees = {
        p.stem: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
        for p in sorted(SRC.glob("*.py"))
    }
    refs: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for name, node in _references(tree):
            refs.setdefault(name, []).append(node)
    unused = []
    for module, tree in trees.items():
        for qualname, name, node in _definitions(module, tree):
            own = {id(n) for n in ast.walk(node)}
            if not any(id(n) not in own for n in refs.get(name, ())):
                unused.append(qualname)
    return unused



def test_every_public_function_is_reached_from_src():
    unused = [q for q in unreached_surface() if q not in ALLOWED]
    assert unused == [], (
        "public functions, classes, methods or constants that nothing in src/ "
        "reads; "
        f"delete them, or list a reference implementation in ALLOWED: {unused}"
    )


def test_allow_list_names_existing_test_only_code():
    # an entry that src/ has started to use, or that is gone, is stale
    assert ALLOWED <= set(unreached_surface())

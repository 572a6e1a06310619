"""The library holds only what a program path reaches.

Every top-level function and class, and every method that is not a dunder,
in src/soclecoh must be named somewhere in src/ outside its own definition,
or be a traced entry point in bench/tracer.py's TARGETS.  Code that only
tests call belongs in tests/helpers.py.  A function or class counts as
reached when its name appears as a word in any other line of src/; a method
only when it appears as an attribute, `.name`, so that a method called
`value` is not reached by the ordinary word "value".

An attribute cannot tell apart two classes that define the same method name,
so every such name must be listed in SHARED_METHOD_NAMES, with the program
call that reaches each definition.
"""

import ast
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "soclecoh").glob("*.py"))


# Method names that more than one src/ class defines, mapped to the classes.
# The calls reaching each definition:
#   basis: CyclicTensorResolution.__init__ calls self.basis(k) to build the
#     chain map; ObstructionContext calls em.socle.basis(m) (SocleChain).
#   entries: cli._cochain_dump and cli._cochain_hash call c.entries() on the
#     factored Psi (ConnectingCochain) and _cochain_dump on the --dump-cochains
#     witness (Cochain); ConnectingCochain.materialize calls self.entries().
#   value: CyclicTensorResolution.vanishes_on_chain_map calls f.value(t) on
#     psi_generic's ConnectingCochain and, through is_coboundary, on a Cochain.
SHARED_METHOD_NAMES = {
    "basis": {"cohomology.CyclicTensorResolution", "gmodule.SocleChain"},
    "entries": {"cohomology.Cochain", "cohomology.ConnectingCochain"},
    "value": {"cohomology.Cochain", "cohomology.ConnectingCochain"},
}


def traced_targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {f"{module}.{path}" for module, path, _ in tracer.TARGETS}


def definitions(path):
    """(qualified name, node) of top-level functions and classes and of
    their non-dunder methods."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not (
                    sub.name.startswith("__") and sub.name.endswith("__")
                ):
                    yield f"{node.name}.{sub.name}", sub


def unreached_names(sources, targets):
    lines = {p: p.read_text().splitlines() for p in sources}
    out = []
    for path in sources:
        for qual, node in definitions(path):
            if f"{path.stem}.{qual}" in targets:
                continue
            name = re.escape(qual.split(".")[-1])
            word = re.compile(rf"\.{name}\b" if "." in qual else rf"\b{name}\b")
            own = lines[path][: node.lineno - 1] + lines[path][node.end_lineno :]
            texts = ["\n".join(own)] + ["\n".join(lines[p]) for p in sources if p != path]
            if not any(word.search(text) for text in texts):
                out.append(f"{path.stem}.{qual}")
    return out


def test_every_library_name_has_a_program_caller():
    assert unreached_names(SOURCES, traced_targets()) == []


def shared_method_names(sources):
    """{method name: classes} for each non-dunder method name that more than
    one class in sources defines."""
    owners = {}
    for path in sources:
        for qual, _ in definitions(path):
            if "." in qual:
                cls, name = qual.split(".")
                owners.setdefault(name, set()).add(f"{path.stem}.{cls}")
    return {name: classes for name, classes in owners.items() if len(classes) > 1}


def test_every_shared_method_name_is_listed_with_its_callers():
    assert shared_method_names(SOURCES) == SHARED_METHOD_NAMES

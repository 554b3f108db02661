"""The layering the paper draws: common services know no extension.

Storage methods and attachments are reached through procedure vectors and
recovery handlers registered at run time, so nothing under
``repro/services`` may import a storage method, an access method or the
query layer, or name a storage method's log resource (``"storage.<name>"``)
to single out its records.  Nor does the library lean on an optional
package: it imports no NumPy.
"""

import ast
from pathlib import Path

import repro

BANNED = ("repro.storage", "repro.access", "repro.query")


def imported_modules(path: Path, package: list):
    """Absolute names of what ``path`` imports (``from m import n`` gives
    ``m.n``), relative imports resolved against ``package``, the file's
    package as name parts."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level \
                else []
            module = ".".join(base + ([node.module] if node.module else []))
            yield from (f"{module}.{alias.name}" for alias in node.names)


def resource_literals(path: Path):
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node.value.startswith("storage.")):
            yield node.value


def test_services_import_no_extension_and_name_no_storage_resource():
    services = Path(repro.__file__).parent / "services"
    offenders = []
    for path in sorted(services.rglob("*.py")):
        offenders += [(path.name, module)
                      for module in imported_modules(path,
                                                     ["repro", "services"])
                      if module.startswith(BANNED)]
        offenders += [(path.name, literal)
                      for literal in resource_literals(path)]
    assert offenders == []


def test_the_library_imports_no_numpy():
    """One kernel backend, in pure Python: nothing under ``repro``
    imports NumPy, not even behind a guard."""
    root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        package = ["repro", *path.relative_to(root).parent.parts]
        offenders += [(path.name, module)
                      for module in imported_modules(path, package)
                      if module.split(".")[0] == "numpy"]
    assert offenders == []


#: The built-in access-path type names the query and constraint layers may
#: still spell out, each for the one feature that is that type's alone.
NAMED_ACCESS_PATHS = {
    "join_index": "the join-index join method: the planner costs an "
                  "instance's precomputed pairs and one executor source "
                  "(Executor._join_via_index) walks them",
    "aggregate": "the COUNT(*) fast path (Executor._aggregate_fast_path) "
                 "answers from the aggregate attachment's value",
}


def test_query_and_constraints_name_no_access_path_type():
    """The planner hands eligible predicates to any access path, the path
    binds its own route, and one equality probe
    (``core.attachment.equality_probe``) finds a keyed path for joins and
    constraints, so no string constant under ``repro/query`` or
    ``repro/constraints`` names a type of ``repro/access`` but the listed
    exceptions."""
    from repro.access import builtin_attachment_types
    root = Path(repro.__file__).parent
    names = {attachment.name for attachment in builtin_attachment_types()
             if type(attachment).__module__.startswith("repro.access.")}
    assert set(NAMED_ACCESS_PATHS) <= names
    offenders = []
    for package in ("query", "constraints"):
        for path in sorted((root / package).glob("*.py")):
            offenders += [
                (f"{package}/{path.name}", node.lineno, node.value)
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Constant) and node.value in names
                and node.value not in NAMED_ACCESS_PATHS]
    assert offenders == []


def unused_imports(path: Path):
    """``(line, name)`` for each name an import in ``path`` binds that the
    module never reads: not as a name, not inside a quoted annotation and
    not in its ``__all__`` (a package re-exports that way).  A
    ``__future__`` import is a directive, not a name."""
    tree = ast.parse(path.read_text())
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name.split(".")[0],
                             node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((alias.asname or alias.name, node.lineno)
                            for alias in node.names if alias.name != "*")
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__"
                for target in node.targets):
            used.update(element.value for element in node.value.elts)
        for annotation in (getattr(node, "annotation", None),
                           getattr(node, "returns", None)):
            if isinstance(getattr(annotation, "value", None), str):
                used.update(name.id for name in ast.walk(
                    ast.parse(annotation.value, mode="eval"))
                    if isinstance(name, ast.Name))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_the_library_keeps_no_unused_import():
    root = Path(repro.__file__).parent
    offenders = [(str(path.relative_to(root)), line, name)
                 for path in sorted(root.rglob("*.py"))
                 for line, name in unused_imports(path)]
    assert offenders == []


#: Each generic operation's two forms, per record and per set: a built-in
#: implements one and its base class derives the other.
STORAGE_FORMS = (("insert", "insert_batch"), ("update", "update_batch"),
                 ("delete", "delete_batch"), ("fetch", "fetch_many"))
ATTACHED_FORMS = (("on_insert", "on_insert_batch"),
                  ("on_update", "on_update_batch"),
                  ("on_delete", "on_delete_batch"))
#: The built-ins that keep both forms of one operation, and why.
BOTH_FORMS = {
    ("sharded", "fetch"): "a one-key fetch_many made E24 shard_scatter "
                          "point reads 44.3 µs, this body 41.3 (ten seed-1 "
                          "pairs)",
}


def test_each_builtin_implements_one_form_per_operation():
    """No built-in storage method or attachment type carries two bodies
    for one operation: below the base class, its class defines at most
    one of each pair of forms, but the listed exceptions."""
    from repro import Database
    from repro.core.attachment import AttachmentType
    from repro.core.storage_method import StorageMethod
    registry = Database().registry
    offenders = []
    for extensions, base, forms in (
            (registry.storage_methods, StorageMethod, STORAGE_FORMS),
            (registry.attachment_types, AttachmentType, ATTACHED_FORMS)):
        for extension in extensions:
            defined = set()
            for klass in type(extension).__mro__[
                    :type(extension).__mro__.index(base)]:
                defined.update(vars(klass))
            offenders += [(extension.name, single) for single, batch in forms
                          if {single, batch} <= defined
                          and (extension.name, single) not in BOTH_FORMS]
    assert offenders == []


#: The buffer pool's page calls: what pins, writes under a pin, or frees.
PAGE_CALLS = {"new_page", "fetch", "fetch_image", "pinned", "unpin",
              "free_page", "decoded"}
#: The one page call a tree module keeps: the B-tree descent reads its
#: nodes through ``BufferPool.decoded`` unrolled (the store's ``_read``
#: without the call per level).
TREE_PAGE_CALLS = {("btree_core.py", "_run", "decoded")}


def test_the_trees_reach_their_pages_only_through_the_page_tree():
    """A B-tree or R-tree node is a page of ``access/page_tree.py``: the
    tree modules name none of the buffer pool's page calls and build no
    ``PageView``, so every page they pin, write or free is the store's,
    but for the listed read."""
    access = Path(repro.__file__).parent / "access"
    offenders = set()
    for name in ("btree_core.py", "rtree.py"):
        for function in ast.walk(ast.parse((access / name).read_text())):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.Attribute) \
                        and node.attr in PAGE_CALLS:
                    offenders.add((name, function.name, node.attr))
                elif isinstance(node, ast.Call) \
                        and getattr(node.func, "id", None) == "PageView":
                    offenders.add((name, function.name, "PageView"))
    assert offenders == TREE_PAGE_CALLS

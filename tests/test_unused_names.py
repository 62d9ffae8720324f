"""Guard against dead code: every public module-level function or class in
src/viewsel is either used somewhere in the package or listed, with a
caller, among the few names that only callers outside it use (an export
from viewsel/__init__.py is not a use), and every module-level import is
read by its module.
Also guards the columnar crowd frame: no module reads CrowdFrame's Person
view, `persons`, which exists for readers outside the package. And no
module imports another module's private (`_`-prefixed) name. And people
are mapped to cells in one place: only crowd.py reads `world_to_cell`.
And one module knows what a valid JSON value is: only serialize.py imports
`numbers`. And a strategy is dispatched in one place, selection.run_selection:
cli.py imports none of the pipelines it dispatches to. And the library
needs numpy alone: no module imports scipy, which only the tests' oracles
use. And one module knows each strategy's scored region and weight: only
scoring.py calls `binarize_density`. And pseudo-label GT is the oracle
prediction: a density is rasterized by the crowd layer and the predictor
alone. Only crowd.py calls `rasterize_density`; only crowd.py, predictor.py
and selection.py (whose first view is the largest predicted count) call
`kernel_table`; cli.py calls no raster function, and neither does the
pair builder, selection.make_pseudo_pair, which takes its GT from
`oracle_predict`. And a pseudo-label pair is built in one place: only
make_pseudo_pair constructs a `PseudoPair`. And the pseudo-label stages
are named in one module: only selection.py holds the string constant
`modeltrain`. And a
prediction picks the people a mask sees by row and never copies a frame:
only crowd.py (the trace readers) and predictor.py (`noisy_draw`) construct
a `CrowdFrame`. And a run depends on its arguments alone: no module reads
`os.environ` or calls `os.getenv`. And a score names cameras by id:
scoring.py imports no `CameraPose`. And a selection state keeps its
scene: no module passes `scene=` to `dataclasses.replace`. And one rule
says what a valid trace is, crowd.check_trace: only cli.py, evaluate.py
and selection.py (check_run) call it, only crowd.py and synth.py (which
place people and cameras on the grid) read `extent_m`, and cli.py
imports no numpy, because the CLI does no array work of its own. And one
function states what a run refuses, selection.check_run: only it and
crowd.cover_rate raise `no persons in any frame`, and each run calls it
once, so only run_ivs, run_avs, run_selection (for the random strategy)
and cli.cmd_sweep (each value's check before any cell runs) call it, and
cli.cmd_select does not. And one module says what a valid number is: only
serialize.py defines `require_finite`, `require_real` and `require_int`,
and only it calls `math.isfinite`. And where a cell center lies is stated
once, by GroundGrid.cell_axes: no module calls `meshgrid` or reads
`cell_centers`, only geometry.py and metrics.py (extract_peaks) read
`cell_axes`, and only geometry.py calls `project_footprint`. And the trace
file format is known in one place: only crowd.py holds the column name
`person_idx`, and only crowd.trace_from_csv calls `loadtxt`. And a
camera's scoring constants are built once, in one table: only the greedy
round (scoring._Round.__init__) and the widest camera's pick
(selection._largest_fov_camera) read `camera_table`, only _Round.term
reads its `windows`, and no module names `footprint_window`, `pair_row`,
`footprint_table` or `area_cells`. And the packing of the footprint bits
is known in one module: only geometry.py calls `packbits`
(Scene.camera_table) or `unpackbits` (Scene.unpack), and only
geometry.py and scoring.py call `bitwise_count`, on the packed words
alone (the table's areas, the greedy round's union words and its
candidates' overlap with them); scoring.py
calls no `footprint`, so a round reads its union's mask from its words."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "viewsel"

# the public names that only callers outside the package use, each with a
# test module that calls it and what for
OUTSIDE_CALLERS = {
    "scoring.score_round": ("test_acceptance", "criteria 1, 2 and 6"),
    "selection.make_pseudo_pair": ("test_acceptance", "criterion 7"),
}


def unused_public_names(package: Path) -> list[str]:
    """`module.name` of each public module-level def or class that no code
    in the package outside __init__.py refers to: its export alone is not
    a use."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(package.glob("*.py"))
             if path.stem != "__init__"}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    defs = [(module, node.name) for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]
    return [f"{module}.{name}" for module, name in defs if name not in used]


def unused_imports(package: Path) -> list[str]:
    """`module.name` of each name bound by a module-level import that its
    module never reads; __init__.py re-exports and __future__ are exempt."""
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [(a.asname or a.name).split(".")[0]
                         for a in node.names]
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{path.stem}.{name}" for name in bound
                       if name not in read]
    return unused


def attribute_reads(package: Path, attr: str) -> list[str]:
    """`module:line` of each read of the attribute `attr` in the package."""
    return [f"{path.stem}:{node.lineno}"
            for path in sorted(package.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr == attr]


def private_imports(package: Path) -> list[str]:
    """`module <- source.name` of each `_`-prefixed name that a module
    imports from another viewsel module."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom)
                    and (node.level > 0
                         or (node.module or "").startswith("viewsel"))):
                source = (node.module or "").removeprefix("viewsel.")
                found += [f"{path.stem} <- {source}.{alias.name}"
                          for alias in node.names
                          if alias.name.startswith("_")]
    return found


def importers(package: Path, module: str) -> list[str]:
    """The package modules that import the module `module`, a submodule
    of it, or a name from either."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(n == module or n.startswith(module + ".")
                   for n in names):
                found.append(path.stem)
    return sorted(set(found))


def imported_names(package: Path, module: str) -> set[str]:
    """The names that the package module `module` imports, as spelled in
    its import statements."""
    return {alias.name
            for node in ast.walk(ast.parse((package / f"{module}.py")
                                           .read_text()))
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names}


def callers(package: Path, name: str) -> list[str]:
    """The package modules that call the function `name`, by its bare name
    or as an attribute."""
    return sorted({path.stem for path in package.glob("*.py")
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.Call)
                   and name in (getattr(node.func, "id", None),
                                getattr(node.func, "attr", None))})


def keyword_callers(package: Path, name: str, keyword: str) -> list[str]:
    """`module:line` of each call of the function `name`, by its bare name
    or as an attribute, that passes the keyword argument `keyword`."""
    return [f"{path.stem}:{node.lineno}"
            for path in sorted(package.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None),
                         getattr(node.func, "attr", None))
            and any(k.arg == keyword for k in node.keywords)]


def _functions(package: Path):
    """(`module.function`, node) of each function or method, nested ones
    included (a nested function's body is also its outer one's)."""
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                yield f"{path.stem}.{node.name}", node


def reading_functions(package: Path, attr: str) -> list[str]:
    """`module.function` of each function or method that reads the
    attribute `attr`."""
    return sorted(where for where, fn in _functions(package)
                  if any(isinstance(node, ast.Attribute)
                         and node.attr == attr for node in ast.walk(fn)))


def calling_functions(package: Path, name: str) -> list[str]:
    """`module.function` of each function that calls the function
    `name`, by its bare name or as an attribute."""
    return sorted(where for where, fn in _functions(package)
                  if any(isinstance(node, ast.Call)
                         and name in (getattr(node.func, "id", None),
                                      getattr(node.func, "attr", None))
                         for node in ast.walk(fn)))


def raising_functions(package: Path, text: str) -> list[str]:
    """`module.function` of each function with a `raise` whose
    expression holds the string constant `text`."""
    return sorted(where for where, fn in _functions(package)
                  if any(isinstance(node, ast.Raise)
                         and any(isinstance(c, ast.Constant)
                                 and c.value == text
                                 for c in ast.walk(node))
                         for node in ast.walk(fn)))


def constant_holders(package: Path, value: str) -> list[str]:
    """The package modules that hold the string constant `value`."""
    return sorted({path.stem for path in package.glob("*.py")
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.Constant) and node.value == value})


def namers(package: Path, name: str) -> list[str]:
    """The package modules that name `name`: as a variable, an attribute,
    an argument, or a function or class."""
    return sorted({path.stem for path in package.glob("*.py")
                   for node in ast.walk(ast.parse(path.read_text()))
                   if name in (getattr(node, "id", None),
                               getattr(node, "attr", None),
                               getattr(node, "arg", None),
                               getattr(node, "name", None))})


def definers(package: Path, name: str) -> list[str]:
    """The package modules that define a function `name`, at any depth."""
    return sorted({where.split(".")[0] for where, fn in _functions(package)
                   if fn.name == name})


def math_isfinite_callers(package: Path) -> list[str]:
    """The package modules that call `math.isfinite`, or `isfinite` by its
    bare name."""
    return sorted({path.stem for path in package.glob("*.py")
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.Call)
                   and (getattr(node.func, "id", None) == "isfinite"
                        or (getattr(node.func, "attr", None) == "isfinite"
                            and getattr(node.func.value, "id", None)
                            == "math"))})


def test_every_public_name_is_used_or_has_an_outside_caller():
    assert sorted(unused_public_names(PACKAGE)) == sorted(OUTSIDE_CALLERS)
    for where, (module, _) in OUTSIDE_CALLERS.items():
        assert module in callers(TESTS, where.split(".")[1]), where


def test_every_module_level_import_is_read():
    assert unused_imports(PACKAGE) == []


def test_no_module_reads_the_person_view():
    assert attribute_reads(PACKAGE, "persons") == []


def test_no_module_imports_a_private_name():
    assert private_imports(PACKAGE) == []


def test_only_crowd_maps_people_to_cells():
    reads = attribute_reads(PACKAGE, "world_to_cell")
    assert reads and all(r.startswith("crowd:") for r in reads)


def test_only_serialize_checks_json_numbers():
    assert importers(PACKAGE, "numbers") == ["serialize"]


def test_only_selection_dispatches_a_strategy():
    names = imported_names(PACKAGE, "cli")
    assert "run_selection" in names
    assert names & {"run_ivs", "run_avs", "random_select",
                    "train_after_selection"} == set()


def test_no_module_imports_scipy():
    assert importers(PACKAGE, "scipy") == []
    # the walk does see an import
    assert "metrics" in importers(PACKAGE, "numpy")


def test_only_scoring_binarizes_a_prediction():
    assert callers(PACKAGE, "binarize_density") == ["scoring"]


def test_only_crowd_and_predictor_rasterize_a_density():
    assert callers(PACKAGE, "rasterize_density") == ["crowd"]
    assert callers(PACKAGE, "kernel_table") == ["crowd", "predictor",
                                                "selection"]
    for name in ("kernel_table", "accumulate_density", "rasterize_density"):
        assert "cli" not in callers(PACKAGE, name)
        assert "selection.make_pseudo_pair" not in calling_functions(
            PACKAGE, name)
    assert "selection.make_pseudo_pair" in calling_functions(
        PACKAGE, "oracle_predict")


def test_one_pseudo_label_pair_builder():
    assert calling_functions(PACKAGE, "PseudoPair") == [
        "selection.make_pseudo_pair"]


def test_only_selection_names_the_pseudo_label_stages():
    assert constant_holders(PACKAGE, "modeltrain") == ["selection"]
    # the walk does see a constant outside selection.py
    assert "cli" in constant_holders(PACKAGE, "viewsel")


def test_only_crowd_and_predictor_construct_a_frame():
    assert callers(PACKAGE, "CrowdFrame") == ["crowd", "predictor"]


def test_no_module_reads_the_environment():
    assert attribute_reads(PACKAGE, "environ") == []
    assert callers(PACKAGE, "getenv") == []


def test_scores_name_cameras_by_id():
    assert "CameraPose" not in imported_names(PACKAGE, "scoring")
    # the walk does see an import
    assert "Scene" in imported_names(PACKAGE, "scoring")


def test_a_state_keeps_its_scene():
    assert keyword_callers(PACKAGE, "replace", "scene") == []
    # the walk does see a keyword
    assert keyword_callers(PACKAGE, "replace", "non_converged")


def test_one_trace_rule():
    assert callers(PACKAGE, "check_trace") == ["cli", "evaluate",
                                               "selection"]
    reads = attribute_reads(PACKAGE, "extent_m")
    assert sorted({r.split(":")[0] for r in reads}) == ["crowd", "synth"]


def test_cli_does_no_array_work():
    assert "cli" not in importers(PACKAGE, "numpy")
    # the walk does see an import
    assert "crowd" in importers(PACKAGE, "numpy")


def test_one_statement_of_what_a_run_refuses():
    assert raising_functions(PACKAGE, "no persons in any frame") == [
        "crowd.cover_rate", "selection.check_run"]
    assert calling_functions(PACKAGE, "check_run") == [
        "cli.cmd_sweep", "selection.run_avs", "selection.run_ivs",
        "selection.run_selection"]
    # the walk does see a call in cmd_select
    assert "cli.cmd_select" in calling_functions(PACKAGE, "run_selection")


def test_one_statement_of_a_valid_number():
    for name in ("require_finite", "require_real", "require_int"):
        assert definers(PACKAGE, name) == ["serialize"], name
    assert math_isfinite_callers(PACKAGE) == ["serialize"]
    # the walk does see a numpy isfinite call, which this rule allows
    assert "crowd" in callers(PACKAGE, "isfinite")


def test_one_statement_of_a_cell_center():
    assert callers(PACKAGE, "meshgrid") == []
    assert attribute_reads(PACKAGE, "cell_centers") == []
    reads = attribute_reads(PACKAGE, "cell_axes")
    assert sorted({r.split(":")[0] for r in reads}) == ["geometry",
                                                        "metrics"]
    assert callers(PACKAGE, "project_footprint") == ["geometry"]


def test_one_statement_of_the_trace_format():
    assert constant_holders(PACKAGE, "person_idx") == ["crowd"]
    assert calling_functions(PACKAGE, "loadtxt") == ["crowd.trace_from_csv"]


def test_one_statement_of_a_camera_term():
    assert reading_functions(PACKAGE, "camera_table") == [
        "scoring.__init__", "selection._largest_fov_camera"]
    assert reading_functions(PACKAGE, "windows") == ["scoring.term"]
    for name in ("footprint_window", "pair_row", "footprint_table",
                 "area_cells"):
        assert namers(PACKAGE, name) == [], name
    # the walk does see a method's definition and its attribute reads
    assert namers(PACKAGE, "camera_table") == ["geometry", "scoring",
                                               "selection"]


def test_one_module_knows_the_packed_footprints():
    assert callers(PACKAGE, "packbits") == ["geometry"]
    assert callers(PACKAGE, "unpackbits") == ["geometry"]
    assert callers(PACKAGE, "bitwise_count") == ["geometry", "scoring"]
    assert "scoring" not in callers(PACKAGE, "footprint")
    # the walk does see a footprint call
    assert "selection" in callers(PACKAGE, "footprint")

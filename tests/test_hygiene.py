"""Source hygiene checks that need no linter: every module-level import in the
package is used in its module, re-exported through ``__all__``, or marked
``# noqa: F401`` on its own line (a binding kept for perfbench's span hooks);
and every top-level function and class is referenced somewhere in the
package outside its own definition, or listed in an ``__all__``; every
attribute a package class assigns on ``self`` is read somewhere in the
package; every dataclass field is read by the package's own code, as a field
of the class that declares it, while short runs cover every variant, attack
and diagnostic; and the README's config reference names every INI key."""
import ast
import dataclasses
import importlib
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from swarmlearn import analysis, cli
from swarmlearn.cli import _SECTION_KEYS
from swarmlearn.core import HyperParameters
from swarmlearn.data import label_histogram
from swarmlearn.experiment import (
    DataConfig,
    build_setup,
    initial_w_for,
    make_workers,
    population_batch,
)

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "swarmlearn"


# Reachable only from the tests, which import them; ROADMAP item 15 either
# surfaces them in a run's output or moves them into the tests.
KNOWN_UNREFERENCED = ["analysis.run_genie_aligned", "analysis.divergence_bound_check"]


def exported(tree: ast.Module) -> set[str]:
    """The names a module lists in ``__all__``."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            names |= {elt.value for elt in ast.walk(node.value) if isinstance(elt, ast.Constant)}
    return names


def unused_imports(source: str) -> list[str]:
    """The names a module imports at module level and never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | exported(tree)
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and "noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(name)
    return unused


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_an_unused_import_is_found():
    source = (
        "import math\n"
        "from os import path, sep  # noqa: F401\n"
        "from json import (\n"
        "    dumps,\n"
        "    loads,  # noqa: F401\n"
        ")\n"
        "import numpy as np\n"
        "__all__ = ['dumps']\n"
        "x = np.zeros(1)\n"
    )
    assert unused_imports(source) == ["math"]


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """``module.name`` of every top-level function and class in ``sources``
    (module name to source) that no name or attribute in any of them reads
    outside the definition itself, and no ``__all__`` lists. An import alone
    is no reference."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    listed = set().union(*(exported(tree) for tree in trees.values()))
    unreferenced = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            own = {id(inner) for inner in ast.walk(node)}
            referenced = any(
                id(ref) not in own and (
                    isinstance(ref, ast.Name) and ref.id == node.name
                    or isinstance(ref, ast.Attribute) and ref.attr == node.name
                )
                for other in trees.values() for ref in ast.walk(other)
            )
            if not referenced and node.name not in listed:
                unreferenced.append(f"{module}.{node.name}")
    return unreferenced


def test_every_definition_is_referenced():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_definitions(sources) == KNOWN_UNREFERENCED


def test_an_unreferenced_definition_is_found():
    sources = {
        "a": (
            "from .b import helper, imported_only  # noqa: F401\n"
            "def loop():\n"
            "    return loop()\n"
            "def used():\n"
            "    return helper()\n"
            "class Listed:\n"
            "    pass\n"
            "__all__ = ['Listed', 'used']\n"
        ),
        "b": (
            "import a\n"
            "def helper():\n"
            "    return a.used\n"
            "def imported_only():\n"
            "    pass\n"
        ),
    }
    assert unreferenced_definitions(sources) == ["a.loop", "b.imported_only"]


def unread_attributes(sources: dict[str, str]) -> list[str]:
    """``module.Class.name`` of every attribute that a method of a top-level
    class in ``sources`` assigns on ``self`` and no attribute load in any of
    them reads, matched by name. An augmented assignment is no read."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    loaded = {node.attr for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for module, tree in trees.items():
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            assigned = {node.attr for node in ast.walk(cls)
                        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name) and node.value.id == "self"}
            unread += [f"{module}.{cls.name}.{name}" for name in sorted(assigned - loaded)]
    return unread


def test_every_instance_attribute_is_read():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_attributes(sources) == []


def test_an_unread_instance_attribute_is_found():
    sources = {
        "a": (
            "class Tally:\n"
            "    def __init__(self):\n"
            "        self.total = 0\n"
            "        self.kept, self.dropped = [], []\n"
            "        self.written = 0\n"
            "    def add(self, x):\n"
            "        self.written += x\n"
            "        self.kept.append(x)\n"
        ),
        "b": "def total(tally):\n    return tally.total\n",
    }
    assert unread_attributes(sources) == ["a.Tally.dropped", "a.Tally.written"]


def field_owner(cls: type, name: str) -> type:
    """The class that declares field ``name`` of dataclass ``cls``: the most
    basic dataclass in its MRO that has the field."""
    return next(base for base in reversed(cls.__mro__) if dataclasses.is_dataclass(base)
                and name in {f.name for f in dataclasses.fields(base)})


def label(cls: type) -> str:
    return f"{cls.__module__.rsplit('.', 1)[-1]}.{cls.__qualname__}"


def unread_fields(modules, run) -> list[str]:
    """``module.Class.field`` of every field a dataclass defined in
    ``modules`` declares that no code in those modules' files reads while
    ``run()`` runs. A read is credited to the class that declares the field,
    whatever object it is read on; generated methods (``__init__``,
    ``__eq__``, ``__repr__``), ``dataclasses.replace`` and callers outside
    the modules' files do not count."""
    classes = [obj for module in modules for obj in vars(module).values()
               if isinstance(obj, type) and dataclasses.is_dataclass(obj)
               and obj.__module__ == module.__name__]
    files = {module.__file__ for module in modules}
    reads = set()

    def recorder(owners: dict[str, str]):
        def __getattribute__(self, name):
            owner = owners.get(name)
            if owner is not None and sys._getframe(1).f_code.co_filename in files:
                reads.add(owner)
            return object.__getattribute__(self, name)
        return __getattribute__

    with pytest.MonkeyPatch.context() as patch:
        for cls in classes:
            owners = {f.name: f"{label(field_owner(cls, f.name))}.{f.name}"
                      for f in dataclasses.fields(cls)}
            patch.setattr(cls, "__getattribute__", recorder(owners))
        run()
    declared = [f"{label(cls)}.{f.name}" for cls in classes for f in dataclasses.fields(cls)
                if field_owner(cls, f.name) is cls]
    return [name for name in declared if name not in reads]


# Only the tests read the records divergence_bound_check returns, and the
# trajectory snapshots run_genie_aligned hands to the Lipschitz probes.
KNOWN_UNREAD = {"analysis.DivergenceVerdict", "analysis.AlignedTrace.envelope"}

_TINY_CONFIG = """\
[experiment]
variants = {variants}
seeds = 1
output_dir = {out}
[data]
classes = 4
per_class = 100
dim = 5
test_per_class = 10
num_shards = 20
global_train = 40
global_score = 40
[model]
kind = mlp
hidden_dims = 3
init = {init}
[hyper]
rounds = 3
num_workers = 4
batch_size = 5
[attack]
strategy = {strategy}
attackers = {attackers}
[diagnostics]
cosine_stats = on
divergence = on
lipschitz_probes = 8
"""


def tiny_runs(tmp_path):
    """Short runs of every variant, both attack strategies and both
    diagnostics through the CLI, the communication report, and the two
    KNOWN_UNREFERENCED functions on a tiny setup."""
    runs = [("fedavg, fedavg_gtr, cbdsl_plain, cbdsl_gsc, cbdsl_full", "per_worker", "none", ""),
            ("cbdsl_gsc, cbdsl_full", "shared", "fake_loss_garbage", "0"),
            ("cbdsl_plain, cbdsl_full", "shared", "fake_loss_scaled", "1, 2")]
    for k, (variants, init, strategy, attackers) in enumerate(runs):
        out = tmp_path / f"out{k}"
        config = tmp_path / f"run{k}.ini"
        config.write_text(_TINY_CONFIG.format(variants=variants, out=out, init=init,
                                              strategy=strategy, attackers=attackers))
        assert cli.run_experiment(str(config)) == 0
    assert cli.report_communication(str(tmp_path / "out0")) == 0

    h = HyperParameters(rounds=3, num_workers=3, batch_size=5)
    setup = build_setup(DataConfig(classes=4, per_class=100, dim=5, test_per_class=10,
                                   num_shards=20, global_train=40, global_score=40),
                        "softmax_regression", (), h, 1)
    workers = make_workers(setup, h, False, "shared")
    population = population_batch(setup)
    genie = analysis.GenieState(initial_w_for(setup, 0), np.zeros(setup.init_w.shape[-1]))
    _, _, trace = analysis.run_genie_aligned(
        workers, genie, setup.spec, h, h.rounds, population, 4)
    hists = np.stack([label_histogram(setup.train.labels[rows], 4)
                      for rows in setup.plan.worker_indices])
    lip = analysis.estimate_model_lipschitz(setup.spec, population, 4, 8, np.random.default_rng(0))
    analysis.divergence_bound_check(trace, hists, label_histogram(population.labels, 4), lip, h)


def test_every_dataclass_field_is_read(tmp_path):
    modules = [importlib.import_module(f"swarmlearn.{path.stem}")
               for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__main__"]
    unread = unread_fields(modules, lambda: tiny_runs(tmp_path))
    assert [name for name in unread
            if name not in KNOWN_UNREAD and name.rsplit(".", 1)[0] not in KNOWN_UNREAD] == []


def test_an_unread_field_is_found(tmp_path, monkeypatch):
    # Shared.labels is read nowhere, though a field of the same name on
    # another class is; test code reading it does not count either
    (tmp_path / "fieldsample.py").write_text(
        "from dataclasses import dataclass, replace\n"
        "@dataclass(frozen=True)\n"
        "class Base:\n"
        "    inherited: int\n"
        "@dataclass(frozen=True)\n"
        "class Records(Base):\n"
        "    labels: int\n"
        "    replaced_only: int\n"
        "@dataclass\n"
        "class Shared:\n"
        "    labels: int\n"
        "    by_getattr: int\n"
        "def use(r, s):\n"
        "    return r.labels + r.inherited + getattr(s, 'by_getattr') + replace(r).labels\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    module = importlib.import_module("fieldsample")

    def run():
        shared = module.Shared(1, 2)
        assert module.use(module.Records(0, 1, 2), shared) == 4 and shared.labels == 1

    assert unread_fields([module], run) == ["fieldsample.Records.replaced_only",
                                            "fieldsample.Shared.labels"]


def config_reference_bullets(readme: str) -> dict[str, str]:
    """The text of each ``- `[section]` -- ...`` bullet under the README's
    "Config reference" heading, by section."""
    reference = readme.split("\n## Config reference\n", 1)[1].split("\n## ", 1)[0]
    return dict(re.findall(r"^- `\[(\w+)\]` -- (.*?)(?=^- |^$)", reference, re.M | re.S))


@pytest.mark.parametrize("section", sorted(_SECTION_KEYS))
def test_readme_names_every_config_key(section):
    bullet = config_reference_bullets((ROOT / "README.md").read_text())[section]
    assert _SECTION_KEYS[section] - set(re.findall(r"`(\w+)`", bullet)) == set()

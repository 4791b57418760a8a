"""The package's names load on first use and are its modules' own objects."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import namestats

# the package's exported names by home module, written out here so that a
# name dropped from the package's own table fails a test
EXPORTS = {
    "commstats": [
        "AlignedPair", "CommResult", "DivergentOtherMassError", "align", "comm_all",
        "comm_c1", "comm_c2", "comm_c3", "comm_c4", "comm_from_pair", "new_names",
        "turnover_per_annum",
    ],
    "corpus": [
        "Cohort", "CohortSpec", "FilterPolicy", "NameRecord", "ParseError",
        "RecordKind", "build_cohort", "filter_records", "parse_records",
        "write_records",
    ],
    "popstats": [
        "FrequencyTable", "InsufficientDistinctNamesError", "PopularityList",
        "PopularitySummary", "average_summaries", "frequency_table", "name_popularity",
        "sampling_variability", "social_information", "summarize", "top_k",
    ],
    "powerlaw": [
        "InfeasibleConstraintsError", "InsufficientPointsError", "LogLinearModel",
        "PowerLawFit", "conquest_model", "fit_rank_frequency", "fit_ranked_frequencies",
        "loglog_series", "solve_from_info_constraints", "solve_from_top_constraints",
    ],
    "standardize": [
        "CodingTable", "CodingTableError", "Sex", "StandardizationError", "apply_coding",
        "correct_sex", "load_coding_table", "load_demo_table", "truncate_name",
    ],
    "synth": ["SimulationConfig", "simulate_naming", "simulate_records"],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


@pytest.mark.parametrize("module, name", NAMES)
def test_name_is_its_modules_object(module, name):
    home = importlib.import_module(f"namestats.{module}")
    assert getattr(namestats, name) is getattr(home, name)


def test_all_and_dir_list_every_name():
    names = {name for _, name in NAMES}
    assert set(namestats.__all__) == names
    assert names <= set(dir(namestats))
    assert namestats.__version__ == "0.1.0"


def test_star_import_binds_every_name():
    scope: dict = {}
    exec("from namestats import *", scope)
    for module, name in NAMES:
        assert scope[name] is getattr(importlib.import_module(f"namestats.{module}"), name)


def test_submodules_by_attribute_and_from_import():
    from namestats import corpus, reports

    assert namestats.corpus is corpus is sys.modules["namestats.corpus"]
    assert namestats.reports is reports
    assert namestats.synth is sys.modules["namestats.synth"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        namestats.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from namestats import no_such_name", {})


def test_import_loads_no_module():
    code = ("import json, sys, namestats\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('namestats'))))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(namestats.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == ["namestats"]


def _perfbench_uses() -> tuple[set[tuple[str, str]], set[tuple]]:
    """What perfbench's traced pass uses of the package: ``(module, name)`` for
    each ``corpus.X``, ``synth.X`` and ``reports.X`` attribute it reads and
    each name it imports from the package, and ``(module, name, positional
    count, keyword names)`` for each call of one of them."""
    staged = Path(__file__).resolve().parents[1] / "perfbench" / "staged.py"
    tree = ast.parse(staged.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
                "namestats"):
            imported.update((alias.asname or alias.name, (node.module, alias.name))
                            for alias in node.names)

    def used(node: ast.AST) -> tuple[str, str] | None:
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in ("corpus", "synth", "reports")):
            return f"namestats.{node.value.id}", node.attr
        if isinstance(node, ast.Name):
            return imported.get(node.id)
        return None

    names, calls = set(imported.values()), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (name := used(node)):
            names.add(name)
        elif isinstance(node, ast.Call) and (callee := used(node.func)):
            keywords = tuple(keyword.arg for keyword in node.keywords)
            calls.add((*callee, len(node.args), keywords))
    return names, calls


def test_perfbench_names_exist():
    """A name the benchmark's traced pass needs is not dropped from the
    package, and each of its calls still binds to the callee's signature."""
    names, calls = _perfbench_uses()
    assert ("namestats.corpus", "parse_records") in names
    assert ("namestats.corpus", "build_cohort", 3, ()) in calls
    missing = [f"{module}.{name}" for module, name in sorted(names)
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
    unbound = []
    for module, name, positional, keywords in sorted(calls):
        callee = getattr(importlib.import_module(module), name)
        try:
            inspect.signature(callee).bind(*[None] * positional,
                                           **dict.fromkeys(keywords))
        except TypeError as exc:
            unbound.append(f"{module}.{name}: {exc}")
    assert unbound == []

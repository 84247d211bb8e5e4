"""The production / oracle boundary, checked rather than promised.

``repro.sparql.evaluator`` (group interpretation) is the answer oracle
of the tests and of the performance ledger.  Production answers every
request from compiled plans and compiled expressions; these tests fail
if a module under ``src/`` grows an import of the interpreter, or if any
endpoint request of the benchmark query sets constructs one.

The same kind of walk pins the collector boundary: one module under
``src/`` names ``gc``, and only to note, switch and restore whether the
collector is enabled.  And the layering boundary: ``repro.core`` and
``repro.planning`` never import ``repro.serve``.  And the plan boundary: what Lusail decided
travels as a value (``BranchPlan`` on ``ExecutionOutcome.plan``), never
as which class got instantiated or which engine attribute was written
last.  The plan is frozen and is the one holder of each decision the
scheduler obeys: only the cost model names the bound-join block
constant, the scheduler orders no join and ranks no subquery itself
(the plan's rules do), and no test forces a planning decision by
patching module state.  And the options boundary: every field of ``LusailConfig`` and
``TrafficConfig`` is set by name by some caller outside the tests, or
is listed with the reason it stays an option.  And a ratchet: reads of
a store's whole version outside ``repro/store/`` do not grow.
"""

import ast
import dataclasses
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.baselines import AnapsidConfig, FedXConfig, SplendidConfig
from repro.core.decomposition.subquery import DecompositionPlan, Subquery
from repro.core.engine import BranchPlan, LusailConfig
from repro.core.execution.cost_model import DelayDecision
from repro.datasets import lubm, queries_largerdf, queries_lubm
from repro.endpoint import Endpoint
from repro.harness.traffic import TrafficConfig
from repro.sparql import evaluator, parse_query
from repro.sparql.ast import AskQuery
from tests.conftest import QA, build_paper_federation, oracle_rows
from tests.test_expressions import ENGINES

SRC = Path(repro.__file__).resolve().parent
ORACLE = "repro.sparql.evaluator"
#: The one module allowed to import the oracle: it re-exports
#: ``evaluate`` / ``evaluate_select`` / ``evaluate_ask`` for the tests
#: and for ``benchmarks/ledger/workloads.py``.
REEXPORTER = SRC / "sparql" / "__init__.py"
ORACLE_NAMES = {"evaluator", "evaluate", "evaluate_select", "evaluate_ask"}


def _imports(path: Path, root: Path = SRC):
    """``(module, imported names, line)`` of every import statement of
    ``path`` (a module of the package rooted at ``root``), relative
    imports resolved to absolute module names."""
    package = list(path.relative_to(root.parent).parts[:-1])
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, set(), node.lineno
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # relative: resolve against the importing package
                base = package[: len(package) - node.level + 1]
                module = ".".join([*base, module] if module else base)
            yield module, {alias.name for alias in node.names}, node.lineno


def _oracle_imports(path: Path, root: Path = SRC) -> list[str]:
    """Import statements of ``path`` that reach the interpreter, directly
    or through the names ``repro.sparql`` re-exports."""
    return [
        f"{path.relative_to(root.parent)}:{line}"
        for module, names, line in _imports(path, root)
        if module == ORACLE or (module == "repro.sparql" and names & ORACLE_NAMES)
    ]


def test_only_the_reexporter_imports_the_interpreter():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 90  # the walk really covers the package
    offenders = [
        hit for path in modules if path != REEXPORTER for hit in _oracle_imports(path)
    ]
    assert not offenders, f"production modules import the oracle: {offenders}"
    # The walker itself sees the one sanctioned import.
    assert _oracle_imports(REEXPORTER)


@pytest.mark.parametrize(
    "source, reaches",
    [
        ("from . import evaluator", True),
        ("from .evaluator import _Evaluator", True),
        ("from repro.sparql import parse_query, evaluate_select", True),
        ("import repro.sparql.evaluator", True),
        ("def f():\n    from repro.sparql.evaluator import evaluate", True),
        ("from repro.sparql import parse_query\nfrom .plan import compile_query", False),
    ],
)
def test_walker_resolves_relative_and_reexported_imports(tmp_path, source, reaches):
    probe = tmp_path / "repro" / "sparql" / "probe.py"
    probe.parent.mkdir(parents=True)
    probe.write_text(source)
    assert bool(_oracle_imports(probe, root=tmp_path / "repro")) is reaches


def _serve_imports(path: Path, root: Path = SRC) -> list[str]:
    """Import statements of ``path`` that reach the serving layer."""
    return [
        f"{path.relative_to(root.parent)}:{line}"
        for module, names, line in _imports(path, root)
        if module == "repro.serve"
        or module.startswith("repro.serve.")
        or (module == "repro" and "serve" in names)
    ]


def test_core_and_planning_do_not_import_the_serving_layer():
    # Cross-query sharing (multi-query optimisation) lives in one place,
    # the serving layer's per-endpoint request share; the engine layers
    # it drives must not grow a back-reference to it.
    modules = sorted((SRC / "core").rglob("*.py")) + sorted((SRC / "planning").rglob("*.py"))
    assert len(modules) > 15
    offenders = [hit for path in modules for hit in _serve_imports(path)]
    assert not offenders, f"engine modules import repro.serve: {offenders}"


@pytest.mark.parametrize(
    "source, reaches",
    [
        ("from repro.serve import QueryServer", True),
        ("from repro.serve.client import ServingClient", True),
        ("from ... import serve", True),
        ("def f():\n    import repro.serve.server", True),
        ("from repro.serving_notes import x\nfrom .engine import LusailEngine", False),
    ],
)
def test_serve_walker_sees_each_form(tmp_path, source, reaches):
    probe = tmp_path / "repro" / "core" / "execution" / "probe.py"
    probe.parent.mkdir(parents=True)
    probe.write_text(source)
    assert bool(_serve_imports(probe, root=tmp_path / "repro")) is reaches


#: The module that owns the collector pause (``collector_paused``), and
#: every way it may name ``gc``: import it, note the state, switch it,
#: put it back.
COLLECTOR_MODULE = SRC / "store" / "dictionary.py"
COLLECTOR_USES = {"import gc", "gc.isenabled", "gc.disable", "gc.enable"}


def _gc_uses(path: Path) -> set[str]:
    """Every way one module names the collector: ``import gc``, each
    ``gc.<attribute>`` it reads, and — reported, not resolved, since
    they would slip past the attribute walk — ``import gc as x`` and
    ``from gc import y``."""
    uses = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "gc":
                    uses.add("import gc" if alias.asname is None else "import gc as")
        elif isinstance(node, ast.ImportFrom) and node.module == "gc" and not node.level:
            uses.add("from gc import")
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "gc"
        ):
            uses.add(f"gc.{node.attr}")
    return uses


def test_one_module_names_the_collector_and_only_switches_it():
    users = {path: uses for path in sorted(SRC.rglob("*.py")) if (uses := _gc_uses(path))}
    # No collect / freeze / unfreeze / set_threshold anywhere under src/.
    assert users == {COLLECTOR_MODULE: COLLECTOR_USES}


@pytest.mark.parametrize(
    "source, uses",
    [
        ("import gc\ngc.collect()", {"import gc", "gc.collect"}),
        ("import os, gc\ngc.freeze(); gc.unfreeze()", {"import gc", "gc.freeze", "gc.unfreeze"}),
        ("import gc as collector\ncollector.collect()", {"import gc as"}),
        ("from gc import collect", {"from gc import"}),
        ("def f():\n    import gc\n    return gc.isenabled()", {"import gc", "gc.isenabled"}),
        ("from .gc import pause\nimport gcd", set()),
    ],
)
def test_collector_walker_sees_every_way_to_name_gc(tmp_path, source, uses):
    probe = tmp_path / "probe.py"
    probe.write_text(source)
    assert _gc_uses(probe) == uses


#: Reads of a store's whole version (``….store.version``) outside
#: ``repro/store/``.  Every holder of store-derived state pins
#: ``store.state`` and asks ``store.current(pin, patterns)`` instead, so
#: only the store decides what is stale: the count stays at zero.
STORE_VERSION_READS = 0


def _store_version_reads(path: Path) -> int:
    """Loads of ``<…>.store.version`` or ``store.version`` in a module."""
    reads = 0
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "version"
            and isinstance(node.ctx, ast.Load)
            and (
                (isinstance(node.value, ast.Attribute) and node.value.attr == "store")
                or (isinstance(node.value, ast.Name) and node.value.id == "store")
            )
        ):
            reads += 1
    return reads


def test_whole_store_version_reads_do_not_grow():
    store_package = SRC / "store"
    reads = sum(
        _store_version_reads(path)
        for path in sorted(SRC.rglob("*.py"))
        if store_package not in path.parents
    )
    assert reads <= STORE_VERSION_READS


@pytest.mark.parametrize(
    "source, reads",
    [
        ("def f(endpoint):\n    return endpoint.store.version", 1),
        ("def f(self):\n    return self.federation.get('a').store.version", 1),
        ("def f(store):\n    v = store.version\n    return v, store.version", 2),
        ("def f(store):\n    store.version = 3", 0),
        ("def f(summary, store):\n    return summary.version, store.last_write(None)", 0),
    ],
)
def test_store_version_walker_counts_each_read(tmp_path, source, reads):
    probe = tmp_path / "probe.py"
    probe.write_text(source)
    assert _store_version_reads(probe) == reads


SCHEDULERS = {"BranchScheduler", "PartialBranchScheduler"}
LAST_WRITTEN = {"last_plan", "last_audit"}


def _identifiers(node: ast.AST) -> set[str]:
    """Every name, attribute, keyword and parameter spelled under ``node``."""
    found = set()
    for inner in ast.walk(node):
        for field in ("id", "attr", "arg"):
            value = getattr(inner, field, None)
            if isinstance(value, str):
                found.add(value)
    return found


def _class_substitution(path: Path) -> set[str]:
    """The ways a module can make a decision by swapping classes: a class
    statement inside a function, anything called ``scheduler_class``, an
    ``isinstance`` test against a scheduler."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()
    if "scheduler_class" in _identifiers(tree):
        found.add("scheduler_class")
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            found |= {
                f"class {inner.name} in a function"
                for inner in ast.walk(node)
                if isinstance(inner, ast.ClassDef)
            }
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
            and _identifiers(node.args[1]) & SCHEDULERS
        ):
            found.add("isinstance of a scheduler")
    return found


def test_lusail_decisions_travel_as_data():
    core = sorted((SRC / "core").rglob("*.py"))
    assert len(core) > 10
    assert {path: hits for path in core if (hits := _class_substitution(path))} == {}
    written = {
        path: hits
        for path in sorted(SRC.rglob("*.py"))
        if (hits := _identifiers(ast.parse(path.read_text())) & LAST_WRITTEN)
    }
    assert written == {}


@pytest.mark.parametrize(
    "source, hits",
    [
        ("def f(cache):\n    class Sharing(Base):\n        pass\n    return Sharing", {"class Sharing in a function"}),
        ("engine.scheduler_class = X", {"scheduler_class"}),
        ("Analysis(plan, scheduler_class=BranchScheduler)", {"scheduler_class"}),
        ("if isinstance(s, PartialBranchScheduler): pass", {"isinstance of a scheduler"}),
        ("isinstance(s, (partial.PartialBranchScheduler, int))", {"isinstance of a scheduler"}),
        ("class Top:\n    def run(self):\n        return isinstance(self.x, int)", set()),
    ],
)
def test_class_substitution_walker_sees_each_form(tmp_path, source, hits):
    probe = tmp_path / "probe.py"
    probe.write_text(source)
    assert _class_substitution(probe) == hits


def test_plan_values_are_frozen():
    for cls in (Subquery, DecompositionPlan, DelayDecision, BranchPlan):
        assert cls.__dataclass_params__.frozen, cls.__name__


def test_only_the_cost_model_names_the_block_constant():
    naming = {
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if "MAX_BLOCK" in path.read_text()
    }
    assert naming == {"core/execution/cost_model.py"}


#: Module state a test could patch to force a planning decision; each is
#: a field of ``BranchPlan`` instead (``tests/plan_forcing.py``): the
#: block, the delay verdicts, the routes (``BranchPlan.routes``), the
#: distinct-value bounds (``BranchPlan.estimates`` for the cost rule,
#: ``BranchPlan.joins`` for the join estimator), and the execution rules
#: with their production functions (``BranchPlan.joins`` / ``rank`` /
#: ``binding_source``).
PLANNING_STATE = {
    "MAX_BLOCK",
    "decide_delays",
    "route",
    "distinct_values",
    "plan_joins",
    "most_selective_first",
    "fewest_bindings",
}
#: Test sites that patch one of them: the count stays at zero.
PLANNING_PATCHES = 0
PATCHERS = {"patch", "object", "setattr"}


def _planning_patches(path: Path) -> int:
    """Calls of ``mock.patch`` / ``mock.patch.object`` /
    ``monkeypatch.setattr`` (any spelling) whose arguments name
    :data:`PLANNING_STATE`, as an identifier or inside a string."""
    patches = 0
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name not in PATCHERS:
            continue
        spelled = set()
        for argument in (*node.args, *(keyword.value for keyword in node.keywords)):
            spelled |= _identifiers(argument)
            spelled |= {
                part
                for inner in ast.walk(argument)
                if isinstance(inner, ast.Constant) and isinstance(inner.value, str)
                for part in inner.value.split(".")
            }
        patches += bool(spelled & PLANNING_STATE)
    return patches


def test_no_test_forces_a_planning_decision_by_patching():
    repo = SRC.parent.parent
    paths = [path for root in ("tests", "benchmarks") for path in sorted((repo / root).rglob("*.py"))]
    assert len(paths) > 50
    assert sum(_planning_patches(path) for path in paths) <= PLANNING_PATCHES


@pytest.mark.parametrize(
    "source, patches",
    [
        ('with mock.patch("repro.core.execution.scheduler.MAX_BLOCK", 50):\n    pass', 1),
        ("mock.patch.object(scheduler, 'MAX_BLOCK', block)", 1),
        ("monkeypatch.setattr(cost_model, 'MAX_BLOCK', 1)", 1),
        ("mock.patch.object(engine_module, 'decide_delays', forcing)", 1),
        ("patch('repro.core.engine.decide_delays', new=f)", 1),
        ('mock.patch("repro.planning.stats.route", unrouted)', 1),
        ("mock.patch.object(CharsetStatisticsProvider, 'distinct_values', none)", 1),
        ('mock.patch("repro.core.engine.plan_joins", left_deep)', 1),
        ("mock.patch.object(join_order, 'plan_joins', left_deep)", 1),
        ("monkeypatch.setattr(join_order, 'most_selective_first', by_id)", 1),
        ("mock.patch.object(engine_module, 'fewest_bindings', first_component)", 1),
        ("replace(plan, joins=left_deep, rank=partial(fixed, **plan.rank.keywords))", 0),
        ("monkeypatch.setattr(BranchScheduler, 'run', recording_run)", 0),
        ("replace(plan, block_size=1)\ndecide_delays(subqueries, estimates, set())", 0),
    ],
)
def test_planning_patch_walker_sees_each_form(tmp_path, source, patches):
    probe = tmp_path / "probe.py"
    probe.write_text(source)
    assert _planning_patches(probe) == patches


SCHEDULER = SRC / "core" / "execution" / "scheduler.py"
ORDERING_CALLS = {"sorted", "sort", "min", "max"}


def _ranking_calls(path: Path) -> int:
    """Calls of ``sorted`` / ``.sort`` / ``min`` / ``max`` whose ``key``
    names a cardinality or bindings: ranking subqueries by them."""
    calls = 0
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name not in ORDERING_CALLS:
            continue
        keys = [keyword.value for keyword in node.keywords if keyword.arg == "key"]
        calls += any(
            "cardinal" in identifier.lower() or "bindings" in identifier
            for key in keys
            for identifier in _identifiers(key)
        )
    return calls


def test_the_scheduler_orders_nothing_itself():
    # The join order, phase two's next subquery and its binding source
    # are the plan's rules (BranchPlan.joins / rank / binding_source).
    imported = {name for module, names, __ in _imports(SCHEDULER) for name in names | {module}}
    assert "plan_joins" not in imported
    assert "plan_joins" not in _identifiers(ast.parse(SCHEDULER.read_text()))
    assert _ranking_calls(SCHEDULER) == 0


@pytest.mark.parametrize(
    "source, calls",
    [
        ("sorted(subqueries, key=lambda sq: self.cardinalities[sq.id])", 1),
        ("sorted(items, key=lambda item: self._refined_cardinality(*item))", 1),
        ("delayed.sort(key=lambda sq: len(bindings[sq.id][1]))", 1),
        ("min(delayed, key=cardinality)", 1),
        ("sorted(subquery.variables(), key=lambda v: v.name)", 0),
        ("self.rank([(sq, None) for sq in subqueries])", 0),
        ("max(finish, end)", 0),
    ],
)
def test_ranking_walker_sees_each_form(tmp_path, source, calls):
    probe = tmp_path / "probe.py"
    probe.write_text(source)
    assert _ranking_calls(probe) == calls


#: Config classes whose every field some caller outside the tests sets.
CONFIG_CLASSES = (LusailConfig, TrafficConfig, FedXConfig, SplendidConfig, AnapsidConfig)
CALLER_ROOTS = ("src", "benchmarks", "examples", "scripts")
#: Fields no caller sets, each with the reason it stays an option.
UNSET_FIELDS = {
    "max_mediator_rows": "a deployment memory budget; past it a query ends oom, "
    "the paper's OOM outcome",
}


def _passed_by_name(path: Path, callees: set[str]) -> set[str]:
    """Keyword names ``path`` passes to a call of one of ``callees``,
    spelled as a name or as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in callees:
                found |= {keyword.arg for keyword in node.keywords if keyword.arg}
    return found


def test_every_config_field_has_a_caller():
    repo = SRC.parent.parent
    paths = [path for root in CALLER_ROOTS for path in sorted((repo / root).rglob("*.py"))]
    assert len(paths) > 100  # the walk really covers the callers
    callees = {cls.__name__ for cls in CONFIG_CLASSES} | {"replace"}
    passed = set().union(*(_passed_by_name(path, callees) for path in paths))
    fields = {field.name for cls in CONFIG_CLASSES for field in dataclasses.fields(cls)}
    assert fields - passed == set(UNSET_FIELDS)


@pytest.mark.parametrize(
    "source, names",
    [
        ("LusailConfig(machines=2, strategy='auto')", {"machines", "strategy"}),
        ("engine.LusailConfig(decomposition='triple')", {"decomposition"}),
        ("replace(config, delay_policy=policy)", {"delay_policy"}),
        ("dataclasses.replace(self.config, use_chauvenet=False)", {"use_chauvenet"}),
        ("replace(LusailConfig(strategy='auto'), machines=2)", {"strategy", "machines"}),
        ("TrafficConfig(**options)", set()),
        ("make_engines(federation, machines=2)\nTrafficConfig()", set()),
    ],
)
def test_options_walker_sees_each_form(tmp_path, source, names):
    probe = tmp_path / "probe.py"
    probe.write_text(source)
    callees = {"LusailConfig", "TrafficConfig", "replace"}
    assert _passed_by_name(probe, callees) == names


PREFIX = "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> "

#: FILTER / nested-EXISTS / ORDER BY shapes on the paper federation —
#: every place an expression can run: pushed into an endpoint subquery,
#: at the mediator (residue and OPTIONAL residue), in either ORDER BY tail.
SHAPES = {
    "nested-exists": PREFIX
    + "SELECT ?S ?P WHERE { ?S ub:advisor ?P "
    "FILTER(?S = ?P || EXISTS { ?S ub:advisor ?P }) }",
    "negated-nested-exists": PREFIX
    + "SELECT ?S ?P WHERE { ?S ub:advisor ?P "
    "FILTER(!(?S = ?P || NOT EXISTS { ?S ub:advisor ?P })) }",
    "not-exists": PREFIX
    + "SELECT ?S ?P WHERE { ?S ub:advisor ?P FILTER NOT EXISTS { ?P ub:advisor ?S } }",
    "pushed-regex": PREFIX
    + 'SELECT ?U ?A WHERE { ?U ub:address ?A FILTER(REGEX(?A, "^x", "i") || STRLEN(?A) > 3) }',
    "residue": PREFIX
    + "SELECT ?S ?P ?U WHERE { ?S ub:advisor ?P . ?P ub:PhDDegreeFrom ?U . ?U ub:address ?A "
    "FILTER(STRLEN(STR(?S)) < STRLEN(STR(?U)) + STRLEN(?A)) }",
    "optional-residue": PREFIX
    + "SELECT ?S ?P ?C WHERE { ?S ub:advisor ?P "
    "OPTIONAL { ?P ub:teacherOf ?C . ?P ub:PhDDegreeFrom ?V FILTER(STR(?C) > STR(?V)) } "
    "FILTER(!BOUND(?C) || ISIRI(?C)) }",
    "order-by-expression": PREFIX
    + "SELECT ?S ?A WHERE { ?S ub:advisor ?P . ?P ub:PhDDegreeFrom ?U . ?U ub:address ?A } "
    "ORDER BY DESC(STRLEN(?A)) ?S ?P LIMIT 3",
    "order-by-dropped-variable": PREFIX
    + "SELECT DISTINCT ?S WHERE { ?S ub:advisor ?P . ?P ub:PhDDegreeFrom ?U } ORDER BY DESC(?U) ?S",
}


def _workloads(lubm2, largerdf_federation):
    lubm_texts = dict(queries_lubm.queries())
    lubm_texts.update(lubm.queries())
    return [
        ("lubm2", lubm2, lubm_texts),
        ("largerdf", largerdf_federation, queries_largerdf.paper_selection()),
        ("paper", build_paper_federation(), {"QA": QA, **SHAPES}),
    ]


def test_no_endpoint_request_constructs_an_interpreter(
    monkeypatch, lubm2, largerdf_federation
):
    workloads = _workloads(lubm2, largerdf_federation)
    # The answers first: the oracle *is* the interpreter.
    expected = {
        (family, name): oracle_rows(federation, text)
        for family, federation, texts in workloads
        for name, text in texts.items()
    }

    def forbidden(self, *args, **kwargs):
        raise AssertionError("production constructed the interpretive _Evaluator")

    calls = Counter()
    for method in ("select", "ask", "partial_evaluate"):
        original = getattr(Endpoint, method)

        def counted(self, *args, _original=original, _method=method, **kwargs):
            calls[_method] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(Endpoint, method, counted)
    monkeypatch.setattr(evaluator._Evaluator, "__init__", forbidden)

    outcomes = {}
    asked = {}
    for family, federation, texts in workloads:
        for engine_name, build in ENGINES.items():
            engine = build(federation)
            for name, text in texts.items():
                outcomes[(family, name, engine_name)] = engine.execute(text)
        # The engines' ASK probes are single patterns answered off the
        # indexes; the compiled ASK path gets each whole query instead.
        for name, text in texts.items():
            ask = AskQuery(parse_query(text).where)
            asked[(family, name)] = any(
                federation.get(endpoint).ask(ask) for endpoint in federation.names()
            )
    monkeypatch.undo()

    # Every request kind really ran (partial_evaluate under Lusail/partial).
    assert all(calls[method] > 0 for method in ("select", "ask", "partial_evaluate")), calls
    # A query some endpoint can answer alone has an answer in the union.
    assert any(asked.values())
    assert all(expected[key] for key, answered in asked.items() if answered)
    texts = {(family, name): text for family, _, group in workloads for name, text in group.items()}
    wrong = [
        (*key, outcome.status, outcome.error)
        for key, outcome in outcomes.items()
        if not (outcome.ok and _answers(outcome.result.rows, expected[key[:2]], texts[key[:2]]))
    ]
    assert not wrong, wrong


def _answers(rows: list, oracle: list, text: str) -> bool:
    """Whether ``rows`` answer the query as the oracle does: the same
    list under ORDER BY, else the same bag — except a LIMIT without
    ORDER BY, where any ``limit`` rows are an answer
    (``test_cross_engine_matrix`` checks those as subsets)."""
    text = text.upper()
    if "ORDER BY" in text:
        return rows == oracle
    if "LIMIT" in text:
        return len(rows) == len(oracle)
    return Counter(rows) == Counter(oracle)

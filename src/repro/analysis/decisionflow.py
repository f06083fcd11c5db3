"""Decision-kernel contract analysis (rules R109-R113).

Since the decision-kernel refactor, every placement policy is a pure
decider: ``decide()`` yields typed :class:`~repro.sim.decisions.Decision`
objects, one :class:`~repro.sim.engine.ActionExecutor` applies them, and
an :class:`~repro.sim.decisions.Outcome` is sent back into the
generator.  That architecture is held together by contracts that used to
be enforced only by a syntactic test and runtime invariants.  This
module proves them statically, on top of the callgraph's symbol table
and transitive write-effect fixpoint (:mod:`repro.analysis.callgraph`):

* **R109 — handler exhaustiveness.**  Every concrete ``Decision``
  subclass must have an entry in the executor's class-level ``HANDLERS``
  dispatch table, every entry must name a real ``_apply_*`` method, and
  every ``_apply_*`` method must be reachable through the table (no dead
  handlers).  Adding ``MigrateThread`` without a handler becomes a lint
  error instead of a runtime ``SimulationError``.
* **R110 — interprocedural decider purity.**  No function reachable
  from a policy's ``decide()`` may write simulation state through the
  ``sim`` parameter (or module globals).  This is the semantic upgrade
  of the old syntactic purity test: the callgraph write-effect fixpoint
  sees a mutation through any depth of calls.  Writes whose attribute
  path crosses an underscore-private component are sanctioned — they
  are version-keyed memo caches (``AddressSpace._home_map``), invisible
  to results by construction.
* **R111 — generator-protocol misuse.**  Deciders that yield values
  which are not ``Decision`` objects, policy ``decide()`` methods whose
  ``return`` value the executor's ``run_interval`` silently drops, and
  loops that fire mutating decisions as bare statements (discarding the
  ``Outcome``) while gating the loop on a hand-maintained budget
  counter — accounting work that was never confirmed.
* **R112 — accounting completeness.**  Each ``Decision`` class declares
  the :class:`PolicyActionSummary` counters its handler must touch
  (``counters`` class metadata); the analyzer matches the declaration
  against the handler's inferred write effects both ways, and checks
  the union of declared counters covers every conserved field the
  invariant checker reconciles (``_ACTION_FIELDS``).
* **R113 — conflict-domain declarations.**  Each ``Decision`` class
  declares its conflict domain (``page`` / ``thp`` / ``pt`` / ``none``)
  as ``domain`` class metadata; the analyzer checks the literal target
  kinds in ``targets()`` agree with the declaration, and that the
  executor's ``CONFLICT_DOMAINS`` claim coverage equals exactly the set
  of declared non-``none`` domains.

All five rules are structure-driven: a tree with no ``Decision``
hierarchy or no ``HANDLERS`` table is simply out of scope, so ordinary
fixture trees stay clean.  Suppression uses the standard
``# lint: ignore[R110]`` comments.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import (
    GLOBAL_ROOT,
    Effect,
    FunctionInfo,
    Project,
)
from repro.analysis.linter import Finding

#: Valid values of the ``domain`` class metadata (R113).
VALID_DOMAINS: Tuple[str, ...] = ("page", "thp", "pt", "none")

#: Domains whose decisions mutate backing state; their handlers must
#: account work (R112) and their Outcomes must not be discarded inside
#: budget-gated loops (R111).
MUTATING_DOMAINS: Tuple[str, ...] = ("page", "pt")

#: Class basename anchoring the decision hierarchy.
DECISION_BASE = "Decision"

#: Class basename anchoring the policy hierarchy (R110/R111 roots).
POLICY_BASE = "PlacementPolicy"

#: Executor method-name prefix for apply handlers (R109 dead-handler
#: detection).
HANDLER_PREFIX = "_apply_"


# ----------------------------------------------------------------------
# Parsed structures
# ----------------------------------------------------------------------
@dataclass
class DecisionClassInfo:
    """One concrete ``Decision`` subclass and its declared metadata."""

    qualname: str
    module: str
    node: ast.ClassDef
    #: Declared conflict domain, or None when the class body has none.
    domain: Optional[str] = None
    domain_node: Optional[ast.AST] = None
    #: Declared summary counters, or None when the class body has none.
    counters: Optional[Tuple[str, ...]] = None
    counters_node: Optional[ast.AST] = None
    #: Literal target-kind strings parsed from ``targets()`` returns.
    target_kinds: Tuple[str, ...] = ()
    #: Whether a ``targets()`` body was found (own body or inherited).
    has_targets: bool = False
    #: Whether ``targets()`` contains returns we could not parse into
    #: literal kinds (dynamic construction); kind checks are skipped.
    opaque_targets: bool = False

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    def declared_counters(self) -> Tuple[str, ...]:
        """Counters, treating an absent declaration as the base () ."""
        return self.counters if self.counters is not None else ()


@dataclass
class ExecutorInfo:
    """One class carrying a ``HANDLERS`` decision-dispatch table."""

    qualname: str
    module: str
    node: ast.ClassDef
    handlers_node: ast.AST
    #: decision class qualname -> handler method name
    handlers: Dict[str, str] = field(default_factory=dict)
    #: HANDLERS keys that did not resolve to a project class, with the
    #: spelled name (R109 reports them).
    unresolved_keys: List[str] = field(default_factory=list)
    #: HANDLERS keys that resolved to a non-Decision class.
    foreign_keys: List[str] = field(default_factory=list)
    #: Every method name appearing as a HANDLERS value (including ones
    #: keyed by unresolved/foreign classes) — dead-handler detection
    #: must not double-report a method whose key is already flagged.
    referenced_methods: Set[str] = field(default_factory=set)
    conflict_domains: Optional[Tuple[str, ...]] = None
    conflict_domains_node: Optional[ast.AST] = None


# ----------------------------------------------------------------------
# AST helpers
# ----------------------------------------------------------------------
def _own_nodes(func_node: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested defs."""
    stack = list(getattr(func_node, "body", []))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _class_body_assign(
    node: ast.ClassDef, name: str
) -> Tuple[Optional[ast.AST], Optional[ast.AST]]:
    """Find ``name = value`` / ``name: T = value`` in a class body."""
    for stmt in node.body:
        if (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and stmt.target.id == name
            and stmt.value is not None
        ):
            return stmt, stmt.value
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id == name
        ):
            return stmt, stmt.value
    return None, None


def _string_tuple(value: Optional[ast.AST]) -> Optional[Tuple[str, ...]]:
    """Parse a tuple/list literal of string constants, else None."""
    if not isinstance(value, (ast.Tuple, ast.List)):
        return None
    out: List[str] = []
    for elt in value.elts:
        if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
            out.append(elt.value)
        else:
            return None
    return tuple(out)


def _names_in(node: Optional[ast.AST]) -> Set[str]:
    if node is None:
        return set()
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _short(qualname: str) -> str:
    """Last two dotted components, for chains and messages."""
    return ".".join(qualname.split(".")[-2:])


# ----------------------------------------------------------------------
# The model
# ----------------------------------------------------------------------
class DecisionFlowModel:
    """Parsed decision-kernel structure of one project.

    Built once per project (cached by :func:`decision_flow_model`) and
    shared by the five rules: the decision hierarchy with its metadata,
    every executor's dispatch table, the policy ``decide()`` roots, the
    summary's field set and the invariant checker's conserved fields.
    """

    def __init__(self, project: Project) -> None:
        self.project = project
        project.analyze()
        #: qualname -> info for every concrete Decision subclass.
        self.decisions: Dict[str, DecisionClassInfo] = {}
        #: Hierarchy roots (classes literally named ``Decision``).
        self.decision_bases: List[str] = []
        self.executors: List[ExecutorInfo] = []
        #: ``decide()`` qualnames of PlacementPolicy subclasses.
        self.policy_roots: List[str] = []
        #: PolicyActionSummary dataclass fields (None: class not in tree,
        #: fields are then not filtered).
        self.summary_fields: Optional[Tuple[str, ...]] = None
        #: Conserved fields the invariant checker reconciles, with the
        #: module carrying the declaration (for finding anchors).
        self.action_fields: Tuple[str, ...] = ()
        self.action_fields_module: Optional[str] = None
        self.action_fields_node: Optional[ast.AST] = None
        self._subclasses = self._subclass_map()
        self._collect_decisions()
        self._collect_executors()
        self._collect_policy_roots()
        self._collect_summary_fields()
        self._collect_action_fields()

    # -- hierarchy ------------------------------------------------------
    def _resolve_base(self, module: str, base: ast.AST) -> Optional[str]:
        if isinstance(base, ast.Name):
            name = base.id
        elif isinstance(base, ast.Attribute):
            name = base.attr
        else:
            return None
        project = self.project
        local = project.module_symbols.get(module, {}).get(name)
        if local is None:
            local = project.imports.get(module, {}).get(name)
        if local is None:
            return None
        resolved = project._lookup(local)
        return resolved if resolved in project.classes else None

    def _subclass_map(self) -> Dict[str, List[str]]:
        """Direct subclass edges: base qualname -> subclass qualnames."""
        edges: Dict[str, List[str]] = {}
        for qual, node in self.project.classes.items():
            module = qual.rsplit(".", 1)[0]
            for base in node.bases:
                parent = self._resolve_base(module, base)
                if parent is not None:
                    edges.setdefault(parent, []).append(qual)
        return edges

    def _transitive_subclasses(self, roots: Sequence[str]) -> List[str]:
        seen: Set[str] = set()
        queue = list(roots)
        while queue:
            current = queue.pop(0)
            for child in self._subclasses.get(current, ()):
                if child not in seen:
                    seen.add(child)
                    queue.append(child)
        return sorted(seen)

    # -- decisions ------------------------------------------------------
    def _collect_decisions(self) -> None:
        self.decision_bases = sorted(
            qual
            for qual in self.project.classes
            if qual.rsplit(".", 1)[-1] == DECISION_BASE
        )
        for qual in self._transitive_subclasses(self.decision_bases):
            node = self.project.classes[qual]
            module = qual.rsplit(".", 1)[0]
            info = DecisionClassInfo(qualname=qual, module=module, node=node)
            info.domain_node, domain_value = _class_body_assign(node, "domain")
            if isinstance(domain_value, ast.Constant) and isinstance(
                domain_value.value, str
            ):
                info.domain = domain_value.value
            info.counters_node, counters_value = _class_body_assign(
                node, "counters"
            )
            info.counters = _string_tuple(counters_value)
            self._parse_targets(info)
            self.decisions[qual] = info

    def _parse_targets(self, info: DecisionClassInfo) -> None:
        """Literal target kinds from the nearest ``targets()`` body."""
        node = self._find_method(info.qualname, "targets")
        if node is None:
            return
        info.has_targets = True
        kinds: List[str] = []
        for sub in _own_nodes(node):
            if not isinstance(sub, ast.Return) or sub.value is None:
                continue
            value = sub.value
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "tuple"
                and len(value.args) == 1
                and isinstance(value.args[0], ast.GeneratorExp)
            ):
                # One key per element of a batch decision:
                # ``tuple(("page", x) for x in ...)``.
                value = ast.Tuple(elts=[value.args[0].elt], ctx=ast.Load())
            if isinstance(value, ast.Tuple):
                for elt in value.elts:
                    if (
                        isinstance(elt, ast.Tuple)
                        and elt.elts
                        and isinstance(elt.elts[0], ast.Constant)
                        and isinstance(elt.elts[0].value, str)
                    ):
                        kinds.append(elt.elts[0].value)
                    else:
                        info.opaque_targets = True
            elif not (
                isinstance(value, ast.Constant) and value.value is None
            ):
                info.opaque_targets = True
        info.target_kinds = tuple(sorted(set(kinds)))

    def _find_method(self, qual_cls: str, name: str) -> Optional[ast.AST]:
        """Method body for a class, walking up the base chain."""
        seen: Set[str] = set()
        queue = [qual_cls]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            func = self.project.functions.get(f"{current}.{name}")
            if func is not None:
                return func.node
            node = self.project.classes.get(current)
            if node is None:
                continue
            module = current.rsplit(".", 1)[0]
            for base in node.bases:
                parent = self._resolve_base(module, base)
                if parent is not None:
                    queue.append(parent)
        return None

    # -- executors ------------------------------------------------------
    def _collect_executors(self) -> None:
        for qual in sorted(self.project.classes):
            node = self.project.classes[qual]
            handlers_node, handlers_value = _class_body_assign(
                node, "HANDLERS"
            )
            if handlers_node is None or not isinstance(
                handlers_value, ast.Dict
            ):
                continue
            module = qual.rsplit(".", 1)[0]
            executor = ExecutorInfo(
                qualname=qual,
                module=module,
                node=node,
                handlers_node=handlers_node,
            )
            for key, value in zip(
                handlers_value.keys, handlers_value.values
            ):
                key_qual, key_name = self._resolve_key(module, key)
                method = self._handler_name(value)
                if method is not None:
                    executor.referenced_methods.add(method)
                if key_qual is None:
                    executor.unresolved_keys.append(key_name)
                    continue
                if key_qual not in self.decisions:
                    executor.foreign_keys.append(key_name)
                    continue
                if method is not None:
                    executor.handlers[key_qual] = method
            domains_node, domains_value = _class_body_assign(
                node, "CONFLICT_DOMAINS"
            )
            executor.conflict_domains_node = domains_node
            executor.conflict_domains = _string_tuple(domains_value)
            self.executors.append(executor)

    def _resolve_key(
        self, module: str, key: Optional[ast.AST]
    ) -> Tuple[Optional[str], str]:
        """Resolve a HANDLERS key to a class qualname (or name it)."""
        if isinstance(key, ast.Name):
            name = key.id
        elif isinstance(key, ast.Attribute):
            name = key.attr
        else:
            return None, ast.dump(key) if key is not None else "<none>"
        project = self.project
        local = project.module_symbols.get(module, {}).get(name)
        if local is None:
            local = project.imports.get(module, {}).get(name)
        if local is None:
            return None, name
        resolved = project._lookup(local)
        if resolved in project.classes:
            return resolved, name
        return None, name

    @staticmethod
    def _handler_name(value: ast.AST) -> Optional[str]:
        if isinstance(value, ast.Name):
            return value.id
        if isinstance(value, ast.Attribute):
            return value.attr
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            return value.value
        return None

    # -- policies and summary -------------------------------------------
    def _collect_policy_roots(self) -> None:
        bases = [
            qual
            for qual in self.project.classes
            if qual.rsplit(".", 1)[-1] == POLICY_BASE
        ]
        classes = sorted(bases) + self._transitive_subclasses(bases)
        roots: List[str] = []
        for qual_cls in classes:
            decide = f"{qual_cls}.decide"
            if decide in self.project.functions and decide not in roots:
                roots.append(decide)
        self.policy_roots = roots

    def _collect_summary_fields(self) -> None:
        for qual in sorted(self.project.classes):
            if qual.rsplit(".", 1)[-1] != "PolicyActionSummary":
                continue
            fields: List[str] = []
            for stmt in self.project.classes[qual].body:
                if not isinstance(stmt, ast.AnnAssign):
                    continue
                if not isinstance(stmt.target, ast.Name):
                    continue
                annotation = ast.unparse(stmt.annotation)
                if "ClassVar" in annotation:
                    continue
                fields.append(stmt.target.id)
            self.summary_fields = tuple(fields)
            return

    def _collect_action_fields(self) -> None:
        for module, ctx in sorted(self.project.contexts.items()):
            for stmt in ctx.tree.body:
                if (
                    isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and stmt.targets[0].id == "_ACTION_FIELDS"
                ):
                    parsed = _string_tuple(stmt.value)
                    if parsed is not None:
                        self.action_fields = parsed
                        self.action_fields_module = module
                        self.action_fields_node = stmt
                        return

    # -- shared lookups -------------------------------------------------
    def resolve_decision_call(
        self, info: FunctionInfo, call: ast.Call
    ) -> Optional[str]:
        """Decision class qualname a constructor call builds, if any."""
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        else:
            return None
        project = self.project
        local = project.module_symbols.get(info.module, {}).get(name)
        if local is None:
            local = project.imports.get(info.module, {}).get(name)
        if local is None:
            return None
        resolved = project._lookup(local)
        return resolved if resolved in self.decisions else None

    def resolve_project_class_call(
        self, info: FunctionInfo, call: ast.Call
    ) -> Optional[str]:
        """Project class qualname a constructor call builds, if any."""
        func = call.func
        if not isinstance(func, ast.Name):
            return None
        project = self.project
        local = project.module_symbols.get(info.module, {}).get(func.id)
        if local is None:
            local = project.imports.get(info.module, {}).get(func.id)
        if local is None:
            return None
        resolved = project._lookup(local)
        return resolved if resolved in project.classes else None

    def decider_functions(self) -> List[str]:
        """Generator functions that emit decisions (R111 scope).

        A function qualifies when it contains a ``yield`` and either
        (a) it is a policy ``decide()`` root, (b) it yields at least one
        resolvable ``Decision`` construction, or (c) its return
        annotation mentions ``Decision``.
        """
        out: List[str] = []
        roots = set(self.policy_roots)
        for qualname in sorted(self.project.functions):
            info = self.project.functions[qualname]
            yields = [
                n
                for n in _own_nodes(info.node)
                if isinstance(n, (ast.Yield, ast.YieldFrom))
            ]
            if not yields:
                continue
            if qualname in roots:
                out.append(qualname)
                continue
            annotation = getattr(info.node, "returns", None)
            if annotation is not None and "Decision" in ast.unparse(
                annotation
            ):
                out.append(qualname)
                continue
            for node in yields:
                if (
                    isinstance(node, ast.Yield)
                    and isinstance(node.value, ast.Call)
                    and self.resolve_decision_call(info, node.value)
                ):
                    out.append(qualname)
                    break
        return out

    def domain_of(self, qual_decision: str) -> str:
        info = self.decisions.get(qual_decision)
        if info is None or info.domain is None:
            return "none"
        return info.domain

    # -- --explain support ----------------------------------------------
    def describe(self) -> str:
        """Human-readable model summary for ``--explain R109..R113``."""
        lines = ["decision-kernel model:"]
        lines.append(f"  decision classes ({len(self.decisions)}):")
        for qual in sorted(self.decisions):
            info = self.decisions[qual]
            counters = ",".join(info.declared_counters()) or "-"
            lines.append(
                f"    {_short(qual)}: domain={info.domain or '?'} "
                f"counters={counters}"
            )
        for executor in self.executors:
            lines.append(
                f"  executor {_short(executor.qualname)}: "
                f"{len(executor.handlers)} handler(s), "
                f"domains={','.join(executor.conflict_domains or ()) or '?'}"
            )
        if self.policy_roots:
            lines.append(
                "  policy decide() roots: "
                + ", ".join(_short(q) for q in self.policy_roots)
            )
        if self.action_fields:
            lines.append(
                "  conserved fields: " + ", ".join(self.action_fields)
            )
        return "\n".join(lines)


def decision_flow_model(project: Project) -> DecisionFlowModel:
    """One cached model per analyzed project (all five rules share it)."""
    cached = getattr(project, "_decisionflow_model", None)
    if cached is None:
        cached = DecisionFlowModel(project)
        project._decisionflow_model = cached
    return cached


# ----------------------------------------------------------------------
# Finding helpers
# ----------------------------------------------------------------------
def _finding(
    model: DecisionFlowModel,
    rule: str,
    module: str,
    node: Optional[ast.AST],
    message: str,
    chain: Tuple[str, ...] = (),
) -> Optional[Finding]:
    ctx = model.project.contexts.get(module)
    if ctx is None:
        return None
    return ctx.finding(rule, node if node is not None else ctx.tree, message,
                       chain=chain)


def _emit(findings: List[Finding], finding: Optional[Finding]) -> None:
    if finding is not None:
        findings.append(finding)


# ----------------------------------------------------------------------
# R109: handler exhaustiveness
# ----------------------------------------------------------------------
def check_exhaustiveness(model: DecisionFlowModel) -> List[Finding]:
    """R109: HANDLERS covers every Decision subclass, with no dead
    handlers and no foreign keys."""
    findings: List[Finding] = []
    if not model.executors:
        return findings
    handled: Set[str] = set()
    for executor in model.executors:
        handled |= set(executor.handlers)
        for name in executor.unresolved_keys:
            _emit(
                findings,
                _finding(
                    model,
                    "R109",
                    executor.module,
                    executor.handlers_node,
                    f"{_short(executor.qualname)}.HANDLERS key {name!r} does "
                    "not resolve to a known class",
                ),
            )
        for name in executor.foreign_keys:
            _emit(
                findings,
                _finding(
                    model,
                    "R109",
                    executor.module,
                    executor.handlers_node,
                    f"{_short(executor.qualname)}.HANDLERS key {name!r} is "
                    "not a Decision subclass",
                ),
            )
        method_quals = {
            q.rsplit(".", 1)[-1]
            for q in model.project.functions
            if q.startswith(executor.qualname + ".")
        }
        referenced = executor.referenced_methods
        for qual_decision, method in sorted(executor.handlers.items()):
            if method not in method_quals:
                _emit(
                    findings,
                    _finding(
                        model,
                        "R109",
                        executor.module,
                        executor.handlers_node,
                        f"{_short(executor.qualname)}.HANDLERS maps "
                        f"{_short(qual_decision)} to missing method "
                        f"{method!r}",
                    ),
                )
        for method in sorted(method_quals):
            if method.startswith(HANDLER_PREFIX) and method not in referenced:
                info = model.project.functions[
                    f"{executor.qualname}.{method}"
                ]
                _emit(
                    findings,
                    _finding(
                        model,
                        "R109",
                        executor.module,
                        info.node,
                        f"dead handler {_short(executor.qualname)}.{method}: "
                        "not referenced by HANDLERS",
                    ),
                )
    for qual in sorted(model.decisions):
        if qual in handled:
            continue
        info = model.decisions[qual]
        _emit(
            findings,
            _finding(
                model,
                "R109",
                info.module,
                info.node,
                f"Decision subclass {_short(qual)} has no executor handler: "
                "add an _apply_* method and a HANDLERS entry",
            ),
        )
    return findings


# ----------------------------------------------------------------------
# R110: interprocedural decider purity
# ----------------------------------------------------------------------
def _is_sanctioned_path(path: Tuple[str, ...]) -> bool:
    """Underscore-private path components mark internal memo caches."""
    return any(part.startswith("_") for part in path)


def _sim_param(info: FunctionInfo) -> Optional[str]:
    if "sim" in info.params:
        return "sim"
    if info.class_name is not None and len(info.params) > 1:
        return info.params[1]
    if info.class_name is None and info.params:
        return info.params[0]
    return None


def _culprit_chain(
    model: DecisionFlowModel, root: str, effect: Effect
) -> Tuple[str, ...]:
    """Shortest call chain to a function directly causing the effect."""
    chains = model.project.reachable_from([root])
    best: Tuple[str, ...] = (root,)
    for qualname, chain in sorted(chains.items()):
        info = model.project.functions[qualname]
        for direct in info.direct_effects:
            if direct.path and effect.path and direct.path[-1] == effect.path[-1]:
                if len(chain) > len(best):
                    best = chain
                break
    return tuple(_short(q) for q in best)


def check_purity(model: DecisionFlowModel) -> List[Finding]:
    """R110: nothing reachable from decide() writes simulation state."""
    findings: List[Finding] = []
    for root in model.policy_roots:
        info = model.project.functions[root]
        sim = _sim_param(info)
        bad: List[Effect] = []
        for effect in sorted(info.effects, key=lambda e: (e.root, e.path)):
            if effect.root == GLOBAL_ROOT:
                bad.append(effect)
            elif (
                sim is not None
                and effect.root == sim
                and not _is_sanctioned_path(effect.path)
            ):
                bad.append(effect)
        for effect in bad:
            chain = _culprit_chain(model, root, effect)
            _emit(
                findings,
                _finding(
                    model,
                    "R110",
                    info.module,
                    info.node,
                    f"{_short(root)}() may mutate {effect.describe()} "
                    f"(via {' -> '.join(chain)}); deciders are pure — "
                    "yield a Decision and let the executor apply it",
                    chain=chain,
                ),
            )
    return findings


# ----------------------------------------------------------------------
# R111: generator-protocol misuse
# ----------------------------------------------------------------------
def _non_decision_yields(
    model: DecisionFlowModel, info: FunctionInfo
) -> Iterator[Tuple[ast.AST, str]]:
    for node in _own_nodes(info.node):
        if not isinstance(node, ast.Yield) or node.value is None:
            continue
        value = node.value
        if isinstance(value, (ast.Tuple, ast.List, ast.Dict, ast.Set)):
            yield node, "a container literal"
        elif isinstance(value, ast.Constant):
            yield node, f"constant {value.value!r}"
        elif isinstance(value, ast.Call):
            built = model.resolve_project_class_call(info, value)
            if built is not None and built not in model.decisions:
                yield node, f"a {_short(built)} instance"


def _loop_discarded_outcomes(
    model: DecisionFlowModel, info: FunctionInfo
) -> Iterator[Tuple[ast.AST, str, str]]:
    """Statement-yields of mutating decisions in budget-gated loops."""
    for loop in _own_nodes(info.node):
        if not isinstance(loop, (ast.For, ast.While)):
            continue
        body = [n for stmt in loop.body for n in ast.walk(stmt)]
        aug_names = {
            n.target.id
            for n in body
            if isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name)
        }
        guard_names: Set[str] = set()
        if isinstance(loop, ast.While):
            guard_names |= _names_in(loop.test)
        for node in body:
            if isinstance(node, ast.If) and any(
                isinstance(sub, (ast.Break, ast.Continue))
                for stmt in node.body
                for sub in ast.walk(stmt)
            ):
                guard_names |= _names_in(node.test)
        gating = sorted(aug_names & guard_names)
        if not gating:
            continue
        for node in body:
            if not (
                isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Yield)
                and isinstance(node.value.value, ast.Call)
            ):
                continue
            built = model.resolve_decision_call(info, node.value.value)
            if built is None:
                continue
            if model.domain_of(built) in MUTATING_DOMAINS:
                yield node.value, _short(built), gating[0]


def check_generator_protocol(model: DecisionFlowModel) -> List[Finding]:
    """R111: yields must be Decisions, returns must not be dropped,
    Outcomes must be consulted where they gate further work."""
    findings: List[Finding] = []
    deciders = model.decider_functions()
    policy_roots = set(model.policy_roots)
    for qualname in deciders:
        info = model.project.functions[qualname]
        for node, what in _non_decision_yields(model, info):
            _emit(
                findings,
                _finding(
                    model,
                    "R111",
                    info.module,
                    node,
                    f"{_short(qualname)}() yields {what}; the executor "
                    "only accepts Decision objects",
                ),
            )
        if qualname in policy_roots:
            for node in _own_nodes(info.node):
                if (
                    isinstance(node, ast.Return)
                    and node.value is not None
                    and not (
                        isinstance(node.value, ast.Constant)
                        and node.value.value is None
                    )
                ):
                    _emit(
                        findings,
                        _finding(
                            model,
                            "R111",
                            info.module,
                            node,
                            f"{_short(qualname)}() returns a value that "
                            "run_interval silently drops; yield a Note or "
                            "record it on the policy instead",
                        ),
                    )
        for node, decision_name, counter in _loop_discarded_outcomes(
            model, info
        ):
            _emit(
                findings,
                _finding(
                    model,
                    "R111",
                    info.module,
                    node,
                    f"{_short(qualname)}() discards the Outcome of "
                    f"{decision_name} while {counter!r} gates the loop; "
                    "bind it (outcome = yield ...) and account the work "
                    "actually performed",
                ),
            )
    return findings


# ----------------------------------------------------------------------
# R112: accounting completeness
# ----------------------------------------------------------------------
def _summary_param(info: FunctionInfo) -> Optional[str]:
    if "summary" in info.params:
        return "summary"
    if len(info.params) >= 3:
        return info.params[2]
    return None


def _handler_writes(
    model: DecisionFlowModel, info: FunctionInfo
) -> Set[str]:
    """Summary fields a handler's transitive effects touch."""
    param = _summary_param(info)
    if param is None:
        return set()
    touched = {
        effect.path[0]
        for effect in info.effects
        if effect.root == param and effect.path
        and not effect.path[0].startswith("_")
    }
    if model.summary_fields is not None:
        # Name-based dynamic dispatch pollutes effects with unrelated
        # merge()/add_note() implementations; only real summary fields
        # count.
        touched &= set(model.summary_fields)
    return touched


def check_accounting(model: DecisionFlowModel) -> List[Finding]:
    """R112: handler write effects match the declared counter map."""
    findings: List[Finding] = []
    declared_union: Set[str] = set()
    have_handlers = False
    for executor in model.executors:
        for qual_decision, method in sorted(executor.handlers.items()):
            decision = model.decisions[qual_decision]
            handler = model.project.functions.get(
                f"{executor.qualname}.{method}"
            )
            if handler is None:
                continue  # R109 reports the missing method
            have_handlers = True
            declared = set(decision.declared_counters())
            declared_union |= declared
            if model.summary_fields is not None:
                for counter in sorted(
                    declared - set(model.summary_fields)
                ):
                    _emit(
                        findings,
                        _finding(
                            model,
                            "R112",
                            decision.module,
                            decision.counters_node or decision.node,
                            f"{decision.name}.counters declares "
                            f"{counter!r}, which is not a "
                            "PolicyActionSummary field",
                        ),
                    )
            actual = _handler_writes(model, handler)
            for counter in sorted(actual - declared):
                _emit(
                    findings,
                    _finding(
                        model,
                        "R112",
                        executor.module,
                        handler.node,
                        f"handler {_short(executor.qualname)}.{method} "
                        f"touches summary.{counter}, which "
                        f"{decision.name}.counters does not declare",
                    ),
                )
            for counter in sorted(declared - actual):
                _emit(
                    findings,
                    _finding(
                        model,
                        "R112",
                        executor.module,
                        handler.node,
                        f"{decision.name}.counters declares {counter!r} "
                        f"but handler {_short(executor.qualname)}.{method} "
                        "never touches it",
                    ),
                )
            if (
                decision.domain in MUTATING_DOMAINS
                and not declared
                and not actual
            ):
                _emit(
                    findings,
                    _finding(
                        model,
                        "R112",
                        executor.module,
                        handler.node,
                        f"handler {_short(executor.qualname)}.{method} "
                        f"applies a {decision.domain!r}-domain decision "
                        "but accounts no summary counter; the invariant "
                        "checker cannot reconcile its work",
                    ),
                )
    if (
        have_handlers
        and model.action_fields
        and model.action_fields_module is not None
    ):
        for conserved in model.action_fields:
            if conserved not in declared_union:
                _emit(
                    findings,
                    _finding(
                        model,
                        "R112",
                        model.action_fields_module,
                        model.action_fields_node,
                        f"conserved field {conserved!r} is reconciled by "
                        "the invariant checker but declared by no "
                        "Decision.counters",
                    ),
                )
    return findings


# ----------------------------------------------------------------------
# R113: conflict-domain declarations
# ----------------------------------------------------------------------
def check_conflict_domains(model: DecisionFlowModel) -> List[Finding]:
    """R113: metadata, targets() and executor claim coverage agree."""
    findings: List[Finding] = []
    if not model.decisions:
        return findings
    for qual in sorted(model.decisions):
        info = model.decisions[qual]
        if info.domain is None:
            _emit(
                findings,
                _finding(
                    model,
                    "R113",
                    info.module,
                    info.node,
                    f"Decision subclass {info.name} does not declare its "
                    "conflict domain (domain = \"page\" | \"thp\" | \"pt\" "
                    "| \"none\")",
                ),
            )
            continue
        if info.domain not in VALID_DOMAINS:
            _emit(
                findings,
                _finding(
                    model,
                    "R113",
                    info.module,
                    info.domain_node or info.node,
                    f"{info.name}.domain is {info.domain!r}; valid domains "
                    f"are {', '.join(VALID_DOMAINS)}",
                ),
            )
            continue
        if info.opaque_targets:
            continue
        kinds = set(info.target_kinds)
        if info.domain == "none":
            if kinds:
                _emit(
                    findings,
                    _finding(
                        model,
                        "R113",
                        info.module,
                        info.domain_node or info.node,
                        f"{info.name} declares domain 'none' but targets() "
                        f"claims {', '.join(sorted(kinds))} keys",
                    ),
                )
        else:
            if not info.has_targets or not kinds:
                _emit(
                    findings,
                    _finding(
                        model,
                        "R113",
                        info.module,
                        info.domain_node or info.node,
                        f"{info.name} declares domain {info.domain!r} but "
                        "targets() claims nothing; the executor cannot "
                        "arbitrate it",
                    ),
                )
            elif kinds != {info.domain}:
                _emit(
                    findings,
                    _finding(
                        model,
                        "R113",
                        info.module,
                        info.domain_node or info.node,
                        f"{info.name} declares domain {info.domain!r} but "
                        f"targets() claims "
                        f"{', '.join(sorted(kinds))} keys",
                    ),
                )
    for executor in model.executors:
        declared_domains = {
            model.domain_of(qual)
            for qual in executor.handlers
        } - {"none"}
        declared_domains &= set(VALID_DOMAINS)
        if executor.conflict_domains is None:
            if declared_domains:
                _emit(
                    findings,
                    _finding(
                        model,
                        "R113",
                        executor.module,
                        executor.handlers_node,
                        f"{_short(executor.qualname)} declares no "
                        "CONFLICT_DOMAINS; its claim logic must cover "
                        f"{', '.join(sorted(declared_domains))}",
                    ),
                )
            continue
        claimed = set(executor.conflict_domains)
        if claimed != declared_domains:
            missing = sorted(declared_domains - claimed)
            extra = sorted(claimed - declared_domains)
            detail = []
            if missing:
                detail.append(f"missing {', '.join(missing)}")
            if extra:
                detail.append(f"unclaimed-by-decisions {', '.join(extra)}")
            _emit(
                findings,
                _finding(
                    model,
                    "R113",
                    executor.module,
                    executor.conflict_domains_node,
                    f"{_short(executor.qualname)}.CONFLICT_DOMAINS "
                    f"({', '.join(sorted(claimed)) or 'empty'}) does not "
                    "match the domains its decisions declare "
                    f"({', '.join(sorted(declared_domains)) or 'empty'}): "
                    + "; ".join(detail),
                ),
            )
    return findings

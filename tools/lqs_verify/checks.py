"""The five lqs-verify checkers: status-discipline, noalloc, layering,
lock-order/annotation-coverage (`locks`), and byte-identity purity
(`determinism`).

Each checker consumes the frontend-agnostic model.SourceModel and returns a
list of model.Finding. Checker semantics (and the escape hatches) are
specified in DESIGN.md §12/§14 and pinned down by the fixture suite in
testdata/ + test_lqs_verify.py.
"""

from __future__ import annotations

import os
import re
from typing import Dict, List, Optional, Set, Tuple

from model import Finding, FunctionInfo, SourceModel

# ---------------------------------------------------------------------------
# status-discipline


def check_status(model: SourceModel) -> List[Finding]:
    """Flag Status/StatusOr-returning calls whose result is dropped.

    Two shapes:
      * discarded: the call is a bare expression statement (including an
        explicit `(void)` cast — intent must be spelled out with a
        `// lqs-verify: status-ok(reason)` suppression instead);
      * bound but never consulted: `Status s = f(...);` where `s` does not
        appear again in the enclosing body.

    The compiler already rejects plain discards ([[nodiscard]] +
    -Werror=unused-result); this checker keeps flagging them for
    configurations built without the warning, and adds the never-consulted
    analysis the compiler cannot do.
    """
    findings: List[Finding] = []
    for fn in model.functions:
        if not fn.is_definition:
            continue
        for call in fn.calls:
            if call.name not in model.status_names:
                continue
            sup = model.suppression_for(fn.file, call.line, "status-ok")
            if call.discarded:
                if sup is not None:
                    if not sup.justification:
                        findings.append(
                            Finding(
                                "status", fn.file, call.line,
                                "status-ok suppression requires a "
                                "non-empty reason"))
                    continue
                how = ("explicitly (void)-cast away"
                       if call.void_cast else "discarded")
                findings.append(
                    Finding(
                        "status", fn.file, call.line,
                        f"result of Status-returning call '{call.name}' is "
                        f"{how} in '{fn.qualname}' — consult it or suppress "
                        "with // lqs-verify: status-ok(reason)"))
            elif call.assigned_to is not None and not call.consulted:
                if sup is not None:
                    if not sup.justification:
                        findings.append(
                            Finding(
                                "status", fn.file, call.line,
                                "status-ok suppression requires a "
                                "non-empty reason"))
                    continue
                findings.append(
                    Finding(
                        "status", fn.file, call.line,
                        f"Status result of '{call.name}' is bound to "
                        f"'{call.assigned_to}' but never consulted in "
                        f"'{fn.qualname}'"))
    return findings


# ---------------------------------------------------------------------------
# noalloc


class _Annotation:
    __slots__ = ("noalloc", "alloc_ok", "virtual", "decl_site",
                 "deterministic", "requires")

    def __init__(self) -> None:
        self.noalloc = False
        self.alloc_ok: Optional[str] = None
        self.virtual = False
        self.decl_site: Optional[Tuple[str, int]] = None
        self.deterministic = False
        self.requires: List[str] = []


def _merge_annotations(model: SourceModel) -> Dict[str, _Annotation]:
    """Annotations and virtual-ness unified across decls and defs of the
    same qualified name (headers carry the annotations; .cc files the
    bodies)."""
    merged: Dict[str, _Annotation] = {}
    for fn in model.functions:
        ann = merged.setdefault(fn.qualname, _Annotation())
        ann.noalloc = ann.noalloc or fn.noalloc
        ann.virtual = ann.virtual or fn.is_virtual
        ann.deterministic = ann.deterministic or fn.deterministic
        for req in fn.requires:
            if req not in ann.requires:
                ann.requires.append(req)
        if fn.alloc_ok is not None:
            if ann.alloc_ok is None or len(fn.alloc_ok) > len(ann.alloc_ok):
                ann.alloc_ok = fn.alloc_ok
        if (fn.noalloc or fn.alloc_ok is not None
                or fn.deterministic) and ann.decl_site is None:
            ann.decl_site = (fn.file, fn.line)
    return merged


def _resolve(call, defs_by_name, visible) -> List[FunctionInfo]:
    candidates = defs_by_name.get(call.name, [])
    if call.qualifier:
        qualified = [
            fn for fn in candidates
            if fn.qualname.endswith(f"{call.qualifier}::{call.name}")
        ]
        if qualified:
            candidates = qualified
    if visible is not None:
        candidates = [fn for fn in candidates if visible(fn.qualname)]
    return candidates


class _Visibility:
    """Include-closure-based call resolution filter.

    Name-only resolution conflates unrelated functions that share a simple
    name (`report_.Add` in analysis/ vs `QueryList::Add` in workload/). A
    candidate is admissible from a caller file only when some declaration or
    definition of its qualified name lives in that file or its transitive
    include closure — mirroring what the compiler could actually have
    resolved the call to.
    """

    def __init__(self, model: SourceModel, root: str) -> None:
        self._root = root
        self._scanned = {os.path.normpath(p): p for p in model.includes}
        self._graph: Dict[str, List[str]] = {}
        for path, includes in model.includes.items():
            self._graph[path] = [
                t for t in (self._resolve_include(inc)
                            for _, inc in includes) if t is not None
            ]
        self._decl_files: Dict[str, Set[str]] = {}
        for fn in model.functions:
            self._decl_files.setdefault(fn.qualname, set()).add(fn.file)
        self._closures: Dict[str, Set[str]] = {}

    def _resolve_include(self, include: str) -> Optional[str]:
        for base in ("src", "."):
            candidate = os.path.normpath(
                os.path.join(self._root, base, include))
            if candidate in self._scanned:
                return self._scanned[candidate]
        return None

    def closure(self, path: str) -> Set[str]:
        cached = self._closures.get(path)
        if cached is not None:
            return cached
        seen: Set[str] = {path}
        stack = [path]
        while stack:
            for target in self._graph.get(stack.pop(), []):
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
        self._closures[path] = seen
        return seen

    def from_file(self, caller_file: str):
        visible_files = self.closure(caller_file)

        def visible(qualname: str) -> bool:
            return not self._decl_files.get(qualname, set()).isdisjoint(
                visible_files)

        return visible


_PAIRED = re.compile(r"LQS_NOALLOC_PAIRED:\s*([A-Za-z_][\w:]*)")

# Functions whose allocation-freedom the acceptance criteria rely on (zero
# steady-state allocations per estimate). A whole-tree run fails if any of
# these loses its LQS_NOALLOC marker — the symmetric guarantee to
# REQUIRED_DETERMINISTIC below.
REQUIRED_NOALLOC: Tuple[str, ...] = (
    "ProgressEstimator::EstimateInto",
    # The bounds-engine pipeline (PR 10): both the dispatcher and the
    # LpBound engine sit on the per-snapshot hot path of every bounding
    # estimator configuration.
    "ComputeBoundsPipelineInto",
    "ComputeLpBoundsInto",
)


def check_noalloc(model: SourceModel,
                  pairing_file: Optional[str] = None,
                  pairing_text: Optional[str] = None,
                  root: Optional[str] = None,
                  required: Optional[Tuple[str, ...]] = None
                  ) -> List[Finding]:
    """Transitive call-graph allocation-freedom of LQS_NOALLOC functions.

    From every definition whose qualified name carries LQS_NOALLOC, walk all
    resolvable non-virtual call chains. Any reachable lexical allocation
    site (operator new, the malloc family, make_unique/make_shared, growing
    container member calls) is a finding, reported with the full chain —
    unless the function is an LQS_ALLOC_OK boundary or the allocation line
    carries a comment-level LQS_ALLOC_OK("reason"). Empty justifications
    are findings in their own right.

    With a pairing file (tests/estimator_alloc_test.cc), additionally
    cross-checks the LQS_NOALLOC annotation set against the runtime test's
    `LQS_NOALLOC_PAIRED:` markers, in both directions. With `required`
    (whole-tree runs pass REQUIRED_NOALLOC), each listed root must carry
    its LQS_NOALLOC marker.
    """
    findings: List[Finding] = []
    annotations = _merge_annotations(model)
    defs_by_name = model.definitions_by_name()
    visibility = _Visibility(model, root) if root is not None else None

    if required:
        decl_of: Dict[str, Tuple[str, int]] = {}
        for fn in model.functions:
            decl_of.setdefault(fn.qualname, (fn.file, fn.line))
        for name in required:
            ann = annotations.get(name)
            if ann is not None and ann.noalloc:
                continue
            file, line = (ann.decl_site if ann is not None and ann.decl_site
                          else decl_of.get(name, ("<tree>", 0)))
            findings.append(
                Finding(
                    "noalloc", file, line,
                    f"required noalloc root '{name}' is missing its "
                    "LQS_NOALLOC marker"))

    # Escape hatches with empty justifications (function-level).
    for qualname, ann in sorted(annotations.items()):
        if ann.alloc_ok is not None and not ann.alloc_ok.strip():
            file, line = ann.decl_site if ann.decl_site else ("<unknown>", 0)
            findings.append(
                Finding(
                    "noalloc", file, line,
                    f"LQS_ALLOC_OK on '{qualname}' requires a non-empty "
                    "justification string"))
        if ann.noalloc and ann.alloc_ok is not None:
            file, line = ann.decl_site if ann.decl_site else ("<unknown>", 0)
            findings.append(
                Finding(
                    "noalloc", file, line,
                    f"'{qualname}' is marked both LQS_NOALLOC and "
                    "LQS_ALLOC_OK — pick one"))

    roots = [
        fn for fn in model.functions
        if fn.is_definition and annotations[fn.qualname].noalloc
    ]
    reported: Set[Tuple[str, int, str]] = set()
    for root in roots:
        visited: Set[str] = set()
        # Stack of (function, chain-so-far). Chain entries are rendered
        # "qualname (file:line)".
        stack: List[Tuple[FunctionInfo, List[str]]] = [
            (root, [f"{root.qualname} ({root.file}:{root.line})"])
        ]
        while stack:
            fn, chain = stack.pop()
            if fn.qualname in visited:
                continue
            visited.add(fn.qualname)
            for alloc in fn.allocs:
                sup = model.suppression_for(fn.file, alloc.line, "alloc-ok")
                if sup is not None:
                    if not sup.justification:
                        key = (fn.file, sup.line, "empty-sup")
                        if key not in reported:
                            reported.add(key)
                            findings.append(
                                Finding(
                                    "noalloc", fn.file, sup.line,
                                    "LQS_ALLOC_OK requires a non-empty "
                                    "justification string"))
                    continue
                key = (fn.file, alloc.line, root.qualname)
                if key in reported:
                    continue
                reported.add(key)
                findings.append(
                    Finding(
                        "noalloc", fn.file, alloc.line,
                        f"'{root.qualname}' is LQS_NOALLOC but reaches "
                        f"allocating operation '{alloc.what}' in "
                        f"'{fn.qualname}'",
                        chain=chain + [f"{alloc.what} "
                                       f"({fn.file}:{alloc.line})"]))
            visible = (visibility.from_file(fn.file)
                       if visibility is not None else None)
            for call in fn.calls:
                sup = model.suppression_for(fn.file, call.line, "alloc-ok")
                if sup is not None:
                    # A line-level LQS_ALLOC_OK also stops traversal into
                    # calls made on that line.
                    if not sup.justification:
                        key = (fn.file, sup.line, "empty-sup")
                        if key not in reported:
                            reported.add(key)
                            findings.append(
                                Finding(
                                    "noalloc", fn.file, sup.line,
                                    "LQS_ALLOC_OK requires a non-empty "
                                    "justification string"))
                    continue
                for callee in _resolve(call, defs_by_name, visible):
                    ann = annotations[callee.qualname]
                    if ann.virtual:
                        continue  # non-virtual chains only
                    if ann.alloc_ok is not None:
                        continue  # deliberate allocation boundary
                    if callee.qualname in visited:
                        continue
                    stack.append(
                        (callee,
                         chain + [f"{callee.qualname} "
                                  f"({fn.file}:{call.line})"]))

    # Annotation <-> runtime-test pairing.
    if pairing_file is not None:
        if pairing_text is None:
            try:
                with open(pairing_file, "r", encoding="utf-8") as handle:
                    pairing_text = handle.read()
            except OSError as err:
                findings.append(
                    Finding("noalloc", pairing_file, 0,
                            f"cannot read pairing file: {err}"))
                pairing_text = ""
        paired = {
            name[len("lqs::"):] if name.startswith("lqs::") else name
            for name in _PAIRED.findall(pairing_text)
        }
        annotated = {
            qualname for qualname, ann in annotations.items() if ann.noalloc
        }
        for name in sorted(paired - annotated):
            line = _line_of(pairing_text, name)
            findings.append(
                Finding(
                    "noalloc", pairing_file, line,
                    f"runtime allocation check is paired with LQS_NOALLOC "
                    f"on '{name}', but no such annotation exists in the "
                    "tree — remove the check or restore the annotation"))
        for name in sorted(annotated - paired):
            ann = annotations[name]
            file, line = ann.decl_site if ann.decl_site else ("<unknown>", 0)
            findings.append(
                Finding(
                    "noalloc", file, line,
                    f"LQS_NOALLOC on '{name}' has no paired runtime check "
                    f"(add an 'LQS_NOALLOC_PAIRED: {name}' marker next to "
                    f"the covering assertion in {pairing_file})"))
    return findings


def _line_of(text: str, needle: str) -> int:
    for lineno, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return lineno
    return 0


# ---------------------------------------------------------------------------
# layering

# The architecture DAG: each src/ layer lists the layers it may depend on
# (directly; the sets are transitively closed by construction). Lower layers
# first. tests/, bench/, examples/ sit on top and may include anything.
DEFAULT_LAYERS: Dict[str, Set[str]] = {
    "common": set(),
    "dmv": {"common"},
    "storage": {"common"},
    "exec": {"common", "dmv", "storage"},
    "optimizer": {"common", "dmv", "exec", "storage"},
    "lqs": {"common", "dmv", "exec", "storage"},
    "analysis": {"common", "dmv", "exec", "storage", "lqs"},
    "remote": {"common", "dmv", "exec", "storage"},
    "workload": {"common", "dmv", "exec", "optimizer", "storage"},
    "monitor": {
        "common", "dmv", "exec", "storage", "lqs", "analysis", "remote"
    },
}


def _config_cycle(layers: Dict[str, Set[str]]) -> Optional[List[str]]:
    """Kahn's algorithm over the layer config; returns a cycle if any."""
    # indegree counts edges dep -> layer (layer depends on dep).
    indegree = {
        layer: len([d for d in deps if d in layers])
        for layer, deps in layers.items()
    }
    queue = [layer for layer, deg in indegree.items() if deg == 0]
    seen = 0
    dependents: Dict[str, List[str]] = {layer: [] for layer in layers}
    for layer, deps in layers.items():
        for dep in deps:
            if dep in dependents:
                dependents[dep].append(layer)
    while queue:
        layer = queue.pop()
        seen += 1
        for dependent in dependents[layer]:
            indegree[dependent] -= 1
            if indegree[dependent] == 0:
                queue.append(dependent)
    if seen == len(layers):
        return None
    return sorted(layer for layer, deg in indegree.items() if deg > 0)


def check_layering(model: SourceModel,
                   root: str,
                   layers: Optional[Dict[str, Set[str]]] = None
                   ) -> List[Finding]:
    """Enforce the include DAG across src/ layers and reject include cycles.

    * A file in src/<layer>/ may include "other/..." only when `other` is
      the same layer or in the layer's allowed-dependency set.
    * The configured DAG itself must be acyclic (a config error is a
      finding, so CI catches a bad edit to the map).
    * File-level include cycles are findings wherever they occur (any
      directory), independent of the layer map.
    """
    if layers is None:
        layers = DEFAULT_LAYERS
    findings: List[Finding] = []

    cycle = _config_cycle(layers)
    if cycle is not None:
        findings.append(
            Finding(
                "layering", "<layer-config>", 0,
                "layer configuration contains a dependency cycle through: "
                + ", ".join(cycle)))

    for path, includes in sorted(model.includes.items()):
        rel = os.path.relpath(path, root)
        parts = rel.replace(os.sep, "/").split("/")
        if len(parts) < 3 or parts[0] != "src":
            continue  # only src/<layer>/ files are rank-constrained
        layer = parts[1]
        allowed = layers.get(layer)
        for line, include in includes:
            include_layer = include.split("/", 1)[0]
            if include_layer not in layers or include_layer == layer:
                continue
            if allowed is None:
                findings.append(
                    Finding(
                        "layering", path, line,
                        f"directory src/{layer}/ is not in the layer map — "
                        "add it to DEFAULT_LAYERS (tools/lqs_verify/"
                        "checks.py) with its allowed dependencies"))
                break
            if include_layer not in allowed:
                ok = ", ".join(sorted(allowed)) if allowed else "(none)"
                findings.append(
                    Finding(
                        "layering", path, line,
                        f"layer '{layer}' may not include '{include}' — "
                        f"'{include_layer}' is above or beside it in the "
                        f"DAG (allowed dependencies: {ok})"))

    findings.extend(_include_cycles(model, root))
    return findings


def _include_cycles(model: SourceModel, root: str) -> List[Finding]:
    # Resolve include strings to scanned files: the codebase writes
    # includes relative to src/ (e.g. "lqs/bounds.h") or the repo root
    # (e.g. "tests/test_util.h").
    scanned = {
        os.path.normpath(path): path for path in model.includes
    }

    def resolve(include: str) -> Optional[str]:
        for base in ("src", "."):
            candidate = os.path.normpath(os.path.join(root, base, include))
            if candidate in scanned:
                return scanned[candidate]
        return None

    graph: Dict[str, List[Tuple[str, int]]] = {}
    for path, includes in model.includes.items():
        edges = []
        for line, include in includes:
            target = resolve(include)
            if target is not None and target != path:
                edges.append((target, line))
        graph[path] = edges

    findings: List[Finding] = []
    seen_cycles: Set[Tuple[str, ...]] = set()
    # Iterative DFS with an explicit color map (white/grey/black).
    color: Dict[str, int] = {}
    stack_path: List[str] = []

    def visit(start: str) -> None:
        stack: List[Tuple[str, int]] = [(start, 0)]
        while stack:
            node, edge_idx = stack[-1]
            if edge_idx == 0:
                color[node] = 1
                stack_path.append(node)
            edges = graph.get(node, [])
            if edge_idx >= len(edges):
                stack.pop()
                stack_path.pop()
                color[node] = 2
                continue
            stack[-1] = (node, edge_idx + 1)
            target, line = edges[edge_idx]
            state = color.get(target, 0)
            if state == 1:
                cycle = stack_path[stack_path.index(target):] + [target]
                canon = tuple(sorted(set(cycle)))
                if canon not in seen_cycles:
                    seen_cycles.add(canon)
                    pretty = " -> ".join(
                        os.path.relpath(f, root) for f in cycle)
                    findings.append(
                        Finding("layering", node, line,
                                f"include cycle: {pretty}"))
            elif state == 0:
                stack.append((target, 0))

    for path in sorted(graph):
        if color.get(path, 0) == 0:
            visit(path)
    return findings


# ---------------------------------------------------------------------------
# locks: construction-rank discipline, rank-increasing acquisition chains,
# blocking-under-lock, and GUARDED_BY annotation coverage.

# The lock primitive itself is the one place allowed to touch raw rank
# machinery; its functions and members are the mechanism the rules protect.
_LOCK_EXEMPT_FILES = {"src/common/mutex.h", "src/common/mutex.cc"}

# Calls that block (or fan out to worker threads that block) and therefore
# must never be reached while an lqs::Mutex is held. CondVar::Wait is
# handled via AcquireSite (waiting on the *held* mutex is the one legal
# blocking shape).
_BLOCKING_CALLS = {
    "Poll": "SnapshotEndpoint::Poll",
    "ParallelFor": "ThreadPool::ParallelFor",
}


def _relpath(path: str, root: Optional[str]) -> str:
    rel = os.path.relpath(path, root) if root else path
    return rel.replace(os.sep, "/")


def check_locks(model: SourceModel, root: str) -> List[Finding]:
    """Static lock discipline over src/ (DESIGN.md §14).

    (a) every owned lqs::Mutex is constructed with a *named* rank from the
        lock_rank registry — default construction, numeric literals, and
        unregistered names are findings;
    (b) every statically-derivable acquisition chain is strictly
        rank-increasing, including chains through resolvable non-virtual
        calls (the compile-time mirror of the runtime rank checker, which
        only fires on paths a debug test happens to execute);
    (c) no blocking call (CondVar::Wait on another mutex,
        SnapshotEndpoint::Poll, ThreadPool::ParallelFor) is reachable while
        a lock is held;
    (d) every mutable member of a mutex-owning class is GUARDED_BY-annotated
        or excused with `// lqs-verify: guard-ok(reason)`.

    `// lqs-verify: lock-ok(reason)` on (or directly above) an acquisition
    or call line silences rules (a)-(c) for that site; empty reasons are
    findings. tests/, bench/ and examples/ are out of scope — death tests
    violate the discipline on purpose.
    """
    findings: List[Finding] = []
    reported: Set[Tuple[str, int, str]] = set()

    def report(file: str, line: int, message: str,
               chain: Optional[List[str]] = None) -> None:
        key = (file, line, message)
        if key not in reported:
            reported.add(key)
            findings.append(
                Finding("locks", file, line, message, chain=chain or []))

    def in_scope(path: str) -> bool:
        rel = _relpath(path, root)
        return rel.startswith("src/") and rel not in _LOCK_EXEMPT_FILES

    def lock_ok(file: str, line: int) -> bool:
        sup = model.suppression_for(file, line, "lock-ok")
        if sup is None:
            return False
        if not sup.justification:
            report(file, sup.line,
                   "lock-ok escape hatch requires a non-empty reason")
        return True

    ranks = model.lock_ranks

    # Mutex name -> possible rank values (for call-chain resolution) and
    # class -> {mutex member -> rank value or None} (for coverage + the
    # enclosing-class fast path).
    mutex_ranks: Dict[str, Set[Optional[int]]] = {}
    class_mutexes: Dict[str, Dict[str, Optional[int]]] = {}

    def rank_value(m) -> Optional[int]:
        if m.rank_name is not None and m.rank_name in ranks:
            return ranks[m.rank_name]
        if m.rank_literal is not None:
            return m.rank_literal
        return None

    def rank_findings(m, file: str) -> None:
        if lock_ok(file, m.line):
            return
        if not m.has_init or (m.rank_name is None and m.rank_literal is None):
            report(file, m.line,
                   f"mutex '{m.name}' is constructed with the default rank — "
                   "give it a named rank from the lock_rank registry")
        elif m.rank_literal is not None:
            report(file, m.line,
                   f"mutex '{m.name}' uses numeric rank {m.rank_literal} — "
                   "register and use a named lock_rank constant")
        elif m.rank_name not in ranks:
            report(file, m.line,
                   f"mutex '{m.name}' uses rank '{m.rank_name}', which is "
                   "not registered in the lock_rank registry")

    for cls in model.classes:
        per: Dict[str, Optional[int]] = {}
        for m in cls.mutexes:
            per[m.name] = rank_value(m)
            mutex_ranks.setdefault(m.name, set()).add(per[m.name])
        class_mutexes.setdefault(cls.name, {}).update(per)
        if not in_scope(cls.file):
            continue
        # Rule (a): construction-site rank discipline.
        for m in cls.mutexes:
            rank_findings(m, cls.file)
        # Rule (d): annotation coverage.
        for field in cls.fields:
            if field.is_static or field.is_const or field.is_sync:
                continue
            if field.guarded_by is None:
                sup = model.suppression_for(cls.file, field.line, "guard-ok")
                if sup is None:
                    report(cls.file, field.line,
                           f"mutable member '{field.name}' of mutex-owning "
                           f"class '{cls.name}' has no GUARDED_BY annotation "
                           "— annotate it or excuse it with "
                           "// lqs-verify: guard-ok(reason)")
                elif not sup.justification:
                    report(cls.file, sup.line,
                           "guard-ok escape hatch requires a non-empty "
                           "reason")
            elif field.guarded_by not in per:
                report(cls.file, field.line,
                       f"GUARDED_BY on '{field.name}' names "
                       f"'{field.guarded_by or '<empty>'}', which is not a "
                       f"mutex member of '{cls.name}'")

    # Rule (a) for function-local mutexes in src/.
    for fn in model.functions:
        if fn.is_definition and in_scope(fn.file):
            for m in fn.local_mutexes:
                rank_findings(m, fn.file)

    # Rules (b) + (c): walk acquisition chains through the call graph.
    annotations = _merge_annotations(model)
    defs_by_name = model.definitions_by_name()
    visibility = _Visibility(model, root) if root is not None else None

    def rank_of(mutex: str, qualname: str) -> Optional[int]:
        """Rank of `mutex` as seen from a function named `qualname` —
        prefer the enclosing class's member, fall back to a globally
        unique name."""
        if "::" in qualname:
            enclosing = qualname.rsplit("::", 1)[0].rsplit("::", 1)[-1]
            per = class_mutexes.get(enclosing)
            if per is not None and mutex in per:
                return per[mutex]
        values = mutex_ranks.get(mutex)
        if values is not None and len(values) == 1:
            return next(iter(values))
        return None

    def describe(mutex: str, qualname: str) -> str:
        rank = rank_of(mutex, qualname)
        return f"'{mutex}'" + (f" (rank {rank})" if rank is not None else "")

    visited: Set[Tuple[str, str, frozenset]] = set()

    def walk(fn: FunctionInfo, inherited: Tuple[Tuple[str, Optional[int]],
                                                ...],
             chain: List[str]) -> None:
        key = (fn.qualname, fn.file, frozenset(h[0] for h in inherited))
        if key in visited:
            return
        visited.add(key)
        base = list(inherited)
        for req in annotations.get(fn.qualname, _Annotation()).requires:
            if req not in [h[0] for h in base]:
                base.append((req, rank_of(req, fn.qualname)))

        def effective(lexical: List[str]):
            eff = list(base)
            for name in lexical:
                if name not in [h[0] for h in eff]:
                    eff.append((name, rank_of(name, fn.qualname)))
            return eff

        here = chain + [fn.qualname]
        for acq in fn.acquires:
            if lock_ok(fn.file, acq.line):
                continue
            eff = effective(acq.held)
            if acq.kind == "wait":
                others = [h for h in eff if h[0] != acq.mutex]
                if others:
                    report(fn.file, acq.line,
                           f"CondVar::Wait on '{acq.mutex}' while "
                           f"{describe(others[0][0], fn.qualname)} is held — "
                           "a blocking wait must hold only the waited "
                           "mutex", here)
                continue
            acq_rank = rank_of(acq.mutex, fn.qualname)
            for held_name, held_rank in eff:
                if held_name == acq.mutex:
                    report(fn.file, acq.line,
                           f"recursive acquisition of '{acq.mutex}'", here)
                    continue
                if (acq_rank is not None and held_rank is not None
                        and acq_rank <= held_rank):
                    report(fn.file, acq.line,
                           f"acquiring '{acq.mutex}' (rank {acq_rank}) while "
                           f"'{held_name}' (rank {held_rank}) is held — "
                           "acquisition order must be strictly "
                           "rank-increasing", here)
        for call in fn.calls:
            eff = effective(call.held)
            if not eff:
                continue
            if model.suppression_for(fn.file, call.line, "lock-ok"):
                lock_ok(fn.file, call.line)  # flags empty reasons
                continue
            if call.name in _BLOCKING_CALLS:
                report(fn.file, call.line,
                       f"blocking call {_BLOCKING_CALLS[call.name]} while "
                       f"{describe(eff[0][0], fn.qualname)} is held — "
                       "release the lock first or justify with "
                       "// lqs-verify: lock-ok(reason)", here)
                continue
            visible = (visibility.from_file(fn.file)
                       if visibility is not None else None)
            for callee in _resolve(call, defs_by_name, visible):
                if callee.qualname == fn.qualname:
                    continue
                ann = annotations.get(callee.qualname)
                if ann is not None and ann.virtual:
                    continue  # non-virtual chains only
                if not in_scope(callee.file) and _relpath(
                        callee.file, root) in _LOCK_EXEMPT_FILES:
                    continue  # the primitive layer implements the rules
                walk(callee, tuple(eff), here)

    for fn in model.functions:
        if fn.is_definition and in_scope(fn.file):
            walk(fn, (), [])
    return findings


# ---------------------------------------------------------------------------
# determinism: byte-identity purity of LQS_DETERMINISTIC functions.

# Functions whose determinism the paper's acceptance criteria rely on
# (byte-identical wire round-trips, replay-order-independent estimates,
# thread-count-independent monitor output). A whole-tree run fails if any
# of these loses its LQS_DETERMINISTIC marker.
REQUIRED_DETERMINISTIC: Tuple[str, ...] = (
    "ProgressEstimator::EstimateInto",
    "EncodePollResponse",
    "DecodePollResponse",
    "MakeSnapshotDelta",
    "ApplySnapshotDelta",
    # The single-pass transport: the loopback writes frames with the fused
    # encoders, and the client checks a delta, then applies it in place.
    "EncodeSnapshotResponse",
    "EncodeDeltaResponse",
    "CheckSnapshotDelta",
    "ApplyOperatorDelta",
    "MonitorService::ComputeStatus",
    # The bounds-engine pipeline (PR 10): bound intervals feed the clamp,
    # so replay-order-independent reports require deterministic engines.
    "ComputeBoundsPipelineInto",
    "ComputeLpBoundsInto",
)


def check_determinism(model: SourceModel,
                      root: Optional[str] = None,
                      required: Optional[Tuple[str, ...]] = None
                      ) -> List[Finding]:
    """No LQS_DETERMINISTIC function may transitively reach a source of
    run-to-run nondeterminism (DESIGN.md §14).

    Hazards: wall-clock reads (seeded VirtualClock is the sanctioned time
    source), std::rand / std::random_device / engine construction (seeded
    lqs::Rng is the sanctioned randomness source), environment reads,
    iteration over std::unordered_* containers (hash-seed-dependent order),
    and iteration over pointer-keyed ordered containers (address-dependent
    order). Escape: `// lqs-verify: det-ok(reason)` on or directly above
    the hazard (or call) line; empty reasons are findings. Chains stop at
    virtual calls, like noalloc.
    """
    findings: List[Finding] = []
    annotations = _merge_annotations(model)
    defs_by_name = model.definitions_by_name()
    visibility = _Visibility(model, root) if root is not None else None
    reported: Set[Tuple[str, int, str]] = set()

    def report(file: str, line: int, message: str,
               chain: Optional[List[str]] = None) -> None:
        key = (file, line, message)
        if key not in reported:
            reported.add(key)
            findings.append(
                Finding("determinism", file, line, message, chain=chain or []))

    if required:
        decl_of: Dict[str, Tuple[str, int]] = {}
        for fn in model.functions:
            decl_of.setdefault(fn.qualname, (fn.file, fn.line))
        for name in required:
            ann = annotations.get(name)
            if ann is not None and ann.deterministic:
                continue
            file, line = (ann.decl_site if ann is not None and ann.decl_site
                          else decl_of.get(name, ("<tree>", 0)))
            report(file, line,
                   f"required deterministic root '{name}' is missing its "
                   "LQS_DETERMINISTIC marker")

    def hazard_message(hazard) -> Optional[str]:
        if hazard.kind == "wall-clock":
            return (f"reads the wall clock via '{hazard.what}' "
                    "(VirtualClock is the sanctioned time source)")
        if hazard.kind == "rand":
            return (f"uses nondeterministic randomness '{hazard.what}' "
                    "(seeded lqs::Rng is the sanctioned source)")
        if hazard.kind == "env":
            return f"reads the environment via '{hazard.what}'"
        if hazard.kind == "iter":
            if hazard.what in model.unordered_names:
                return (f"iterates unordered container '{hazard.what}' — "
                        "iteration order depends on the hash seed")
            if hazard.what in model.ptr_keyed_names:
                return (f"iterates pointer-keyed container '{hazard.what}' "
                        "— ordering depends on allocation addresses")
            return None
        return None

    def det_ok(file: str, line: int) -> bool:
        sup = model.suppression_for(file, line, "det-ok")
        if sup is None:
            return False
        if not sup.justification:
            report(file, sup.line,
                   "det-ok escape hatch requires a non-empty reason")
        return True

    roots = [
        fn for fn in model.functions
        if fn.is_definition and annotations[fn.qualname].deterministic
    ]
    for det_root in roots:
        visited: Set[str] = set()
        stack: List[Tuple[FunctionInfo, List[str]]] = [
            (det_root,
             [f"{det_root.qualname} ({det_root.file}:{det_root.line})"])
        ]
        while stack:
            fn, chain = stack.pop()
            if fn.qualname in visited:
                continue
            visited.add(fn.qualname)
            for hazard in fn.hazards:
                message = hazard_message(hazard)
                if message is None:
                    continue
                if det_ok(fn.file, hazard.line):
                    continue
                report(fn.file, hazard.line,
                       f"'{det_root.qualname}' is LQS_DETERMINISTIC but "
                       f"{message} in '{fn.qualname}'",
                       chain + [f"{hazard.what} ({fn.file}:{hazard.line})"])
            visible = (visibility.from_file(fn.file)
                       if visibility is not None else None)
            for call in fn.calls:
                if model.suppression_for(fn.file, call.line, "det-ok"):
                    det_ok(fn.file, call.line)  # flags empty reasons
                    continue
                for callee in _resolve(call, defs_by_name, visible):
                    ann = annotations.get(callee.qualname)
                    if ann is not None and ann.virtual:
                        continue  # non-virtual chains only
                    if callee.qualname in visited:
                        continue
                    stack.append(
                        (callee,
                         chain + [f"{callee.qualname} "
                                  f"({fn.file}:{call.line})"]))
    return findings

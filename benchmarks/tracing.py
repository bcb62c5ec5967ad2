"""Layer spans recorded from outside the library, by wrapping its public names.

``Tracer.install(lib)`` replaces each target function (and each module
name bound to it) with a wrapper that records a span: its duration and the
part of it covered by child spans.  Spans are folded into per-name totals
as they close, so memory stays flat however many calls a run makes.  A
span directly inside a span of the same name (``a - b`` calling ``+``, say)
is folded into its parent: calls count operations requested from outside
the layer.

A target that a later version of the library removes or renames is listed
in ``Tracer.missing`` and reads as zero calls; nothing else depends on it.
"""

from __future__ import annotations

import time
from collections import defaultdict

# (span name, module, attribute path); methods are "Class.method".
TARGETS = (
    ("diagram.validate", "diagram", "PDDiagram.__init__"),
    ("diagram.switch", "diagram", "PDDiagram.switch_crossing"),
    ("diagram.smooth", "diagram", "PDDiagram.smooth_crossing"),
    ("diagram.reduce_r1", "diagram", "PDDiagram.reduce_r1"),
    ("diagram.twist", "diagram", "PDDiagram.insert_full_twists"),
    ("diagram.parse", "diagram", "parse_pd"),
    ("skein.key", "skein", "canonical_code"),
    ("skein.walk", "skein", "conway"),
    ("skein.walk", "skein", "jones"),
    ("skein.oracle", "skein", "jones_bracket_oracle"),
    ("laurent", "laurent", "LaurentPoly.__add__"),
    ("laurent", "laurent", "LaurentPoly.__sub__"),
    ("laurent", "laurent", "LaurentPoly.__neg__"),
    ("laurent", "laurent", "LaurentPoly.__mul__"),
    ("laurent", "laurent", "LaurentPoly.__rmul__"),
    ("laurent", "laurent", "LaurentPoly.__pow__"),
    ("invariants", "invariants", "surgery_invariants"),
    ("family.closed_form", "family", "conway_family"),
    ("family.closed_form", "family", "jones_family"),
    ("fourmanifold.signature", "fourmanifold", "signature"),
    ("fourmanifold.saeki", "fourmanifold", "saeki_check"),
    ("fourmanifold.defect", "fourmanifold", "total_defect"),
)

# Every SkeinMemo the run creates is registered so that its public
# counters can be summed after each item.
MEMO_TARGET = ("skein", "SkeinMemo.__init__")


class _Span:
    __slots__ = ("name", "child")

    def __init__(self, name: str):
        self.name = name
        self.child = 0.0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.oracle_states = 0
        self.memo = {"hits": 0, "misses": 0, "entries": 0}
        self.missing: list[str] = []
        self._stack: list[_Span] = []
        self._memos: list = []
        self._restore: list = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        stack = self._stack
        calls, total, self_time = self.calls, self.total, self.self_time
        clock = self.clock
        count_states = name == "skein.oracle"

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is not None and parent.name == name:
                return fn(*args, **kwargs)
            span = _Span(name)
            stack.append(span)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if parent is not None:
                    parent.child += elapsed
                calls[name] += 1
                total[name] += elapsed
                self_time[name] += elapsed - span.child
                if count_states:
                    self.oracle_states += 2 ** getattr(args[0], "n_crossings", 0)

        return traced

    def _register_memo(self, init):
        memos = self._memos

        def registering(memo, *args, **kwargs):
            init(memo, *args, **kwargs)
            memos.append(memo)

        return registering

    def harvest_memos(self) -> None:
        """Add the counters of the memos created since the last harvest."""
        for memo in self._memos:
            self.memo["hits"] += getattr(memo, "hits", 0)
            self.memo["misses"] += getattr(memo, "misses", 0)
            self.memo["entries"] += len(getattr(memo, "table", ()))
        self._memos.clear()

    # -- patching ------------------------------------------------------------

    def install(self, lib) -> None:
        for name, module, path in TARGETS:
            self._patch(lib, module, path, lambda fn, name=name: self._wrap(name, fn))
        self._patch(lib, *MEMO_TARGET, self._register_memo)

    def _patch(self, lib, module: str, path: str, make) -> None:
        owner = getattr(lib, module, None)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.missing.append(f"{module}.{path}")
            return
        replacement = make(original)
        if outer:
            self._set(owner, attr, replacement)
            return
        # a module-level function: rebind it wherever the package imported it
        for mod in lib.loaded_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, replacement)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._restore):
            if old is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._restore.clear()

    # -- report --------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        c, t, s = self.calls, self.total, self.self_time
        lookups = self.memo["hits"] + self.memo["misses"]
        return {
            "diagram.validate.calls": (c["diagram.validate"], "count"),
            "diagram.validate.s": (t["diagram.validate"], "s"),
            "diagram.switch.s": (s["diagram.switch"], "s"),
            "diagram.smooth.s": (s["diagram.smooth"], "s"),
            "diagram.reduce_r1.s": (s["diagram.reduce_r1"], "s"),
            "diagram.parse.calls": (c["diagram.parse"], "count"),
            "diagram.parse.s": (t["diagram.parse"], "s"),
            "diagram.twist.s": (t["diagram.twist"], "s"),
            "skein.key.calls": (c["skein.key"], "count"),
            "skein.key.s": (t["skein.key"], "s"),
            "skein.nodes": (lookups, "count"),
            "skein.memo.hits": (self.memo["hits"], "count"),
            "skein.memo.misses": (self.memo["misses"], "count"),
            "skein.memo.hit_ratio": (self.memo["hits"] / lookups if lookups else 0.0,
                                     "ratio"),
            "skein.memo.entries": (self.memo["entries"], "count"),
            "skein.walk.self_s": (s["skein.walk"], "s"),
            "skein.oracle.calls": (c["skein.oracle"], "count"),
            "skein.oracle.s": (t["skein.oracle"], "s"),
            "skein.oracle.states": (self.oracle_states, "count"),
            "laurent.ops": (c["laurent"], "count"),
            "laurent.s": (s["laurent"], "s"),
            "invariants.s": (s["invariants"], "s"),
            "family.closed_form.s": (t["family.closed_form"], "s"),
            "fourmanifold.signature.calls": (c["fourmanifold.signature"], "count"),
            "fourmanifold.signature.s": (t["fourmanifold.signature"], "s"),
            "fourmanifold.saeki.s": (s["fourmanifold.saeki"], "s"),
            "fourmanifold.defect.s": (s["fourmanifold.defect"], "s"),
        }

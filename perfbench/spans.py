"""In-memory span tracing for the traced benchmark run.

The traced run wraps the library's layer entry points from here, never
from inside ``src/``: :meth:`Tracer.wrap` swaps an entry point for a timing
wrapper and :meth:`Tracer.uninstall` puts the original object back.  The untraced run that produces the end-to-end
numbers never constructs a tracer.

Spans are timed with ``perf_counter_ns``, kept in memory, and written out
only when the run ends.  Each span records its parent (per thread), so a
layer's *self* time is its duration minus the time its direct children
cover.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

#: Hooks of a wrapped entry point: ``before(args) -> token`` runs before the
#: call, ``after(args, result, token) -> attrs`` after it returns.
Before = Callable[[tuple], Any]
After = Callable[[tuple, Any, Any], dict]


@dataclass
class Span:
    """One timed call of a wrapped entry point."""

    id: int
    parent: Optional[int]
    name: str
    phase: str
    start_ns: int
    dur_ns: int = 0
    child_ns: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def self_ns(self) -> int:
        return self.dur_ns - self.child_ns


@dataclass
class _Patch:
    owner: type
    attr: str
    #: What ``owner.__dict__`` held before install (``None``: inherited).
    own: Any
    #: What ``getattr(owner, attr)`` resolved to before install.
    resolved: Any


class Tracer:
    """Records spans around patched entry points; restores them on uninstall."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "setup"
        self._local = threading.local()
        self._ids = 0
        self._id_lock = threading.Lock()
        self._patches: list[_Patch] = []

    # ---------------------------------------------------------------- patching

    def wrap(
        self,
        owners: list[type],
        attr: str,
        name: str,
        before: Optional[Before] = None,
        after: Optional[After] = None,
    ) -> None:
        """Wrap ``attr`` on every class in ``owners`` as span ``name``.

        Each class gets its own wrapper around the function it resolves
        *before* any patching, so a subclass that inherits the method is
        timed too and is never wrapped twice.  A call that re-enters a span
        of the same name (``super()`` chains) is recorded once.
        """
        originals = [(owner, owner.__dict__.get(attr), getattr(owner, attr)) for owner in owners]
        for owner, own, resolved in originals:
            self._patches.append(_Patch(owner, attr, own, resolved))
            setattr(owner, attr, self._timed(name, resolved, before, after))

    def _timed(self, name: str, fn: Callable, before: Optional[Before], after: Optional[After]):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if any(span.name == name for span in stack):
                return fn(*args, **kwargs)
            with tracer._id_lock:
                tracer._ids += 1
                span_id = tracer._ids
            token = before(args) if before is not None else None
            span = Span(
                id=span_id,
                parent=stack[-1].id if stack else None,
                name=name,
                phase=tracer.phase,
                start_ns=time.perf_counter_ns(),
            )
            stack.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.dur_ns = time.perf_counter_ns() - span.start_ns
                stack.pop()
                if stack:
                    stack[-1].child_ns += span.dur_ns
                if after is not None:
                    span.attrs = after(args, result, token)
                tracer.spans.append(span)

        return wrapper

    def uninstall(self) -> list[str]:
        """Put every original back; return the entry points left altered."""
        for patch in reversed(self._patches):
            if patch.own is None:
                delattr(patch.owner, patch.attr)
            else:
                setattr(patch.owner, patch.attr, patch.own)
        altered = [
            f"{patch.owner.__qualname__}.{patch.attr}"
            for patch in self._patches
            if patch.owner.__dict__.get(patch.attr) is not patch.own
            or getattr(patch.owner, patch.attr) is not patch.resolved
        ]
        self._patches.clear()
        return altered

    @property
    def installed(self) -> list[tuple[type, str]]:
        """``(class, attribute)`` of every entry point currently wrapped."""
        return [(patch.owner, patch.attr) for patch in self._patches]

    # ------------------------------------------------------------------ output

    def of(self, name: str, phase: str = "measure") -> list[Span]:
        return [span for span in self.spans if span.name == name and span.phase == phase]

    def of_phase(self, phase: str) -> list[Span]:
        return [span for span in self.spans if span.phase == phase]

    def write(self, path: Path) -> None:
        """Dump every span as one JSON line (written once, at run end)."""
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        [span.id, span.parent, span.name, span.phase, span.start_ns,
                         span.dur_ns, span.child_ns, span.attrs],
                        separators=(",", ":"),
                        default=str,
                    )
                )
                handle.write("\n")


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap the entry point of every layer the benchmark measures.

    ``repro.sim``: the event loop (elements and baselines run inside it).
    ``repro.inference``: ``update`` on every registered belief class.
    ``repro.core``: planner and policy-cache/table decisions.
    ``repro.runner``: ``RunnerBase.run`` and the result cache.
    ``repro.serving``: the decision service and the table registry (the
    client side is timed by the benchmark's own request loop).
    ``repro.corpus``: trace generation, which happens at set-up.
    """
    from repro.api.backends import BELIEF_BACKENDS
    from repro.api.policy import PolicyTable
    from repro.core.planner import ExpectedUtilityPlanner
    from repro.core.policy import PolicyCache
    from repro.corpus.store import CorpusStore
    from repro.runner.backends import RunnerBase
    from repro.runner.cache import ResultCache
    from repro.serving.fallback import DecisionService
    from repro.serving.registry import PolicyTableRegistry
    from repro.sim.engine import Simulator

    belief_classes = [BELIEF_BACKENDS.resolve(name) for name in BELIEF_BACKENDS.names()]

    tracer.wrap(
        [Simulator], "run", "sim.run",
        before=lambda args: args[0].events_processed,
        after=lambda args, result, events: {"events": args[0].events_processed - events},
    )
    tracer.wrap(
        belief_classes, "update", "belief.update",
        before=lambda args: (len(args[0]), args[0].degenerate_updates),
        after=lambda args, result, token: {
            "hypotheses": token[0],
            "degenerate": args[0].degenerate_updates - token[1],
        },
    )
    tracer.wrap(
        [ExpectedUtilityPlanner], "decide", "planner.decide",
        before=lambda args: len(args[0].action_grid.multiples) * min(args[0].top_k, len(args[1])),
        after=lambda args, result, lanes: {"lanes": lanes},
    )
    tracer.wrap(
        [PolicyCache, PolicyTable], "decide", "policy.decide",
        before=lambda args: args[0].hits,
        after=lambda args, result, hits: {"hit": args[0].hits > hits},
    )
    tracer.wrap(
        [RunnerBase], "run", "runner.run",
        after=lambda args, store, token: {
            "replay": store is not None and store.cache_hits > 0 and store.cache_misses == 0,
        },
    )
    tracer.wrap([ResultCache], "point_key", "cache.key")
    tracer.wrap(
        [ResultCache], "load_point", "cache.load",
        after=lambda args, result, token: {"hit": result is not None},
    )
    tracer.wrap([ResultCache], "store_point", "cache.store")
    tracer.wrap(
        [DecisionService], "decide", "serving.service",
        after=lambda args, served, token: {"tier": served.tier if served is not None else ""},
    )
    tracer.wrap([PolicyTableRegistry], "lookup", "registry.lookup")
    tracer.wrap([CorpusStore], "register_generator", "corpus.generate")

"""In-memory span timer for the traced benchmark run.

`Tracer.wrap` returns a stand-in for a library function that, while the
tracer is enabled, times each call as a span.  A span's self time is its
duration minus the time covered by the spans it caused (calls into other
wrapped functions), so the self times of all spans partition the time spent
inside wrapped code.  Spans are aggregated per function as they close
instead of being kept one by one: the vrad workload makes about 10^5 calls
per pass, and the aggregate is all the report needs.

`install` puts the wrappers in place of the original functions in every
module namespace and class that holds them, so calls the library makes to
itself (for example `cones.parrilo_member` calling `sdp_solve`) are seen too.
Nothing in the library's source is changed; `uninstall` restores it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple


@dataclass
class FnStat:
    layer: str
    calls: int = 0
    incl_s: float = 0.0   # outermost calls only, so recursion is not counted twice
    self_s: float = 0.0


@dataclass
class Snapshot:
    stats: Dict[str, FnStat]
    counters: Counter

    def incl(self, name: str) -> float:
        st = self.stats.get(name)
        return st.incl_s if st else 0.0

    def calls(self, name: str) -> int:
        st = self.stats.get(name)
        return st.calls if st else 0

    def layer_self(self, layer: str) -> float:
        return sum(st.self_s for st in self.stats.values() if st.layer == layer)


# An observer sees each finished call: (counters, args, kwargs, result, exception).
Observer = Callable[[Counter, tuple, dict, object, Optional[BaseException]], None]


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.enabled = False
        self._stack: List[list] = []          # open spans: [name, child_time]
        self.stats: Dict[str, FnStat] = {}
        self.counters: Counter = Counter()

    def reset(self) -> None:
        self.stats = {name: FnStat(st.layer) for name, st in self.stats.items()}
        self.counters = Counter()

    def snapshot(self) -> Snapshot:
        return Snapshot({name: replace(st) for name, st in self.stats.items()},
                        Counter(self.counters))

    def wrap(self, layer: str, name: str, fn: Callable,
             observe: Optional[Observer] = None) -> Callable:
        self.stats.setdefault(name, FnStat(layer))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            return self._call(name, fn, observe, args, kwargs)

        return traced

    def _call(self, name, fn, observe, args, kwargs):
        outermost = all(frame[0] != name for frame in self._stack)
        frame = [name, 0.0]
        self._stack.append(frame)
        result, exc = None, None
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as e:
            exc = e
            raise
        finally:
            dur = self.clock() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += dur
            st = self.stats[name]
            st.calls += 1
            st.self_s += dur - frame[1]
            if outermost:
                st.incl_s += dur
            if observe is not None:
                observe(self.counters, args, kwargs, result, exc)


# A target names a function by module and attribute path, e.g.
# ("volume", "coposlab.volume", "SectionSpec.membership", observer or None).
Target = Tuple[str, str, str, Optional[Observer]]


def install(tracer: Tracer, targets: List[Target], package: str) -> List[tuple]:
    """Replace every reference to each target held by a module of `package`.

    Returns the undo list for `uninstall`.
    """
    replacement: Dict[int, Callable] = {}
    undo: List[tuple] = []
    for layer, modname, path, observe in targets:
        owner = importlib.import_module(modname)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        fn = owner.__dict__[attr]
        wrapper = tracer.wrap(layer, f"{modname.rsplit('.', 1)[-1]}.{path}", fn, observe)
        replacement[id(fn)] = wrapper
        if outer:  # a method: the class attribute is the only reference
            undo.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == package or modname.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if callable(value) and id(value) in replacement:
                undo.append((module, attr, value))
                setattr(module, attr, replacement[id(value)])
    return undo


def uninstall(undo: List[tuple]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)

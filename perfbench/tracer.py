"""Spans and counters recorded from outside the program.

``Tracer.install`` wraps the public functions and methods of each lospace
module (all functions of ``cli``, plus ``__init__`` of every class) and
rebinds the wrappers at every import site: ``from .x import y`` copies
the binding, so a name is patched in every module that holds it, not only
where it is defined.  Methods are patched on the class object, which all
holders share.  ``uninstall`` restores every original.

Each wrapped call becomes a span ``[name, start, end, parent, child_s]``
kept in memory; ``child_s`` collects the time of its direct children so
that self time is ``end - start - child_s``.  Generator functions get one
span per resume.  ``numeric`` is too hot for spans: its functions are
counted (calls and time) at the import sites outside ``numeric`` only,
so calls inside the float layer are neither counted nor slowed, and their
time is charged to the calling span as child time.  ``meter`` is not
wrapped; space comes from the CLI's own ``--report-space``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
import types
from collections import Counter

SPAN_MODULES = ("cli", "kernels", "linop", "wiedemann", "primes", "solver",
                "spectral")
COUNTER_MODULES = ("numeric",)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _nnz(coo):
    return len(coo[0])


# qualified span name -> hook(tracer, args, kwargs, result), run after the
# call; a hook that no longer fits the program's signatures is counted in
# Tracer.hook_misses instead of failing the op
HOOKS = {
    "kernels.Field.__init__":
        lambda t, a, k, r: t.saw_field(a[0].p, a[0].backend),
    "kernels.Field.matvec":
        lambda t, a, k, r: t.tally("kernels.matvec_nnz", _nnz(_arg(a, k, 1, "coo"))),
    "kernels.Field.gram_matvec":
        lambda t, a, k, r: t.tally("kernels.matvec_nnz", 2 * _nnz(_arg(a, k, 1, "coo"))),
    "kernels.Field.krylov":
        lambda t, a, k, r: t.tally(
            "kernels.matvec_nnz",
            (_arg(a, k, 5, "count") - 1) * _nnz(_arg(a, k, 1, "coo"))),
    "kernels.Field.horner":
        lambda t, a, k, r: t.tally(
            "kernels.matvec_nnz",
            (len(_arg(a, k, 2, "coeffs")) - 1) * _nnz(_arg(a, k, 1, "coo"))),
    "solver.RationalSolver.lift_length":
        lambda t, a, k, r: t.tally("solver.lift_T", r),
    "solver.RationalSolver.block_count":
        lambda t, a, k, r: t.tally("solver.blocks_K", r),
}


class Tracer:
    def __init__(self, package):
        """package: the imported top-level ``lospace`` module."""
        self.package = package
        self.spans = []
        self.counters = {}          # numeric name -> [calls, seconds]
        self.tallies = Counter()    # argument- and result-derived counts
        self.moduli_bits = []       # bit length of every Field modulus
        self.backends = set()
        self.hook_misses = Counter()
        self._local = threading.local()
        self._patches = []          # (owner, attribute, original)

    # -- recording -----------------------------------------------------------

    def reset(self):
        self.spans.clear()
        for stat in self.counters.values():
            stat[:] = [0, 0.0]
        self.tallies.clear()

    def tally(self, key, amount):
        self.tallies[key] += amount

    def saw_field(self, p, backend):
        self.moduli_bits.append(p.bit_length())
        self.backends.add(backend)

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _span_wrapper(self, fn, name):
        spans, stack, hook = self.spans, self._stack, HOOKS.get(name)
        clock = time.perf_counter

        def enter():
            st = stack()
            rec = [name, clock(), 0.0, st[-1] if st else -1, 0.0]
            st.append(len(spans))
            spans.append(rec)
            return st, rec

        def leave(st, rec):
            rec[2] = clock()
            st.pop()
            if rec[3] >= 0:
                spans[rec[3]][4] += rec[2] - rec[1]

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        st, rec = enter()
                        try:
                            item = next(gen)
                        except StopIteration as stop:
                            return stop.value
                        finally:
                            leave(st, rec)
                        yield item
                finally:
                    gen.close()
            wrapper = gen_wrapper
        else:
            def wrapper(*args, **kwargs):
                st, rec = enter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave(st, rec)
                if hook is not None:
                    try:
                        hook(self, args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, TypeError):
                        self.hook_misses[name] += 1
                return result
        return functools.update_wrapper(wrapper, fn)

    def _counter_wrapper(self, fn, name):
        stat = self.counters.setdefault(name, [0, 0.0])
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt
                st = stack()
                if st:
                    spans[st[-1]][4] += dt
        return functools.update_wrapper(wrapper, fn)

    # -- patching -------------------------------------------------------------

    def _modules(self):
        pkg = self.package.__name__
        mods = {}
        for short in SPAN_MODULES + COUNTER_MODULES:
            try:
                mods[short] = importlib.import_module(f"{pkg}.{short}")
            except ModuleNotFoundError:     # a layer the program no longer has
                continue
        return mods

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = self._modules()
        wrappers = {}               # id(original function) -> (home, wrapper)
        for short, mod in mods.items():
            counting = short in COUNTER_MODULES
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType) and (
                        counting or short == "cli" or not attr.startswith("_")):
                    make = self._counter_wrapper if counting else self._span_wrapper
                    wrappers[id(obj)] = (short, make(obj, f"{short}.{attr}"))
                elif (isinstance(obj, type) and not counting
                      and not issubclass(obj, BaseException)):
                    self._wrap_class(short, obj)
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                home, wrapper = wrappers.get(id(obj), (None, None))
                # calls inside a counted layer stay unwrapped
                if wrapper is not None and not (
                        home == short and home in COUNTER_MODULES):
                    self._patch(mod, attr, wrapper)

    def _wrap_class(self, short, cls):
        for attr, raw in list(vars(cls).items()):
            if attr != "__init__" and attr.startswith("_"):
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                self._patch(cls, attr,
                            staticmethod(self._span_wrapper(raw.__func__, name)))
            elif isinstance(raw, types.FunctionType):
                self._patch(cls, attr, self._span_wrapper(raw, name))

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation ------------------------------------------------------------

    def summary(self):
        """Per span name: calls, self and inclusive seconds; plus counters."""
        calls, self_s, incl_s = Counter(), Counter(), Counter()
        for name, start, end, _parent, child in self.spans:
            calls[name] += 1
            incl_s[name] += end - start
            self_s[name] += end - start - child
        for name, (n, sec) in self.counters.items():
            calls[name] += n
            incl_s[name] += sec
            self_s[name] += sec
        return calls, self_s, incl_s

    def count_under(self, name, ancestor, direct=False):
        """Spans called `name` that have a span called `ancestor` above them
        (as the direct parent only, if `direct`)."""
        spans = self.spans
        if direct:
            return sum(1 for s in spans
                       if s[0] == name and s[3] >= 0 and spans[s[3]][0] == ancestor)
        # parents precede children, so one forward pass marks the subtrees
        inside = [False] * len(spans)
        total = 0
        for i, s in enumerate(spans):
            p = s[3]
            inside[i] = p >= 0 and (inside[p] or spans[p][0] == ancestor)
            if inside[i] and s[0] == name:
                total += 1
        return total

    def dump(self):
        """Spans as a names table plus rows [name_idx, start, end, parent]."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[s[0]], round(s[1] - t0, 7), round(s[2] - t0, 7), s[3]]
                for s in self.spans]
        return {"names": names, "spans": rows}

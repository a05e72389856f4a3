"""Span tracer that wraps sgineq's public functions from outside.

The package itself is never edited. A ``Tracer`` replaces each traced
function at every place it is bound: the defining module, every
``sgineq`` module that imported it by name (``evolve`` lives in
``semigroup`` but is also bound in ``jessen``, ``expconv``, ``suites``
and the package root), any extra module the caller names, and, for
methods, the class attribute. Leaving the ``with`` block restores the
original objects.

Each call records one span ``(name, start, end, parent)``; ``parent`` is
the index of the enclosing traced span, or -1. A span's self time is
its duration minus the time covered by its direct children; the code is
single threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
from collections import Counter

# (layer metric name, module, attribute path). Several attributes may
# share one name; their spans are counted together.
TARGETS = (
    ("semigroup.evolve", "sgineq.semigroup", "evolve"),
    ("semigroup.apply", "sgineq.semigroup", "SemigroupOperator.apply"),
    ("families.apply", "sgineq.families", "OperatorFamily.apply"),
    ("lattice.element_new", "sgineq.lattice", "LatticeElement.__init__"),
    ("lattice.partial_leq", "sgineq.lattice", "partial_leq"),
    ("jessen.verify_jessen", "sgineq.jessen", "verify_jessen"),
    ("jessen.verify_adjoint_pairing", "sgineq.jessen", "verify_adjoint_pairing"),
    ("expconv.build_gram", "sgineq.expconv", "build_gram"),
    ("expconv.check_order_psd", "sgineq.expconv", "check_order_psd"),
    ("suites.run_config_verification", "sgineq.suites", "run_config_verification"),
    ("suites.random_inputs", "sgineq.suites", "random_conservative_generator"),
    ("suites.random_inputs", "sgineq.suites", "random_positive_generator"),
    ("suites.random_inputs", "sgineq.suites", "random_domain_element"),
    ("cli.main", "sgineq.cli", "main"),
)

LAYERS = tuple(dict.fromkeys(name for name, _, _ in TARGETS))

EVOLVE = "semigroup.evolve"


def pair_key(gen, t) -> tuple:
    """Content key of one (generator, t) pair."""
    return hashlib.blake2b(gen.q.tobytes(), digest_size=16).digest(), float(t)


class Tracer:
    """Context manager that records spans of every call into ``TARGETS``.

    ``extra_modules`` are scanned for bindings too, so a caller that did
    ``from sgineq.jessen import verify_jessen`` is traced as well. With
    ``keep_pairs`` the distinct (generator, t) arguments of ``evolve``
    are kept for an oracle check.
    """

    def __init__(self, extra_modules=(), keep_pairs: bool = False):
        self.extra_modules = tuple(extra_modules)
        self.keep_pairs = keep_pairs
        self.spans: list = []
        self.pairs: dict = {}
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        on_evolve = self._note_pair if name == EVOLVE else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if on_evolve is not None:
                on_evolve(args, kwargs)
            return result

        return traced

    def _note_pair(self, args, kwargs):
        gen = args[0] if args else kwargs["gen"]
        t = args[1] if len(args) > 1 else kwargs["t"]
        key = pair_key(gen, t)
        if key not in self.pairs:
            self.pairs[key] = (gen, float(t)) if self.keep_pairs else None

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "sgineq" or n.startswith("sgineq.")]
        modules.extend(self.extra_modules)
        for name, modname, path in TARGETS:
            owner = sys.modules[modname]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original)
            if cls_path:
                self._set(owner, attr, wrapper, original)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper, original)
        return self

    def _set(self, owner, attr, wrapper, original):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False

    def layer_totals(self) -> tuple[Counter, Counter]:
        """Call counts and self seconds per layer name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
        return calls, self_s

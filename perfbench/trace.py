"""Traced-run recorder: timing wrappers around the package's layers.

Layers are measured from outside.  ``Recorder.install`` swaps each public
function listed in ``LAYERS`` for a timing wrapper, in every loaded
``powerdenom`` module that binds it: callers bind names at import
(``denom`` does ``from .digits import digit_sum``), so the wrapper has to
replace ``powerdenom.denom.digit_sum`` and not only the definition.
``Recorder.restore`` puts every original back; ``tracing`` pairs the two.

Every wrapped call keeps three aggregates per layer: calls, busy time, and
self time, which is busy time minus the time spent in wrapped children.
Calls outside ``HOT`` also record one span each, as do the benchmark's
items.  Hot leaves (``digit_sum`` alone sees about 10^6 calls in a
b-file run) keep only the aggregates.  Everything stays in memory until
``write_spans``.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time

# (layer key, owner, attribute).  The owner is a module, or "module:Class"
# for methods and properties.  Keys shared by several functions aggregate.
LAYERS = (
    ("digits.digit_sum", "powerdenom.digits", "digit_sum"),
    ("digits.sieve", "powerdenom.digits", "primes_up_to"),
    ("denom.nonconstant", "powerdenom.denom", "nonconstant_denom"),
    ("denom.number", "powerdenom.denom", "number_denom"),
    ("denom.full", "powerdenom.denom", "full_denom"),
    ("denom.quotient", "powerdenom.denom", "nonconstant_quotient"),
    ("denom.quotient", "powerdenom.denom", "full_denom_quotient"),
    ("denom.direct", "powerdenom.denom", "number_denom_direct"),
    ("denom.direct", "powerdenom.denom", "nonconstant_denom_direct"),
    ("denom.direct", "powerdenom.denom", "full_denom_direct"),
    ("bernoulli.number", "powerdenom.bernoulli:BernoulliCache", "number"),
    ("bernoulli.polynomial", "powerdenom.bernoulli:BernoulliCache", "polynomial"),
    ("bernoulli.value_at", "powerdenom.bernoulli:BernoulliCache", "value_at"),
    ("bernoulli.scaled", "powerdenom.bernoulli:BernoulliCache", "scaled_numbers"),
    ("bernoulli.poly_denominator", "powerdenom.bernoulli:RationalPoly", "denominator"),
    ("powersum.poly", "powerdenom.powersum", "power_sum_poly"),
    ("powersum.denominator", "powerdenom.powersum", "power_sum_denominator"),
    ("powersum.is_integral", "powerdenom.powersum", "is_integral"),
    ("powersum.am_integer", "powerdenom.powersum", "am_integer"),
    ("cli.main", "powerdenom.cli", "main"),
)

HOT = frozenset(
    {
        "digits.digit_sum",
        "digits.sieve",
        "bernoulli.number",
        "bernoulli.value_at",
        "bernoulli.scaled",
        "bernoulli.poly_denominator",
    }
)


class _Observers:
    """Counts that need a call's arguments or result, not only its timing."""

    def __init__(self) -> None:
        self.digit_sum_kept = 0
        self.sieve_max_bound = 0
        self.nonconstant_seen: set[int] = set()
        self.nonconstant_repeats = 0
        self.table_max_n = 0
        self.value_at_seen: set[tuple] = set()
        self.value_at_hits = 0

    def digit_sum(self, args, result) -> None:
        if result >= args[0]:
            self.digit_sum_kept += 1

    def sieve(self, args, result) -> None:
        self.sieve_max_bound = max(self.sieve_max_bound, args[0])

    def nonconstant(self, args, result) -> None:
        n = args[0]
        if n in self.nonconstant_seen:
            self.nonconstant_repeats += 1
        else:
            self.nonconstant_seen.add(n)

    def number(self, args, result) -> None:
        self.table_max_n = max(self.table_max_n, args[1])

    def value_at(self, args, result) -> None:
        key = (id(args[0]), args[1], args[2])
        if key in self.value_at_seen:
            self.value_at_hits += 1
        else:
            self.value_at_seen.add(key)


_OBSERVED = {
    "digits.digit_sum": "digit_sum",
    "digits.sieve": "sieve",
    "denom.nonconstant": "nonconstant",
    "bernoulli.number": "number",
    "bernoulli.value_at": "value_at",
}


class Recorder:
    """Spans and per-layer aggregates of one traced run, kept in memory.

    ``stats[key]`` is ``[calls, busy_ns, self_ns]``.  A span is the tuple
    ``(span_id, parent_id, name, workload, item, start_ns, end_ns, self_ns)``;
    ``parent_id`` is None for a span opened outside any other span.
    """

    def __init__(self, workload: str = "", clock=time.perf_counter_ns) -> None:
        self.workload = workload
        self.clock = clock
        self.stats: dict[str, list[int]] = {}
        self.spans: list[tuple] = []
        self.observed = _Observers()
        # open frames: [child_ns, span_id] (items add start_ns); hot frames
        # inherit the enclosing span id so their children find their parent
        self._stack: list[list] = []
        self._next_id = 1
        self._item = None
        self._restore: list[tuple[object, str, object]] = []

    # -- spans opened by the benchmark itself ---------------------------------

    def _parent(self):
        return self._stack[-1][1] if self._stack else None

    def open_item(self, item) -> None:
        """Start the span of one workload item; layer spans nest under it."""
        self._item = item
        self._stack.append([0, self._new_id(), self.clock()])

    def close_item(self) -> None:
        end = self.clock()
        child, span_id, start = self._stack.pop()
        self._close(span_id, "item", start, end, child)
        self._item = None

    def mark_item(self, item, start: int, end: int) -> None:
        """Record an item known only by its boundaries, e.g. a written line.

        Its parent is the innermost open span; it is not pushed, so it does
        not count as child time of that span.
        """
        self.spans.append(
            (self._new_id(), self._parent(), "item", self.workload, item, start, end, end - start)
        )

    def _new_id(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def _close(self, span_id, name, start, end, child) -> None:
        busy = end - start
        parent = self._parent()
        if self._stack:
            self._stack[-1][0] += busy
        self.spans.append(
            (span_id, parent, name, self.workload, self._item, start, end, busy - child)
        )

    # -- layer wrappers ---------------------------------------------------------

    def wrap(self, key: str, fn):
        """A wrapper that times ``fn`` under ``key`` and then returns its result."""
        stat = self.stats.setdefault(key, [0, 0, 0])
        stack, clock = self._stack, self.clock
        observe = getattr(self.observed, _OBSERVED[key]) if key in _OBSERVED else None
        hot = key in HOT

        def wrapper(*args, **kwargs):
            # the wrapper's own bookkeeping sits inside [start, end], so it is
            # charged to this layer and not to the caller's self time
            start = clock()
            if hot:
                frame = [0, stack[-1][1] if stack else None]
            else:
                frame = [0, self._new_id()]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, result)
            finally:
                stack.pop()
                end = clock()
                busy = end - start
                stat[0] += 1
                stat[1] += busy
                stat[2] += busy - frame[0]
                if hot:
                    if stack:
                        stack[-1][0] += busy
                else:
                    self._close(frame[1], key, start, end, frame[0])
            return result

        return wrapper

    def install(self) -> None:
        """Replace every binding of every layer function with its wrapper."""
        if self._restore:
            raise RuntimeError("recorder is already installed")
        imported = {
            owner: importlib.import_module(owner.partition(":")[0]) for _, owner, _ in LAYERS
        }
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if name == "powerdenom" or name.startswith("powerdenom.")
        ]
        try:
            for key, owner, attr in LAYERS:
                module, class_name = imported[owner], owner.partition(":")[2]
                if class_name:
                    cls = getattr(module, class_name)
                    original = cls.__dict__[attr]
                    if isinstance(original, property):
                        patched = property(self.wrap(key, original.fget))
                    else:
                        patched = self.wrap(key, original)
                    self._swap(cls, attr, original, patched)
                    continue
                original = getattr(module, attr)
                patched = self.wrap(key, original)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._swap(mod, name, original, patched)
        except BaseException:
            self.restore()
            raise

    def _swap(self, owner, name, original, patched) -> None:
        setattr(owner, name, patched)
        self._restore.append((owner, name, original))

    def restore(self) -> None:
        """Put back every name ``install`` replaced, newest first."""
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    # -- results ----------------------------------------------------------------

    def layer_metrics(self, lines: int) -> dict[str, float]:
        """The per-layer metrics of this run; ``lines`` is what cli.main wrote."""
        obs = self.observed

        def calls(key):
            return self.stats.get(key, (0, 0, 0))[0]

        def busy_s(key):
            return self.stats.get(key, (0, 0, 0))[1] / 1e9

        def self_s(key):
            return self.stats.get(key, (0, 0, 0))[2] / 1e9

        def ratio(part, whole):
            return part / whole if whole else 0.0

        return {
            "digits.digit_sum_calls": calls("digits.digit_sum"),
            "digits.digit_sum_s": busy_s("digits.digit_sum"),
            "digits.digit_sum_kept_ratio": ratio(obs.digit_sum_kept, calls("digits.digit_sum")),
            "digits.sieve_calls": calls("digits.sieve"),
            "digits.sieve_s": busy_s("digits.sieve"),
            "digits.sieve_max_bound": obs.sieve_max_bound,
            "denom.nonconstant_calls": calls("denom.nonconstant"),
            "denom.nonconstant_hit_ratio": ratio(
                obs.nonconstant_repeats, calls("denom.nonconstant")
            ),
            "denom.nonconstant_self_s": self_s("denom.nonconstant"),
            "denom.number_self_s": self_s("denom.number"),
            "denom.full_self_s": self_s("denom.full"),
            "denom.quotient_self_s": self_s("denom.quotient"),
            "denom.direct_calls": calls("denom.direct"),
            "denom.direct_self_s": self_s("denom.direct"),
            "bernoulli.number_s": busy_s("bernoulli.number"),
            "bernoulli.table_max_n": obs.table_max_n,
            "bernoulli.polynomial_calls": calls("bernoulli.polynomial"),
            "bernoulli.polynomial_s": self_s("bernoulli.polynomial"),
            "bernoulli.poly_denominator_s": self_s("bernoulli.poly_denominator"),
            "bernoulli.value_at_calls": calls("bernoulli.value_at"),
            "bernoulli.value_at_hit_ratio": ratio(obs.value_at_hits, calls("bernoulli.value_at")),
            "bernoulli.value_at_s": self_s("bernoulli.value_at"),
            "bernoulli.scaled_s": self_s("bernoulli.scaled"),
            "powersum.poly_calls": calls("powersum.poly"),
            "powersum.poly_self_s": self_s("powersum.poly"),
            "powersum.denominator_self_s": self_s("powersum.denominator"),
            "powersum.is_integral_self_s": self_s("powersum.is_integral"),
            "powersum.am_integer_calls": calls("powersum.am_integer"),
            "powersum.am_integer_self_s": self_s("powersum.am_integer"),
            "cli.lines": lines,
            "cli.self_s": self_s("cli.main"),
        }

    def write_spans(self, path) -> None:
        """Write the span field names, each span as a list, then the layer
        aggregates, as JSON lines."""
        fields = ["id", "parent", "name", "workload", "item", "start_ns", "end_ns", "self_ns"]
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"span_fields": fields}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
            for key, (n, busy, own) in sorted(self.stats.items()):
                out.write(
                    json.dumps({"layer": key, "calls": n, "busy_ns": busy, "self_ns": own})
                    + "\n"
                )


@contextlib.contextmanager
def tracing(recorder: Recorder):
    """Install ``recorder``'s wrappers for the body, then restore the originals."""
    recorder.install()
    try:
        yield recorder
    finally:
        recorder.restore()

"""Lookup-site wrappers that record spans and counts around the program's layers.

Each wrapper replaces a function at the module attribute its caller looks
it up by, so the program itself is unchanged.  Spans (name, start, end,
parent, op id) are kept in memory; self time is a span's duration minus
the durations of its direct children, which nest because the program is
single-threaded.
"""

import importlib
import time

# (module, attribute, span name); the module is the caller's namespace.
SPANNED = (
    ("eae_sat.syntax", "load_sentence", "syntax.load"),
    ("eae_sat.solver", "enumerate_one_types", "onetypes.enum"),
    ("eae_sat.witness", "enumerate_one_types", "onetypes.enum"),
    ("eae_sat.solver", "enumerate_extended_types", "onetypes.enum"),
    ("eae_sat.solver", "find_witness", "witness.find"),
    ("eae_sat.solver", "find_ext_witness", "witness.ext_find"),
    ("eae_sat.solver", "check_descriptor", "witness.check"),
    ("eae_sat.solver", "solve", "solver.solve"),
    ("eae_sat.solver", "gfp_solve", "solver.method"),
    ("eae_sat.solver", "bounded_game_solve", "solver.method"),
    ("eae_sat.solver", "extended_solve", "solver.method"),
    ("eae_sat.cli", "check_certificate", "solver.cert_check"),
    ("eae_sat.structures", "brute_force_search", "structures.oracle"),
    ("eae_sat.structures", "build_model_sequence", "structures.build"),
    ("eae_sat.serialize", "dumps", "serialize"),
    ("eae_sat.serialize", "outcome_to_json", "serialize"),
    ("eae_sat.serialize", "staged_to_json", "serialize"),
    ("eae_sat.serialize", "conflict_to_json", "serialize"),
    ("eae_sat.serialize", "structure_to_json", "serialize"),
)

# Top-level matrix evaluations, counted only: they are too frequent to
# span.  The recursive eae_sat.syntax.eval_matrix is deliberately left
# alone so that each evaluation counts once.
COUNTED = (
    ("eae_sat.witness", "eval_matrix", "syntax.eval"),
    ("eae_sat.structures", "eval_matrix", "syntax.eval"),
)

ROOT = "cli"
MAX_KEPT_SPANS = 100_000


class Tracer:
    """Span recorder and per-name aggregates for one worker process."""

    def __init__(self):
        self.op = -1
        self.spans = []  # (name, start, end, parent index, op id)
        self.dropped = 0
        self.stack = []  # [name, start, child time, span index]
        self.total = {}  # name -> inclusive seconds
        self.self_time = {}  # name -> self seconds
        self.calls = {}  # name -> calls
        self.hits = {}  # name -> calls whose result counts as a hit
        self.top_total = {}  # name -> inclusive seconds, outermost spans only
        self._patches = []  # (module, attribute, original, wrapper)
        for module_name, attr, span in SPANNED:
            self._prepare(module_name, attr, self._spanned(span))
        for module_name, attr, name in COUNTED:
            self._prepare(module_name, attr, self._counted(name))

    def enter(self, name):
        index = -1
        if len(self.spans) < MAX_KEPT_SPANS:
            index = len(self.spans)
            parent = self.stack[-1][3] if self.stack else -1
            self.spans.append([name, 0.0, 0.0, parent, self.op])
        self.stack.append([name, time.perf_counter(), 0.0, index])

    def exit(self, hit):
        end = time.perf_counter()
        name, start, child, index = self.stack.pop()
        duration = end - start
        if index >= 0:
            span = self.spans[index]
            span[1] = start
            span[2] = end
        else:
            self.dropped += 1
        if self.stack:
            self.stack[-1][2] += duration
        if not any(frame[0] == name for frame in self.stack):
            self.top_total[name] = self.top_total.get(name, 0.0) + duration
        self.total[name] = self.total.get(name, 0.0) + duration
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - child
        self.calls[name] = self.calls.get(name, 0) + 1
        if hit:
            self.hits[name] = self.hits.get(name, 0) + 1

    def count(self, name):
        self.calls[name] = self.calls.get(name, 0) + 1

    def run_op(self, op_id, fn, *args, **kwargs):
        """Call fn as the root span of one operation."""
        self.op = op_id
        self.enter(ROOT)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit(False)

    def install(self):
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def _prepare(self, module_name, attr, make_wrapper):
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            return  # a later version of the program dropped this function
        self._patches.append((module, attr, original, make_wrapper(original)))

    def _spanned(self, name):
        def make(fn):
            def wrapper(*args, **kwargs):
                self.enter(name)
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    self.exit(_is_hit(result))
            wrapper.__wrapped__ = fn
            return wrapper
        return make

    def _counted(self, name):
        def make(fn):
            def wrapper(*args, **kwargs):
                self.count(name)
                return fn(*args, **kwargs)
            wrapper.__wrapped__ = fn
            return wrapper
        return make

    def dump(self, path):
        """Write kept spans as tab-separated lines: op, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tname\tstart_s\tend_s\tparent\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{op}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")

    def summary(self):
        return {"total": self.total, "self": self.self_time,
                "top_total": self.top_total, "calls": self.calls,
                "hits": self.hits, "kept_spans": len(self.spans),
                "dropped_spans": self.dropped}


def _is_hit(result):
    """A search that returned something; a model build that did not conflict."""
    if result is None:
        return False
    return type(result).__name__ != "ConstructionConflict"

"""Span tracing for the traced benchmark run.

The tracer wraps public functions of the program's layers from outside.
The modules import these names directly (``from .la import matvec``), so
a wrapper is installed on every loaded ``vlac`` module attribute that
refers to the original function, and on the class for methods.

Spans are recorded only on the main thread and only inside a root span
that the benchmark opens around a timed phase (set-up, prove, verify).
Each span is ``[name, start, end, parent, session]`` and stays in memory
until the run writes them out.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

ROOT_PHASES = ("bench.setup", "bench.prove", "bench.verify")


def _digest_bytes(tracer, args):
    tracer.count("proto.digest_bytes", sum(len(part) for part in args[1]))


def _absorbed_bytes(tracer, args):
    tracer.count("proto.fs_absorbed_bytes", len(args[1]))


def _fs_draw(tracer, args):
    tracer.count("proto.fs_draws", 1)


def _messages(tracer, args):
    tracer.count("proto.messages", len(args[0].messages))


# (module, attribute or Class.method, span name, counter hook)
FUNCTION_SPANS = (
    ("vlac.matrixmarket", "parse_matrix_market", "matrixmarket.parse", None),
    ("vlac.la", "dense_matmul", "la.dense_matmul", None),
    ("vlac.la", "matvec", "la.matvec", None),
    ("vlac.la", "solve_dense", "la.elimination", None),
    ("vlac.la", "kernel_vector", "la.elimination", None),
    ("vlac.la", "det_dense", "la.elimination", None),
    ("vlac.la", "invert_dense", "la.elimination", None),
    ("vlac.la", "rank_dense", "la.elimination", None),
    ("vlac.la", "Butterfly.apply", "la.butterfly", None),
    ("vlac.la", "Butterfly.apply_t", "la.butterfly", None),
    ("vlac.ff", "berlekamp_massey", "ff.berlekamp_massey", None),
    ("vlac.ff", "poly_xgcd", "ff.poly_xgcd", None),
    ("vlac.ff", "numerator_from_sequence", "ff.numerator", None),
    ("vlac.ff", "is_probable_prime", "ff.prime_test", None),
    ("vlac.certs_sparse", "projected_sequence", "certs_sparse.krylov", None),
    ("vlac.certs_sparse", "det_prover_flow", "certs_sparse.prover", None),
    ("vlac.certs_sparse", "det_verifier_flow", "certs_sparse.verifier", None),
    ("vlac.certs_sparse", "sparse_bytes", "certs_sparse.sparse_bytes", None),
    ("vlac.certs_dense", "dense_bytes", "certs_dense.dense_bytes", None),
    ("vlac.proto", "instance_digest", "proto.instance_digest", _digest_bytes),
    ("vlac.proto", "FiatShamirSource.begin", "proto.fs", None),
    ("vlac.proto", "FiatShamirSource.absorb", "proto.fs", _absorbed_bytes),
    ("vlac.proto", "FiatShamirSource.draw_uint", "proto.fs", _fs_draw),
    ("vlac.proto", "transcript_serialize", "proto.serialize", _messages),
    ("vlac.proto", "transcript_deserialize", "proto.deserialize", None),
    ("vlac.lift", "int_det_crt", "lift.int_det_crt", None),
    ("vlac.lift", "IntMatrix.encode", "lift.encode", None),
    ("vlac.lift", "PolyMatrix.encode", "lift.encode", None),
    ("vlac.lift", "hadamard_bound", "lift.hadamard_bound", None),
    ("vlac.lift", "poly_det_interp", "lift.poly_det_interp", None),
)

# Protocol builders whose returned verifier closure gets a span.  The
# determinant verifier is covered by ``det_verifier_flow`` above.
VERIFIER_SPANS = (
    ("vlac.certs_dense", "_matmul_parts", "certs_dense.verifier"),
    ("vlac.certs_dense", "_chain_parts", "certs_dense.verifier"),
    ("vlac.certs_dense", "_inverse_parts", "certs_dense.verifier"),
    ("vlac.certs_sparse", "_nonsingular_parts", "certs_sparse.verifier"),
    ("vlac.certs_sparse", "_rank_parts", "certs_sparse.verifier"),
    ("vlac.certs_sparse", "_rank_upper_parts", "certs_sparse.verifier"),
    ("vlac.certs_sparse", "_minpoly_parts", "certs_sparse.verifier"),
)


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = defaultdict(int)
        self.session = None
        self._stack: list[int] = []
        self._main = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def count(self, key: str, n: int) -> None:
        self.counts[(self.session[0], key)] += n

    def open_root(self, phase: str, session) -> None:
        self.session = session
        self.spans.append([phase, time.perf_counter(), 0.0, None, session])
        self._stack.append(len(self.spans) - 1)

    def close_root(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def wrap(self, name: str, fn, hook=None):
        spans = self.spans
        stack = self._stack
        main = self._main
        clock = time.perf_counter
        get_ident = threading.get_ident
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack or get_ident() != main:
                return fn(*args, **kwargs)
            if hook is not None:
                hook(tracer, args)
            rec = [name, clock(), 0.0, stack[-1], tracer.session]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def _wrap_parts(self, name: str, builder):
        tracer = self

        @functools.wraps(builder)
        def parts(*args, **kwargs):
            params, digest, prover, verifier = builder(*args, **kwargs)
            return params, digest, prover, tracer.wrap(name, verifier)

        return parts

    # -- installation --------------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "vlac" or mod_name.startswith("vlac.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            return
        for mod_name, attr, span, hook in FUNCTION_SPANS:
            module = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = vars(cls)[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self.wrap(span, original, hook))
            else:
                original = getattr(module, attr)
                self._replace_everywhere(original, self.wrap(span, original, hook))
        for mod_name, attr, span in VERIFIER_SPANS:
            original = getattr(sys.modules[mod_name], attr)
            self._replace_everywhere(original, self._wrap_parts(span, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def round_layers(spans: list[list], counts: dict, round_no: int) -> dict:
    """Self time, calls and counters of one traced round, by span name.

    A span's self time is its duration minus the durations of its direct
    children.  Calls count spans whose parent has another name, so an
    operator apply that recurses into ``matvec`` counts once.
    """
    picked = [i for i, s in enumerate(spans) if s[4] is not None and s[4][0] == round_no]
    child_time: dict[int, float] = defaultdict(float)
    for i in picked:
        parent = spans[i][3]
        if parent is not None:
            child_time[parent] += spans[i][2] - spans[i][1]
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    root_total = 0.0
    covered = 0.0
    for i in picked:
        name, start, end, parent, _ = spans[i]
        if parent is None:
            if name in ROOT_PHASES:
                root_total += end - start
            continue
        self_time[name] += (end - start) - child_time[i]
        if spans[parent][0] != name:
            calls[name] += 1
        if spans[parent][3] is None and spans[parent][0] in ROOT_PHASES:
            covered += end - start
    return {
        "self_s": dict(self_time),
        "calls": dict(calls),
        "counts": {k: v for (r, k), v in counts.items() if r == round_no},
        "root_s": root_total,
        "covered_s": covered,
    }

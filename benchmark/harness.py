"""Rounds, checks and figures of one benchmark run.

Imported by run.py after it has put the program's source on the path.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction

from vlac.errors import VlacError

import calibration
import instances as gen
import workloads
from tracing import Tracer, round_layers

MIN_ROUNDS = 2
# calibration bracket length: a share of the block it closes, at least CAL_MIN_S
CAL_SHARE, CAL_MIN_S = 0.05, 0.05


class Clock:
    """Times calls after a full collection, under a root span if traced.

    Each timed call yields a sample ``[wall seconds, scaled seconds]``.
    The scaled value is filled in at the next ``calibrate()``, from the
    blend unit times measured just before and just after the block of
    calls (see calibration.py).
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self._pending: list[list] = []
        self._block = 0.0
        self._unit = None

    def calibrate(self) -> None:
        length = max(CAL_MIN_S, CAL_SHARE * self._block)
        unit = calibration.unit_seconds(length)
        if self._unit is not None:
            scale = calibration.REFERENCE_UNIT_S / ((self._unit + unit) / 2)
            for sample in self._pending:
                sample[1] = sample[0] * scale
        self._pending = []
        self._block = 0.0
        self._unit = unit

    def run(self, phase: str, session, fn, *args):
        if self._unit is None:
            self.calibrate()
        gc.collect()
        if self.tracer is not None:
            self.tracer.open_root(phase, session)
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            wall = time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.close_root()
        sample = [wall, None]
        self._pending.append(sample)
        self._block += wall
        return out, sample


class Ops:
    """Attempted, failed and wrong operations of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes: list[str] = []

    def plan(self, n: int) -> None:
        self.attempted += n

    def fail(self, what: str, n: int = 1) -> None:
        self.failed += n
        self.notes.append(f"failed: {what}")

    def check(self, what: str, ok: bool) -> None:
        if not ok:
            self.wrong += 1
            self.notes.append(f"wrong: {what}")


def _rejected(verify, *args) -> bool:
    """True when a verifier refuses the input, by verdict or by error."""
    try:
        verdict, _ = verify(*args)
    except VlacError:
        return True
    return not verdict.accepted


def _ops_per_round(case, reps: int, live: bool) -> int:
    # prover output, each replay, one tampered transcript, the wrong claim
    return 1 + reps + 1 + int(case.has_wrong_claim) + int(live)


def run_round(cases, clock: Clock, ops: Ops, rng, reps: int, round_no: int,
              live_seed: int | None) -> dict:
    """Set-up, prove and verify every case once, with all checks.

    Returns the round's samples and figures; timed samples are scaled
    once the round's last calibration has run.
    """
    stats = {"setup": [], "prove": [], "verify": [], "cert_bytes": 0,
             "eps": [], "verifier_ops": 0, "live": 0.0}
    clock.calibrate()
    parsed = []
    for case in cases:
        files, sample = clock.run("bench.setup", (round_no, case.name), case.parse)
        stats["setup"].append(sample)
        parsed.append(files)
    clock.calibrate()
    for case, files in zip(cases, parsed):
        planned = _ops_per_round(case, reps, live_seed is not None)
        ops.plan(planned)
        done = 0
        try:
            (raw, claim), sample = clock.run(
                "bench.prove", (round_no, case.name), case.prove, files)
            stats["prove"].append(sample)
            clock.calibrate()
            stats["cert_bytes"] += len(raw) + case.claim_bytes(claim)
            ops.check(f"{case.name} prover output", case.prover_output_ok(claim))
            done += 1
            samples = []
            for _ in range(reps):
                objs = case.fresh(claim)
                (verdict, result), sample = clock.run(
                    "bench.verify", (round_no, case.name), case.verify, objs, raw)
                samples.append(sample)
                done += 1
                if not verdict.accepted:
                    ops.fail(f"{case.name} honest transcript rejected: {verdict.reason}")
                    continue
                ops.check(f"{case.name} certified result", case.result_ok(result))
                stats["eps"].append(verdict.error_bound)
            clock.calibrate()
            stats["verifier_ops"] += verdict.verifier_ops
            stats["verify"].append(samples)
            tampered = gen.flip_byte(raw, rng)
            ops.check(f"{case.name} tampered transcript accepted",
                      _rejected(case.verify, case.fresh(claim), tampered))
            done += 1
            if case.has_wrong_claim:
                ops.check(f"{case.name} wrong claim accepted",
                          _rejected(case.wrong_claim, claim))
                done += 1
            if live_seed is not None:
                objs = case.fresh(claim)
                gc.collect()
                t0 = time.perf_counter()
                verdict, result = case.live(objs, live_seed)
                stats["live"] += time.perf_counter() - t0
                done += 1
                if not verdict.accepted:
                    ops.fail(f"{case.name} live session rejected: {verdict.reason}")
                else:
                    ops.check(f"{case.name} live result", case.result_ok(result))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ops.fail(f"{case.name} raised", planned - done)
    clock.calibrate()
    return stats


def round_times(stats: dict, which: int) -> dict:
    """Set-up, prove and verify seconds of one round: which=0 wall, 1 scaled.

    Each adds up over the cases; a case's verify time is the mean of its
    replays.  A mean, not a median: on dense-product the replays alternate
    between two speeds, and a median jumps between them from run to run.
    """
    return {
        "setup": sum(s[which] for s in stats["setup"]),
        "prove": sum(s[which] for s in stats["prove"]),
        "verify": sum(statistics.fmean(s[which] for s in samples) for samples in stats["verify"]),
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def soundness_bits(bounds) -> float:
    worst = max(bounds, default=Fraction(1))
    if worst <= 0:
        return float("inf")
    return math.log2(worst.denominator) - math.log2(worst.numerator)


def end_to_end(rounds: list, which: int) -> dict:
    times = [round_times(r, which) for r in rounds]
    return {
        "prove_s": (_median([t["prove"] for t in times]), "s"),
        "verify_s": (_median([t["verify"] for t in times]), "s"),
        "setup_s": (_median([t["setup"] for t in times]), "s"),
        "cert_bytes": (_median([r["cert_bytes"] for r in rounds]), "bytes"),
        "soundness_bits": (soundness_bits([e for r in rounds for e in r["eps"]]), "bits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


# per-layer metric -> (unit, source, key); sources are the tracer's self
# times and call counts, its counters, and the round statistics
PER_LAYER = {
    "matrixmarket.parse_s": ("s", "self_s", "matrixmarket.parse"),
    "la.dense_matmul_s": ("s", "self_s", "la.dense_matmul"),
    "la.matvec_s": ("s", "self_s", "la.matvec"),
    "la.matvec_calls": ("count", "calls", "la.matvec"),
    "la.elimination_s": ("s", "self_s", "la.elimination"),
    "la.elimination_calls": ("count", "calls", "la.elimination"),
    "la.butterfly_s": ("s", "self_s", "la.butterfly"),
    "ff.berlekamp_massey_s": ("s", "self_s", "ff.berlekamp_massey"),
    "ff.poly_xgcd_s": ("s", "self_s", "ff.poly_xgcd"),
    "ff.numerator_s": ("s", "self_s", "ff.numerator"),
    "ff.prime_tests": ("count", "calls", "ff.prime_test"),
    "certs_sparse.krylov_self_s": ("s", "self_s", "certs_sparse.krylov"),
    "certs_sparse.prover_self_s": ("s", "self_s", "certs_sparse.prover"),
    "certs_sparse.verifier_s": ("s", "self_s", "certs_sparse.verifier"),
    "certs_sparse.sparse_bytes_s": ("s", "self_s", "certs_sparse.sparse_bytes"),
    "certs_dense.dense_bytes_s": ("s", "self_s", "certs_dense.dense_bytes"),
    "certs_dense.verifier_s": ("s", "self_s", "certs_dense.verifier"),
    "proto.instance_digest_s": ("s", "self_s", "proto.instance_digest"),
    "proto.digest_bytes": ("bytes", "counts", "proto.digest_bytes"),
    "proto.fs_s": ("s", "self_s", "proto.fs"),
    "proto.fs_draws": ("count", "counts", "proto.fs_draws"),
    "proto.fs_absorbed_bytes": ("bytes", "counts", "proto.fs_absorbed_bytes"),
    "proto.serialize_s": ("s", "self_s", "proto.serialize"),
    "proto.deserialize_s": ("s", "self_s", "proto.deserialize"),
    "proto.messages": ("count", "counts", "proto.messages"),
    "proto.live_session_s": ("s", "round", "live"),
    "lift.int_det_crt_s": ("s", "self_s", "lift.int_det_crt"),
    "lift.encode_s": ("s", "self_s", "lift.encode"),
    "lift.hadamard_bound_s": ("s", "self_s", "lift.hadamard_bound"),
    "lift.poly_det_interp_s": ("s", "self_s", "lift.poly_det_interp"),
    "verdict.verifier_ops": ("count", "round", "verifier_ops"),
}


def _round_total(stats: dict, which: int) -> float:
    t = round_times(stats, which)
    return t["setup"] + t["prove"] + t["verify"]


def measure(name: str, seed: int, seconds: float, smoke: bool, trace: bool) -> dict:
    cases = workloads.BUILDERS[name](seed, smoke)
    reps = workloads.VERIFY_REPS[name]
    ops = Ops()
    rng = gen.seeded(name, seed, "tamper")

    # untimed warm-up on the tiny instances of the same workload
    run_round(workloads.BUILDERS[name](seed, True), Clock(), Ops(), gen.seeded(name, seed, "warm"),
              1, -1, None)

    tracer = Tracer() if trace else None
    plain, layers = [], []
    live = name == "protocol-mix"
    start = time.perf_counter()
    round_no = 0
    while round_no < MIN_ROUNDS or time.perf_counter() - start < seconds:
        if tracer is not None and round_no % 2 == 1:
            tracer.install()
            try:
                stats = run_round(cases, Clock(tracer), ops, rng, 1, round_no,
                                  seed if live else None)
            finally:
                tracer.uninstall()
            layers.append((stats, round_layers(tracer.spans, tracer.counts, round_no)))
        else:
            plain.append(run_round(cases, Clock(), ops, rng, reps, round_no, None))
        round_no += 1

    which = 0 if name in workloads.UNSCALED else 1
    report = {"ops": ops, "e2e": end_to_end(plain, which), "other": end_to_end(plain, 1 - which),
              "scaled": bool(which), "rounds": len(plain)}
    if tracer is not None:
        report["layers"] = per_layer(layers)
        root = sum(lay["root_s"] for _, lay in layers)
        report["coverage"] = sum(lay["covered_s"] for _, lay in layers) / root if root else 0.0
        base = _median([_round_total(r, which) for r in plain])
        traced = _median([_round_total(stats, which) for stats, _ in layers])
        report["overhead"] = traced / base - 1 if base else 0.0
        report["traced_rounds"] = [lay for _, lay in layers]
        report["spans"] = tracer.spans
    return report


def per_layer(layers: list) -> dict:
    out = {}
    for metric, (unit, source, key) in PER_LAYER.items():
        if source == "round":
            values = [stats[key] for stats, _ in layers]
        else:
            values = [lay[source].get(key, 0) for _, lay in layers]
        out[metric] = (_median(values), unit)
    return out

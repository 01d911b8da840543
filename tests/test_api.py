"""Public signatures of the protocol entry points.

Every ``*_certify``/``*_verify`` function and the session runners keep
their parameter names, order, defaults and annotations byte for byte, so
callers that pass arguments by position or by keyword keep working.  The
strings are ``str(inspect.signature(f))``.
"""

import inspect

import pytest

from vlac import certs_dense, certs_sparse, lift, proto

SIGNATURES = {
    "certs_dense.chain_certify": "(claims: 'list[MatMulClaim]', source, s: 'SampleSet | None' = None, timeout: 'float' = 60.0) -> 'Verdict'",
    "certs_dense.chain_verify": "(claims: 'list[MatMulClaim]', transcript, s: 'SampleSet | None' = None) -> 'Verdict'",
    "certs_dense.inverse_certify": "(a: 'DenseMatrix', w: 'DenseMatrix', source, s: 'SampleSet | None' = None, timeout: 'float' = 60.0) -> 'Verdict'",
    "certs_dense.inverse_verify": "(a: 'DenseMatrix', w: 'DenseMatrix', transcript, s: 'SampleSet | None' = None) -> 'Verdict'",
    "certs_dense.matmul_certify": "(a: 'DenseMatrix', b: 'DenseMatrix', c: 'DenseMatrix', source, s: 'SampleSet | None' = None, variant: 'str' = 'geometric', rounds: 'int' = 32, timeout: 'float' = 60.0) -> 'Verdict'",
    "certs_dense.matmul_verify": "(a: 'DenseMatrix', b: 'DenseMatrix', c: 'DenseMatrix', transcript, s: 'SampleSet | None' = None, variant: 'str' = 'geometric', rounds: 'int' = 32) -> 'Verdict'",
    "certs_sparse.det_certify": "(a, source, s: 'Optional[SampleSet]' = None, instance_tag: 'Optional[bytes]' = None, prover_seed: 'Optional[int]' = None, timeout: 'float' = 60.0)",
    "certs_sparse.det_verify": "(a, transcript, s: 'Optional[SampleSet]' = None, instance_tag: 'Optional[bytes]' = None)",
    "certs_sparse.minpoly_certify": "(a, u, v, source, s: 'Optional[SampleSet]' = None, instance_tag: 'Optional[bytes]' = None, timeout: 'float' = 60.0)",
    "certs_sparse.minpoly_verify": "(a, u, v, transcript, s: 'Optional[SampleSet]' = None, instance_tag: 'Optional[bytes]' = None)",
    "certs_sparse.nonsingular_certify": "(a, source, s: 'Optional[SampleSet]' = None, instance_tag: 'Optional[bytes]' = None, timeout: 'float' = 60.0) -> 'Verdict'",
    "certs_sparse.nonsingular_verify": "(a, transcript, s: 'Optional[SampleSet]' = None, instance_tag: 'Optional[bytes]' = None) -> 'Verdict'",
    "certs_sparse.rank_certify": "(a, r: 'int', source, s: 'Optional[SampleSet]' = None, instance_tag: 'Optional[bytes]' = None, timeout: 'float' = 60.0, prover_seed: 'Optional[int]' = None) -> 'Verdict'",
    "certs_sparse.rank_upper_certify": "(a, r: 'int', source, s: 'Optional[SampleSet]' = None, instance_tag: 'Optional[bytes]' = None, timeout: 'float' = 60.0) -> 'Verdict'",
    "certs_sparse.rank_upper_verify": "(a, r: 'int', transcript, s: 'Optional[SampleSet]' = None, instance_tag: 'Optional[bytes]' = None) -> 'Verdict'",
    "certs_sparse.rank_verify": "(a, r: 'int', transcript, s: 'Optional[SampleSet]' = None, instance_tag: 'Optional[bytes]' = None) -> 'Verdict'",
    "lift.intdet_certify": "(m: 'IntMatrix', source, bits: 'int' = 62, prover_seed: 'Optional[int]' = None, timeout: 'float' = 60.0)",
    "lift.intdet_verify": "(m: 'IntMatrix', transcript, bits: 'int' = 62)",
    "lift.polydet_certify": "(m: 'PolyMatrix', source, deg_bound: 'Optional[int]' = None, prover_seed: 'Optional[int]' = None, timeout: 'float' = 60.0)",
    "lift.polydet_verify": "(m: 'PolyMatrix', transcript, deg_bound: 'Optional[int]' = None)",
    "proto.fs_prove": "(protocol_id: 'str', params: 'bytes', digest: 'bytes', prover_fn: 'Callable', source: 'Optional[FiatShamirSource]' = None) -> 'Transcript'",
    "proto.verify_recorded": "(transcript: 'Transcript', protocol_id: 'str', digest: 'bytes', params: 'bytes', verifier_fn: 'Callable')",
    "proto.run_session": "(protocol_id: 'str', params: 'bytes', digest: 'bytes', prover_fn: 'Callable', verifier_fn: 'Callable', source, timeout: 'float' = 60.0)",
}

MODULES = {"certs_dense": certs_dense, "certs_sparse": certs_sparse, "lift": lift, "proto": proto}


def test_every_public_entry_point_is_pinned():
    found = {
        f"{name}.{attr}"
        for name, module in MODULES.items()
        if name != "proto"
        for attr in vars(module)
        if not attr.startswith("_") and attr.endswith(("_certify", "_verify"))
    }
    assert len(found) == 20
    assert found == {key for key in SIGNATURES if not key.startswith("proto.")}


@pytest.mark.parametrize("key", sorted(SIGNATURES))
def test_signature(key):
    module, attr = key.split(".")
    assert str(inspect.signature(getattr(MODULES[module], attr))) == SIGNATURES[key]

"""One-sample key recovery by GGM tree reversal, and the generator learner.

Given a single record ``x || BIN_n(F(key, x)) || BIN_3n(params)`` the key
is recovered exactly: walk the tree backwards, at each level unfolding the
value into the residue group and taking a discrete log in the base the
input bit selected.  Baby-step giant-step plays the exact-dlog oracle, so
exactness holds at bit sizes where sqrt(q) work is feasible;
``learn_from_sample`` refuses samples with n above ``MAX_DLOG_N`` = 40.

Each key builds one ``numtheory.DlogTable`` for base g, dropped when the
key is found, and answers all n levels from it.  Base-g_a logs come from
the same table: with a = log_g(g_a), invertible mod the prime q because
g_a != 1, log_{g_a}(y) = log_g(y) * a^-1 mod q.
"""

from __future__ import annotations

from typing import NamedTuple

from .distributions import GeneratorSpec, SampleOracle, decode_params, gen_spec
from .numtheory import DlogTable, GroupInstance, canonical_exponent, is_qr, validate_instance
from .prf import check_bits

__all__ = [
    "MAX_DLOG_N",
    "InvalidSampleError",
    "LearnedGenerator",
    "learn_key",
    "learn_from_sample",
    "pac_generator_learn",
]

# Largest n whose keys are recovered: at n = 40 (q = 536,765,121,341) a
# DlogTable holds 1,398,101 entries in 88.1 MB by tracemalloc, its build peak.
MAX_DLOG_N = 40


class InvalidSampleError(ValueError):
    """A sample fails the 5n-bit layout or its suffix is not a valid instance."""


class LearnedGenerator(NamedTuple):
    """An exactly recovered generator: instance, key, and executable spec."""

    inst: GroupInstance
    key: int
    spec: GeneratorSpec
    samples_used: int = 1

    def to_json_dict(self) -> dict[str, str]:
        out = self.inst.to_json_dict()
        out["key"] = str(self.key)
        return out


def learn_key(inst: GroupInstance, x: str, fx: int) -> int:
    """Invert F(., x) at the observed output fx; returns the unique key.

    Exactly inverts the forward walk for genuine outputs; corrupted inputs
    surface as range errors.
    ``inst`` is trusted to be validated, so g and g_a generate QR_p.
    """
    check_bits(x, inst.n)
    if not 1 <= fx <= inst.q:
        raise ValueError(f"function value {fx} outside canonical range 1..{inst.q}")
    p, q = inst.p, inst.q
    log_g = DlogTable(p, inst.g).log
    a_inv = pow(log_g(inst.g_a), -1, q)

    def log_g_a(y: int) -> int:
        return canonical_exponent(log_g(y) * a_inv, q)

    b = fx
    for ch in reversed(x):
        # q is odd, so exactly one of b and p - b is a residue.
        y = b if is_qr(p, b) else p - b
        b = log_g(y) if ch == "0" else log_g_a(y)
    return b


def learn_from_sample(sample: str) -> LearnedGenerator:
    """Parse one 5n-bit sample and recover the exact generator behind it."""
    try:
        check_bits(sample)
    except ValueError as exc:
        raise InvalidSampleError(str(exc)) from exc
    if len(sample) % 5 != 0 or len(sample) < 15:
        raise InvalidSampleError(
            f"malformed length {len(sample)}: samples are 5n bits with n >= 3"
        )
    n = len(sample) // 5
    if n > MAX_DLOG_N:
        raise ValueError(f"n = {n} beyond the dlog feasibility cap {MAX_DLOG_N}")
    x = sample[:n]
    value_bits = sample[n : 2 * n]
    p, g, g_a = decode_params(sample[2 * n :])
    try:
        inst = validate_instance(p, g, g_a, n=n)
    except ValueError as exc:
        raise InvalidSampleError(f"sample suffix is not a valid instance: {exc}") from exc
    fx = int(value_bits, 2)
    if not 1 <= fx <= inst.q:
        raise InvalidSampleError(f"encoded value {fx} outside canonical range 1..{inst.q}")
    key = learn_key(inst, x, fx)
    return LearnedGenerator(inst=inst, key=key, spec=gen_spec(inst, key))


def pac_generator_learn(oracle: SampleOracle) -> LearnedGenerator:
    """Learn the exact generator behind a SAMPLE handle from one draw.

    The returned generator is exact (zero divergence to the target) from
    one sample, whatever accuracy epsilon and confidence delta a PAC
    learner would be asked for, so it takes neither.  Sample complexity is
    recorded on the result and is always 1.
    """
    before = oracle.count
    sample = oracle.sample()
    learned = learn_from_sample(sample)
    return learned._replace(samples_used=oracle.count - before)

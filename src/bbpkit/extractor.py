"""Position-addressable digit extraction.

Hex digits of a formula value starting at an arbitrary bit position after the
binary point, without computing the preceding digits.  The digits are read
modulo one from ``pformula._scaled_sum`` at the bit position: the one
certified series sum, which ``evaluate`` takes at position 0, with each group
of terms floored once at the working resolution.  Everything is done in bits
internally; hex is only the presentation layer.

Partial sums of disjoint block ranges add modulo one, so a deep request
splits its blocks into up to ``SHARDS`` contiguous ranges of equal length:
the calling process sums the first and one forked child each of the others.
A request stays in one process when ``os.fork`` is missing, when another
thread is alive, or when a range would hold fewer than ``SHARD_MIN_TERMS``
nonzero terms.  A child that fails or writes malformed output has its range
summed again by the caller, so the digits never depend on a child; each
range opens its own groups, and the certificate charges every group.
"""
from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .pformula import FormulaError, PFormula, _blocks, _scaled_sum, evaluate

__all__ = [
    "ExtractRequest",
    "ExtractResult",
    "ExtractionError",
    "ConfidenceError",
    "extract",
    "digit_window",
    "MAX_BIT_POS",
    "MAX_HEX_DIGITS",
    "MAX_GUARD_HEX",
]

# Request limits: ExtractRequest refuses a deeper position or a wider window.
MAX_BIT_POS = 10**8
MAX_HEX_DIGITS = 1024
MAX_GUARD_HEX = 64

SIGN_PROBE_BITS = 64
# processes a deep request is split across, and the fewest nonzero terms each
# one sums: about 16 to 35 ms of head loop, against some 2 ms to fork and reap
SHARDS = min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1, 4)
SHARD_MIN_TERMS = 1 << 14


class ExtractionError(ValueError):
    pass


class ConfidenceError(ExtractionError):
    """Result too close to a carry boundary; retry with a larger guard."""


@dataclass(frozen=True, slots=True)
class ExtractRequest:
    formula: PFormula
    bit_pos: int
    hex_digits: int
    guard_hex: int = 8

    def __post_init__(self) -> None:
        if not 0 <= self.bit_pos <= MAX_BIT_POS:
            raise ExtractionError(f"bit position must be in [0, {MAX_BIT_POS}]")
        if not 1 <= self.hex_digits <= MAX_HEX_DIGITS:
            raise ExtractionError(f"hex digit count must be in [1, {MAX_HEX_DIGITS}]")
        if not 1 <= self.guard_hex <= MAX_GUARD_HEX:
            raise ExtractionError(f"guard must be in [1, {MAX_GUARD_HEX}] hex digits")


@dataclass(frozen=True, slots=True)
class ExtractResult:
    digits: str
    confidence_bits: int


def to_extractable(p: PFormula) -> PFormula:
    """The formula itself, after refusing sqrt(3)-carrying ones; ``extract``
    takes every other prefactor directly."""
    if p.root3:
        raise ExtractionError("sqrt(3)-carrying formulas are evaluate-only")
    return p


def extract(req: ExtractRequest) -> ExtractResult:
    """Hex digits of frac(2^bit_pos * |value|), with a carry-distance certificate.

    The digits always describe the magnitude; the sign of the value is
    certified by evaluation.  Each group of terms is floored once and charges
    one ulp to the error budget, plus two for the dropped tail and the sign
    flip.  Raises FormulaError when ``pformula._blocks`` refuses the sum
    (before it starts) or a sign probe, and ConfidenceError when the
    accumulator lands within that budget of a carry boundary, or when the
    sign stays unresolved at bit_pos + 4*(hex_digits + guard_hex) + 64 bits;
    the sign is never guessed.
    """
    p = to_extractable(req.formula)
    if p.is_zero():
        return ExtractResult("0" * req.hex_digits, 4 * req.guard_hex)
    work = 4 * (req.hex_digits + req.guard_hex)
    mask = (1 << work) - 1
    blocks, terms = _blocks(p, req.bit_pos, work)
    acc, groups = _split(partial(_scaled_sum, p, req.bit_pos, work), blocks, terms, mask)
    err = groups + 2  # the dropped tail and the sign flip

    tail_bits = 4 * req.guard_hex
    low = acc & ((1 << tail_bits) - 1)
    margin = min(low, (1 << tail_bits) - low) - err  # negation keeps the distance
    if margin <= 0:
        raise ConfidenceError(
            f"accumulator within {err} ulps of a carry boundary; "
            f"retry with guard_hex > {req.guard_hex}"
        )
    # a certified margin puts |2^pos * value| at least one ulp from zero, so
    # doubling the probe precision up to that ulp plus 64 bits finds the sign
    limit = req.bit_pos + work + SIGN_PROBE_BITS
    bits = SIGN_PROBE_BITS
    sign = evaluate(p, bits).certified_sign()
    while sign == 0 and bits < limit:
        bits = min(2 * bits, limit)
        sign = evaluate(p, bits).certified_sign()
    if sign == 0:
        raise ConfidenceError("sign of the value unresolved; it is too small to extract")
    if sign < 0:
        acc = -acc & mask
    digits = f"{acc >> tail_bits:0{req.hex_digits}X}"
    return ExtractResult(digits, margin.bit_length())


Head = Callable[[int, int], tuple[int, int]]


def _split(head: Head, blocks: int, terms: int, mask: int) -> tuple[int, int]:
    """head(0, blocks) masked to 2^work, summed over contiguous block ranges:
    the first here, each other one in a forked child, whose range is summed
    here instead when it fails.  Every child is reaped, and killed first if
    this process raises."""
    shards = min(SHARDS, terms // SHARD_MIN_TERMS)
    if shards < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        acc, groups = head(0, blocks)
        return acc & mask, groups
    cuts = [blocks * i // shards for i in range(shards + 1)]
    children = []
    try:
        for start, stop in zip(cuts[1:-1], cuts[2:]):
            children.append((_fork(head, start, stop, mask), start, stop))
        acc, groups = head(0, cuts[1])
        while children:
            child, start, stop = children.pop()
            part = child and _result(*child, mask)
            part_acc, part_groups = part or head(start, stop)
            acc, groups = (acc + part_acc) & mask, groups + part_groups
    finally:
        if children:
            from signal import SIGKILL  # on the error path only: signal costs ~1 ms to import
        for child, _, _ in children:
            if child:
                os.kill(child[0], SIGKILL)
                _result(*child, mask)
    return acc, groups


def _fork(head: Head, start: int, stop: int, mask: int) -> tuple[int, int] | None:
    """(pid, read end of its pipe) of a child that writes head(start, stop),
    masked, in hex and exits; None when the pipe or the fork fails."""
    try:
        r, w = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(r)
            acc, groups = head(start, stop)
            with open(w, "wb") as out:
                out.write(b"%x %x" % (acc & mask, groups))
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, r


def _result(pid: int, fd: int, mask: int) -> tuple[int, int] | None:
    """Reap a child: the (acc, groups) it wrote, or None when it failed or
    wrote anything else."""
    try:
        with open(fd, "rb") as src:
            data = src.read()
    finally:
        status = os.waitpid(pid, 0)[1]
    try:
        acc, groups = (int(x, 16) for x in data.split())
    except ValueError:
        return None
    if os.waitstatus_to_exitcode(status) or not 0 <= acc <= mask or groups < 0:
        return None
    return acc, groups


def digit_window(formula: PFormula, bit_pos: int, count: int, prec_bits: int) -> str:
    """Evaluator-backed oracle: hex digits of frac(2^bit_pos * |value|) in
    [bit_pos, bit_pos+4*count).

    Requires prec_bits >= bit_pos + 4*count + 64 so the window is meaningful.
    """
    if prec_bits < bit_pos + 4 * count + 64:
        raise FormulaError("insufficient precision for the requested window")
    value = evaluate(formula, prec_bits)
    # the GUARD_BITS evaluation guard must dominate the certified error by a wide margin
    slack = value.frac_bits - (bit_pos + 4 * count)
    if value.err_ulp >> max(slack - 8, 0):
        raise FormulaError("evaluation error too large for the requested window")
    window = (abs(value.mantissa) >> slack) & ((1 << (4 * count)) - 1)
    return f"{window:0{count}X}"

"""Position-addressable digit extraction.

Hex digits of a formula value starting at an arbitrary bit position after the
binary point, without computing the preceding digits.  Everything is done in
bits internally; hex is only the presentation layer.  One of two readers of
the one certified series sum, ``pformula._scaled_sum``, reads the window,
and reads it once more with more guard digits when it lands near a carry.

A request whose widest window, its retry included, ends below
``SHALLOW_BITS`` reads the value ``evaluate`` caches, the sum at position 0,
asked at a precision rounded up to ``PREC_QUANTUM`` bits so that the next
windows in the same band hit the same entry.  Up to ``POW_MIN_EXP`` both sums
divide the same groups at the same width, and below twice that bit ``pow``
saves the position sum little, so a cold read costs about the same; its
evaluations stay below 2^13 bits, which ``_blocks`` charges width factor 1
like every extraction.  A request whose cached evaluation ``_blocks`` would
refuse takes the position sum, which needs fewer blocks.

Deeper requests read the sum modulo one at the bit position, with each group
of terms floored once at the working resolution.  Partial sums of disjoint
block ranges add modulo one, so a deep request splits its blocks into up to
``SHARDS`` contiguous ranges of equal length: the calling process sums the
first and one forked child each of the others.  A request stays in one
process when ``os.fork`` is missing, when another thread is alive, or when a
range would hold fewer than ``SHARD_MIN_TERMS`` nonzero terms.  A child that
fails or writes malformed output has its range summed again by the caller,
so the digits never depend on a child; each range opens its own groups, and
the certificate charges every group.
"""
from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .bigmath import GUARD_BITS
from .pformula import POW_MIN_EXP, FormulaError, PFormula, _blocks, _scaled_sum, evaluate

__all__ = [
    "ExtractRequest",
    "ExtractResult",
    "ExtractionError",
    "ConfidenceError",
    "extract",
    "digit_window",
    "MAX_BIT_POS",
    "MAX_HEX_DIGITS",
]

# Request limits: ExtractRequest refuses a deeper position or a wider window.
MAX_BIT_POS = 10**8
MAX_HEX_DIGITS = 1024

GUARD_HEX = 8  # hex digits summed past the window
RETRY_GUARD_HEX = 64  # the same, for the one retry of a sum near a carry boundary
SIGN_PROBE_BITS = 64
SHALLOW_BITS = 2 * POW_MIN_EXP  # a window ending below this bit is read off the cached evaluate
PREC_QUANTUM = 256  # the cached reader asks evaluate for a multiple of this many bits
# processes a deep request is split across, and the fewest nonzero terms each
# one sums: about 16 to 35 ms of head loop, against some 2 ms to fork and reap
SHARDS = min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1, 4)
SHARD_MIN_TERMS = 1 << 14


class ExtractionError(ValueError):
    pass


class ConfidenceError(ExtractionError):
    """Result too close to a carry boundary at both guard widths, or unsigned."""


@dataclass(frozen=True, slots=True)
class ExtractRequest:
    formula: PFormula
    bit_pos: int
    hex_digits: int

    def __post_init__(self) -> None:
        if not 0 <= self.bit_pos <= MAX_BIT_POS:
            raise ExtractionError(f"bit position must be in [0, {MAX_BIT_POS}]")
        if not 1 <= self.hex_digits <= MAX_HEX_DIGITS:
            raise ExtractionError(f"hex digit count must be in [1, {MAX_HEX_DIGITS}]")


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

    The digits always describe the magnitude.  ``work`` bits are read past
    bit_pos, ``GUARD_HEX`` guard digits beyond the window, by one reader
    chosen once per request (see the module docstring):

    - shallow: ``evaluate`` at bit_pos + work, asked of its cache at that
      rounded up to ``PREC_QUANTUM``; its ``err_ulp`` is the budget, and a
      certified margin puts |mantissa| above it, which certifies the sign.
    - deep: the position sum, each group floored once and charged one ulp,
      plus two for the dropped tail and the sign flip; the sign is certified
      by evaluation, a 64-bit probe doubled up to bit_pos + work + 64 bits.

    A reading within its budget of a carry boundary is read again at
    ``RETRY_GUARD_HEX``, and the width that certifies sets
    ``confidence_bits``.  Raises FormulaError when ``pformula._blocks``
    refuses a sum (before it starts) or a sign probe, and ConfidenceError
    when both widths land near a boundary, or when the sign stays
    unresolved; the sign is never guessed.
    """
    p = to_extractable(req.formula)
    if p.is_zero():
        return ExtractResult("0" * req.hex_digits, 4 * GUARD_HEX)
    cached = _reads_cache(p, req.bit_pos + 4 * (req.hex_digits + RETRY_GUARD_HEX))
    for guard in (GUARD_HEX, RETRY_GUARD_HEX):
        work = 4 * (req.hex_digits + guard)
        mask = (1 << work) - 1
        if cached:
            frac = req.bit_pos + work
            value = evaluate(p, _quantized(frac) - GUARD_BITS).rescale(frac)
            acc, err = value.mantissa & mask, value.err_ulp
        else:
            blocks, terms = _blocks(p, req.bit_pos, work)
            acc, groups = _split(partial(_scaled_sum, p, req.bit_pos, work), blocks, terms, mask)
            err = groups + 2  # the dropped tail and the sign flip
        tail_bits = 4 * guard
        low = acc & ((1 << tail_bits) - 1)
        margin = min(low, (1 << tail_bits) - low) - err  # negation keeps the distance
        if margin > 0:
            break
    else:
        raise ConfidenceError(f"accumulator within {err} ulps of a carry boundary at {guard} guard digits")
    # a certified margin puts |2^pos * value| at least one ulp from zero, so the
    # cached mantissa's sign is certified, and doubling the probe precision up
    # to that ulp plus 64 bits finds the sign
    limit = req.bit_pos + work + SIGN_PROBE_BITS
    bits = SIGN_PROBE_BITS
    sign = value.certified_sign() if cached else evaluate(p, bits).certified_sign()
    while sign == 0 and bits < limit:
        bits = min(2 * bits, limit)
        sign = evaluate(p, bits).certified_sign()
    if sign == 0:
        raise ConfidenceError("sign of the value unresolved; it is too small to extract")
    if sign < 0:
        acc = -acc & mask
    digits = f"{acc >> tail_bits:0{req.hex_digits}X}"
    return ExtractResult(digits, margin.bit_length())


def _quantized(bits: int) -> int:
    """bits rounded up to a multiple of PREC_QUANTUM."""
    return -(-bits // PREC_QUANTUM) * PREC_QUANTUM


def _reads_cache(p: PFormula, widest: int) -> bool:
    """Whether a request whose widest window ends at bit ``widest`` is read
    off the cached evaluate: below SHALLOW_BITS, and when ``_blocks`` admits
    the evaluation at its widest."""
    if widest >= SHALLOW_BITS:
        return False
    try:
        _blocks(p, 0, _quantized(widest))
    except FormulaError:
        return False
    return True


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

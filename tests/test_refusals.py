"""Library refusals that no `bbp` command reaches: each raises its own error
before any work, with a message that names the fault."""
import pytest

from bbpkit.bigmath import FixReal, fix_sqrt_int
from bbpkit.catalog import CatalogError, LinearExpr
from bbpkit.generator import LiPoint, PointError
from bbpkit.reference import ConstMonomial, bernoulli, constant
from bbpkit.relations import PrecisionExhausted, pslq


@pytest.mark.parametrize("call, error, message", [
    (lambda: LiPoint(2, 1, 1, 4, "abs"), PointError, "part must be 're' or 'im', not 'abs'"),
    (lambda: ConstMonomial(-1), ValueError, "powers must be non-negative"),
    (lambda: bernoulli(-1), ValueError, "index must be non-negative"),
    (lambda: constant("nope", 64), ValueError, "unknown constant 'nope'"),
    (lambda: fix_sqrt_int(-1, 8), ValueError, "negative operand"),
    (lambda: LinearExpr(()), CatalogError, "linear expression must have at least one term"),
    # the first value's square swamps the second's at 64 bits: the last partial sum is 0
    (lambda: pslq([FixReal(1 << 300, 64), FixReal(1, 64)], 10, 64), PrecisionExhausted,
     "degenerate partial sums"),
], ids=["point-part", "monomial-power", "bernoulli-index", "constant-name", "sqrt-operand",
        "empty-expr", "pslq-degenerate"])
def test_refusal_names_the_fault(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message

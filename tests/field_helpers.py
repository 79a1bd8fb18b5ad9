"""Scalar field operations only the tests use: division, powers, polynomial evaluation.

Each checks its operands as the Field operations do, and raises what they raise.
"""


def div(f, a: int, b: int) -> int:
    return f.mul(a, f.inv(b))


def pow_(f, a: int, e: int) -> int:
    """a**e by square and multiply; e must be an int >= 0."""
    if type(e) is not int or e < 0:
        raise ValueError(f"exponent {e!r} is not an int >= 0; invert explicitly")
    _, _, mul = f.unchecked_ops()
    result = 1
    base = f.check(a)
    while e:
        if e & 1:
            result = mul(result, base)
        base = mul(base, base)
        e >>= 1
    return result


def poly_eval(f, coeffs: list[int], x: int) -> int:
    """Evaluate sum(coeffs[j] * x^j) by Horner's rule."""
    if not coeffs:
        raise ValueError("empty coefficient vector")
    f.check(x)
    add, _, mul = f.unchecked_ops()
    acc = 0
    for c in reversed(coeffs):
        acc = add(mul(acc, x), f.check(c))
    return acc

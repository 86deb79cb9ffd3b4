"""Reference cocycle-identity check over every pair.

The library tests the value at sigma^0 for 1 and then multiplies only the
pairs (sigma^j, sigma^k) with j, k >= 1.  This is the rule it used before:
the identity evaluated at all order^2 pairs, sigma^0 included.  It shares
no code with the reduced check, so the tests compare the two.
"""

from splitinv.errors import ADataError


def verify_cocycle_identity_all_pairs(values, order, act) -> None:
    """Check values[j + k] = values[j] * act(j, values[k]) for every j, k
    mod order, in order; a failure names the first failing pair."""
    for j in range(order):
        for k in range(order):
            lhs = values[(j + k) % order]
            rhs = values[j] * act(j, values[k])
            if lhs != rhs:
                raise ADataError(
                    f"cocycle identity fails at (sigma^{j}, sigma^{k}): {lhs} != {rhs}")

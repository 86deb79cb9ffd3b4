"""a-data, Galois descent data, splitting cocycles at the torus level, and
the comparison theorems relating the fixed-subgroup route to the twisted
route.

The cocycle sigma -> x(sigma_T) n(omega_T(sigma)) lives in the normalizer
model ("m-level"); conjugating by a suitable group element h produces the
torus-valued cocycle ("t-level") whose class is the splitting invariant.
Without a matrix realization the m-level object is returned, marked as such;
with one, the torus values are computed and verified as honest matrices.

a-data holds one value per root, or restricted root, in their order, so
every move of a root is an index table.  Generic equivariant a-data comes
from one walk of the root classes, named by symbols or specialized over
Q(sqrt d); both refuse a theta that omega_T does not commute with.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .coeffs import IdentityAction, QuadConj, QuadField, SignedSymbolMap, SymUnit, _is_int
from .errors import (ADataError, CoefficientError, DescentError, RealizationError,
                     RootDatumError)
from .matoracle import (MatrixContext, exp_nilpotent, fixed_group_lift,
                        mat_det, mat_det_inv, mat_eq, mat_identity, mat_inv, mat_mul,
                        mat_prod, mat_scalar, pinned_factor, realize,
                        restricted_root_vectors, sl2_embed)
from .rootdata import (PinnedAutomorphism, RestrictedRootSystem,
                       RootAutomorphism, RootDatum, WeylElement, R3)
from .tits import (TitsElement, TorusElement, m_cocycle, tits_lift,
                   verify_cocycle_identity, x_of)


# ---------------------------------------------------------------------------
# a-data
# ---------------------------------------------------------------------------

class ADatum:
    """Invertible coefficients on the roots of a RootDatum, or on the restricted
    roots of a RestrictedRootSystem, as the tuple ``values`` in the order of
    ``datum.roots`` or of ``rrs.restricted``, so that every move of a root is
    an index table.  The constructor takes a dict keyed by coordinates and
    checks that the keys are those roots, each value nonzero, and that
    a_{-alpha} = -a_alpha; the library's builders pass a tuple in key order
    to ``_of``, which checks the last.  Equivariance, theta-invariance and
    specialness are checked by the entry points that need them."""

    def __init__(self, values: Dict[tuple, object], one, half, system):
        if not isinstance(system, (RootDatum, RestrictedRootSystem)):
            raise ADataError(f"system must be a RootDatum or a RestrictedRootSystem, "
                             f"not {type(system).__name__}")
        restricted = isinstance(system, RestrictedRootSystem)
        (keys, position, negation), values = _keys(system), _as_dict(values)
        for coords in values:
            if coords not in position:
                raise ADataError(f"a-datum at {coords}, which is not a "
                                 f"{'restricted ' if restricted else ''}root")
        for coords, v in values.items():
            minus = keys[negation[position[coords]]].coords
            if minus not in values:
                raise ADataError(f"a-data not defined at {minus}")
            if values[minus] != _negated(v, coords):
                raise ADataError(f"a(-alpha) != -a(alpha) at {coords}")
        for r in keys:
            if r.coords not in values:
                raise ADataError(f"a-data not defined at {r.coords}")
        self.values = tuple(values[r.coords] for r in keys)
        self.one, self.half, self.system, self.restricted = one, half, system, restricted

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def _of(values: tuple, one, half, system) -> "ADatum":
        """a-data from its values in key order; the negation rule is checked."""
        keys, _, negation = _keys(system)
        for r, v, w in zip(keys, values, map(values.__getitem__, negation)):
            if w != -v:
                raise ADataError(f"a(-alpha) != -a(alpha) at {r.coords}")
        out = object.__new__(ADatum)
        out.values, out.one, out.half, out.system = values, one, half, system
        out.restricted = isinstance(system, RestrictedRootSystem)
        return out

    @staticmethod
    def from_positive(system, pos_values: Dict[tuple, object], one, half) -> "ADatum":
        """a-data from its values on the positive roots of a RootDatum, or on
        the positive restricted roots of a RestrictedRootSystem, given on each
        of them and on nothing else."""
        what = "restricted root" if isinstance(system, RestrictedRootSystem) else "root"
        (keys, position, negation), pos_values = _keys(system), _as_dict(pos_values)
        values = [None] * len(keys)
        for j, r in enumerate(keys):
            if r.positive:
                if r.coords not in pos_values:
                    raise ADataError(f"missing a-datum at {what} {r.coords}")
                values[j] = pos_values[r.coords]
                values[negation[j]] = _negated(values[j], r.coords)
        for key in pos_values:
            j = position.get(key)
            if j is None or not keys[j].positive:
                raise ADataError(f"a-datum given at {key}, which is not a positive {what}")
        return ADatum._of(tuple(values), one, half, system)

    restricted_from_positive = from_positive

    # -- access -----------------------------------------------------------------

    def __getitem__(self, key: tuple):
        try:
            return self.values[_keys(self.system)[1][tuple(key)]]
        except KeyError:
            raise ADataError(f"no a-datum at {tuple(key)}") from None

    def __contains__(self, key: tuple) -> bool:
        return tuple(key) in _keys(self.system)[1]

    # -- validation ---------------------------------------------------------------

    def validate_twisted(self, theta: PinnedAutomorphism) -> None:
        if self.restricted:
            return  # restricted data is constant on fibers by construction
        values, fwd = self.values, theta.root_perm
        for r, v, w in zip(self.system.roots, values, map(values.__getitem__, fwd)):
            if w != v:
                raise ADataError(f"a-data not theta-invariant at {r.coords}")

    def validate_equivariant(self, descent) -> None:
        datum = self.system.datum if self.restricted else self.system
        if datum.cartan != descent.datum.cartan:
            raise ADataError("a-data and descent datum are on different root data")
        what = "restricted a-data" if self.restricted else "a-data"
        keys, values = _keys(self.system)[0], self.values
        for k in range(1, descent.order):      # sigma^0 is the identity
            act = descent.restricted_action(k, self.system) if self.restricted \
                else descent.root_action(k).perm
            for r, v, w in zip(keys, values, map(values.__getitem__, act)):
                if w != descent.field_apply(k, v):
                    raise ADataError(f"{what} not Galois-equivariant at {r.coords}, sigma^{k}")

    def is_special(self) -> bool:
        if not self.restricted:
            raise ADataError("specialness is a condition on restricted a-data")
        values = self.values
        return all(values[j] == v for v, j in zip(values, self.system._res_double))

    # -- derived data ---------------------------------------------------------------

    def tilde(self) -> "ADatum":
        """Halve the values on divisible restricted roots; the result is
        non-special whenever divisible restricted roots exist."""
        if not self.restricted:
            raise ADataError("the halved variant is built from restricted a-data")
        if not self.is_special():
            raise ADataError("a-data is not special: a(2*beta) != a(beta) somewhere")
        return ADatum._of(tuple(a * self.half if rr.rtype == R3 else a for a, rr
                                in zip(self.values, self.system._res_roots)),
                          self.one, self.half, self.system)

    def pullback(self) -> "ADatum":
        """View restricted a-data as automorphism-invariant a-data on the
        full root system through the restriction map."""
        if not self.restricted:
            raise ADataError("pullback starts from restricted a-data")
        return ADatum._of(tuple(map(self.values.__getitem__, self.system._res_of)),
                          self.one, self.half, self.system.datum)

    def translate(self, mu: WeylElement) -> "ADatum":
        """a'(alpha) = a(mu(alpha)); the transport of the same abstract a-data
        through a normalizer-adjusted conjugator."""
        if self.restricted:
            raise ADataError("translation acts on full a-data")
        return ADatum._of(tuple(map(self.values.__getitem__, mu.perm)),
                          self.one, self.half, self.system)


def _keys(system):
    """The keys of system's a-data in order, with ``coords`` and ``positive``;
    the index of each key by its coordinates; the index of its negative."""
    if isinstance(system, RestrictedRootSystem):
        return system._res_roots, system._res_position, system._res_negation
    return system.roots, system.root_index, system._negation


def _as_dict(values) -> dict:
    try:
        return dict(values)
    except (TypeError, ValueError):
        raise ADataError(f"values must map root coordinates to a-values, "
                         f"not {type(values).__name__}") from None


def _negated(v, coords):
    """-v, for an a-value v at coords: an invertible coefficient."""
    try:
        if v:
            return -v
    except TypeError:
        pass
    raise ADataError(f"a-datum at {coords} is {v!r}, not an invertible coefficient")


def _key_moves(system, descent, theta, special: bool):
    """The a-data keys of system by coordinates; the moves linking them as
    (index table, sign): negation, -1, and theta on full or doubling on
    special restricted data, +1; and the Galois generator's permutation of
    them.  A theta that omega_T does not commute with is refused."""
    keys, _, negation = _keys(system)
    if theta is not None and not theta.is_identity:
        descent.validate_theta_compatible(theta)
    if isinstance(system, RestrictedRootSystem):
        same, sigma = [system._res_double] * special, descent.restricted_action(1, system)
    else:
        same, sigma = [] if theta is None else [theta.root_perm], descent.root_action(1).perm
    return (sorted(range(len(keys)), key=lambda j: keys[j].coords),
            [(negation, -1)] + [(table, 1) for table in same], sigma)


def _adata_classes(order: Sequence[int], moves, sigma: Sequence[int]):
    """The classes of a-data keys under the moves, numbered in order of
    their least key in ``order``, the start.  Returns each key's (class,
    sign against its start), by key index, and the (class, sign) of sigma's
    image of each start."""
    of, starts = [None] * len(order), []
    for start in order:
        if of[start] is not None:
            continue
        of[start], frontier = (len(starts), 1), [start]
        starts.append(start)
        while frontier:
            v = frontier.pop()
            c, s = of[v]
            for table, sign in moves:
                w = table[v]
                if of[w] is None:
                    of[w] = (c, s * sign)
                    frontier.append(w)
    return of, [of[sigma[s]] for s in starts]


def _symbolic_adata(datum, descent, theta):
    """Symbolic a-data, one symbol a1, a2, ... per root class in the order of
    its start, and the coefficient action the Galois generator induces."""
    classes, images = _adata_classes(*_key_moves(datum, descent, theta, False))
    names = [f"a{c + 1}" for c in range(len(images))]
    action = SignedSymbolMap({names[c]: (s, names[img]) for c, (img, s) in enumerate(images)}) \
        if descent.order > 1 else IdentityAction()
    units = {(c, s): SymUnit.gen(names[c], 1, s) for c in range(len(names)) for s in (1, -1)}
    return ADatum._of(tuple(map(units.__getitem__, classes)), SymUnit.one(), SymUnit.half(),
                      datum), action


# ---------------------------------------------------------------------------
# descent data
# ---------------------------------------------------------------------------

_ALLOWED_ORDERS = (1, 2, 3, 4, 6)


class DescentDatum:
    """Finite cyclic Galois action: the generator acts on the pinned torus by
    a Weyl twist, a diagram automorphism, and a coefficient automorphism.

    The constructor validates: a DescentDatum that exists is a homomorphism
    from Z/order, so its consumers do not check it again.  An argument of
    the wrong kind is refused by name: order an int (not a bool), omega_T a
    Weyl element and sigma_T a pinned automorphism of datum, field_action a
    coefficient action.
    """

    def __init__(self, datum: RootDatum, order: int, omega_T: WeylElement,
                 sigma_T: Optional[PinnedAutomorphism] = None, field_action=None):
        if not _is_int(order):
            raise DescentError(f"group order {order!r} is not an int")
        if order not in _ALLOWED_ORDERS:
            raise DescentError(f"group order {order} not in {_ALLOWED_ORDERS}")
        if not isinstance(datum, RootDatum):
            raise DescentError(f"datum {datum!r} is not a RootDatum")
        if not (isinstance(omega_T, WeylElement) and omega_T.datum is datum):
            raise DescentError(f"omega_T {omega_T!r} is not a Weyl element of the datum")
        if sigma_T is not None and not (isinstance(sigma_T, PinnedAutomorphism)
                                        and sigma_T.datum is datum):
            raise DescentError(f"sigma_T {sigma_T!r} is not a pinned automorphism of the datum")
        self.datum = datum
        self.order = order
        self.omega_T = omega_T
        self.sigma_T = sigma_T if sigma_T is not None else PinnedAutomorphism.identity(datum)
        self._powers = self._compute_powers()
        self.validate()
        self._set_field_action(field_action)

    def _set_field_action(self, field_action) -> None:
        """The coefficient action of the generator, once its order is found
        to divide the group order, and its powers 0 .. order - 1, each one
        map: only a SignedSymbolMap has order above 2."""
        action = field_action if field_action is not None else IdentityAction()
        if not isinstance(action, (IdentityAction, QuadConj, SignedSymbolMap)):
            raise DescentError(f"field_action {field_action!r} is not a coefficient action "
                               "(IdentityAction, QuadConj or SignedSymbolMap)")
        fo = action.order
        if self.order % fo:
            raise DescentError("coefficient action order does not divide the group order")
        self._field_action = action
        self._field_powers = [IdentityAction(), action][:fo] + \
            [action.power(k) for k in range(2, fo)]

    @property
    def field_action(self):
        """The generator's coefficient action, set by the constructor or
        ``with_field_action`` only, so that its powers stay in step."""
        return self._field_action

    def with_field_action(self, field_action) -> "DescentDatum":
        """This descent datum with the coefficient action field_action,
        validated; the powers of the root action are shared, not rebuilt."""
        out = copy.copy(self)
        out._set_field_action(field_action)
        return out

    def _compute_powers(self) -> List[RootAutomorphism]:
        """sigma^0 .. sigma^order, each with its permutation of the roots;
        the last one closes the cycle and is what ``validate`` checks.
        sigma^0 is the identity and sigma^1 the generator (w, g) itself."""
        w, g = self.omega_T, self.sigma_T
        powers = [RootAutomorphism(self.datum.identity_weyl()), RootAutomorphism(w, g)]
        for _ in range(self.order - 1):
            # (w, g) * (cur_w, cur_g) = (w * g(cur_w), g cur_g)
            cur = powers[-1]
            powers.append(RootAutomorphism(w * g.act_weyl(cur.weyl), g.compose(cur.diagram)))
        return powers

    def validate(self) -> None:
        final = self._powers[self.order]
        if not final.weyl.is_identity or not final.diagram.is_identity:
            raise DescentError("sigma_T is not a homomorphism: generator has wrong order")

    def validate_theta_compatible(self, theta: PinnedAutomorphism) -> None:
        if not theta.commutes_with(self.omega_T):
            raise DescentError("omega_T(sigma) does not commute with theta")
        t, g = theta.perm, self.sigma_T.perm
        if any(t[g[i]] != g[t[i]] for i in range(len(t))):
            raise DescentError("sigma_T diagram action does not commute with theta")

    # -- actions -------------------------------------------------------------------

    def root_action(self, k: int) -> RootAutomorphism:
        return self._powers[k % self.order]

    def field_apply(self, k: int, value):
        """sigma^k on a coefficient: one power of the coefficient action."""
        return self._field_powers[k % len(self._field_powers)](value)

    def galois_on_torus_pinned(self, k: int, t: TorusElement) -> TorusElement:
        """The plain Galois action on the pinned torus (diagram + coefficients)."""
        g = self.root_action(k).diagram
        return t.map_coords(lambda v: self.field_apply(k, v)).diagram_apply(g)

    def galois_on_tits(self, k: int, x: TitsElement) -> TitsElement:
        if not k % self.order:
            return x
        g = self.root_action(k).diagram
        return TitsElement(self.galois_on_torus_pinned(k, x.torus), g.act_weyl(x.weyl))

    def galois_on_torus_twisted(self, k: int, t: TorusElement) -> TorusElement:
        """The transported action on the ambient torus coordinates."""
        return self.galois_on_torus_pinned(k, t).weyl_apply(self.root_action(k).weyl)

    def restricted_action(self, k: int, rrs: RestrictedRootSystem) -> Tuple[int, ...]:
        """sigma^k on the restricted roots as a permutation of their indices,
        read off the image of each fiber: sigma^k acts there only when it maps
        each fiber into one; else DescentError."""
        k %= self.order
        res, perm = rrs._res_of, self._powers[k].perm
        out = [0] * len(rrs._res_roots)
        for j, i in enumerate(res):
            out[i] = res[perm[j]]
        bad = [i for j, i in enumerate(res) if res[perm[j]] != out[i]]
        if bad:
            keys, b = rrs._res_roots, min(bad)
            images = {keys[res[perm[j]]].coords for j, i in enumerate(res) if i == b}
            raise DescentError(f"sigma^{k} does not act on the restricted roots: the "
                               f"fiber of {keys[b].coords} restricts to {sorted(images)}")
        return tuple(out)

    def __repr__(self):
        return (f"DescentDatum(Z/{self.order}, omega={self.omega_T!r}, "
                f"diagram={self.sigma_T!r})")


# ---------------------------------------------------------------------------
# splitting cocycles
# ---------------------------------------------------------------------------

@dataclass
class SplittingCocycle:
    """1-cocycle attached to (torus, a-data): torus-valued when a matrix
    realization provides the conjugating element, normalizer-valued (m-level)
    otherwise."""

    values: Dict[int, object]       # k -> TorusElement (t) or TitsElement (m)
    descent: DescentDatum
    datum: RootDatum
    theta: Optional[PinnedAutomorphism] = None
    matrices: Optional[Dict[int, tuple]] = None   # honest in-T matrices

    @property
    def level(self) -> str:
        return "m" if self.matrices is None else "t"

    @property
    def ambient(self) -> str:
        return "T" if self.theta is None else "T^theta"

    def verify(self) -> None:
        """Checks a t-level cocycle; m_cocycle checks m-level values as it builds them.
        The cocycle identity tests the value at sigma^0 for 1 and multiplies
        the pairs j, k >= 1; theta-fixedness is tested from sigma^1 on, since
        1 is theta-fixed."""
        verify_cocycle_identity(self.values, self.descent.order,
                                self.descent.galois_on_torus_twisted)
        if self.theta is not None:
            for k in range(1, self.descent.order):
                if not self.values[k].theta_fixed(self.theta):
                    raise ADataError(f"value at sigma^{k} is not theta-fixed")

    def fixed_coords(self, k: int) -> tuple:
        """Coordinates on the fixed subtorus (orbit-sum basis)."""
        if self.theta is None:
            raise ADataError("no pinned automorphism attached")
        t = self.values[k] if self.level == "t" else self.values[k].torus
        return t.fixed_subtorus_coords(self.theta)


# ---------------------------------------------------------------------------
# matrix realizations and h-sampling
# ---------------------------------------------------------------------------

class Realization:
    """A conjugating element h with (Borel, torus) transported to the pinned
    pair, over a quadratic extension with its order-2 Galois action.  With
    use_theta, h times its flip J h^T J^-1 must be 1, so h^-1 is the flip
    and det(h) comes from forward elimination; else both from Gauss-Jordan.
    The flip test has multiplied h by that h^-1: ``_flip_pair`` keeps both
    objects, so that ``_cocycle`` need not multiply them again.

    For even n the det(h) = 1 check cannot fail on a theta-fixed h: there
    J^T = -J, so h J h^T = J makes h symplectic for the form J, and
    Pf(h J h^T) = det(h) Pf(J) gives det(h) = 1.  The check stays as a
    cross-check of theta_fixed.  Only odd n, where J is symmetric and -h is
    fixed with determinant -1, can fail it."""

    def __init__(self, ctx: MatrixContext, h, use_theta: bool = False):
        if not isinstance(ctx.field, QuadField):
            raise RealizationError("realizations need a quadratic coefficient field")
        f = ctx.field
        if not (isinstance(h, (tuple, list)) and all(isinstance(row, (tuple, list)) for row in h)):
            raise RealizationError(f"h {h!r} is not a matrix: it is not a tuple or list of rows")
        ctx._check_square(h, "h for Realization")
        try:
            h = tuple(tuple(map(f.embed, row)) for row in h)
        except CoefficientError as exc:
            raise RealizationError(f"h has an entry outside {f.name}: {exc}") from None
        self.ctx = ctx
        self.h = h
        self.use_theta = use_theta
        if use_theta:   # an untwisted ctx raises "context carries no automorphism"
            if not ctx.theta_fixed(h):
                raise RealizationError("h is not fixed by the automorphism")
            det, self.h_inv = mat_det(h, f), ctx._flip(h)
        else:
            det, self.h_inv = mat_det_inv(h, f)
        self._flip_pair = (h, self.h_inv) if use_theta else None
        if det != f.one():
            raise RealizationError("h does not have determinant 1")
        u = mat_mul(self.h_inv, ctx.galois_apply(h, 1))
        self.omega, perm = self._weyl_from_monomial(u)
        # u e_j = u[perm[j]][j] e_perm[j], so u^-1 has 1/u[perm[j]][j] at (j, perm[j])
        zero = f.zero()
        u_inv = tuple(tuple(u[i][j] ** -1 if i == perm[j] else zero for i in range(ctx.n))
                      for j in range(ctx.n))
        self._u_inv = (mat_identity(ctx.n, f), u_inv)
        self.descent = DescentDatum(ctx.datum, 2, self.omega,
                                    field_action=QuadConj(f))

    def _weyl_from_monomial(self, u) -> Tuple[WeylElement, list]:
        """The Weyl element whose lift has the zero pattern of u, and perm:
        u is nonzero exactly at (perm[j], j), so it sends e_j to a multiple
        of e_perm[j] and its Weyl element sends alpha_i = e_i - e_{i+1} to
        e_perm[i] - e_perm[i+1], the code of +-(alpha_a + ... + alpha_{b-1})
        for a, b those two indices in order."""
        zero, n = self.ctx.field.zero(), self.ctx.n
        perm = [None] * n
        for j in range(n):
            nz = [i for i in range(n) if u[i][j] != zero]
            if len(nz) != 1:
                raise RealizationError(
                    "h does not transport a Galois-stable torus: h^{-1} sigma(h) "
                    "is not monomial")
            perm[j] = nz[0]
        datum = self.ctx.datum
        codes = datum._simple_codes
        omega = WeylElement._from_perms(datum, *datum._perms_of(
            [sum(codes[a:b]) if a < b else -sum(codes[b:a])
             for a, b in zip(perm, perm[1:])]))
        pattern = self.ctx.weyl_lift_matrix(omega)
        if not all((pattern[i][j] != zero) == (u[i][j] != zero)
                   for i in range(n) for j in range(n)):
            raise RealizationError("could not match the Weyl part of h^{-1} sigma(h)")
        return omega, perm

    def sigma_h_inv(self, k: int):
        """sigma^k(h)^{-1}, which is sigma^k(h^{-1}): the Galois action is
        entrywise, so it commutes with inversion."""
        return self.ctx.galois_apply(self.h_inv, k)

    def transported_diagonal(self, m_matrix, k: int):
        """h^{-1} t(sigma^k) h = realize(m(sigma^k)) * u_k^{-1}."""
        return mat_mul(m_matrix, self._u_inv[k % 2])


# -- h construction ----------------------------------------------------------

def _h2_seed(fieldq: QuadField):
    """The rank-1 conjugator [[1/2, -g], [1/(2g), 1]] with g = sqrt(d);
    determinant 1, and h^{-1} sigma(h) = (2g)^{coroot} n(s)."""
    g = fieldq.gen()
    return ((fieldq.half(), -g), ((2 * g) ** -1, fieldq.one()))


def sample_h_twisted(ctx: MatrixContext, rrs: RestrictedRootSystem, rng: random.Random,
                     seeds: Sequence = ()):
    """Conjugator inside the fixed subgroup; the Galois twist of the
    transported torus is a product of fixed-subgroup reflections.  Each seed
    is (simple restricted root, conjugating fixed Weyl element or None).
    The seed blocks and the unipotent factors exp(c X_beta), exp(c Y_beta)
    depend on the context alone and are built once per context.  With rrs
    restricted along theta = 1 this is the untwisted sampler."""
    f = ctx.field
    if not isinstance(f, QuadField):
        raise RealizationError(f"sample_h_twisted samples over Q(sqrt d) only, not over {f.name}")
    factors = [pinned_factor(ctx, rrs, beta, ("seed", conj),
                             lambda: _seed_block(ctx, rrs, beta, conj))
               for beta, conj in seeds]
    left = []
    betas = list(rrs.simple_restricted)
    for _ in range(4):
        b = betas[rng.randrange(len(betas))]
        x, _, y = restricted_root_vectors(ctx, rrs, b)
        upper = rng.random() < 0.5
        c = rng.randint(-2, 2)
        if c:   # exp(0 X) = 1 is left out; the draws are the same
            left.append(pinned_factor(ctx, rrs, b, (upper, c), lambda: exp_nilpotent(
                mat_scalar(x if upper else y, f.embed(c)), f)))
    right = _random_torus_matrix(ctx, rng, theta=rrs.theta)
    return mat_prod(*left, *factors, right)


def _seed_block(ctx: MatrixContext, rrs: RestrictedRootSystem, beta, conj):
    block = sl2_embed(ctx, rrs, beta, _h2_seed(ctx.field))
    if conj is None:
        return block
    c = fixed_group_lift(ctx, rrs, conj)
    return mat_prod(c, block, mat_inv(c, ctx.field))


# -- equivariant a-data over quadratic extensions -----------------------------

def equivariant_quad_adata(system, descent: "DescentDatum", fieldq: QuadField,
                           rng: random.Random, special: bool = False,
                           theta: Optional[PinnedAutomorphism] = None) -> ADatum:
    """Random Galois-equivariant a-data with values in Q(sqrt(d)): the
    symbolic a-data of the same root classes, specialized one Galois orbit
    of classes at a time in order of least key.  At order 2 a class sigma
    fixes with sign +1 takes a rational value; any other orbit's first class
    takes sqrt(d) times a rational, and its partner the signed conjugate.
    The result is equivariant by construction and checked where it is used."""
    if descent.order not in (1, 2):
        raise DescentError("quadratic-extension a-data needs a group of order <= 2")
    classes, images = _adata_classes(*_key_moves(system, descent, theta, special))
    base = [None] * len(images)
    for c, (img, sign) in enumerate(images):
        if base[c] is None:     # else c is the partner of an earlier class
            x = fieldq.embed(Fraction(rng.choice([1, 2, 3, 1, 5])) * rng.choice([1, -1]))
            base[c] = x if descent.order == 2 and (img, sign) == (c, 1) else fieldq.gen() * x
            if img != c:
                base[img] = fieldq.conj(base[c]) if sign == 1 else -fieldq.conj(base[c])
    return ADatum._of(tuple(base[c] if s == 1 else -base[c] for c, s in classes),
                      fieldq.one(), fieldq.half(), system)


def _random_torus_matrix(ctx: MatrixContext, rng: random.Random,
                         theta: PinnedAutomorphism):
    f = ctx.field
    coords = [None] * (ctx.n - 1)
    for orb in theta.orbits():
        while True:
            val = f.embed(Fraction(rng.randint(-4, 4))) \
                + f.gen() * f.embed(rng.randint(-2, 2))
            if val.norm():
                break
        for i in orb:
            coords[i] = val
    return ctx.torus_matrix(TorusElement(tuple(coords)))


# ---------------------------------------------------------------------------
# the splitting invariant cocycles
# ---------------------------------------------------------------------------

def lambda_untwisted(datum: RootDatum, descent: DescentDatum, adata: ADatum,
                     realization: Optional[Realization] = None) -> SplittingCocycle:
    """The torus 1-cocycle k -> h m(sigma^k) sigma^k(h)^{-1}; without a
    realization, the underlying normalizer cocycle (class comparisons are
    then m-level)."""
    return _cocycle(datum, descent, adata, None, realization)


def lambda_twisted(datum: RootDatum, theta: PinnedAutomorphism, descent: DescentDatum,
                   adata: ADatum, realization: Optional[Realization] = None
                   ) -> SplittingCocycle:
    """The refinement landing in the fixed subtorus: with invariant a-data
    every value is fixed by the pinned automorphism, which is checked, as is
    the cocycle identity."""
    return _cocycle(datum, descent, adata, theta, realization)


def _cocycle(datum, descent, adata, theta, realization, m=None,
             realized=None) -> SplittingCocycle:
    """The splitting cocycle of (descent, adata), twisted when theta is given:
    m-level without a realization, t-level with one.  With theta other than
    the identity, the conjugator and every t-matrix must be theta-fixed.  m
    is m_cocycle(datum, descent, adata, theta) and realized[k] is
    realize(ctx, m[k]) for k >= 1; each is computed here unless the caller
    has it.

    m_cocycle has checked m(1) = 1, so t(1) = h h^-1, which must be the
    identity: computed here for any h or h^-1 but the two objects the flip
    test of the Realization multiplied (``_flip_pair``).  t(1) is stored as
    the ones and the identity matrix, with no transport and no
    theta-fixedness test.  Each t(sigma^k), k >= 1, is transported and,
    when twisted, tested for theta-fixedness: h h^-1 = 1, so h cancels on
    the left of h mk sigma^k(h^-1) = h diag h^-1, and mk sigma^k(h^-1) =
    diag h^-1 is compared, t(sigma^k) being h times it (3 products, not 4)."""
    if (realization is not None and theta is not None
            and not (theta.is_identity or realization.use_theta)):
        raise RealizationError("twisted cocycles need a conjugator fixed by the automorphism")
    if m is None:
        m = m_cocycle(datum, descent, adata, theta=theta)
    if realization is None:
        return SplittingCocycle(m, descent, datum, theta)
    ctx = realization.ctx
    if ctx.datum is not datum:
        # same-type data built separately are fine; enforce equal Cartan data
        if ctx.datum.cartan != datum.cartan:
            raise RealizationError("realization context does not match the datum")
    if realization.descent.omega_T != descent.omega_T:
        raise RealizationError("descent datum disagrees with h^{-1} sigma(h)")
    if not descent.sigma_T.is_identity:
        raise RealizationError("matrix realizations model split groups only")
    if descent.order != 2:
        raise RealizationError("matrix realizations carry an order-2 Galois group")
    f = ctx.field
    identity, h, h_inv = mat_identity(ctx.n, f), realization.h, realization.h_inv
    pair = realization._flip_pair
    if not (pair and pair[0] is h and pair[1] is h_inv) \
            and not mat_eq(mat_mul(h, h_inv), identity):
        raise RealizationError("t(sigma^0) = h h^-1 is not the identity")
    values: Dict[int, TorusElement] = {0: TorusElement.ones(datum.rank, f.one())}
    matrices: Dict[int, tuple] = {0: identity}
    for k in range(1, descent.order):
        mk = realized[k] if realized is not None else realize(ctx, m[k])
        diag = realization.transported_diagonal(mk, k)
        values[k] = ctx.torus_coords_of_diagonal(diag)
        right = mat_mul(mk, realization.sigma_h_inv(k))
        if not mat_eq(right, mat_mul(diag, h_inv)):
            raise RealizationError("transport inconsistency in the t-level cocycle")
        matrices[k] = mat_mul(h, right)
    out = SplittingCocycle(values, descent, datum, theta, matrices)
    out.verify()
    if theta is not None and not theta.is_identity:
        for k in range(1, descent.order):
            if not ctx.theta_fixed(matrices[k]):
                raise RealizationError(f"matrix t(sigma^{k}) is not theta-fixed")
    return out


# ---------------------------------------------------------------------------
# Borel independence
# ---------------------------------------------------------------------------

@dataclass
class BorelReport:
    witness: TorusElement
    cocycle: SplittingCocycle
    cocycle_translated: SplittingCocycle


def verify_borel_independence(datum: RootDatum, descent: DescentDatum, adata: ADatum,
                              mu: WeylElement, theta: Optional[PinnedAutomorphism] = None,
                              realization: Optional[Realization] = None) -> BorelReport:
    """Replace the implicit Borel subgroup through a normalizer element with
    Weyl image mu and confirm that the two cocycles differ by the coboundary
    of the x(mu) witness.

    Both identities are checked at k >= 1 only.  ``m_cocycle`` has checked
    m(1) = m'(1) = 1, so at k = 0 the m-level identity reads
    n(mu) n(mu)^-1 = x(mu)^-1 x(mu), that is 1 = 1; ``_cocycle`` has checked
    that both t(1) are the identity, so the matrix identity reads
    1 = 1 w^-1 w as well.  Given theta, the witness matrix w is tested for
    theta-fixedness first and inverted by its flip; else by ``mat_inv``."""
    if theta is not None and not theta.commutes_with(mu):
        raise RootDatumError("mu is not fixed by the automorphism")
    one = adata.one
    witness = x_of(datum, mu, adata)
    if theta is not None and not witness.theta_fixed(theta):
        raise ADataError("coboundary witness is not theta-fixed")

    # the translated data seen through h' = h n(mu)
    omega_prime = mu.inverse() * descent.omega_T * descent.sigma_T.act_weyl(mu)
    descent_prime = DescentDatum(datum, descent.order, omega_prime, descent.sigma_T,
                                 descent.field_action)
    adata_prime = adata.translate(mu)
    m = m_cocycle(datum, descent, adata, theta=theta)
    m_prime = m_cocycle(datum, descent_prime, adata_prime, theta=theta)

    # n(mu) m'(sigma) sigma(n(mu))^{-1} = [x(mu)^{-1} sigma_T(x(mu))] m(sigma):
    # the two cocycles differ by the coboundary of the witness for the
    # transported torus action
    lift = tits_lift(datum, mu, one)
    for k in range(1, descent.order):
        lhs = lift * m_prime[k] * descent.galois_on_tits(k, lift).inverse()
        coboundary = witness.inv() * descent.galois_on_torus_twisted(k, witness)
        rhs = TitsElement(coboundary, datum.identity_weyl()) * m[k]
        if lhs != rhs:
            raise ADataError(f"Borel-independence identity fails at sigma^{k}")

    c1 = _cocycle(datum, descent, adata, theta, realization, m)
    if realization is None:
        return BorelReport(witness, c1,
                           _cocycle(datum, descent_prime, adata_prime, theta, None, m_prime))
    ctx = realization.ctx
    f = ctx.field
    h_prime = mat_mul(realization.h, ctx.weyl_lift_matrix(mu))
    realization_prime = Realization(ctx, h_prime, use_theta=realization.use_theta)
    c2 = _cocycle(datum, descent_prime, adata_prime, theta, realization_prime, m_prime)
    w_mat = mat_prod(realization.h, realize(ctx, witness), realization.h_inv)
    if theta is None:
        w_inv = mat_inv(w_mat, f)
    elif ctx.theta_fixed(w_mat):
        w_inv = ctx._flip(w_mat)        # w_mat times its flip is 1, just checked
    else:
        raise RealizationError("matrix witness is not theta-fixed")
    for k in range(1, descent.order):
        sigma_w = ctx.galois_apply(w_mat, k)
        want = mat_prod(c1.matrices[k], w_inv, sigma_w)
        if not mat_eq(c2.matrices[k], want):
            raise RealizationError(
                f"matrix coboundary identity fails at sigma^{k}")
    return BorelReport(witness, c1, c2)


# ---------------------------------------------------------------------------
# the two-lift comparison
# ---------------------------------------------------------------------------

def lift_discrepancy(rrs: RestrictedRootSystem, omega: WeylElement,
                     one=None, half=None) -> TorusElement:
    """prod b_alpha^{alpha_vee} over the inversion set of a theta-fixed Weyl
    element, with b_alpha = 1/2 exactly when the restriction of alpha is
    divisible; this torus element relates the two canonical lifts."""
    if not rrs.theta.commutes_with(omega):
        raise RootDatumError("element is not fixed by the automorphism")
    if one is None:
        one, half = Fraction(1), Fraction(1, 2)
    return TorusElement.coroot_product(rrs.datum.rank, (
        (r.coroot, half) for j, r in enumerate(rrs.datum.positive_roots)
        if omega.inverts(j) and rrs._res_roots[rrs._res_of[j]].rtype == R3), one)


def check_nn_prime(rrs: RestrictedRootSystem, omega: WeylElement,
                   ctx: Optional[MatrixContext] = None) -> TorusElement:
    """The discrepancy between the fixed-subgroup lift and the ambient lift
    of a theta-fixed Weyl element; asserted against the matrix model when a
    context is supplied."""
    disc = lift_discrepancy(rrs, omega)
    if ctx is not None:
        lhs = fixed_group_lift(ctx, rrs, omega)
        rhs = mat_mul(realize(ctx, disc), ctx.weyl_lift_matrix(omega))
        if not mat_eq(lhs, rhs):
            raise RealizationError(
                f"lift comparison fails at {omega!r}: the two pinned lifts do not "
                "differ by the stated half-coroot product")
    return disc


@dataclass
class CompareReport:
    """Outcome of the fixed-subgroup vs twisted comparison.

    ``t_prime_matrices[k]`` is h lifted[k] sigma^k(h)^-1, with lifted[k] the
    fixed-subgroup lift.  The comparison has checked that lifted[k] equals
    realize(m(sigma^k)) for k >= 1, so this is the product of equal factors
    that the t-level cocycle forms: it is ``t_cocycle.matrices``, not a
    recomputation.  At sigma^0 both lifts are 1, m(1) = 1 being checked, and
    the matrix is the identity, which the t-level has checked h h^-1 to be,
    h^-1 being the flip of h when h is theta-fixed.
    """

    m_values: Dict[int, TitsElement]
    m_prime_values: Dict[int, TitsElement]
    equal_on_the_nose: bool
    matrix_checked: bool
    t_cocycle: Optional[SplittingCocycle] = None
    t_prime_matrices: Optional[Dict[int, tuple]] = None


def compare_fixed_vs_twisted(rrs: RestrictedRootSystem, descent: DescentDatum,
                             special_adata: ADatum,
                             ctx: Optional[MatrixContext] = None,
                             realization: Optional[Realization] = None) -> CompareReport:
    """Equality, value by value, of the twisted cocycle built from the halved
    a-data with the fixed-subgroup cocycle built from the original special
    a-data and the fixed-subgroup coroots.

    The abstract route expresses the fixed-subgroup lift through the
    half-coroot discrepancy; the matrix route recomputes that lift from the
    fixed subgroup's own pinning, so the two sides are independent there.
    """
    datum, theta = rrs.datum, rrs.theta
    if not special_adata.restricted:
        raise ADataError("comparison starts from restricted a-data")
    special_adata.validate_equivariant(descent)
    descent.validate_theta_compatible(theta)
    one, values, res = special_adata.one, special_adata.values, rrs._res_roots

    tilde_full, plain_full = special_adata.tilde().pullback(), special_adata.pullback()
    m = m_cocycle(datum, descent, tilde_full, theta=theta)

    m_prime: Dict[int, TitsElement] = {}
    torus_parts: Dict[int, TorusElement] = {}
    for k in range(descent.order):
        omega_k = descent.root_action(k).weyl
        # the inverse of sigma^k is sigma^{-k}, since the descent datum is valid
        torus = torus_parts[k] = TorusElement.coroot_product(datum.rank, (
            (res[i].coroot, values[i])
            for i in rrs.res_inversions(descent.restricted_action(-k, rrs))), one)
        disc = lift_discrepancy(rrs, omega_k, one, special_adata.half)
        m_prime[k] = TitsElement(torus * disc, omega_k)

        # intermediate identity from the coroot comparison: the unhalved
        # torus part over the ambient inversion set equals the restricted one
        if x_of(datum, omega_k, plain_full) != torus:
            raise ADataError(f"restricted coroot identity fails at sigma^{k}")

    if any(m[k] != m_prime[k] for k in range(descent.order)):
        raise ADataError("the twisted and fixed-subgroup cocycles differ at the m-level")

    matrix_checked, t_cocycle = False, None
    if ctx is not None:
        # rebuild the fixed-subgroup side genuinely: its own pinned lift; at
        # sigma^0 both sides are realize(1), m(1) = 1 being checked
        realized = {}
        for k in range(1, descent.order):
            lifted = mat_mul(realize(ctx, torus_parts[k]),
                             fixed_group_lift(ctx, rrs, descent.root_action(k).weyl))
            realized[k] = realize(ctx, m[k])
            if not mat_eq(lifted, realized[k]):
                raise RealizationError(f"matrix comparison fails at sigma^{k}")
        matrix_checked = True
        if realization is not None:
            t_cocycle = _cocycle(datum, descent, tilde_full, theta, realization, m, realized)
    return CompareReport(m, m_prime, True, matrix_checked, t_cocycle,
                         t_cocycle.matrices if t_cocycle is not None else None)

"""a-data, Galois descent data, splitting cocycles at the torus level, and
the comparison theorems relating the fixed-subgroup route to the twisted
route.

The cocycle sigma -> x(sigma_T) n(omega_T(sigma)) lives in the normalizer
model ("m-level"); conjugating by a suitable group element h produces the
torus-valued cocycle ("t-level") whose class is the splitting invariant.
Without a matrix realization the m-level object is returned, marked as such;
with one, the torus values are computed and verified as honest matrices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from .coeffs import IdentityAction, QuadConj, QuadField, SymUnit
from .errors import ADataError, DescentError, RealizationError, RootDatumError
from .matoracle import (MatrixContext, exp_nilpotent, fixed_group_lift,
                        mat_conj_entries, mat_det, mat_eq, mat_identity,
                        mat_inv, mat_mul, mat_prod, mat_scalar, pinned_factor,
                        realize, restricted_root_vectors, sl2_embed)
from .rootdata import (PinnedAutomorphism, RestrictedRootSystem,
                       RootAutomorphism, RootDatum, WeylElement)
from .tits import TitsElement, TorusElement, m_cocycle, tits_lift, x_of

R3 = "R3"


# ---------------------------------------------------------------------------
# a-data
# ---------------------------------------------------------------------------

class ADatum:
    """Assignment of invertible coefficients to roots (or restricted roots)
    with a_{-alpha} = -a_alpha built in."""

    def __init__(self, values: Dict[tuple, object], one, half, domain: str = "roots",
                 flavor: str = "plain", system=None):
        self.values = dict(values)
        self.one = one
        self.half = half
        self.domain = domain
        self.flavor = flavor
        self.system = system  # RootDatum for "roots", RestrictedRootSystem for "restricted"

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_positive(datum: RootDatum, pos_values: Dict[tuple, object], one, half,
                      flavor: str = "plain") -> "ADatum":
        values = {}
        for r in datum.positive_roots:
            if r.coords not in pos_values:
                raise ADataError(f"missing a-datum at root {r.coords}")
            values[r.coords] = pos_values[r.coords]
            values[tuple(-c for c in r.coords)] = -pos_values[r.coords]
        return ADatum(values, one, half, "roots", flavor, datum)

    @staticmethod
    def restricted_from_positive(rrs: RestrictedRootSystem,
                                 pos_values: Dict[tuple, object], one, half,
                                 flavor: str = "plain") -> "ADatum":
        values = {}
        for v in rrs.positive_restricted:
            if v not in pos_values:
                raise ADataError(f"missing a-datum at restricted root {v}")
            values[v] = pos_values[v]
            values[tuple(-c for c in v)] = -pos_values[v]
        return ADatum(values, one, half, "restricted", flavor, rrs)

    # -- access -----------------------------------------------------------------

    def __getitem__(self, key: tuple):
        try:
            return self.values[tuple(key)]
        except KeyError:
            raise ADataError(f"no a-datum at {tuple(key)}") from None

    def __contains__(self, key: tuple) -> bool:
        return tuple(key) in self.values

    # -- validation ---------------------------------------------------------------

    def validate(self) -> None:
        for coords, v in self.values.items():
            neg = tuple(-c for c in coords)
            if neg not in self.values:
                raise ADataError(f"a-data not defined at {neg}")
            if self.values[neg] != -v:
                raise ADataError(f"a(-alpha) != -a(alpha) at {coords}")

    def validate_twisted(self, theta: PinnedAutomorphism) -> None:
        if self.domain != "roots":
            return  # restricted data is constant on fibers by construction
        for coords, v in self.values.items():
            img = theta.act_root(coords)
            if self.values.get(img) != v:
                raise ADataError(f"a-data not theta-invariant at {coords}")

    def validate_equivariant(self, descent) -> None:
        for k in range(descent.order):
            if self.domain == "roots":
                # images by root index: aut.perm[j] is the index of aut(root j)
                roots, index = descent.datum.roots, descent.datum.root_index
                perm = descent.root_action(k).perm
                for coords, v in self.values.items():
                    if coords not in index:
                        raise ADataError(f"a-datum at {coords}, which is not a root")
                    img = roots[perm[index[coords]]].coords
                    if self.values.get(img) != descent.field_apply(k, v):
                        raise ADataError(
                            f"a-data not Galois-equivariant at {coords}, sigma^{k}")
            else:
                act = descent.restricted_action(k, self.system)
                for coords, v in self.values.items():
                    if self.values.get(act(coords)) != descent.field_apply(k, v):
                        raise ADataError(
                            f"restricted a-data not Galois-equivariant at {coords}, sigma^{k}")

    def is_special(self) -> bool:
        if self.domain != "restricted":
            raise ADataError("specialness is a condition on restricted a-data")
        rrs = self.system
        for v, rr in rrs.restricted.items():
            dbl = tuple(2 * c for c in v)
            if dbl in rrs.restricted and self.values[dbl] != self.values[v]:
                return False
        return True

    def validate_special(self) -> None:
        if not self.is_special():
            raise ADataError("a-data is not special: a(2*beta) != a(beta) somewhere")

    # -- derived data ---------------------------------------------------------------

    def tilde(self) -> "ADatum":
        """Halve the values on divisible restricted roots; the result is
        non-special whenever divisible restricted roots exist."""
        if self.domain != "restricted":
            raise ADataError("the halved variant is built from restricted a-data")
        self.validate_special()
        rrs = self.system
        values = {v: (a * self.half if rrs.restricted[v].rtype == R3 else a)
                  for v, a in self.values.items()}
        return ADatum(values, self.one, self.half, "restricted", "tilde", rrs)

    def pullback(self) -> "ADatum":
        """View restricted a-data as automorphism-invariant a-data on the
        full root system through the restriction map."""
        if self.domain != "restricted":
            raise ADataError("pullback starts from restricted a-data")
        rrs = self.system
        values = {}
        for r in rrs.datum.roots:
            values[r.coords] = self.values[rrs.restrict_root(r.coords)]
        return ADatum(values, self.one, self.half, "roots",
                      "twisted" if self.flavor in ("plain", "special") else self.flavor,
                      rrs.datum)

    def translate(self, mu: WeylElement) -> "ADatum":
        """a'(alpha) = a(mu(alpha)); the transport of the same abstract a-data
        through a normalizer-adjusted conjugator."""
        if self.domain != "roots":
            raise ADataError("translation acts on full a-data")
        values = {coords: self.values[tuple(mu.act_root(coords))]
                  for coords in self.values}
        return ADatum(values, self.one, self.half, "roots", self.flavor, self.system)


@dataclass
class SignedOrbitAction:
    """Bookkeeping output of the automatic symbolic a-data construction."""

    adata: "ADatum"
    field_action: object
    symbols: Tuple[str, ...]


def _symbolic_adata(datum, descent, theta):
    # nodes: roots modulo theta and negation (negation carries a sign); the
    # Galois action permutes nodes only when it normalizes that equivalence,
    # so incompatible twisted descents are rejected up front
    if theta is not None and not theta.is_identity:
        descent.validate_theta_compatible(theta)
    node_of: Dict[tuple, Tuple[tuple, int]] = {}

    def canon(coords):
        orbit = set()
        frontier = {coords}
        while frontier:
            nxt = set()
            for c in frontier:
                if c in orbit:
                    continue
                orbit.add(c)
                if theta is not None:
                    nxt.add(tuple(theta.act_root(c)))
            frontier = nxt - orbit
        rep = min(orbit)
        negrep = min(tuple(-x for x in c) for c in orbit)
        if negrep < rep:
            return negrep, -1
        return rep, 1

    for r in datum.roots:
        node_of[r.coords] = canon(r.coords)
    reps = sorted({node for node, _ in node_of.values()})
    sym_of = {rep: f"a{k + 1}" for k, rep in enumerate(reps)}
    # the generator of the Galois action permutes nodes with signs
    gen = descent.root_action(1 % descent.order)
    mapping = {}
    for rep in reps:
        img = tuple(gen.act_root(rep))
        node, sgn = node_of[img]
        mapping[sym_of[rep]] = (sgn, sym_of[node])
    from .coeffs import SignedSymbolMap
    action = SignedSymbolMap(mapping) if descent.order > 1 else IdentityAction()
    values = {}
    for coords, (node, sgn) in node_of.items():
        values[coords] = SymUnit.gen(sym_of[node], 1, sgn)
    adata = ADatum(values, SymUnit.one(), SymUnit.half(), "roots",
                   "twisted" if theta is not None else "plain", datum)
    out = SignedOrbitAction(adata, action, tuple(sym_of[rep] for rep in reps))
    return adata, out


# ---------------------------------------------------------------------------
# descent data
# ---------------------------------------------------------------------------

_ALLOWED_ORDERS = (1, 2, 3, 4, 6)


class DescentDatum:
    """Finite cyclic Galois action: the generator acts on the pinned torus by
    a Weyl twist, a diagram automorphism, and a coefficient automorphism.

    The constructor validates: a DescentDatum that exists is a homomorphism
    from Z/order, so its consumers do not check it again.
    """

    def __init__(self, datum: RootDatum, order: int, omega_T: WeylElement,
                 sigma_T: Optional[PinnedAutomorphism] = None, field_action=None):
        if order not in _ALLOWED_ORDERS:
            raise DescentError(f"group order {order} not in {_ALLOWED_ORDERS}")
        self.datum = datum
        self.order = order
        self.omega_T = omega_T
        self.sigma_T = sigma_T if sigma_T is not None else PinnedAutomorphism.identity(datum)
        self.field_action = field_action if field_action is not None else IdentityAction()
        self._powers = self._compute_powers()
        self.validate()

    def _compute_powers(self):
        """The powers 0 .. order of the generator; the last one closes the
        cycle and is what ``validate`` checks."""
        powers = [(self.datum.identity_weyl(), PinnedAutomorphism.identity(self.datum))]
        w, g = self.omega_T, self.sigma_T
        cur_w, cur_g = powers[0]
        for _ in range(self.order):
            # (w, g) * (cur_w, cur_g) = (w * g(cur_w), g cur_g)
            cur_w, cur_g = w * g.act_weyl(cur_w), g.compose(cur_g)
            powers.append((cur_w, cur_g))
        return powers

    def validate(self) -> None:
        final_w, final_g = self._powers[self.order]
        if not final_w.is_identity or not final_g.is_identity:
            raise DescentError("sigma_T is not a homomorphism: generator has wrong order")
        fo = getattr(self.field_action, "order", 1)
        if self.order % fo:
            raise DescentError("coefficient action order does not divide the group order")

    def validate_theta_compatible(self, theta: PinnedAutomorphism) -> None:
        if not theta.commutes_with(self.omega_T):
            raise DescentError("omega_T(sigma) does not commute with theta")
        if theta.compose(self.sigma_T).perm != self.sigma_T.compose(theta).perm:
            raise DescentError("sigma_T diagram action does not commute with theta")

    # -- actions -------------------------------------------------------------------

    def weyl_part(self, k: int) -> WeylElement:
        return self._powers[k % self.order][0]

    def diagram_part(self, k: int) -> PinnedAutomorphism:
        return self._powers[k % self.order][1]

    def root_action(self, k: int) -> RootAutomorphism:
        w, g = self._powers[k % self.order]
        return RootAutomorphism(w, g)

    def field_apply(self, k: int, value):
        for _ in range(k % self.order):
            value = self.field_action(value)
        return value

    def galois_on_torus_pinned(self, k: int, t: TorusElement) -> TorusElement:
        """The plain Galois action on the pinned torus (diagram + coefficients)."""
        g = self.diagram_part(k)
        return t.map_coords(lambda v: self.field_apply(k, v)).diagram_apply(g)

    def galois_on_tits(self, k: int, x: TitsElement) -> TitsElement:
        g = self.diagram_part(k)
        return TitsElement(self.galois_on_torus_pinned(k, x.torus), g.act_weyl(x.weyl))

    def galois_on_torus_twisted(self, k: int, t: TorusElement, one) -> TorusElement:
        """The transported action on the ambient torus coordinates."""
        return self.galois_on_torus_pinned(k, t).weyl_apply(self.weyl_part(k), one)

    def restricted_action(self, k: int, rrs: RestrictedRootSystem):
        """The function applying sigma^k to restricted coordinates."""
        w, g = self._powers[k % self.order]
        n = rrs.res_rank
        cols = []
        for orb in rrs.simple_orbits:
            # one orbit representative restricts to the unit vector; the
            # action descends, so any representative gives the same column
            lam = [0] * self.datum.rank
            lam[g.perm[orb[0]]] = 1
            cols.append(rrs.restrict_weight(w.act_weight(tuple(lam))))

        def act(v):
            return tuple(sum(cols[j][i] * v[j] for j in range(n)) for i in range(n))

        return act

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

    level: str                      # "t" or "m"
    values: Dict[int, object]       # k -> TorusElement (t) or TitsElement (m)
    ambient: str                    # "T" or "T^theta"
    descent: DescentDatum
    datum: RootDatum
    theta: Optional[PinnedAutomorphism] = None
    matrices: Optional[Dict[int, tuple]] = None   # honest in-T matrices

    def verify(self, one) -> None:
        """Checks a t-level cocycle; m_cocycle checks m-level values as it builds them."""
        n = self.descent.order
        for j in range(n):
            for k in range(n):
                lhs = self.values[(j + k) % n]
                rhs = self.values[j] * self.descent.galois_on_torus_twisted(
                    j, self.values[k], one)
                if lhs != rhs:
                    raise ADataError(f"cocycle identity fails at ({j},{k})")
        if self.ambient == "T^theta" and self.theta is not None:
            for k, v in self.values.items():
                if not v.theta_fixed(self.theta):
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
    pair, over a quadratic extension with its order-2 Galois action."""

    def __init__(self, ctx: MatrixContext, h, use_theta: bool = False):
        if not isinstance(ctx.field, QuadField):
            raise RealizationError("realizations need a quadratic coefficient field")
        self.ctx = ctx
        self.h = h
        self.use_theta = use_theta
        f = ctx.field
        if mat_det(h, f) != f.one():
            raise RealizationError("h does not have determinant 1")
        if use_theta:
            if not ctx.twisted:
                raise RealizationError("context carries no automorphism")
            if not ctx.theta_fixed(h):
                raise RealizationError("h is not fixed by the automorphism")
        self.h_inv = mat_inv(h, f)
        self.order = 2
        u = mat_mul(self.h_inv, ctx.galois_apply(h, 1))
        self.u = {0: mat_identity(ctx.n, f), 1: u}
        self.omega = self._weyl_from_monomial(u)
        self._u_inv = {0: self.u[0], 1: mat_inv(u, f)}
        self.descent = DescentDatum(ctx.datum, 2, self.omega,
                                    field_action=QuadConj(f))

    def _weyl_from_monomial(self, u) -> WeylElement:
        f = self.ctx.field
        n = self.ctx.n
        perm = [None] * n
        for j in range(n):
            nz = [i for i in range(n) if u[i][j] != f.zero()]
            if len(nz) != 1:
                raise RealizationError(
                    "h does not transport a Galois-stable torus: h^{-1} sigma(h) "
                    "is not monomial")
            perm[j] = nz[0]
        word = []
        p = list(perm)
        guard = 0
        while p != sorted(p):
            for i in range(n - 1):
                if p[i] > p[i + 1]:
                    p[i], p[i + 1] = p[i + 1], p[i]
                    word.append(i)
                    break
            guard += 1
            if guard > n * n:
                raise RealizationError("monomial decomposition failed")
        from .rootdata import analyze_weyl
        for candidate in (analyze_weyl(self.ctx.datum, tuple(reversed(word))),
                          analyze_weyl(self.ctx.datum, tuple(word))):
            pattern = self.ctx.weyl_lift_matrix(candidate)
            if all((pattern[i][j] != f.zero()) == (u[i][j] != f.zero())
                   for i in range(n) for j in range(n)):
                return candidate
        raise RealizationError("could not match the Weyl part of h^{-1} sigma(h)")

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
    two = fieldq.from_int(2)
    return ((fieldq.half(), -g), ((two * g) ** -1, fieldq.one()))


def _block_embed(ctx: MatrixContext, i: int, g2):
    f = ctx.field
    rows = [list(r) for r in mat_identity(ctx.n, f)]
    for a in range(2):
        for b in range(2):
            rows[i + a][i + b] = f.embed(g2[a][b])
    return tuple(tuple(r) for r in rows)


def sample_h_untwisted(ctx: MatrixContext, rng: random.Random,
                       seeds: Sequence = (),
                       conj: Optional[WeylElement] = None):
    """Conjugator for a torus whose Galois twist is a product of (conjugated)
    simple reflections, randomized by rational unipotent translations and a
    torus factor over the extension.  ``seeds`` lists simple-root indices;
    distinct seeds must commute for the twist to stay in the normalizer,
    which the realization constructor verifies."""
    f = ctx.field
    seed = mat_identity(ctx.n, f)
    for i in seeds:
        seed = mat_mul(seed, _block_embed(ctx, i, _h2_seed(f)))
    if conj is not None:
        c = ctx.weyl_lift_matrix(conj)
        seed = mat_prod(c, seed, mat_inv(c, f))
    left = mat_identity(ctx.n, f)
    for _ in range(4):
        i = rng.randrange(ctx.n - 1)
        x = f.from_int(rng.randint(-3, 3))
        gen = ctx.unit_upper(i) if rng.random() < 0.5 else ctx.unit_lower(i)
        left = mat_mul(left, exp_nilpotent(mat_scalar(gen, x), f))
    right = _random_torus_matrix(ctx, rng, theta=None)
    return mat_prod(left, seed, right)


def sample_h_twisted(ctx: MatrixContext, rrs: RestrictedRootSystem, rng: random.Random,
                     seeds: Sequence = ()):
    """Conjugator inside the fixed subgroup; the Galois twist of the
    transported torus is a product of fixed-subgroup reflections.  Each seed
    is (simple restricted root, conjugating fixed Weyl element or None).
    The seed blocks and the unipotent factors exp(c X_beta), exp(c Y_beta)
    depend on the context alone and are built once per context."""
    f = ctx.field
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
        left.append(pinned_factor(ctx, rrs, b, (upper, c), lambda: exp_nilpotent(
            mat_scalar(x if upper else y, f.from_int(c)), f)))
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
    """Random Galois-equivariant a-data with values in Q(sqrt(d)).

    Keys are propagated along negation (sign flip), the pinned automorphism
    and, for restricted data with ``special``, the doubling identification;
    the Galois generator adds a conjugation step.  Loop constraints decide
    whether each free class takes a rational or a purely irrational value.
    """
    restricted = isinstance(system, RestrictedRootSystem)
    if restricted:
        keys = sorted(system.restricted)
        sigma = descent.restricted_action(1 % descent.order, system)
    else:
        aut = descent.root_action(1 % descent.order)
        keys = sorted(r.coords for r in system.roots)

        def sigma(v):
            return tuple(aut.act_root(v))

    if descent.order not in (1, 2):
        raise DescentError("quadratic-extension a-data needs a group of order <= 2")

    # edges: (image, sign multiplier, conjugation step)
    def edges(v):
        out = [(tuple(-c for c in v), -1, 0), (sigma(v), 1, 1 % descent.order)]
        if not restricted and theta is not None:
            out.append((tuple(theta.act_root(v)), 1, 0))
        if restricted and special:
            dbl = tuple(2 * c for c in v)
            if dbl in system.restricted:
                out.append((dbl, 1, 0))
            if all(c % 2 == 0 for c in v):
                half = tuple(c // 2 for c in v)
                if half in system.restricted:
                    out.append((half, 1, 0))
        return out

    label: Dict[tuple, Tuple[int, int, int]] = {}  # key -> (class, sign, parity)
    constraint: Dict[int, str] = {}  # class -> "any" | "rational" | "irrational"
    n_classes = 0
    for start in keys:
        if start in label:
            continue
        cls = n_classes
        n_classes += 1
        constraint[cls] = "any"
        label[start] = (cls, 1, 0)
        frontier = [start]
        while frontier:
            v = frontier.pop()
            _, sv, pv = label[v]
            for img, sgn, step in edges(v):
                s2, p2 = sv * sgn, (pv + step) % 2
                if img not in label:
                    label[img] = (cls, s2, p2)
                    frontier.append(img)
                    continue
                _, s3, p3 = label[img]
                if p2 == p3:
                    if s2 != s3:
                        raise ADataError("no equivariant a-data: sign contradiction")
                else:
                    want = "rational" if s2 == s3 else "irrational"
                    if constraint[cls] not in ("any", want):
                        raise ADataError("no equivariant a-data: mixed constraint")
                    constraint[cls] = want

    base = {}
    for cls, kind in constraint.items():
        c = Fraction(rng.choice([1, 2, 3, 1, 5])) * rng.choice([1, -1])
        if kind == "rational":
            base[cls] = fieldq.embed(c)
        else:
            base[cls] = fieldq.gen() * fieldq.embed(c)
    values = {}
    for v, (cls, sgn, parity) in label.items():
        a = base[cls]
        if parity:
            a = fieldq.conj(a)
        values[v] = a if sgn == 1 else -a
    flavor = "special" if special else ("twisted" if theta is not None else "plain")
    adata = ADatum(values, fieldq.one(), fieldq.half(),
                   "restricted" if restricted else "roots", flavor, system)
    adata.validate()
    adata.validate_equivariant(descent)
    if restricted and special:
        adata.validate_special()
    if not restricted and theta is not None:
        adata.validate_twisted(theta)
    return adata


def _random_torus_matrix(ctx: MatrixContext, rng: random.Random,
                         theta: Optional[PinnedAutomorphism]):
    f = ctx.field
    rank = ctx.n - 1
    coords = [None] * rank
    orbits = theta.orbits() if theta is not None else tuple((i,) for i in range(rank))
    for orb in orbits:
        while True:
            val = f.embed(Fraction(rng.randint(-4, 4))) \
                + f.gen() * f.from_int(rng.randint(-2, 2))
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
    m = m_cocycle(datum, descent, adata, theta=None)
    if realization is None:
        return SplittingCocycle("m", m, "T", descent, datum)
    return _t_level(datum, descent, adata, m, realization, theta=None)


def lambda_twisted(datum: RootDatum, theta: PinnedAutomorphism, descent: DescentDatum,
                   adata: ADatum, realization: Optional[Realization] = None
                   ) -> SplittingCocycle:
    """The refinement landing in the fixed subtorus: with invariant a-data
    every value is fixed by the pinned automorphism, which is checked, as is
    the cocycle identity."""
    if realization is None:
        return SplittingCocycle("m", m_cocycle(datum, descent, adata, theta=theta),
                                "T^theta", descent, datum, theta)
    return _twisted_t_level(datum, theta, descent, adata, realization)


def _twisted_t_level(datum, theta, descent, adata, realization, m=None,
                     realized=None) -> SplittingCocycle:
    """lambda_twisted with a realization: unless theta is the identity, the
    conjugator, every t-value and every t-matrix must be theta-fixed.  m is
    m_cocycle(datum, descent, adata, theta) and realized[k] is
    realize(ctx, m[k]); each is computed here unless the caller has it."""
    if not (theta.is_identity or realization.use_theta):
        raise RealizationError("twisted cocycles need a conjugator fixed by the automorphism")
    if m is None:
        m = m_cocycle(datum, descent, adata, theta=theta)
    cocycle = _t_level(datum, descent, adata, m, realization, theta, realized)
    if theta.is_identity:
        return cocycle
    for k in range(descent.order):
        if not cocycle.values[k].theta_fixed(theta):
            raise ADataError(f"t(sigma^{k}) is not theta-fixed")
        if not realization.ctx.theta_fixed(cocycle.matrices[k]):
            raise RealizationError(f"matrix t(sigma^{k}) is not theta-fixed")
    return cocycle


def _t_level(datum, descent, adata, m, realization, theta,
             realized=None) -> SplittingCocycle:
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
    values: Dict[int, TorusElement] = {}
    matrices: Dict[int, tuple] = {}
    for k in range(descent.order):
        mk = realized[k] if realized is not None else realize(ctx, m[k])
        diag = realization.transported_diagonal(mk, k)
        tk = ctx.torus_coords_of_diagonal(diag)
        values[k] = tk
        honest = mat_prod(realization.h, mk, realization.sigma_h_inv(k))
        expected = mat_prod(realization.h, diag, realization.h_inv)
        if not mat_eq(honest, expected):
            raise RealizationError("transport inconsistency in the t-level cocycle")
        matrices[k] = honest
    out = SplittingCocycle("t", values, "T^theta" if theta is not None else "T",
                           descent, datum, theta, matrices)
    out.verify(adata.one)
    return out


# ---------------------------------------------------------------------------
# Borel independence
# ---------------------------------------------------------------------------

@dataclass
class BorelReport:
    witness: TorusElement
    mu: WeylElement
    checked_m_level: bool
    checked_matrices: bool
    cocycle: SplittingCocycle
    cocycle_translated: SplittingCocycle


def verify_borel_independence(datum: RootDatum, descent: DescentDatum, adata: ADatum,
                              mu: WeylElement, theta: Optional[PinnedAutomorphism] = None,
                              realization: Optional[Realization] = None) -> BorelReport:
    """Replace the implicit Borel subgroup through a normalizer element with
    Weyl image mu and confirm that the two cocycles differ by the coboundary
    of the x(mu) witness."""
    if theta is not None and not theta.commutes_with(mu):
        raise RootDatumError("mu is not fixed by the automorphism")
    one = adata.one
    witness = x_of(datum, mu, adata, one)
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
    for k in range(descent.order):
        lhs = lift * m_prime[k] * descent.galois_on_tits(k, lift).inverse()
        coboundary = witness.inv() * descent.galois_on_torus_twisted(k, witness, one)
        rhs = TitsElement.from_torus(coboundary, datum) * m[k]
        if lhs != rhs:
            raise ADataError(f"Borel-independence identity fails at sigma^{k}")

    checked_matrices = False
    if realization is None:
        c1 = SplittingCocycle("m", m, "T" if theta is None else "T^theta",
                              descent, datum, theta)
        c2 = SplittingCocycle("m", m_prime, "T" if theta is None else "T^theta",
                              descent_prime, datum, theta)
    else:
        ctx = realization.ctx
        f = ctx.field
        if theta is not None:
            c1 = lambda_twisted(datum, theta, descent, adata, realization)
        else:
            c1 = lambda_untwisted(datum, descent, adata, realization)
        h_prime = mat_mul(realization.h, ctx.weyl_lift_matrix(mu))
        realization_prime = Realization(ctx, h_prime, use_theta=realization.use_theta)
        if theta is not None:
            c2 = lambda_twisted(datum, theta, descent_prime, adata_prime, realization_prime)
        else:
            c2 = lambda_untwisted(datum, descent_prime, adata_prime, realization_prime)
        w_mat = mat_prod(realization.h, realize(ctx, witness), realization.h_inv)
        for k in range(descent.order):
            sigma_w = mat_conj_entries(w_mat, f, k)
            want = mat_prod(c1.matrices[k], mat_inv(w_mat, f), sigma_w)
            if not mat_eq(c2.matrices[k], want):
                raise RealizationError(
                    f"matrix coboundary identity fails at sigma^{k}")
        if theta is not None and not ctx.theta_fixed(w_mat):
            raise RealizationError("matrix witness is not theta-fixed")
        checked_matrices = True
    return BorelReport(witness, mu, True, checked_matrices, c1, c2)


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
    out = TorusElement.ones(rrs.datum.rank, one)
    for r in omega.inversions:
        if rrs.restricted[rrs.restrict_root(r.coords)].rtype == R3:
            out = out * TorusElement.cochar_power(r.coroot, half, one)
    return out


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
    realize(m(sigma^k)), so this is the product of equal factors that the
    t-level cocycle forms: it is ``t_cocycle.matrices``, not a recomputation.
    """

    m_values: Dict[int, TitsElement]
    m_prime_values: Dict[int, TitsElement]
    equal_on_the_nose: bool
    matrix_checked: bool
    t_cocycle: Optional[SplittingCocycle] = None
    t_prime_matrices: Optional[Dict[int, tuple]] = None


def restricted_inversions(rrs: RestrictedRootSystem, descent: DescentDatum,
                          k: int) -> Tuple[tuple, ...]:
    """Indivisible positive restricted roots sent negative by the inverse of
    the k-th Galois action, which is the action of sigma^{-k} once the
    descent datum is validated."""
    return rrs.res_inversions(descent.restricted_action(-k, rrs))


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
    if special_adata.domain != "restricted":
        raise ADataError("comparison starts from restricted a-data")
    special_adata.validate()
    special_adata.validate_special()
    special_adata.validate_equivariant(descent)
    descent.validate_theta_compatible(theta)
    one = special_adata.one

    tilde = special_adata.tilde()
    tilde_full = tilde.pullback()
    m = m_cocycle(datum, descent, tilde_full, theta=theta)

    m_prime: Dict[int, TitsElement] = {}
    torus_parts: Dict[int, TorusElement] = {}
    for k in range(descent.order):
        omega_k = descent.weyl_part(k)
        torus = TorusElement.ones(datum.rank, one)
        for beta in restricted_inversions(rrs, descent, k):
            torus = torus * TorusElement.cochar_power(
                rrs.restricted[beta].coroot, special_adata[beta], one)
        torus_parts[k] = torus
        disc = lift_discrepancy(rrs, omega_k, one, special_adata.half)
        m_prime[k] = TitsElement(torus * disc, omega_k)

        # intermediate identity from the coroot comparison: the unhalved
        # torus part over the ambient inversion set equals the restricted one
        plain = TorusElement.ones(datum.rank, one)
        for r in omega_k.inversions:
            plain = plain * TorusElement.cochar_power(
                r.coroot, special_adata[rrs.restrict_root(r.coords)], one)
        if plain != torus:
            raise ADataError(
                f"restricted coroot identity fails at sigma^{k}")

    equal = all(m[k] == m_prime[k] for k in range(descent.order))
    if not equal:
        raise ADataError("the twisted and fixed-subgroup cocycles differ at the m-level")

    matrix_checked = False
    t_cocycle = None
    if ctx is not None:
        # rebuild the fixed-subgroup side genuinely: its own pinned lift
        realized = {}
        for k in range(descent.order):
            lifted = mat_mul(realize(ctx, torus_parts[k]),
                             fixed_group_lift(ctx, rrs, descent.weyl_part(k)))
            realized[k] = realize(ctx, m[k])
            if not mat_eq(lifted, realized[k]):
                raise RealizationError(
                    f"matrix comparison fails at sigma^{k}")
        matrix_checked = True
        if realization is not None:
            t_cocycle = _twisted_t_level(datum, theta, descent, tilde_full, realization,
                                         m, realized)
    return CompareReport(m, m_prime, True, matrix_checked, t_cocycle,
                         t_cocycle.matrices if t_cocycle is not None else None)

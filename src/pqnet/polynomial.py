"""Exact sparse multivariate polynomial arithmetic over the rationals.

All symbolic probability values in this package are polynomials (or
quotients of polynomials) in the model parameters, with exact rational
coefficients.  A process-wide variable registry assigns each symbol a
slot in first-registration order; term display follows graded
lexicographic order over that registry, which reproduces orderings like
``1 - x + x*y`` and ``x - x^2 - x*y + x^2*y``.

Quotients are deliberately kept unreduced: division by zero marks an
impossible condition and must stay visible until display time, when
:func:`simplify_quotient` may rewrite an exactly-divisible quotient into
an "unless" form with an explicit denominator-zero guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

# ---------------------------------------------------------------------------
# Variable registry

_registry: dict[str, int] = {}
_names: list[str] = []


def register(name: str) -> int:
    """Register a variable name (idempotent) and return its slot index."""
    idx = _registry.get(name)
    if idx is None:
        idx = len(_names)
        _registry[name] = idx
        _names.append(name)
    return idx


def var_name(index: int) -> str:
    return _names[index]


def var_index(name: str) -> int:
    try:
        return _registry[name]
    except KeyError:
        raise KeyError(f"unregistered variable: {name!r}") from None


def is_registered(name: str) -> bool:
    return name in _registry


def reset_registry() -> None:
    """Forget all registered variables.  Intended for test isolation."""
    _registry.clear()
    _names.clear()


# A term key is a tuple of (variable index, exponent) pairs, sorted by
# index, with all exponents > 0.  The empty tuple is the constant term.
TermKey = tuple[tuple[int, int], ...]

Rat = Fraction  # coefficients are exact rationals throughout


def _term_sort_key(key: TermKey) -> tuple:
    # graded lex: total degree first, then variable indices with
    # multiplicity (so x^2 sorts before x*y, and x*y before x*z)
    degree = sum(e for _, e in key)
    expanded = tuple(i for i, e in key for _ in range(e))
    return (degree, expanded)


def _mul_keys(a: TermKey, b: TermKey) -> TermKey:
    if not a:
        return b
    if not b:
        return a
    exps: dict[int, int] = dict(a)
    for i, e in b:
        exps[i] = exps.get(i, 0) + e
    return tuple(sorted(exps.items()))


class Polynomial:
    """Immutable sparse multivariate polynomial with rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[TermKey, Fraction] | None = None):
        cleaned = {}
        if terms:
            for key, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff != 0:
                    cleaned[key] = coeff
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(value) -> "Polynomial":
        return Polynomial({(): Fraction(value)})

    @staticmethod
    def variable(name: str) -> "Polynomial":
        idx = register(name)
        return Polynomial({((idx, 1),): Fraction(1)})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(key == () for key in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return self.terms.get((), Fraction(0))

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e for _, e in key) for key in self.terms)

    def variables(self) -> set[str]:
        return {var_name(i) for key in self.terms for i, _ in key}

    def coefficient(self, key: TermKey) -> Fraction:
        return self.terms.get(key, Fraction(0))

    def linear_coefficients(self) -> tuple[Fraction, dict[str, Fraction]]:
        """Split a degree<=1 polynomial into (constant, {var: coeff})."""
        if self.total_degree() > 1:
            raise ValueError(f"not linear: {self}")
        const = self.terms.get((), Fraction(0))
        coeffs = {}
        for key, c in self.terms.items():
            if key:
                coeffs[var_name(key[0][0])] = c
        return const, coeffs

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        if isinstance(other, FractionalPolynomial):
            return NotImplemented
        other = _as_poly(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            terms[key] = terms.get(key, Fraction(0)) + coeff
        return Polynomial(terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial({key: -c for key, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        if isinstance(other, FractionalPolynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, FractionalPolynomial):
            return NotImplemented
        other = _as_poly(other)
        terms: dict[TermKey, Fraction] = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                key = _mul_keys(ka, kb)
                terms[key] = terms.get(key, Fraction(0)) + ca * cb
        return Polynomial(terms)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(1)
        for _ in range(n):
            result = result * self
        return result

    def __truediv__(self, other) -> "FractionalPolynomial":
        """Form an unreduced quotient; 0/0 is a representable value."""
        return FractionalPolynomial(self, _as_poly(other))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    # -- evaluation and substitution ---------------------------------------

    def substitute(self, bindings: dict) -> "Polynomial":
        """Substitute values (rationals or polynomials) for variables.

        Unbound variables remain symbolic.
        """
        if not bindings:
            return self
        index_map = {}
        for name, value in bindings.items():
            if not is_registered(name):
                continue
            if not isinstance(value, Polynomial):
                value = Polynomial.constant(value)
            index_map[var_index(name)] = value
        result = Polynomial()
        for key, coeff in self.terms.items():
            term = Polynomial.constant(coeff)
            for i, e in key:
                repl = index_map.get(i)
                if repl is None:
                    term = term * Polynomial({((i, 1),): Fraction(1)}) ** e
                else:
                    term = term * repl ** e
            result = result + term
        return result

    def evaluate(self, point: dict) -> Fraction:
        """Evaluate at a total assignment of rational values."""
        values = {}
        for name, value in point.items():
            if is_registered(name):
                values[var_index(name)] = Fraction(value)
        total = Fraction(0)
        for key, coeff in self.terms.items():
            term = coeff
            for i, e in key:
                if i not in values:
                    raise KeyError(f"unbound variable: {var_name(i)!r}")
                term *= values[i] ** e
            total += term
        return total

    def reduce_idempotent(self) -> "Polynomial":
        """Apply the special law x^2 = x to every variable (0/1 semantics)."""
        terms: dict[TermKey, Fraction] = {}
        for key, coeff in self.terms.items():
            reduced = tuple((i, 1) for i, _ in key)
            terms[reduced] = terms.get(reduced, Fraction(0)) + coeff
        return Polynomial(terms)

    # -- display -----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[TermKey, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: _term_sort_key(kv[0]))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for pos, (key, coeff) in enumerate(self.sorted_terms()):
            mono = "*".join(
                var_name(i) if e == 1 else f"{var_name(i)}^{e}" for i, e in key
            )
            mag = abs(coeff)
            if not mono:
                body = _format_rat(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{_format_rat(mag)}*{mono}"
            if pos == 0:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def _format_rat(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else str(value)


def _as_poly(value) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    return Polynomial.constant(value)


ZERO = Polynomial()
ONE = Polynomial.constant(1)


# ---------------------------------------------------------------------------
# Fractional polynomials

class FractionalPolynomial:
    """An unreduced quotient of polynomials.

    The pair (0, 0) is the canonical indeterminate value, displayed as
    ``0/0``; any other zero denominator never arises from inference
    (numerators over an impossible condition are zero too).
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: Polynomial, denominator: Polynomial):
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("FractionalPolynomial is immutable")

    def is_indeterminate(self) -> bool:
        return self.numerator.is_zero() and self.denominator.is_zero()

    def evaluate(self, point: dict) -> Fraction:
        den = self.denominator.evaluate(point)
        if den == 0:
            raise ZeroDivisionError("denominator evaluates to zero")
        return self.numerator.evaluate(point) / den

    def substitute(self, bindings: dict) -> "FractionalPolynomial":
        return FractionalPolynomial(
            self.numerator.substitute(bindings),
            self.denominator.substitute(bindings),
        )

    # Cross-multiplication arithmetic; results stay unreduced, so a
    # denominator of 1 times x prints as x, not as a product.
    def __add__(self, other) -> "FractionalPolynomial":
        other = as_quotient(other)
        if self.denominator == other.denominator:
            return FractionalPolynomial(
                self.numerator + other.numerator, self.denominator
            )
        return FractionalPolynomial(
            self.numerator * other.denominator + other.numerator * self.denominator,
            self.denominator * other.denominator,
        )

    __radd__ = __add__

    def __sub__(self, other) -> "FractionalPolynomial":
        other = as_quotient(other)
        if self.denominator == other.denominator:
            return FractionalPolynomial(
                self.numerator - other.numerator, self.denominator
            )
        return FractionalPolynomial(
            self.numerator * other.denominator - other.numerator * self.denominator,
            self.denominator * other.denominator,
        )

    def __rsub__(self, other) -> "FractionalPolynomial":
        return as_quotient(other) - self

    def __mul__(self, other) -> "FractionalPolynomial":
        other = as_quotient(other)
        return FractionalPolynomial(
            self.numerator * other.numerator,
            self.denominator * other.denominator,
        )

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, FractionalPolynomial):
            return NotImplemented
        return (
            self.numerator == other.numerator
            and self.denominator == other.denominator
        )

    def __hash__(self) -> int:
        return hash((self.numerator, self.denominator))

    def __str__(self) -> str:
        if self.is_indeterminate():
            return "0/0"
        return f"({self.numerator}) / ({self.denominator})"

    def __repr__(self) -> str:
        return f"FractionalPolynomial({self})"


def as_quotient(value) -> FractionalPolynomial:
    if isinstance(value, FractionalPolynomial):
        return value
    return FractionalPolynomial(_as_poly(value), ONE)


# ---------------------------------------------------------------------------
# Exact division and the "unless" display form

def exact_divide(numerator: Polynomial, denominator: Polynomial) -> Polynomial | None:
    """Return q with q * denominator == numerator, or None if not exact."""
    if denominator.is_zero():
        return None
    if numerator.is_zero():
        return ZERO
    lead_key, lead_coeff = max(
        denominator.terms.items(), key=lambda kv: _term_sort_key(kv[0])
    )
    remainder = numerator
    quotient_terms: dict[TermKey, Fraction] = {}
    while not remainder.is_zero():
        rkey, rcoeff = max(
            remainder.terms.items(), key=lambda kv: _term_sort_key(kv[0])
        )
        exps = dict(rkey)
        for i, e in lead_key:
            exps[i] = exps.get(i, 0) - e
            if exps[i] < 0:
                return None
        qkey = tuple(sorted((i, e) for i, e in exps.items() if e > 0))
        qcoeff = rcoeff / lead_coeff
        quotient_terms[qkey] = quotient_terms.get(qkey, Fraction(0)) + qcoeff
        remainder = remainder - Polynomial({qkey: qcoeff}) * denominator
    return Polynomial(quotient_terms)


@dataclass(frozen=True)
class UnlessForm:
    """Display form of a quotient: value, with an undefined-if guard.

    ``guard`` is the denominator whose vanishing makes the value
    undefined; None when the denominator is a nonzero constant (no
    exceptional case).  When the quotient is not exactly divisible,
    ``value`` is the original FractionalPolynomial and no guard is
    rendered.
    """

    value: Polynomial | FractionalPolynomial
    guard: Polynomial | None

    def __str__(self) -> str:
        if isinstance(self.value, FractionalPolynomial):
            return str(self.value)
        if self.guard is None:
            return str(self.value)
        return f"{self.value} unless {_guard_text(self.guard)}"


def _guard_text(denominator: Polynomial) -> str:
    # Render "denominator = 0" with negated terms moved across the equal
    # sign, matching displays like "x*y = x" for the denominator x - x*y.
    negative = Polynomial(
        {k: -c for k, c in denominator.terms.items() if c < 0}
    )
    positive = Polynomial({k: c for k, c in denominator.terms.items() if c > 0})
    if negative.is_zero():
        return f"{positive} = 0"
    return f"{negative} = {positive}"


def simplify_quotient(f: FractionalPolynomial) -> UnlessForm:
    """Reduce an exactly-divisible quotient to "q unless den = 0" form."""
    if f.is_indeterminate():
        raise ValueError("cannot simplify the indeterminate quotient 0/0")
    if f.denominator.is_constant():
        value = f.numerator * Polynomial.constant(
            1 / f.denominator.constant_value()
        )
        return UnlessForm(value, None)
    quotient = exact_divide(f.numerator, f.denominator)
    if quotient is None:
        return UnlessForm(f, f.denominator)
    return UnlessForm(quotient, f.denominator)


# ---------------------------------------------------------------------------
# Polynomials over the binary finite field

class F2Polynomial:
    """Multilinear polynomial over GF(2) with the idempotent law x^2 = x.

    Terms form a set of monomials (each a frozenset of variable
    indices); addition is symmetric difference, so p + p = 0.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: frozenset[frozenset[int]] | None = None):
        object.__setattr__(self, "terms", frozenset(terms or ()))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("F2Polynomial is immutable")

    @staticmethod
    def constant(value: int) -> "F2Polynomial":
        if value % 2 == 0:
            return F2Polynomial()
        return F2Polynomial(frozenset({frozenset()}))

    @staticmethod
    def variable(name: str) -> "F2Polynomial":
        idx = register(name)
        return F2Polynomial(frozenset({frozenset({idx})}))

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "F2Polynomial") -> "F2Polynomial":
        return F2Polynomial(self.terms ^ other.terms)

    def __mul__(self, other: "F2Polynomial") -> "F2Polynomial":
        acc: set[frozenset[int]] = set()
        for a in self.terms:
            for b in other.terms:
                mono = a | b  # union reduces every exponent to 1
                if mono in acc:
                    acc.remove(mono)
                else:
                    acc.add(mono)
        return F2Polynomial(frozenset(acc))

    def __eq__(self, other) -> bool:
        if not isinstance(other, F2Polynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        monos = sorted(
            self.terms, key=lambda m: (len(m), tuple(sorted(m)))
        )
        parts = []
        for mono in monos:
            if not mono:
                parts.append("1")
            else:
                parts.append("*".join(var_name(i) for i in sorted(mono)))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"F2Polynomial({self})"

"""Reference arithmetic for the benchmark, independent of mfkit.

The benchmark builds its input documents and checks mfkit's outputs with
the code in this module alone; it never imports mfkit.

* Polynomials are dicts {exponent tuple: coefficient}.  Coefficients of a
  ``Ring("Qi")`` are Gaussian integers (re, im); those of ``Ring("Fp", p)``
  are residues in [0, p).  Every generated document has integral
  coefficients, so no rationals are needed on the generating side.
* Matrix factorizations are built with the standard tensor construction
  from rank-one factors and printed in mfkit's document format.
* Checks evaluate the printed entry strings at random points modulo a
  prime with a small parser of the documented expression grammar, then
  test s1*s0 = f*id and s0*s1 = f*id with random vectors (Freivalds),
  entry homogeneity by scaling the point, and the declared shape and
  degree lists.
* The rho sweep CSV is recomputed from
  rho(O_X) = 1 + sum_{k=0..n} (-1)^(n-k) * 2^k * C(d, k)
  with ``math.comb``, together with the 2^(e+1) bound.
"""

from __future__ import annotations

import math
import random
import re

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for small in _MR_BASES:
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sqrt_minus_one(p: int) -> int:
    """A square root of -1 modulo a prime p = 1 (mod 4)."""
    for a in range(2, p):
        if pow(a, (p - 1) // 2, p) == p - 1:
            return pow(a, (p - 1) // 4, p)
    raise ValueError(f"no square root of -1 modulo {p}")


def seeded_prime(rng: random.Random) -> int:
    """A prime p = 1 (mod 4) in [2^30, 2^31): every choice prints with
    nine or ten digits, so the seed does not change the work much."""
    while True:
        p = rng.randrange(2**30, 2**31) | 1
        if p % 4 == 1 and is_prime(p):
            return p


def _check_prime() -> int:
    p = 2**61 + 1
    while not (p % 4 == 1 and is_prime(p)):
        p += 4
    return p


# Large prime used to evaluate QQ(i) documents; i maps to CHECK_I.
CHECK_P = _check_prime()
CHECK_I = sqrt_minus_one(CHECK_P)


# ---------------------------------------------------------------------------
# Coefficient rings and polynomials


class Ring:
    """QQ(i) restricted to Gaussian integers, or GF(p)."""

    def __init__(self, kind: str, p: int | None = None):
        self.kind, self.p = kind, p
        if kind == "Qi":
            self.zero, self.one, self.i = (0, 0), (1, 0), (0, 1)
        else:
            self.zero, self.one, self.i = 0, 1, sqrt_minus_one(p)

    def add(self, a, b):
        if self.kind == "Qi":
            return (a[0] + b[0], a[1] + b[1])
        return (a + b) % self.p

    def mul(self, a, b):
        if self.kind == "Qi":
            return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])
        return a * b % self.p

    def neg(self, a):
        if self.kind == "Qi":
            return (-a[0], -a[1])
        return -a % self.p

    def field_json(self) -> dict:
        return {"type": "Qi"} if self.kind == "Qi" else {"type": "Fp", "p": self.p}

    def term_text(self, c) -> tuple[str, str, bool]:
        """(sign, magnitude text, magnitude is one) in mfkit's printing
        convention: only real Gaussian and rational values carry a sign."""
        if self.kind == "Fp":
            return "+", str(c), c == 1
        re_, im = c
        if im:
            return "+", f"({re_} {'+' if im > 0 else '-'} {abs(im)}*i)", False
        return ("-" if re_ < 0 else "+"), str(abs(re_)), abs(re_) == 1


def p_add(ring: Ring, a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = ring.add(out[e], c) if e in out else c
        if s == ring.zero:
            out.pop(e, None)
        else:
            out[e] = s
    return out


def p_mul(ring: Ring, a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            c = ring.mul(c1, c2)
            out[e] = ring.add(out[e], c) if e in out else c
    return {e: c for e, c in out.items() if c != ring.zero}


def p_scale(ring: Ring, a: dict, c) -> dict:
    return {e: ring.mul(v, c) for e, v in a.items()}


def p_neg(ring: Ring, a: dict) -> dict:
    return {e: ring.neg(v) for e, v in a.items()}


def p_monomial(ring: Ring, nvars: int, index: int, power: int) -> dict:
    return {tuple(power if k == index else 0 for k in range(nvars)): ring.one}


def p_const(ring: Ring, nvars: int, coeff) -> dict:
    return {(0,) * nvars: coeff}


def p_degree(a: dict) -> int:
    return max(sum(e) for e in a)


def p_text(ring: Ring, a: dict) -> str:
    """Print in mfkit's canonical form: graded lex order, highest degree
    first, explicit '*' and '^'."""
    if not a:
        return "0"
    pieces = []
    for e in sorted(a, key=lambda e: (-sum(e), tuple(-x for x in e))):
        sign, mag, unit = ring.term_text(a[e])
        mono = "*".join(f"x{k}" if x == 1 else f"x{k}^{x}" for k, x in enumerate(e) if x)
        body = mag if not mono else (mono if unit else f"{mag}*{mono}")
        if not pieces:
            pieces.append(body if sign == "+" else "-" + body)
        else:
            pieces.append(f" {sign} {body}")
    return "".join(pieces)


# ---------------------------------------------------------------------------
# Matrix factorizations


class RefMF:
    """(f, F0 degrees, F1 degrees, s0, s1); s0 is len(F1) x len(F0) and
    s1 is len(F0) x len(F1), entries are polynomial dicts."""

    def __init__(self, ring, nvars, f, d, f0, f1, s0, s1):
        self.ring, self.nvars, self.f, self.d = ring, nvars, f, d
        self.f0, self.f1, self.s0, self.s1 = f0, f1, s0, s1

    @property
    def rank(self) -> int:
        return len(self.f0)

    def document(self) -> dict:
        text = lambda grid: [[p_text(self.ring, e) for e in row] for row in grid]
        return {
            "schema": "mfkit/mf-v1",
            "field": self.ring.field_json(),
            "nvars": self.nvars,
            "f": p_text(self.ring, self.f),
            "d": self.d,
            "F0_degrees": list(self.f0),
            "F1_degrees": list(self.f1),
            "s0": text(self.s0),
            "s1": text(self.s1),
        }


def _mk(ring, nvars, f, d, f0, f1, s0, s1) -> RefMF:
    # Sort both generator lists stably, permuting rows and columns to match.
    p0 = sorted(range(len(f0)), key=lambda k: (f0[k], k))
    p1 = sorted(range(len(f1)), key=lambda k: (f1[k], k))
    return RefMF(
        ring, nvars, f, d,
        [f0[k] for k in p0], [f1[k] for k in p1],
        [[s0[r][c] for c in p0] for r in p1],
        [[s1[r][c] for c in p1] for r in p0],
    )


def rank_one(ring, nvars, f, d, u, v) -> RefMF:
    return _mk(ring, nvars, f, d, [p_degree(u)], [0], [[u]], [[v]])


def direct_sum(F: RefMF, G: RefMF) -> RefMF:
    zero = {}
    s0 = [row + [zero] * G.rank for row in F.s0] + [[zero] * F.rank + row for row in G.s0]
    s1 = [row + [zero] * G.rank for row in F.s1] + [[zero] * F.rank + row for row in G.s1]
    return _mk(F.ring, F.nvars, F.f, F.d, F.f0 + G.f0, F.f1 + G.f1, s0, s1)


def _kron(ring, a, b):
    rows_b, cols_b = len(b), len(b[0]) if b else 0
    out = [[{} for _ in range(len(a[0]) * cols_b)] for _ in range(len(a) * rows_b)]
    for ia, arow in enumerate(a):
        for ja, x in enumerate(arow):
            if not x:
                continue
            for ib, brow in enumerate(b):
                for jb, y in enumerate(brow):
                    if y:
                        out[ia * rows_b + ib][ja * cols_b + jb] = p_mul(ring, x, y)
    return out


def _eye(ring, nvars, n):
    one = p_const(ring, nvars, ring.one)
    return [[one if r == c else {} for c in range(n)] for r in range(n)]


def _block(tl, tr, bl, br):
    return [a + b for a, b in zip(tl, tr)] + [a + b for a, b in zip(bl, br)]


def tensor(F: RefMF, G: RefMF) -> RefMF:
    """Tensor product factoring f + g, with the block convention

        t0 = [[A0 x I, I x B1], [I x B0, -A1 x I]]
        t1 = [[A1 x I, I x B1], [I x B0, -A0 x I]]
    """
    ring, nvars, d = F.ring, F.nvars, F.d
    A0, A1, B0, B1 = F.s0, F.s1, G.s0, G.s1
    eF0, eF1 = _eye(ring, nvars, len(F.f0)), _eye(ring, nvars, len(F.f1))
    eG0, eG1 = _eye(ring, nvars, len(G.f0)), _eye(ring, nvars, len(G.f1))
    neg = lambda grid: [[p_neg(ring, e) for e in row] for row in grid]
    t0 = _block(_kron(ring, A0, eG0), _kron(ring, eF1, B1),
                _kron(ring, eF0, B0), neg(_kron(ring, A1, eG1)))
    t1 = _block(_kron(ring, A1, eG0), _kron(ring, eF0, B1),
                _kron(ring, eF1, B0), neg(_kron(ring, A0, eG1)))
    t0_deg = [a + b for a in F.f0 for b in G.f0] + [u + v + d for u in F.f1 for v in G.f1]
    t1_deg = [u + b for u in F.f1 for b in G.f0] + [a + v for a in F.f0 for v in G.f1]
    return _mk(ring, nvars, p_add(ring, F.f, G.f), d, t0_deg, t1_deg, t0, t1)


def twist_normalized(F: RefMF) -> RefMF:
    """Twist so that the smallest F1 degree is 0."""
    t = min(F.f1) if F.f1 else 0
    return RefMF(F.ring, F.nvars, F.f, F.d, [m - t for m in F.f0],
                 [m - t for m in F.f1], F.s0, F.s1)


def pair_factor(ring, nvars, x, y, m) -> RefMF:
    """(x^m + i*y^m, x^m - i*y^m), a rank-one factorization of x^2m + y^2m."""
    xm, ym = p_monomial(ring, nvars, x, m), p_monomial(ring, nvars, y, m)
    iy = p_scale(ring, ym, ring.i)
    f = p_add(ring, p_mul(ring, xm, xm), p_mul(ring, ym, ym))
    return rank_one(ring, nvars, f, 2 * m, p_add(ring, xm, iy), p_add(ring, xm, p_neg(ring, iy)))


def trivial_one_f(F: RefMF) -> RefMF:
    """The rank-one trivial factorization (1, f) of F's polynomial."""
    one = p_const(F.ring, F.nvars, F.ring.one)
    return _mk(F.ring, F.nvars, F.f, F.d, [0], [0], [[one]], [[F.f]])


def fermat(ring, nvars, pairs, m, perm=None, *, split_first=False, normalize=True) -> RefMF:
    """Tensor of rank-one pair factors on variables perm[2j], perm[2j+1];
    with ``split_first`` the first factor is summed with its trivial
    factorization (1, f_0), which doubles the rank and leaves exactly
    half of the generators splittable."""
    perm = perm or list(range(nvars))
    factors = [pair_factor(ring, nvars, perm[2 * j], perm[2 * j + 1], m) for j in range(pairs)]
    if split_first:
        factors[0] = direct_sum(factors[0], trivial_one_f(factors[0]))
    result = factors[0]
    for factor in factors[1:]:
        result = tensor(result, factor)
    return twist_normalized(result) if normalize else result


# ---------------------------------------------------------------------------
# Evaluation of printed polynomials


_TOKEN = re.compile(r"\s*(?:(\d+)|x(\d+)|(i)|([-+*/^()]))")


class _Eval:
    """Evaluate an expression of mfkit's polynomial grammar at a point
    modulo a prime q (i evaluates to ``imag``)."""

    def __init__(self, text, point, q, imag):
        self.toks, pos = [], 0
        text = text.rstrip()
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m:
                raise ValueError(f"bad character at {pos} in {text!r}")
            self.toks.append(m.groups())
            pos = m.end()
        self.k, self.point, self.q, self.imag = 0, point, q, imag

    def peek(self, op):
        return self.k < len(self.toks) and self.toks[self.k][3] == op

    def take(self, op):
        if not self.peek(op):
            raise ValueError(f"expected {op!r}")
        self.k += 1

    def run(self) -> int:
        v = self.expr()
        if self.k != len(self.toks):
            raise ValueError("trailing tokens")
        return v

    def expr(self):
        v = self.term()
        while self.peek("+") or self.peek("-"):
            sign = self.toks[self.k][3]
            self.k += 1
            w = self.term()
            v = (v + w if sign == "+" else v - w) % self.q
        return v

    def term(self):
        v = self.signed()
        while self.peek("*"):
            self.k += 1
            v = v * self.signed() % self.q
        return v

    def signed(self):
        neg = False
        while self.peek("+") or self.peek("-"):
            neg ^= self.toks[self.k][3] == "-"
            self.k += 1
        v = self.atom()
        if self.peek("^"):
            self.k += 1
            v = pow(v, int(self.number()), self.q)
        return -v % self.q if neg else v

    def number(self):
        if self.k >= len(self.toks) or self.toks[self.k][0] is None:
            raise ValueError("expected a number")
        self.k += 1
        return self.toks[self.k - 1][0]

    def atom(self):
        if self.k >= len(self.toks):
            raise ValueError("unexpected end")
        num, var, imag, op = self.toks[self.k]
        if op == "(":
            self.k += 1
            v = self.expr()
            self.take(")")
            return v
        self.k += 1
        if num is not None:
            v = int(num) % self.q
            if self.peek("/"):
                self.k += 1
                v = v * pow(int(self.number()), -1, self.q) % self.q
            return v
        if var is not None:
            return self.point[int(var)]
        if imag is not None and self.imag is not None:
            return self.imag
        raise ValueError("unexpected token in expression")


def evaluate(text: str, point, q: int, imag: int | None) -> int:
    return _Eval(text, point, q, imag).run()


# ---------------------------------------------------------------------------
# Output checks


def check_mf_document(doc, *, field: dict, nvars: int, d: int, rank: int,
                      f0: list | None = None, f1: list | None = None,
                      rng: random.Random, trials: int = 2) -> list[str]:
    """Problems with a factorization document of the Fermat-type
    polynomial sum_k x_k^d; empty when it checks out."""
    problems = []
    try:
        if doc.get("schema") != "mfkit/mf-v1":
            return [f"schema {doc.get('schema')!r}"]
        for key, want in (("field", field), ("nvars", nvars), ("d", d)):
            if doc.get(key) != want:
                problems.append(f"{key} = {doc.get(key)!r}, expected {want!r}")
        F0, F1 = doc["F0_degrees"], doc["F1_degrees"]
        if len(F0) != rank or len(F1) != rank:
            problems.append(f"ranks {len(F0)}/{len(F1)}, expected {rank}")
        if f0 is not None and F0 != f0:
            problems.append("F0 degrees differ from the expected list")
        if f1 is not None and F1 != f1:
            problems.append("F1 degrees differ from the expected list")
        if F0 != sorted(F0) or F1 != sorted(F1):
            problems.append("degree lists are not sorted")
        s0, s1 = doc["s0"], doc["s1"]
        if len(s0) != len(F1) or any(len(row) != len(F0) for row in s0):
            problems.append("s0 has the wrong shape")
        if len(s1) != len(F0) or any(len(row) != len(F1) for row in s1):
            problems.append("s1 has the wrong shape")
        if problems:
            return problems
        q = CHECK_P if field["type"] == "Qi" else field["p"]
        imag = CHECK_I if field["type"] == "Qi" else None
        for _ in range(trials):
            problems += _check_at_random_point(doc, q, imag, nvars, d, rng)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        problems.append(f"unreadable document: {exc!r}")
    return problems


def _check_at_random_point(doc, q, imag, nvars, d, rng) -> list[str]:
    point = [rng.randrange(1, q) for _ in range(nvars)]
    lam = rng.randrange(2, q)
    scaled = [lam * z % q for z in point]
    memo: dict = {}

    def value(text, at):
        key = (text, at is scaled)
        if key not in memo:
            memo[key] = evaluate(text, at, q, imag)
        return memo[key]

    problems = []
    fval = value(doc["f"], point)
    if fval != sum(pow(z, d, q) for z in point) % q:
        problems.append("f is not sum_k x_k^d")
    F0, F1 = doc["F0_degrees"], doc["F1_degrees"]
    mats = {}
    for name, grid, src, tgt in (("s0", doc["s0"], F0, F1), ("s1", doc["s1"], [m + d for m in F1], F0)):
        vals = []
        for r, row in enumerate(grid):
            out = []
            for c, text in enumerate(row):
                v = value(text, point)
                deg = src[c] - tgt[r]
                if v and (deg < 0 or value(text, scaled) != v * pow(lam, deg, q) % q):
                    problems.append(f"{name}[{r}][{c}] is not homogeneous of degree {deg}")
                out.append(v)
            vals.append(out)
        mats[name] = vals
    S0, S1 = mats["s0"], mats["s1"]

    def apply(m, vec):
        return [sum(a * b for a, b in zip(row, vec)) % q for row in m]

    for name, outer, inner, n in (("s1*s0", S1, S0, len(F0)), ("s0*s1", S0, S1, len(F1))):
        vec = [rng.randrange(q) for _ in range(n)]
        if apply(outer, apply(inner, vec)) != [fval * x % q for x in vec]:
            problems.append(f"{name} != f*id at a random point")
    return problems


def rho_structure_sheaf_table(n_max: int, d_max: int) -> dict:
    """{(n, d): rho(O_X)} for 1 <= n <= n_max, n < d <= d_max, from the
    alternating sum, accumulated over k for each d."""
    out = {}
    for d in range(2, d_max + 1):
        s = 0
        for n in range(0, min(n_max, d - 1) + 1):
            s = 2**n * math.comb(d, n) - s   # sum_{k<=n} (-1)^(n-k) 2^k C(d,k)
            if n:
                out[(n, d)] = 1 + s
    return out


def sweep_csv(n_max: int, d_max: int) -> str:
    """The expected CSV of ``sweep rho-structure-sheaf``."""
    rho = rho_structure_sheaf_table(n_max, d_max)
    lines = ["n,d,a,e,rho,bound,pass"]
    for n in range(1, n_max + 1):
        e = n // 2
        bound = 2 ** (e + 1)
        for d in range(n + 1, d_max + 1):
            r = rho[(n, d)]
            lines.append(f"{n},{d},{n + 1 - d},{e},{r},{bound},{'true' if r >= bound else 'false'}")
    return "\n".join(lines) + "\n"


def check_sweep(text: str, n_max: int, d_max: int) -> list[str]:
    expected = sweep_csv(n_max, d_max)
    if text == expected:
        return []
    got, want = text.splitlines(), expected.splitlines()
    bad = sum(1 for a, b in zip(got, want) if a != b) + abs(len(got) - len(want))
    return [f"sweep CSV differs from the reference on {bad} of {len(want)} lines"]

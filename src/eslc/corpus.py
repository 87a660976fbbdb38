"""Built-in program corpus: source texts, reference oracles, and input
samplers for the differential harness.  A sampler draws only the source
evaluator's arguments; harness.to_target derives the target's."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .evaluate import varr
from .harness import to_target

LOG2 = """
log2' : {m : Nat} -> (n : Nat) -> n < m -> Nat
log2' {m} 0 _ = 0
log2' {m} 1 _ = 0
log2' {suc m} (suc x) _ = 1 + log2' {m} ((1 + x) / 2) prf

log2 : Nat -> Nat
log2 x = log2' {1 + x} x prf
"""

ACK = """
ack : Nat -> Nat -> Nat
ack 0 n = 1 + n
ack (suc m) 0 = ack m 1
ack (suc m) (suc n) = ack m (ack (suc m) n)
"""

EX7 = """
ex7 : (n : Nat) -> Fin (1 + n * n)
ex7 n = fromN< (n<1+n (n * n))

exlt : (a b : Nat) -> a < b -> Nat
exlt a b p = b - a

exfin : (n : Nat) -> Fin n -> Nat
exfin n i = n - toN i

ex11 : (n : Nat) -> n < 0 -> Nat
ex11 n ()
"""

SHARING = """
ex8 : Nat -> Nat
ex8 x = let a = x * x + 3 * x + 5 in a + a

fibstep : Nat -> Nat -> Nat -> Nat
fibstep 0 m n = m
fibstep (suc k) m n = let m2 = n in let n2 = m + n in fibstep k m2 n2

fib : Nat -> Nat
fib n = fibstep n 0 1
"""

REWRITES = """
plus-0 : (x : Nat) -> x + 0 ≡ x
plus-0 x = prf

sum-square : (x y : Nat) -> x * x + 2 * x * y + y * y ≡ (x + y) * (x + y)
sum-square x y = prf

map : (Nat -> Nat) -> List Nat -> List Nat
map f [] = []
map f (x ∷ xs) = (f x) ∷ map f xs

comp : (Nat -> Nat) -> (Nat -> Nat) -> Nat -> Nat
comp f g x = f (g x)

{-# TRUST map-comp #-}

map-comp : (f g : Nat -> Nat) -> (xs : List Nat) -> map f (map g xs) ≡ map (comp f g) xs
map-comp f g xs = prf

{-# REWRITE plus-0 #-}
{-# REWRITE map-comp #-}
"""

PLUS_SUC_0 = """
plus-suc-0 : (x : Nat) -> (suc x) + 0 ≡ suc x
plus-suc-0 x = prf

{-# REWRITE plus-suc-0 #-}
"""

FUSION = """
fuse2 : {m n : Nat} -> Ar Nat 2 (n ∷ m ∷ []) -> Ar Nat 2 (m ∷ n ∷ []) -> Ar Nat 2 (m ∷ n ∷ [])
fuse2 a b = (transpose a) +a (b *a b)
"""

BROADCAST = """
bvv : Ar Nat 1 (3 ∷ [])
bvv = fromVec (1 ∷ 2 ∷ 3 ∷ []) +a fromVec (1 ∷ 2 ∷ 3 ∷ [])

bvs : Ar Nat 1 (3 ∷ [])
bvs = fromVec (1 ∷ 2 ∷ 3 ∷ []) +a 1

bsv : Ar Nat 1 (3 ∷ [])
bsv = 1 +a fromVec (1 ∷ 2 ∷ 3 ∷ [])
"""

BROADCAST_BAD = """
bad : Ar Nat 1 (4 ∷ [])
bad = fromVec (1 ∷ 2 ∷ 3 ∷ 4 ∷ []) +a fromVec (1 ∷ 2 ∷ 3 ∷ [])
"""

ROTATE = """
rot-there-and-back : {n : Nat} -> Nat -> Ar Float 1 (n ∷ []) -> Ar Float 1 (n ∷ [])
rot-there-and-back k a = rotr k (rotl k a)
"""


# --------------------------------------------------------------------------
# oracles


def oracle_log2(n: int) -> int:
    return int(math.log2(n)) if n > 0 else 0


@cache
def oracle_ack(m: int, n: int) -> int:
    if m == 0:
        return n + 1
    if n == 0:
        return oracle_ack(m - 1, 1)
    return oracle_ack(m - 1, oracle_ack(m, n - 1))


def oracle_logistic(w: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-w))


def oracle_meansqerr(a: np.ndarray, w: np.ndarray) -> float:
    return float(((a - w) ** 2).sum() / 2.0)


def oracle_backavgpool(w: np.ndarray) -> np.ndarray:
    return np.repeat(np.repeat(w / 4.0, 2, axis=0), 2, axis=1)


def oracle_avgpool(w: np.ndarray) -> np.ndarray:
    h, c = w.shape[0] // 2, w.shape[1] // 2
    out = np.empty((h, c))
    for i in range(h):
        for j in range(c):
            out[i, j] = w[2 * i:2 * i + 2, 2 * j:2 * j + 2].mean()
    return out


# --------------------------------------------------------------------------
# the differential corpus


@dataclass
class CorpusEntry:
    """A corpus program, diffed on its own inputs: draw(rng) gives the
    source evaluator's arguments of one sample, and sampler(rng) gives
    them as (eval_args, target_args), the second half by to_target."""
    name: str
    entry: str
    backend: str  # "kaleid" | "sac"
    sources: list = field(default_factory=list)  # extra (path, text) pairs
    base: list = field(default_factory=list)
    draw: object = None

    def sampler(self, rng):
        args = self.draw(rng)
        return args, [to_target(a) for a in args]


def _s_log2(rng):
    return [rng.randrange(0, 1025)]


def _s_ack(rng):
    m = rng.randrange(0, 4)
    n = rng.randrange(0, 7 if m < 3 else 5)  # keep the deep case tractable
    return [m, n]


def _s_ex7(rng):
    return [rng.randrange(0, 60)]


def _s_fib(rng):
    return [rng.randrange(0, 25)]


def _rand_arr(rng, shape):
    return varr(shape, [rng.uniform(-4.0, 4.0) for _ in range(math.prod(shape))])


def _s_logistic(rng):
    d = rng.randrange(1, 4)
    shape = tuple(rng.randrange(1, 5) for _ in range(d))
    return [d, shape, _rand_arr(rng, shape)]


def _s_meansqerr(rng):
    d = rng.randrange(1, 3)
    shape = tuple(rng.randrange(1, 5) for _ in range(d))
    return [d, shape, _rand_arr(rng, shape), _rand_arr(rng, shape)]


def _s_backavgpool(rng):
    shape = (rng.randrange(1, 7), rng.randrange(1, 7))
    return [shape, _rand_arr(rng, shape)]


def _s_avgpool(rng, hi: int = 8):
    half = (rng.randrange(1, hi + 1), rng.randrange(1, hi + 1))
    return [half, _rand_arr(rng, (2 * half[0], 2 * half[1]))]


def _s_fuse2(rng):
    m, n = rng.randrange(1, 5), rng.randrange(1, 5)
    a = [rng.randrange(0, 30) for _ in range(n * m)]
    b = [rng.randrange(0, 30) for _ in range(m * n)]
    return [m, n, varr((n, m), a), varr((m, n), b)]


def _s_matmul(rng):
    a, b, c = (rng.randrange(1, 5) for _ in range(3))
    x = [rng.randrange(0, 12) for _ in range(a * b)]
    y = [rng.randrange(0, 12) for _ in range(b * c)]
    return [a, b, c, varr((a, b), x), varr((b, c), y)]


def _s_rotate(rng):
    n = rng.randrange(1, 9)
    k = rng.randrange(0, 20)
    return [n, k, _rand_arr(rng, (n,))]


CORPUS: dict[str, CorpusEntry] = {
    "log2": CorpusEntry("log2", "log2", "kaleid", [("log2.esl", LOG2)],
                        base=["n<1+n", "_<_"], draw=_s_log2),
    "ack": CorpusEntry("ack", "ack", "kaleid", [("ack.esl", ACK)],
                       draw=_s_ack),
    "ex7": CorpusEntry("ex7", "ex7", "kaleid", [("ex7.esl", EX7)],
                       draw=_s_ex7),
    "fib": CorpusEntry("fib", "fib", "kaleid", [("fib.esl", SHARING)],
                       draw=_s_fib),
    "logistic": CorpusEntry("logistic", "logistic", "sac",
                            draw=_s_logistic),
    "meansqerr": CorpusEntry("meansqerr", "meansqerr", "sac",
                             draw=_s_meansqerr),
    "backavgpool": CorpusEntry("backavgpool", "backavgpool", "sac",
                               draw=_s_backavgpool),
    "avgpool": CorpusEntry("avgpool", "avgpool", "sac", draw=_s_avgpool),
    "fuse2": CorpusEntry("fuse2", "fuse2", "sac", [("fuse2.esl", FUSION)],
                         draw=_s_fuse2),
    "matmul": CorpusEntry("matmul", "matmul", "sac", draw=_s_matmul),
    "rotate": CorpusEntry("rotate", "rot-there-and-back", "sac",
                          [("rotate.esl", ROTATE)], draw=_s_rotate),
}

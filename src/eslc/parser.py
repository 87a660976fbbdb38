"""Parser for `.esl` source files.

The syntax is line oriented: a declaration starts in column zero and
continuation lines are indented.  Tokens are whitespace separated except
for the self-delimiting characters ``(){};\\``.  Infix operators come from
a fixed table that `infixl`/`infixr`/`infix` declarations in the module
header may extend.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

from .ir import EslError


class SyntaxErrorAt(EslError):
    def __init__(self, msg: str, line: int, col: int = 0):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


# --------------------------------------------------------------------------
# surface syntax trees


@dataclass
class SName:
    name: str
    line: int = 0


@dataclass
class SNum:
    value: int


@dataclass
class SFloat:
    value: float


@dataclass
class SApp:
    fn: "SExpr"
    args: list  # (expr, hidden)


@dataclass
class SLam:
    binder: str
    body: "SExpr"


@dataclass
class SLamPat:
    comps: list[str]  # index components, last pattern part must be []
    body: "SExpr"


@dataclass
class SLet:
    name: str
    bound: "SExpr"
    body: "SExpr"


@dataclass
class SPi:
    binder: str
    hidden: bool
    domain: "SExpr"
    codomain: "SExpr"


SExpr = SName | SNum | SFloat | SApp | SLam | SLamPat | SLet | SPi


@dataclass
class SPat:
    kind: str  # "var" | "wild" | "lit" | "con" | "absurd"
    name: str = ""
    value: int | float = 0
    args: list = field(default_factory=list)  # (SPat, hidden)


@dataclass
class SSignature:
    name: str
    type: SExpr
    line: int


@dataclass
class SClause:
    name: str
    pats: list  # (SPat, hidden)
    body: SExpr | None
    line: int


@dataclass
class SPragma:
    kind: str  # REWRITE | TRUST
    names: list[str]
    line: int


@dataclass
class SFixity:
    assoc: str
    level: int
    name: str


@dataclass
class SourceModule:
    path: str
    decls: list


# --------------------------------------------------------------------------
# tokens

# blanks and comments, then a self-delimiting character, a run of anything
# else but space, or the end of the text
_TOKEN = re.compile(r"\s*(?:--.*\s*)*([(){};\\]|[^\s(){};\\]+|\Z)")
_ALIASES = {"::": "∷", "→": "->", "λ": "\\"}
RESERVED = {"let", "in", ":", "=", "->", "\\", "(", ")", "{", "}", ";",
            "infixl", "infixr", "infix", "_"}
# the tokens that end an application's arguments, None ending a declaration
_APP_ENDS = frozenset({None, ")", "}", "=", "->", "in", ";", ":"})


# --------------------------------------------------------------------------
# operator table

DEFAULT_FIXITY: dict[str, tuple[str, int]] = {
    "_≡_": ("none", 4), "_<_": ("none", 4), "_≟_": ("none", 4), "_<?_": ("none", 4),
    "_∷_": ("right", 5),
    "_+_": ("left", 6), "_-_": ("left", 6),
    "_+f_": ("left", 6), "_-f_": ("left", 6),
    "_+a_": ("left", 6), "_-a_": ("left", 6),
    "_*_": ("left", 7), "_/_": ("left", 7), "_%_": ("left", 7),
    "_*f_": ("left", 7), "_/f_": ("left", 7),
    "_*a_": ("left", 7), "_/a_": ("left", 7),
    "_*v_": ("left", 7),
}


def parse(src: str, path: str = "<string>") -> SourceModule:
    return SourceModule(path, _Parser(src).module())


def _parse_pragma(flat: str, line: int) -> SPragma:
    if not flat.endswith("#-}"):
        raise SyntaxErrorAt("unterminated pragma", line)
    inner = flat[3:-3].split()
    if not inner or inner[0] not in ("REWRITE", "TRUST"):
        raise SyntaxErrorAt(f"unknown pragma {inner[:1]}", line)
    return SPragma(inner[0], inner[1:], line)


def _parse_fixity(toks: list[str], line: int) -> SFixity:
    if len(toks) != 3 or not toks[1].isdigit():
        raise SyntaxErrorAt("malformed fixity declaration", line)
    name = toks[2]
    if not (name.startswith("_") and name.endswith("_")):
        raise SyntaxErrorAt("fixity declares names of the form _op_", line)
    assoc = {"infixl": "left", "infixr": "right", "infix": "none"}[toks[0]]
    return SFixity(assoc, int(toks[1]), name)


def _has_absurd_s(p: SPat) -> bool:
    if p.kind == "absurd":
        return True
    return any(_has_absurd_s(sp) for sp, _ in p.args)


# --------------------------------------------------------------------------
# recursive descent core


class _Parser:
    """Recursive descent over a module's tokens, one declaration at a time.
    A declaration starts with a token in column zero; `toks` holds its
    tokens followed by None, and `base` is the index of its first token
    in the module's.  Positions become line and column only for an error
    and for the line a tree carries."""

    def __init__(self, src: str):
        self.src = src
        found = list(_TOKEN.finditer(src))
        self.texts = [_ALIASES.get(m[1], m[1]) for m in found]
        self.starts = [m.start(1) for m in found]
        # the offset just past each line, counting lines as splitlines does
        self.line_ends = list(accumulate(map(len, src.splitlines(True))))
        self.ops = {name.strip("_"): (name, assoc, level)
                    for name, (assoc, level) in DEFAULT_FIXITY.items()}
        self.toks: list = [None]
        self.base = self.pos = 0

    def module(self) -> list:
        n = self.texts.index("")  # the tokens before the end of the text
        index = dict(zip(self.starts[:n], range(n)))
        heads = [index[p] for p in (0, *self.line_ends) if p in index] + [n]
        if heads[0]:  # a token before the first in column zero
            raise SyntaxErrorAt("continuation line with no declaration", self.line(0))
        decls: list = []
        for i, j in zip(heads, heads[1:]):
            self.toks, self.base, self.pos = self.texts[i:j] + [None], i, 0
            decls.append(self.declaration())
        return decls

    def line(self, k: int) -> int:
        """The line of the current declaration's k-th token."""
        return bisect_right(self.line_ends, self.starts[self.base + k]) + 1

    def fail(self, msg: str, k: int):
        line = self.line(k)
        start = self.line_ends[line - 2] if line > 1 else 0
        raise SyntaxErrorAt(msg, line, self.starts[self.base + k] - start)

    def declaration(self):
        toks, line, start = self.toks, self.line(0), self.starts[self.base]
        head = toks[0]
        if self.src.startswith("{-#", start):
            # a pragma runs to the end of the line of its last token
            end = self.line_ends[self.line(len(toks) - 2) - 1]
            return _parse_pragma(" ".join(self.src[start:end].split()), line)
        if head in ("infixl", "infixr", "infix"):
            fix = _parse_fixity(toks[:-1], line)
            self.ops[fix.name.strip("_")] = (fix.name, fix.assoc, fix.level)
            return fix
        if head in RESERVED:
            raise SyntaxErrorAt(f"declaration cannot start with {head!r}", line)
        self.pos = 1
        if ":" in toks and toks.index(":") < (toks.index("=") if "=" in toks else len(toks)):
            self.expect(":")
            ty = self.type_expr()
            self.expect_end()
            return SSignature(head, ty, line)
        pats: list = []
        while self.toks[self.pos] not in (None, "="):
            pats.append(self.pattern_atom())
        if self.toks[self.pos] is None:
            if any(isinstance(sp, SPat) and _has_absurd_s(sp) for sp, _ in pats):
                return SClause(head, pats, None, line)
            raise SyntaxErrorAt("clause lacks '=' and a body", line)
        self.pos += 1
        body = self.expr(0)
        self.expect_end()
        return SClause(head, pats, body, line)

    def take(self) -> str:
        t = self.toks[self.pos]
        if t is None:
            self.fail("unexpected end of declaration", self.pos - 1)
        self.pos += 1
        return t

    def expect(self, text: str) -> None:
        t = self.take()
        if t != text:
            self.fail(f"expected {text!r}, found {t!r}", self.pos - 1)

    def expect_end(self) -> None:
        t = self.toks[self.pos]
        if t is not None:
            self.fail(f"unexpected trailing {t!r}", self.pos)

    # -- types ---------------------------------------------------------------

    def type_expr(self) -> SExpr:
        dom_binders, dom = self._type_factor()
        if self.toks[self.pos] == "->":
            self.pos += 1
            cod = self.type_expr()
            if dom_binders is not None:
                for name, hidden, ty in reversed(dom_binders):
                    cod = SPi(name, hidden, ty, cod)
                return cod
            return SPi("_", False, dom, cod)
        if dom_binders is not None:
            self.fail("binder group must be followed by ->",
                      min(self.pos, len(self.toks) - 2))
        return dom

    def _type_factor(self):
        """Either a binder group `(x y : T)` / `{x : T}` or a plain type."""
        if self.toks[self.pos] in ("(", "{"):
            close = ")" if self.toks[self.pos] == "(" else "}"
            hidden = close == "}"
            save = self.pos
            self.pos += 1
            names = []
            while _is_name(self.toks[self.pos]):
                names.append(self.take())
            if self.toks[self.pos] == ":" and names:
                self.pos += 1
                ty = self.type_expr()
                self.expect(close)
                return [(n, hidden, ty) for n in names], None
            self.pos = save
        return None, self.expr(0)

    # -- expressions -----------------------------------------------------------

    def expr(self, min_level: int) -> SExpr:
        lhs = self.app_expr()
        while True:
            op = self.ops.get(self.toks[self.pos])
            if op is None or op[2] < min_level:
                return lhs
            name, assoc, level = op
            self.pos += 1
            rhs = self.expr(level if assoc == "right" else level + 1)
            lhs = SApp(SName(name), [(lhs, False), (rhs, False)])

    def app_expr(self) -> SExpr:
        fn = self.atom()
        args = []
        toks, ops = self.toks, self.ops
        while True:
            nxt = toks[self.pos]
            if nxt in _APP_ENDS or nxt in ops:
                break
            if nxt == "{":
                self.pos += 1
                e = self.expr(0)
                self.expect("}")
                args.append((e, True))
                continue
            args.append((self.atom(), False))
        return SApp(fn, args) if args else fn

    def atom(self) -> SExpr:
        text = self.take()
        if text in RESERVED:
            if text == "(":
                e = self.expr(0)
                while self.toks[self.pos] == "->":  # parenthesized function type
                    self.pos += 1
                    e = SPi("_", False, e, self.type_expr())
                self.expect(")")
                return e
            if text == "\\":
                return self._lambda()
            if text == "let":
                name = self.take()
                self.expect("=")
                bound = self.expr(0)
                self.expect("in")
                body = self.expr(0)
                return SLet(name, bound, body)
            self.fail(f"unexpected {text!r}", self.pos - 1)
        if text.isdigit():
            return SNum(int(text))
        if "." in text and _is_float(text):
            return SFloat(float(text))
        return SName(text, bisect_right(self.line_ends, self.starts[self.base + self.pos - 1]) + 1)

    def _lambda(self) -> SExpr:
        if self.toks[self.pos] == "(":
            self.pos += 1
            comps = []
            while self.toks[self.pos] != "[]":
                comps.append(self.take())
                self.expect("∷")
            self.take()  # []
            self.expect(")")
            self.expect("->")
            return SLamPat(comps, self.expr(0))
        binder = self.take()
        self.expect("->")
        return SLam(binder, self.expr(0))

    # -- patterns ----------------------------------------------------------------

    def pattern_atom(self):
        text = self.take()
        if text == "(":
            if self.toks[self.pos] == ")":
                self.pos += 1
                return (SPat("absurd"), False)
            p = self.pattern()
            self.expect(")")
            return (p, False)
        if text == "{":
            if self.toks[self.pos] == "}":
                self.fail("empty hidden pattern", self.pos)
            p = self.pattern()
            self.expect("}")
            return (p, True)
        return (self._simple_pat(text), False)

    def pattern(self) -> SPat:
        left = self._pattern_app()
        if self.toks[self.pos] == "∷":
            self.pos += 1
            right = self.pattern()
            return SPat("con", name="_∷_", args=[(left, False), (right, False)])
        return left

    def _pattern_app(self) -> SPat:
        text = self.take()
        if text == "(":
            p = self.pattern()
            self.expect(")")
            return p
        head = self._simple_pat(text)
        if head.kind != "var":
            return head
        args = []
        while self.toks[self.pos] not in (None, ")", "}", "∷", "="):
            sub = self.take()
            if sub == "(":
                p = self.pattern()
                self.expect(")")
                args.append((p, False))
            elif sub == "{":
                p = self.pattern()
                self.expect("}")
                args.append((p, True))
            else:
                args.append((self._simple_pat(sub), False))
        if args:
            return SPat("con", name=head.name, args=args)
        return head

    def _simple_pat(self, text: str) -> SPat:
        """The pattern of the token just taken."""
        if text == "_":
            return SPat("wild")
        if text.isdigit():
            return SPat("lit", value=int(text))
        if _is_float(text):
            return SPat("lit", value=float(text))
        if text in RESERVED:
            self.fail(f"unexpected {text!r} in pattern", self.pos - 1)
        if text == "[]":
            return SPat("con", name="[]")
        return SPat("var", name=text)


def _is_float(s: str) -> bool:
    if s.count(".") != 1:
        return False
    a, b = s.split(".")
    return a.isdigit() and b.isdigit()


def _is_name(s: str | None) -> bool:
    return s is not None and s not in RESERVED and not s[0].isdigit()

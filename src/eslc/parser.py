"""Parser for `.esl` source files.

The syntax is line oriented: a declaration starts in column zero and
continuation lines are indented.  Tokens are whitespace separated except
for the self-delimiting characters ``(){};\\``.  Infix operators come from
a fixed table that `infixl`/`infixr`/`infix` declarations in the module
header may extend.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

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
    kind: str  # REWRITE | TRUST | BUILTIN
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

# a self-delimiting character, or a run of anything else but space
_TOKEN = re.compile(r"[(){};\\]|[^\s(){};\\]+")
_ALIASES = {"::": "∷", "->": "->", "→": "->", "λ": "\\"}
RESERVED = {"let", "in", ":", "=", "->", "\\", "(", ")", "{", "}", ";",
            "infixl", "infixr", "infix", "_"}


@dataclass
class Tok:
    text: str
    line: int
    col: int


def tokenize_line(text: str, line_no: int) -> list[Tok]:
    toks: list[Tok] = []
    for m in _TOKEN.finditer(text):
        chunk = m.group()
        if chunk.startswith("--"):
            break
        toks.append(Tok(_ALIASES.get(chunk, chunk), line_no, m.start()))
    return toks


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


class OpTable:
    def __init__(self):
        self.by_symbol: dict[str, tuple[str, str, int]] = {}
        for name, (assoc, level) in DEFAULT_FIXITY.items():
            self.by_symbol[name.strip("_")] = (name, assoc, level)

    def add(self, fix: SFixity) -> None:
        self.by_symbol[fix.name.strip("_")] = (fix.name, fix.assoc, fix.level)

    def lookup(self, symbol: str):
        return self.by_symbol.get(symbol)


# --------------------------------------------------------------------------
# declaration grouping


def _logical_decls(src: str):
    """Group physical lines into (first_line_no, text) declarations."""
    out = []
    cur: list[str] = []
    cur_line = 0
    for no, raw in enumerate(src.splitlines(), start=1):
        stripped = raw.rstrip()
        body = stripped.strip()
        if not body or body.startswith("--"):
            continue
        if raw[0].isspace():
            if not cur:
                raise SyntaxErrorAt("continuation line with no declaration", no)
            cur.append(stripped)
        else:
            if cur:
                out.append((cur_line, "\n".join(cur)))
            cur, cur_line = [stripped], no
    if cur:
        out.append((cur_line, "\n".join(cur)))
    return out


def parse(src: str, path: str = "<string>") -> SourceModule:
    decls: list = []
    ops = OpTable()
    for line_no, text in _logical_decls(src):
        flat = " ".join(text.split())
        if flat.startswith("{-#"):
            decls.append(_parse_pragma(flat, line_no))
            continue
        toks = []
        for i, ln in enumerate(text.splitlines()):
            toks.extend(tokenize_line(ln, line_no + i))
        if not toks:
            continue
        if toks[0].text in ("infixl", "infixr", "infix"):
            fix = _parse_fixity(toks, line_no)
            ops.add(fix)
            decls.append(fix)
            continue
        decls.append(_parse_decl(toks, ops, line_no))
    return SourceModule(path, decls)


def _parse_pragma(flat: str, line: int) -> SPragma:
    if not flat.endswith("#-}"):
        raise SyntaxErrorAt("unterminated pragma", line)
    inner = flat[3:-3].split()
    if not inner or inner[0] not in ("REWRITE", "TRUST", "BUILTIN"):
        raise SyntaxErrorAt(f"unknown pragma {inner[:1]}", line)
    if inner[0] == "BUILTIN" and len(inner) != 3:
        raise SyntaxErrorAt("BUILTIN pragma takes a tag and a name", line)
    return SPragma(inner[0], inner[1:], line)


def _parse_fixity(toks: list[Tok], line: int) -> SFixity:
    if len(toks) != 3 or not toks[1].text.isdigit():
        raise SyntaxErrorAt("malformed fixity declaration", line)
    name = toks[2].text
    if not (name.startswith("_") and name.endswith("_")):
        raise SyntaxErrorAt("fixity declares names of the form _op_", line)
    assoc = {"infixl": "left", "infixr": "right", "infix": "none"}[toks[0].text]
    return SFixity(assoc, int(toks[1].text), name)


def _parse_decl(toks: list[Tok], ops: OpTable, line: int):
    head = toks[0]
    if head.text in RESERVED:
        raise SyntaxErrorAt(f"declaration cannot start with {head.text!r}", line)
    texts = [t.text for t in toks]
    if ":" in texts and texts.index(":") < (texts.index("=") if "=" in texts else len(texts)):
        p = _Parser(toks, ops)
        p.take()  # name
        p.expect(":")
        ty = p.type_expr()
        p.expect_end()
        return SSignature(head.text, ty, line)
    p = _Parser(toks, ops)
    p.take()
    pats: list = []
    while not p.at_end() and p.peek() != "=":
        pats.append(p.pattern_atom())
    if p.at_end():
        if any(isinstance(sp, SPat) and _has_absurd_s(sp) for sp, _ in pats):
            return SClause(head.text, pats, None, line)
        raise SyntaxErrorAt("clause lacks '=' and a body", line)
    p.expect("=")
    body = p.expr(0)
    p.expect_end()
    return SClause(head.text, pats, body, line)


def _has_absurd_s(p: SPat) -> bool:
    if p.kind == "absurd":
        return True
    return any(_has_absurd_s(sp) for sp, _ in p.args)


# --------------------------------------------------------------------------
# recursive descent core


class _Parser:
    def __init__(self, toks: list[Tok], ops: OpTable):
        self.toks = toks
        self.pos = 0
        self.ops = ops

    def peek(self) -> str | None:
        return self.toks[self.pos].text if self.pos < len(self.toks) else None

    def take(self) -> Tok:
        if self.pos >= len(self.toks):
            last = self.toks[-1]
            raise SyntaxErrorAt("unexpected end of declaration", last.line, last.col)
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, text: str) -> Tok:
        t = self.take()
        if t.text != text:
            raise SyntaxErrorAt(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        return t

    def at_end(self) -> bool:
        return self.pos >= len(self.toks)

    def expect_end(self) -> None:
        if not self.at_end():
            t = self.toks[self.pos]
            raise SyntaxErrorAt(f"unexpected trailing {t.text!r}", t.line, t.col)

    def err(self, msg: str):
        t = self.toks[min(self.pos, len(self.toks) - 1)]
        raise SyntaxErrorAt(msg, t.line, t.col)

    # -- types ---------------------------------------------------------------

    def type_expr(self) -> SExpr:
        dom_binders, dom = self._type_factor()
        if self.peek() == "->":
            self.take()
            cod = self.type_expr()
            if dom_binders is not None:
                for name, hidden, ty in reversed(dom_binders):
                    cod = SPi(name, hidden, ty, cod)
                return cod
            return SPi("_", False, dom, cod)
        if dom_binders is not None:
            self.err("binder group must be followed by ->")
        return dom

    def _type_factor(self):
        """Either a binder group `(x y : T)` / `{x : T}` or a plain type."""
        if self.peek() in ("(", "{"):
            close = ")" if self.peek() == "(" else "}"
            hidden = close == "}"
            save = self.pos
            self.take()
            names = []
            while self.peek() not in (":", None) and _is_name(self.peek()):
                names.append(self.take().text)
            if self.peek() == ":" and names:
                self.take()
                ty = self.type_expr()
                self.expect(close)
                return [(n, hidden, ty) for n in names], None
            self.pos = save
        return None, self.expr(0)

    # -- expressions -----------------------------------------------------------

    def expr(self, min_level: int) -> SExpr:
        lhs = self.app_expr()
        while True:
            sym = self.peek()
            if sym is None:
                return lhs
            op = self.ops.lookup(sym)
            if op is None:
                return lhs
            name, assoc, level = op
            if level < min_level:
                return lhs
            self.take()
            nxt = level + 1 if assoc in ("left", "none") else level
            rhs = self.expr(nxt)
            lhs = SApp(SName(name), [(lhs, False), (rhs, False)])

    def app_expr(self) -> SExpr:
        fn = self.atom()
        args = []
        while True:
            nxt = self.peek()
            if nxt is None or nxt in (")", "}", "=", "->", "in", ";", ":"):
                break
            if self.ops.lookup(nxt):
                break
            if nxt == "{":
                self.take()
                e = self.expr(0)
                self.expect("}")
                args.append((e, True))
                continue
            args.append((self.atom(), False))
        return SApp(fn, args) if args else fn

    def atom(self) -> SExpr:
        t = self.take()
        text = t.text
        if text == "(":
            e = self.expr(0)
            while self.peek() == "->":  # parenthesized function type
                self.take()
                e = SPi("_", False, e, self.type_expr())
            self.expect(")")
            return e
        if text == "\\":
            return self._lambda()
        if text == "let":
            name = self.take().text
            self.expect("=")
            bound = self.expr(0)
            self.expect("in")
            body = self.expr(0)
            return SLet(name, bound, body)
        if _is_nat(text):
            return SNum(int(text))
        if _is_float(text):
            return SFloat(float(text))
        if text in RESERVED:
            raise SyntaxErrorAt(f"unexpected {text!r}", t.line, t.col)
        return SName(text, t.line)

    def _lambda(self) -> SExpr:
        if self.peek() == "(":
            self.take()
            comps = []
            while self.peek() != "[]":
                name = self.take().text
                comps.append(name)
                self.expect("∷")
            self.take()  # []
            self.expect(")")
            self.expect("->")
            return SLamPat(comps, self.expr(0))
        binder = self.take().text
        self.expect("->")
        return SLam(binder, self.expr(0))

    # -- patterns ----------------------------------------------------------------

    def pattern_atom(self):
        t = self.take()
        text = t.text
        if text == "(":
            if self.peek() == ")":
                self.take()
                return (SPat("absurd"), False)
            p = self.pattern()
            self.expect(")")
            return (p, False)
        if text == "{":
            if self.peek() == "}":
                self.err("empty hidden pattern")
            p = self.pattern()
            self.expect("}")
            return (p, True)
        return (self._simple_pat(t), False)

    def pattern(self) -> SPat:
        left = self._pattern_app()
        if self.peek() == "∷":
            self.take()
            right = self.pattern()
            return SPat("con", name="_∷_", args=[(left, False), (right, False)])
        return left

    def _pattern_app(self) -> SPat:
        t = self.take()
        if t.text == "(":
            p = self.pattern()
            self.expect(")")
            return p
        head = self._simple_pat(t)
        if head.kind != "var":
            return head
        args = []
        while self.peek() is not None and self.peek() not in (")", "}", "∷", "="):
            sub = self.take()
            if sub.text == "(":
                p = self.pattern()
                self.expect(")")
                args.append((p, False))
            elif sub.text == "{":
                p = self.pattern()
                self.expect("}")
                args.append((p, True))
            else:
                args.append((self._simple_pat(sub), False))
        if args:
            return SPat("con", name=head.name, args=args)
        return head

    def _simple_pat(self, t: Tok) -> SPat:
        if t.text == "_":
            return SPat("wild")
        if _is_nat(t.text):
            return SPat("lit", value=int(t.text))
        if _is_float(t.text):
            return SPat("lit", value=float(t.text))
        if t.text in RESERVED:
            raise SyntaxErrorAt(f"unexpected {t.text!r} in pattern", t.line, t.col)
        if t.text == "[]":
            return SPat("con", name="[]")
        return SPat("var", name=t.text)


def _is_nat(s: str) -> bool:
    return s.isdigit()


def _is_float(s: str) -> bool:
    if not s or s.count(".") != 1:
        return False
    a, b = s.split(".")
    return a.isdigit() and b.isdigit()


def _is_name(s: str | None) -> bool:
    return s is not None and s not in RESERVED and not s[0].isdigit()

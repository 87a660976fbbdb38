import sys, os
sys.path.insert(0, os.path.dirname(__file__))

from eslc.ir import Abs, Arg, Pi, Term  # noqa: E402


def mk_pi(binders: list[tuple[str, Term, bool]], ret: Term) -> Term:
    """The signature binding each (name, type, hidden) in turn, then `ret`."""
    out = ret
    for name, ty, hidden in reversed(binders):
        out = Pi(Arg(ty, hidden), Abs(name, out))
    return out

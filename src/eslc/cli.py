"""Batch entry point: `eslc kompile` and `eslc diff`.

Exit codes: 0 success, 1 user error (a bad command line, a file that cannot
be read or written, syntax, typing, extraction, unknown names), 2 internal
invariant breach.
"""

from __future__ import annotations

import argparse
import sys

from .extract import ExtractOptions, kompile
from .ir import EXHAUSTED, EslError, Function, print_term
from .loader import load_sources


def _integer(least: int):
    """An argparse type: an integer no less than `least`."""
    def integer(text: str) -> int:
        if (n := int(text)) < least:
            raise argparse.ArgumentTypeError(f"{n} is less than {least}")
        return n
    return integer


def _common_io(sub):
    sub.add_argument("inputs", nargs="*", help="ESL source files")
    sub.add_argument("--entry", required=True, help="function to extract")
    sub.add_argument("--backend", required=True, choices=["kaleid", "sac"])
    sub.add_argument("--base", default="", help="comma separated never-reduce names")
    sub.add_argument("--fuel", type=_integer(1), default=10**6)
    sub.add_argument("--faithful-lets", action="store_true",
                     help="substitute every let eagerly, duplicating work")
    sub.add_argument("--no-prelude", action="store_true")


class _ArgumentParser(argparse.ArgumentParser):
    """A bad command line is a user error: exit 1, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _ArgumentParser(prog="eslc")
    subs = p.add_subparsers(dest="cmd", required=True)
    k = subs.add_parser("kompile", help="extract a function to a target language")
    _common_io(k)
    k.add_argument("--skip", default="", help="comma separated never-traverse names")
    k.add_argument("--trials", type=_integer(0), default=100)
    k.add_argument("--dump-ir", action="store_true",
                   help="write the elaborated IR of the entry to stderr")
    k.add_argument("--out", default="-", help="output path, - for stdout")
    k.add_argument("--no-assert", action="store_true",
                   help="strip synthesized assertions from the output")
    d = subs.add_parser("diff", help="differential test: evaluation vs target")
    _common_io(d)
    d.add_argument("--samples", type=_integer(0), default=200)
    d.add_argument("--seed", type=int, default=0)
    return p


def _file_error(verb: str, path: str, ex: OSError | UnicodeDecodeError) -> EslError:
    reason = ex.strerror if isinstance(ex, OSError) and ex.strerror else ex
    return EslError(f"cannot {verb} {path}: {reason}")


def _load(args):
    texts = []
    for path in args.inputs:
        try:
            with open(path, encoding="utf-8") as f:
                texts.append((path, f.read()))
        except (OSError, UnicodeDecodeError) as ex:
            raise _file_error("read", path, ex) from None
    return load_sources(texts, with_prelude=not args.no_prelude)


def _names(s: str) -> list[str]:
    return [x for x in s.split(",") if x]


def _verify_rules(elab, trials: int) -> int:
    """Randomized checking of the registered rewrite rules; rules over
    ungroundable variable types are skipped."""
    from .normalize import NotGroundable, check_rewrite
    for i, rule in enumerate(elab.rules.rules):
        try:
            out = check_rewrite(rule, trials, elab.env, seed=i)
        except NotGroundable:
            continue
        if out != "pass":
            print(f"eslc: rewrite rule {rule.name} is wrong: {out}",
                  file=sys.stderr)
            return 1
    return 0


def cmd_kompile(args) -> int:
    elab = _load(args)
    if args.entry not in elab.env:
        print(f"eslc: unknown entry {args.entry}", file=sys.stderr)
        return 1
    if args.trials and _verify_rules(elab, args.trials):
        return 1
    opts = ExtractOptions(fuel=args.fuel, faithful_lets=args.faithful_lets,
                          no_assert=args.no_assert)
    if args.backend == "kaleid":
        from .kaleid import KaleidBackend as Backend
    else:
        from .sac import SacBackend as Backend
    backend = Backend()
    if args.dump_ir:
        d = elab.env.lookup(args.entry)
        if isinstance(d.payload, Function):
            for cl in d.payload.clauses:
                if cl.body is not None:
                    print(print_term(cl.body), file=sys.stderr)
    text = kompile(args.entry, _names(args.base), _names(args.skip), backend,
                   elab.env, elab.rules, opts)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as f:
                f.write(text)
        except OSError as ex:
            raise _file_error("write", args.out, ex) from None
    return 0


def cmd_diff(args) -> int:
    from . import corpus as corpus_mod
    from .harness import DiffRow, run_corpus_diff, run_signature_diff
    opts = ExtractOptions(fuel=args.fuel, faithful_lets=args.faithful_lets)
    if not args.inputs and args.entry in corpus_mod.CORPUS:
        entry = corpus_mod.CORPUS[args.entry]
        if entry.backend != args.backend:
            print(f"eslc: {args.entry} extracts to {entry.backend}",
                  file=sys.stderr)
            return 1
        if args.base:
            print(f"eslc: {args.entry} is a corpus entry, which carries its "
                  f"own base list; --base is for other entries", file=sys.stderr)
            return 1
        row = run_corpus_diff(entry, args.samples, args.seed, opts)
    else:
        elab = _load(args)
        if args.entry not in elab.env:
            print(f"eslc: unknown entry {args.entry}", file=sys.stderr)
            return 1
        row = run_signature_diff(elab, args.entry, args.samples, args.seed,
                                 _names(args.base), opts, args.backend)
    for sample in row.inconclusive:
        print(f"eslc: {row.function} {' '.join(map(repr, sample))}: "
              f"inconclusive, {EXHAUSTED}", file=sys.stderr)
    print(DiffRow.HEADER)
    print(row.tsv())
    if len(row.inconclusive) == row.samples:
        print(f"eslc: {row.function}: no sample compared", file=sys.stderr)
        return 1
    return 0 if row.mismatches == 0 else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.cmd == "kompile":
            return cmd_kompile(args)
        return cmd_diff(args)
    except EslError as ex:
        print(f"eslc: {ex}", file=sys.stderr)
        return 1
    except Exception as ex:  # internal invariant breach
        print(f"eslc: internal error: {type(ex).__name__}: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

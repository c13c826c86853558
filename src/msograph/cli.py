"""Command-line surface: generate family members, evaluate formulas,
apply interpretations, run the width oracles, and run verification
suites.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 a size cap,
a search budget or Python's recursion limit was hit (the answer is
unknown, not wrong).  Every syntax error in a text input (a formula, a
library, an interpretation file, a valuation or a JSON file) exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import import_module
from pathlib import Path

from .graphs import (LabeledGraph, SubdivisionPlan, antichain_member_In,
                     grid, make_Tn, tri_corner_grid, uniform_subdivide_utg,
                     upper_tri_grid)
from .interpret import (Interpretation, InterpretationError, Pipeline,
                        builtin_complement, builtin_induced, compose_pipeline,
                        parse_interpretation)
from .logic import (DEFAULT_SET_CAP, App, SetQuantifierCapError,
                    is_set_var, materialize, parse_formula, parse_library,
                    PredicateLibrary, evaluate)
from .search import BudgetExhausted
from .syntax import _Parser
from .widths import (KExpression, SizeCapExceeded, TreeDecomposition,
                     cliquewidth_exact, treewidth_exact, verify_k_expression,
                     verify_tree_decomposition)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


# the names of ``verify.SUITES``, listed here so that building the
# parser (for ``--help`` too) imports no suite
SUITE_NAMES = ("bichain", "bpg", "gamma-class", "power", "relativize",
               "split", "tc", "widths", "word")


class UsageError(ValueError):
    pass


def _family(name: str):
    """The module of a graph family, imported by the first command that
    builds or interprets one of its members."""
    return import_module(f"{__package__}.{name}_family")


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def _split(args) -> LabeledGraph:
    bf = _family("bichain")
    Z = bf.build_Zn(args.n, with_labels=args.labels)
    A, _ = bf.zn_parts(args.n)
    return bf.split_from_bichain(Z, A)


def _subdiv(args) -> LabeledGraph:
    sizes = {}
    if args.path_sizes:
        for part in args.path_sizes.split(","):
            j, k = part.split(":")
            sizes[int(j)] = int(k)
    G, originals = uniform_subdivide_utg(SubdivisionPlan(args.r, sizes))
    return G.with_labels({"original": originals})


# family name -> (the options it needs, its builder)
_FAMILIES = {
    "grid": (("m", "n"), lambda a: grid(a.m, a.n)),
    "utg": (("t",), lambda a: upper_tri_grid(a.t)),
    "word": (("alpha", "n"), lambda a: (
        _family("word").build_Hn if a.labels
        else _family("word").build_Gn)(a.alpha, a.n)),
    "bichain": (("n",), lambda a: _family("bichain").build_Zn(
        a.n, with_labels=a.labels)),
    "split": (("n",), _split),
    "bpg": (("n",), lambda a: _family("bichain").build_Pn(a.n)),
    "power": (("n",), lambda a: _family("power").build_Dn(a.n)),
    "Tn": (("n",), lambda a: make_Tn(a.n)),
    "subdiv": (("r",), _subdiv),
    "In": (("n",), lambda a: antichain_member_In(a.n)),
    "tri-grid": (("n",), lambda a: tri_corner_grid(a.n)),
}


def _gen_graph(args) -> LabeledGraph:
    need, build = _FAMILIES[args.family]
    for a in need:
        if getattr(args, a, None) is None:
            raise UsageError(f"family {args.family!r} needs --{a}")
    return build(args)


def _emit_graph(G: LabeledGraph, out: str, dot: str | None) -> None:
    if out == "-":
        print(G.to_json())
    else:
        Path(out).write_text(G.to_json())
    if dot:
        Path(dot).write_text(G.to_dot())


def cmd_gen(args) -> int:
    G = _gen_graph(args)
    _emit_graph(G, args.output, args.dot)
    if args.output != "-":
        print(f"{args.family}: {G.n} vertices, {len(G.edges)} edges "
              f"-> {args.output}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def parse_assignment(text: str) -> dict:
    """Parse ``x=3, Y={1,2}`` into a valuation dict."""
    p = _Parser(text)
    out: dict = {}
    while not p.at_end():
        if out:
            p.expect(",")
        name, value = p.binding()
        if isinstance(value, frozenset) and not is_set_var(name.text):
            raise UsageError(f"{name.text!r} gets a set but is lowercase; "
                             f"set variables start uppercase")
        if isinstance(value, int) and is_set_var(name.text):
            raise UsageError(
                f"{name.text!r} is a set variable but gets a vertex")
        if name.text in out:
            raise UsageError(f"{name.text!r} is assigned twice "
                             f"(at position {name.pos})")
        out[name.text] = value
    return out


def _load_graph(path: str) -> LabeledGraph:
    return LabeledGraph.from_json(Path(path).read_text())


def cmd_eval(args) -> int:
    G = _load_graph(args.graph)
    lib = PredicateLibrary()
    if args.library:
        lib = parse_library(Path(args.library).read_text())
    if (args.formula is None) == (args.pred is None):
        raise UsageError("give exactly one of --formula or --pred")
    if args.pred is not None:
        if args.assign:
            val = parse_assignment(args.assign)
            d = lib.by_name.get(args.pred)
            if d is None:
                raise UsageError(f"no predicate {args.pred!r} in the library")
            res = evaluate(G, lib, App(d.name, d.params), val,
                           set_cap=args.set_cap)
            print("true" if res else "false")
        else:
            table = materialize(G, lib, args.pred, set_cap=args.set_cap)
            for row in sorted(table):
                print(" ".join(G.name_of(v) for v in row))
            print(f"# {args.pred}: {len(table)} tuples", file=sys.stderr)
        return EXIT_OK
    f = parse_formula(args.formula)
    val = parse_assignment(args.assign or "")
    res = evaluate(G, lib, f, val, set_cap=args.set_cap)
    print("true" if res else "false")
    return EXIT_OK


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------

_BUILTIN_INTERPS = {
    "delta": lambda: _family("word").delta_interp(),
    "gamma-contract": lambda: _family("word").gamma_contract_interp(),
    "psi-bichain": lambda: _family("bichain").psi_bichain(),
    "psi-split": lambda: _family("bichain").psi_split(),
    "phi-power": lambda: _family("power").phi_power(),
    "complement": builtin_complement,
    "induced": builtin_induced,
}


def _resolve_interp(spec: str) -> Interpretation:
    if spec in _BUILTIN_INTERPS:
        return _BUILTIN_INTERPS[spec]()
    return parse_interpretation(Path(spec).read_text())


def cmd_apply(args) -> int:
    G = _load_graph(args.graph)
    names = args.pipeline.split(",") if args.pipeline else [args.interp]
    if names == [None]:
        raise UsageError("give --interp or --pipeline")
    interps = [_resolve_interp(nm) for nm in names]
    params = None
    if args.params:
        bind = parse_assignment(args.params)
        missing = [p for p in interps[0].params if p not in bind]
        if missing:
            raise UsageError(f"--params is missing {missing}")
        params = [bind[p] for p in interps[0].params]
    if interps[0].name == "phi-power":
        _family("power").check_power_input(G.n)
    stages = [(I, params if i == 0 else None)
              for i, I in enumerate(interps)]
    H = compose_pipeline(Pipeline(stages), G, set_cap=args.set_cap)
    _emit_graph(H, args.output, args.dot)
    if args.output != "-":
        print(f"applied {'+'.join(names)}: {H.n} vertices, "
              f"{len(H.edges)} edges -> {args.output}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# width
# ---------------------------------------------------------------------------

def cmd_width(args) -> int:
    if args.budget is not None and args.measure != "cwd":
        raise UsageError("--budget applies only to --measure cwd")
    for opt in ("cap", "budget"):
        if (getattr(args, opt) or 0) < 0:
            raise UsageError(f"--{opt} must not be negative")
    G = _load_graph(args.graph)
    if args.certify:
        text = Path(args.certify).read_text()
        if args.measure == "twd":
            td = TreeDecomposition.from_json(text)
            ok = verify_tree_decomposition(G, td)
            print(json.dumps({"measure": "twd", "certificate": "valid" if ok
                              else "invalid", "width": td.width}))
        else:
            e = KExpression.from_json(text)
            ok = verify_k_expression(G, e)
            print(json.dumps({"measure": "cwd", "certificate": "valid" if ok
                              else "invalid", "k": e.k}))
        return EXIT_OK if ok else EXIT_CHECK_FAILED
    # only the options given: the defaults are those of widths
    opts = {} if args.cap is None else {"cap": args.cap}
    if args.measure == "twd":
        w, td = treewidth_exact(G, **opts)
        cert = td.to_json()
    else:
        if args.budget is not None:
            opts["budget"] = args.budget
        w, e = cliquewidth_exact(G, **opts)
        cert = e.to_json()
    if args.cert_out:
        Path(args.cert_out).write_text(cert)
    print(json.dumps({"measure": args.measure, "value": w}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    from .verify import SUITES, run_suite
    knobs = {}
    if args.seed is not None:
        knobs["seed"] = args.seed
    if args.max_n is not None:
        knobs["max_n"] = args.max_n
    if args.trials is not None:
        knobs["trials"] = args.trials
    fn = SUITES[args.suite]
    accepted = set(_parameters(fn))
    dropped = {k for k in knobs if k not in accepted}
    for k in dropped:
        print(f"note: suite {args.suite!r} ignores --{k.replace('_', '-')}",
              file=sys.stderr)
        knobs.pop(k)
    rep = run_suite(args.suite, **knobs)
    text = rep.to_json()
    if args.json:
        Path(args.json).write_text(text)
    else:
        print(text)
    n_fail = sum(not r.passed for r in rep.records)
    print(f"suite {args.suite}: {len(rep.records)} checks, "
          f"{n_fail} failures", file=sys.stderr)
    return EXIT_OK if rep.passed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _parameters(fn) -> tuple[str, ...]:
    """The names of the parameters of fn, none of them keyword-only."""
    return fn.__code__.co_varnames[:fn.__code__.co_argcount]


def _default(fn, name: str):
    """The default of a parameter of fn, for help texts."""
    names = _parameters(fn)
    return fn.__defaults__[names.index(name) - len(names)]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="msograph", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    set_cap_help = ("most vertices whose subsets one set quantifier may "
                    "range over, counted after its guards (default: "
                    f"{DEFAULT_SET_CAP})")

    g = sub.add_parser("gen", help="generate a family member")
    g.add_argument("--family", required=True, choices=list(_FAMILIES))
    g.add_argument("--m", type=int)
    g.add_argument("--n", type=int)
    g.add_argument("--t", type=int)
    g.add_argument("--r", type=int)
    g.add_argument("--alpha", help="letter word over 0/1/2 (word family)")
    g.add_argument("--labels", action="store_true",
                   help="include the marker labels the interpretations use")
    g.add_argument("--path-sizes",
                   help="subdiv family: per-column path sizes as j:k,j:k")
    g.add_argument("-o", "--output", default="-")
    g.add_argument("--dot")
    g.set_defaults(fn=cmd_gen)

    e = sub.add_parser("eval", help="evaluate a formula or dump a predicate")
    e.add_argument("graph")
    e.add_argument("--library", help="predicate definitions file")
    e.add_argument("--formula")
    e.add_argument("--pred", help="library predicate name")
    e.add_argument("--assign", help="valuation, e.g. 'x=3, Y={1,2}'")
    e.add_argument("--set-cap", type=int, default=DEFAULT_SET_CAP,
                   help=set_cap_help)
    e.set_defaults(fn=cmd_eval)

    a = sub.add_parser("apply", help="apply an interpretation")
    a.add_argument("graph")
    a.add_argument("--interp",
                   help=f"file or builtin: {', '.join(_BUILTIN_INTERPS)}")
    a.add_argument("--pipeline", help="comma-separated interp names/files")
    a.add_argument("--params", help="set parameter values, e.g. 'O={0,1,2}'")
    a.add_argument("--set-cap", type=int, default=DEFAULT_SET_CAP,
                   help=set_cap_help)
    a.add_argument("-o", "--output", default="-")
    a.add_argument("--dot")
    a.set_defaults(fn=cmd_apply)

    w = sub.add_parser("width", help="exact width oracles and certificates")
    w.add_argument("graph")
    w.add_argument("--measure", required=True, choices=["twd", "cwd"])
    w.add_argument("--certify", help="verify this certificate file instead")
    w.add_argument("--cert-out", help="write the witness certificate here")
    w.add_argument("--cap", type=int,
                   help=f"vertex cap (default: twd "
                        f"{_default(treewidth_exact, 'cap')}, cwd "
                        f"{_default(cliquewidth_exact, 'cap')})")
    w.add_argument("--budget", type=int,
                   help=f"cwd only: union steps and the groupings they close "
                        f"(default: "
                        f"{_default(cliquewidth_exact, 'budget'):,})")
    w.set_defaults(fn=cmd_width)

    v = sub.add_parser("verify", help="run a named verification suite")
    v.add_argument("--suite", required=True, choices=SUITE_NAMES)
    v.add_argument("--seed", type=int)
    v.add_argument("--max-n", type=int, dest="max_n")
    v.add_argument("--trials", type=int)
    v.add_argument("--json", help="write the report here instead of stdout")
    v.set_defaults(fn=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (BudgetExhausted, SizeCapExceeded, SetQuantifierCapError) as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except RecursionError:  # e.g. binding a very long chain of callees
        print(f"limit: the input nests deeper than Python's recursion "
              f"limit ({sys.getrecursionlimit()}) allows", file=sys.stderr)
        return EXIT_BUDGET
    except InterpretationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

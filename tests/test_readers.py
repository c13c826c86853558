"""The readers of text input: libraries, interpretation files and
valuations read as the line-based readers they replaced did (those are
kept in legacy_readers as oracles), on every such text of the tests, the
demos and the CI workflow and on seeded reformattings of them; and a
seeded fuzzer over every reader of text and over ``msograph`` itself."""

import json
import random
import re
from pathlib import Path

import pytest

import legacy_readers as legacy
import msograph
from msograph.cli import UsageError, main, parse_assignment
from msograph.graphs import GraphError, LabeledGraph, grid
from msograph.interpret import InterpretationError, parse_interpretation
from msograph.logic import (FormulaSyntaxError, LibraryError, parse_formula,
                            parse_library)
from msograph.syntax import _tokenize
from msograph.widths import (KExpression, TreeDecomposition, WidthError,
                             cliquewidth_exact, treewidth_exact)

SHIPPED = [p.read_text() for p in sorted(
    (Path(msograph.__file__).parent / "libraries").glob("*.mso"))]


def _chain(n: int) -> str:
    return "def p0(x, y) := E(x, y)\n" + "".join(
        f"def p{i}(x, y) := p{i - 1}(x, y)\n" for i in range(1, n))


LIBRARIES = SHIPPED + [
    "def deg1(x) := exists! y. E(x, y)\n",
    "def a(x) := b(x)\ndef b(x) := a(x)\n",
    "def p(x') := exists y. E(x', y)\n",
    "def big(x) := exists X. X(x)\ndef adj(x, y) := E(x, y)",
    "def big(x) := exists X. (X(x) & !adj(x, x))\ndef adj(x, y) := E(x, y)",
    "def adj(x, y) := E(x, y)",
    "def twostep(x, y) := exists z. (E(x, z) & E(z, y))",
    "def inz(x) := Z(x)",
    "\n        # a comment\n        def deg2(x) := exists! y. E(x, y) -> "
    "false\n        def adj(x, y) := E(x, y)\n        def twostep(x, y) := "
    "exists z. (adj(x, z) & adj(z, y))\n    ",
    "def a(x) := a(x)",
    "def a(x) := true\ndef a(x) := false",
    "def a(x) := b(x)\ndef b(x) := c(x) | E(x, x)\n"
    "def c(x) := exists y. (E(x, y) & a(y))",
    "def a(x) := b(x)",
    "def a(x) := b(x) & c(x)\ndef b(x) := c(x)\ndef c(x) := exists y. E(x, y)",
    "def inset(x, Y) := Y(x)\ndef self(x) := x = x",
    "def r1(a, b, c, d) := E(a, b)\ndef both(x, y) := r1(x, y, x, x)\n"
    "def inset(x, Y) := Y(x)\ndef inred(x) := inset(x, Red)",
    "def p(x) := nosuch(x)\ndef q(x, y) := E(x, y) | p(y)",
    "def p(x, y) := E(x, y) & exists X. true\n"
    "def q(x, y) := E(x, y) & exists X. X(y)",
    "def adj(x, y) := E(x, y)\ndef mid(x, y, z) := E(x, y) & E(y, z) & "
    "x != z\ndef end(x) := exists! y. E(x, y)\n"
    "def some() := exists x. end(x)",
    "def p(x, y) := E(x, y) | x = y",
    "def reach(x, y) := TC[a, b: E(a, b)](x, y)",
    "def p(x, y) := E(x, y)",
    "def p(x, y) := x != y & !E(x, y)",
    "def p(x, y) := E(x, y)\ndef q(x, y) := p(y, x) | x = y\n",
    "def q(y, S) := exists z. (S(z) & E(y, z))",
    "def near(x, S) := exists z. (E(x, z) & S(z))",
    "def t(x, y) := exists Z. (Z(y) & !Z(x))",
    _chain(200), _chain(600), _chain(1000),
]

INTERPRETATIONS = [
    "domain(x) := x = x\nedge(x, y) := E(x, y) | x = y\n",
    "params: [Z, Z]\ndomain(x) := Z(x)\nedge(x,y) := E(x,y)\n",
    "def big(x) := exists X. X(x)\ndef adj(x, y) := E(x, y)\n"
    "domain(x) := x = x\nedge(x, y) := adj(x, y)\n",
    "params: [Z, Z]\ndomain(x) := Z(x)\nedge(x,y) := E(x,y)",
    "\n        params: [Z]\n        def inz(x) := Z(x)\n        domain(x) := "
    "inz(x)\n        edge(x, y) := !E(x, y) & x != y & inz(x) & inz(y)\n    ",
    "\n        params: [Z]\n        def inz(x) := Z(x)\n        domain(x) := "
    "inz(x)\n        edge(x, y) := E(x, y) & inz(x) & inz(y)\n    ",
    "\n        params: [Z]\n        def inz(x) := Z(x)\n        domain(x) := "
    "inz(x)\n        edge(x, y) := E(x, y)\n    ",
    "domain(x) := x = x",
]

VALUATIONS = [
    "x=3, Y={1,2}", "Y={}", "X=3", "x={1}", "", "x=99, y=0", "x=5", "Y={9}",
    "Y={0, -1}", "Y={3}", "Z={0,1}", "x=0, y=1", "X={0,1,2,3}", "x=0",
    "y=3", "Z={0,1,2}",
]


def _same_interpretation(a, b) -> bool:
    return (a.params, a.domain, a.edge, a.library.key, a.name) == \
        (b.params, b.domain, b.edge, b.library.key, b.name)


# kind: (reader, legacy reader, equality of readings, block keywords)
KINDS = {
    "library": (parse_library, legacy.parse_library,
                lambda a, b: a.key == b.key, {"def"}),
    "interpretation": (parse_interpretation, legacy.parse_interpretation,
                       _same_interpretation,
                       {"def", "params", "domain", "edge"}),
    "valuation": (parse_assignment, legacy.parse_assignment,
                  lambda a, b: a == b, set()),
}
CORPUS = [("library", t) for t in LIBRARIES] + \
    [("interpretation", t) for t in INTERPRETATIONS] + \
    [("valuation", t) for t in VALUATIONS]


def _read(reader, text):
    """(the reading, None), or (None, the ValueError raised)."""
    try:
        return reader(text), None
    except ValueError as exc:
        return None, exc


# texts outside the documented syntax that the legacy readers took and
# the readers now reject: a negative vertex in a set
REJECTED_NOW = {"Y={0,-1}"}


def _assert_read_alike(kind: str, text: str):
    new, old, same, _ = KINDS[kind]
    got, err = _read(new, text)
    want, old_err = _read(old, text)
    if "".join(text.split()) in REJECTED_NOW:
        assert old_err is None and isinstance(err, FormulaSyntaxError), text
    elif old_err is None:
        assert err is None and same(got, want), (text, err)
    else:  # the legacy readers raised their own class for syntax errors
        assert type(err) in (type(old_err), FormulaSyntaxError), \
            (text, err, old_err)
    return got


# Gaps between tokens.  A valuation takes no comment: the legacy reader
# had none.
_ANY = ["", " ", "  ", "\n", "\n\n", "  # note\n", "\t", "\n    "]
_INLINE = ["", " ", "  "]
_NEWLINE = ["\n", "\n\n", "  # note\n", "\n# note\n\n    "]


def _reformat(kind: str, text: str, rng: random.Random) -> str:
    """text with the whitespace and comments between its tokens drawn at
    random, in a layout that the legacy readers read alike: a block
    keyword that starts a line still does, and shares it with what their
    patterns want on that line (``def name``, ``domain(``, the whole
    ``params: [..]`` header); no other keyword starts a line."""
    tokens = _tokenize(text)[:-1]
    keywords = KINDS[kind][3]
    anywhere = [g for g in _ANY if "#" not in g] if kind == "valuation" \
        else _ANY
    allowed = [anywhere] * len(tokens)  # the gaps allowed before each token
    for i, tok in enumerate(tokens):
        if tok.text not in keywords:
            continue
        if i and "\n" not in text[tokens[i - 1].pos:tok.pos]:
            allowed[i] = _INLINE
            continue
        allowed[i] = _NEWLINE
        if tok.text == "params":
            end = next(j for j in range(i, len(tokens))
                       if tokens[j].text == "]")
            allowed[i + 1:end + 1] = [[""]] + [_INLINE] * (end - i - 1)
        else:
            allowed[i + 1] = [" ", "  "] if tok.text == "def" else _INLINE
    out = [rng.choice(_INLINE if kind == "valuation" else _NEWLINE + [""])]
    for i, tok in enumerate(tokens):
        gap = rng.choice(allowed[i]) if i else ""
        if gap == "" and i and [t.text for t in _tokenize(
                tokens[i - 1].text + tok.text)[:-1]] != \
                [tokens[i - 1].text, tok.text]:
            gap = " "  # the two would read as one token
        out += [gap, tok.text]
    out.append(rng.choice(_INLINE if kind == "valuation" else _NEWLINE))
    return "".join(out)


@pytest.mark.parametrize("kind, text", CORPUS,
                         ids=[f"{k}-{i}" for i, (k, _) in enumerate(CORPUS)])
def test_readers_read_the_corpus_as_the_legacy_readers(kind, text):
    _assert_read_alike(kind, text)


def test_readers_read_reformatted_texts_alike():
    rng = random.Random(27)
    for kind, text in CORPUS:
        if "".join(text.split()) in REJECTED_NOW:
            continue  # no tokens to move
        want = _read(KINDS[kind][0], text)
        for _ in range(1 if len(text) > 5000 else 6):
            shuffled = _reformat(kind, text, rng)
            got = _assert_read_alike(kind, shuffled)
            if want[1] is None:
                assert KINDS[kind][2](got, want[0]), shuffled
            else:
                assert type(_read(KINDS[kind][0], shuffled)[1]) is \
                    type(want[1]), shuffled


def test_syntax_errors_carry_offsets_into_the_whole_text():
    lib = ("def a(x) := E(x, x)\n# line 2\n"
           "def b(x) := E(x, x) & & a(x)\n")
    with pytest.raises(FormulaSyntaxError) as err:
        parse_library(lib)
    assert err.value.pos == lib.index("& a(x)")
    interp = "params: [Z]\ndomain(x) := Z(x)\nedge(x, y) := E(x, y) | )\n"
    with pytest.raises(FormulaSyntaxError) as err:
        parse_interpretation(interp)
    assert err.value.pos == interp.rindex(")")
    with pytest.raises(FormulaSyntaxError) as err:
        parse_assignment("x=0, Y={1, 2,}")
    assert err.value.pos == len("x=0, Y={1, 2,")


def test_readers_take_what_the_legacy_readers_did_not():
    one_line = parse_library("def a(x) := E(x, x) def b(x) := a(x)")
    assert [d.name for d in one_line.defs] == ["a", "b"]
    # a stray line before the first rule is a syntax error, as after it
    for text in ("oops\ndomain(x) := x = x\nedge(x, y) := E(x, y)",
                 "domain(x) := x = x\noops\nedge(x, y) := E(x, y)"):
        with pytest.raises(FormulaSyntaxError, match="'oops'"):
            parse_interpretation(text)


@pytest.mark.parametrize("rules, bad", [
    ("domain(y) := Z(x)\nedge(x, y) := E(x, y)", "domain"),
    ("domain(x) := Z(x)\nedge(a, b) := E(x, y)", "edge"),
    ("domain(x, y) := Z(x)\nedge(x, y) := E(x, y)", "domain"),
    ("domain(x) := Z(x)\nedge(x) := E(x, x)", "edge"),
    ("domain(y) := Z(y)\nedge(b, a) := E(a, b) & Z(b)", None),
])
def test_rules_declare_their_free_vertex_variables(rules, bad):
    text = "params: [Z]\n" + rules
    if bad is None:
        assert parse_interpretation(text).params == ("Z",)
        return
    at = text.index(bad + "(")
    with pytest.raises(InterpretationError,
                       match=re.escape(f"rule '{bad}' (at position {at})")):
        parse_interpretation(text)


def test_a_repeated_name_is_an_error_not_the_last_value(tmp_path, capsys):
    with pytest.raises(UsageError, match="'x' is assigned twice"):
        parse_assignment("x=1, x=2")
    with pytest.raises(UsageError, match=r"'Y' .* \(at position 11\)"):
        parse_assignment("Y={}, x=0, Y={1}")  # the second Y
    header = "params: [Z]\n"
    domain, edge = "domain(x) := Z(x)\n", "edge(x, y) := E(x, y)\n"
    for text, twice in ((header + domain + header + edge, "params"),
                        (header + domain + edge + domain, "domain"),
                        (edge + header + edge + domain, "edge")):
        at = text.index(twice, text.index(twice) + 1)
        with pytest.raises(InterpretationError, match=re.escape(
                f"{twice!r} is given twice (again at position {at})")):
            parse_interpretation(text)
    # through the command line: exit 2 for a valuation, 1 for a file
    host, interp = tmp_path / "p3.json", tmp_path / "twice.interp"
    host.write_text(grid(1, 3).to_json())
    interp.write_text(header + domain + edge + domain)
    for argv, code in ((["eval", host, "--formula", "x = x", "--assign",
                         "x=0, x=1"], 2),
                       (["apply", host, "--interp", interp, "--params",
                         "Z={0}"], 1)):
        assert main([str(a) for a in argv]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:"), err


# ---------------------------------------------------------------------------
# Fuzzing
# ---------------------------------------------------------------------------

_PIECES = ["(", ")", "[", "]", "{", "}", ",", ":", ":=", "=", "!=", "!",
           "&", "|", "->", "<->", ".", "#", "\n", " ", "x", "x'", "Z", "0",
           "7", "-1", "def", "params", "domain", "exists", "TC", "E", '"',
           "null", "1e999", "\\", "\x00", "é", "٣", "{}", "[]"]
_OPENERS = ["(", "[", "{", "!", "exists z. (", "TC[u, v: ", '{"a": ',
            "def p(x) := (", "Z={"]


def _mutate(text: str, rng: random.Random) -> str:
    """text after one to three seeded edits: a character flipped, the end
    cut off, a span dropped or repeated, a piece inserted, brackets
    inserted, or a deep nest opened."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        j = rng.randint(i, min(len(text), i + 12))
        op = rng.randrange(7)
        if op == 0 and text:
            i = min(i, len(text) - 1)
            text = text[:i] + rng.choice(_PIECES + [chr(rng.randrange(
                32, 127))]) + text[i + 1:]
        elif op == 1:
            text = text[:i]
        elif op == 2:
            text = text[:i] + text[j:]
        elif op == 3:
            text = text[:j] + text[i:]
        elif op == 4:
            text = text[:i] + rng.choice(_PIECES) + text[i:]
        elif op == 5:
            text = text[:i] + rng.choice("([{)]}") * rng.randint(1, 5) + \
                text[i:]
        else:
            depth = rng.choice([50, 300, 3000])
            text = text[:i] + rng.choice(_OPENERS) * depth + text[i:]
    return text


_VALUES = [None, True, -1, 0, 2, 7, 1.5, 10 ** 30, "", "x", [], {}, [0],
           [[0, 1]], [[0, 0]], ["leaf", 1], ["union", 1], ["join", 1, 2],
           {"1": "a"}, {"x": [9]}]


def _mutate_json(text: str, rng: random.Random) -> str:
    """A JSON text with one to three of its values replaced or dropped,
    each at a seeded path; or, one time in four, after ``_mutate``."""
    if rng.random() < 0.25:
        return _mutate(text, rng)
    data = json.loads(text)
    for _ in range(rng.randint(1, 3)):
        parent, key, node = None, None, data
        while isinstance(node, (list, dict)) and node and \
                (parent is None or rng.random() < 0.7):
            parent = node
            key = rng.choice(list(node) if isinstance(node, dict)
                             else range(len(node)))
            node = node[key]
        if parent is None:
            continue
        if isinstance(parent, dict) and rng.random() < 0.2:
            del parent[key]
        else:
            parent[key] = json.loads(json.dumps(rng.choice(_VALUES)))
    return json.dumps(data)


FORMULAS = [
    "exists y. (E(x, y) & red(y))",
    "forall X. (X(x) -> exists! y. (X(y) & y != x))",
    "TC[u, v: E(u, v) & !Z(v)](x, y) xor x = y",
    "(a <-> b(x)) | false | true & !E(x, x)",
]
LABELED = LabeledGraph.build(4, [(0, 1), (1, 2), (2, 3)],
                             {"red": [0, 2], "Z": []}, {0: "a", 3: "d"})
GRAPHS = [grid(2, 2).to_json(), LABELED.to_json()]
TREE_DECOMPOSITIONS = [treewidth_exact(grid(2, 3))[1].to_json()]
K_EXPRESSIONS = [cliquewidth_exact(grid(2, 2))[1].to_json()]

# each reader, the errors it documents, its valid seeds, their mutator
READERS = [
    (parse_formula, (FormulaSyntaxError,), FORMULAS, _mutate),
    (parse_library, (FormulaSyntaxError, LibraryError),
     [t for t in LIBRARIES if len(t) < 5000], _mutate),
    (parse_interpretation,
     (FormulaSyntaxError, LibraryError, InterpretationError),
     INTERPRETATIONS, _mutate),
    (parse_assignment, (FormulaSyntaxError, UsageError), VALUATIONS,
     _mutate),
    (LabeledGraph.from_json, (GraphError,), GRAPHS, _mutate_json),
    (TreeDecomposition.from_json, (WidthError,), TREE_DECOMPOSITIONS,
     _mutate_json),
    (KExpression.from_json, (WidthError,), K_EXPRESSIONS, _mutate_json),
]


@pytest.mark.parametrize("reader, errors, seeds, mutate", READERS,
                         ids=[r[0].__qualname__ for r in READERS])
def test_fuzzed_readers_raise_only_their_documented_errors(
        reader, errors, seeds, mutate):
    rng = random.Random(4)
    for case in range(150):
        text = mutate(rng.choice(seeds), rng)
        try:
            reader(text)
        except errors:
            pass
        except Exception as exc:  # any other error is a finding
            pytest.fail(f"case {case}: {type(exc).__name__}: {exc} on "
                        f"{text[:300]!r}")


def test_fuzzed_files_exit_0_to_3_without_a_traceback(tmp_path, capsys):
    host = tmp_path / "host.json"
    host.write_text(LABELED.to_json())
    edited = tmp_path / "edited"
    # a command that reads the edited file, the seeds of that file, and
    # their mutator
    commands = [
        (["eval", host, "--library", edited, "--pred", "p",
          "--assign", "x=0, y=1"],
         ["def p(x, y) := E(x, y) | q(y)\ndef q(y) := red(y) # a comment\n",
          SHIPPED[0]], _mutate),
        (["apply", host, "--interp", edited, "--params", "Z={0,1,3}"],
         INTERPRETATIONS[4:7], _mutate),
        (["width", edited, "--measure", "twd"], GRAPHS, _mutate_json),
        (["width", host, "--measure", "twd", "--certify", edited],
         [treewidth_exact(LABELED)[1].to_json()], _mutate_json),
        (["width", host, "--measure", "cwd", "--certify", edited],
         [cliquewidth_exact(LABELED)[1].to_json()], _mutate_json),
    ]
    rng = random.Random(5)
    for case in range(60):
        argv, seeds, mutate = commands[case % len(commands)]
        edited.write_text(mutate(rng.choice(seeds), rng), encoding="utf-8")
        code = main([str(a) for a in argv])
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3) and "Traceback" not in err, \
            (case, argv, edited.read_text()[:300], err)

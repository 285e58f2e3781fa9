"""Seeded mutation fuzzing of the three text parsers.

Every malformed input must fail with a ValueError (ParseError or
CyclicDependencyError), the exceptions the CLI maps to exit 64.
"""

import random

import pytest

from skolemkit.benchgen import (BphpParams, TrapParams, bphp_lexfirst_skolem,
                                gen_bphp, gen_factor, gen_planted_cover,
                                gen_trap)
from skolemkit.formula import (emit_aiger, emit_skolem, parse_aiger,
                               parse_skolem, parse_spec, write_qdimacs)
from skolemkit.synth import synth_lex

MUTATIONS = 3000
TOKENS = ["0", "1", "-1", "-3", "7", "99999", "x", "y", "g", "x0", "y9",
          "g1", "g99", "(", ")", ",", "=", ":=", "NOT(", "AND(x1,)",
          "XOR(", "p", "cnf", "a", "e", "c", "inputs", "outputs", "skolem",
          "aag", "i0", "o0", "1.5", "-", "#", "\n", " "]


def _specs():
    yield gen_factor(3)
    yield gen_bphp(BphpParams(3, 1))
    spec, _, _ = gen_trap(TrapParams(4, 4, 2, seed=1))
    yield spec
    spec, _ = gen_planted_cover(4, 3, 2, seed=2)
    yield spec


def _corpus():
    specs = list(_specs())
    vecs = [synth_lex(s) for s in specs] + [bphp_lexfirst_skolem(
        BphpParams(3, 1))]
    annotated = ("c inputs 1 2\nc outputs 3\np cnf 3 2\n"
                 "-3 1 0\n-3 2 0\n")
    return {
        "spec": [write_qdimacs(s) for s in specs] + [annotated],
        "skolem": [emit_skolem(v) for v in vecs],
        "aiger": [emit_aiger(v) for v in vecs],
    }


def _mutate(text: str, rng: random.Random) -> str:
    kind = rng.randrange(4)
    if kind == 0:                       # truncate
        return text[:rng.randrange(len(text) + 1)]
    if kind == 1:                       # insert a token
        pos = rng.randrange(len(text) + 1)
        tok = rng.choice(TOKENS)
        if rng.getrandbits(1):
            tok = f" {tok} "
        return text[:pos] + tok + text[pos:]
    if kind == 2:                       # shuffle lines
        lines = text.splitlines()
        rng.shuffle(lines)
        return "\n".join(lines) + "\n"
    start = rng.randrange(len(text) + 1)  # cut a span
    return text[:start] + text[start + rng.randrange(1, 40):]


@pytest.mark.parametrize("kind,parse", [("spec", parse_spec),
                                        ("skolem", parse_skolem),
                                        ("aiger", parse_aiger)])
def test_parser_fails_only_with_value_error(kind, parse):
    texts = _corpus()[kind]
    for text in texts:                  # the unmutated corpus parses
        parse(text)
    rng = random.Random(f"fuzz/{kind}")
    for _ in range(MUTATIONS):
        text = _mutate(rng.choice(texts), rng)
        try:
            parse(text)
        except ValueError:
            pass
        except Exception as e:
            raise AssertionError(
                f"{type(e).__name__}: {e} on input:\n{text}") from e

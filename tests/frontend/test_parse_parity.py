"""Pinned parse outcomes over the kernels, the smoke slice and their mutants.

Each source is the text of a ``SUITE`` kernel or of a corpus smoke-slice
program.  From each, a seeded stream of single-edit mutants is derived:
delete one character, insert one short ASCII snippet, or delete a span
of up to 30 characters.  For every text the fixture records either a
short digest of ``repr(parse(text))`` or the ``CompileError``'s
``(message, line, column)``, so any change in the AST or in an error's
wording or position shows up as a named failure.  Each mutant's own
digest is pinned too, which tells a drifted mutant stream apart from a
changed parser.

The fixture was written by the character-at-a-time lexer and
level-per-method parser that the current ones replaced, so it is the
reference they must match.  Rewrite it only after a deliberate grammar
or message change, with
``PYTHONPATH=src python -m tests.frontend.test_parse_parity``.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.bench import SUITE
from repro.corpus import DEFAULT_MANIFEST_PATH, entry_source, load_manifest
from repro.frontend import CompileError, parse

FIXTURE = Path(__file__).parent / "data" / "parse_parity.json"

MUTANTS_PER_SOURCE = 40

#: Inserted snippets: every symbol character, comment openers and
#: closers, number pieces and a character no token starts with.
INSERTS = ["/*", "*/", "//", "&", "|", ".", "e", "E", "[", "]", "(", ")",
           "{", "}", ";", ",", "=", "<", ">", "!", "+", "-", "*", "/",
           "%", "0", "7", "x", "_", " ", "\n", "@", "1.", ".5", "e-"]


def _sources():
    sources = {name: bench.source for name, bench in SUITE.items()}
    manifest = load_manifest(DEFAULT_MANIFEST_PATH)
    for entry in manifest["entries"]:
        if entry["smoke"]:
            sources[entry["id"]] = entry_source(manifest, entry)
    return sources


def _mutants(name, source):
    rng = random.Random(name)
    for _ in range(MUTANTS_PER_SOURCE):
        edit = rng.randrange(3)
        at = rng.randrange(len(source))
        if edit == 0:
            yield source[:at] + source[at + 1:]
        elif edit == 1:
            yield source[:at] + rng.choice(INSERTS) + source[at:]
        else:
            yield source[:at] + source[at + rng.randint(2, 30):]


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _outcome(text):
    try:
        return _digest(repr(parse(text)))
    except CompileError as error:
        return [error.message, error.line, error.column]


def _record(name, source):
    return {"ast": _outcome(source),
            "mutants": [[_digest(text), _outcome(text)]
                        for text in _mutants(name, source)]}


SOURCES = _sources()


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_source(pinned):
    assert sorted(pinned) == sorted(SOURCES)


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_parse_outcomes_match_fixture(pinned, name):
    source = SOURCES[name]
    expected = pinned[name]
    assert _outcome(source) == expected["ast"]
    for text, (text_digest, outcome) in zip(_mutants(name, source),
                                            expected["mutants"]):
        assert _digest(text) == text_digest, "mutant stream drifted"
        assert _outcome(text) == outcome, text


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(
        {name: _record(name, source) for name, source in SOURCES.items()},
        indent=0, sort_keys=True) + "\n")

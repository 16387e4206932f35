"""`restore` either round-trips a scenario document or refuses it.

One leaf of a seed-9 l=2, n=2 scenario is replaced by a value of another
type, or deleted, or one unknown key is added to an object.  `restore
--out` must then either exit 3 (an `error:` line, no file written) or
write exactly the text of the mutated document.  JSON text is
type-strict, so loading `true` where `1` stood, or ignoring a key, and
saving again would give a different document.  The first two public-key
entries and the first two transcript messages stand for the rest.  The
command runs in process, so a traceback is an exception out of `main`,
which fails the test.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcheque.cli import _dump, main

FAST = ["--l", "2", "--n", "2", "--key-bits", "64", "--serial-bits", "64"]
MUTATIONS = [[], {}, "x", None, -1, 0, 1.5, True]
DELETE, ADD_KEY = "<delete>", "<add unknown key>"
SAMPLED_LISTS = ("entries", "transcript")


def _run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


def _paths(node, path=()):
    """The key path of every object and every leaf under `node`."""
    if isinstance(node, dict):
        yield path, True
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif isinstance(node, list):
        keep = 2 if path and path[-1] in SAMPLED_LISTS else len(node)
        for i, child in enumerate(node[:keep]):
            yield from _paths(child, path + (i,))
    else:
        yield path, False


def _cases(text):
    cases = []
    for path, is_object in _paths(json.loads(text)):
        actions = [ADD_KEY] if is_object else MUTATIONS + [DELETE]
        cases += [(path, action) for action in actions]
    return cases


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    """A work directory, the scenario text, and its mutation cases to draw."""
    root = tmp_path_factory.mktemp("restore")
    path = root / "scenario.json"
    code, err = _run("snapshot", *FAST, "--seed", "9", "--snapshot", str(path))
    assert code == 0, err
    text = path.read_text()
    cases = _cases(text)
    # one strategy object: hypothesis labels a sampled_from by hashing
    # every element, once per object
    return root, text, cases, st.sampled_from(cases)


def _mutated(text, path, action):
    """The scenario document with one case applied."""
    doc = json.loads(text)
    if action == ADD_KEY:
        path, action = path + ("unknown",), 1
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    if action == DELETE:
        del node[last]
    else:
        node[last] = action
    return doc


def test_mutation_space_covers_every_section(scenario):
    cases = scenario[2]
    sections = {path[0] for path, _ in cases if path}
    assert sections == {"format", "version", "config", "world", "bank", "cheque"}
    assert ((), ADD_KEY) in cases
    assert (("world", "rng", "state", "inc"), 1.5) in cases
    assert (("bank", "records", 0, "public_key", "entries", 1, 1), DELETE) in cases
    assert (("bank", "records", 0, "public_key", "entries", 2, 0), "x") not in cases
    assert 900 < len(cases) < 1000


# Hypothesis stops once it has drawn every case, so each run tries all of
# them well before max_examples.
@settings(max_examples=2000, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_restore_round_trips_or_refuses(scenario, data):
    root, text, _, cases = scenario
    doc = _mutated(text, *data.draw(cases, label="case"))
    mutated, resaved = root / "mutated.json", root / "resaved.json"
    mutated.write_text(json.dumps(doc))
    resaved.unlink(missing_ok=True)
    code, err = _run("restore", "--snapshot", str(mutated), "--out", str(resaved))
    if code == 3:
        assert "error:" in err
        assert not resaved.exists()
    else:
        assert code == 0, err
        assert resaved.read_text() == _dump(doc)

"""Property test of the `fritpid run` exit-code contract.

Every input exits 0 (success), 2 (configuration error) or 3 (numerical
breakdown); no exception escapes `cli.main`.  The inputs are the bundled
scenarios with one to three of their nodes mutated: a type swap, NaN or an
infinity, a negation or zero, a huge or a subnormal number, an empty list, a
deletion, or an unknown key next to it; then, maybe, a field that only another
kind reads added to a reference or plant that still names a known kind.  A
mutant that breaks the schema's types where the oracle can tell for sure (a
bool or a numeric string in place of a number, a string in place of a list)
must exit 2, and so must one with another kind's field.  An exit 2 writes nothing under `--out`; an
exit 0 writes a summary with a finite MAE and maxAE.  Each run is capped at
CAP_S seconds of simulated time.
"""

import copy
import json
import math
import shutil
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from fritpid.cli import main
from fritpid.harness import ScenarioConfig

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
CAP_S = 2.0


def capped(raw: dict) -> dict:
    """The scenario on [0, CAP_S], its schedule switches moved inside it."""
    raw = copy.deepcopy(raw)
    scale = CAP_S / raw["duration"]
    raw["duration"] = CAP_S
    raw["evaluation_window"] = [0.0, CAP_S]
    for entry in raw["plant"].get("schedule", []):
        entry["time"] *= scale
    return raw


BASES = [capped(json.loads(p.read_text())) for p in sorted(SCENARIO_DIR.glob("*.json"))]


def nodes(value, path=()):
    """Path of every node under the root, containers and leaves alike."""
    children = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from nodes(child, path + (key,))


def negated(v):
    return -v if isinstance(v, (int, float)) and not isinstance(v, bool) else -1.0


MUTATIONS = {
    "string": lambda v: "x",
    "json text": json.dumps,
    "null": lambda v: None,
    "bool": lambda v: True,
    "list": lambda v: [v],
    "object": lambda v: {"value": v},
    "nan": lambda v: math.nan,
    "inf": lambda v: math.inf,
    "-inf": lambda v: -math.inf,
    "negated": negated,
    "zero": lambda v: 0,
    "huge": lambda v: 1e300,
    "tiny": lambda v: 5e-324,
    "empty list": lambda v: [],
}


# the fields that only some kinds of a section read (README's scenario files),
# each with a value of its type
KIND_FIELDS = {
    "reference": {"constant": {"offset"}, "sine": {"amplitude", "offset", "frequency"},
                  "square": {"amplitude", "offset", "period"}, "staircase": {"levels", "interval"}},
    "plant": {"lti": {"num", "den"}, "bouc_wen": {"params"}},
}
FIELD_VALUES = {"offset": 1.0, "amplitude": 1.0, "frequency": 0.1, "period": 40.0,
                "levels": [1.0], "interval": 20.0, "num": [0.0, 0.01], "den": [1.0, -0.99],
                "params": {"gain": 1.0}}


def mutate(raw: dict, path: tuple, how: str) -> None:
    *head, key = path
    parent = raw
    for k in head:
        parent = parent[k]
    if how == "delete":
        del parent[key]
    elif how == "unknown key":
        (parent if isinstance(parent, dict) else raw)["no_such_key"] = 1.0
    else:
        parent[key] = MUTATIONS[how](parent[key])


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_number_text(value) -> bool:
    try:
        float(value)
    except (TypeError, ValueError):
        return False
    return isinstance(value, str)


def cap_duration(raw: dict) -> None:
    """A number duration that still gives a valid run longer than CAP_S becomes CAP_S."""
    duration = raw.get("duration", ScenarioConfig.duration)
    if is_number(duration) and CAP_S < duration < math.inf:
        raw["duration"] = CAP_S


def mistyped(base, raw) -> bool:
    """Does `raw` hold a bool or a numeric string where `base` holds a number,
    or a string where `base` holds a list?"""
    if isinstance(base, dict) and isinstance(raw, dict):
        return any(mistyped(base[key], raw[key]) for key in base.keys() & raw.keys())
    if isinstance(base, list):
        if isinstance(raw, list):
            return any(map(mistyped, base, raw))
        return isinstance(raw, str)
    return is_number(base) and (isinstance(raw, bool) or is_number_text(raw))


@st.composite
def mutants(draw):
    base = draw(st.sampled_from(BASES))
    raw = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(nodes(raw))
        if not paths:
            break
        how = draw(st.sampled_from([*MUTATIONS, "delete", "unknown key"]))
        mutate(raw, draw(st.sampled_from(paths)), how)
    foreign = False
    if draw(st.booleans()):  # the last mutation: a field of another kind
        kinds = KIND_FIELDS[section := draw(st.sampled_from(sorted(KIND_FIELDS)))]
        node = raw.get(section)
        kind = node.get("kind") if isinstance(node, dict) else None
        if isinstance(kind, str) and kind in kinds:
            key = draw(st.sampled_from(sorted(set().union(*kinds.values()) - kinds[kind])))
            node[key], foreign = FIELD_VALUES[key], True
    cap_duration(raw)
    return base, raw, foreign


@settings(derandomize=True, database=None, deadline=None, max_examples=250)
@given(mutant=mutants())
def test_run_exits_0_2_or_3(tmp_path_factory, mutant):
    base, raw, foreign = mutant
    root = tmp_path_factory.getbasetemp() / "exit_contract"
    root.mkdir(exist_ok=True)
    path, out = root / "mutant.json", root / "out"
    path.write_text(json.dumps(raw))
    shutil.rmtree(out, ignore_errors=True)  # each example starts from no --out directory
    code = main(["run", str(path), "--out", str(out)])
    assert code in ((2,) if foreign or mistyped(base, raw) else (0, 2, 3))
    if code == 2:
        assert not out.exists()
    elif code == 0:
        [summary] = out.glob("*_summary.json")
        summary = json.loads(summary.read_text())
        assert math.isfinite(summary["mae"]) and math.isfinite(summary["max_ae"])

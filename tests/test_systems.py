"""The system registry: the CLI reads its defaults and flags from it, and the
README's systems table is generated from it."""

import copy
import inspect
import math
import pickle
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

import qcbound as qb
from qcbound import cli
from qcbound.cli import main
from qcbound.systems import CLI_NAMES, SYSTEMS

README = Path(__file__).parents[1] / "README.md"
OPTIONS = sorted({f.option for spec in SYSTEMS.values() for f in spec.cli_flags})


def registry_table() -> list[str]:
    """The README systems table, one row per registry entry."""
    rows = ["| tag | target | `bound` flags and their defaults |",
            "|---|---|---|"]
    for spec in SYSTEMS.values():
        names = ", ".join(f"`{n}`" for n, s in CLI_NAMES.items() if s is spec)
        flags = " ".join(f"`{f.option} {f.default:g}`" for f in spec.cli_flags)
        rows.append(f"| {names} | {spec.summary} | {flags} |")
    return rows


def test_readme_systems_table_is_the_registry():
    lines = README.read_text().splitlines()
    start = lines.index(registry_table()[0])
    assert lines[start:start + len(SYSTEMS) + 2] == registry_table()


def test_matching_still_exports_the_target_type():
    # perfbench/setup_probe.py builds its targets as matching.TargetSpec.*
    import qcbound.matching
    import qcbound.systems
    assert qcbound.matching.TargetSpec is qcbound.systems.TargetSpec
    assert qcbound.matching.TargetSpec is qb.TargetSpec


@pytest.mark.parametrize("name", sorted(CLI_NAMES))
def test_bound_defaults_are_the_constructor_defaults(name, capsys):
    spec = CLI_NAMES[name]
    takes_t = any(p.name == "t" for p in spec.params)
    required = {p.name: p.default for p in spec.params if not p.optional}
    if takes_t:
        required["t"] = 1.0
    target = getattr(qb.TargetSpec, spec.tag)(**required)
    assert main(["bound", name] + (["--t", "1"] if takes_t else [])) == 0
    assert capsys.readouterr().out.splitlines()[0] == f"{qb.bound(target).value:.12g}"


def test_bound_anharm_uses_the_library_penalty(capsys):
    # the hard-direction penalty defaults to 100, as in TargetSpec.anharm_cubic
    assert main(["bound", "anharm", "--omega", "1", "--lambda", "0.05",
                 "--t", "1"]) == 0
    value = qb.bound(qb.TargetSpec.anharm_cubic(1.0, 0.05, 1.0)).value
    assert value == 1.2340052057807032
    assert capsys.readouterr().out.splitlines()[0] == "1.23400520578"


@pytest.mark.parametrize("name", sorted(CLI_NAMES))
def test_bound_rejects_flags_its_system_does_not_take(name, capsys):
    taken = {f.option for f in CLI_NAMES[name].cli_flags}
    for option in OPTIONS:
        if option in taken:
            continue
        assert main(["bound", name, option, "0.5"]) == 2, option
        err = capsys.readouterr().err
        assert err == f"error: {name} does not take {option}\n"
    assert main(["bound", name] + [a for o in sorted(taken) for a in (o, "1")]) in (0, 3)


def test_bound_names_every_unused_flag(capsys):
    assert main(["bound", "ho", "--mu", "1", "--t", "1", "--lambda", "0.3"]) == 2
    assert capsys.readouterr().err == "error: ho does not take --lambda, --mu\n"


def test_verify_opens_out_before_running_the_suite(monkeypatch, tmp_path, capsys):
    calls = []
    monkeypatch.setattr(cli, "run_suite", lambda suite: calls.append(suite))
    out = tmp_path / "missing" / "r.json"
    assert main(["verify", "all", "--out", str(out)]) == 2
    assert calls == []
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")


def test_constructors_follow_the_registry():
    for spec in SYSTEMS.values():
        make = getattr(qb.TargetSpec, spec.tag)
        args = [1.0 if p.name != "alpha" else 1j for p in spec.params
                if not p.optional]
        target = make(*args)
        assert target.spec is spec
        assert list(target.params) == [p.name for p in spec.params]
        assert all(target.params[p.name] == p.default
                   for p in spec.params if p.optional)
        assert math.isfinite(qb.bound(target).value)
    with pytest.raises(TypeError):
        qb.TargetSpec.ho(1.0)
    with pytest.raises(ValueError, match="omega must be positive"):
        qb.TargetSpec.ho(0.0, 1.0)
    assert str(inspect.signature(qb.TargetSpec.coupled)) == \
        "(omega1, omega2, mu, t, q=1.0, p=1.0)"


_COUPLED = {"omega1": 2.0, "omega2": 1.0, "mu": 3.0, "t": 0.4}

# (system, params, error, message): both routes raise this error
BAD_TARGETS = [
    ("ho", {"omega": -1.0, "t": 2.0}, ValueError, "omega must be positive, got -1.0"),
    ("coupled", {**_COUPLED, "q": 10.0, "p": 1.0}, ValueError,
     "coupled requires penalties p >= q"),
    ("ho", {"omega": 1.0, "t": 2.0, "lam": 0.3}, TypeError,
     "TargetSpec.ho() got an unexpected keyword argument 'lam'"),
    ("ho", {"omega": 1.0}, TypeError,
     "TargetSpec.ho() missing 1 required positional argument: 't'"),
    # in constructor order: positivity, cast, the system's check, finiteness
    ("iho", {"Omega": 0.0, "t": math.nan}, ValueError, "Omega must be positive, got 0.0"),
    ("ho", {"omega": "1", "t": 2.0}, TypeError,
     "'>' not supported between instances of 'str' and 'int'"),
    ("coupled", {**_COUPLED, "mu": math.inf, "q": 10.0, "p": 1.0}, ValueError,
     "coupled requires penalties p >= q"),
    ("anharm_cubic", {"omega": 1.0, "lam": math.nan, "t": 1.0}, ValueError,
     "lam must be finite, got nan"),
    ("displacement", {"alpha": complex(0.0, math.inf)}, ValueError,
     "alpha must be finite, got infj"),
    ("ho", {"omega": math.inf, "t": 1.0}, ValueError, "omega must be finite, got inf"),
]


@pytest.mark.parametrize("system, params, error, message", BAD_TARGETS,
                         ids=[f"{b[0]}-{i}" for i, b in enumerate(BAD_TARGETS)])
def test_direct_construction_rejects_what_the_constructor_rejects(
        system, params, error, message):
    for make in (lambda: getattr(qb.TargetSpec, system)(**params),
                 lambda: qb.TargetSpec(system, params)):
        with pytest.raises(error) as info:
            make()
        assert str(info.value) == message


def test_direct_construction_casts_and_fills_defaults_like_the_constructor():
    direct = qb.TargetSpec("coupled", {"omega1": 2, "omega2": 1, "mu": 3, "t": 0.4})
    named = qb.TargetSpec.coupled(2, 1, 3, 0.4)
    assert direct == named
    assert direct.params == {**_COUPLED, "q": 1.0, "p": 1.0}
    assert all(type(v) is float for v in direct.params.values())
    assert direct.spec is SYSTEMS["coupled"]
    assert qb.bound(direct).value == qb.bound(named).value
    assert qb.TargetSpec("displacement", {"alpha": 1}).params == {"alpha": 1 + 0j}


def test_targets_pickle_copy_and_cross_processes():
    # a target is its system tag and parameters; the registry entry, with its
    # lambdas, is looked up and never stored, so targets go to worker processes
    def fields(res):
        return (res.value, res.formula_id, res.v0.tolist(), res.branch,
                res.caveats, res.extras)

    targets = [getattr(qb.TargetSpec, spec.tag)(
        *[0.7 if p.name != "alpha" else 0.3 - 0.4j
          for p in spec.params if not p.optional]) for spec in SYSTEMS.values()]
    want = [fields(qb.bound(target)) for target in targets]
    assert all(math.isfinite(w[0]) for w in want)
    for target, w in zip(targets, want):
        for twin in (pickle.loads(pickle.dumps(target)), copy.deepcopy(target)):
            assert twin == target
            assert twin.spec is target.spec
            assert fields(qb.bound(twin)) == w
    with ProcessPoolExecutor(max_workers=2) as pool:
        assert [fields(res) for res in pool.map(qb.bound, targets)] == want


def test_target_reads_the_registry_entry_at_use(monkeypatch):
    # a target built before the registry is patched reads the patched entry
    target = qb.TargetSpec.ho(1.0, 2.0)
    patched = SYSTEMS["ho"]._replace(formula_id="patched")
    monkeypatch.setitem(SYSTEMS, "ho", patched)
    assert target.spec is patched
    assert qb.bound(target).formula_id == "patched"


def test_a_matched_point_is_measured_in_one_call():
    # one measure(params, v0) -> (value, extras) replaces length and extras
    fields = set(qb.systems.SystemSpec._fields)
    assert "measure" in fields and not fields & {"length", "extras"}
    for spec in SYSTEMS.values():
        target = getattr(qb.TargetSpec, spec.tag)(
            *[0.7 if p.name != "alpha" else 0.3 - 0.4j
              for p in spec.params if not p.optional])
        res = qb.bound(target)
        value, extras = spec.measure(target.params, res.v0.tolist())
        assert (value, extras) == (res.value, res.extras)

"""The system registry: the CLI reads its defaults and flags from it, and the
README's systems table is generated from it."""

import inspect
import math
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

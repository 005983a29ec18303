"""The mutation table's Tier-1 part: every row is well formed, and the runner works on one row.

Running every row, ``python tests/mutants.py``, is a manual step like the
benchmark (see ``mutants.py``).
"""

import subprocess
import sys

import mutants

# A structure-guard row: its one killer runs in about a second.
CHEAP = "guard-preset-name-in-cli"


def test_rows_are_named_once_and_say_how_they_die():
    names = [m.name for m in mutants.ROWS]
    assert sorted({name for name in names if names.count(name) > 1}) == []
    # Killers or, for an equivalent mutant, a reason; a corpus count only beside killers.
    assert [m.name for m in mutants.ROWS if bool(m.kills) == (m.reason is not None) or m.moved is not None and not m.kills] == []


def test_every_snippet_occurs_once_and_every_mutant_compiles():
    for m in mutants.ROWS:
        assert m.path.startswith(("src/framesel/", "tests/")), m.name
        text = (mutants.ROOT / m.path).read_text(encoding="utf-8")
        changed = mutants.mutated(text, m)
        assert changed != text, m.name
        compile(changed, m.path, "exec")


def test_every_listed_id_is_collected():
    ids = {i for m in mutants.ROWS for i in m.kills}
    files = sorted({i.split("::")[0] for i in ids})
    command = [sys.executable, *mutants.PYTEST, "--collect-only", *files]
    proc = subprocess.run(command, cwd=mutants.ROOT, env=mutants.environment(mutants.ROOT), capture_output=True, text=True)
    assert sorted(ids - set(proc.stdout.splitlines())) == []


def snapshot(root):
    """{path: (size, mtime)} of every file and folder under ``root`` but ``.git`` and bytecode caches."""
    return {
        path.relative_to(root).as_posix(): (path.stat().st_size, path.stat().st_mtime_ns)
        for path in root.rglob("*")
        if ".git" not in path.parts and "__pycache__" not in path.parts
    }


def test_the_runner_kills_a_row_reports_a_survivor_and_leaves_the_checkout_alone(tmp_path, capsys):
    cheap = next(m for m in mutants.ROWS if m.name == CHEAP)
    (killer,) = cheap.kills
    harmless = mutants.row("comment", cheap.path, ("MAX_EPOCHS = 10_000\n", "MAX_EPOCHS = 10_000  # unchanged\n"), kills=[killer])
    before = snapshot(mutants.ROOT)
    root = mutants.copy_checkout(tmp_path / "checkout")
    # The killer passed on the clean copy and failed on the cheap mutant; it passed on the harmless one.
    assert mutants.check([cheap, harmless], root) == [f"comment: {killer} passed on the mutant"]
    assert snapshot(mutants.ROOT) == before
    assert f"{CHEAP}: killed by 1 of 1 ids" in capsys.readouterr().out

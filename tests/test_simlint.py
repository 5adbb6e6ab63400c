"""Simulator determinism lint (:mod:`repro.analysis.host.rules`).

Two halves: the real simulator core must lint clean, and each rule must
demonstrably fire on a seeded violation.  ``repro selfcheck`` runs the
same :func:`lint_paths` over ``src/repro``.
"""

from pathlib import Path

from repro.analysis.host.rules import lint_paths

REPO = Path(__file__).resolve().parent.parent


def findings_for(tmp_path, source, all_rules=True):
    file = tmp_path / "snippet.py"
    file.write_text(source)
    return lint_paths([file], all_rules=all_rules)


def rules_of(findings):
    return {f.rule for f in findings}


# ------------------------------------------------------------- clean source
def test_simulator_core_is_clean():
    findings = lint_paths([REPO / "src" / "repro"])
    assert findings == [], "\n".join(str(f) for f in findings)


# -------------------------------------------------------- seeded violations
def test_sim001_wallclock(tmp_path):
    findings = findings_for(
        tmp_path, "import time\n\ndef f():\n    return time.time()\n"
    )
    assert rules_of(findings) == {"SIM001"}


def test_sim001_perf_counter_and_datetime(tmp_path):
    findings = findings_for(
        tmp_path,
        "import time, datetime\n"
        "a = time.perf_counter()\n"
        "b = datetime.datetime.now()\n",
    )
    assert [f.rule for f in findings] == ["SIM001", "SIM001"]


def test_sim002_module_random(tmp_path):
    findings = findings_for(
        tmp_path, "import random\nx = random.randint(0, 7)\n"
    )
    assert rules_of(findings) == {"SIM002"}


def test_sim002_from_import(tmp_path):
    findings = findings_for(tmp_path, "from random import shuffle\n")
    assert rules_of(findings) == {"SIM002"}


def test_sim002_seeded_rng_is_allowed(tmp_path):
    findings = findings_for(
        tmp_path,
        "import random\nrng = random.Random(42)\nx = rng.randint(0, 7)\n",
    )
    assert findings == []


def test_sim003_set_iteration(tmp_path):
    findings = findings_for(
        tmp_path, "for item in {1, 2, 3}:\n    print(item)\n"
    )
    assert rules_of(findings) == {"SIM003"}


def test_sim003_comprehension_over_set_call(tmp_path):
    findings = findings_for(tmp_path, "xs = [v for v in set([1, 2])]\n")
    assert rules_of(findings) == {"SIM003"}


def test_sim003_sorted_wrapper_is_allowed(tmp_path):
    findings = findings_for(
        tmp_path, "for item in sorted({1, 2, 3}):\n    print(item)\n"
    )
    assert findings == []


def test_sim004_unguarded_emit(tmp_path):
    findings = findings_for(
        tmp_path, "def f(self):\n    self.obs.emit('event', 1)\n"
    )
    assert rules_of(findings) == {"SIM004"}


def test_sim004_guarded_emit_is_allowed(tmp_path):
    findings = findings_for(
        tmp_path,
        "def f(self):\n"
        "    if self.obs.tracing:\n"
        "        self.obs.emit('event', 1)\n",
    )
    assert findings == []


def test_sim004_guard_must_cover_the_emit(tmp_path):
    findings = findings_for(
        tmp_path,
        "def f(self):\n"
        "    if self.obs.tracing:\n"
        "        pass\n"
        "    self.obs.emit('event', 1)\n",
    )
    assert rules_of(findings) == {"SIM004"}


def test_sim005_popitem(tmp_path):
    findings = findings_for(tmp_path, "d = {1: 2}\nd.popitem()\n")
    assert rules_of(findings) == {"SIM005"}


def test_sim005_bare_pop(tmp_path):
    findings = findings_for(tmp_path, "s = {1, 2}\ns.pop()\n")
    assert rules_of(findings) == {"SIM005"}


def test_sim005_pop_with_index_is_allowed(tmp_path):
    assert findings_for(tmp_path, "xs = [1, 2]\nxs.pop(0)\n") == []
    assert findings_for(tmp_path, "d = {1: 2}\nd.pop(1, None)\n") == []


def test_sim005_marked_stack_pop_is_allowed(tmp_path):
    findings = findings_for(
        tmp_path, "xs = [1, 2]\nxs.pop()  # simlint: ignore — stack\n"
    )
    assert findings == []


def test_ignore_marker_suppresses(tmp_path):
    findings = findings_for(
        tmp_path, "import time\nt = time.time()  # simlint: ignore\n"
    )
    assert findings == []


# ----------------------------------------------------------------- scoping
def test_out_of_scope_files_skipped_without_all_rules(tmp_path):
    file = tmp_path / "helper.py"
    file.write_text("import time\nt = time.time()\n")
    assert lint_paths([file]) == []
    assert lint_paths([file], all_rules=True) != []


def test_scoped_path_fragments_are_checked(tmp_path):
    scoped = tmp_path / "repro" / "pipeline"
    scoped.mkdir(parents=True)
    file = scoped / "stage.py"
    file.write_text("import time\nt = time.time()\n")
    findings = lint_paths([tmp_path])
    assert rules_of(findings) == {"SIM001"}

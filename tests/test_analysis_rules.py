"""Static-analysis engine tests: every rule over its fixture corpus.

Each rule id must flag its ``*_bad.py`` fixture and pass its
``*_clean.py`` fixture (tests/fixtures/analysis/); jurisdiction is
checked by re-linting a bad fixture under a driver-side module name.
The suite ends with the self-check the CI gate relies on: the real
``src/repro`` tree lints clean, through both the library and the
``python -m repro.cli lint`` entry point.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.analysis import (
    analyze_file,
    analyze_source,
    analyze_tree,
    all_rule_ids,
)
from repro.analysis.rules.base import TAG_REGISTRY_MODULE

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "analysis")
SRC_REPRO = os.path.join(
    os.path.dirname(__file__), os.pardir, "src", "repro"
)

#: Module names placing a fixture under each rule family's jurisdiction.
SANS_IO_MOD = "repro.core.fixture"
HOT_PATH_MOD = "repro.net.fixture"
WIRE_MOD = "repro.wire.fixture"
REGISTRY_MOD = TAG_REGISTRY_MODULE
DRIVER_MOD = "repro.emulation.fixture"  # no rule family applies


def lint_fixture(filename, module):
    path = os.path.join(FIXTURES, filename)
    return analyze_file(path, module)


def rule_ids(findings):
    return {f.rule for f in findings}


# ---------------------------------------------------------------- cases

BAD_CASES = [
    ("det_time_bad.py", SANS_IO_MOD, "DET-TIME"),
    ("det_entropy_bad.py", SANS_IO_MOD, "DET-ENTROPY"),
    ("det_rng_bad.py", SANS_IO_MOD, "DET-RNG"),
    ("det_setiter_bad.py", SANS_IO_MOD, "DET-SETITER"),
    ("io_import_bad.py", SANS_IO_MOD, "IO-IMPORT"),
    ("slots_missing_bad.py", HOT_PATH_MOD, "SLOT-MISSING"),
    ("slots_incomplete_bad.py", HOT_PATH_MOD, "SLOT-INCOMPLETE"),
    ("slots_dataclass_bad.py", HOT_PATH_MOD, "SLOT-DATACLASS"),
    ("wire_size_bad.py", WIRE_MOD, "WIRE-SIZE"),
    ("wire_tags_dup_bad.py", REGISTRY_MOD, "WIRE-TAG-DUP"),
    ("wire_scatter_bad.py", WIRE_MOD, "WIRE-TAG-SCATTER"),
]

CLEAN_CASES = [
    ("det_time_clean.py", SANS_IO_MOD),
    ("det_entropy_clean.py", SANS_IO_MOD),
    ("det_rng_clean.py", SANS_IO_MOD),
    ("det_setiter_clean.py", SANS_IO_MOD),
    ("io_import_clean.py", SANS_IO_MOD),
    ("slots_clean.py", HOT_PATH_MOD),
    ("wire_size_clean.py", WIRE_MOD),
    ("wire_tags_clean.py", REGISTRY_MOD),
    ("wire_scatter_clean.py", WIRE_MOD),
]


def test_every_rule_id_has_a_bad_and_a_clean_fixture():
    covered = {rule for _f, _m, rule in BAD_CASES}
    assert covered == set(all_rule_ids())


@pytest.mark.parametrize("filename,module,rule", BAD_CASES)
def test_bad_fixture_is_flagged(filename, module, rule):
    findings = lint_fixture(filename, module)
    assert rule in rule_ids(findings), (
        "%s under %s should trigger %s; got %s"
        % (filename, module, rule, [f.render() for f in findings])
    )


@pytest.mark.parametrize("filename,module", CLEAN_CASES)
def test_clean_fixture_passes(filename, module):
    findings = lint_fixture(filename, module)
    assert findings == [], [f.render() for f in findings]


@pytest.mark.parametrize("filename,module,rule", BAD_CASES)
def test_jurisdiction_is_by_module_name(filename, module, rule):
    """The same bad source under a driver-side module name is legal."""
    assert lint_fixture(filename, DRIVER_MOD) == []


# ------------------------------------------------------ rule specifics

def test_det_time_flags_each_mechanism():
    findings = lint_fixture("det_time_bad.py", SANS_IO_MOD)
    messages = " ".join(f.message for f in findings)
    assert "imports 'time'" in messages
    assert "time.time" in messages
    assert "datetime.datetime.now" in messages


def test_det_rng_flags_bare_random_instance():
    findings = lint_fixture("det_rng_bad.py", SANS_IO_MOD)
    assert any("without a seed" in f.message for f in findings)
    assert any("process-global" in f.message for f in findings)
    assert any(f.line for f in findings)


def test_setiter_counts_each_site():
    findings = lint_fixture("det_setiter_bad.py", SANS_IO_MOD)
    findings = [f for f in findings if f.rule == "DET-SETITER"]
    assert len(findings) == 3  # for-loop, comprehension, list() call


def test_slots_incomplete_names_the_attribute():
    findings = lint_fixture("slots_incomplete_bad.py", HOT_PATH_MOD)
    assert [f.key for f in findings] == ["WindowTracker.peak"]


def test_wire_size_folds_arithmetic_and_rejects_bad_formats():
    findings = lint_fixture("wire_size_bad.py", WIRE_MOD)
    keys = {f.key for f in findings}
    assert keys == {"size:HEADER_SIZE", "size:FRAME_SIZE", "fmt:_BROKEN"}


def test_wire_tag_dup_covers_both_byte_spaces_and_dict_keys():
    findings = lint_fixture("wire_tags_dup_bad.py", REGISTRY_MOD)
    keys = {f.key for f in findings if f.rule == "WIRE-TAG-DUP"}
    assert "dup:TYPE_JOIN" in keys            # frame byte-space
    assert "dup:OBJECT_TAG_CLIENT_ID" in keys  # shared TLV byte-space
    assert "dictdup:TYPE_NAMES:2" in keys      # collapsed dict key


def test_real_tag_registry_lints_clean():
    path = os.path.join(SRC_REPRO, "wire", "tags.py")
    assert analyze_file(path, REGISTRY_MOD) == []


# ---------------------------------------------------------- fingerprints

def test_fingerprints_survive_line_shifts():
    """Fingerprints contain no line numbers, so inserting lines above
    a finding must not change its fingerprint."""
    path = os.path.join(FIXTURES, "det_time_bad.py")
    with open(path) as handle:
        source = handle.read()
    before = analyze_source(source, path, SANS_IO_MOD)
    shifted = "# shim\n# shim\n\n" + source
    after = analyze_source(shifted, path, SANS_IO_MOD)
    assert [f.fingerprint for f in before] == \
        [f.fingerprint for f in after]
    assert [f.line for f in before] != [f.line for f in after]


def test_repeated_findings_get_disambiguated_fingerprints():
    source = (
        "import time\n"
        "def poll():\n"
        "    a = time.time()\n"
        "    b = time.time()\n"
        "    return a, b\n"
    )
    findings = analyze_source(source, "x.py", SANS_IO_MOD)
    fingerprints = [f.fingerprint for f in findings
                    if "time.time@" in f.fingerprint]
    assert len(fingerprints) == 2
    assert len(set(fingerprints)) == 2
    assert fingerprints[1].endswith("#2")


# ------------------------------------------------------ the real gate

def test_src_repro_lints_clean_in_process():
    report = analyze_tree(SRC_REPRO)
    assert report.parse_errors == []
    assert report.findings == [], [f.render() for f in report.findings]
    assert report.files_scanned > 80


def test_cli_lint_gate_exits_zero(tmp_path):
    """What ``make lint`` runs: exit 0 and a well-formed JSON report."""
    json_path = str(tmp_path / "lint_report.json")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "lint", SRC_REPRO,
         "--json", json_path],
        capture_output=True, text=True,
        env={**os.environ,
             "PYTHONPATH": os.path.join(SRC_REPRO, os.pardir)},
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert "lint:" in proc.stderr
    with open(json_path) as handle:
        payload = json.load(handle)
    assert payload["finding_count"] == 0
    assert payload["finding_count"] == len(payload["findings"])
    assert payload["files_scanned"] > 80


def test_cli_lint_fails_on_findings(tmp_path):
    """A tree with one bad module makes the gate (``make lint``'s
    command) exit non-zero: no finding is ever suppressed."""
    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    bad = os.path.join(FIXTURES, "det_time_bad.py")
    with open(bad) as handle:
        (pkg / "clocky.py").write_text(handle.read())
    json_path = str(tmp_path / "lint_report.json")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "lint",
         str(tmp_path / "repro"), "--json", json_path],
        capture_output=True, text=True,
        env={**os.environ,
             "PYTHONPATH": os.path.join(SRC_REPRO, os.pardir)},
    )
    assert proc.returncode == 1, proc.stderr + proc.stdout
    assert "DET-TIME" in proc.stdout
    with open(json_path) as handle:
        assert json.load(handle)["finding_count"] >= 1

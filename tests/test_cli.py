"""Command-line behaviour: canonical output, determinism, exit codes."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgrm.cli import MAX_N, main
from cgrm.scalars import parse_scalar
from cgrm.tensorops import SparseOp, canonical_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_gen_closed_contains_expected_scalar(capsys):
    code, out = run_cli(capsys, "gen", "--m", "1", "--n", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 3
    assert ["1/6"] == [e[2] for e in obj["entries"] if e[0] == [2, 1] and e[1] == [2, 1]]


def test_gen_rejects_non_coprime(capsys):
    code, out = run_cli(capsys, "gen", "--m", "2", "--n", "4")
    assert code != 0
    assert "error" in json.loads(out)


def test_missing_flags_emit_json_error(capsys):
    code, out = run_cli(capsys, "gen", "--m", "2")
    assert code != 0
    assert "error" in json.loads(out)
    code, out = run_cli(capsys, "wheels", "--m", "2", "--n", "x")
    assert code != 0
    assert "error" in json.loads(out)


def test_gen_constructions_agree_byte_for_byte(capsys):
    _, closed = run_cli(capsys, "gen", "--m", "2", "--n", "5", "--construction", "closed")
    _, viabd = run_cli(capsys, "gen", "--m", "2", "--n", "5", "--construction", "bd")
    _, viadunkl = run_cli(capsys, "gen", "--m", "2", "--n", "5", "--construction", "dunkl",
                          "--kappa", "1", "--c0", "1/2")
    assert closed == viabd == viadunkl


@pytest.mark.parametrize("argv, message", [
    (("--m", "3", "--n", "7"), "the dunkl construction requires m in {1, 2}"),
    (("--m", "2", "--n", "5", "--c0", "0"), "c0 must be nonzero for the m = 2 construction"),
])
def test_gen_dunkl_rejects_other_m_and_zero_c0(capsys, argv, message):
    code, out = run_cli(capsys, "gen", "--construction", "dunkl", *argv)
    assert code == 2
    assert out == '{"error":"%s"}\n' % message


def test_m1_dunkl_constructions_match_gen(capsys):
    _, closed = run_cli(capsys, "gen", "--m", "1", "--n", "7")
    _, viagen = run_cli(capsys, "gen", "--construction", "dunkl", "--m", "1", "--n", "7")
    _, viadunkl = run_cli(capsys, "dunkl", "--m", "1", "--n", "7", "--kappa", "1", "--c0", "7/2")
    assert closed == viagen == viadunkl


def test_gen_deterministic(capsys):
    _, a = run_cli(capsys, "gen", "--m", "3", "--n", "7")
    _, b = run_cli(capsys, "gen", "--m", "3", "--n", "7")
    assert a == b


def test_verify_quasitriangular(tmp_path, capsys):
    path = tmp_path / "r.json"
    code, out = run_cli(capsys, "gen", "--m", "2", "--n", "5", "--out", str(path))
    assert code == 0
    code, out = run_cli(capsys, "verify", "--in", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["classification"] == "quasitriangular"
    assert report["lambda"] == "1/4"
    code, out = run_cli(capsys, "verify", "--in", str(path), "--lambda", "1/4")
    assert code == 0
    assert json.loads(out)["cyb_lambda_zero"] is True
    code, out = run_cli(capsys, "verify", "--in", str(path), "--lambda", "1/3")
    assert code == 1


def test_verify_missing_file(capsys):
    code, out = run_cli(capsys, "verify", "--in", "/nonexistent/r.json")
    assert code != 0
    assert "error" in json.loads(out)


def test_verify_rejects_wrong_arity_file(tmp_path, capsys):
    path = tmp_path / "op3.json"
    path.write_text('{"n": 2, "entries": [[[1, 1, 2], [1, 1, 2], "1"]]}')
    code, out = run_cli(capsys, "verify", "--in", str(path))
    assert code != 0
    assert "error" in json.loads(out)


def test_compare(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    c = tmp_path / "c.json"
    run_cli(capsys, "gen", "--m", "1", "--n", "4", "--out", str(a))
    run_cli(capsys, "gen", "--m", "3", "--n", "4", "--out", str(b))
    run_cli(capsys, "gen", "--m", "1", "--n", "3", "--out", str(c))
    code, out = run_cli(capsys, "compare", str(a), str(a))
    assert code == 0 and json.loads(out)["equal"] is True
    code, out = run_cli(capsys, "compare", str(a), str(b))
    assert code == 1
    assert json.loads(out)["differences"]
    code, out = run_cli(capsys, "compare", str(c), str(a))
    assert code == 1
    assert out == '{"equal":false,"reason":"dimension mismatch"}\n'


def test_wheels_pair(capsys):
    code, out = run_cli(capsys, "wheels", "--m", "12", "--n", "31", "--pair", "15", "22")
    assert code == 0
    obj = json.loads(out)
    assert obj["seq"] == [31, 12, 5, 3, 1]
    assert obj["sbar"] == [16, 17, 19, 22]
    assert obj["minimal_elements"][:4] == [1, 6, 11, 4]


def test_wheels_bad_pair(capsys):
    code, out = run_cli(capsys, "wheels", "--m", "2", "--n", "5", "--pair", "9", "1")
    assert code != 0


def test_dunkl_matches_gen(capsys):
    _, viadunkl = run_cli(capsys, "dunkl", "--m", "2", "--n", "5",
                          "--kappa", "2/3", "--c0=-1/2", "--c1", "7")
    _, closed = run_cli(capsys, "gen", "--m", "2", "--n", "5")
    assert viadunkl == closed


def test_dunkl_rejects_zero_c0(capsys):
    code, out = run_cli(capsys, "dunkl", "--m", "2", "--n", "5", "--c0", "0")
    assert code != 0


def test_boundary(capsys):
    code, out = run_cli(capsys, "boundary", "--n", "5", "--u", "1", "--t", "1")
    assert code == 0
    assert json.loads(out)["n"] == 5


def test_carrier_report(tmp_path, capsys):
    path = tmp_path / "b.json"
    run_cli(capsys, "boundary", "--n", "5", "--u", "1", "--t", "1", "--out", str(path))
    code, out = run_cli(capsys, "carrier", "--in", str(path))
    assert code == 0
    obj = json.loads(out)
    assert obj["dimension"] == 18
    assert obj["bracket_closed"] is True
    assert obj["frobenius"]["invertible"] is True
    assert obj["frobenius"]["functional_check"] is True


@pytest.mark.parametrize("text,report", [
    ('{"n":2,"entries":[[[1,2],[2,1],"1/2"],[[2,1],[1,2],"-1/2"]]}',
     '{"basis":[[[[1,2],"1"]],[[[2,1],"1"]]],"bracket_closed":false,"dimension":2}\n'),
    ('{"n":1,"entries":[]}', '{"basis":[],"bracket_closed":true,"dimension":0}\n'),
], ids=["open span", "empty"])
def test_carrier_report_without_a_form(tmp_path, capsys, text, report):
    """A span that is not closed, and the zero span, print no frobenius key."""
    path = tmp_path / "r.json"
    path.write_text(text)
    assert run_cli(capsys, "carrier", "--in", str(path)) == (0, report)


def test_carrier_nonzero_trace_slice_is_json_error(tmp_path, capsys):
    path = tmp_path / "r.json"
    path.write_text('{"n": 3, "entries": [[[1, 1], [1, 2], "1/2"], [[1, 1], [2, 1], "-1/2"]]}')
    code, out = run_cli(capsys, "carrier", "--in", str(path))
    assert code == 1
    assert json.loads(out) == {"error": "carrier slice has nonzero trace"}


def test_carrier_rejects_symmetric_operator(tmp_path, capsys):
    path = tmp_path / "sym.json"
    path.write_text('{"n": 2, "entries": [[[1, 2], [1, 2], "1"], [[2, 1], [2, 1], "1"]]}')
    code, out = run_cli(capsys, "carrier", "--in", str(path))
    assert code == 1
    assert out == '{"error":"operator is not antisymmetric"}\n'


def test_bd_subcommand(capsys):
    code, out = run_cli(capsys, "bd", "--m", "1", "--n", "3", "--part", "beta")
    assert code == 0
    obj = json.loads(out)
    assert obj["s0"] == [1] and obj["s1"] == [2]
    assert obj["zeta"] == {"1": 2}
    assert obj["op"]["n"] == 3


def test_bd_full_matches_gen(capsys):
    _, bd_out = run_cli(capsys, "bd", "--m", "3", "--n", "4")
    _, gen_out = run_cli(capsys, "gen", "--m", "1", "--n", "4", "--construction", "closed")
    assert json.loads(bd_out)["op"] == json.loads(gen_out)


@pytest.mark.parametrize("argv", [
    ("gen", "--m", "2", "--n", "5", "--construction", "dunkl",
     "--kappa", "-2/3", "--c0", "-3/4", "--c1", "-5"),
    ("dunkl", "--m", "2", "--n", "5", "--kappa", "-1", "--c0", "-1/2", "--c1", "-7/3"),
    ("boundary", "--n", "5", "--u", "-1/2", "--t", "-3"),
])
def test_negative_rational_spellings_agree(capsys, argv):
    """"--c0 -3/4" reads the same as "--c0=-3/4" for every rational flag."""
    joined = []
    for arg in argv:
        if arg.startswith("-") and not arg.startswith("--"):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    code, separate = run_cli(capsys, *argv)
    assert code == 0 and "error" not in json.loads(separate)
    assert run_cli(capsys, *joined) == (code, separate)


def test_negative_lambda_spellings_agree(tmp_path, capsys):
    path = tmp_path / "r.json"
    run_cli(capsys, "gen", "--m", "2", "--n", "5", "--out", str(path))
    code, separate = run_cli(capsys, "verify", "--in", str(path), "--lambda", "-1/4")
    assert code == 1 and json.loads(separate)["lambda"] == "-1/4"
    assert run_cli(capsys, "verify", "--in", str(path), "--lambda=-1/4") == (code, separate)


@pytest.mark.parametrize("text", [
    '{"n": 2, "entries": [[[1, 2], [2, 1], "1/0"]]}',
    '[[[1, 2], [2, 1], "1"]]',
    '{"n": 2, "entries": [[[1, 2], [2, 1], 1]]}',
    '{"n": null, "entries": []}',
    '{"n": -1, "entries": []}',
    '{"n": 0, "entries": []}',
    '{"n": 1.5, "entries": []}',
    '{"n": "3", "entries": []}',
    '{"n": true, "entries": []}',
    '{"n": 2.9, "entries": []}',
    '{"n": %d, "entries": []}' % (MAX_N + 1),
    '{"n": 80, "entries": [[[1, 2], [2, 1], "1/4"]]}',
])
def test_malformed_operator_file_is_json_error(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    for argv in (("verify", "--in", str(path)),
                 ("verify", "--in", str(path), "--lambda", "1/4"),
                 ("carrier", "--in", str(path)), ("compare", str(path), str(path))):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert json.loads(out)["error"].startswith("cannot read operator file")


def test_operator_file_n_at_the_cap_is_read(tmp_path, capsys):
    path = tmp_path / "cap.json"
    path.write_text('{"n": %d, "entries": [[[1, 2], [2, 1], "1/2"]]}' % MAX_N)
    code, out = run_cli(capsys, "compare", str(path), str(path))
    assert code == 0 and json.loads(out)["equal"] is True


def test_unwritable_out_is_json_error(tmp_path, capsys):
    path = tmp_path / "missing-dir" / "r.json"
    code, out = run_cli(capsys, "gen", "--m", "1", "--n", "3", "--out", str(path))
    assert code == 2
    assert json.loads(out)["error"].startswith("cannot write output file")


def test_dunkl_rejects_zero_n(capsys):
    code, out = run_cli(capsys, "dunkl", "--m", "1", "--n", "0")
    assert code == 2
    assert json.loads(out) == {"error": "n must be >= 1"}


@pytest.mark.parametrize("n, message", [("-1", "n must be odd and >= 3"),
                                        ("1", "n must be odd and >= 3"),
                                        ("4", "n must be odd when m = 2")])
def test_dunkl_m2_rejects_small_or_even_n(capsys, n, message):
    code, out = run_cli(capsys, "dunkl", "--m", "2", "--n", n)
    assert code == 2
    assert json.loads(out) == {"error": message}


@pytest.mark.parametrize("value", ["0.5", "1e3", "1/0"])
def test_rational_flags_take_only_p_over_q(capsys, value):
    code, out = run_cli(capsys, "boundary", "--n", "5", "--u", value, "--t", "1")
    assert code == 2
    assert json.loads(out) == {"error": "invalid rational for --u: %r" % value}


@pytest.mark.parametrize("argv, message", [
    (("gen", "--m", "2", "--n", "4"), "m and n must be coprime"),
    (("gen", "--m", "3", "--n", "3", "--construction", "dunkl"), "need 1 <= m < n"),
    (("wheels", "--m", "0", "--n", "3"), "need 1 <= m < n"),
    (("bd", "--m", "3", "--n", "9", "--part", "alpha"), "m and n must be coprime"),
    (("boundary", "--n", "4", "--u", "1", "--t", "1"), "n must be odd and >= 3"),
])
def test_library_value_error_is_json_error(capsys, argv, message):
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert json.loads(out) == {"error": message}


@pytest.mark.parametrize("argv", [
    ("gen", "--m", "1", "--n", "33"),
    ("gen", "--m", "2", "--n", "33", "--construction", "dunkl"),
    ("wheels", "--m", "12", "--n", "33"),
    ("dunkl", "--m", "2", "--n", "33"),
    ("boundary", "--n", "33", "--u", "1", "--t", "1"),
    ("bd", "--m", "1", "--n", "33", "--part", "beta"),
])
def test_n_flag_above_the_cap_is_json_error(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert json.loads(out) == {"error": "n must be at most 32, not 33"}


def test_n_flag_at_the_cap_is_accepted(capsys):
    code, out = run_cli(capsys, "wheels", "--m", "12", "--n", "31")
    assert code == 0 and json.loads(out)["n"] == 31
    code, out = run_cli(capsys, "bd", "--m", "1", "--n", str(MAX_N), "--part", "gamma")
    assert code == 0 and json.loads(out)["n"] == MAX_N


# ---------------------------------------------------------------------------
# Fuzzing: every malformed flag or operator file gives one JSON error object.

def _call(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def assert_json_error(argv):
    code, out = _call(argv)
    assert code != 0, argv
    obj = json.loads(out)
    assert isinstance(obj, dict) and list(obj) == ["error"], (argv, out)


def _parses(text, parse):
    try:
        parse(text)
    except ValueError:
        return False
    return True


VALID_OBJ = {"n": 3, "entries": [[[1, 2], [2, 1], "1/2"], [[2, 1], [1, 2], "-1/2"]]}
VALID_FILE = "<valid operator file>"


@pytest.fixture(scope="module")
def valid_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "r.json"
    path.write_text(json.dumps(VALID_OBJ))
    return str(path)


# Cheap valid invocations; each fuzz case breaks exactly one part of one of them.
TEMPLATES = {
    "gen": ["--m", "1", "--n", "3", "--construction", "dunkl", "--kappa", "1", "--c0", "1",
            "--c1", "0"],
    "wheels": ["--m", "2", "--n", "5", "--pair", "1", "2"],
    "dunkl": ["--m", "2", "--n", "5", "--kappa", "1", "--c0", "1", "--c1", "0"],
    "boundary": ["--n", "5", "--u", "1", "--t", "1"],
    "bd": ["--m", "2", "--n", "5", "--part", "r"],
    "verify": ["--in", VALID_FILE, "--lambda", "1/4"],
    "compare": [VALID_FILE, VALID_FILE],
    "carrier": ["--in", VALID_FILE],
    "acceptance": [],
}
INT_FLAGS = ("--m", "--n", "--pair")
RATIONAL_FLAGS = ("--kappa", "--c0", "--c1", "--u", "--t", "--lambda")
CHOICE_FLAGS = {"--construction": ("closed", "bd", "dunkl"),
                "--part": ("alpha", "beta", "gamma", "r")}

non_integers = st.one_of(
    st.sampled_from(["", " ", "x", "1.5", "1/2", "3e2", "0x10", "1-", "--"]),
    st.text(max_size=6).filter(lambda t: not t.startswith("-") and not _parses(t, int)))
bad_rationals = st.one_of(
    st.sampled_from(["", "0.5", "1e3", "1/0", "1//2", "a", "-x", "--", "1/-2"]),
    st.text(max_size=6).filter(lambda t: not t.startswith("-") and not _parses(t, parse_scalar)))
bad_ns = st.one_of(st.integers(max_value=0), st.integers(min_value=MAX_N + 1, max_value=10 ** 30))


@st.composite
def malformed_argv(draw):
    command = draw(st.sampled_from(sorted(TEMPLATES)))
    argv = list(TEMPLATES[command])
    flags = [i for i, a in enumerate(argv) if a.startswith("--")]
    kinds = ["unknown flag", "bad command"] + (["missing value"] if argv else [])
    if any(argv[i] in INT_FLAGS for i in flags):
        kinds.append("non-integer")
    if any(argv[i] in RATIONAL_FLAGS for i in flags):
        kinds.append("bad rational")
    if any(argv[i] in CHOICE_FLAGS for i in flags):
        kinds.append("bad choice")
    if "--n" in argv:
        kinds.append("bad n")
    if "--m" in argv:
        kinds += ["bad m", "non-coprime pair"]
    kind = draw(st.sampled_from(kinds))

    def value_of(names):
        return 1 + draw(st.sampled_from([i for i in flags if argv[i] in names]))

    if kind == "unknown flag":
        argv.insert(draw(st.integers(0, len(argv))), "--bogus")
    elif kind == "missing value":
        argv = argv[:-1] if argv[-2].startswith("--") else argv[:-1] + ["--out"]
    elif kind == "bad command":
        command = draw(st.text(max_size=8).filter(lambda t: t not in TEMPLATES and t[:1] != "-"))
    elif kind == "non-integer":
        argv[value_of(INT_FLAGS)] = draw(non_integers)
    elif kind == "bad rational":
        argv[value_of(RATIONAL_FLAGS)] = draw(bad_rationals)
    elif kind == "bad choice":
        i = value_of(CHOICE_FLAGS)
        argv[i] = draw(st.text(max_size=8).filter(
            lambda t: t not in CHOICE_FLAGS[argv[i - 1]] and t[:1] != "-"))
    elif kind == "bad n":
        argv[argv.index("--n") + 1] = str(draw(bad_ns))
    elif kind == "bad m":
        n = int(argv[argv.index("--n") + 1])
        argv[argv.index("--m") + 1] = str(draw(st.one_of(st.integers(max_value=0),
                                                         st.integers(min_value=n))))
    else:
        k, a, b = draw(st.integers(2, 4)), draw(st.integers(1, 4)), draw(st.integers(5, 8))
        argv[argv.index("--m") + 1], argv[argv.index("--n") + 1] = str(k * a), str(k * b)
    return [command] + argv


def test_acceptance_takes_no_seed():
    """The acceptance suite is deterministic and has no --seed flag."""
    code, out = _call(["acceptance", "--seed", "0"])
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 1 and list(json.loads(lines[0])) == ["error"]


@pytest.mark.parametrize("second_passes, code, tally", [(False, 1, "1/2"), (True, 0, "2/2")])
def test_acceptance_reports_each_criterion_and_the_tally(monkeypatch, capsys,
                                                        second_passes, code, tally):
    """One line per criterion, the count of passes, and exit 1 if any fails."""
    from cgrm import acceptance

    def stub(cid, passed):
        return lambda: acceptance.CheckResult(cid, "stub %d" % cid, passed, "detail %d" % cid)

    monkeypatch.setattr(acceptance, "ALL_CRITERIA", (stub(1, True), stub(2, second_passes)))
    assert run_cli(capsys, "acceptance") == (code, (
        "PASS  criterion 1: stub 1  [detail 1]\n"
        "%s  criterion 2: stub 2  [detail 2]\n"
        "%s criteria passed\n") % ("PASS" if second_passes else "FAIL", tally))


@settings(max_examples=300, deadline=None)
@given(argv=malformed_argv())
def test_fuzzed_flags_give_json_error(valid_file, argv):
    assert_json_error([valid_file if a == VALID_FILE else a for a in argv])


wrong_types = st.one_of(st.none(), st.booleans(), st.floats(), st.text(min_size=1, max_size=4),
                        st.lists(st.integers(), min_size=1, max_size=3))


@st.composite
def malformed_operator_file(draw):
    obj = json.loads(json.dumps(VALID_OBJ))
    entry = draw(st.sampled_from(obj["entries"]))
    kind = draw(st.sampled_from(["truncated", "not an object", "missing key", "n type",
                                 "n above the cap", "entries type", "entry shape", "scalar",
                                 "index range", "index type", "arity"]))
    if kind == "truncated":
        text = json.dumps(obj)
        return text[:draw(st.integers(0, len(text) - 1))]
    if kind == "not an object":
        return json.dumps(draw(st.one_of(wrong_types, st.just(obj["entries"]))))
    if kind == "missing key":
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif kind == "n type":
        obj["n"] = draw(st.one_of(wrong_types.filter(lambda v: type(v) is not list),
                                  st.integers(max_value=0)))
    elif kind == "n above the cap":
        obj["n"] = draw(st.integers(min_value=MAX_N + 1, max_value=10 ** 30))
    elif kind == "entries type":
        obj["entries"] = draw(st.one_of(st.integers(), st.floats(), st.booleans(), st.none(),
                                        st.text(max_size=4),
                                        st.dictionaries(st.text(max_size=3), st.integers(),
                                                        max_size=2)))
    elif kind == "entry shape":
        obj["entries"].append(draw(st.one_of(wrong_types, st.lists(st.integers(), max_size=2),
                                             st.just([[1, 2], [2, 1], "1", "1"]),
                                             st.just({"12": 0, "21": 0, "1/2": 0}))))
    elif kind == "scalar":
        entry[2] = draw(st.one_of(st.integers(), st.floats(), st.none(), st.lists(st.integers()),
                                  bad_rationals))
    elif kind == "index range":
        leg = draw(st.sampled_from([0, 1]))
        entry[leg][draw(st.sampled_from([0, 1]))] = draw(st.one_of(
            st.integers(max_value=0), st.integers(min_value=obj["n"] + 1),
            st.just(float("inf")), st.none(),
            st.text(min_size=1).filter(lambda t: not _parses(t, int))))
    elif kind == "index type":
        leg = draw(st.sampled_from([0, 1]))
        if draw(st.booleans()):
            entry[leg] = "".join(map(str, entry[leg]))
        else:
            entry[leg][draw(st.sampled_from([0, 1]))] = draw(st.one_of(
                st.booleans(), st.sampled_from([1.0, 1.9, 2.0]),
                st.integers(1, 3).map(str)))
    else:
        entry[draw(st.sampled_from([0, 1]))] = draw(st.lists(st.integers(1, 3), max_size=4)
                                                    .filter(lambda legs: len(legs) != 2))
    return json.dumps(obj)


@pytest.mark.parametrize("text, reason", [
    ('{"n": 3, "entries": ""}', "entries must be a list"),
    ('{"n": 3, "entries": {}}', "entries must be a list"),
    ('{"n": 3, "entries": [{"12": 0, "21": 0, "1/2": 0}]}', "an entry must be a list"),
    ('{"n": 3, "entries": [[[1, 2], [2, 1]]]}', "an entry must be a list"),
    ('{"n": 3, "entries": [[[1, 2], [2, 1.9], "1/2"], [[2, 1], [1, 2], "-1/2"]]}',
     "indices must be lists of integers"),
    ('{"n": 3, "entries": [[[1, 2], [2, 1.0], "1/2"], [[2, 1], [1, 2], "-1/2"]]}',
     "indices must be lists of integers"),
    ('{"n": 3, "entries": [[[1, 2], "21", "1/2"], [[2, 1], "12", "-1/2"]]}',
     "indices must be lists of integers"),
    ('{"n": 3, "entries": [[[true, 2], [2, true], "1/2"], [[2, 1], [1, 2], "-1/2"]]}',
     "indices must be lists of integers"),
], ids=["entries-string", "entries-object", "entry-object", "entry-short", "index-1.9",
        "index-1.0", "index-string", "index-true"])
def test_operator_files_are_read_strictly(tmp_path, valid_file, text, reason):
    """Entries must be a list of [out, inp, value] lists with JSON-integer indices:
    a string index "12" is not the pair (1, 2), and 1.9 or true is no index.  The
    strict reader names what is wrong, also for an entry with too few parts."""
    path = tmp_path / "lenient.json"
    path.write_text(text)
    for argv in (("verify", "--in", str(path)), ("compare", str(path), valid_file),
                 ("carrier", "--in", str(path))):
        code, out = _call(argv)
        assert code == 2, (argv, out)
        error = json.loads(out)["error"]
        assert error.startswith("cannot read operator file %r: %s" % (str(path), reason)), out


@settings(max_examples=150, deadline=None)
@given(text=malformed_operator_file())
def test_fuzzed_operator_files_give_json_error(valid_file, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bad.json")
        with open(path, "w") as fh:
            fh.write(text)
        for argv in (("verify", "--in", path), ("verify", "--in", path, "--lambda", "1/4"),
                     ("compare", path, valid_file), ("carrier", "--in", path)):
            assert_json_error(argv)


@pytest.mark.parametrize("value, reason", [
    (1, "expected a rational as a string, got 1"),
    ([1], "expected a rational as a string, got [1]"),
    (None, "expected a rational as a string, got None"),
    (True, "expected a rational as a string, got True"),
    ({}, "expected a rational as a string, got {}"),
    ("1/0", "Invalid literal for Fraction: '1/0'"),
    ("0.5", "Invalid literal for Fraction: '0.5'"),
])
def test_entry_values_are_read_strictly(tmp_path, value, reason):
    """A value must be a "p" or "p/q" string.  The error is the same whether the
    value comes first or after a valid string that the reader has already parsed."""
    path = tmp_path / "bad.json"
    for entries in ([[[1, 2], [2, 1], value]],
                    [[[1, 2], [2, 1], "1/2"], [[2, 1], [1, 2], "1/2"], [[2, 3], [3, 2], value]]):
        path.write_text(json.dumps({"n": 3, "entries": entries}))
        for argv in (("verify", "--in", str(path)), ("compare", str(path), str(path))):
            assert _call(argv) == (2, canonical_json(
                {"error": "cannot read operator file %r: %s" % (str(path), reason)})), argv


def test_duplicate_entries_add_and_cancel(tmp_path):
    """One (out, inp) listed twice adds its values; "1/2" and "-1/2" leave no entry."""
    twice = {"n": 3, "entries": [[[1, 2], [2, 1], "1/2"], [[2, 3], [3, 2], "1/2"],
                                 [[1, 2], [2, 1], "-1/2"]]}
    once = {"n": 3, "entries": [[[2, 3], [3, 2], "1/2"]]}
    op = SparseOp.from_json_obj(twice)
    assert op.cols == {(3, 2): {(2, 3): parse_scalar("1/2")}}
    assert op == SparseOp.from_json_obj(once)
    paths = []
    for name, obj in (("twice.json", twice), ("once.json", once)):
        paths.append(str(tmp_path / name))
        (tmp_path / name).write_text(json.dumps(obj))
    assert _call(["compare", *paths]) == (0, '{"differences":[],"equal":true}\n')


# A mixed command sequence, repeated in one process: options given by one call
# (--construction, --lambda, --part, --kappa) must not leak into the next.
MIXED_ARGVS = [
    ["gen", "--m", "2", "--n", "5", "--construction", "dunkl", "--kappa", "3/2",
     "--c0=-2/7", "--c1", "5/3", "--out", "d.json"],
    ["gen", "--m", "2", "--n", "5", "--out", "g.json"],
    ["verify", "--in", "g.json", "--lambda", "1/4"],
    ["verify", "--in", "g.json"],
    ["compare", "g.json", "d.json"],
    ["wheels", "--m", "12", "--n", "31", "--pair", "15", "22"],
    ["wheels", "--m", "12", "--n", "31"],
    ["bd", "--m", "2", "--n", "5", "--part", "alpha"],
    ["bd", "--m", "2", "--n", "5"],
    ["gen", "--m", "1", "--n", "3", "--bogus"],
    ["gen", "--m", "1", "--n", "3", "--construction", "dunkl", "--kappa", "x"],
    ["acceptance", "--seed", "0"],
    ["wheels", "--m", "2", "--n", "5", "--pair", "0", "6"],
    ["gen", "--m", "2", "--n", "4"],
]


def _outputs(run, cwd):
    """(exit code, stdout, --out file or None) for each call of MIXED_ARGVS."""
    results = []
    for argv in MIXED_ARGVS:
        code, out = run(argv)
        written = (cwd / argv[argv.index("--out") + 1]).read_text() if "--out" in argv else None
        results.append((code, out, written))
    return results


def test_the_shared_parser_keeps_no_state(tmp_path, monkeypatch):
    root = pathlib.Path(__file__).resolve().parent.parent
    fresh_dir, shared_dir = tmp_path / "fresh", tmp_path / "shared"
    fresh_dir.mkdir()
    shared_dir.mkdir()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def fresh(argv):
        proc = subprocess.run([sys.executable, "-m", "cgrm.cli", *argv], cwd=fresh_dir,
                              env=env, capture_output=True, text=True, check=False)
        return proc.returncode, proc.stdout

    expected = _outputs(fresh, fresh_dir)
    monkeypatch.chdir(shared_dir)
    for _ in range(2):
        assert _outputs(_call, shared_dir) == expected

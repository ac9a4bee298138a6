"""Command-line behaviour: canonical output, determinism, exit codes."""

import json

import pytest

from cgrm.cli import MAX_FILE_N, main


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
    run_cli(capsys, "gen", "--m", "1", "--n", "4", "--out", str(a))
    run_cli(capsys, "gen", "--m", "3", "--n", "4", "--out", str(b))
    code, out = run_cli(capsys, "compare", str(a), str(a))
    assert code == 0 and json.loads(out)["equal"] is True
    code, out = run_cli(capsys, "compare", str(a), str(b))
    assert code == 1
    assert json.loads(out)["differences"]


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


def test_carrier_nonzero_trace_slice_is_json_error(tmp_path, capsys):
    path = tmp_path / "r.json"
    path.write_text('{"n": 3, "entries": [[[1, 1], [1, 2], "1/2"], [[1, 1], [2, 1], "-1/2"]]}')
    code, out = run_cli(capsys, "carrier", "--in", str(path))
    assert code == 1
    assert json.loads(out) == {"error": "carrier slice has nonzero trace"}


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
    '{"n": %d, "entries": []}' % (MAX_FILE_N + 1),
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
    path.write_text('{"n": %d, "entries": [[[1, 2], [2, 1], "1/2"]]}' % MAX_FILE_N)
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

import contextlib
import csv
import hashlib
import io
import json
import re
import time

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from charpow import classfn, cli, torsion
from charpow.cli import main
from charpow.classfn import TABLE_CAP
from charpow.classfn import (
    from_json_dict,
    power_op,
    random_class_function,
    to_json_dict,
    total_power_op,
)
from charpow.groups import build_group
from charpow.isogeny import random_section
from charpow.torsion import enumerate_sums


def _csv_text(header_record, rows) -> str:
    """Oracle: the whole CSV document, built in one buffer."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header_record)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_enumerate_subgroups_count(capsys):
    code, out, _ = run(
        ["enumerate", "--kind", "subgroups", "--p", "2", "--n", "2", "--k", "1"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 3


def test_enumerate_sums_count(capsys):
    code, out, _ = run(
        ["enumerate", "--kind", "sums", "--p", "2", "--n", "2", "--m", "3"], capsys
    )
    assert code == 0
    assert json.loads(out)["count"] == 4


def test_enumerate_hom_classes_count(capsys):
    code, out, _ = run(
        ["enumerate", "--kind", "hom-classes", "--group", "S3", "--n", "2",
         "--p", "2"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["count"] == 4


def test_enumerate_wreath_classes(capsys):
    code, out, _ = run(
        ["enumerate", "--kind", "wreath-classes", "--group", "S2", "--m", "2",
         "--n", "1", "--p", "2"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["count"] == 5


def test_csv_has_count_header(capsys):
    code, out, _ = run(
        ["enumerate", "--kind", "subgroups", "--k", "2", "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "index,order,matrix"
    assert lines[1].startswith("count,7")


# SHA-256 of each listing, recorded before the formats were built separately
LISTING_DIGESTS = {
    ("sums", "json"): "bed48a51ffc5ac14c6f678e31e359d2277fa083ec7118a1a6152a52b728ce9c7",
    ("sums", "csv"): "bed520e88276ecfd2476e049ad1609be732d0d9436ef352e32e8b0c55114b27b",
    ("hom-classes", "json"): "b7a4d55c2ed05579aa8cd52dde2dd7a9a5f4c976fac0406190dc33467be953dd",
    ("hom-classes", "csv"): "f9de1c14af65792ec60f7972032503f1ae7b41437b4a696bbaf9289fd6dcb239",
    ("wreath-classes", "json"): "af2fc95871feea656dd9456156c205928b96a4659746e5df867eae6cef8b1290",
    ("wreath-classes", "csv"): "e6e8d0614bed84da3d69d56e73018240e317a8ac3d76b21d38e2928be2b734c4",
}
# SHA-256 of `charpow verify --suite all` (273 properties, all PASS); a
# change that adds or alters a property records its new digest here
VERIFY_ALL_DIGEST = "a24e01abda8a248a5233c1e881f9b32a2f1998f21dffa823c0c6ef8ec0e8b275"
LISTING_ARGS = {
    "sums": ["--n", "3", "--m", "6"],
    "hom-classes": ["--group", "S4", "--n", "2"],
    "wreath-classes": ["--group", "C2", "--m", "3", "--n", "2"],
}


@pytest.mark.parametrize("kind, fmt", sorted(LISTING_DIGESTS))
def test_listing_bytes_are_pinned(kind, fmt, capsys):
    code, out, _ = run(
        ["enumerate", "--kind", kind, *LISTING_ARGS[kind], "--format", fmt], capsys
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LISTING_DIGESTS[kind, fmt]


def test_verify_all_bytes_are_pinned(capsys):
    code, out, _ = run(["verify", "--suite", "all"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_DIGEST


# SHA-256 of each powerop output, recorded before power operations ran from
# per-section plans
POWEROP_DIGESTS = {
    ("--section", "canonical"): "44ed256c9dcfd7df72575f984794647cbfdcedef7b584bccb24cfc02f104606d",
    ("--section", "seeded:42"): "f5f02dc49791eff8d2b43b504523428917ac42a7c7ea6cbb6aab35a72abef1b9",
    ("--total",): "101c30930bf6d864c8a1ce12bdd82b280669137049239bcfe075ea6f08cfebd8",
    ("--total", "--section", "seeded:42"): "e38d4cfaed32894ae461a1978d072ff1a255ec7830d263c8982c379d3879904b",
}


@pytest.mark.parametrize("args", sorted(POWEROP_DIGESTS))
def test_powerop_bytes_are_pinned(args, capsys):
    code, out, _ = run(
        ["powerop", "--group", "C2", "--m", "3", "--generator", "coord", *args], capsys
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == POWEROP_DIGESTS[args]


# SHA-256 of `powerop --input` of random_class_function(S3, p 2, n 2, level 2,
# seed 5) at --m 3, recorded before the output was streamed class by class
POWEROP_INPUT_DIGEST = "7b721b09f8e02776916cce35c1b2a05ca8cfa061df38838dcd9f0aef8903faf2"


def test_powerop_input_bytes_are_pinned(tmp_path, capsys):
    src = tmp_path / "in.json"
    f = random_class_function(build_group("S3"), 2, 2, 2, seed=5)
    src.write_text(json.dumps(to_json_dict(f)))
    code, out, _ = run(["powerop", "--input", str(src), "--m", "3"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == POWEROP_INPUT_DIGEST


def test_bad_group_spec_exit_2(capsys):
    code, _, err = run(
        ["enumerate", "--kind", "hom-classes", "--group", "Q8"], capsys
    )
    assert code == 2
    assert "Q8" in err


def test_size_cap_exit_3(capsys):
    code, _, _ = run(
        ["enumerate", "--kind", "hom-classes", "--group", "wr(S3,4)"], capsys
    )
    assert code == 3


def test_group_above_order_cap_exits_3_before_listing(capsys):
    # S12 has 479001600 elements; the cap is checked before any is listed
    start = time.perf_counter()
    code, out, err = run(
        ["enumerate", "--kind", "hom-classes", "--group", "S12", "--n", "1"], capsys
    )
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out == ""
    assert err == "error: group S12 has order above ORDER_CAP = 10000\n"


@pytest.mark.parametrize(
    "template, shown",
    [("C{}", "'C111"), ("S{}", "'S111"), ("wr(S2,{})", "'wr(S2,111"), ("C2x(C{})", "'C111")],
)
def test_spec_number_longer_than_cap_exits_3(template, shown, capsys):
    # 5000 digits pass the interpreter's int() limit of 4300; the spec is refused first
    spec = template.format("1" * 5000)
    code, out, err = run(["enumerate", "--kind", "hom-classes", "--group", spec], capsys)
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1
    assert f"error: group spec {shown}" in err
    assert "5000-digit number" in err and "ORDER_CAP = 10000" in err
    assert "4300" not in err


def test_spec_number_with_leading_zeros_is_read(capsys):
    code, out, _ = run(
        ["enumerate", "--kind", "hom-classes", "--group", "C" + "0" * 5000 + "3"], capsys
    )
    assert code == 0
    assert json.loads(out)["group"] == "C3"


def test_level_mismatch_exit_4(capsys):
    # wr(C2,4) needs level >= 3
    code, _, err = run(
        ["powerop", "--group", "C2", "--m", "4", "--level", "2", "--total"], capsys
    )
    assert code == 4
    assert "level" in err.lower()
    assert "3" in err  # the message names the required level


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--kind", "sums", "--p", "1", "--m", "3"],
        ["powerop", "--group", "S1", "--m", "2", "--p", "1"],
        ["enumerate", "--kind", "hom-classes", "--group", "S2", "--p", "1"],
        ["enumerate", "--kind", "hom-classes", "--group", "S2", "--p", "4"],
    ],
)
def test_p_below_two_exit_2(argv, capsys):
    code, _, err = run(argv, capsys)
    assert code == 2
    p = argv[argv.index("--p") + 1]
    assert err.count("\n") == 1 and f"p = {p}" in err


def test_table_above_cap_exit_3(capsys):
    start = time.perf_counter()
    code, out, err = run(
        ["powerop", "--group", "S1", "--m", "2", "--n", "3", "--level", "3"], capsys
    )
    assert time.perf_counter() - start < 10
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "134217728 entries" in err and "65536" in err


@pytest.mark.parametrize(
    "argv, name",
    [
        (["enumerate", "--kind", "subgroups", "--n", "0"], "n"),
        (["enumerate", "--kind", "hom-classes", "--group", "S2", "--n", "0"], "n"),
        (["verify", "--suite", "transfers", "--n", "-1"], "n"),
        (["powerop", "--group", "S1", "--m", "2", "--level", "0"], "level"),
        (["powerop", "--group", "S1", "--m", "-1"], "m"),
        (["enumerate", "--kind", "sums", "--m", "-1"], "m"),
        (["enumerate", "--kind", "subgroups", "--k", "-1"], "k"),
        # a verify suite run at no m would pass vacuously, "0/0 properties passed"
        (["verify", "--suite", "invariance", "--max-m", "0"], "max_m"),
        (["verify", "--suite", "invariance", "--max-m", "-3"], "max_m"),
    ],
)
def test_parameter_below_bound_exit_2(argv, name, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert re.fullmatch(rf"error: {name} = {argv[-1]} must be at least \d\n", err)


def test_verify_stabilizer_max_m_1_exit_0(capsys):
    # the suite runs m = 2 and 3 whatever --max-m is; its section covers them
    code, out, _ = run(["verify", "--suite", "stabilizer", "--max-m", "1"], capsys)
    assert code == 0
    assert out.endswith("30/30 properties passed\n")


def test_powerops_suite_max_m_1_reaches_multiplicative():
    # the multiplicative cases run m = 2 and 3 whatever max_m is; the whole
    # suite is slow, so run it lazily up to its first multiplicative record
    from itertools import islice

    from charpow.verify import VerifyConfig, suite_powerops

    records = suite_powerops(VerifyConfig(max_m=1, groups=("S1",)))
    for name, params, ok in islice(records, 10):
        assert ok, (name, params)
        if name == "multiplicative":
            break
    else:
        pytest.fail("no multiplicative record among the first ten")


def test_readme_command_lines_parse():
    # every example under "Command line" in the README must use only live flags
    import re
    import shlex
    from pathlib import Path

    from charpow.cli import _build_parser

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    block = re.search(r"## Command line\n+```sh\n(.*?)```", readme, re.S).group(1)
    commands = [
        shlex.split(line) for line in block.splitlines() if line.startswith("charpow ")
    ]
    assert len(commands) >= 8
    parser = _build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {shlex.join(argv)}")


def test_powerop_m1_output_equals_input_values(capsys):
    code, out, _ = run(
        ["powerop", "--group", "C2", "--m", "1", "--n", "1", "--level", "2",
         "--generator", "coord"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    values = {tuple(e["rep"]): e["value"] for e in data["classes"]}
    assert len(values) == 2
    assert all(v == ["0/1", "1/1", "2/1", "3/1"] for v in values.values())


def test_powerop_constant_one_stays_one(capsys):
    code, out, _ = run(
        ["powerop", "--group", "C2", "--m", "2", "--n", "1", "--level", "2",
         "--generator", "one"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert all(
        set(e["value"]) == {"1/1"} for e in data["classes"]
    )


def test_powerop_golden_fixture(capsys):
    code, out, _ = run(
        ["powerop", "--group", "S1", "--m", "2", "--n", "1", "--level", "2",
         "--generator", "coord"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    table = {tuple(e["rep"]): e["value"] for e in data["classes"]}
    assert table == {
        (0,): ["0/1", "1/1", "4/1", "9/1"],
        (1,): ["0/1", "2/1", "0/1", "2/1"],
    }


def test_determinism_byte_identical(tmp_path, capsys):
    args = [
        "powerop", "--group", "C2", "--m", "2", "--section", "seeded:42",
        "--generator", "coord",
    ]
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(p1)]) == 0
    assert main(args + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_powerop_roundtrip_through_file(tmp_path, capsys):
    out_path = tmp_path / "f.json"
    assert (
        main(
            ["powerop", "--group", "S3", "--m", "2", "--generator", "coord",
             "--out", str(out_path)]
        )
        == 0
    )
    data = json.loads(out_path.read_text())
    f = from_json_dict(data)
    assert to_json_dict(f) == data


def test_powerop_input_file(tmp_path, capsys):
    from charpow.classfn import random_class_function

    g = build_group("C2")
    f = random_class_function(g, 2, 2, 2, seed=3)
    src = tmp_path / "in.json"
    src.write_text(json.dumps(to_json_dict(f)))
    code, out, _ = run(
        ["powerop", "--input", str(src), "--m", "2", "--section", "seeded:7"],
        capsys,
    )
    assert code == 0
    result = from_json_dict(json.loads(out))
    assert result == power_op(f, 2, random_section(2, 2, 1, 7))


def test_powerop_bad_input_file_exit_2(tmp_path, capsys):
    src = tmp_path / "bad.json"
    src.write_text("{not json")
    code, _, err = run(["powerop", "--input", str(src), "--m", "2"], capsys)
    assert code == 2


def test_enumerate_determinism(tmp_path):
    args = ["enumerate", "--kind", "sums", "--p", "2", "--n", "2", "--m", "4"]
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(p1)]) == 0
    assert main(args + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_verify_report_is_sorted(capsys):
    code, out, _ = run(["verify", "--suite", "fgl"], capsys)
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("[")]
    keys = [l.split("] ", 1)[1] for l in lines]
    assert keys == sorted(keys)


def test_verify_timings_only_add_a_suffix(capsys):
    import re

    code, plain, _ = run(["verify", "--suite", "fgl"], capsys)
    assert code == 0
    code, timed, _ = run(["verify", "--suite", "fgl", "--timings"], capsys)
    assert code == 0
    suffix = re.compile(r"  \(\d+\.\d{3} s\)$")
    timed_lines = timed.splitlines()
    assert all(suffix.search(l) for l in timed_lines if l.startswith("["))
    assert "\n".join(suffix.sub("", l) for l in timed_lines) + "\n" == plain
    assert not any(suffix.search(l) for l in plain.splitlines())


def test_verify_fgl_passes(capsys):
    code, out, _ = run(["verify", "--suite", "fgl"], capsys)
    assert code == 0
    assert "properties passed" in out
    assert "FAIL" not in out


def test_verify_transfers_passes(capsys):
    code, out, _ = run(["verify", "--suite", "transfers"], capsys)
    assert code == 0


# The exit-code contract over random flags: exit 0, or exit 2-5 with one
# `error:` line that names the offending parameter; never a traceback, never 1.

GROUP_SPECS = ["S1", "S2", "S3", "C2", "C3", "C2xC3", "wr(S1,2)",  # built
               "S12", "wr(S3,4)", "C10007", "wr(S1,99999)",  # above ORDER_CAP
               "Q8", "C0", "C2x", "wr(S2)", "wr(S2,-1)"]  # not groups
PARAMETERS = ("p = ", "n = ", "level", "m = ", "k = ")


def _mostly_valid(valid, anything):
    return st.one_of(st.sampled_from(valid), anything)


@settings(max_examples=60, deadline=None)
@given(
    command=st.sampled_from(
        ["subgroups", "sums", "hom-classes", "wreath-classes", "powerop", "total"]
    ),
    p=_mostly_valid([2, 3], st.integers(-2, 4)),
    n=_mostly_valid([1, 2], st.integers(-1, 3)),
    level=_mostly_valid([1, 2, 3], st.integers(-1, 3)),
    m=st.integers(-1, 3),
    k=st.integers(-1, 3),
    group=st.sampled_from(GROUP_SPECS),
)
# one draw for each way out: 0, a bad p, the order cap, the table cap, a low level
@example(command="wreath-classes", p=2, n=2, level=2, m=2, k=0, group="S2")
@example(command="sums", p=4, n=2, level=2, m=3, k=0, group="S1")
@example(command="hom-classes", p=2, n=1, level=2, m=0, k=0, group="S12")
@example(command="powerop", p=2, n=3, level=3, m=2, k=0, group="S1")
@example(command="total", p=2, n=1, level=1, m=2, k=0, group="C2")
def test_exit_code_contract(command, p, n, level, m, k, group):
    if command in ("powerop", "total") and p in (2, 3) and n >= 1 and level >= 1:
        # a table above TABLE_CAP is refused before allocation; keep the
        # tables that are built small
        size = (p ** level) ** (n * n)
        assume(size <= 256 or size > TABLE_CAP)
    argv = {
        "subgroups": ["enumerate", "--kind", "subgroups", "--k", str(k)],
        "sums": ["enumerate", "--kind", "sums", "--m", str(m)],
        "hom-classes": ["enumerate", "--kind", "hom-classes", "--group", group],
        "wreath-classes": ["enumerate", "--kind", "wreath-classes", "--group", group,
                           "--m", str(m)],
        "powerop": ["powerop", "--group", group, "--m", str(m), "--level", str(level)],
        "total": ["powerop", "--group", group, "--m", str(m), "--level", str(level),
                  "--total"],
    }[command] + ["--p", str(p), "--n", str(n)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    if code == 0:
        assert err == ""
        return
    assert code in (2, 3, 4, 5)
    assert out.getvalue() == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert any(name in err for name in PARAMETERS) or group in err
    if code == 3:
        assert "ORDER_CAP" in err or "TABLE_CAP" in err
    if code == 4:
        assert "level" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["enumerate", "--kind", "subgroups", "--k", "30"],
         "error: k = 30: more than LISTING_CAP = 100000 subgroups\n"),
        (["enumerate", "--kind", "sums", "--n", "3", "--m", "40"],
         "error: m = 40: more than LISTING_CAP = 100000 sums\n"),
    ],
)
def test_listing_above_cap_exits_3(argv, message, capsys):
    start = time.perf_counter()
    code, out, err = run(argv, capsys)
    assert time.perf_counter() - start < 10
    assert (code, out, err) == (3, "", message)


def test_tuple_classes_above_cap_exit_3(capsys):
    # wr(wr(S2,2),3) has order 3072 and 193292 tuple classes at n = 3; the
    # walk stops at the cap, where an exhaustive one ran for minutes
    start = time.perf_counter()
    code, out, err = run(
        ["enumerate", "--kind", "wreath-classes", "--group", "wr(S2,2)", "--m", "3",
         "--n", "3"], capsys,
    )
    assert time.perf_counter() - start < 60
    assert (code, out) == (3, "")
    assert err == ("error: n = 3: more than LISTING_CAP = 100000 tuple classes "
                   "in wr(wr(S2,2),3)\n")


def test_tuple_classes_below_cap_are_listed(capsys):
    code, out, _ = run(
        ["enumerate", "--kind", "wreath-classes", "--group", "wr(S2,2)", "--m", "3",
         "--n", "2", "--format", "csv"], capsys,
    )
    assert code == 0
    assert out.startswith("index,rep\ncount,3476\n")
    assert out.count("\n") == 2 + 3476


def test_deep_tuple_of_a_trivial_group_is_listed(capsys):
    code, out, _ = run(["enumerate", "--kind", "hom-classes", "--group", "S1",
                        "--n", "2000", "--format", "csv"], capsys)
    assert code == 0
    assert out == "index,rep\ncount,1\n0," + " ".join(["0"] * 2000) + "\n"


def test_large_cyclic_group_lists_quickly(capsys):
    # element orders by one power loop over all 4096 elements at once
    start = time.perf_counter()
    code, out, _ = run(["enumerate", "--kind", "hom-classes", "--group", "C4096",
                        "--n", "1"], capsys)
    assert time.perf_counter() - start < 20
    assert code == 0
    assert json.loads(out)["count"] == 4096


# n = 2, level = 2 at p = 2: a table of (2^2)^(2*2) = 256 entries, indices 0..255
@pytest.mark.parametrize(
    "argv, shown",
    [
        (["--generator", "delta:256"], "--generator 'delta:256': t = 256 is outside 0..255 (table size 256)"),
        (["--generator", "delta:99999"], "--generator 'delta:99999': t = 99999 is outside 0..255"),
        (["--generator", "delta:-1"], "--generator 'delta:-1': t = -1 is outside 0..255"),
        (["--generator", "delta:abc"], "--generator 'delta:abc': 'abc' is not an integer"),
        (["--section", "seeded:abc"], "--section 'seeded:abc': 'abc' is not an integer"),
        (["--section", "seeded:"], "--section 'seeded:': '' is not an integer"),
    ],
)
def test_bad_builtin_spec_suffix_exits_2_naming_the_flag(argv, shown, capsys):
    code, out, err = run(["powerop", "--m", "2", *argv], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {shown}") and err.count("\n") == 1


@pytest.mark.parametrize("t", [0, 255])
def test_delta_at_either_end_of_the_table_exits_0(t, capsys):
    code, out, err = run(["powerop", "--m", "2", "--generator", f"delta:{t}"], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["classes"]


# the sums listing, written from per-subgroup text over index tuples

SUM_LISTINGS = [(p, n, m) for p in (2, 3) for n in (1, 2, 3) for m in range(6)] + [
    (2, 1, 79), (2, 2, 19), (2, 3, 11), (3, 1, 167), (3, 2, 29), (3, 3, 14),
]


def _oracle_sums_text(p, n, m, fmt):
    """Oracle: the listing of SumOfSubgroups items through the dict -> _canonical_json
    and row -> _csv_text paths."""
    sums = enumerate_sums(p, n, m)
    if fmt == "json":
        items = [{"total": s.total, "summands": [h.matrix for h in s.summands]} for s in sums]
        payload = {"kind": "sums", "p": p, "n": n, "m": m, "count": len(items), "items": items}
        return cli._canonical_json(payload)
    rows = [("count", len(sums), "")] + [
        (i, s.total, "|".join(cli._matrix_cell(h.matrix) for h in s.summands))
        for i, s in enumerate(sums)
    ]
    return _csv_text(("index", "total", "summands"), rows)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_sums_listing_matches_item_oracle(fmt, capsys):
    for p, n, m in SUM_LISTINGS:
        argv = ["enumerate", "--kind", "sums", "--p", str(p), "--n", str(n), "--m", str(m)]
        code, out, _ = run(argv + ["--format", fmt], capsys)
        assert code == 0 and out == _oracle_sums_text(p, n, m, fmt), (p, n, m)


def test_sums_listing_of_m_0_and_1_holds_one_sum(capsys):
    _, out, _ = run(["enumerate", "--kind", "sums", "--m", "0"], capsys)
    assert out == '{"count":1,"items":[{"summands":[],"total":0}],"kind":"sums","m":0,"n":2,"p":2}\n'
    _, out, _ = run(["enumerate", "--kind", "sums", "--m", "1", "--format", "csv"], capsys)
    assert out == "index,total,summands\ncount,1,\n0,1,1 0;0 1\n"


def test_sums_listing_builds_no_sum(monkeypatch, capsys):
    def no_sum(summands):
        raise AssertionError("the listing built a SumOfSubgroups")

    monkeypatch.setattr(torsion, "SumOfSubgroups", no_sum)
    for fmt in ("json", "csv"):
        code, _, _ = run(["enumerate", "--kind", "sums", "--m", "4", "--format", fmt], capsys)
        assert code == 0


@pytest.mark.parametrize("m", ["40", str(torsion.LISTING_CAP + 1)])
def test_sums_above_cap_exit_3_before_any_subgroup_is_listed(m, monkeypatch, capsys):
    listed = []
    monkeypatch.setattr(torsion, "enumerate_subgroups", lambda *args: listed.append(args))
    code, out, err = run(["enumerate", "--kind", "sums", "--n", "3", "--m", m], capsys)
    assert (code, out, listed) == (3, "", [])
    assert err.startswith(f"error: m = {m}: ") and "LISTING_CAP = 100000" in err


# class function input files

def _write_input(tmp_path, value):
    data = to_json_dict(random_class_function(build_group("C2"), 2, 2, 2, seed=3))
    data["classes"][1]["value"][5] = value
    src = tmp_path / "in.json"
    src.write_text(json.dumps(data))
    return src, data["classes"][1]["rep"]


@pytest.mark.parametrize(
    "value, reason",
    [("1/0", "has denominator 0"), ("-3/0", "has denominator 0"), ("1", "is not num/den"),
     ("1/2/3", "is not num/den"), ("a/b", "is not num/den"), ("", "is not num/den"),
     (7, "is not num/den"), (None, "is not num/den")],
)
def test_powerop_bad_input_entry_exits_2_naming_class_and_index(tmp_path, value, reason, capsys):
    src, rep = _write_input(tmp_path, value)
    code, out, err = run(["powerop", "--input", str(src), "--m", "2"], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: class {rep}: value entry 5 = {value!r} {reason}\n"


@pytest.mark.parametrize(
    "path, bad, message",
    [((), None, "class function JSON must be an object, not list"),  # the object in a list
     (("classes",), 5, "classes must be a list, not int"),
     (("classes", 1), 5, "classes[1] must be an object, not int"),
     (("classes", 1, "rep"), 5, "classes[1].rep must be a list, not int"),
     (("classes", 1, "rep", 0), [0], "classes[1].rep = [0] is not an integer"),
     (("classes", 1, "value"), 5, "classes[1].value must be a list, not int"),
     (("group",), 5, "group must be a string, not int"),
     (("p",), [2], "p = [2] is not an integer"),
     (("level",), "x", "level = 'x' is not an integer")],
)
def test_powerop_input_of_the_wrong_shape_exits_2_naming_the_field(
    tmp_path, path, bad, message, capsys
):
    data = to_json_dict(random_class_function(build_group("C2"), 2, 2, 2, seed=3))
    if path:
        *parents, last = path
        node = data
        for key in parents:
            node = node[key]
        node[last] = bad
    else:
        data = [data]
    src = tmp_path / "in.json"
    src.write_text(json.dumps(data))
    code, out, err = run(["powerop", "--input", str(src), "--m", "2"], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "key, bad",
    [("p", 2.9), ("level", 1.5), ("n", "1"), ("n", 1.0), ("n", True), ("p", True)],
)
def test_powerop_input_integer_fields_are_strict(tmp_path, key, bad, capsys):
    # a float, a digit string or a bool is refused, not truncated or converted
    data = to_json_dict(random_class_function(build_group("C2"), 2, 1, 1, seed=3))
    data[key] = bad
    src = tmp_path / "in.json"
    src.write_text(json.dumps(data))
    argv = ["powerop", "--input", str(src), "--m", "2", "--n", "1", "--level", "1"]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {key} = {bad!r} is not an integer\n"


def test_powerop_input_rep_entries_are_strict(tmp_path, capsys):
    data = to_json_dict(random_class_function(build_group("C2"), 2, 1, 1, seed=3))
    data["classes"][1]["rep"] = [1.0]
    src = tmp_path / "in.json"
    src.write_text(json.dumps(data))
    argv = ["powerop", "--input", str(src), "--m", "2", "--n", "1", "--level", "1"]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err == "error: classes[1].rep = 1.0 is not an integer\n"


# streamed output against the whole-document routes: one canonical JSON text
# of to_json_dict, one CSV buffer

def _read_output(argv, out_path, capsys):
    """Exit code and output of argv, written to out_path, or to stdout if None."""
    code = main(argv + (["--out", str(out_path)] if out_path else []))
    out = capsys.readouterr().out
    return code, out_path.read_text(encoding="utf-8") if out_path else out


@pytest.mark.parametrize("to_file", [False, True])
@pytest.mark.parametrize("total", [False, True])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_powerop_stream_matches_document_oracle(level, total, to_file, tmp_path, capsys):
    # wr(S1,3) = S3 is covered at level 1; wr(C2,2) would need level 2
    spec, m = ("S1", 3) if total else ("C2", 2)
    group, op = build_group(spec), total_power_op if total else power_op
    section = random_section(2, 2, 1, 7)
    inputs = {name: cli._builtin_generator(name, group, 2, 2, level)
              for name in ("one", "coord", "delta:5")}
    inputs["--input"] = random_class_function(group, 2, 2, level, seed=5)
    src = tmp_path / "in.json"
    src.write_text(json.dumps(to_json_dict(inputs["--input"])))
    for name, f in inputs.items():
        source = ["--input", str(src)] if name == "--input" else ["--generator", name]
        argv = ["powerop", *source, "--group", spec, "--m", str(m), "--level", str(level),
                "--section", "seeded:7", *(["--total"] if total else [])]
        code, text = _read_output(argv, tmp_path / "out.json" if to_file else None, capsys)
        assert code == 0, name
        assert text == cli._canonical_json(to_json_dict(op(f, m, section))), name


def _listing_oracle(kind, fmt, p, n, k, m, spec):
    """The whole listing as one canonical JSON text or one CSV buffer."""
    meta = {"p": p, "n": n}
    if kind == "subgroups":
        listing, header = cli.enumerate_subgroups(p, n, k), ("index", "order", "matrix")
        meta["k"] = k
        item = lambda h: {"matrix": h.matrix, "order": h.order}
        row = lambda h: (h.order, cli._matrix_cell(h.matrix))
    elif kind == "sums":
        subgroups, tuples = cli.sum_index_tuples(p, n, m)
        listing = [[subgroups[i] for i in t] for t in tuples]
        header = ("index", "total", "summands")
        meta["m"] = m
        item = lambda hs: {"total": m, "summands": [h.matrix for h in hs]}
        row = lambda hs: (m, "|".join(cli._matrix_cell(h.matrix) for h in hs))
    else:
        group = build_group(spec)
        if kind == "wreath-classes":
            group = cli.wreath_group(group, m)
            meta["m"] = m
        listing, header = cli.enumerate_hom_classes(group, n, p), ("index", "rep")
        meta["group"] = group.name
        if kind == "hom-classes":
            item = lambda c: {"rep": c.rep, "elements": [str(group.elements[i]) for i in c.rep]}
        else:
            item = lambda c: {"rep": c.rep, "decorated": [
                {"subgroup": h.matrix, "class": a.rep}
                for h, a in cli.wreath_class_to_decorated(c).summands]}
        row = lambda c: (" ".join(map(str, c.rep)),)
    if fmt == "json":
        items = [item(x) for x in listing]
        return cli._canonical_json({"kind": kind, **meta, "count": len(items), "items": items})
    rows = [("count", len(listing), *[""] * (len(header) - 2))]
    return _csv_text(header, rows + [(i, *row(x)) for i, x in enumerate(listing)])


LISTING_KINDS = [("subgroups", 2, 2, 2, 2, "S1"), ("subgroups", 3, 1, 3, 2, "S1"),
                 ("sums", 2, 2, 1, 5, "S1"), ("sums", 3, 1, 1, 4, "S1"),
                 ("hom-classes", 2, 2, 1, 2, "S4"), ("hom-classes", 3, 1, 1, 2, "S3xC3"),
                 ("wreath-classes", 2, 2, 1, 3, "C2"), ("wreath-classes", 2, 1, 1, 2, "S3")]


@pytest.mark.parametrize("to_file", [False, True])
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("kind, p, n, k, m, spec", LISTING_KINDS)
def test_listing_stream_matches_document_oracle(kind, p, n, k, m, spec, fmt, to_file,
                                                 tmp_path, capsys):
    argv = ["enumerate", "--kind", kind, "--p", str(p), "--n", str(n), "--k", str(k),
            "--m", str(m), "--group", spec, "--format", fmt]
    code, text = _read_output(argv, tmp_path / "out.txt" if to_file else None, capsys)
    assert code == 0
    assert text == _listing_oracle(kind, fmt, p, n, k, m, spec)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("kind", ["subgroups", "sums", "hom-classes", "wreath-classes"])
def test_empty_listing_stream_matches_document_oracle(kind, fmt, monkeypatch, capsys):
    for name, empty in (("enumerate_subgroups", ()), ("sum_index_tuples", ((), ())),
                        ("enumerate_hom_classes", ())):
        monkeypatch.setattr(cli, name, lambda *args, empty=empty: empty)
    argv = ["enumerate", "--kind", kind, "--group", "S2", "--m", "2", "--format", fmt]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out == _listing_oracle(kind, fmt, 2, 2, 1, 2, "S2")


def test_powerop_writes_before_the_last_class_is_formatted(tmp_path, monkeypatch):
    # C2 wr S3 at level 3: 68 classes of 4096 entries, about 1 MB of JSON
    out_path, sizes = tmp_path / "out.json", []
    fraction_strings = classfn._fraction_strings

    def formatted(val):
        sizes.append(out_path.stat().st_size if out_path.exists() else None)
        return fraction_strings(val)

    monkeypatch.setattr(classfn, "_fraction_strings", formatted)
    argv = ["powerop", "--group", "C2", "--m", "3", "--total", "--level", "3",
            "--generator", "coord", "--out", str(out_path)]
    assert main(argv) == 0
    assert len(sizes) > 1 and sizes[-1] > 0


@pytest.mark.parametrize(
    "argv, code",
    [(["powerop", "--group", "C2", "--m", "2"], 5),  # the section bound is patched to 0
     (["powerop", "--input", "IN", "--m", "2", "--level", "3"], 4),
     (["enumerate", "--kind", "sums", "--n", "3", "--m", "40"], 3)],
)
def test_failing_command_leaves_out_file_unchanged(argv, code, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "max_subgroup_exponent", lambda p, m: 0)
    src = tmp_path / "in.json"
    src.write_text(json.dumps(to_json_dict(random_class_function(build_group("C2"), 2, 2, 2, 3))))
    out_path = tmp_path / "out.json"
    out_path.write_bytes(b"earlier output\n")
    argv = [str(src) if a == "IN" else a for a in argv]
    assert main(argv + ["--out", str(out_path)]) == code
    assert out_path.read_bytes() == b"earlier output\n"

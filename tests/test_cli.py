import contextlib
import functools
import hashlib
import io
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from subshift_lab import limitdist as ld
from subshift_lab.cli import build_parser, main


def run_cli(args, script=None):
    """The CLI in a fresh interpreter; ``script``, when given, runs in place of
    ``python -m subshift_lab.cli`` and reads ``args`` from ``sys.argv``."""
    entry = ["-m", "subshift_lab.cli"] if script is None else ["-c", script]
    proc = subprocess.run(
        [sys.executable, *entry, *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc


def test_analyze_report():
    proc = run_cli(["analyze", "--inline", "1: 112; 2: 221"])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["matrix"] == [["2", "1"], ["1", "2"]]
    assert doc["eigenvector_theta_1"] == ["1", "-1"]
    assert doc["liminf_constant_theta_1"] == "4"
    assert doc["constant_length"] == 3
    assert doc["primitive"] is True


def test_analyze_iet4_not_constant_length():
    proc = run_cli(["analyze", "--inline", "1: 14; 2: 14224; 3: 14232324; 4: 142324"])
    doc = json.loads(proc.stdout)
    assert doc["constant_length"] is None
    assert doc["char_poly"] == ["1", "-7", "11", "-7", "1"]
    # digit-automaton commands refuse non-constant length with a clear error
    proc = run_cli(
        ["automaton", "--inline", "1: 14; 2: 14224; 3: 14232324; 4: 142324", "--tau", "0"]
    )
    assert proc.returncode == 2
    assert "constant-length" in proc.stderr


def test_malformed_input_is_structured_error():
    proc = run_cli(["analyze", "--inline", "1 112"])
    assert proc.returncode == 2
    err = json.loads(proc.stderr.strip().splitlines()[-1])
    assert "error" in err


def test_random_digits_with_base_one_is_structured_error():
    # a length-1 substitution has base 1, whose digits would all be zero
    proc = run_cli(["simulate", "--inline", "1: 2; 2: 1", "--random-digits", "3"])
    assert proc.returncode == 2
    err = json.loads(proc.stderr.strip().splitlines()[-1])
    assert err == {"error": "base must be >= 2"}


def test_simulate_sums_beyond_int64_is_structured_error():
    big = 2**58
    proc = run_cli(
        [
            "simulate", "--inline", "1: 112; 2: 221", "--gamma", f"{big},{-big}",
            "--t", "1", "--n", "200", "--samples", "2000", "--seed", "1",
        ]
    )
    assert proc.returncode == 2
    err = json.loads(proc.stderr.strip().splitlines()[-1])
    assert "int64" in err["error"]


def test_bounds_sums_beyond_int64_are_exact():
    # the census sums Python ints, so a gamma whose sums leave int64 probes
    # exactly: 2**62 times the unit-gamma probes
    big = 2**62
    probes = {}
    for scale in (big, 1):
        code, out, err = _run_in_process(
            [
                "bounds", "--inline", "1: 112; 2: 221", "--gamma", f"{scale},{-scale}",
                "--points", "2", "--horizon", "729",
            ]
        )
        assert code == 0, err
        doc = json.loads(out)
        assert doc["all_below_C"] is True
        probes[scale] = [(int(p["forward"]), int(p["reverse"])) for p in doc["probes"]]
    assert probes[big] == [(big * f, big * r) for f, r in probes[1]]


def test_bounds_unit_gamma_probes_zero():
    proc = run_cli(
        [
            "bounds", "--inline", "1: 112; 2: 221", "--gamma", "1,-1",
            "--points", "2", "--horizon", "729",
        ]
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert [p["forward"] for p in doc["probes"]] == ["0", "0"]


@pytest.mark.parametrize(
    "args",
    [
        ["dist", "--t", "1", "--n", "abc"],
        ["dist", "--t", "1", "--n", "0", "--exact"],
        ["dist", "--t", "3/2", "--n", "5,0"],
        ["dist", "--t", "3/2", "--n", "5,,10"],
        ["simulate", "--t", "1", "--n", "-3"],
        ["simulate", "--t", "1", "--n", "abc"],
        ["simulate", "--t", "1", "--n", "5,10"],
    ],
)
def test_invalid_n_is_structured_error(args):
    proc = run_cli([*args, "--inline", "1: 112; 2: 221"])
    assert proc.returncode == 2
    err = json.loads(proc.stderr.strip().splitlines()[-1])
    assert err["error"].startswith("--n must be")


def test_dist_growth_with_one_distinct_horizon_is_structured_error():
    proc = run_cli(["dist", "--inline", "1: 112; 2: 221", "--t", "3/2", "--n", "7,7"])
    assert proc.returncode == 2
    err = json.loads(proc.stderr.strip().splitlines()[-1])
    assert "two distinct horizons" in err["error"]


@pytest.mark.parametrize(
    "args, message",
    [
        # a negative horizon died with a traceback from point_from_path
        (["bounds", "--points", "1", "--horizon", "-5"], "--horizon must be >= 1"),
        # a zero horizon silently became d^8
        (["bounds", "--points", "1", "--horizon", "0"], "--horizon must be >= 1"),
        # no probe at all reported "all_below_C": true
        (["bounds", "--points", "0"], "--points must be >= 1"),
    ],
)
def test_bounds_invalid_options_are_structured_errors(args, message):
    proc = run_cli([*args, "--inline", "1: 112; 2: 221"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    err = json.loads(proc.stderr.strip().splitlines()[-1])
    assert err["error"].startswith(message)


@pytest.mark.parametrize("horizon", [[], ["--horizon", "5"]])
def test_bounds_without_growth_is_structured_error(horizon):
    # every image has length 1, so no point is ever longer than one letter
    proc = run_cli(["bounds", "--inline", "1: 2; 2: 1", "--points", "1", *horizon])
    assert proc.returncode == 2
    assert proc.stdout == ""
    err = json.loads(proc.stderr.strip().splitlines()[-1])
    assert "stop growing" in err["error"]


def test_bounds_with_slow_growth_is_structured_error():
    # |sigma^n(1)| = n + 1 never reaches 2 * 2^8 letters at the depths tried
    proc = run_cli(["bounds", "--inline", "1: 12; 2: 2", "--points", "1"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    err = json.loads(proc.stderr.strip().splitlines()[-1])
    assert err["error"].startswith("no point covers 256 letters left and 256 right")


def test_salem_n_max_zero_is_structured_error():
    # no report at all used to pass as "all_salem": true
    proc = run_cli(["salem", "--n-max", "0"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    err = json.loads(proc.stderr.strip().splitlines()[-1])
    assert err == {"error": "--n-max must be >= 1, got 0"}


def test_gallery_passes(tmp_path):
    proc = run_cli(["gallery", "--out", str(tmp_path)])
    assert proc.returncode == 0
    assert "gallery: PASS" in proc.stdout
    assert (tmp_path / "nonsync2-tau1.dot").exists()
    assert (tmp_path / "sync3-tau0.dot").read_text().startswith("digraph")


def test_salem_cli():
    proc = run_cli(["salem", "--n-max", "10"])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["all_salem"] is True
    assert len(doc["reports"]) == 10


def test_dist_runs_deterministically():
    args = [
        "dist", "--inline", "1: 112; 2: 221", "--t", "1", "--n", "40",
        "--samples", "20000", "--seed", "3",
    ]
    first = run_cli(args)
    second = run_cli(args)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    doc = json.loads(first.stdout)
    assert doc["prediction"]["p0"] == "1/2"
    assert "KS_continuous" in doc


def test_dist_exact_mode(tmp_path):
    proc = run_cli(
        [
            "dist", "--inline", "1: 112; 2: 221", "--t", "3/2", "--n", "12",
            "--exact", "--format", "csv", "--out", str(tmp_path),
        ]
    )
    assert proc.returncode == 0
    hist = (tmp_path / "dist-exact-n12.csv").read_text().splitlines()
    assert hist[0] == "value,mass"
    masses = [float(line.split(",")[1]) for line in hist[1:]]
    assert abs(sum(masses) - 1.0) < 1e-9
    doc = json.loads((tmp_path / "dist.json").read_text())
    assert doc["mode"] == "exact"


@pytest.mark.parametrize(
    "args, digest",
    [
        (
            ["--inline", "1: 112; 2: 221", "--t", "3/2", "--n", "64", "--exact"],
            "68805e3bc98422ba2290e0b169601d1d60aa79d8b37369e7ac69a24be5651b62",
        ),
        (
            ["--inline", "1: 112; 2: 221", "--t", "3/2", "--n", "64", "--exact",
             "--format", "csv"],
            "21be054e5bdb8291405d4c6eefea67a73fde1e04abefc2da1e8c59c86d8b2478",
        ),
        (
            ["--inline", "1: 12; 2: 13; 3: 23", "--t", "1", "--n", "400", "--exact"],
            "35f98da8a5bca91a321e0fd74ba2ae1f62b7e9ee220929bfdec476c0ac8810e1",
        ),
    ],
    ids=["twist2-json", "twist2-csv", "sync3-json"],
)
def test_dist_exact_stdout_is_pinned(args, digest):
    # the exact V_n as a fraction and the float histogram, byte for byte
    proc = run_cli(["dist", *args])
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "args, digest",
    [
        (
            ["classify", "--inline", "1: 112; 2: 221", "--tau", "1", "--t", "3/2"],
            "23626eb804b09692faf584626278f779eae82b11976dfef953cd0a6e4eae77da",
        ),
        (
            ["classify", "--inline", "1: 12; 2: 13; 3: 23", "--block", "0,1,0", "--t", "1/2"],
            "05ba40653f641bd41def227c5ba65b404ff6647f560ac9b6855354365cb650eb",
        ),
        (
            ["classify", "--inline", "1: 1221121; 2: 2112212", "--block", "4,0,5",
             "--t", "19/3"],
            "91a648690d0a0760b90de8212a7571877f480806d1e29b80596b085bc6a1e067",
        ),
        (
            ["analyze", "--inline", "1: 112; 2: 221"],
            "1de872dacef9c46bde33ae59c0aba19cbb6d4516ff57770fe7c004a4ff3e4c28",
        ),
        (
            ["analyze", "--inline", "1: 12; 2: 13; 3: 23"],
            "b1598172dbd5041f345a64b85ffb22582747141be1ad6cdea8f99ff23cea2f62",
        ),
        (
            ["classify", "--inline", "1: 112; 2: 221", "--block", "1,0,2", "--t", "3/2"],
            "21a13a8bad11f6538256da8c77c950d22e70e7689c290908294aca711835ff00",
        ),
        (
            ["classify", "--inline", "1: 12; 2: 13; 3: 23", "--block", "1,0,1,1", "--t", "1"],
            "399ce8c9e58efbb1c5f8d9d573130463322bd8f4d00a070cc27c68b932c22ede",
        ),
        (
            # Monte Carlo law with the mixture prediction and its atom window
            ["dist", "--inline", "1: 112; 2: 221", "--t", "7/3", "--n", "200",
             "--samples", "20000", "--seed", "5"],
            "05189f89f958bc3c60bd646bdddf2cd5abdbf98560747580ddf9a38ee50a53c6",
        ),
        (
            # d = 2: Monte Carlo chunks of eight steps, with the histogram
            ["simulate", "--inline", "1: 12; 2: 13; 3: 23", "--t", "5/3", "--n", "100",
             "--samples", "20000", "--seed", "3", "--format", "csv"],
            "0d3ae8da676aedb208d36beb6e11a77f1262fd1df54f1854a2e5d0f11827803b",
        ),
        (
            # d = 7: chunks of two steps through seeded digits
            ["dist", "--inline", "1: 1112122; 2: 2221211", "--random-digits", "5", "--n", "60",
             "--samples", "20000", "--seed", "7"],
            "7a537048ce524bd7192be70914d3b2ae30a500a16d8d2b178b400c62038fb8ea",
        ),
        (
            # d = 5: chunks of three steps
            ["simulate", "--inline", "1: 11212; 2: 22121", "--t", "3/2", "--n", "90",
             "--samples", "20000", "--seed", "11"],
            "c393584d1ebcf90ee2c5f00f9b76c3519f9fcd463c989f16fa970ab4e6cf6f5b",
        ),
    ],
    ids=["classify-twist2-tau", "classify-sync3-block", "classify-twist7-block",
         "analyze-twist2", "analyze-sync3", "classify-twist2-block", "classify-sync3-block4",
         "dist-mc-mixture", "simulate-mc-sync3-csv", "dist-mc-twist7-random",
         "simulate-mc-twist5"],
)
def test_exact_solve_stdout_is_pinned(args, digest):
    # stationary laws, variances, absorption weights, Dobrushin coefficients,
    # eigenvectors and liminf constants, byte for byte
    proc = run_cli(args)
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


def test_dist_growth_mode():
    # the growth path is exact with or without --exact and reads no seed, so
    # its report names the method only
    for extra in (["--exact"], []):
        proc = run_cli(
            ["dist", "--inline", "1: 112; 2: 221", "--t", "3/2", "--n", "20,40,80", *extra]
        )
        doc = json.loads(proc.stdout)
        assert len(doc["variances"]) == 3
        assert 0.8 <= float(doc["slope"]) <= 1.1
        assert doc["method"] == "exact"
        assert "mode" not in doc and "seed" not in doc


def test_bounds_cli():
    proc = run_cli(
        ["bounds", "--inline", "1: 112; 2: 221", "--points", "3", "--horizon", "500"]
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["C"] == "4"
    assert doc["all_below_C"] is True
    assert len(doc["probes"]) == 3


def test_bounds_far_horizon_reads_only_the_path():
    # 3**150 letters: no window is built, so the probes take milliseconds
    horizon = 3**150
    code, out, err = _run_in_process(
        ["bounds", "--inline", "1: 112; 2: 221", "--points", "2", "--horizon", str(horizon)]
    )
    assert code == 0, err
    doc = json.loads(out)
    assert doc["horizon"] == horizon
    assert len(doc["probes"]) == 2
    c = Fraction(doc["C"])
    assert all(Fraction(p[side]) < c for p in doc["probes"] for side in ("forward", "reverse"))
    assert doc["all_below_C"] is True


# stdout of the window-cumsum probes that the census replaced, byte for byte
_BOUNDS_500 = "c1ad34d930a801c9689756b802968f9b5a485d6a35a7a4fdb8d40dc84f9ce484"
_BOUNDS_6561 = "e76fbc63b61752938fb0a3cac093d8498501074f6cc2497ee18f834d13c35ae9"


@pytest.mark.parametrize(
    "inline, horizon, digest",
    [
        ("1: 112; 2: 221", ["--horizon", "500"], _BOUNDS_500),
        ("1: 112; 2: 221", ["--horizon", "6561"], _BOUNDS_6561),
        ("1: 112; 2: 221", [], _BOUNDS_6561),
        (
            "1: 12; 2: 13; 3: 23", ["--horizon", "500"],
            "21d83440292e4c651e07b0c039a77a0277deac135ba233b45c464a5e21c6ef00",
        ),
        (
            "1: 12; 2: 13; 3: 23", ["--horizon", "6561"],
            "70c14cbea70fb3bab65acd26822b8a52688f73f9c82935952bacd63b02ae1a06",
        ),
        (
            "1: 12; 2: 13; 3: 23", [],
            "6e6d20579ba1011a730ddad15bbea9ec9a3dab04cb6cce440a50a8ff0640d906",
        ),
        ("1: 122; 2: 211", ["--horizon", "500"], _BOUNDS_500),
        ("1: 122; 2: 211", ["--horizon", "6561"], _BOUNDS_6561),
        ("1: 122; 2: 211", [], _BOUNDS_6561),
    ],
)
def test_bounds_stdout_is_pinned(inline, horizon, digest):
    code, out, err = _run_in_process(["bounds", "--inline", inline, *horizon])
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "args, digest",
    [
        (
            ["--inline", "1: 112; 2: 221", "--block", "0,1,2", "--t", "3/2"],
            "0c10239a88ab388d3d82e04752c0e341f28113c0504c145bce84609ffe33b2c2",
        ),
        (
            ["--inline", "1: 112; 2: 221", "--block", "2,2,0,1", "--t", "1"],
            "c88c1064769d8207c3b09cfc57f97c8de6b3dd77e45fc06bb67e9e00a0fc0cd6",
        ),
        (
            ["--inline", "1: 12; 2: 13; 3: 23", "--block", "1,0,1", "--t", "1"],
            "a816a72a77096793a20a237bfd0d67df117ee081737ca8f74c4fb6e75edc320a",
        ),
        (
            ["--inline", "1: 12; 2: 13; 3: 23", "--block", "0,1,1,0", "--t", "1/3"],
            "572e979c4f225e83a5ac66bae74b80e2f09ae27e82c6350eeff14a98f0816cb5",
        ),
    ],
)
def test_classify_block_report_is_pinned(args, digest):
    # chain_report's variances skip the mean that asymptotic_variance checks
    # again; each zero-mean class keeps its variance, byte for byte
    code, out, err = _run_in_process(["classify", *args])
    assert code == 0, err
    assert '"variance"' in out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_simulate_cli(tmp_path):
    proc = run_cli(
        [
            "simulate", "--inline", "1: 112; 2: 221", "--t", "3/2", "--n", "25",
            "--samples", "4000", "--format", "csv", "--out", str(tmp_path),
        ]
    )
    assert proc.returncode == 0
    assert (tmp_path / "simulate-hist.csv").exists()
    doc = json.loads((tmp_path / "simulate.json").read_text())
    assert doc["n"] == 25 and doc["seed"] == 0


def test_classify_cli_block():
    proc = run_cli(
        ["classify", "--inline", "1: 112; 2: 221", "--block", "1,1", "--t", "3/2"]
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["strongly_connected"] is True


def test_prefix_suffix_cli():
    proc = run_cli(["prefix-suffix", "--inline", "1: 12; 2: 13; 3: 23", "--format", "dot"])
    assert proc.returncode == 0
    assert proc.stdout.startswith("digraph")


def test_main_entry_point(capsys):
    code = main(["analyze", "--inline", "1: 112; 2: 221"])
    assert code == 0
    out = capsys.readouterr().out
    assert json.loads(out)["constant_length"] == 3


IN_PROCESS_SEQUENCE = [
    ["classify", "--inline", "1: 112; 2: 221", "--block", "1,0,2", "--t", "3/2"],
    ["analyze", "--inline", "1: 12; 2: 13; 3: 23"],
    ["classify", "--inline", "1: 112; 2: 221", "--block", "1,x"],  # exit 2, JSON error
    ["dist", "--inline", "1: 112; 2: 221", "--t", "7/3", "--n", "60", "--samples", "3000"],
    ["classify", "--inline", "1: 112; 2: 221", "--tau", "x"],  # exit 2, argparse usage
]


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_in_process_calls_match_subprocesses():
    # one parser serves every call of the process; no call may leave state
    # in it that changes a later one
    assert build_parser() is build_parser()
    expected = []
    for argv in IN_PROCESS_SEQUENCE:
        proc = run_cli(argv)
        expected.append((proc.returncode, proc.stdout, proc.stderr))
    assert [code for code, _, _ in expected] == [0, 0, 2, 0, 2]
    for _ in range(2):
        assert [_run_in_process(argv) for argv in IN_PROCESS_SEQUENCE] == expected


@pytest.mark.parametrize(
    "args, theta",
    [
        # theta = -1 printed a V_n that is not the ergodic sum's
        (["dist", "--inline", "1: 122; 2: 211", "--t", "3/2", "--n", "6", "--exact"], -1),
        (["simulate", "--inline", "1: 122; 2: 211", "--t", "3/2", "--n", "6"], -1),
        # theta = 3 died with a traceback
        (["dist", "--inline", "1: 112; 2: 221", "--gamma", "1,1", "--t", "3/2", "--n", "5",
          "--exact"], 3),
    ],
)
def test_law_commands_need_eigenvalue_one(args, theta):
    code, out, err = _run_in_process(args)
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": f"the law of the ergodic sum needs eigenvalue 1; gamma has eigenvalue {theta}"
    }


@pytest.mark.parametrize(
    "args",
    [
        ["dist", "--t", "1", "--n", "4", "--exact"],
        # these two died with a traceback from initial_distribution
        ["simulate", "--t", "1", "--n", "4"],
        ["dist", "--random-digits", "3", "--n", "4", "--exact"],
    ],
)
def test_law_commands_need_a_primitive_substitution(args):
    # 1 -> 12, 2 -> 22 has eigenvalue 1 but no irreducible block chain
    code, out, err = _run_in_process([*args, "--inline", "1: 12; 2: 22"])
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "block chain is not irreducible; substitution must be primitive"
    }


@pytest.mark.parametrize(
    "args, message",
    [
        (["classify", "--tau", "7"], "tau must lie in 0..2"),
        (["classify", "--block", "5"], "tau must lie in 0..2"),
        (["automaton", "--tau", "9"], "tau must lie in 0..2"),
        # an empty block used to run the --tau 0 report
        (["classify", "--block", ""], "cannot parse --block"),
    ],
)
def test_out_of_range_digits_are_structured_errors(args, message):
    code, out, err = _run_in_process([*args, "--inline", "1: 112; 2: 221"])
    assert code == 2 and out == ""
    assert json.loads(err)["error"].startswith(message)


@pytest.mark.parametrize("command", ["simulate", "dist"])
@pytest.mark.parametrize(
    "samples",
    [
        # 10^11 samples died with numpy's _ArrayMemoryError and exit 1
        "100000000000",
        # no sample at all reached the library's "need at least one sample"
        "0",
    ],
)
def test_sample_count_is_bounded_when_parsed(command, samples):
    argv = [command, "--inline", "1: 112; 2: 221", "--t", "1", "--n", "10",
            "--samples", samples]
    code, out, err = _run_in_process(argv)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": f"--samples must lie in 1..10000000, got {samples}"
    }


# the CLI with the exact law's support cap lowered to 50 slots
_CAP_50 = """\
import functools, sys
from subshift_lab import limitdist as ld
from subshift_lab.cli import main
ld.exact_sum_distribution = functools.partial(ld.exact_sum_distribution, support_cap=50)
sys.exit(main())
"""

_TWIST2 = ["--inline", "1: 112; 2: 221"]


@pytest.mark.parametrize(
    "args, sub_json, capped, message",
    [
        # the liminf constant needs an eigenvalue of modulus 1; this gamma's is 3
        (["bounds", *_TWIST2, "--gamma", "1,1", "--points", "1"], None, False,
         "the weight vector must belong to an eigenvalue of modulus one"),
        (["analyze", *_TWIST2, "--out", "{tmp}/file/sub"], None, False,
         "[Errno 20] Not a directory"),
        (["analyze", "--sub", "{tmp}/sub.json"], {"alphabet": 2, "images": 5}, False,
         'cannot parse substitution: "images" must be a list of strings or lists'),
        (["analyze", "--sub", "{tmp}/sub.json"], {"alphabet": None, "images": ["12", "21"]},
         False, 'cannot parse substitution: "alphabet" must be a letter count or a list'),
        (["analyze", "--sub", "{tmp}/sub.json"], {"alphabet": 2, "images": [12, 21]}, False,
         'cannot parse substitution: "images" must be a list of strings or lists'),
        # exited 0 with two letters named "1"
        (["analyze", "--sub", "{tmp}/sub.json"], {"alphabet": ["1", "1"], "images": ["11", "11"]},
         False, "cannot parse substitution: duplicate letter in the alphabet"),
        (["dist", *_TWIST2, "--t", "3/2", "--n", "30", "--exact"], None, True,
         "support cap exceeded at step 5 with 58 slots"),
    ],
    ids=["bounds-eigenvalue-3", "out-under-a-file", "json-images-not-a-list",
         "json-alphabet-null", "json-images-ints", "json-duplicate-symbols",
         "dist-exact-support-cap"],
)
def test_rejected_inputs_exit_2_with_one_json_line(
    args, sub_json, capped, message, tmp_path, monkeypatch
):
    # each of these ended in a traceback with exit 1, or exit 0 for the
    # duplicate symbols; main is the one place that reports a rejected input
    (tmp_path / "file").write_text("")
    if sub_json is not None:
        (tmp_path / "sub.json").write_text(json.dumps(sub_json))
    argv = [arg.format(tmp=tmp_path) for arg in args]
    proc = run_cli(argv, script=_CAP_50 if capped else None)
    if capped:
        monkeypatch.setattr(
            ld, "exact_sum_distribution",
            functools.partial(ld.exact_sum_distribution, support_cap=50),
        )
    code, out, err = _run_in_process(argv)
    assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert list(doc) == ["error"] and doc["error"].startswith(message)


def test_exact_law_past_the_packed_bits_bound_exits_2(monkeypatch):
    # the bound lowered, as dist --n 4000 --exact on twist2 reaches it at its
    # default after a few seconds instead of running for minutes
    monkeypatch.setattr(ld, "MAX_PACKED_BITS", 10**4)
    argv = ["dist", *_TWIST2, "--t", "1", "--n", "200", "--exact"]
    code, out, err = _run_in_process(argv)
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    assert json.loads(line)["error"].startswith("exact law too large at step ")


@pytest.mark.parametrize(
    "args, digest",
    [
        (
            ["automaton", "--inline", "1: 112; 2: 221", "--tau", "1"],
            "caabd76f07616dae1524fe21fb6ea65cba0b3a745f85b44a3ef7abb1469e49ee",
        ),
        (
            ["automaton", "--inline", "1: 112; 2: 221", "--tau", "1", "--format", "dot"],
            "bcfaba759dcb9b62751d30abd861dca0a70391ae2a16e0c2b3424c9d871f6469",
        ),
        (
            ["automaton", "--inline", "1: 112; 2: 221", "--simplified"],
            "36ea2a1095b876c5ea8028fe1f522211b9fc7cb7b959190d739e7e78aedc0a07",
        ),
        (
            # the simplified automaton is the tau = 0 one, whatever --tau says
            ["automaton", "--inline", "1: 112; 2: 221", "--tau", "2", "--simplified"],
            "36ea2a1095b876c5ea8028fe1f522211b9fc7cb7b959190d739e7e78aedc0a07",
        ),
        (
            ["automaton", "--inline", "1: 112; 2: 221", "--simplified", "--format", "dot"],
            "f940afd3e016f10b942f13ffc5ba25401e31cbc77acadb843cf7bee2767ed88c",
        ),
        (
            ["automaton", "--inline", "1: 12; 2: 13; 3: 23", "--tau", "1", "--format", "dot"],
            "0a7d500c2a1c5e473eab835942d75e3874744cb401c1df7fecdbae2319162730",
        ),
        (
            # a digit chain: edges labelled m:payoff
            ["classify", "--inline", "1: 112; 2: 221", "--tau", "1", "--t", "3/2",
             "--format", "dot"],
            "ca63ab9b1e28a912407443fc9f9c774fc258c917d51121066be0ebd4e9c699f6",
        ),
        (
            # a composed chain: edges labelled by their payoff only
            ["classify", "--inline", "1: 112; 2: 221", "--block", "1,0,2", "--t", "3/2",
             "--format", "dot"],
            "177c7e781df524b58d3d391c8f19d0ea6fb05cbbaccbda80f904e56dfc75f005",
        ),
        (
            # gamma = (1/2, -1/2): lattice 2 at tau 1, lattice 1 at tau 0 and 2
            ["classify", "--inline", "1: 112; 2: 221", "--gamma", "1/2,-1/2", "--tau", "1",
             "--t", "3/2"],
            "179f931f5a35f54cd9320616358bff8d5efb961a58d6cea6a1d7435baed3b383",
        ),
        (
            ["classify", "--inline", "1: 112; 2: 221", "--gamma", "1/2,-1/2", "--block",
             "0,1,2", "--t", "3/2"],
            "6e4afe11b368d70cb480740397e0905781864ac2c6a35cb28614eb6a2f738644",
        ),
        (
            ["dist", "--inline", "1: 112; 2: 221", "--gamma", "1/2,-1/2", "--t", "3/2",
             "--n", "20", "--exact"],
            "a2ce95d2146e8d408acaff0d5cb5aaacf76b6e85d66345c2db5787c68ebe9431",
        ),
        (
            # layers of all three digits
            ["dist", "--inline", "1: 112; 2: 221", "--gamma", "1/2,-1/2", "--digits",
             "1,2:0,1", "--n", "20", "--exact"],
            "9fbefe59bea660ed3d43aa8eebdbab84d761ab70200534e594730c9dc954451a",
        ),
    ],
    ids=["automaton-twist2-tau1-json", "automaton-twist2-tau1-dot",
         "automaton-twist2-simplified-json", "automaton-twist2-simplified-tau2-json",
         "automaton-twist2-simplified-dot", "automaton-sync3-tau1-dot",
         "classify-twist2-tau1-dot", "classify-twist2-block-dot",
         "classify-twist2-half-gamma", "classify-twist2-half-gamma-block",
         "dist-twist2-half-gamma", "dist-twist2-half-gamma-digits"],
)
def test_chain_export_stdout_is_pinned(args, digest):
    code, out, err = _run_in_process(args)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_gallery_dot_files_are_pinned(tmp_path):
    code, _, err = _run_in_process(["gallery", "--out", str(tmp_path)])
    assert code == 0, err
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.glob("*.dot")
    }
    assert digests == {
        "sync3-tau0.dot": "b63aace5bc884939793ed2206ab75bfce7333309ed86f65ee83cd081727554f1",
        "nonsync2-tau0.dot": "3225fac88618ad7e07824ae2d881ff6b3e78597db28f7530504973c850e235dd",
        "nonsync2-tau1.dot": "ca63ab9b1e28a912407443fc9f9c774fc258c917d51121066be0ebd4e9c699f6",
        "nonsync2-tau2.dot": "e08915077c1ab9d82e4c296d42a324bfbc62884872583b90a430b545b2ca5a7b",
    }

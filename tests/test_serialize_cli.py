import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from schreierkit import Family, PartitionMeasure, SparseVector, interval, restrict, schreier_family, trace
from schreierkit import cli, interpolation
from schreierkit.cli import main
from schreierkit.serialize import (
    dump_json,
    family_from_obj,
    family_to_obj,
    format_rational,
    measure_from_obj,
    measure_to_obj,
    parse_rational,
    tparams_from_obj,
    vector_from_obj,
    vector_to_obj,
)


def test_rational_round_trip():
    for text, value in [("1/2", Fraction(1, 2)), ("-2/3", Fraction(-2, 3)), ("3", 3), (5, 5)]:
        assert parse_rational(text) == value
    assert format_rational(Fraction(1, 2)) == "1/2"
    assert format_rational(Fraction(4, 2)) == "2"
    for bad in ("x", "1/0", None, True):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_family_round_trip():
    f = Family([[1, 2], [3]], hereditary=False)
    assert family_from_obj(family_to_obj(f)) == f
    assert family_to_obj(f)["hereditary"] is False
    # null and a missing field read as false; 0, 1 and strings are refused
    assert family_from_obj({"sets": [[1, 2]], "hereditary": None}).hereditary_flag is False
    assert family_from_obj({"sets": [[1, 2]]}).hereditary_flag is False
    closed = family_from_obj({"sets": [[], [1]], "hereditary": True})
    assert closed.hereditary_flag is True and family_to_obj(closed)["hereditary"] is True
    with pytest.raises(ValueError):
        family_from_obj({"sets": [[2, 1]]})
    for bad in ("yes", "true", 0, 1):
        with pytest.raises(ValueError, match='"hereditary" must be true, false or null'):
            family_from_obj({"sets": [[1]], "hereditary": bad})
    with pytest.raises(ValueError):
        family_from_obj([1, 2])


def test_measure_round_trip():
    m = PartitionMeasure(
        [[1, 2], [3, 4]],
        [{1: Fraction(1, 3), 2: Fraction(2, 3)}, {3: Fraction(1, 2), 4: Fraction(1, 2)}],
    )
    again = measure_from_obj(measure_to_obj(m))
    assert again.pieces == m.pieces and again.weights == m.weights
    uniform = measure_from_obj({"pieces": [[1, 2], [3]]})
    assert uniform.weights[0][1] == Fraction(1, 2)
    with pytest.raises(ValueError):
        measure_from_obj({"pieces": [[1, 2]], "weights": [["1/2"]]})


def test_vector_round_trip():
    x = SparseVector({3: Fraction(1, 2), 5: Fraction(-2, 3)})
    assert vector_from_obj(vector_to_obj(x)) == x
    assert vector_to_obj(x) == {"coords": [[3, "1/2"], [5, "-2/3"]]}


def test_tparams_from_config():
    params, seed = tparams_from_obj({"lambda": "1/2", "window_max": 7, "seed": 9})
    assert params.lam == Fraction(1, 2) and params.window_max == 7 and seed == 9
    assert params.radices[6] == 10
    override, _ = tparams_from_obj({"lambda": "1/2", "window_max": 5, "radices": {"4": 3, "5": 5}})
    assert override.radices[4] == 3
    with pytest.raises(ValueError):
        tparams_from_obj({"lambda": "1/2", "window_max": 0})
    with pytest.raises(ValueError):
        tparams_from_obj({"lambda": "1/2", "seed": "nope"})


# ------------------------------------------------------------------ CLI


def write(tmp: Path, name: str, obj) -> str:
    path = tmp / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture()
def schreier_file(tmp_path):
    code = main(["--output", str(tmp_path / "s.json"), "schreier", "--alpha", "1", "--window", "1..8"])
    assert code == 0
    return str(tmp_path / "s.json")


def test_cli_norm_exact(tmp_path, schreier_file, capsys):
    vec = write(tmp_path, "x.json", {"coords": [[k, "1/2"] for k in (2, 3, 4, 5)]})
    assert main(["norm", "--family", schreier_file, "--vector", vec]) == 0
    out = capsys.readouterr().out
    assert out.startswith("3/2")

    empty = write(tmp_path, "zero.json", {"coords": []})
    assert main(["norm", "--family", schreier_file, "--vector", empty]) == 0
    assert capsys.readouterr().out.startswith("0")

    assert main(["norm", "--family", schreier_file, "--vector", vec, "--p", "inf"]) == 0
    assert capsys.readouterr().out.startswith("3/2")


def test_cli_norm_bad_input_exits_2(tmp_path):
    bad = write(tmp_path, "bad.json", {"sets": "nope"})
    vec = write(tmp_path, "x.json", {"coords": [[1, "1"]]})
    assert main(["norm", "--family", bad, "--vector", vec]) == 2
    assert main(["norm", "--family", str(tmp_path / "missing.json"), "--vector", vec]) == 2
    for sets in ([1, [2]], [["a"]], 5):
        shape = write(tmp_path, "shape.json", {"sets": sets})
        assert main(["family", "--op", "closure", "--input", shape]) == 2
    fam_ok = write(tmp_path, "f.json", {"sets": [[1, 2]]})
    assert main(["norm", "--family", fam_ok, "--vector", write(tmp_path, "v.json", {"coords": 5})]) == 2
    for measure in ({"pieces": 5}, {"pieces": [[1], [2]], "weights": [5, 6]}):
        mpath = write(tmp_path, "m.json", measure)
        assert main(["family", "--op", "glambda", "--input", fam_ok,
                     "--measure", mpath, "--density", "1/2"]) == 2
    # the aggregated norm starts at level 1
    half = write(tmp_path, "half.json", {"coords": [[1, "1/2"]]})
    for nmax in ("0", "-3"):
        assert main(["gauge", "--vector", half, "--family", fam_ok, "--nmax", nmax, "--p", "2"]) == 2
    # a list is not a radix table; r_4 = 0 would leave I_4 empty; a key is
    # m >= 1 in plain decimal, so "4" and "04" cannot both set r_4
    for config in ({"radices": [1, 2]}, {"radices": {"4": 0}, "window_max": 4},
                   {"radices": {"x": 3}}, {"radices": {"4": 2, "04": 3}},
                   {"radices": {"-4": 2}}, {"radices": {" 4": 2}}):
        assert main(["tfamily", "build", "--config", write(tmp_path, "c.json", config)]) == 2


def test_cli_norm_refuses_a_repeated_vector_index(tmp_path, capsys):
    fam = write(tmp_path, "f.json", {"sets": [[1, 2], [3]]})
    vec = write(tmp_path, "x.json", {"coords": [[3, "1/2"], [3, "1/2"]]})
    assert main(["norm", "--family", fam, "--vector", vec]) == 2
    assert "index 3 appears more than once" in capsys.readouterr().err
    # an index that is not an int is refused as before, not as a repeat
    listed = write(tmp_path, "y.json", {"coords": [[[3], "1/2"], [[3], "1/2"]]})
    assert main(["norm", "--family", fam, "--vector", listed]) == 2
    assert "indices must be integers >= 1, got [3]" in capsys.readouterr().err


def test_cli_norm_refuses_a_false_heredity_claim(tmp_path, capsys):
    vec = write(tmp_path, "x.json", {"coords": [[2, "1"]]})
    claim = write(tmp_path, "f.json", {"sets": [[1, 2]], "hereditary": True})
    assert main(["norm", "--family", claim, "--vector", vec]) == 2
    assert "{1,2} is a member but {2} is not" in capsys.readouterr().err
    honest = write(tmp_path, "g.json", {"sets": [[], [1], [2], [1, 2]], "hereditary": True})
    assert main(["norm", "--family", honest, "--vector", vec]) == 0


def test_cli_norm_roots_powers_past_float_range(tmp_path, capsys):
    # two unit-norm blocks of weight 10: the exact 400-th power 2 * 10^400 is
    # past float range, its root 10 * 2^(1/400) is not
    vec = write(tmp_path, "x.json", {"coords": [[1, 10], [3, 10]]})
    fam = write(tmp_path, "f.json", {"sets": [[1, 2], [2, 3]]})
    assert main(["norm", "--family", fam, "--vector", vec, "--p", "400"]) == 0
    root = float(capsys.readouterr().out.split()[0])
    assert root == pytest.approx(10 * 2 ** (1 / 400), rel=1e-11)
    # the float path for non-integer p cannot hold 2 * 10^350.5: refused, naming p
    assert main(["norm", "--family", fam, "--vector", vec, "--p", "701/2"]) == 2
    assert "701/2" in capsys.readouterr().err
    # the gauge's p-aggregation takes its roots the same way
    big = write(tmp_path, "big.json", {"coords": [[1, 1000], [2, 1]]})
    assert main(["gauge", "--vector", big, "--family", fam, "--nmax", "3", "--p", "200"]) == 0
    assert "levels 1..3: value in [" in capsys.readouterr().out


def test_cli_norm_prints_exact_values_past_float_range(tmp_path, capsys):
    fam = write(tmp_path, "f.json", {"sets": [[1, 2], [2, 3]]})
    # a norm of 10^330 has no float; its approximation comes from Decimal
    big = write(tmp_path, "big.json", {"coords": [[1, "1" + "0" * 330]]})
    for p in ([], ["--p", "1"], ["--p", "inf"]):
        assert main(["norm", "--family", fam, "--vector", big, *p]) == 0
        assert capsys.readouterr().out == f"1{'0' * 330} (= 1e+330)\n"
    # the exact 5000-th power 2 * 10^5000 has more digits than str() prints
    vec = write(tmp_path, "x.json", {"coords": [[1, 10], [3, 10]]})
    assert main(["norm", "--family", fam, "--vector", vec, "--p", "5000"]) == 0
    out = capsys.readouterr().out
    assert out.endswith(f" (exact 5000-th power 2{'0' * 5000})\n")
    assert float(out.split()[0]) == pytest.approx(10 * 2 ** (1 / 5000), rel=1e-11)
    assert format_rational(Fraction(-(10 ** 5000), 3)) == f"-1{'0' * 5000}/3"


def test_cli_norm_refuses_a_huge_integer_p_at_once(tmp_path):
    # without the cap r^p for p = 10^8 ran past 20 s, and 1e400 (the int
    # 10^400) can never finish; both are refused at once, p = 10^4 still runs
    vec = write(tmp_path, "x.json", {"coords": [[2, "1/3"], [4, "5/7"]]})
    fam = write(tmp_path, "f.json", {"sets": [[], [1], [2], [3], [4], [5], [2, 3], [3, 4], [3, 5], [4, 5]]})
    for p, code in (("100000000", 2), ("1e400", 2), ("10000", 0)):
        proc = subprocess.run(
            [sys.executable, "-m", "schreierkit.cli", "norm", "--family", fam, "--vector", vec, "--p", p],
            capture_output=True,
            text=True,
            timeout=20,
            cwd=Path(__file__).resolve().parents[1] / "src",
        )
        assert proc.returncode == code, proc.stderr
        assert ("exact power would pass" in proc.stderr) == (code == 2)


def test_cli_gauge_refuses_a_huge_integer_p_at_once(tmp_path):
    # without the cap the gauge's p-th powers for p = 10^8 ran past 8 s;
    # p = 1000 still runs
    vec = write(tmp_path, "x.json", {"coords": [[2, "1/3"], [4, "5/7"]]})
    fam = write(tmp_path, "f.json", {"sets": [[], [1], [2], [3], [4], [5], [2, 3], [3, 4], [3, 5], [4, 5]]})
    for p, code in (("100000000", 2), ("1000", 0)):
        proc = subprocess.run(
            [sys.executable, "-m", "schreierkit.cli", "gauge", "--family", fam, "--vector", vec,
             "--nmax", "1", "--p", p],
            capture_output=True,
            text=True,
            timeout=20,
            cwd=Path(__file__).resolve().parents[1] / "src",
        )
        assert proc.returncode == code, proc.stderr
        assert ("exact power would pass" in proc.stderr) == (code == 2)


def test_cli_gauge_refuses_a_level_past_the_cap_at_once(tmp_path):
    # without the cap --n 100000 ran 5 s and --n 10000000 past 100 s, and
    # --nmax drove one gauge per level; the cap itself still runs
    vec = write(tmp_path, "x.json", {"coords": [[2, "1/3"], [4, "5/7"]]})
    fam = write(tmp_path, "f.json", {"sets": [[], [1], [2], [3], [4], [5], [2, 3], [3, 4], [3, 5], [4, 5]]})
    cap = str(interpolation.MAX_LEVEL)
    past = str(interpolation.MAX_LEVEL + 1)
    for args, code in (
        (("--n", "10000000"), 2),
        (("--n", past), 2),
        (("--nmax", past, "--p", "2"), 2),
        (("--n", cap), 0),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "schreierkit.cli", "gauge", "--family", fam, "--vector", vec, *args],
            capture_output=True,
            text=True,
            timeout=20,
            cwd=Path(__file__).resolve().parents[1] / "src",
        )
        assert proc.returncode == code, proc.stderr
        assert ("past the cap" in proc.stderr) == (code == 2)


def test_cli_roots_powers_below_float_range(tmp_path, capsys):
    # (1/1000)^200 and the gauges' 1000-th powers are below the float range,
    # their roots are not
    vec = write(tmp_path, "x.json", {"coords": [[2, "1/1000"]]})
    fam = write(tmp_path, "f.json", {"sets": [[], [1], [2], [3], [4], [5], [2, 3], [3, 4], [3, 5], [4, 5]]})
    assert main(["norm", "--family", fam, "--vector", vec, "--p", "200"]) == 0
    assert float(capsys.readouterr().out.split()[0]) == pytest.approx(0.001, rel=1e-12)
    assert main(["gauge", "--vector", vec, "--family", fam, "--nmax", "1", "--p", "1000"]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    lo, hi = (float(v) for v in line.split("[")[1].rstrip("]").split(", "))
    assert 0 < lo <= hi


def test_cli_elements_past_64_bits(tmp_path, capsys):
    # labels are Python ints, so a set element of 10^30 is kept exactly
    big = 10**30
    fam = write(tmp_path, "f.json", {"sets": [[1, big], [2]]})
    assert main(["family", "--op", "closure", "--input", fam]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "hereditary": True, "sets": [[], [1], [1, big], [2], [big]]
    }
    vec = write(tmp_path, "x.json", {"coords": [[1, "3/2"], [big, 2]]})
    assert main(["norm", "--family", fam, "--vector", vec]) == 0
    assert capsys.readouterr().out == "7/2 (= 3.5)\n"
    assert main(["norm", "--family", fam, "--vector", vec, "--p", "2"]) == 0
    assert capsys.readouterr().out == "3.5 (exact 2-th power 49/4)\n"


def test_cli_family_ops(tmp_path, capsys):
    fpath = write(tmp_path, "f.json", {"sets": [[1, 2]], "hereditary": None})
    assert main(["family", "--op", "closure", "--input", fpath]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert sorted(obj["sets"]) == [[], [1], [1, 2], [2]]

    gpath = write(tmp_path, "g.json", {"sets": [[1]], "hereditary": None})
    f2 = write(tmp_path, "f2.json", {"sets": [[5]], "hereditary": None})
    assert main(["family", "--op", "oplus", "--input", f2, "--other", gpath]) == 0
    assert json.loads(capsys.readouterr().out)["sets"] == [[1, 5]]

    mpath = write(tmp_path, "m.json", {"pieces": [[1, 2], [3, 4]]})
    spath = write(tmp_path, "s134.json", {"sets": [[1, 3, 4]], "hereditary": None})
    assert main(["family", "--op", "glambda", "--input", spath,
                 "--measure", mpath, "--density", "3/5"]) == 0
    assert json.loads(capsys.readouterr().out)["sets"] == [[2]]
    assert main(["family", "--op", "gplus", "--input", spath, "--measure", mpath]) == 0
    assert json.loads(capsys.readouterr().out)["sets"] == [[1, 2]]

    assert main(["family", "--op", "trace", "--input", fpath]) == 2  # missing --set


#: the flags each `family` op requires; closure requires none
FAMILY_OP_FLAGS = {
    "trace": ("set",),
    "restrict": ("set",),
    "oplus": ("other",),
    "otimes": ("other", "window"),
    "glambda": ("measure", "density"),
    "gplus": ("measure",),
    "gdeltamu": ("measure", "density"),
}


@pytest.mark.parametrize(
    "op, missing", [(op, flag) for op, flags in FAMILY_OP_FLAGS.items() for flag in flags]
)
def test_cli_family_refuses_each_missing_flag(tmp_path, capsys, op, missing):
    values = {
        "set": "1,3",
        "other": write(tmp_path, "g.json", {"sets": [[1], [1, 4]]}),
        "window": "1..6",
        "measure": write(tmp_path, "m.json", {"pieces": [[1, 2], [3, 4]]}),
        "density": "1/2",
    }
    argv = ["family", "--op", op, "--input", write(tmp_path, "f.json", {"sets": [[1, 3]]})]
    for flag in FAMILY_OP_FLAGS[op]:
        if flag != missing:
            argv += [f"--{flag}", values[flag]]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: --{missing} is required for {op}\n"


def test_cli_family_trace_and_restrict_write_the_library_results(tmp_path, capsys):
    # the unflagged family's trace and restriction differ; S_1's are equal
    loose = Family([[1, 2], [2, 3], [3]])
    s1 = schreier_family(interval(1, 8))
    for f, m in ((loose, (2, 3)), (s1, (2, 3, 5, 8))):
        path = write(tmp_path, "f.json", family_to_obj(f))
        for op, call in (("trace", trace), ("restrict", restrict)):
            assert main(["family", "--op", op, "--input", path, "--set", ",".join(map(str, m))]) == 0
            assert capsys.readouterr().out == dump_json(family_to_obj(call(f, m)), None) + "\n"
    assert trace(loose, (2, 3)).members() == [(2,), (2, 3), (3,)]
    assert restrict(loose, (2, 3)).members() == [(2, 3), (3,)]


def test_cli_family_checks_its_flags_before_reading_a_file(tmp_path, capsys):
    fpath = write(tmp_path, "f.json", {"sets": [[1, 3]]})
    nope = str(tmp_path / "nope.json")
    assert main(["family", "--op", "glambda", "--input", fpath, "--measure", nope]) == 2
    assert capsys.readouterr().err == "error: --density is required for glambda\n"
    assert main(["family", "--op", "trace", "--input", nope]) == 2
    assert capsys.readouterr().err == "error: --set is required for trace\n"
    # with every flag given, the missing file is the error
    assert main(["family", "--op", "glambda", "--input", fpath, "--measure", nope,
                 "--density", "1/2"]) == 2
    assert "nope.json" in capsys.readouterr().err


def test_cli_schreier_queries(capsys):
    assert main(["schreier", "--alpha", "2", "--member", "2,3,4,5,6"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["schreier", "--alpha", "w", "--fundamental", "3"]) == 0
    assert capsys.readouterr().out.strip() == "3"
    assert main(["schreier", "--alpha", "1", "--barrier", "3,5,9"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["schreier", "--alpha", "0", "--check-inclusion", "1", "--window", "1..8"]) == 0
    assert "n=1" in capsys.readouterr().out
    assert main(["schreier", "--alpha", "bogus", "--member", "1"]) == 2


def test_cli_tfamily_build_and_sample(tmp_path, capsys):
    cfg = write(tmp_path, "cfg.json", {"lambda": "1/2", "window_max": 5, "seed": 11})
    assert main(["tfamily", "build", "--config", cfg]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["radices"] == {"4": "2", "5": "5"} or obj["radices"] == {"4": 2, "5": 5}
    assert obj["cardinalities"]["5"] == str(2**5 * 5**15)

    assert main(["tfamily", "sample", "--config", cfg, "--n", "4"]) == 0
    first = capsys.readouterr().out
    assert main(["tfamily", "sample", "--config", cfg, "--n", "4"]) == 0
    assert capsys.readouterr().out == first

    assert main(["tfamily", "sample", "--config", cfg]) == 2  # missing --n


def test_cli_tfamily_build_prints_cardinalities_past_int_str_limit(capsys):
    from schreierkit.tfamily import TParams, index_cardinality

    assert main(["tfamily", "build", "--lam", "999/1000", "--window-max", "12"]) == 0
    text = json.loads(capsys.readouterr().out)["cardinalities"]["12"]
    want = index_cardinality(12, TParams.build(Fraction(999, 1000), 12))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert int(text) == want
    finally:
        sys.set_int_max_str_digits(limit)


def test_cli_tfamily_verify_negative_control(tmp_path, capsys):
    bad = write(
        tmp_path,
        "bad.json",
        {"lambda": "1/2", "window_max": 7, "seed": 3,
         "radices": {"4": 3, "5": 5, "6": 10, "7": 15}},
    )
    out = str(tmp_path / "bad.csv")
    assert main(["tfamily", "verify", "--config", bad, "--output", out]) == 1
    text = Path(out).read_text()
    assert "radix_minimality" in text and "fail" in text and "not minimal" in text


def test_cli_tfamily_flags_override_the_config(tmp_path, capsys):
    cfg = write(tmp_path, "cfg.json", {"lambda": "1/3", "window_max": 5})
    runs = {
        (): ("1/3", 5),
        ("--lam", "1/2"): ("1/2", 5),
        ("--window-max", "6"): ("1/3", 6),
        ("--lambda", "1/2", "--window-max", "6"): ("1/2", 6),
    }
    for flags, (lam, window_max) in runs.items():
        assert main(["tfamily", "build", "--config", cfg, *flags]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert (obj["lambda"], obj["window_max"]) == (lam, window_max), flags
        assert sorted(obj["radices"], key=int) == [str(m) for m in range(4, window_max + 1)]
    # without a config the flags stand alone, over the defaults 1/2 and 7
    assert main(["tfamily", "build", "--window-max", "5"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert (obj["lambda"], obj["window_max"]) == ("1/2", 5)


def test_cli_tfamily_seed_precedence(tmp_path, capsys):
    from schreierkit.tfamily import TParams, sample_point

    params = TParams.build(Fraction(1, 2), 7)
    seeded = write(tmp_path, "seeded.json", {"seed": 11})
    runs = [
        (["--config", seeded], 11),
        (["--config", seeded, "--seed", "5"], 5),
        (["--seed", "5", "--config", seeded], 5),
        (["--config", write(tmp_path, "plain.json", {})], 12345),
        ([], 12345),
    ]
    for flags, seed in runs:
        assert main(["tfamily", "sample", "--n", "4", *flags]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["seed"] == seed, flags
        want = sample_point(4, params, seed).digits
        assert {tuple(k): v for k, v in obj["digits"]} == want, flags
    # a global --seed before the subcommand wins over the config too
    assert main(["--seed", "6", "tfamily", "sample", "--n", "4", "--config", seeded]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 6


@pytest.mark.parametrize("flags", [["--window-max", "7"], ["--lam", "1/2"]])
def test_cli_tfamily_flags_keep_the_config_radices(tmp_path, capsys, flags):
    # the negative control's corrupted radix table survives a flag
    bad = write(
        tmp_path,
        "bad.json",
        {"lambda": "1/2", "window_max": 7, "seed": 3,
         "radices": {"4": 3, "5": 5, "6": 10, "7": 15}},
    )
    out = str(tmp_path / "bad.csv")
    assert main(["tfamily", "verify", "--config", bad, "--output", out, *flags]) == 1
    text = Path(out).read_text()
    assert "radix_minimality" in text and "not minimal" in text
    assert "FAIL tfamily.radix_minimality" in capsys.readouterr().err


def test_cli_tfamily_window_past_the_config_radices_is_refused(tmp_path, capsys):
    cfg = write(tmp_path, "cfg.json", {"radices": {"4": 2, "5": 5, "6": 10, "7": 15}})
    assert main(["tfamily", "build", "--config", cfg, "--window-max", "9"]) == 2
    assert "m = 8" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["build", "sample", "verify", "report"])
def test_cli_tfamily_short_radix_table_is_refused_in_every_mode(tmp_path, capsys, mode):
    # sample never reads r_8, but the table cannot build the family's window
    cfg = write(tmp_path, "cfg.json", {"radices": {"4": 2, "5": 5, "6": 10, "7": 15}})
    assert main(["tfamily", mode, "--config", cfg, "--window-max", "9", "--n", "5"]) == 2
    assert "no radix for m = 8" in capsys.readouterr().err


def test_cli_tfamily_report_mode(tmp_path):
    cfg = write(tmp_path, "cfg.json", {"lambda": "1/2", "window_max": 6, "seed": 2})
    out = str(tmp_path / "report.json")
    assert main(["tfamily", "report", "--config", cfg, "--output", out]) == 0
    obj = json.loads(Path(out).read_text())
    assert obj["parameters"]["radices"] == {"4": 2, "5": 5, "6": 10}
    assert all(c["verdict"] != "fail" for c in obj["cases"])
    # the constrained-piece demo needs window 7; below that it must skip, not fail
    skipped = [c for c in obj["cases"] if c["verdict"] == "skipped"]
    assert len(skipped) == 1 and "window" in skipped[0]["witness"]


@pytest.mark.parametrize("window_max", [1, 2, 3])
@pytest.mark.parametrize("mode", ["verify", "report"])
def test_cli_tfamily_below_window_4_skips_transversals(mode, window_max, capsys):
    assert main(["tfamily", mode, "--window-max", str(window_max)]) == 0
    captured = capsys.readouterr()
    assert "SKIP tfamily.transversal_c0" in captured.err
    if mode == "report":
        verdicts = {c["property_id"]: c["verdict"] for c in json.loads(captured.out)["cases"]}
        assert verdicts["tfamily.transversal_c0"] == "skipped"
        assert "fail" not in verdicts.values()


def test_cli_family_otimes_and_gdeltamu(tmp_path, capsys):
    f = write(tmp_path, "f.json", {"sets": [[1, 2], [4]], "hereditary": None})
    g = write(tmp_path, "g.json", {"sets": [[1], [1, 4]], "hereditary": None})
    assert main(["family", "--op", "otimes", "--input", f, "--other", g,
                 "--window", "1..6"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert [1, 2] in obj["sets"] and [1, 2, 4] in obj["sets"]

    m = write(tmp_path, "m.json", {"pieces": [[1, 2], [3, 4]]})
    s = write(tmp_path, "s.json", {"sets": [[1, 3]], "hereditary": None})
    assert main(["family", "--op", "gdeltamu", "--input", s, "--measure", m,
                 "--density", "1/2"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert [1, 2] in obj["sets"] and [] in obj["sets"]


def test_cli_family_otimes_reads_a_long_window_only_where_the_family_is(tmp_path, capsys):
    # a span of 10^15 points cannot be allocated and one of 10^20 has no len(),
    # but otimes only keeps the blocks inside the window
    f = write(tmp_path, "f.json", {"sets": [[1], [2], [1, 2], [3]], "hereditary": None})
    g = write(tmp_path, "g.json", {"sets": [[], [1], [2], [3], [1, 3]], "hereditary": None})
    outs = []
    for hi in (8, 10**15, 10**20):
        assert main(["family", "--op", "otimes", "--input", f, "--other", g,
                     "--window", f"1..{hi}"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[1] == outs[0] and outs[2] == outs[0]
    assert json.loads(outs[0])["sets"] == [[], [1], [1, 2], [1, 2, 3], [1, 3], [2], [3]]


def test_cli_schreier_error_paths(capsys):
    assert main(["schreier", "--alpha", "1", "--barrier", ""]) == 2
    assert main(["schreier", "--alpha", "1"]) == 2  # nothing to do without a window
    assert main(["schreier", "--alpha", "w", "--fundamental", "-1"]) == 2
    # an empty window is malformed input, not a failed inclusion
    assert main(["schreier", "--alpha", "1", "--check-inclusion", "2", "--window", "1..0"]) == 2
    assert "empty" in capsys.readouterr().err


@pytest.mark.parametrize("hi", [10**15, 10**20])
@pytest.mark.parametrize("mode", [[], ["--check-inclusion", "2"]])
def test_cli_schreier_refuses_a_long_window_before_building_it(mode, hi, capsys):
    # a window of 10^15 points cannot be allocated, and one of 10^20 has no
    # len(); the cap must refuse both first
    assert main(["schreier", "--alpha", "1", *mode, "--window", f"1..{hi}"]) == 2
    assert f"window of size {hi} exceeds the limit 24" in capsys.readouterr().err


def test_cli_schreier_window_refusal_stays_small(capsys):
    import tracemalloc

    tracemalloc.start()
    try:
        assert main(["schreier", "--alpha", "1", "--window", "1..1000000"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "exceeds the limit" in capsys.readouterr().err
    assert peak < 1 << 20


def test_cli_internal_key_error_is_not_bad_input(monkeypatch):
    # a KeyError inside a command is a bug: it surfaces as a traceback (exit 1), not exit 2
    def broken(args):
        return {}["missing"]

    monkeypatch.setattr(cli, "cmd_schreier", broken)
    with pytest.raises(KeyError, match="missing"):
        main(["schreier", "--alpha", "1", "--member", "3,4,5"])


def test_cli_gauge(tmp_path, capsys):
    fpath = write(tmp_path, "f.json", {"sets": [[1]], "hereditary": None})
    vec = write(tmp_path, "u1.json", {"coords": [[1, "1"]]})
    assert main(["gauge", "--n", "3", "--family", fpath, "--vector", vec]) == 0
    out = capsys.readouterr().out
    assert "gauge level 3" in out

    assert main(["gauge", "--nmax", "4", "--p", "2",
                 "--family", fpath, "--vector", vec]) == 0
    out = capsys.readouterr().out
    assert "levels 1..4" in out and "tail bound" in out


def test_cli_verify_json_is_deterministic_too(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for path in (a, b):
        assert main(["verify", "--suite", "interp", "--seed", "9",
                     "--format", "json", "--output", path]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_cli_verify_deterministic_csv(tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["verify", "--suite", "setfam", "--seed", "5", "--output", a]) == 0
    assert main(["verify", "--suite", "setfam", "--seed", "5", "--output", b]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()
    lines = Path(a).read_text().splitlines()
    assert lines[0].startswith("# schreierkit-verify-v1; seed=5")
    assert lines[1] == "suite,property_id,instance,verdict,witness,exact_value"


def test_cli_verify_json_format(tmp_path):
    out = str(tmp_path / "r.json")
    assert main(["verify", "--suite", "schreier", "--format", "json", "--output", out]) == 0
    obj = json.loads(Path(out).read_text())
    assert obj["seed"] == 12345
    assert all(c["verdict"] == "pass" for c in obj["cases"])


def test_cli_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "schreierkit.cli", "schreier", "--alpha", "1", "--member", "3,4,5"],
        capture_output=True,
        text=True,
        cwd=Path(__file__).resolve().parents[1] / "src",  # `-m` imports from the working directory
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "true"

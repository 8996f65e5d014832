import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from flagcalc.cli import (
    CENSUS_MAX_COST,
    CENSUS_MAX_LIMIT,
    RULED_MAX_DEGREE,
    RULED_MAX_SAMPLES,
    SURFACE_MAX_DEGREE,
    SYSTEM_MAX_CELLS,
    main,
)
from flagcalc.invariants import h0_flag

ROOT = Path(__file__).resolve().parent.parent

VERONESE_FORMS = {"forms": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_bound(capsys):
    code, doc = run(capsys, "bound", "--a", "3", "--b", "3")
    assert code == 0
    assert doc["conic_bound"] == "1008/25"
    assert doc["conic_bound_floor"] == 40
    assert doc["ruling_curve_bound"] == "189/4"
    assert doc["ruling_curve_bound_floor"] == 47


def test_bound_precondition_exit(capsys):
    code, doc = run(capsys, "bound", "--a", "2", "--b", "3")
    assert code == 3
    assert doc["code"] == "precondition"


def test_usage_exit(capsys):
    code, doc = run(capsys, "chow", "--classes", "H1,H2")
    assert code == 2
    assert doc["code"] == "usage"


def test_unknown_flag_usage(capsys):
    code, doc = run(capsys, "bound", "--a", "3", "--zzz", "1")
    assert code == 2


COMMAND_CHOICES = (
    "'bound', 'chern', 'h0', 'chow', 'mk-surface', 'check-conic', 'mk-ruled', 'census', "
    "'dim-report'"
)


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["nope"], f"argument command: invalid choice: 'nope' (choose from {COMMAND_CHOICES})"),
    (["bound", "--a"], "argument --a: expected one argument"),
    (["--out"], "argument --out: expected one argument"),
    (["bound", "--a", "--b", "3"], "argument --a: expected one argument"),
    (["bound", "--a", "x", "--b", "3"], "argument --a: invalid int value: 'x'"),
    (["bound", "--a=", "--b", "3"], "argument --a: invalid int value: ''"),
    (["h0", "--a", "1", "--b", "1", "--side", "Z"],
     "argument --side: invalid choice: 'Z' (choose from 'flag', 'X', 'Y')"),
    (["bound", "--zzz", "1"], "the following arguments are required: --a, --b"),
    (["bound", "--a", "3", "--zzz", "1"], "the following arguments are required: --b"),
    (["h0", "--a", "1", "--b", "1", "--out", "f"], "unrecognized arguments: --out f"),
    (["h0", "--a", "1", "--b", "1", "extra"], "unrecognized arguments: extra"),
    (["--zzz", "h0", "--a", "1", "--b", "1"], "unrecognized arguments: --zzz"),
    (["dim-report", "--a", "1", "--b", "1", "--x", "0", "--tri", "1"],
     "unrecognized arguments: --tri 1"),
    (["dim-report", "--a", "1", "--b", "1", "--x", "-1"], "--x must be nonnegative"),
])
def test_usage_errors_keep_their_wording(capsys, argv, message):
    code, doc = run(capsys, *argv)
    assert (code, doc) == (2, {"code": "usage", "message": message})


def test_accepted_syntax_and_defaults(capsys):
    from flagcalc.cli import parse_args

    for argv in (["h0", "--a=2", "--b", "2"], ["h0", "--a", "1", "--a", "2", "--b", "2"]):
        code, doc = run(capsys, *argv)
        assert (code, doc["h0"]) == (0, 27), argv
    assert vars(parse_args(["--out=o.json", "bound", "--a", "3", "--b=-1"])) == {
        "out": "o.json", "command": "bound", "a": 3, "b": -1}
    defaults = {
        "chern --a 3 --b 3": {"a": 3, "b": 3},
        "h0 --a 1 --b 1": {"a": 1, "b": 1, "side": "flag"},
        "chow --classes H1,H2,H1": {"classes": "H1,H2,H1"},
        "mk-surface --a 1 --b 1": {"a": 1, "b": 1, "conics": None, "random": None, "seed": 0},
        "check-conic --surface s --conic c": {"surface": "s", "conic": "c"},
        "mk-ruled --forms f": {"forms": "f", "samples": 5},
        "census --surface s --prime 5": {"surface": "s", "prime": 5, "limit": 24},
        "dim-report --a 1 --b 1 --x 0": {"a": 1, "b": 1, "x": 0, "trials": 5, "seed": 0},
    }
    for line, options in defaults.items():
        argv = line.split()
        assert vars(parse_args(argv)) == {"out": None, "command": argv[0], **options}, line


def test_help_comes_from_the_option_table(capsys):
    from flagcalc.cli import COMMANDS, REQUIRED

    for flag in ("--help", "-h"):
        assert main([flag]) == 0
        text = capsys.readouterr().out
        assert "--out" in text
        for command, (_, about, _) in COMMANDS.items():
            assert f"  {command}" in text and about in text, command
    for command, (_, about, options) in COMMANDS.items():
        assert main([command, "--help"]) == 0
        text = capsys.readouterr().out
        assert about in text
        for name, (_, default, _) in options.items():
            line = next(row for row in text.splitlines() if row.startswith(f"  --{name} "))
            if default is REQUIRED:
                assert "required" in line, (command, name)
            elif default is not None:
                assert f"default {default}" in line, (command, name)


def test_chow(capsys):
    code, doc = run(capsys, "chow", "--classes", "H1,H2,H1")
    assert code == 0
    assert doc["value"] == 1


def test_chern(capsys):
    code, doc = run(capsys, "chern", "--a", "3", "--b", "3")
    assert code == 0
    assert doc["c1_squared"] == 18
    assert doc["c2"] == 90
    assert doc["euler_characteristic"] == "9"


def test_chern_refuses_bidegrees_without_a_surface(capsys):
    for a, b in ((-2, 1), (0, 0), (1, -1)):
        code, doc = run(capsys, "chern", "--a", str(a), "--b", str(b))
        assert code == 3, (a, b)
        assert doc["code"] == "precondition"
    # (1, 0) and (0, 1) surfaces are the Hirzebruch surface F1
    for a, b in ((1, 0), (0, 1)):
        code, doc = run(capsys, "chern", "--a", str(a), "--b", str(b))
        assert code == 0, (a, b)
        assert (doc["c1_squared"], doc["c2"]) == (8, 4)


def test_h0(capsys):
    assert run(capsys, "h0", "--a", "2", "--b", "2")[1]["h0"] == 27
    assert run(capsys, "h0", "--a", "2", "--b", "3", "--side", "X")[1]["h0"] == 18


def test_mk_surface_and_determinism(capsys):
    args = ("mk-surface", "--a", "1", "--b", "1", "--random", "1", "--seed", "7")
    code, doc = run(capsys, *args)
    assert code == 0
    assert doc["dimension"] == 5
    h1 = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    code, doc2 = run(capsys, *args)
    h2 = hashlib.sha256(json.dumps(doc2, sort_keys=True).encode()).hexdigest()
    assert h1 == h2


def test_mk_surface_conflicting_inputs(capsys):
    code, doc = run(capsys, "mk-surface", "--a", "1", "--b", "1")
    assert code == 2


def test_mk_surface_empty_prescription(capsys):
    code, doc = run(capsys, "mk-surface", "--a", "1", "--b", "1", "--random", "0", "--seed", "3")
    assert code == 0
    assert doc["dimension"] == 8
    assert doc["prescribed"] == []


@pytest.mark.parametrize("source", ["--random", "--conics"])
def test_mk_surface_negative_bidegree_precondition_exit(capsys, tmp_path, source):
    from flagcalc.sampling import SplitMix64, random_smooth_conics
    from flagcalc.serialize import conic_to_json

    value = "1"
    if source == "--conics":
        value = str(tmp_path / "conics.json")
        conics = random_smooth_conics(SplitMix64(5), 1, height=10)
        Path(value).write_text(json.dumps([conic_to_json(c) for c in conics]))
    code, doc = run(capsys, "mk-surface", "--a", "-1", "--b", "2", source, value)
    assert code == 3
    assert doc == {"code": "precondition", "message": "h0 requires nonnegative bidegree"}


def test_mk_ruled_check_conic_census_pipeline(capsys, tmp_path):
    forms_path = tmp_path / "forms.json"
    forms_path.write_text(json.dumps(VERONESE_FORMS))
    surf_path = tmp_path / "surface.json"

    code = main(["--out", str(surf_path), "mk-ruled", "--forms", str(forms_path), "--samples", "3"])
    capsys.readouterr()
    assert code == 0
    ruled_doc = json.loads(surf_path.read_text())
    assert ruled_doc["bidegree"] == [2, 2]
    assert ruled_doc["j_invariant"] is True
    assert ruled_doc["certificate"]["passed"] is True
    assert ruled_doc["irreducible"] == "unverified"

    # check the parameter-1 fiber is contained
    surface_only = tmp_path / "surf_only.json"
    surface_only.write_text(json.dumps(ruled_doc["surface"]))
    conic_path = tmp_path / "conic.json"
    conic_path.write_text(json.dumps(ruled_doc["samples"][1]))
    code, doc = run(capsys, "check-conic", "--surface", str(surface_only), "--conic", str(conic_path))
    assert code == 0
    assert doc == {"contained": True, "twistor_fiber": True, "smooth_conic": True}

    code, doc = run(capsys, "census", "--surface", str(surface_only), "--prime", "5")
    assert code == 0
    assert doc["count"] >= 6
    assert doc["max_disjoint"]["exact"] is True


def test_check_conic_not_contained(capsys, tmp_path):
    surf = tmp_path / "s.json"
    surf.write_text(
        json.dumps(
            {
                "bidegree": [1, 1],
                "terms": [{"p": [0, 1, 0], "l": [0, 1, 0], "c": {"re": "1/1", "im": "0/1"}}],
            }
        )
    )
    conic = tmp_path / "c.json"
    conic.write_text(json.dumps({"q": ["1", "0", "0"], "m": ["1", "0", "0"]}))
    code, doc = run(capsys, "check-conic", "--surface", str(surf), "--conic", str(conic))
    assert code == 0
    assert doc["contained"] is False
    assert doc["restriction_degree"] == 2


def _write(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def test_check_conic_refuses_a_repeated_monomial(capsys, tmp_path):
    # were the last entry to win, the second p0 l1 term would make the
    # surface zero and the conic "contained"
    term = {"p": [1, 0, 0], "l": [0, 1, 0], "c": "1"}
    conic = _write(tmp_path / "c.json", {"q": [1, 0, 0], "m": [1, 1, 1]})
    once = _write(tmp_path / "once.json", {"bidegree": [1, 1], "terms": [term]})
    code, doc = run(capsys, "check-conic", "--surface", once, "--conic", conic)
    assert (code, doc["contained"]) == (0, False)
    twice = _write(tmp_path / "twice.json", {"bidegree": [1, 1], "terms": [term, {**term, "c": 0}]})
    code, doc = run(capsys, "check-conic", "--surface", twice, "--conic", conic)
    assert (code, doc) == (2, {"code": "usage",
                               "message": "the monomial p [1, 0, 0] l [0, 1, 0] is repeated"})


INCIDENCE_TERMS = [{"p": e, "l": e, "c": 1} for e in ([1, 0, 0], [0, 1, 0], [0, 0, 1])]


@pytest.mark.parametrize("reader, key, text", [
    ("surface", "bidegree", '{"bidegree": [1, 1], "terms": [], "bidegree": [2, 2]}'),
    ("conic", "q", '{"q": [1, 0, 0], "m": [0, 1, 0], "q": [1, 1, 1]}'),
    ("conics", "m", '[{"q": [1, 0, 0], "m": [1, 1, 1], "m": [0, 1, 0]}]'),
    ("forms", "forms", '{"forms": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "forms": [[1, 0], [0, 1], [1, 1]]}'),
], ids=["surface", "conic", "conics", "forms"])
def test_repeated_json_key_usage_exit(capsys, tmp_path, reader, key, text):
    # json keeps the last value of a repeated key; each reader refuses it
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    surface = _write(tmp_path / "s.json", {"bidegree": [1, 1], "terms": INCIDENCE_TERMS})
    argv = {
        "surface": ("check-conic", "--surface", str(bad), "--conic", str(bad)),
        "conic": ("check-conic", "--surface", surface, "--conic", str(bad)),
        "conics": ("mk-surface", "--a", "1", "--b", "1", "--conics", str(bad)),
        "forms": ("mk-ruled", "--forms", str(bad)),
    }[reader]
    code, doc = run(capsys, *argv)
    assert (code, doc) == (2, {"code": "usage", "message": f'{bad}: repeated key "{key}"'})


@pytest.mark.parametrize("argv", [
    ("check-conic", "--surface", "{bad}", "--conic", "{bad}"),
    ("mk-surface", "--a", "1", "--b", "1", "--conics", "{bad}"),
    ("mk-ruled", "--forms", "{bad}"),
], ids=["check-conic", "mk-surface", "mk-ruled"])
def test_json_number_over_the_digit_limit_usage_exit(capsys, tmp_path, argv):
    # json.load raises a bare ValueError for such a number; it is malformed input
    bad = tmp_path / "bad.json"
    bad.write_text('{"forms": [[1, 0, 0], [0, 1, 0], [0, 0, ' + "9" * 5000 + "]]}")
    code, doc = run(capsys, *(a.format(bad=bad) for a in argv))
    assert code == 2 and doc["code"] == "usage"
    assert doc["message"].startswith(f"{bad}: a JSON number has more than ")


def test_zero_ruling_is_a_precondition_exit(capsys, tmp_path):
    forms = _write(tmp_path / "zero.json", {"forms": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]})
    code, doc = run(capsys, "mk-ruled", "--forms", forms)
    assert (code, doc["code"]) == (3, "precondition")


@pytest.mark.parametrize("surface", [
    {"bidegree": [1, 1], "terms": INCIDENCE_TERMS},  # p.l vanishes on the whole flag
    {"bidegree": [2, 1], "terms": [  # p0 (p.l)
        {"p": p, "l": l, "c": 1} for p, l in (([2, 0, 0], [1, 0, 0]), ([1, 1, 0], [0, 1, 0]),
                                              ([1, 0, 1], [0, 0, 1]))]},
    {"bidegree": [1, 1], "terms": []},
    {"bidegree": [0, 0], "terms": [{"p": [0, 0, 0], "l": [0, 0, 0], "c": 1}]},
])
def test_a_form_that_cuts_out_no_surface_is_refused(capsys, tmp_path, surface):
    surf = _write(tmp_path / "s.json", surface)
    conic = _write(tmp_path / "c.json", {"q": [1, 0, 0], "m": [1, 1, 1]})
    refusal = {"code": "precondition", "message": "the form cuts out no surface of the flag"}
    assert run(capsys, "check-conic", "--surface", surf, "--conic", conic) == (3, refusal)
    assert run(capsys, "census", "--surface", surf, "--prime", "7") == (3, refusal)


def test_census_refuses_a_surface_that_vanishes_mod_p(capsys, tmp_path):
    # p.l + 7 p0 l1 cuts out the surface {p0 l1 = 0} over Q and F_5, but
    # the whole flag over F_7, where the census would list every conic
    terms = INCIDENCE_TERMS + [{"p": [1, 0, 0], "l": [0, 1, 0], "c": 7}]
    surf = _write(tmp_path / "s.json", {"bidegree": [1, 1], "terms": terms})
    refusal = {"code": "precondition", "message": "the surface reduces to zero mod 7"}
    assert run(capsys, "census", "--surface", surf, "--prime", "7") == (3, refusal)
    # over F_5, {p0 = 0} holds the p^2 conics with m = (1, 0, 0) and
    # {l1 = 0} the p^2 with q = (0, 1, 0)
    code, doc = run(capsys, "census", "--surface", surf, "--prime", "5")
    assert code == 0 and doc["count"] == 2 * 5 * 5


@pytest.mark.parametrize("name, doc, message", [
    ("conic", {"q": [1, 0], "m": [1, 1, 1]}, "a projective point is a list of 3 scalars"),
    ("conic", {"q": [1, 0, 0]}, "a conic is {'q': point, 'm': point}"),
    ("forms", {"forms": [[1, 0, 0], [], [0, 0, 1]]}, "a binary form is a nonempty list of scalars"),
    ("forms", {"degree": 5, "forms": VERONESE_FORMS["forms"]},
     "the declared degree 5 is not the forms' degree"),
])
def test_malformed_inputs_usage_exit(capsys, tmp_path, name, doc, message):
    path = _write(tmp_path / f"{name}.json", doc)
    if name == "conic":
        surf = _write(tmp_path / "s.json", {"bidegree": [1, 1], "terms": INCIDENCE_TERMS[:1]})
        argv = ("check-conic", "--surface", surf, "--conic", path)
    else:
        argv = ("mk-ruled", "--forms", path)
    assert run(capsys, *argv) == (2, {"code": "usage", "message": message})


def test_mk_ruled_takes_no_seed(capsys):
    assert main(["mk-ruled", "--help"]) == 0
    assert "--seed" not in capsys.readouterr().out
    code, doc = run(capsys, "mk-ruled", "--forms", "f.json", "--seed", "1")
    assert (code, doc) == (2, {"code": "usage", "message": "unrecognized arguments: --seed 1"})


def test_census_bad_prime(capsys, tmp_path):
    surf = tmp_path / "s.json"
    surf.write_text(
        json.dumps(
            {
                "bidegree": [1, 1],
                "terms": [{"p": [1, 0, 0], "l": [1, 0, 0], "c": "1"}],
            }
        )
    )
    code, doc = run(capsys, "census", "--surface", str(surf), "--prime", "9")
    assert code == 3


@pytest.mark.parametrize("prime", [1000003, 2305843009213693951])
def test_census_refuses_a_large_prime_before_work(capsys, prime):
    # the cost estimate is refused before the primality test, whose trial
    # division alone grows as sqrt(p), and before the surface is read
    t0 = time.perf_counter()
    code, doc = run(capsys, "census", "--surface", "missing.json", "--prime", str(prime))
    assert time.perf_counter() - t0 < 1.0
    assert code == 3
    cost = (prime * prime + prime + 1) * 3 * (prime + 1)
    assert doc["message"] == (f"a census at p = {prime} costs about {cost} evaluations, "
                              f"over the limit {CENSUS_MAX_COST}")


def test_census_refuses_a_search_limit_over_the_cap(capsys):
    # the exact max-disjoint search grows about 4x per 8 members, so a
    # larger limit is refused before the surface is read
    t0 = time.perf_counter()
    code, doc = run(capsys, "census", "--surface", "missing.json", "--prime", "5", "--limit", "65")
    assert time.perf_counter() - t0 < 1.0
    assert code == 3
    assert doc == {"code": "precondition", "message": "--limit 65 is over the cap 64"}
    assert CENSUS_MAX_LIMIT == 64  # the limit every catalog census request passes


def test_census_cost_limit_admits_every_prime_up_to_1009():
    assert (1009 * 1009 + 1009 + 1) * 3 * 1010 <= CENSUS_MAX_COST


def _refused(capsys, *argv):
    t0 = time.perf_counter()
    code, doc = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert (code, doc["code"]) == (3, "precondition")
    return doc["message"]


def test_mk_ruled_refuses_samples_over_the_cap(capsys):
    # the count is refused before the forms are read
    message = _refused(capsys, "mk-ruled", "--forms", "missing.json", "--samples", "10001")
    assert message == "--samples 10001 takes about 1 s (0.1 ms per fiber), over the cap 10000 samples"


def test_output_number_over_the_digit_limit_is_a_precondition_exit(capsys, tmp_path):
    # the surface of a ruling with a 2,200-digit coefficient has a 4,400-digit
    # one, over the default limit of 4,300 digits; 1,200 digits still print
    forms = {"forms": [["1" * 2200, 0, 1], [0, 1, 0], [0, 0, 1]]}
    message = _refused(capsys, "mk-ruled", "--forms", _write(tmp_path / "big.json", forms))
    assert message == f"an output number has more than {sys.get_int_max_str_digits()} digits"
    forms["forms"][0][0] = "1" * 1200
    code, _ = run(capsys, "mk-ruled", "--forms", _write(tmp_path / "ok.json", forms))
    assert code == 0


def test_mk_ruled_refuses_a_degree_over_the_cap(capsys, tmp_path):
    # refused after the forms are read and before the resultant
    for a, cost in ((11, 125), (2000, 50 * 2.5 ** 89)):
        forms = tmp_path / f"d{a}.json"
        forms.write_text(json.dumps({"forms": [[1] + [0] * a, [0] * a + [1], [1] * (a + 1)]}))
        message = _refused(capsys, "mk-ruled", "--forms", str(forms))
        assert message == (f"a degree-{a} ruling takes about {cost:.3g} s to build (2.5x per "
                           f"degree), over the cap of degree {RULED_MAX_DEGREE}")


def test_ruled_caps_admit_the_catalog_and_the_planned_rulings():
    assert RULED_MAX_SAMPLES >= 49  # the catalog's largest --samples
    assert RULED_MAX_DEGREE >= 6  # degree 5 and 6 rulings are planned fixtures


def test_interpolation_refuses_a_system_over_the_cell_limit(capsys, tmp_path):
    # max(x(a+b+1) condition rows, h0(a,b) kernel vectors) of h0(a,b) cells,
    # refused before any conic is sampled; a --conics file is counted right
    # after it is read.  With no conic there is no row but the whole basis.
    conics = tmp_path / "conics.json"
    conics.write_text(json.dumps([{"q": [1, 0, 0], "m": [1, 1, 0]}] * 120))
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    for argv, trials, rows, cols in (
        (("dim-report", "--a", "9", "--b", "9", "--x", "60", "--trials", "3"), 3, 1140, 1000),
        (("mk-surface", "--a", "10", "--b", "10", "--random", "120"), 1, 2520, 1331),
        (("mk-surface", "--a", "10", "--b", "10", "--conics", str(conics)), 1, 2520, 1331),
        (("dim-report", "--a", "300", "--b", "300", "--x", "0", "--trials", "1"), 1, 0, 27270901),
        (("mk-surface", "--a", "40", "--b", "40", "--random", "0"), 1, 0, 68921),
        (("mk-surface", "--a", "40", "--b", "40", "--conics", str(empty)), 1, 0, 68921),
    ):
        message = _refused(capsys, *argv)
        cells = trials * max(rows, cols) * cols
        assert message == (f"the system costs {cells} cells ({trials} x max({rows} rows, "
                           f"{cols} columns) x {cols} columns), over the limit {SYSTEM_MAX_CELLS}")


def test_cell_limit_admits_the_paper_sized_systems():
    assert 43 * 17 * h0_flag(8, 8) == 731 * 729 <= SYSTEM_MAX_CELLS  # dim-report (8,8), x = 43
    assert 49 * 9 * h0_flag(4, 4) == 441 * 125 <= SYSTEM_MAX_CELLS  # the 49-fiber (4,4) probe


def _one_term_surface(path, a, b):
    path.write_text(json.dumps({"bidegree": [a, b], "terms": [
        {"p": [a, 0, 0], "l": [0, b - b // 2, b // 2], "c": "1"}]}))
    return str(path)


def test_surface_readers_refuse_a_degree_over_the_cap(capsys, tmp_path):
    # read right after the surface is parsed, before the conic is read or
    # the surface reduced; a census at p = 3 costs up to 12 C(a+b+2, 2)^2
    # products, about 2 s at the cap
    conic = tmp_path / "conic.json"
    conic.write_text(json.dumps({"q": ["3", "-5", "7"], "m": ["2", "1", "-3"]}))
    for a, b, cost in ((4000, 0, 2 * (4000 / 64) ** 4), (0, 65, 2 * (65 / 64) ** 4),
                       (10**7, 10**7, 2 * (10**6 / 64) ** 4)):
        surface = _one_term_surface(tmp_path / "s.json", a, b)
        message = (f"a surface with a + b = {a + b} costs up to about {cost:.3g} s "
                   f"(census at p = 3), over the cap a + b <= {SURFACE_MAX_DEGREE}")
        argv = ("check-conic", "--surface", surface, "--conic", "missing.json")
        assert _refused(capsys, *argv) == message
        assert _refused(capsys, "census", "--surface", surface, "--prime", "3") == message
    for a, b in ((64, 0), (0, 64), (32, 32)):
        surface = _one_term_surface(tmp_path / "s.json", a, b)
        code, doc = run(capsys, "check-conic", "--surface", surface, "--conic", str(conic))
        assert code == 0 and doc["contained"] is False


def test_surface_cap_admits_what_mk_surface_and_mk_ruled_emit():
    # mk-ruled emits (a, a) up to its degree cap; a system costs at least
    # h0(a,b)^2 cells, so mk-surface emits a + b = 57 at most, at (57, 0)
    assert 2 * RULED_MAX_DEGREE <= SURFACE_MAX_DEGREE
    widest = max((a + b, a) for a in range(80) for b in range(80)
                 if h0_flag(a, b) ** 2 <= SYSTEM_MAX_CELLS)
    assert widest == (57, 57) and widest[0] <= SURFACE_MAX_DEGREE


def test_mk_ruled_and_interpolation_refusals_exit_quickly_in_a_fresh_interpreter(tmp_path):
    forms = tmp_path / "d11.json"
    forms.write_text(json.dumps({"forms": [[1] + [0] * 11, [0] * 11 + [1], [1] * 12]}))
    surface = _one_term_surface(tmp_path / "a4000.json", 4000, 0)
    conic = tmp_path / "conic.json"
    conic.write_text(json.dumps({"q": ["3", "-5", "7"], "m": ["2", "1", "-3"]}))
    for argv in (
        ("mk-ruled", "--forms", "missing.json", "--samples", "10001"),
        ("mk-ruled", "--forms", str(forms)),
        ("dim-report", "--a", "9", "--b", "9", "--x", "60", "--trials", "3"),
        ("mk-surface", "--a", "10", "--b", "10", "--random", "120"),
        ("dim-report", "--a", "300", "--b", "300", "--x", "0"),
        ("check-conic", "--surface", surface, "--conic", str(conic)),
        ("census", "--surface", surface, "--prime", "3"),
    ):
        t0 = time.perf_counter()
        _fresh_run("-m", "flagcalc.cli", *argv, code=3)
        assert time.perf_counter() - t0 < 1.0, argv


def test_malformed_json_usage_exit(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, doc = run(capsys, "check-conic", "--surface", str(bad), "--conic", str(bad))
    assert code == 2


def test_missing_file_usage_exit(capsys):
    code, doc = run(capsys, "check-conic", "--surface", "/nope.json", "--conic", "/nope.json")
    assert code == 2


def test_directory_input_usage_exit(capsys, tmp_path):
    code, doc = run(capsys, "check-conic", "--surface", str(tmp_path), "--conic", str(tmp_path))
    assert code == 2
    assert doc["code"] == "usage" and doc["message"].startswith("cannot read ")


def test_non_utf8_input_usage_exit(capsys, tmp_path):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"forms": ["\xe9"]}')
    code, doc = run(capsys, "mk-ruled", "--forms", str(bad))
    assert code == 2
    assert doc == {"code": "usage", "message": f"{bad}: not UTF-8 text"}


def test_out_in_missing_directory_usage_exit(capsys, tmp_path):
    out = tmp_path / "missing" / "h0.json"
    code, doc = run(capsys, "--out", str(out), "h0", "--a", "1", "--b", "1")
    assert code == 2
    assert doc["code"] == "usage" and doc["message"].startswith(f"cannot write {out}")
    assert not out.parent.exists()


def test_empty_conics_path_usage_exit(capsys):
    code, doc = run(capsys, "mk-surface", "--a", "1", "--b", "1", "--conics", "")
    assert code == 2
    assert doc["code"] == "usage" and doc["message"].startswith("cannot read ")


def test_empty_out_path_usage_exit(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, doc = run(capsys, "--out", "", "h0", "--a", "1", "--b", "1")
    assert code == 2
    assert doc["code"] == "usage" and doc["message"].startswith("cannot write ")
    assert not list(tmp_path.iterdir())  # no .flagcalc-* left


def test_out_naming_a_directory_usage_exit(capsys, tmp_path):
    out = tmp_path / "h0.json"
    out.mkdir()
    code, doc = run(capsys, "--out", str(out), "h0", "--a", "1", "--b", "1")
    assert code == 2
    assert doc == {"code": "usage", "message": f"cannot write {out}: Is a directory"}
    assert [p.name for p in tmp_path.iterdir()] == ["h0.json"]  # no .flagcalc-* left


def test_dim_report(capsys):
    code, doc = run(
        capsys, "dim-report", "--a", "2", "--b", "2", "--x", "1", "--trials", "3", "--seed", "5"
    )
    assert code == 0
    assert doc["expected_dimension"] == 27 - 5
    assert doc["independence_guaranteed"] is True
    assert doc["observed_dimensions"] == [22, 22, 22]
    assert doc["all_match_expected"] is True


def _refuse_work(monkeypatch):
    # linsys binds SplitMix64 when it is first imported, so load it unpatched
    from flagcalc import linsys, sampling  # noqa: F401

    def work(*args, **kwargs):
        raise AssertionError("a refused request did work")

    for name in ("random_smooth_conics", "SplitMix64"):
        monkeypatch.setattr(sampling, name, work)


def test_dim_report_negative_x_usage_exit(capsys, monkeypatch):
    _refuse_work(monkeypatch)
    code, doc = run(capsys, "dim-report", "--a", "2", "--b", "2", "--x", "-1")
    assert code == 2
    assert doc == {"code": "usage", "message": "--x must be nonnegative"}


def test_dim_report_zero_trials_usage_exit(capsys, monkeypatch):
    _refuse_work(monkeypatch)
    code, doc = run(capsys, "dim-report", "--a", "2", "--b", "2", "--x", "1", "--trials", "0")
    assert code == 2
    assert doc == {"code": "usage", "message": "--trials must be at least 1"}


def test_mk_surface_negative_random_usage_exit(capsys, monkeypatch):
    _refuse_work(monkeypatch)
    code, doc = run(capsys, "mk-surface", "--a", "2", "--b", "2", "--random", "-2")
    assert code == 2
    assert doc == {"code": "usage", "message": "--random must be nonnegative"}


def test_census_negative_limit_usage_exit(capsys, monkeypatch, tmp_path):
    from flagcalc import fpcensus

    def work(*args, **kwargs):
        raise AssertionError("a refused request did work")

    for name in ("reduce_mod_p", "conic_census", "max_disjoint_subset"):
        monkeypatch.setattr(fpcensus, name, work)
    surf = tmp_path / "s.json"
    surf.write_text(json.dumps({"bidegree": [1, 1], "terms": [{"p": [1, 0, 0], "l": [0, 1, 0], "c": "1"}]}))
    code, doc = run(capsys, "census", "--surface", str(surf), "--prime", "5", "--limit", "-1")
    assert code == 2
    assert doc == {"code": "usage", "message": "--limit must be nonnegative"}


def test_mk_ruled_zero_samples_usage_exit(capsys, monkeypatch):
    from flagcalc import ruled

    def work(*args, **kwargs):
        raise AssertionError("a refused request did work")

    monkeypatch.setattr(ruled, "twistor_ruled_surface", work)
    # the forms file does not exist, so reading it would give another message
    code, doc = run(capsys, "mk-ruled", "--forms", "/nope.json", "--samples", "0")
    assert code == 2
    assert doc == {"code": "usage", "message": "--samples must be at least 1"}


def test_mk_ruled_dense_sextic(capsys, tmp_path):
    # a dense seeded degree-6 triple: 2^6 Bezout minors and a certificate of
    # degree bound 3 * 6^2
    forms = {
        "forms": [
            ["-5", "-3", "3", "-5", "-3", "1", "5"],
            ["4", "-1", "4", "-3", "5", "-2", "-3"],
            ["0", "3", "-4", "-4", "-5", "-1", "3"],
        ]
    }
    path = tmp_path / "forms.json"
    path.write_text(json.dumps(forms))
    code, doc = run(capsys, "mk-ruled", "--forms", str(path))
    assert code == 0
    assert doc["bidegree"] == [6, 6]
    assert doc["certificate"]["passed"] is True
    assert doc["certificate"]["degree_bound"] == 108
    assert len(doc["samples"]) == 5


def test_mk_surface_from_conics_file(capsys, tmp_path):
    conics = tmp_path / "conics.json"
    conics.write_text(
        json.dumps([{"q": ["1", "0", "0"], "m": ["1", "0", "0"]}])
    )
    code, doc = run(
        capsys, "mk-surface", "--a", "1", "--b", "1", "--conics", str(conics), "--seed", "1"
    )
    assert code == 0
    assert doc["dimension"] == 5
    assert len(doc["basis"]) == 5


def test_internal_failure_traceback_goes_to_stderr(capsys, monkeypatch):
    from flagcalc import cli

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.COMMANDS, "h0", (broken, *cli.COMMANDS["h0"][1:]))
    code = main(["h0", "--a", "1", "--b", "1"])
    captured = capsys.readouterr()
    assert code == 4
    assert json.loads(captured.out) == {"code": "internal", "message": "RuntimeError: boom"}
    assert "Traceback" in captured.err and "RuntimeError: boom" in captured.err


def _write_followup(tmp_path, fu, doc):
    # a check-conic follow-up written as perfbench/run.py writes it, but
    # into tmp_path: the surface and, when it is a field of doc, the conic
    surface = tmp_path / "followup_surface.json"
    surface.write_text(json.dumps(doc[fu["surface"]]), encoding="utf-8")
    conic = fu["conic"]
    if not isinstance(conic, str):
        field, idx = conic
        conic = tmp_path / "followup_conic.json"
        conic.write_text(json.dumps(doc[field][idx]), encoding="utf-8")
    return ["check-conic", "--surface", str(surface), "--conic", str(conic)]


def _assert_catalog_outputs_unchanged(capsys, monkeypatch, tmp_path, command, count, followups):
    # every request of the benchmark catalog for one command and each of
    # its check-conic follow-ups, digested as the benchmark's own checks
    # do, against the digests recorded there
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    path = ROOT / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    catalog = json.loads((ROOT / "perfbench" / "catalog.json").read_text(encoding="utf-8"))
    requests = [r for r in catalog["requests"].values() if r["argv"][0] == command]
    assert len(requests) == count
    assert sum(len(r.get("followups", [])) for r in requests) == followups
    monkeypatch.chdir(ROOT)  # the catalog's paths are relative to the repository
    for req in requests:
        code, doc = run(capsys, *req["argv"])
        assert code == 0, req["argv"]
        assert checks.digest(command, doc) == req["digest"], req["argv"]
        for fu in req.get("followups", []):
            code, fdoc = run(capsys, *_write_followup(tmp_path, fu, doc))
            assert code == 0, (req["argv"], fu["conic"])
            assert checks.digest("check-conic", fdoc) == fu["digest"], (req["argv"], fu["conic"])


def test_mk_surface_catalog_outputs_unchanged(capsys, monkeypatch, tmp_path):
    _assert_catalog_outputs_unchanged(capsys, monkeypatch, tmp_path, "mk-surface", 15, 30)


def test_mk_ruled_catalog_outputs_unchanged(capsys, monkeypatch, tmp_path):
    _assert_catalog_outputs_unchanged(capsys, monkeypatch, tmp_path, "mk-ruled", 16, 10)


def test_census_catalog_outputs_unchanged(capsys, monkeypatch, tmp_path):
    _assert_catalog_outputs_unchanged(capsys, monkeypatch, tmp_path, "census", 17, 0)


def test_dim_report_catalog_outputs_unchanged(capsys, monkeypatch, tmp_path):
    _assert_catalog_outputs_unchanged(capsys, monkeypatch, tmp_path, "dim-report", 36, 0)


def test_trace_probes_resolve():
    # the benchmark's tracer, loaded read only: a span or dunder it wraps
    # that no longer exists would make that per-layer metric read absent
    path = ROOT / "perfbench" / "trace_boot.py"
    spec = importlib.util.spec_from_file_location("perfbench_trace_boot", path)
    trace_boot = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_boot)
    # each target is defined where it is probed, so no alias or re-export
    # of a deleted function can keep its probe alive
    for name, modname, attr in trace_boot.SPANS:
        fn = getattr(importlib.import_module(modname), attr, None)
        assert callable(fn), name
        assert (fn.__module__, fn.__qualname__) == (modname, attr), name
    for layer, modname, clsname, dunders in trace_boot.DUNDERS:
        cls = getattr(importlib.import_module(modname), clsname)
        for dunder in dunders:
            assert dunder in cls.__dict__, f"{layer}.{dunder}"


# A request as the console script runs it: a fresh interpreter, no bytecode
# written, PYTHONPATH=src and no FLAGCALC_* variables.
def _fresh_run(*args, code=0, hashseed=None):
    env = {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(ROOT / "src"),
        "LC_ALL": "C.UTF-8",
    }
    if hashseed is not None:
        env["PYTHONHASHSEED"] = hashseed
    proc = subprocess.run(
        [sys.executable, "-B", *args],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    return proc


@pytest.mark.parametrize("argv", [
    ("mk-ruled", "--forms", "perfbench/fixtures/forms/d3_00.json", "--samples", "28"),
    ("mk-surface", "--a", "2", "--b", "2", "--random", "3", "--seed", "0"),
], ids=["mk-ruled", "mk-surface"])
def test_output_does_not_depend_on_the_hash_seed(argv):
    # points and conics are deduplicated in dicts keyed by their hash; the
    # output order must follow insertion, never the hash
    outs = [_fresh_run("-m", "flagcalc.cli", *argv, hashseed=s).stdout for s in ("0", "1")]
    assert outs[0] == outs[1]


def _modules_after(code, *argv):
    # the child writes the names in sys.modules to stderr after the code ran
    report = "; sys.stderr.write(' '.join(sys.modules))"
    return set(_fresh_run("-c", "import sys; " + code + report, *argv).stderr.split())


def _modules_after_request(*argv):
    return _modules_after("from flagcalc.cli import main; main(sys.argv[1:])", *argv)


def test_census_request_imports_only_what_it_runs():
    loaded = _modules_after_request(
        "census", "--surface", "perfbench/fixtures/surfaces/ruled_d2_00.json", "--prime", "5"
    )
    assert {"flagcalc.fpcensus", "flagcalc.serialize"} <= loaded
    unused = {"flagcalc.linsys", "flagcalc.ruled", "flagcalc.invariants", "flagcalc.sampling"}
    assert not loaded & (unused | {"dataclasses", "inspect"})


def test_h0_request_imports_only_what_it_runs():
    loaded = _modules_after_request("h0", "--a", "1", "--b", "1")
    assert "flagcalc.invariants" in loaded
    unused = {"flagcalc.fpcensus", "flagcalc.ruled", "flagcalc.linsys", "flagcalc.flag",
              "flagcalc.gaussian", "flagcalc.linalg", "flagcalc.modp"}
    assert not loaded & (unused | {"fractions", "decimal", "numbers"})
    assert not loaded & {"argparse", "gettext", "locale"}


def test_main_freezes_start_up_only_as_the_program():
    h0 = ("h0", "--a", "1", "--b", "1")
    report = "; sys.stderr.write(str(gc.get_freeze_count()))"
    for call, frozen in (("main()", True), ("main(sys.argv[1:])", False)):
        code = "import gc, sys; from flagcalc.cli import main; " + call + report
        count = int(_fresh_run("-c", code, *h0).stderr)
        assert (count > 0) == frozen, call


def test_mk_ruled_request_imports_only_what_it_runs():
    loaded = _modules_after_request(
        "mk-ruled", "--forms", "perfbench/fixtures/forms/d2_02.json", "--samples", "3"
    )
    assert {"flagcalc.ruled", "flagcalc.serialize"} <= loaded
    unused = {"flagcalc.linsys", "flagcalc.invariants", "flagcalc.fpcensus", "flagcalc.modp"}
    assert not loaded & unused


def test_modp_imports_only_errors():
    loaded = _modules_after("import flagcalc.modp")
    own = {m for m in loaded if m == "flagcalc" or m.startswith("flagcalc.")}
    assert own == {"flagcalc", "flagcalc.modp", "flagcalc.errors"}


def _modules_importing(name):
    pattern = re.compile(rf"^\s*(import|from)\s+{name}\b", re.MULTILINE)
    paths = sorted((ROOT / "src" / "flagcalc").glob("*.py"))
    return [p.name for p in paths if pattern.search(p.read_text(encoding="utf-8"))]


def test_no_module_imports_dataclasses():
    assert _modules_importing("dataclasses") == []


def test_no_module_imports_argparse():
    assert _modules_importing("argparse") == []


def test_importing_the_package_loads_no_submodule():
    import flagcalc

    with pytest.raises(AttributeError, match="BiForm"):
        flagcalc.BiForm  # one import path per name: flagcalc.biforms

    def own(loaded):
        return {m for m in loaded if m == "flagcalc" or m.startswith("flagcalc.")}

    assert own(_modules_after("import flagcalc")) == {"flagcalc"}
    assert own(_modules_after("import flagcalc.cli")) == {
        "flagcalc", "flagcalc.cli", "flagcalc.errors"
    }


def test_trace_attributes_lazily_imported_requests(tmp_path):
    # the benchmark's tracer, run read only, must still see the layers a
    # request imports inside its handler
    requests = {
        "census": (
            ["census", "--surface", "perfbench/fixtures/surfaces/ruled_d2_00.json",
             "--prime", "5"],
            ["fpcensus.conic_census", "fpcensus.max_disjoint"],
            [],
        ),
        "ruled": (
            ["mk-ruled", "--forms", "perfbench/fixtures/forms/d2_02.json", "--samples", "3"],
            ["ruled.resultant"],
            [],
        ),
        # random conics fail the one-prime kernel, so Bareiss runs and the
        # echelon hook reads the condition rows as (re, im) pairs
        "interp": (
            ["mk-surface", "--a", "2", "--b", "2", "--random", "3", "--seed", "0"],
            ["linsys.condition_matrix", "linalg.echelon_int"],
            ["linalg.max_entry_bits"],
        ),
    }
    for rid, (argv, spans, counters) in requests.items():
        out = tmp_path / f"{rid}.json"
        _fresh_run("perfbench/trace_boot.py", str(out), rid, "--", *argv)
        trace = json.loads(out.read_text(encoding="utf-8"))
        agg = trace["agg"]
        for name in spans:
            assert agg.get(name, [0])[0] >= 1, (rid, name)
        assert sum(v[0] for k, v in agg.items() if k.startswith("serialize.")) >= 1, rid
        for name in counters:
            assert trace["counters"].get(name, 0) > 0, (rid, name)

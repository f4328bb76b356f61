"""Command-line behavior: output, exit codes, and the JSON schema."""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tamesym import AtomRegistry, parse_cycle, parse_gamma, parse_wedge, poly_str
from tamesym import cli
from tamesym.cli import main
from test_polynomials import swinnerton_dyer


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ts_at_place(capsys):
    code, out, _ = run(capsys, "ts", "--place", "t=3", "w[t, 1-t, 1-3/t]")
    assert code == 0
    assert out == "-w[2, 3]\n"


def test_ts_output_reparses(capsys):
    code, out, _ = run(capsys, "ts", "--place", "t=3", "w[t, 1-t, 1-3/t]")
    reg = AtomRegistry()
    w = parse_wedge(out.strip(), reg, field="Q")
    assert not w.is_zero


def test_dd2_is_zero(capsys):
    code, out, _ = run(capsys, "dd2", "m=2; [S: w[x-1, y-2, x-y, 5]]")
    assert code == 0
    assert out.splitlines() == ["m=2; 0", "d-squared-zero: yes"]


def test_json_schema(capsys):
    code, out, _ = run(capsys, "ts", "--format", "json",
                       "--place", "t=3", "w[t, 1-t, 1-3/t]")
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload) == ["certificates", "input", "result", "status",
                               "verb"]
    assert payload["verb"] == "ts"
    assert payload["result"] == "-w[2, 3]"
    assert payload["status"] == "ok"
    assert payload["input"] == {"place": "t=3", "wedge": "w[t, 1-t, 1-3/t]"}


STATUS = {0: "ok", 1: "violation", 2: "parse-error", 3: "engine-error"}
NOT_ADMISSIBLE = ("coordinates 1 and 2 both lie in {0, inf} at t=inf; "
                  "coordinates 1 (zero) and 3 (pole) meet a face together "
                  "where t = 0")
SUITE_ROWS = [
    ("C1", "totaro-differential", "1/1 cases"),
    ("C2", "weil-reciprocity", "1/1 cases"),
    ("C3", "parshin-d-squared", "1/1 cases"),
    ("C4", "five-term-kernel", "1/1 cases"),
    ("C5", "chow-comparison-morphism", "1/1 cases + non-admissible example"),
    ("C6", "homotopy-triangles", "1/1 lower + 1/1 upper + named value"),
    ("C7", "decomposition-certificate", "2/2 cases"),
    ("C8", "blowup-residue", "1/1 cases"),
    ("C9", "two-slot-vanishing", "1/1 cases"),
    ("C10", "suite-determinism", "two passes identical"),
]


def _c(name, ok, detail=""):
    return {"name": name, "ok": ok, "detail": detail}


# (argv, exit code, text stdout lines, text stderr, JSON input, JSON result,
#  JSON certificates): every verb once, both ts targets, both homotopy-check
# triangles, one parse error and one engine refusal
EVERY_VERB = [
    (["ts", "--place", "t=3", "w[t, 1-t, 1-3/t]"], 0, ["-w[2, 3]"], "",
     {"place": "t=3", "wedge": "w[t, 1-t, 1-3/t]"}, "-w[2, 3]", []),
    (["ts", "--divisor", "y=x", "w[y-x, x-2, y+1]"], 0, ["w[t-2, t+1]"], "",
     {"divisor": "y=x", "wedge": "w[y-x, x-2, y+1]"}, "w[t-2, t+1]", []),
    (["weil", "w[t-1, 2*(t+3)/(t-5)]"], 0, ["0"], "",
     {"wedge": "w[t-1, 2*(t+3)/(t-5)]"}, "0", []),
    (["delta", "{2*t}_2 ⊗ w[t-4]"], 0,
     ["-w[2, t-4, t-1/2] + w[2, t-4, t] - w[t-4, t-1/2, t]"], "",
     {"gamma": "{2*t}_2 ⊗ w[t-4]"},
     "-w[2, t-4, t-1/2] + w[2, t-4, t] - w[t-4, t-1/2, t]", []),
    (["five-term", "4", "-7", "5", "-6", "-1/3"], 0,
     ["{-120}_2 + {-187/13}_2 - {-51/4}_2 + {-143/17}_2 - {-39/5}_2",
      "in-delta-kernel: yes"], "",
     {"points": "4 -7 5 -6 -1/3"},
     "{-120}_2 + {-187/13}_2 - {-51/4}_2 + {-143/17}_2 - {-39/5}_2",
     [_c("in-delta-kernel", True)]),
    (["ts-gamma", "--place", "t=3", "{2*t}_2 ⊗ w[t-3]"], 0, ["{-5}_2"], "",
     {"gamma": "{2*t}_2 ⊗ w[t-3]", "place": "t=3"}, "{-5}_2", []),
    (["dd", "m=2; [S: w[x-1, y-2, x-y, 5]]"], 0,
     ["m=2; [P1: w[5, t-2, t-1]]"], "",
     {"element": "m=2; [S: w[x-1, y-2, x-y, 5]]"},
     "m=2; [P1: w[5, t-2, t-1]]", []),
    (["dd2", "m=2; [S: w[y+x-2, y-2*x+1, x+1, y]]"], 1,
     ["m=2; [pt: w[2, 3]]", "d-squared-zero: no"], "",
     {"element": "m=2; [S: w[y+x-2, y-2*x+1, x+1, y]]"},
     "m=2; [pt: w[2, 3]]", [_c("d-squared-zero", False)]),
    (["snc", "w[y-x, y-x-1, 3]"], 1,
     ["strictly-regular: no", "tangency at (inf, inf): y=x, y=x+1"], "",
     {"wedge": "w[y-x, y-x-1, 3]"}, "strictly-regular: no",
     [_c("strictly-regular", False, "1 candidate points"),
      _c("tangency", False, "at (inf, inf): y=x, y=x+1")]),
    (["blowup", "--center", "1,-2/3", "w[x-1, y+2/3, 5]"], 0, ["-w[5, v]"],
     "", {"center": "1,-2/3", "wedge": "w[x-1, y+2/3, 5]"}, "-w[5, v]", []),
    (["adm", "cyc[t, 1-t, 1-3/t]"], 1,
     ["admissible: no"] + NOT_ADMISSIBLE.split("; "), "",
     {"cycle": "cyc[t, 1-t, 1-3/t]"}, "admissible: no",
     [_c("admissible", False)]
     + [_c("face-violation", False, p) for p in NOT_ADMISSIBLE.split("; ")]),
    (["bdry", "cyc[(t-2)/(t-3), (t-5)/(t-7)]"], 0,
     ["-pt[1/2]", "pt[3/5]", "pt[5/4]", "-pt[3/2]"], "",
     {"cycle": "cyc[(t-2)/(t-3), (t-5)/(t-7)]"},
     ["-pt[1/2]", "pt[3/5]", "pt[5/4]", "-pt[3/2]"], []),
    (["wmap", "cyc[(t-2)/(t-3), (t-5)/(t-7)]"], 0,
     ["m=1; [P1: -w[t-7, t-3] + w[t-7, t-2] + w[t-5, t-3] - w[t-5, t-2]]"],
     "", {"cycle": "cyc[(t-2)/(t-3), (t-5)/(t-7)]"},
     "m=1; [P1: -w[t-7, t-3] + w[t-7, t-2] + w[t-5, t-3] - w[t-5, t-2]]", []),
    (["wcheck", "cyc[2*(t-1)/(t-3), 5*(t-2)/(t-4)]"], 0,
     ["commutes: yes", "d(W(Z)) = m=1; 0", "W(dZ)   = m=1; 0"], "",
     {"cycle": "cyc[2*(t-1)/(t-3), 5*(t-2)/(t-4)]"}, "commutes: yes",
     [_c("square-commutes", True)]),
    (["h", "w[t, 1-t, 1-3/t]"], 0, ["{-2}_2"], "",
     {"wedge": "w[t, 1-t, 1-3/t]"}, "{-2}_2", []),
    (["decomp", "w[t, 1-t, 1-3/t]"], 0,
     ["preimage: -{(3*t-3)/(t-3)}_2 ⊗ w[t-3]",
      "remainder: -w[2, 3, t-3] + w[2, t-3, t-1] - w[3, t-3, t]",
      "certificate: yes"], "",
     {"wedge": "w[t, 1-t, 1-3/t]"},
     {"preimage": "-{(3*t-3)/(t-3)}_2 ⊗ w[t-3]",
      "remainder": "-w[2, 3, t-3] + w[2, t-3, t-1] - w[3, t-3, t]"},
     [_c("delta-preimage-plus-remainder", True),
      _c("remainder-at-most-two-nonconstant", True)]),
    (["homotopy-check", "w[t, 1-t, 1-3/t]"], 0,
     ["lower-triangle: yes", "delta(h) = w[2, 3]", "residues = -w[2, 3]"],
     "", {"wedge": "w[t, 1-t, 1-3/t]"}, "lower-triangle: yes",
     [_c("lower-triangle", True)]),
    (["homotopy-check", "--sub", "{(3*t-3)/(t-3)}_2 ⊗ w[t-3]"], 0,
     ["upper-triangle: yes", "syntactic: yes"], "",
     {"gamma": "{(3*t-3)/(t-3)}_2 ⊗ w[t-3]"}, "upper-triangle: yes",
     [_c("upper-triangle", True, "syntactic")]),
    (["suite", "--scale", "1"], 0,
     ["acceptance suite: seed=7 scale=1"]
     + [f"{ident:<5}{title:<27}PASS {detail}"
        for ident, title, detail in SUITE_ROWS] + ["overall: PASS"], "",
     {"seed": "7", "scale": "1"}, "PASS",
     [{"ident": ident, "title": title, "ok": True, "detail": detail}
      for ident, title, detail in SUITE_ROWS]),
    (["delta", "oops["], 2, [], "delta: expected '{' (at position 0)\n",
     {}, "expected '{' (at position 0)", []),
    (["bdry", "cyc[t, 1-t, 1-3/t]"], 3, [],
     f"bdry: NotAdmissible: {NOT_ADMISSIBLE}\n",
     {}, f"NotAdmissible: {NOT_ADMISSIBLE}", []),
]


@pytest.mark.parametrize(
    "argv, code, lines, err, record, result, certificates", EVERY_VERB,
    ids=[" ".join(case[0]) for case in EVERY_VERB])
def test_every_verb_text_and_json(capsys, argv, code, lines, err, record,
                                  result, certificates):
    """Each verb's whole answer, as text and as JSON: the text lines, the
    stderr message, the exit code and every byte of the JSON payload."""
    assert run(capsys, *argv) == (code, "".join(f"{s}\n" for s in lines), err)
    payload = {"verb": argv[0], "input": record, "result": result,
               "certificates": certificates, "status": STATUS[code]}
    want = json.dumps(payload, sort_keys=True) + "\n"
    assert run(capsys, *argv, "--format", "json") == (code, want, "")



@pytest.mark.parametrize("argv, message", [
    (["weil", "w[t] + w[t, t-1]"], "degree 1 vs 2 (at position 6)"),
    (["delta", "{2}_2@w[t] + {3}_2@w[t, t-1]"],
     "tail degree 1 vs 2 (at position 12)"),
])
def test_mixed_degrees_are_refused_by_their_text(capsys, argv, message):
    """A sum of wedges or of symbols whose degrees differ is a parse error
    that names both degrees, as text and as JSON."""
    assert run(capsys, *argv) == (2, "", f"{argv[0]}: {message}\n")
    payload = {"verb": argv[0], "input": {}, "result": message,
               "certificates": [], "status": "parse-error"}
    want = json.dumps(payload, sort_keys=True) + "\n"
    assert run(capsys, *argv, "--format", "json") == (2, want, "")


def test_readme_verb_list_is_the_verb_table():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = " ".join(readme.read_text(encoding="utf-8").split())
    sentence = re.search(r"The full verb list: (.*?)\.", text).group(1)
    assert re.findall(r"`([^`]+)`", sentence) == [v for v, *_ in cli._verbs()]


def test_property_violation_exits_one(capsys):
    code, out, _ = run(capsys, "snc", "w[y-x, y-x-1, 3]")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "strictly-regular: no"
    assert "tangency at (inf, inf)" in lines[1]
    code, _, _ = run(capsys, "adm", "cyc[t, 1-t, 1-3/t]")
    assert code == 1


def test_parse_error_exits_two(capsys):
    code, out, err = run(capsys, "delta", "oops[")
    assert code == 2
    assert out == ""
    assert "delta:" in err
    code, _, err = run(capsys, "ts", "w[t]")
    assert code == 2
    code, _, err = run(capsys, "ts", "--place", "t=3", "--divisor", "y=x",
                       "w[t]")
    assert code == 2


def test_huge_power_is_refused_before_expanding(capsys):
    """w[t^9999999] once expanded the power and never ended."""
    text = "w[t^9999999]"
    proc = subprocess.run(
        [sys.executable, "-m", "tamesym", "ts", "--place", "t=0", text],
        capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2
    start = time.perf_counter()
    code, out, err = run(capsys, "ts", "--place", "t=0", text)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err == ("ts: power of degree 1 * 9999999 is above the limit 100 "
                   "(at position 4)\n")


@pytest.mark.parametrize("text, bits, e", [("w[t, 3^9999999]", 2, 9999999),
                                           ("w[t, 2^300000]", 2, 300000)])
def test_huge_constant_power_is_refused_before_expanding(capsys, text, bits, e):
    """A power of a constant was computed in full and then trial-divided."""
    proc = subprocess.run(
        [sys.executable, "-m", "tamesym", "ts", "--place", "t=0", text],
        capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2
    start = time.perf_counter()
    code, out, err = run(capsys, "ts", "--place", "t=0", text)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err == (f"ts: power of bit length {bits} * {e} is above the limit "
                   "4096 (at position 7)\n")


THREE_2048_X40 = "*".join(["3^2048"] * 40)
THREE_2048_X100 = "*".join(["3^2048"] * 100)


@pytest.mark.parametrize("text, expected", [
    ("w[t, (3^2048*t)^100]", "204800*w[3]\n"),
    (f"w[t, {THREE_2048_X40}]", "81920*w[3]\n"),
    (f"w[t, {THREE_2048_X100}]", "204800*w[3]\n"),
    ("w[t, 1000000000000000003]", "w[1000000000000000003]\n"),
    ("w[t, t^2+1000000000000000003]", "w[1000000000000000003]\n"),
    ("w[t, 1000000007*t^4+3]", "w[3]\n"),
    ("w[t, 65537^200*65537^200*65537^200]", "600*w[65537]\n"),
    (f"w[t, t^2+{THREE_2048_X40}]", "81920*w[3]\n"),
], ids=["power-of-product", "product-of-40-powers", "product-of-powers",
        "prime", "prime-constant-term", "quartic-leading-coefficient",
        "power-of-prime-above-2^16", "too-many-divisors"])
def test_large_integer_classes_end(text, expected):
    """A prime power was divided out one factor at a time, and integers were
    factored (or their divisors listed) by trial division up to the square
    root, so the first six took seconds or never ended. The seventh has 9,600
    bits with no prime below 2^16, too large for Pollard rho alone. The last
    was refused: its constant term has 81,921 divisors, too many to list as
    root candidates, and the Hensel lift now looks for the roots instead."""
    proc = subprocess.run(
        [sys.executable, "-m", "tamesym", "ts", "--place", "t=0", text],
        capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0
    assert proc.stdout == expected


def test_rational_roots_of_highly_composite_ends_end():
    """963761198400 has 6,720 divisors, so the rational-root candidates of
    963761198400*t^3+t+963761198400 were 426k coprime pairs, each evaluated:
    about 7 s."""
    proc = subprocess.run(
        [sys.executable, "-m", "tamesym", "ts", "--place", "t=0",
         "w[t, 963761198400*t^3+t+963761198400]"],
        capture_output=True, text=True, timeout=5)
    assert proc.returncode == 0
    assert proc.stdout == ("6*w[2] + 4*w[3] + 2*w[5] + w[7] + w[11] + w[13] "
                           "+ w[17] + w[19] + w[23]\n")


def test_rational_roots_with_large_values_at_plus_minus_one_end():
    """f(1) = 577*5010890113 and f(-1) = 2663*361908073 are both large, so
    the window they cut from the 6,720 divisors of 963761198400 held all of
    them for every numerator: 45M pairs, 5-7 s, though each of f(1) and
    f(-1) has only 4 divisors."""
    proc = subprocess.run(
        [sys.executable, "-m", "tamesym", "ts", "--place", "t=0",
         "w[t, 963761198400*t^3+963761198400*t^2+t+963761198400]"],
        capture_output=True, text=True, timeout=5)
    assert proc.returncode == 0
    assert proc.stdout == ("6*w[2] + 4*w[3] + 2*w[5] + w[7] + w[11] + w[13] "
                           "+ w[17] + w[19] + w[23]\n")


LINEAR_24 = "*".join(f"(t+{k})" for k in range(1, 25))


def test_many_linear_factors_end():
    """24! has 242,880 divisors, past the divisor-list budget, so the
    rational roots of (t+1)*(t+2)*...*(t+24) could not be listed and it
    was refused; the Hensel lift finds its 24 linear factors."""
    proc = subprocess.run(
        [sys.executable, "-m", "tamesym", "ts", "--place", "t=0", f"w[t, {LINEAR_24}]"],
        capture_output=True, text=True, timeout=5)
    assert proc.returncode == 0
    assert proc.stdout == ("22*w[2] + 10*w[3] + 4*w[5] + 3*w[7] + 2*w[11] + w[13] "
                           "+ w[17] + w[19] + w[23]\n")


POWERS_60 = "*".join(f"(t+{k})^100" for k in range(1, 61))


def test_long_product_of_powers_ends():
    """The entry was multiplied out to degree 6,000 before it was factored
    back into the same 60 factors: 13.8 s at 30 factors, and at 60 it did
    not end within 90 s. Each factor is now classed on its own."""
    proc = subprocess.run(
        [sys.executable, "-m", "tamesym", "ts", "--place", "t=0", f"w[t, {POWERS_60}]"],
        capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0
    assert proc.stdout == (
        "5600*w[2] + 2800*w[3] + 1400*w[5] + 900*w[7] + 500*w[11] + 400*w[13] "
        "+ 300*w[17] + 300*w[19] + 200*w[23] + 200*w[29] + 100*w[31] + 100*w[37] "
        "+ 100*w[41] + 100*w[43] + 100*w[47] + 100*w[53] + 100*w[59]\n")


# the part of 12345678901^70 - 1 that Pollard rho cannot split
RHO_REFUSED = int(
    "3853084754574682018618460401123481358924988956709058021950718574"
    "6222606865051917584296167857688764839274878536141790825223524951"
    "7649119162223977724061298588706966518336656609990062196889112138"
    "5381371628598394267792386485858667880985605936201694710125424238"
    "9722336814730437235116587617388964974381920388780723052464967480"
    "9668569571282724751746562873215398070163118419137868012840641430"
    "2064263460121860502776866308110177707682025267777252846687677240"
    "8404277023064283858689815796300811840962251627105522784535942348"
    "2294993076992451639359068804962687233675648037182843479817862309"
    "8718351368382862096318201580354124971377682762707033007812944503"
    "00083445797")


def test_squarefree_split_of_a_wide_power_difference_ends():
    """Yun's split of this degree-70 argument spent most of 32 s (a 2-vCPU
    VM, Python 3.11) in the primitive remainder sequence of its gcds before
    the refusal; each gcd is now read from the integer gcd of two values.
    The answer is the same refusal, exit 3."""
    assert (12345678901**70 - 1) % RHO_REFUSED == 0
    proc = subprocess.run(
        [sys.executable, "-m", "tamesym", "delta",
         "{(12345678901*t+98765432101)^70 - (t+3)^70}_2"],
        capture_output=True, text=True, timeout=20)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == (f"delta: Inconclusive: cannot factor the integer "
                           f"{RHO_REFUSED}: Pollard rho found no factor "
                           "within its step budget\n")


def test_sum_around_a_long_product_is_refused(capsys):
    """A sum multiplies both its sides out: the degree-300 side below was
    then factored for 53-56 s before exit 3. A side whose degree bound (the
    sum of |e| * degree over its merged bases) is above MAX_POWER_DEGREE
    is now refused at the operator, like a power above it."""
    text = "w[t, (t+1)^100*(t+2)^100*(t+3)^100+1]"
    proc = subprocess.run(
        [sys.executable, "-m", "tamesym", "ts", "--place", "t=0", text],
        capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("ts: sum with a term of degree 300 is above the "
                           "limit 100 (at position 34)\n")
    code, out, err = run(capsys, "ts", "--place", "t=0", "w[t, 1 - (t+1)^60*(t+2)^41]")
    assert (code, out, err) == (2, "", "ts: sum with a term of degree 101 is "
                                "above the limit 100 (at position 7)\n")
    code, _, err = run(capsys, "ts", "--divisor", "x=0", "w[x, y - (x+y)^30*(x-y)^21]")
    assert (code, err) == (2, "ts: sum with a term of degree 102 is above the "
                           "limit 100 (at position 7)\n")
    # equal bases are merged first, and a bound of exactly 100 is accepted
    code, out, _ = run(capsys, "ts", "--place", "t=0",
                       "w[t, (t+1)^100/(t+1)^100*(t+2) + 1]")
    assert (code, out) == (0, "w[3]\n")
    code, out, _ = run(capsys, "ts", "--place", "t=0", "w[t, (t+1)^100 + 1 - 1]")
    assert (code, out) == (0, "0\n")


POWERS_3 = "(t+1)^100*(t+2)^100*(t+3)^100"
POWERS_30 = "*".join(f"(t+{k})^100" for k in range(1, 31))


@pytest.mark.parametrize("argv, message", [
    (["ts", "--place", "t=0", f"w[t, ({POWERS_30})^1]"],
     "ts: power of degree 3000 * 1 is above the limit 100 (at position 328)"),
    (["delta", f"{{{POWERS_3}}}_2"],
     "delta: expression of degree 300 is above the limit 100 (at position 1)"),
    (["delta", f"{{{POWERS_3}+1}}_2"],
     "delta: sum with a term of degree 300 is above the limit 100 "
     "(at position 30)"),
], ids=["power-of-a-product", "symbol-argument", "sum-in-a-symbol-argument"])
def test_value_above_the_degree_bound_is_refused_before_expanding(capsys, argv,
                                                                  message):
    """A power's base was multiplied out before its bound was checked
    (15 s for the first), and a symbol argument was multiplied out whole
    with no bound (54 s for the third, over 60 s for the second). Every
    product is now bounded, with equal bases merged, before it is
    multiplied out."""
    proc = subprocess.run([sys.executable, "-m", "tamesym", *argv],
                          capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message + "\n")
    start = time.perf_counter()
    assert run(capsys, *argv) == (2, "", message + "\n")
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("argv, reduced", [
    (["delta", "{((t+1)^100/(t+1)^100)^4096*t}_2"], ["delta", "{t}_2"]),
    (["delta", "{((3^2048/3^2048)^4096)^4*t}_2"], ["delta", "{t}_2"]),
    (["delta", "{((3^2048*(1/3+0)^2048)^4096)^4*t}_2"], ["delta", "{t}_2"]),
    (["delta", f"{{{POWERS_30}/({POWERS_30})*2/t}}_2"], ["delta", "{2/t}_2"]),
    (["adm", "cyc[((t+1)^100/(t+1)^100)^4096*t, t-2]"],
     ["adm", "cyc[t, t-2]"]),
], ids=["degree-power", "bit-power", "bit-power-distinct-bases",
        "long-quotient", "cycle"])
def test_cancelling_factors_are_not_multiplied_out(capsys, argv, reduced):
    """Factors that cancel pass the merged bounds, but were multiplied out
    as written: (t+1)^409600 for the first text, 3^33554432 for the second
    and third, and a degree-3000 product for the fourth. A text answers as
    its reduced form does, and in bounded time."""
    expected = run(capsys, *reduced)
    proc = subprocess.run([sys.executable, "-m", "tamesym", *argv],
                          capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stdout, proc.stderr) == expected


def test_homotopy_check_at_a_quadratic_place_skips_dead_terms(capsys):
    """At t^2+1=0 the value of -1/t^2 is 1, and the tail w[t] has residue
    zero, so both terms die; each was refused as a value in Q(i)."""
    assert run(capsys, "homotopy-check", "--sub", "{-t^2}_2 @ w[t]") == \
        (0, "upper-triangle: yes\nsyntactic: yes\n", "")


def test_unfactorable_factor_is_named_alone(capsys):
    """A refused product entry names the factor it could not split, not the
    product multiplied out (which was the degree-34 product here)."""
    sd32 = poly_str(swinnerton_dyer((2, 3, 5, 7, 11)), "t")
    code, out, err = run(capsys, "ts", "--place", "t=0", f"w[t, ({sd32})*(t^2+1)]")
    assert (code, out) == (3, "")
    assert err.startswith(f"ts: Inconclusive: cannot factor degree-32 polynomial {sd32}")
    # equal factors are merged before any is classed, so this one cancels
    code, out, _ = run(capsys, "ts", "--place", "t=0", f"w[t, ({sd32})^2*t/({sd32})^2]")
    assert (code, out) == (0, "0\n")


@pytest.mark.parametrize("text, message", [
    ("w[t, 3317044064679887385961981]",
     "cannot factor the integer 3317044064679887385961981: a probable prime"),
], ids=["strong-pseudoprime"])
def test_integer_past_the_limits_is_refused_by_name(text, message):
    """The least strong pseudoprime to the 13 Miller-Rabin bases."""
    proc = subprocess.run(
        [sys.executable, "-m", "tamesym", "ts", "--place", "t=0", text],
        capture_output=True, text=True, timeout=10)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"ts: Inconclusive: {message}")


SEVEN_1300_X4 = "*".join(["7^1300"] * 4)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_number_past_the_digit_limit_is_refused_by_name(fmt):
    """7^5200 has 4,395 digits, past Python's int-to-str limit of 4,300:
    rendering it raised a bare ValueError that advised raising the limit."""
    proc = subprocess.run(
        [sys.executable, "-m", "tamesym", "delta", "--format", fmt,
         f"{{t-{SEVEN_1300_X4}}}_2 ⊗ w[t+1]"],
        capture_output=True, text=True, timeout=10)
    assert proc.returncode == 3
    message = ("TooManyDigits: cannot render a number of 4395 digits, "
               "above the limit of 4300")
    if fmt == "json":
        payload = json.loads(proc.stdout)
        assert payload["status"] == "engine-error"
        assert payload["result"] == message
    else:
        assert proc.stdout == ""
        assert proc.stderr == f"delta: {message}\n"
    assert "set_int_max_str_digits" not in proc.stdout + proc.stderr


def test_answer_does_not_depend_on_slot_order(capsys):
    """t^6+1 = (t^2+1)(t^4-t^2+1) factors whether or not t^2+1 was seen
    first."""
    answers = [run(capsys, "ts", "--place", "t=0", text)
               for text in ("w[t^2+1, t^6+1, t]", "w[t^6+1, t^2+1, t]")]
    assert answers[0] == answers[1]
    assert answers[0][0] == 0


def test_bivariate_answer_does_not_depend_on_slot_order(capsys):
    """(y-x^2)*(y-x-1) split only once y-x^2 was registered, when factors
    linear in neither variable were found by trial division against the
    registry; now the factor walk finds both in either order."""
    answers = [run(capsys, "snc", text)
               for text in ("w[y-x^2, (y-x^2)*(y-x-1), y-x-1]",
                            "w[(y-x^2)*(y-x-1), y-x^2, y-x-1]")]
    assert answers[0] == answers[1]
    assert answers[0][0] == 0


@pytest.mark.parametrize("text, code, expected", [
    ("w[(y-x)*(x*y-1), x]", 0, "strictly-regular: yes\n"),
    ("w[y^2-x^2, x]", 1, "strictly-regular: no\ntriple at (0, 0): x=0, y=-x, y=x\n"),
])
def test_bivariate_products_split_in_a_fresh_registry(capsys, text, code, expected):
    """Products of factors linear in x or in y answer with no atom parsed
    before them."""
    assert run(capsys, "snc", text) == (code, expected, "")


@pytest.mark.parametrize("text, leftover", [
    ("w[y^2-x^3-2, x]", "-x^3+y^2-2"),
    ("w[(y-x)*(x^2+y^2-1), x]", "x^2+y^2-1"),
])
def test_bivariate_refusal_names_the_leftover(capsys, text, leftover):
    """A piece with no factor linear in x or in y is refused by name."""
    code, out, err = run(capsys, "snc", text)
    assert (code, out) == (3, "")
    assert err == (f"snc: Inconclusive: cannot factor bivariate polynomial "
                   f"{leftover}: it has no factor linear in x or in y\n")


def test_engine_error_exits_three(capsys):
    code, out, err = run(capsys, "bdry", "cyc[t, 1-t, 1-3/t]")
    assert code == 3
    assert "NotAdmissible" in err


def test_surface_with_leftover_linear_in_y(capsys):
    code, out, _ = run(capsys, "snc", "w[(y-x^2)*(y-3)]")
    assert code == 0
    assert out == "strictly-regular: yes\n"


def test_not_distinct_points_render_canonically(capsys):
    code, out, err = run(capsys, "five-term", "0", "1", "1", "2", "3")
    assert code == 3
    assert out == ""
    assert err == "five-term: NotDistinct: cross-ratio of [1, 1, 2, 3]\n"
    code, _, err = run(capsys, "five-term", "1/2", "1/2", "1", "inf", "3")
    assert code == 3
    assert "cross-ratio of [1/2, 1/2, inf, 3]" in err
    assert "Fraction(" not in err


# One CLI input per refusal class the CLI can reach.
# MixedFields, DegreeMismatch and OneMinusOfOne guard engine internals: the
# parser and the verbs refuse first, so no input reaches them ({1}_2 is a
# DegenerateArgument).
REFUSALS = [
    ("ParseError", 2, ["ts", "--place", "t=0", "w[t,"]),
    ("ParseError", 2, ["ts", "--place", "t=1/0", "w[t]"]),
    ("ParseError", 2, ["delta", "2/0*{t}_2"]),
    ("ParseError", 2, ["ts", "--divisor", "x=0", "w[t]"]),
    ("NotStrictlyRegular", 3, ["dd", "m=0; [S: w[y-x, y-x-1]]"]),
    ("NonSplitResidue", 3, ["ts", "--place", "t^2+1=0", "w[t, t^2+1]"]),
    ("NonSplitResidue", 3, ["ts-gamma", "--place", "t^2+1=0",
                            "{t}_2 @ w[t^2+1]"]),
    ("Inconclusive", 3, ["snc", "w[x^2+y^2-1, x]"]),
    ("Inconclusive", 3, ["snc", "w[y^2-x^3-2, x]"]),
    ("Inconclusive", 3, ["snc", "w[(y-x)*(x^2+y^2-1), x]"]),
    ("NotAdmissible", 3, ["bdry", "cyc[t, 1-t, 1-3/t]"]),
    ("DegenerateArgument", 3, ["delta", "{0}_2"]),
    ("UnsupportedDivisorClass", 3, ["snc", "w[x^2-2, y]"]),
    ("UnsupportedDivisorClass", 3, ["snc", "w[y^2-2, x]"]),
    ("NonLinearAtom", 3, ["decomp", "w[t^2+1, t]"]),
    ("NotDistinct", 3, ["five-term", "0", "1", "3", "3", "inf"]),
    ("CoordinateIdenticallyFace", 3, ["adm", "cyc[1, t]"]),
    ("DegenerateArgument", 3, ["delta", "{1}_2"]),
    ("DegenerateArgument", 3, ["delta", "{t/t}_2"]),
    ("DegenerateArgument", 3, ["homotopy-check", "--sub", "{1}_2 @ w[t]"]),
]

# a raw dataclass repr such as Graph(var='x', num=...)
RAW_REPR = re.compile(r"[A-Z]\w*\(\w+=")


@pytest.mark.parametrize("name, code, argv", REFUSALS,
                         ids=[" ".join(argv) for _, _, argv in REFUSALS])
def test_refusal_messages_use_canonical_text(capsys, name, code, argv):
    got, out, err = run(capsys, *argv)
    assert got == code
    assert out == ""
    assert err.startswith(f"{argv[0]}: ") and err.count("\n") == 1
    if code == 3:
        assert err.startswith(f"{argv[0]}: {name}: ")
    assert not RAW_REPR.search(err) and "Fraction(" not in err, err


def test_surface_golden_refusals_use_canonical_text():
    """Every refusal in the seeded surface-verb golden."""
    golden = Path(__file__).resolve().parent / "golden" / "surface_verbs.txt"
    refusals = [line for line in golden.read_text(encoding="utf-8")
                .splitlines() if line.startswith("! ")]
    assert refusals
    for line in refusals:
        assert not RAW_REPR.search(line), line


def test_internal_failure_exits_three_not_one(capsys, monkeypatch):
    """An internal guard failing is an engine error marked as a bug, never a
    traceback exit 1, which means "property violated"."""
    def broken(args, reg):
        raise AssertionError("guard tripped")

    monkeypatch.setattr(cli, "_h_five_term", broken)
    code, out, err = run(capsys, "five-term", "0", "1", "3", "7", "inf")
    assert code == 3
    assert out == ""
    assert err.startswith("five-term: bug: AssertionError: guard tripped\n")
    code, out, _ = run(capsys, "five-term", "--format", "json",
                       "0", "1", "3", "7", "inf")
    assert code == 3
    payload = json.loads(out)
    assert payload["status"] == "engine-error"
    assert payload["result"] == "bug: AssertionError: guard tripped"


def test_a_coefficient_of_minus_one_is_written_as_a_sign(capsys):
    """Points and cycles write their coefficient as every signed sum does:
    the boundary printed -1*pt[1/2] and a cycle -1*cyc[t, 2]."""
    code, out, _ = run(capsys, "bdry", "cyc[(t-2)/(t-3), (t-5)/(t-7)]")
    assert code == 0
    assert out == "-pt[1/2]\npt[3/5]\npt[5/4]\n-pt[3/2]\n"
    assert str(parse_cycle("-cyc[t, 2]")) == "-cyc[t, 2]"
    assert str(parse_cycle("-1/2*cyc[t, 2]")) == "-1/2*cyc[t, 2]"


def test_json_error_statuses(capsys):
    code, out, _ = run(capsys, "delta", "--format", "json", "oops[")
    assert code == 2
    assert json.loads(out)["status"] == "parse-error"
    code, out, _ = run(capsys, "bdry", "--format", "json",
                       "cyc[t, 1-t, 1-3/t]")
    assert code == 3
    payload = json.loads(out)
    assert payload["status"] == "engine-error"
    assert "NotAdmissible" in payload["result"]


@pytest.mark.parametrize("place", ["t=-2", "t=0"])
def test_ts_gamma_refuses_a_symbol_not_over_qt(capsys, place):
    """At t=-2 this printed 0 (exit 0), and at t=0 it exited 3 with
    MixedFields: the field is checked before any residue is taken, as
    `ts --place` checks it."""
    argv = ["ts-gamma", "--place", place, "{v+2}_2@w[v,v-1]"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == ("ts-gamma: a symbol evaluated at a place must live over "
                   "Qt, got Qv\n")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 2
    assert json.loads(out)["status"] == "parse-error"


@pytest.mark.parametrize("text", ["{v}_2@w[v]", "{v+2}_2@w[v]"])
def test_homotopy_check_sub_refuses_a_symbol_not_over_qt(capsys, text):
    """The first printed upper-triangle: yes (exit 0), reading v as t, and
    the second exited 3 with MixedFields: the field is checked as `h` and
    `homotopy-check` on a wedge check it."""
    code, out, err = run(capsys, "homotopy-check", "--sub", text)
    assert (code, out) == (2, "")
    assert err == ("homotopy-check: the homotopy input must live over Qt, "
                   "got Qv\n")
    code, out, _ = run(capsys, "homotopy-check", "--sub", text,
                       "--format", "json")
    assert code == 2
    assert json.loads(out)["status"] == "parse-error"


# Texts that begin with '-' and miss argparse's negative-number pattern.
LEADING_MINUS = [(["five-term"], ["4", "-7", "5", "-6", "-1/3"]),
                 (["delta"], ["-2*{2*t}_2"]),
                 (["ts", "--place", "t=3"], ["-w[t, 1-t, 1-3/t]"])]


@pytest.mark.parametrize("head, text", LEADING_MINUS,
                         ids=[" ".join(h + t) for h, t in LEADING_MINUS])
def test_text_may_begin_with_a_minus(capsys, head, text):
    """Such a text reads as it does after '--', with --format before or
    after it; five-term and delta exited 2 for want of the text."""
    for fmt in ([], ["--format", "json"]):
        want = run(capsys, *head, *fmt, "--", *text)
        assert want[0] == 0 and want[2] == ""
        assert run(capsys, *head, *fmt, *text) == want
        assert run(capsys, *head, *text, *fmt) == want


def test_help_and_unknown_options_still_exit_as_options(capsys):
    with pytest.raises(SystemExit) as e:
        main(["delta", "-h"])
    assert e.value.code == 0
    assert capsys.readouterr().out.startswith("usage: tamesym delta")
    with pytest.raises(SystemExit) as e:
        main(["delta", "--bogus", "{t}_2"])
    assert e.value.code == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err


def test_five_term_verb(capsys):
    code, out, _ = run(capsys, "five-term", "0", "1", "3", "7", "inf")
    assert code == 0
    assert out.splitlines() == ["-{-6}_2 - {-7/2}_2 + {-4/3}_2",
                                "in-delta-kernel: yes"]


def test_h_and_decomp_verbs(capsys):
    code, out, _ = run(capsys, "h", "w[t, 1-t, 1-3/t]")
    assert code == 0
    assert out == "{-2}_2\n"
    reg = AtomRegistry()
    assert parse_gamma(out.strip(), reg, field="Q") is not None
    code, out, _ = run(capsys, "decomp", "w[t, 1-t, 1-3/t]")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "preimage: -{(3*t-3)/(t-3)}_2 ⊗ w[t-3]"
    assert lines[2] == "certificate: yes"


def test_homotopy_check_verb(capsys):
    code, out, _ = run(capsys, "homotopy-check", "w[t, 1-t, 1-3/t]")
    assert code == 0
    assert out.splitlines()[0] == "lower-triangle: yes"
    code, out, _ = run(capsys, "homotopy-check", "--sub",
                       "{(3*t-3)/(t-3)}_2 (x) w[t-3]")
    assert code == 0
    assert out.splitlines()[0] == "upper-triangle: yes"


def test_wcheck_verb(capsys):
    code, out, _ = run(capsys, "wcheck", "cyc[2*(t-1)/(t-3), 5*(t-2)/(t-4)]")
    assert code == 0
    assert out.splitlines()[0] == "commutes: yes"


def test_suite_small_scale_and_stability(capsys):
    code, out1, _ = run(capsys, "suite", "--seed", "7", "--scale", "3")
    assert code == 0
    code, out2, _ = run(capsys, "suite", "--seed", "7", "--scale", "3")
    assert code == 0
    assert out1 == out2
    assert out1.splitlines()[0] == "acceptance suite: seed=7 scale=3"
    assert out1.splitlines()[-1] == "overall: PASS"


def test_console_script_is_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "tamesym", "ts", "--place", "t=3",
         "w[t, 1-t, 1-3/t]"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "-w[2, 3]\n"


def test_differential_on_clusters_sharing_q(capsys):
    """Supports with two clusters over one q once crashed the sort of the
    snc candidates, in dd and dd2 alike."""
    code, out, _ = run(capsys, "dd", "m=1; [S: w[y-x^2-2, y+1, y*(x^2+3)-1]]")
    assert code == 0
    assert out.startswith("m=1; [P1: ")
    code, _, err = run(capsys, "dd2",
                       "m=1; [S: w[x*(y^2-2)-1, x*(y^2-4)-2, x*(y^2-3)-1]]")
    assert code == 3
    assert err == ("dd2: NotStrictlyRegular: surface support is not SNC: "
                   "tangency at (-1/2, 0); triple at (0, inf)\n")

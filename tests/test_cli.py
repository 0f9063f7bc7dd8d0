"""Command-line interface: outputs, schemas, exit codes, determinism."""

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

from conftest import ROOT, load_script
from torusskein import cli, skein
from torusskein.assembly import degk_orbits
from torusskein.charvariety import TorusKnotConfig
from torusskein.cli import BASIS_BUDGET, CHEBYSHEV_BUDGET, ORBIT_BUDGET, main, orbit_work
from torusskein.traces import WORD_BUDGET, check_word, trace_word


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_chebyshev_output(capsys):
    code, out, _ = run_cli(capsys, "chebyshev", "3")
    assert code == 0
    assert out == "s^3 - 3*s\n"


def unreachable(*args):
    raise AssertionError("built past the budget")


def test_chebyshev_refuses_past_its_budget(capsys, monkeypatch):
    # refused before any polynomial is built
    monkeypatch.setattr(cli, "chebyshev", unreachable)
    code, out, err = run_cli(capsys, "chebyshev", "20000")
    assert code == 2 and out == ""
    assert err.startswith("error:") and str(CHEBYSHEV_BUDGET) in err


def test_chebyshev_budget_accepts_its_largest_case(capsys):
    code, out, _ = run_cli(capsys, "chebyshev", str(CHEBYSHEV_BUDGET))
    assert code == 0 and out.startswith(f"s^{CHEBYSHEV_BUDGET} - ")
    code, out, _ = run_cli(capsys, "chebyshev", str(CHEBYSHEV_BUDGET + 1))
    assert code == 2 and out == ""


def test_trace_poly_output(capsys):
    code, out, _ = run_cli(capsys, "trace-poly", "2", "1")
    assert code == 0
    assert out == "x*z - y\n"


def test_trace_poly_high_degree(capsys):
    # the memo is filled bottom-up, so the degree is not bounded by the
    # interpreter's recursion limit; each key is still computed exactly once
    trace_word.cache_clear()
    code, out, _ = run_cli(capsys, "trace-poly", "0", "510")
    assert code == 0
    assert out.startswith("y^510 - ")
    info = trace_word.cache_info()
    assert info.misses == info.currsize == 511


def test_trace_poly_refuses_oversized_words(capsys):
    # (i+1)(j+1) is about twice the word's term count; an oversized word is
    # refused before any of it is built
    trace_word.cache_clear()
    code, out, err = run_cli(capsys, "trace-poly", "300", "300")
    assert code == 2 and out == ""
    assert err.startswith("error:") and str(WORD_BUDGET) in err
    assert trace_word.cache_info().currsize == 0


def test_char_variety_human(capsys):
    code, out, _ = run_cli(capsys, "char-variety", "2", "3")
    assert code == 0
    assert "1 irreducible line" in out
    assert "(k=1, l=1)" in out


def test_char_variety_json(capsys):
    code, out, _ = run_cli(capsys, "char-variety", "3", "4", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob[0]["kind"] == "abelian"
    irr = [c for c in blob if c["kind"] == "irreducible"]
    assert len(irr) == 3
    assert all(set(c) == {"kind", "k", "l", "x_c", "y_c"} for c in blob)


def test_bracket_resolves_diagram(tmp_path, capsys):
    diagram = {
        "endpoints": 2,
        "slices": [{"op": "crossing", "pos": 0, "sign": 1},
                   {"op": "cap", "pos": 0}],
        "meta": {},
    }
    path = tmp_path / "kink.json"
    path.write_text(json.dumps(diagram))
    code, out, _ = run_cli(capsys, "bracket", str(path), "--json")
    assert code == 0
    assert json.loads(out) == [{"matching": [[0, 1]], "windings": [0],
                                "core_loops": 0, "coeff": "-A^-3"}]


def test_bracket_budget_flag(tmp_path, capsys, monkeypatch):
    # ten crossings on six strands peak at 232 live states
    slices = ([{"op": "crossing", "pos": i % 6, "sign": 1} for i in range(10)]
              + [{"op": "cap", "pos": 4 - 2 * i} for i in range(3)])
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"endpoints": 6, "slices": slices, "meta": {}}))
    monkeypatch.setattr(skein, "STATE_BUDGET", 100)
    code, _, err = run_cli(capsys, "bracket", str(path))
    assert code == 2 and "live states on 6 strands exceed the state budget of 100" in err
    code, out, _ = run_cli(capsys, "bracket", str(path), "--budget", "300")
    assert code == 0 and out


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_bracket_budget_below_one_is_usage_error(tmp_path, capsys, budget):
    # a bound below one would refuse every sum: a usage error, not a refusal
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"endpoints": 0, "slices": [], "meta": {}}))
    with pytest.raises(SystemExit) as exc:
        main(["bracket", str(path), "--budget", budget])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("usage:") and "--budget: must be at least 1" in err


@pytest.mark.parametrize("diagram, field", [
    ({"endpoints": 2}, "'slices'"),
    ({"endpoints": 2, "slices": [{"op": "cap"}]}, "'pos'"),
    ([1, 2], "diagram"),
])
def test_bracket_malformed_diagram_is_usage_error(tmp_path, capsys, diagram, field):
    # exit 1 means a failed verification, so a bad input file must exit 2
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(diagram))
    code, out, err = run_cli(capsys, "bracket", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and field in err


def test_skein_basis_degree_zero(capsys):
    code, out, _ = run_cli(capsys, "skein-basis", "2", "3", "--degree", "0",
                           "--bound", "5", "--json")
    assert code == 0
    blob = json.loads(out)
    assert {"m1": 0, "n": 0, "m2": 0, "degree": 0, "trace": "1"} in blob
    assert any(b["degree"] == 5 for b in blob)


def test_skein_basis_degree_one(capsys):
    code, out, _ = run_cli(capsys, "skein-basis", "2", "3", "--degree", "1", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob == [{"k": 1, "j1": 1, "j2": 1, "partner": [2, 1], "trace": "z"}]


def test_skein_basis_refuses_past_its_budget(capsys, monkeypatch):
    # the degree-0 listing is refused before any index or trace is built
    monkeypatch.setattr(cli, "deg0_basis", unreachable)
    code, out, err = run_cli(capsys, "skein-basis", "2", "3", "--degree", "0",
                             "--bound", "100000000")
    assert code == 2 and out == ""
    assert err.startswith("error:") and str(BASIS_BUDGET) in err


def test_skein_basis_budget_accepts_its_largest_case(capsys):
    # (D+1)(D//2+1)^2 is at most the budget for D = 511, not for D = 512
    code, out, _ = run_cli(capsys, "skein-basis", "2", "3", "--degree", "0", "--bound", "511")
    assert code == 0
    assert out.splitlines()[-1].startswith("  x^2 P^84 y^1  (degree 511)")
    code, out, _ = run_cli(capsys, "skein-basis", "2", "3", "--degree", "0", "--bound", "512")
    assert code == 2 and out == ""


@pytest.mark.parametrize("p, q, budget, words", [
    (89, 97, WORD_BUDGET, "tr(u^46 v^87): (i+1)(j+1) = 4136 exceeds the word budget"),
    (1001, 1003, WORD_BUDGET, "tr(u^4 v^819): (i+1)(j+1) = 4100 exceeds the word budget"),
    (5, 100003, WORD_BUDGET, "tr(u^819 v^4): (i+1)(j+1) = 4100 exceeds the word budget"),
    (41, 48, ORBIT_BUDGET,
     "degree-1 orbits of (41,48): the sum of (j1+1)(j2+1) = 262890 exceeds the orbit budget"),
], ids=["89-97-4096", "1001-1003-4096", "5-100003-4096", "41-48-262144"])
def test_skein_basis_refuses_orbits_past_their_budgets(capsys, monkeypatch, p, q, budget, words):
    # tr(u^46 v^87) of (89, 97) is past the word budget, and the orbit words
    # of (41, 48) together past the orbit budget: refused before any trace is
    # built, after one pass over fewer than 2 * WORD_BUDGET orbits, none kept
    visits = []

    def counted_orbits(cfg, k):
        visits.append(0)
        for orbit in degk_orbits(cfg, k):
            visits[-1] += 1
            yield orbit
    monkeypatch.setattr(cli, "degk_orbits", counted_orbits)
    monkeypatch.setattr(cli, "basis_traces", unreachable)
    for extra in ((), ("--json",)):
        visits.clear()
        code, out, err = run_cli(capsys, "skein-basis", str(p), str(q), "--degree", "1", *extra)
        assert code == 2 and out == ""
        assert err == f"error: {words} of {budget}\n"
        assert len(visits) == 1 and visits[0] < 2 * WORD_BUDGET


def closed_form_orbit_work(cfg, k):
    """orbit_work by rows, no orbit built: the orbits (j1, j2) < (q-j1, p-j2)
    of a row j1 are j2 = 1..top, and only the least j2 whose word is past the
    word budget is checked, row by row."""
    work = 0
    for j1 in range(1, cfg.q // 2 + 1):
        top = cfg.p - 1 if 2 * j1 < cfg.q else (cfg.p - 1) // 2  # p is odd if q = 2*j1
        j2 = max(1, WORD_BUDGET // (j1 + 1))  # the least j2 with (j1+1)(j2+1) past it
        if j2 <= top:
            check_word(j1, j2)
        work += (j1 + 1) * top * (top + 3) // 2  # (j1+1) times the sum of j2+1
    return work


@pytest.mark.parametrize("p, q", [(2, 3), (3, 2), (3, 4), (4, 3), (5, 12), (12, 5),
                                  (41, 48), (48, 41), (70, 127), (127, 70),
                                  (89, 97), (97, 89), (2, 1001), (1001, 2)])
def test_orbit_work_equals_the_orbits_reference(p, q):
    # both odd and even q, so the middle row j1 = q/2 is covered
    cfg = TorusKnotConfig(p, q)
    outcomes = []
    for fn in (orbit_work, closed_form_orbit_work):
        try:
            outcomes.append(fn(cfg, 2))
        except skein.BudgetError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


def test_skein_basis_orbit_budget_accepts_its_largest_case(capsys):
    # the orbit words of (41, 47) sum to 257,140, at most the budget
    code, out, _ = run_cli(capsys, "skein-basis", "41", "47", "--degree", "1")
    assert code == 0
    assert out.splitlines()[0] == "degree-1 basis orbits for (41,47): 920 orbit(s)"
    assert out.splitlines()[-1].startswith("  {(23,40), (24, 1)} -> ")


def test_verify_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "2", "3", "--max-k", "1")
    assert code == 0
    assert "all checks passed" in out


@pytest.mark.parametrize("flag, value", [("--max-k", "0"), ("--max-k", "-1"),
                                         ("--seed", "-1")])
def test_verify_out_of_range_is_usage_error(capsys, flag, value):
    # max_k < 1 would run no rotation check; a negative seed is no failed check
    code, out, err = run_cli(capsys, "verify", "2", "3", flag, value)
    assert code == 2
    assert out == ""
    assert flag.lstrip("-").replace("-", "_") in err


def test_verify_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "verify", "2", "3", "--max-k", "1", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["config"] == {"p": 2, "q": 3, "max_k": 1, "seed": 20259}
    assert all(c["pass"] for c in blob["checks"])


def test_outputs_byte_identical(capsys):
    first = run_cli(capsys, "chebyshev", "12")
    second = run_cli(capsys, "chebyshev", "12")
    assert first == second
    first = run_cli(capsys, "skein-basis", "3", "4", "--degree", "2", "--json")
    second = run_cli(capsys, "skein-basis", "3", "4", "--degree", "2", "--json")
    assert first == second
    first = run_cli(capsys, "verify", "2", "3", "--max-k", "1", "--json", "--no-timings")
    second = run_cli(capsys, "verify", "2", "3", "--max-k", "1", "--json", "--no-timings")
    assert first == second


@pytest.mark.parametrize("p, q, max_k", [("2", "9", "2"), ("7", "8", "3")])
def test_verify_passes_past_the_crossing_count(capsys, p, q, max_k):
    # rotation words of 25 to 36 crossings stay far inside the bound on
    # live states (at most 169 here)
    code, out, _ = run_cli(capsys, "verify", p, q, "--max-k", max_k, "--no-timings")
    assert code == 0 and out.endswith("all checks passed\n")


def test_verify_refusal_is_not_failure(capsys, state_budget):
    # (7, 8) at k = 3 peaks at 138 live states on slope 7 and 169 on slope 8
    state_budget(100)
    code, out, _ = run_cli(capsys, "verify", "7", "8", "--max-k", "3", "--no-timings")
    assert code == 3
    assert "[REFUSED] rotation-order-slope8" in out and "[FAIL]" not in out
    code, out, _ = run_cli(capsys, "verify", "7", "8", "--max-k", "3", "--json",
                           "--no-timings")
    assert code == 3
    check, = [c for c in json.loads(out)["checks"] if c["name"] == "rotation-order-slope8"]
    assert check["pass"] is False
    assert check["witness"]["refused"]["slope"] == 8
    assert check["witness"]["refused"]["k"] == 3


def test_sweep_counts_refusals_apart(capsys, monkeypatch, state_budget):
    # slope 5 peaks at 24 live states for k = 2, slopes 2 to 4 at most 17
    sweep = load_script("verify_sweep")
    state_budget(20)
    monkeypatch.setattr(sys, "argv", ["verify_sweep.py", "5", "2"])
    assert sweep.main() == 3
    out = capsys.readouterr().out
    rows = [line.split() for line in out.splitlines() if line.startswith("  (")]
    status = {row[0]: row[2] for row in rows if row[1].isdigit()}
    assert status == {"(2,3)": "ok", "(2,5)": "REFUSED", "(3,4)": "ok",
                      "(3,5)": "REFUSED", "(4,5)": "REFUSED"}
    assert out.endswith("0 failing configuration(s), 3 refused configuration(s)\n")


def test_dst_conditioning_exits_one_on_a_failing_pair(capsys, monkeypatch):
    script = load_script("dst_conditioning")
    monkeypatch.setattr(sys, "argv", ["dst_conditioning.py", "5"])
    assert script.main() == 0
    passing = capsys.readouterr().out
    assert "FAILS" not in passing
    real = script.verify_dst

    def failing_at_3_4(cfg):
        ok, det, cond = real(cfg)
        return ok and (cfg.p, cfg.q) != (3, 4), det, cond
    monkeypatch.setattr(script, "verify_dst", failing_at_3_4)
    assert script.main() == 1
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if "FAILS" in line] == [
        line + "  <-- FAILS" for line in passing.splitlines() if "( 3, 4)" in line]


def test_benchmark_tracer_names_exist():
    # the benchmark's tracer looks these names up when it installs; its tables
    # are read off the file, without importing the harness
    path = ROOT / "bench" / "tracing.py"
    tables = {target.id: ast.literal_eval(node.value)
              for node in ast.parse(path.read_text()).body if isinstance(node, ast.Assign)
              for target in node.targets
              if getattr(target, "id", None) in ("SPANNED", "COUNTED", "CACHED")}
    for module, cls, attr in [*tables["SPANNED"].values(), *tables["COUNTED"].values()]:
        owner = importlib.import_module(f"torusskein.{module}")
        if cls is not None:
            owner = getattr(owner, cls)
        assert attr in vars(owner), (module, cls, attr)
    for module, attr in tables["CACHED"].values():
        fn = vars(importlib.import_module(f"torusskein.{module}"))[attr]
        assert hasattr(fn, "cache_info"), (module, attr)


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    code, _, err = run_cli(capsys, "char-variety", "2", "4")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("limit", ["2", "0"])
def test_dst_conditioning_with_no_pair_in_range(capsys, monkeypatch, limit):
    script = load_script("dst_conditioning")
    monkeypatch.setattr(sys, "argv", ["dst_conditioning.py", limit])
    assert script.main() == 0
    assert capsys.readouterr().out.endswith(f"no coprime pair p < q <= {limit}\n")


@pytest.mark.parametrize("argv", [["verify_sweep.py", "8", "two"],
                                  ["dst_conditioning.py", "12.5"],
                                  ["rotation_table.py", "x"]],
                         ids=["verify_sweep", "dst_conditioning", "rotation_table"])
def test_scripts_refuse_non_integer_arguments(capsys, monkeypatch, argv):
    # exit 1 means a failed case, so a bad argument exits 2, as torusskein does
    script = load_script(argv[0].removesuffix(".py"))
    monkeypatch.setattr(sys, "argv", argv)
    assert script.main() == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and repr(argv[-1]) in err


@pytest.mark.parametrize("argv", [["verify_sweep.py", "8", "1"], ["verify_sweep.py", "8", "2"],
                                  ["verify_sweep.py", "12", "2"], ["dst_conditioning.py"]],
                         ids=["sweep-8-1", "sweep-8-2", "sweep-12-2", "dst-conditioning"])
def test_scripts_pass(capsys, monkeypatch, argv):
    script = load_script(argv[0].removesuffix(".py"))
    monkeypatch.setattr(sys, "argv", argv)
    assert script.main() == 0


def test_verify_report_is_strict_json_past_float_range(capsys):
    # the sine determinant overflows at (31, 37): the report stays strict JSON
    def reject(constant):
        raise AssertionError(f"non-JSON constant {constant}")
    code, out, _ = run_cli(capsys, "verify", "31", "37", "--max-k", "1", "--json")
    assert code == 0
    json.loads(out, parse_constant=reject)


def peak_rss_mb(argv):
    """Exit code and peak RSS in MB of the torusskein argv in a fresh process."""
    args, env = load_script("repin").command(["torusskein", *argv])
    child = subprocess.Popen(args, cwd=ROOT, env=env,
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, usage.ru_maxrss / 1024


@pytest.mark.parametrize("argv, floor_argv, codes", [
    # 1001 x 1003 would hold half a million orbits: it is refused with none kept
    (["skein-basis", "1001", "1003", "--degree", "1"],
     ["skein-basis", "89", "97", "--degree", "1"], (2, 2)),
    # T_n keeps two terms at a time
    (["chebyshev", "1024"], ["chebyshev", "20000"], (0, 2)),
], ids=["skein-basis-1001-1003", "chebyshev-1024"])
def test_peak_rss_stays_near_a_refused_call(argv, floor_argv, codes):
    (code, peak), (floor_code, floor) = peak_rss_mb(argv), peak_rss_mb(floor_argv)
    assert (code, floor_code) == codes
    assert peak - floor <= 8, (peak, floor)


@pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["torusskein", "trace-poly", "8", "8"],
    ["torusskein", "trace-poly", "63", "63"],  # 63 KB: buffered too, print meets the break
    ["torusskein", "verify", "3", "5", "--max-k", "2"],
    ["scripts/verify_sweep.py", "8", "1"],
    ["scripts/rotation_table.py", "4", "1"],
    ["scripts/dst_conditioning.py", "6"],
], ids=["trace-poly", "trace-poly-63-63", "verify", "verify-sweep", "rotation-table", "dst-conditioning"])
def test_closed_stdout_exits_2_with_one_error_line(argv, buffering):
    # every entry point, given a pipe whose reader is gone: buffered, a short
    # output fails at run's last flush; unbuffered, at the first print
    args, env = load_script("repin").command(argv)
    env.pop("PYTHONUNBUFFERED", None)
    if buffering == "unbuffered":
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(args, cwd=ROOT, env=env, stdout=write,
                              stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write)
    assert done.returncode == 2
    assert done.stderr == b"error: [Errno 32] Broken pipe\n"

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from typing import NamedTuple

import pytest

import linecayley
from linecayley.cayley import build_graph, sample_connection_set
from linecayley.cli import main
from linecayley.coloring import Coloring, coset_coloring, plus_zero_recolor
from linecayley.errors import InvariantViolation
from linecayley.field import PRIME_TEST_MAX, is_scalar_matrix, mat_apply


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_lines(capsys):
    code, out = run(capsys, "lines", "--q", "3", "--n", "2", "--no-meta")
    assert code == 0
    d = json.loads(out)
    assert d["count"] == 3
    assert d["lines"] == [[0, 1], [1, 1], [2, 1]]
    assert "meta" not in d


def test_meta_block_present_by_default(capsys):
    code, out = run(capsys, "lines", "--q", "3", "--n", "2")
    d = json.loads(out)
    assert code == 0
    assert "generated_at" in d["meta"]
    assert "runtime_ms" in d["meta"]


def test_sample_deterministic(capsys):
    code1, out1 = run(capsys, "sample", "--q", "5", "--n", "3", "--seed", "42", "--no-meta")
    code2, out2 = run(capsys, "sample", "--q", "5", "--n", "3", "--seed", "42", "--no-meta")
    assert code1 == code2 == 0
    assert out1 == out2
    d = json.loads(out1)
    s = sample_connection_set(5, 3, 0.5, 42)
    assert [tuple(l) for l in d["lines"]] == list(s.lines)


def test_build_json_and_dimacs(capsys, tmp_path):
    code, out = run(capsys, "build", "--q", "3", "--n", "2", "--seed", "1",
                    "--format", "dimacs", "--no-meta")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p edge 9 9"
    assert len(lines) == 10
    assert all(l.startswith("e ") for l in lines[1:])
    path = tmp_path / "g.json"
    code, _ = run(capsys, "build", "--q", "3", "--n", "2", "--seed", "1",
                  "--out", str(path), "--no-meta")
    assert code == 0
    d = json.loads(path.read_text())
    assert d["num_vertices"] == 9
    assert d["num_edges"] == 9


def test_chi_value(capsys, tmp_path):
    s = sample_connection_set(5, 3, 0.5, 42)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(s.to_json_dict()))
    code, out = run(capsys, "chi", "--q", "5", "--n", "3", "--in", str(path), "--no-meta")
    assert code == 0
    d = json.loads(out)
    assert d["value"] == 5
    assert d["exact"] is True
    assert d["lower"] == d["upper"] == 5
    assert "nodes" not in d


def test_aut_complete(capsys):
    code, out = run(capsys, "aut", "--q", "3", "--n", "2", "--seed", "3", "--no-meta")
    assert code == 0
    d = json.loads(out)
    assert d["complete"] is True
    assert d["order"] == "72"
    assert d["dichotomy"] in ("i", "ii")
    assert d["nodes"] >= 1


def test_aut_meta_reports_leaf_checks(capsys):
    # (3,2) seed 1 checks 3 leaves, none in T ⋊ G_0 and so each on all 9
    # vertices, builds each of the 9 neighbourhood rows once, and pops 6
    # splitters over all its refinements, its first vertex level stopping
    # at the orbits of G_0's stabilizer of b1; the counts are in meta only,
    # which --no-meta drops.  Before G_0's generators seeded the pool it
    # checked 4 leaves on 30 vertices and popped 7 splitters
    code, out = run(capsys, "aut", "--q", "3", "--n", "2", "--seed", "1")
    assert code == 0
    meta = json.loads(out)["meta"]
    assert (meta["leaves"], meta["leaf_vertices"], meta["rows"]) == (3, 27, 9)
    assert meta["splitters"] == 6
    code, out = run(capsys, "aut", "--q", "3", "--n", "2", "--seed", "1", "--no-meta")
    assert "leaves" not in out and "rows" not in out and "splitters" not in out
    assert "meta" not in json.loads(out)


def test_aut_meta_reports_splitter_routes(capsys):
    # (5,4) seed 1 ends after 0 on the scalar orbits: of its 8 splitters,
    # the orbits of S, two orbits and then one are counted from the kept
    # neighbour masks, the last 3, with few points left in non-singleton
    # cells, directly, and the other 2, {0} and one orbit, by the id route.
    # 2 neighbourhood rows are read: row 0, as the scalar orbits are set up,
    # and that of the id route's orbit.  Before the masks were kept, the
    # routes read (8, 4, 1) and 4 rows.  The counts are in meta only
    code, out = run(capsys, "aut", "--q", "5", "--n", "4", "--seed", "1")
    assert code == 0
    meta = json.loads(out)["meta"]
    routes = meta["splitters"], meta["splitters_direct"], meta["splitters_masks"]
    assert routes == (8, 3, 3)
    assert meta["rows"] == 2
    code, out = run(capsys, "aut", "--q", "5", "--n", "4", "--seed", "1", "--no-meta")
    assert code == 0
    assert "splitters" not in out and "meta" not in json.loads(out)
    # near-complete S, 8 nodes: splitters_masks counts the scalar orbits'
    # mask route alone, as the vertices count every splitter by ids.  The
    # level after 0 ends at the orbits of G_0's stabilizer of its base
    # point, G_0 found in 5 leaves, after 14 splitters where emptying its
    # queue took 50.  G_0's generators seed the pool, so the search pops
    # 841 splitters, where it popped 1,411 in 12 nodes without them, 19 of
    # them from the masks (17 before the masks were kept).  Its one leaf is
    # in T ⋊ G_0, which G_0 keeps with no neighbourhood compared
    code, out = run(capsys, "aut", "--q", "5", "--n", "4", "--p", "0.97", "--seed", "2")
    assert code == 0
    meta = json.loads(out)["meta"]
    routes = meta["splitters"], meta["splitters_direct"], meta["splitters_masks"]
    assert routes == (841, 0, 19)
    assert meta["linear_leaves"] == 5
    assert (meta["leaves"], meta["leaf_vertices"]) == (1, 0)


def test_aut_meta_reports_the_linear_stop(capsys):
    # (5,3) seed 8, in case (ii): G_0, of order 8, is found in 2 leaves,
    # and the level after 0 stops at the orbits of its stabilizer of the
    # base point, of order 2, after 8 splitters where emptying its queue
    # took 45; so the search pops 43 splitters, not 80, and builds 46 rows,
    # not 102.  G_0's generators seed the pool, and no leaf is checked, so
    # it pops 35 and builds 41, and 23 once the scalar orbits keep their
    # neighbour masks, which count more of their splitters than the id route.
    # (5,4) seed 1 is in case (i), where no G_0 is looked for
    code, out = run(capsys, "aut", "--q", "5", "--n", "3", "--seed", "8")
    assert code == 0
    meta = json.loads(out)["meta"]
    assert (meta["linear_leaves"], meta["splitters"], meta["rows"]) == (2, 35, 23)
    assert meta["leaves"] == 0
    code, out = run(capsys, "aut", "--q", "5", "--n", "4", "--seed", "1")
    d = json.loads(out)
    assert (d["dichotomy"], d["meta"]["linear_leaves"]) == ("i", 0)


def test_aut_with_a_period_solves_the_quotient(capsys, deadline):
    # with p = 1 the period W is H, |W| = q^(n-1), and G/W is K_q: at (5,4)
    # Aut is Sym(125) wr Sym(5), written down with no search, with the
    # transvection x -> x + x[3] e_0 as witness; meta reports |W| as period,
    # which is 1 where S has none
    deadline(30)
    code, out = run(capsys, "aut", "--q", "5", "--n", "4", "--p", "1", "--seed", "1")
    assert code == 0
    d = json.loads(out)
    assert d["order"] == str(math.factorial(125) ** 5 * math.factorial(5))
    assert (d["dichotomy"], d["equals_K"], d["nodes"]) == ("ii", False, 0)
    assert d["witness"] == [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    assert len(d["generators"]) == 5 * 124 + 4
    assert (d["meta"]["period"], d["meta"]["splitters"]) == (125, 0)
    code, out = run(capsys, "aut", "--q", "5", "--n", "4", "--seed", "1")
    assert json.loads(out)["meta"]["period"] == 1


def test_aut_with_one_line_missing_writes_the_product(capsys, deadline):
    # (5,4), p = 0.99, seed 0 misses the line of u = (3, 3, 4, 1): Aut is
    # Sym(125) x Sym(5), written down with no search, with the homology
    # x -> x - 2 x[3] u as witness; meta reports product 1, and 0 where the
    # search runs, and --no-meta drops it
    deadline(30)
    code, out = run(capsys, "aut", "--q", "5", "--n", "4", "--p", "0.99", "--seed", "0")
    assert code == 0
    d = json.loads(out)
    assert d["order"] == str(math.factorial(125) * math.factorial(5))
    assert (d["dichotomy"], d["equals_K"], d["nodes"]) == ("ii", False, 0)
    assert d["witness"] == [[1, 0, 0, 4], [0, 1, 0, 4], [0, 0, 1, 2], [0, 0, 0, 4]]
    assert len(d["generators"]) == 5 + 124 + 4
    assert (d["meta"]["product"], d["meta"]["period"], d["meta"]["splitters"]) == (1, 1, 0)
    code, out = run(capsys, "aut", "--q", "5", "--n", "4", "--seed", "1")
    assert json.loads(out)["meta"]["product"] == 0
    code, out = run(capsys, "aut", "--q", "5", "--n", "4", "--p", "0.99", "--seed", "0", "--no-meta")
    assert "product" not in out and "meta" not in json.loads(out)


def test_aut_on_a_cone_writes_the_product(capsys, deadline):
    # (3,3), p = 0.75, seed 8 has seven lines, a cone of centre u = (1, 2,
    # 1) in S: Aut is Sym(3) x Aut(R), 3! 1,296, with R of period 3 and no
    # search, and the homology x -> x - 2 x[2] u as witness; meta reports
    # cone 1, and 0 where the search runs, and --no-meta drops it
    deadline(30)
    code, out = run(capsys, "aut", "--q", "3", "--n", "3", "--p", "0.75", "--seed", "8")
    assert code == 0
    d = json.loads(out)
    assert (d["order"], d["dichotomy"], d["equals_K"], d["nodes"]) == ("7776", "ii", False, 0)
    assert d["witness"] == [[1, 0, 1], [0, 1, 2], [0, 0, 2]]
    assert (d["meta"]["cone"], d["meta"]["product"], d["meta"]["period"]) == (1, 0, 1)
    code, out = run(capsys, "aut", "--q", "5", "--n", "4", "--seed", "1")
    assert json.loads(out)["meta"]["cone"] == 0
    code, out = run(capsys, "aut", "--q", "3", "--n", "3", "--p", "0.75", "--seed", "8", "--no-meta")
    assert "cone" not in out and "meta" not in json.loads(out)


def test_aut_budget_exhaustion(capsys):
    code, out = run(capsys, "aut", "--q", "3", "--n", "3", "--seed", "8",
                    "--budget-nodes", "1", "--no-meta")
    assert code == 3
    d = json.loads(out)
    assert d["complete"] is False
    assert d["order"] == "unknown"
    assert d["nodes"] >= 1
    assert len(d["generators"]) >= 1


def test_aut_budget_exhaustion_reports_counts(capsys):
    # one node is the root; the budget runs out at the second, before the
    # refinement after 0 pops a splitter, so the one row built is 0's,
    # which the scalar orbits read when they are set up
    code, out = run(capsys, "aut", "--q", "3", "--n", "3", "--seed", "8", "--budget-nodes", "1")
    assert code == 3
    meta = json.loads(out)["meta"]
    counts = meta["leaves"], meta["leaf_vertices"], meta["rows"], meta["splitters"]
    assert counts == (0, 0, 1, 0)


def test_distinguish_budget_exhaustion(capsys):
    code, out = run(capsys, "distinguish", "--q", "3", "--n", "3", "--seed", "8",
                    "--budget-nodes", "1", "--no-meta")
    assert code == 3
    assert json.loads(out) == {"complete": False, "nodes": 2}


def test_invariant_violation_exits_4(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise InvariantViolation("a check failed")

    monkeypatch.setattr("linecayley.cli.automorphism_group", broken)
    code = main(["aut", "--q", "3", "--n", "2", "--seed", "1", "--no-meta"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == "error: a check failed\n"


def test_aut_case_ii_past_the_gl_scan(capsys, deadline):
    deadline(30)
    for q, n, seed in (("5", "3", "8"), ("3", "4", "2")):
        code, out = run(capsys, "aut", "--q", q, "--n", n, "--seed", seed, "--no-meta")
        assert code == 0
        d = json.loads(out)
        assert d["dichotomy"] == "ii"
        s = sample_connection_set(int(q), int(n), 0.5, int(seed))
        m = tuple(tuple(row) for row in d["witness"])
        assert not is_scalar_matrix(m)
        assert all(mat_apply(m, v, s.q) in s.members for v in s.members)


def test_error_exits(capsys, tmp_path):
    code, _ = run(capsys, "lines", "--q", "4", "--n", "2")
    assert code == 2
    code, _ = run(capsys, "lines", "--q", "2", "--n", "2")
    assert code == 2
    code, _ = run(capsys, "sample", "--q", "3", "--n", "2")
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run(capsys, "build", "--q", "3", "--n", "2", "--in", str(bad))
    assert code == 2
    code, _ = run(capsys, "build", "--q", "3", "--n", "2",
                  "--in", str(tmp_path / "missing.json"))
    assert code == 2


def test_huge_sizes_exit_2_at_once(capsys, no_tables, tmp_path):
    # every command that builds lines, a connection set or a graph refuses
    # (3,40), 3^40 vertices, with exit 2 and one line of error before any
    # table is built (no_tables makes a table an AssertionError); bounds at
    # (5,40) builds none and still runs
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"q": 3, "n": 40, "lines": [[0] * 39 + [1]]}))
    commands = (
        ["lines"],
        ["sample", "--seed", "1"],
        ["build", "--seed", "1"],
        ["aut", "--seed", "1"],
        ["aut", "--in", str(big)],
        ["distinguish", "--seed", "1"],
        ["experiment", "--seed", "1", "--trials", "2"],
    )
    for argv in commands:
        code = main([*argv, "--q", "3", "--n", "40", "--no-meta"])
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == ""
        assert captured.err == f"error: F_3^40 has more than MAX_VERTICES = {2**20} vertices\n"
    code, _ = run(capsys, "bounds", "--q", "5", "--n", "40", "--no-meta")
    assert code == 0


def test_bounds_union_chain(capsys):
    code, out = run(capsys, "bounds", "--q", "5", "--n", "6", "--no-meta")
    assert code == 0
    d = json.loads(out)
    assert d["union_bound"]["chain_holds"] is True
    assert d["chernoff"]["line_reading"]["le_closed_form"] is True


def test_bounds_k(capsys):
    code, out = run(capsys, "bounds", "--k", "4", "--no-meta")
    assert code == 0
    d = json.loads(out)
    assert d["q"] == 5
    assert d["check"] is True


@pytest.mark.parametrize("n", ["0", "-1"])
def test_bounds_k_rejects_n_below_2(capsys, n):
    # the construction needs n >= 2, as aut_union_bound says for --q and --n
    code = main(["bounds", "--k", "4", "--n", n, "--no-meta"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: need n >= 2\n"


def test_bounds_refuses_trials_past_the_draw_cap(capsys, deadline):
    # one trial at (5,40) would make 5^39 draws, and 16,001 at (5,5) make
    # 10,000,625, past CHERNOFF_MAX_DRAWS = 10^7: both are refused before
    # any draw
    deadline(1)
    for argv, draws in ((("--n", "40", "--trials", "1"), "1 x 5^39"),
                        (("--n", "5", "--trials", "16001"), "16001 x 5^4")):
        code = main(["bounds", "--q", "5", *argv, "--seed", "1", "--no-meta"])
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == ""
        assert captured.err == f"error: {draws} draws pass CHERNOFF_MAX_DRAWS = 10^7\n"


def test_bounds_refuses_n_past_the_digit_cap(capsys, deadline):
    # |GL(n, 5)| < 5^(n^2), which has 4,253 digits at n = 78 and 4,363 at
    # n = 79, past Python's default limit on printing an int; at n = 500
    # q^(n-1) would also overflow a float
    deadline(1)
    for n in ("79", "500"):
        code = main(["bounds", "--q", "5", "--n", n, "--no-meta"])
        captured = capsys.readouterr()
        assert code == 2, n
        assert captured.out == ""
        assert captured.err == (
            f"error: |GL({n}, 5)| may have more than GL_ORDER_MAX_DIGITS = 4300 digits\n"
        )
    code, out = run(capsys, "bounds", "--q", "5", "--n", "78", "--no-meta")
    assert code == 0
    assert len(json.loads(out)["union_bound"]["gl_order"]) == 4253


def test_bounds_k_refuses_n_past_the_digit_cap(capsys, deadline):
    # with --k 4, q = 5, and q^n (q - 1) and 2k q^n are printed: both are
    # below 5^(n+2), which has 4,299 digits at n = 6,149 and 4,300 at 6,150
    deadline(1)
    for n in ("6150", "7000"):
        code = main(["bounds", "--k", "4", "--n", n, "--no-meta"])
        captured = capsys.readouterr()
        assert code == 2, n
        assert captured.out == ""
        assert captured.err == (
            f"error: 5^{n} * 4 may have more than GL_ORDER_MAX_DIGITS = 4300 digits\n"
        )
    code, out = run(capsys, "bounds", "--k", "4", "--n", "6149", "--no-meta")
    assert code == 0
    assert len(json.loads(out)["aut_bound"]) == 4299


def test_bounds_refuses_q_past_the_tail_cap(capsys, deadline):
    # at n = 3 the line reading sits one standard deviation below the mean,
    # and its log-space tail takes about q times some tens of terms: q past
    # CHERNOFF_MAX_Q = 10^5 is refused before any work, and q = 99,991 runs
    deadline(2)
    code = main(["bounds", "--q", "1000000007", "--n", "3", "--no-meta"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: tail bounds at q = 1000000007 pass CHERNOFF_MAX_Q = 10^5\n"
    code, out = run(capsys, "bounds", "--q", "99991", "--n", "3", "--no-meta")
    assert code == 0
    assert json.loads(out)["chernoff"]["line_reading"]["le_closed_form"] is True


def test_bounds_primality_test_does_not_grow_with_q(capsys, deadline):
    # q = 2^61 - 1, and the search for the least prime past k = 10^18, would
    # each take about 10^9 trial divisions; Miller-Rabin takes 13 powers.
    # From PRIME_TEST_MAX on, where it is not known to be exact, q is refused
    deadline(2)
    code, out = run(capsys, "bounds", "--q", str(2**61 - 1), "--n", "2", "--no-meta")
    assert code == 0
    assert json.loads(out)["union_bound"]["q"] == 2**61 - 1
    code, out = run(capsys, "bounds", "--k", str(10**18), "--no-meta")
    assert code == 0
    assert json.loads(out)["q"] == 10**18 + 3
    code = main(["bounds", "--k", str(PRIME_TEST_MAX - 1), "--no-meta"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"error: primality is decided below PRIME_TEST_MAX = {PRIME_TEST_MAX}, got {PRIME_TEST_MAX}\n"
    )


def test_huge_prime_q_is_refused_before_its_primality_test(capsys, deadline):
    # 2^61 - 1 is prime, and F_q^2 is past MAX_VERTICES for every q > 2^10,
    # which is checked first
    deadline(1)
    code = main(["lines", "--q", str(2**61 - 1), "--n", "2", "--no-meta"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: F_{2**61 - 1}^2 has more than MAX_VERTICES = {2**20} vertices\n"


def test_distinguish_certificate(capsys):
    code, out = run(capsys, "distinguish", "--q", "5", "--n", "3", "--seed", "42", "--no-meta")
    assert code == 0
    d = json.loads(out)
    assert d["certificate_found"] is True
    assert d["distinguishing"] is True
    assert d["fixing_order"] == "1"
    assert d["coloring"]["num_colors"] == 6


def test_distinguish_on_an_empty_sample(capsys):
    # a seed or a p that samples no line is valid input: the edgeless graph
    # has no (q+1) certificate, and distinguish says so and exits 0
    for argv in (
        ("--q", "3", "--n", "2", "--seed", "-5"),
        ("--q", "5", "--n", "3", "--p", "0", "--seed", "1"),
    ):
        code, out = run(capsys, "distinguish", *argv, "--no-meta")
        assert code == 0, argv
        assert json.loads(out) == {"certificate_found": False}


def test_distinguish_given_coloring(capsys, tmp_path):
    s = sample_connection_set(5, 3, 0.5, 42)
    g = build_graph(s)
    cc = coset_coloring(g)
    spath = tmp_path / "s.json"
    spath.write_text(json.dumps(s.to_json_dict()))
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps(cc.to_json_dict()))
    code, out = run(capsys, "distinguish", "--q", "5", "--n", "3",
                    "--in", str(spath), "--coloring", str(cpath), "--no-meta")
    assert code == 0
    d = json.loads(out)
    assert d["distinguishing"] is False
    assert d["fixing_order"] == "25"
    assert "witness" in d


def test_distinguish_given_coset_coloring_at_5_6(capsys, tmp_path, deadline):
    # the coset colouring, the layers of x[n-1], is proper and is fixed by
    # the q^(n-1) = 3,125 translations of H
    deadline(60)
    path = tmp_path / "coset-5-6.json"
    g = build_graph(sample_connection_set(5, 6, 0.5, 1))
    path.write_text(json.dumps(coset_coloring(g).to_json_dict()))
    code, out = run(capsys, "distinguish", "--q", "5", "--n", "6", "--seed", "1",
                    "--coloring", str(path), "--no-meta")
    assert code == 0
    d = json.loads(out)
    assert (d["distinguishing"], d["proper"], d["fixing_order"]) == (False, True, "3125")


def test_distinguish_reports_improper_coloring_file(capsys, tmp_path):
    # the certificate with one neighbour u of 0 moved into 0's class: the
    # edge {0, u} lies inside one class
    g = build_graph(sample_connection_set(5, 3, 0.5, 42))
    cert = plus_zero_recolor(coset_coloring(g))
    labels = list(cert.class_of)
    labels[g.neighbor_ids(0)[0]] = labels[0]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(Coloring(cert.num_colors, tuple(labels)).to_json_dict()))
    code, out = run(capsys, "distinguish", "--q", "5", "--n", "3", "--seed", "42",
                    "--coloring", str(path), "--no-meta")
    assert code == 0
    assert json.loads(out)["proper"] is False


def test_distinguish_reads_back_its_certificate(capsys, tmp_path):
    argv = ("distinguish", "--q", "5", "--n", "3", "--seed", "42", "--no-meta")
    code, out = run(capsys, *argv)
    assert code == 0
    path = tmp_path / "c.json"
    path.write_text(json.dumps(json.loads(out)["coloring"]))
    code, out = run(capsys, *argv, "--coloring", str(path))
    assert code == 0
    d = json.loads(out)
    assert d["proper"] is True
    assert d["distinguishing"] is True
    assert d["fixing_order"] == "1"


def test_distinguish_dense_instance_finishes(capsys, deadline):
    # Aut has order 13060694016 here; its class-fixing subgroup, 6718464
    deadline(20)
    code, out = run(capsys, "distinguish", "--q", "3", "--n", "3", "--seed", "2", "--no-meta")
    assert code == 0
    assert json.loads(out) == {"certificate_found": False}


def test_experiment_csv(capsys):
    code, out = run(capsys, "experiment", "--q", "3", "--n", "2", "--seed", "4",
                    "--trials", "2", "--format", "csv", "--no-meta")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "seed,lines,elements,chi,aut_order,equals_K,dichotomy,certificate"
    assert len(lines) == 3
    code2, out2 = run(capsys, "experiment", "--q", "3", "--n", "2", "--seed", "4",
                      "--trials", "2", "--format", "csv", "--no-meta")
    assert out2 == out


def test_experiment_census(capsys):
    code, out = run(capsys, "experiment", "--q", "3", "--n", "2",
                    "--sweep-all-subsets", "--no-meta")
    assert code == 0
    d = json.loads(out)
    assert len(d["census"]) == 7


def test_experiment_json_no_meta_strips_runtime(capsys):
    code, out = run(capsys, "experiment", "--q", "3", "--n", "2", "--seed", "4",
                    "--trials", "2", "--no-meta")
    assert code == 0
    d = json.loads(out)
    assert all("runtime_ms" not in r for r in d["records"])
    assert d["aggregate"]["trials"] == 2


# Each command line's --no-meta output, run in process: the exit code it
# expects, the fields it must hold, the sha256 of its bytes where one was
# recorded, and a deadline in seconds, so that a change meant to keep every
# output byte-identical is checked here and not by hand.  This is the one
# home of an output's pin: the CI workflow keeps only the commands that take
# seconds, and test_a_digest_lives_in_one_place keeps their digests out of
# this table.  The first fifteen digests were recorded at 2f63137 (the
# sample and the two builds at 7299f7f).  The case-(ii) aut digests, (5,3)
# seed 8, (3,4) seed 2, (3,3) p = 0.75 seed 3 and planted (5,5), were
# re-recorded when G_0's generators joined the search's pool: their nodes
# fell, and at (3,4) and (3,3) the generators moved, the order, base,
# dichotomy and witness staying as they were.  (3,3) p = 0.75 seed 3 misses
# one line, and was re-recorded again when that group came to be written
# down with no search: 0 nodes, K's generators then the star transpositions,
# and the homology as witness, the order unchanged.  The entries after the
# builds, but for the (5,2) census, came from the CI workflow, with each
# step's timeout as deadline and the digest it recorded.  Planted (5,5)
# takes about 0.34 s, the slowest entries, (5,4) p = 1, (5,7) and the DIMACS
# export at (5,5), about 1 s each, and the whole table about 7 s.
# multiples-5-4.json gives each of its lines as a nonzero multiple of the
# canonical representative, some with coordinates outside [0, q).
PLANTED_5_5 = str(Path(__file__).with_name("planted-5-5.json"))
MULTIPLES_5_4 = str(Path(__file__).with_name("multiples-5-4.json"))


class Pin(NamedTuple):
    argv: tuple
    digest: str = None
    code: int = 0
    fields: dict = {}
    deadline: float = None


OUTPUT_DIGESTS = [
    Pin(("aut", "--q", "5", "--n", "3", "--seed", "8"),
        "b4fc855f8ce49a76779b7af8b6e1fb9bc9e50262998bd41f2ff9aa698c65ae6e"),
    # a case-(ii) instance whose GL(4, 3) has 3^16 candidate matrices: the
    # witness is read off the linear maps fixing S among it
    Pin(("aut", "--q", "3", "--n", "4", "--seed", "2"),
        "a3b71a276341a0469489b25dcf1ef9cf7b1aea6c98871b0522eb363af375fffd"),
    Pin(("aut", "--q", "5", "--n", "4", "--seed", "1"),
        "ed7ccae7058c35ccd8014c0458dae2d908af7cddc965ce2897f7eaabdd85fa26"),
    Pin(("aut", "--q", "3", "--n", "3", "--p", "0.75", "--seed", "3"),
        "ee9313444b8d2ee9e3fee919d3449250e95c70b60d4c273ad129c3c9fc347ae6"),
    # a five-line cone, G = K_3 x R, whose R at (3,2) is searched in 4 nodes:
    # Aut = Sym(3) x Aut(R), of order 432, and its 9 generators hold R's
    # lifted onto the grid's columns
    Pin(("aut", "--q", "3", "--n", "3", "--p", "0.75", "--seed", "59"),
        "e1b7d45585b9542f639e087b260f7f0eed44b86304b4a0a1e30bd6050aa6a41c"),
    # a six-line S with a period of 3 points, whose G/W at (3,2) is searched
    # in 4 nodes, for order 725,594,112 with 24 generators; recorded before
    # G/W was solved by automorphism_group
    Pin(("aut", "--q", "3", "--n", "3", "--p", "0.75", "--seed", "4"),
        "ccd5fa72305345a8d6e9282819a5223b2ff0bf4ee8915c157d96fccf4d47dd90"),
    # planted (5,5) seed 1, a union of orbits of lines under the homology
    # x -> diag(-1, 1, 1, 1, 1) x: case (ii), where the linear maps fixing S
    # seed the search's pool and no leaf is checked, and |Aut| = 2|K|
    Pin(("aut", "--q", "5", "--n", "5", "--in", PLANTED_5_5),
        "a008e1638d39d31fb65d793e4ce1e39a0d6e995936fcad274b85954c9f593864",
        fields={"dichotomy": "ii", "order": "25000"}, deadline=60),
    # the clique [0, 196, 367, 413, 584], on the line (1, 4, 2, 1)
    Pin(("chi", "--q", "5", "--n", "4", "--p", "0.05", "--seed", "4"),
        "24d6474d63fc397c0f20c16d0e0075f823677fa99f1c6619dcd10422ada279c6"),
    Pin(("distinguish", "--q", "5", "--n", "4", "--seed", "1"),
        "1b36c0ed9d21db40918b0dca8b26dfbc6902eead77e3bba47fadc25926941bb9"),
    Pin(("distinguish", "--q", "5", "--n", "3", "--seed", "8"),
        "49b16f7bb00d40a5bcfaac66fccc2533e51c46fa2bccf7ceb159cd2965587ca9"),
    Pin(("experiment", "--q", "5", "--n", "3", "--trials", "20", "--seed", "3"),
        "6cabae1e2596edae18d517dc07557df61f83ea85fe8db282195d03a0736d4251"),
    Pin(("experiment", "--q", "5", "--n", "3", "--trials", "20", "--seed", "3", "--format", "csv"),
        "801eb77344abe800463037dbc736cb9cfd4fbdce745049eedc3744ebfe8d040f"),
    Pin(("sample", "--q", "5", "--n", "4", "--seed", "1"),
        "f699eeae0ac95da88bf8ca84bd66371678eb992a9d9231cde67a7fdb35ba1615"),
    Pin(("build", "--q", "5", "--n", "3", "--seed", "4", "--format", "dimacs"),
        "f181614a24cc3c3290635cdef8f95f73f24218e0a1a24341a2b3e76b993de371"),
    Pin(("build", "--q", "5", "--n", "4", "--in", MULTIPLES_5_4),
        "f74a7c643005475685c5602e5aa23c9f386cf45a1a48c0fbbd439b21bf9f535b"),
    # Aut of a 3,125-vertex graph in case (i), Aut = K
    Pin(("aut", "--q", "5", "--n", "5", "--seed", "1"), fields={"dichotomy": "i"}, deadline=120),
    # p = 1 at (5,4): S holds every admissible line, its period W is the
    # hyperplane x[3] = 0, and G/W is K_5, so Aut = Sym(125) wr Sym(5), of
    # order (125!)^5 * 5!, is written down with no search; the witness and
    # generators come from the period and the quotient's cosets, recorded at
    # 9c8773d
    Pin(("aut", "--q", "5", "--n", "4", "--p", "1", "--seed", "1"),
        "284bfa812689cd48fdc3983ff1954535f4332d448e3fcd43101761e286401574",
        fields={"order": str(math.factorial(125) ** 5 * 120), "dichotomy": "ii"}, deadline=30),
    # S misses one admissible line at (5,4), p = 0.99: G's complement is
    # K_125 □ K_5, so Aut = Sym(125) x Sym(5) is written down with no
    # search, K's generators then star transpositions, with the homology
    # x -> x - 2 x[3] u as witness, u on the missing line
    Pin(("aut", "--q", "5", "--n", "4", "--p", "0.99", "--seed", "0"),
        "05d2a5e84ab3cc304254d6367146b60c8040b25d92043b00b4e28da52e2a0cc7",
        fields={"order": str(math.factorial(125) * 120), "dichotomy": "ii", "nodes": 0},
        deadline=10),
    # 24 lines at (3,4), p = 0.9, seed 53, with a period W of 3 points: G/W
    # misses exactly one admissible line of (3,3), so it takes the product
    # route and Aut = Sym(3) wr (Sym(9) x Sym(3)), of order 3!^27 9! 3!, is
    # written down with no search, where a search of G/W needed 25 nodes and
    # a budget of 1 stopped it; recorded when G/W was first solved by
    # automorphism_group
    Pin(("aut", "--q", "3", "--n", "4", "--p", "0.9", "--seed", "53", "--budget-nodes", "1"),
        "88777877f12005fe0c5c600d8eb7bed4e080e7765065f0e77a266654ef714602",
        fields={"order": "2228425110784992247629742080", "dichotomy": "ii", "nodes": 0},
        deadline=10),
    # a seven-line cone at (3,3), p = 0.75, seed 8: the homologies of centre
    # u = (1, 2, 1), a point of S, fix S, so G = K_3 x R, R a graph at (3,2)
    # with a period, and Aut = Sym(3) x Aut(R) is written down with no search
    # on G: K's generators, R's lifted, then the row swaps, with the homology
    # x -> x - 2 x[2] u as witness
    Pin(("aut", "--q", "3", "--n", "3", "--p", "0.75", "--seed", "8"),
        "341c10417591768e686bb955e1e6ceca8c45c4551f48be534bcc9a4cd2214333",
        fields={"order": "7776", "dichotomy": "ii"}, deadline=10),
    # near-complete S at (3,5), p = 0.97, with no period: the search branches
    # through 309 nodes and counts its large vertex splitters by ids;
    # recorded once G_0, the linear maps fixing S, seeded the search's pool,
    # where it took 380 nodes; the order and witness are as recorded when the
    # witness was read off G_0
    Pin(("aut", "--q", "3", "--n", "5", "--p", "0.97", "--seed", "1"),
        "45846328ba96781c4d08a25947f187b481a8f840ca711d46e5eb7e6512b86abe",
        fields={"dichotomy": "ii", "nodes": 309}, deadline=30),
    # near-complete S at (5,4), p = 0.97: the search's one leaf is in
    # T ⋊ G_0, which G_0 keeps with no neighbourhood compared; recorded at
    # eb5cbef
    Pin(("aut", "--q", "5", "--n", "4", "--p", "0.97", "--seed", "2"),
        "b3a80f721dc85d4d19025dea6d4586f97659c44fb94396f6351f7bc0dd138bbf",
        fields={"dichotomy": "ii", "nodes": 8}, deadline=30),
    # Aut in case (i), Aut = K, at four sizes in the paper's regime, where
    # N(0), the large splitter, is counted from the neighbour masks; recorded
    # at 38f522a, (11,4) and (31,3) at 7132152.  At (31,3), q - 1 = 30 is the
    # largest scalar-orbit factor of the regime: the refinement after 0 runs
    # on 993 orbits of 30 vertices each.  (5,7)'s level-0 orbit, of 78,125
    # vertices, is the largest the stabilizer chain builds
    Pin(("aut", "--q", "5", "--n", "6", "--seed", "1"),
        "7d73dfaff81e08038b719edd3c3680d4e8d6d8f288d45461e5532660c5006541",
        fields={"dichotomy": "i"}, deadline=30),
    Pin(("aut", "--q", "11", "--n", "4", "--seed", "1"),
        "e803959152e805130c1760e42bdb884cf3de0d8aa0959b2a3f7e32d1b79d2fe4",
        fields={"dichotomy": "i"}, deadline=30),
    Pin(("aut", "--q", "31", "--n", "3", "--seed", "1"),
        "952262cdba450134c0168cc00486fc17162b2be94721a2afe26520fb7b849e4d",
        fields={"dichotomy": "i"}, deadline=30),
    Pin(("aut", "--q", "5", "--n", "7", "--seed", "1"),
        "7913f49ef0b78e5fe5fb3c4f8ba87d4bba8a2382e9b9ba5e8c075c07b6afb049",
        fields={"dichotomy": "i"}, deadline=60),
    # ten instances at (5,6) in one process, which share K's stabilizer
    # chain, the addition tables and the coset labels built for the first:
    # every record has Aut = K, dichotomy "i" and the (q+1) certificate
    Pin(("experiment", "--q", "5", "--n", "6", "--trials", "10", "--seed", "1"),
        fields={"records": [{"equals_K": True, "dichotomy": "i", "certificate": True}] * 10},
        deadline=60),
    # 200 instances at (3,3), p = 0.75, none in case (i): the 44 whose S
    # misses one line run no search, as their group is written down, and
    # every other search branches below the scalar orbits and reads its
    # neighbourhood table; recorded at the child of 0847645, where the trials
    # gained their dichotomy and certificate columns (the rows hold no node
    # count, so the unsearched ones read as before)
    Pin(("experiment", "--q", "3", "--n", "3", "--p", "0.75", "--trials", "200", "--seed", "1"),
        "e869d50f118faefe7e0c4869bb1f9b34687f0bb71213324df5fad518e11fd664",
        fields={"aggregate": {"solved": 200, "equals_K": 0, "case_ii": 200}}, deadline=60),
    # the census of all 31 line subsets at (5,2): each of the ten two-line S,
    # K_5 □ K_5, has a distinguishing proper 5-colouring, the second
    # partition listed, so chi_D <= q there; every other S has none
    Pin(("experiment", "--q", "5", "--n", "2", "--sweep-all-subsets"),
        "2fa5213e1cf0966669b54112497eb282d408418a6e5fbf4a670cca3549d643c1",
        fields={"census": [{"chiD_exceeds_q": True}] * 5
                + [{"chiD_exceeds_q": False, "partitions": 2}] * 10
                + [{"chiD_exceeds_q": True}] * 16},
        deadline=10),
    # the (q+1) certificate on the 15,625-vertex graph at (5,6), the first
    # q = 5 size in the paper's regime; on the 78,125-vertex graph at (5,7),
    # proper by the shape of S, so no neighbour mask is streamed; and at
    # (13,4), the largest q of the regime, where |S| = 12,972 is checked in
    # one pass
    Pin(("distinguish", "--q", "5", "--n", "6", "--seed", "1"),
        fields={"certificate_found": True}, deadline=120),
    Pin(("distinguish", "--q", "5", "--n", "7", "--seed", "1"),
        fields={"certificate_found": True}, deadline=60),
    Pin(("distinguish", "--q", "13", "--n", "4", "--seed", "1"),
        fields={"certificate_found": True}, deadline=30),
    # bounds with 5^39 lines, far past the exact tails
    Pin(("bounds", "--q", "5", "--n", "40"),
        fields={"union_bound": {"chain_holds": True}}, deadline=30),
    # bounds where the primality test by trial division, or the line
    # reading's log-space tail, ran for minutes: q = 10^9 + 7 is past
    # CHERNOFF_MAX_Q and refused with exit 2, and q = 2^61 - 1 and the least
    # prime past k = 10^18 are decided by Miller-Rabin
    Pin(("bounds", "--q", "1000000007", "--n", "3"), code=2, deadline=10),
    Pin(("bounds", "--q", "2305843009213693951", "--n", "2"), deadline=10),
    Pin(("bounds", "--k", "1000000000000000000"), deadline=10),
    # the DIMACS export of a 3,125-vertex graph, all 1,875,001 lines of it,
    # recorded at 7299f7f
    Pin(("build", "--q", "5", "--n", "5", "--seed", "1", "--format", "dimacs"),
        "01a58fef6e09f8bdbb4ea599214bd0a3747081340cbcee3be5dce8c04131d478",
        fields={"lines": 1875001}, deadline=120),
]


def _read(out):
    """The output as its fields are checked: its JSON, or the line count of
    a DIMACS export."""
    return {"lines": out.count("\n")} if out.startswith("p edge") else json.loads(out)


def _check_fields(expected, got, path=()):
    """Each dict of expected holds a subset of got's keys; each list is got's
    list item by item; each other value is got's, of the same type."""
    if isinstance(expected, dict):
        for key, value in expected.items():
            _check_fields(value, got[key], (*path, key))
    elif isinstance(expected, list):
        assert len(got) == len(expected), path
        for i, (value, item) in enumerate(zip(expected, got)):
            _check_fields(value, item, (*path, i))
    else:
        assert (type(got), got) == (type(expected), expected), path


def _pin_id(pin):
    """The pin's command line, as aut:q=5,n=3,seed=8 for aut --q 5 --n 3 --seed 8."""
    words = " ".join(Path(a).name if a.endswith(".json") else a for a in pin.argv[1:])
    return pin.argv[0] + ":" + ",".join(o.strip().replace(" ", "=") for o in words.split("--")[1:])


@pytest.mark.parametrize("pin", OUTPUT_DIGESTS, ids=_pin_id)
def test_no_meta_outputs_are_pinned(capsys, deadline, pin):
    if pin.deadline:
        deadline(pin.deadline)
    code, out = run(capsys, *pin.argv, "--no-meta")
    assert code == pin.code
    if pin.fields:
        _check_fields(pin.fields, _read(out))
    if pin.digest:
        assert hashlib.sha256(out.encode()).hexdigest() == pin.digest


def test_a_digest_lives_in_one_place():
    # a CI step that pins an output by sha256 is a command too slow for the
    # table above; one output pinned in both is checked twice, and edited twice
    workflow = Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"
    pinned = re.findall(r'echo "([0-9a-f]{64})  .*sha256sum -c', workflow.read_text())
    assert pinned
    table = {pin.digest for pin in OUTPUT_DIGESTS}
    assert [digest for digest in pinned if digest in table] == []


def test_distinguish_rejects_bad_coloring_ids(capsys, tmp_path):
    g = build_graph(sample_connection_set(3, 3, 0.5, 1))
    classes = coset_coloring(g).to_json_dict()["classes"]
    for bad_id in (30, -1):
        bad = [list(cl) for cl in classes]
        bad[-1][-1] = bad_id
        path = tmp_path / f"c{bad_id}.json"
        path.write_text(json.dumps({"num_colors": 3, "classes": bad}))
        code, out = run(capsys, "distinguish", "--q", "3", "--n", "3", "--seed", "1",
                        "--coloring", str(path), "--no-meta")
        assert code == 2
        assert out == ""


def test_distinguish_rejects_malformed_coloring_file(capsys, tmp_path):
    cases = (
        ("no-classes", {"num_colors": 3}),
        ("flat", {"num_colors": 3, "classes": [1, 2]}),
        ("too-few-colors", {"num_colors": 1, "classes": [[0, 1, 2], [3, 4, 5], [6, 7, 8]]}),
        ("negative-colors", {"num_colors": -5, "classes": [list(range(9))]}),
        ("float-colors", {"num_colors": 3.5, "classes": [[0, 1, 2], [3, 4, 5], [6, 7, 8]]}),
        ("bool-colors", {"num_colors": True, "classes": [list(range(9))]}),
        ("bool-id", {"num_colors": 3, "classes": [[0, 2, 3, 4, 5, 6, 7, 8], [True]]}),
        # well-formed colourings of 4 and of 27 ids, where (3,2) has 9 vertices
        ("ids-0-3", {"num_colors": 2, "classes": [[0, 1], [2, 3]]}),
        ("27-ids", {"num_colors": 3, "classes": [list(range(i, 27, 3)) for i in range(3)]}),
    )
    for name, d in cases:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(d))
        code, out = run(capsys, "distinguish", "--q", "3", "--n", "2", "--seed", "1",
                        "--coloring", str(path), "--no-meta")
        assert code == 2
        assert out == ""


def test_build_rejects_connection_file_without_n(capsys, tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"q": 3, "lines": [[0, 1]]}))
    code, out = run(capsys, "build", "--q", "3", "--n", "2", "--in", str(path), "--no-meta")
    assert code == 2
    assert out == ""


def test_build_rejects_non_integer_connection_values(capsys, tmp_path):
    cases = (
        ("float-q", {"q": 5.9, "n": 3, "lines": [[1, 2, 1]]}),
        ("float-coordinate", {"q": 5, "n": 3, "lines": [[1.7, 2, 1]]}),
        ("bool-coordinate", {"q": 5, "n": 3, "lines": [[True, 2, 1]]}),
        ("string-n", {"q": 5, "n": "3", "lines": [[1, 2, 1]]}),
    )
    for name, d in cases:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(d))
        code, out = run(capsys, "build", "--q", "5", "--n", "3", "--in", str(path), "--no-meta")
        assert code == 2, name
        assert out == ""


def test_build_rejects_connection_file_for_other_sizes(capsys, tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"q": 5, "n": 3, "lines": [[1, 2, 1]]}))
    for q, n in (("3", "2"), ("5", "2"), ("3", "3")):
        code, out = run(capsys, "build", "--q", q, "--n", n, "--in", str(path), "--no-meta")
        assert code == 2
        assert out == ""
    code, out = run(capsys, "build", "--q", "5", "--n", "3", "--in", str(path), "--no-meta")
    assert code == 0
    assert json.loads(out)["lines"] == [[1, 2, 1]]


def test_sweep_budget_exhaustion(capsys):
    code = main(["experiment", "--q", "3", "--n", "2", "--sweep-all-subsets",
                 "--budget-nodes", "1", "--no-meta"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "exceeded 1 nodes" in captured.err


def test_sweep_refuses_too_many_subsets(capsys, deadline):
    # (5,3)'s 25 lines have 2^25 - 1 subsets, past SWEEP_MAX_SUBSETS, and
    # are refused before any work, as is (5,40), whose 5^39 lines are not
    # listed; (3,3)'s 511 subsets are taken on, and with a budget of 1 node
    # its first search runs out
    deadline(5)
    for q, n in (("5", "3"), ("3", "4"), ("5", "40")):
        code = main(["experiment", "--q", q, "--n", n, "--sweep-all-subsets", "--no-meta"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "more than 511" in captured.err
    code = main(["experiment", "--q", "3", "--n", "3", "--sweep-all-subsets",
                 "--budget-nodes", "1", "--no-meta"])
    captured = capsys.readouterr()
    assert code == 3
    assert "exceeded 1 nodes" in captured.err


def test_sweep_rejects_csv_format(capsys):
    code = main(["experiment", "--q", "3", "--n", "2", "--sweep-all-subsets",
                 "--format", "csv", "--no-meta"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_chi_has_no_budget_flags(capsys):
    for flag in ("--budget-nodes", "--budget-enum"):
        with pytest.raises(SystemExit) as exc:
            main(["chi", "--q", "3", "--n", "2", "--seed", "1", flag, "1"])
        assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("aut", "--q", "3", "--n", "2", "--seed", "1", "--budget-nodes"),
    ("experiment", "--q", "3", "--n", "2", "--sweep-all-subsets", "--budget-enum"),
    ("experiment", "--q", "3", "--n", "2", "--seed", "1", "--trials", "2", "--jobs"),
], ids=("budget-nodes", "budget-enum", "jobs"))
def test_count_flags_below_one_exit_2(capsys, argv):
    for value in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            main([*argv, value, "--no-meta"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


def _python(*argv):
    """Run a fresh interpreter on argv with the package's source on its path."""
    src = str(Path(linecayley.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=60)


def test_dimacs_export_streams():
    # (5,4) has 73,750 edges; holding the text in memory before writing it
    # peaked at 6 MB of Python allocations
    tracemalloc.start()
    try:
        code = main(["build", "--q", "5", "--n", "4", "--seed", "1", "--format", "dimacs",
                     "--out", os.devnull])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2 * 10**6


def test_reader_closing_stdout_early_is_not_an_error():
    # (5,4) writes about 1 MB of DIMACS text, far more than a pipe buffers,
    # so the export is still writing when the reader stops, as `head -1` does
    src = str(Path(linecayley.__file__).resolve().parent.parent)
    proc = subprocess.Popen(
        [sys.executable, "-m", "linecayley.cli", "build", "--q", "5", "--n", "4", "--seed", "1",
         "--format", "dimacs", "--no-meta"],
        env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"p edge 625 73750\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


@pytest.mark.parametrize("argv", [
    ("bounds", "--q", "5", "--n", "4", "--no-meta"),
    ("distinguish", "--q", "5", "--n", "3", "--seed", "1", "--no-meta"),
    ("bounds", "--q", "5", "--n", "6", "--no-meta"),
])
def test_cli_runs_without_site_packages(argv):
    # -S drops site-packages: the package needs nothing outside the standard library
    bare = _python("-S", "-m", "linecayley.cli", *argv)
    assert bare.returncode == 0, bare.stderr
    full = _python("-m", "linecayley.cli", *argv)
    assert full.returncode == 0, full.stderr
    assert bare.stdout == full.stdout


def test_import_loads_only_the_standard_library():
    code = (
        "import sys; before = set(sys.modules); import linecayley; "
        "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}))"
    )
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "linecayley" in loaded
    assert loaded - {"linecayley"} <= sys.stdlib_module_names
    # only experiment --jobs N with N > 1 needs a process pool
    assert "multiprocessing" not in loaded
